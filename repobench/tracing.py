"""In-memory spans around the calls into each layer of ``repro``.

The benchmark records its spans from its own code: :func:`patch_functions`
replaces a layer's public function with a wrapper in every loaded module
that looks the function up by name, so calls between layers are traced
exactly where the calling layer makes them.  Spans stay in memory until
the run ends; :func:`summarize` turns them into per-layer call counts,
busy time and self time (a span's duration minus what its direct
children cover).
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
from dataclasses import dataclass, field
from time import perf_counter
from types import ModuleType
from typing import Any, Callable, Iterable


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None  #: index of the enclosing span
    op: str | None = None  #: the benchmark operation the span served
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_list(self) -> list:
        return [self.name, self.start, self.end, self.parent, self.op, self.attrs]

    @staticmethod
    def from_list(row: list) -> "Span":
        return Span(*row)


class Tracer:
    """Thread-safe span recorder; parents are tracked per thread."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def set_op(self, op: str | None) -> None:
        self._local.op = op

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, **attrs: Any) -> int:
        stack = self._stack()
        span = Span(
            name,
            perf_counter(),
            parent=stack[-1] if stack else None,
            op=getattr(self._local, "op", None),
            attrs=attrs,
        )
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
        stack.append(index)
        return index

    def end(self, index: int, **attrs: Any) -> None:
        span = self.spans[index]
        span.end = perf_counter()
        span.attrs.update(attrs)
        self._stack().pop()


AttrsOf = Callable[[tuple, dict, Any], dict[str, Any]]


def traced(tracer: Tracer, name: str, fn: Callable, attrs_of: AttrsOf | None = None):
    """``fn`` wrapped in a span named ``name``."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = tracer.begin(name)
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            tracer.end(
                index,
                **(attrs_of(args, kwargs, result) if attrs_of and result is not None else {}),
            )

    return wrapper


class Patches:
    """Attribute replacements that :meth:`undo` restores in reverse order."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def replace(self, owner: object, attr: str, new: object) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def undo(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)


def _callers(extra: Iterable[ModuleType]) -> list[ModuleType]:
    mods = [
        m
        for name, m in list(sys.modules.items())
        if m is not None and (name == "repro" or name.startswith("repro."))
    ]
    return mods + [m for m in extra if m not in mods]


def patch_functions(
    tracer: Tracer,
    targets: Iterable[tuple[str, str, str, AttrsOf | None]],
    patches: Patches,
    extra_modules: Iterable[ModuleType] = (),
) -> None:
    """Wrap each ``(span, module, function, attrs_of)`` target.

    Every loaded ``repro`` module (and each of ``extra_modules``) whose
    global of that name *is* the function gets the wrapper, so the span
    opens wherever a calling layer looks the function up.
    """
    targets = [(t, importlib.import_module(t[1])) for t in targets]
    modules = _callers(extra_modules)
    for (span_name, _, attr, attrs_of), home in targets:
        original = getattr(home, attr)
        wrapper = traced(tracer, span_name, original, attrs_of)
        for mod in modules:
            if vars(mod).get(attr) is original:
                patches.replace(mod, attr, wrapper)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    child_time = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] += span.duration
    return [s.duration - c for s, c in zip(spans, child_time)]


@dataclass
class LayerStats:
    calls: int = 0
    busy_s: float = 0.0
    self_s: float = 0.0


def summarize(spans: list[Span], stats: dict[str, LayerStats] | None = None) -> dict[str, LayerStats]:
    """Per span name: calls, busy time and self time, added to ``stats``."""
    stats = {} if stats is None else stats
    for span, own in zip(spans, self_times(spans)):
        entry = stats.setdefault(span.name, LayerStats())
        entry.calls += 1
        entry.busy_s += span.duration
        entry.self_s += own
    return stats


def covered_seconds(intervals: Iterable[tuple[float, float]]) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def _solve_attrs(args: tuple, kwargs: dict, result: Any) -> dict[str, Any]:
    from repro.core.solver import canonical_algorithm

    algorithm = args[2] if len(args) > 2 else kwargs.get("algorithm", "admv")
    return {"algorithm": canonical_algorithm(algorithm)}


#: The layer entry points traced: (span name, defining module, function,
#: span attributes taken from the call).
LAYER_SPANS: tuple[tuple[str, str, str, AttrsOf | None], ...] = (
    ("core.solve", "repro.core.solver", "optimize", _solve_attrs),
    ("core.evaluate", "repro.core.evaluator", "evaluate_schedule", None),
    ("dag.search", "repro.dag.search", "search_order", None),
    ("dag.parallel", "repro.dag.parallel", "search_parallel", None),
    ("sim.adaptive", "repro.simulation.adaptive", "run_adaptive", None),
    ("sim.adaptive", "repro.simulation.adaptive", "run_adaptive_parallel", None),
    ("sim.compile", "repro.simulation.compile", "compile_schedule", None),
    ("sim.kernel", "repro.simulation.batch", "run_compiled", None),
    ("sim.parallel", "repro.simulation.parallel", "simulate_parallel", None),
)
