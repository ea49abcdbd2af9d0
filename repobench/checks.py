"""Output checks.  Each returns ``None`` when the output is correct and a
one-line reason otherwise; a reason counts the operation as failed."""

from __future__ import annotations

import math
from typing import Hashable, Sequence

#: Relative tolerance for a reported value against its recomputation.
VALUE_RTOL = 1e-9


def relative_gap(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def topological_violation(dag, order: Sequence[Hashable]) -> str | None:
    """Reason ``order`` is not a topological order of ``dag``, if any."""
    nodes = set(dag.graph.nodes)
    if len(order) != len(nodes) or set(order) != nodes:
        return f"order covers {len(set(order))} of {len(nodes)} tasks"
    position = {v: k for k, v in enumerate(order)}
    for u, v in dag.graph.edges:
        if position[u] > position[v]:
            return f"edge {u}->{v} runs backwards in the order"
    return None


def value_mismatch(reported: float, recomputed: float, what: str) -> str | None:
    if relative_gap(reported, recomputed) > VALUE_RTOL:
        return f"reported {reported!r} but {what} gives {recomputed!r}"
    return None


def worse_than_reference(value: float, reference: float) -> str | None:
    if value > reference * (1.0 + VALUE_RTOL):
        return f"value {value!r} is worse than the heuristic {reference!r}"
    return None


def interval_violation(
    mean: float,
    half_width: float,
    reference: float,
    *,
    lower_bound_only: bool = False,
) -> str | None:
    """Reason the certified interval ``mean ± half_width`` rejects
    ``reference``: it must contain an exact analytic value, and must not
    lie wholly below a value that is only a lower bound."""
    if not math.isfinite(half_width):
        return "certified interval is unbounded"
    lo, hi = mean - half_width, mean + half_width
    if hi < reference or (not lower_bound_only and reference < lo):
        kind = "lower bound" if lower_bound_only else "analytic value"
        return f"{kind} {reference!r} outside certified [{lo!r}, {hi!r}]"
    return None


def reply_violation(status: int, body: bytes, first_body: bytes | None) -> str | None:
    """A reply must be a 200 whose body repeats the first body seen for
    its content key byte for byte."""
    if status != 200:
        return f"HTTP {status}"
    if first_body is not None and body != first_body:
        return "body differs from the first body seen for its key"
    return None
