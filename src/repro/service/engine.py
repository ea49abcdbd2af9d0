"""The endpoints and the persistent engine behind ``repro serve``.

Every endpoint (``solve`` / ``simulate`` / ``dag/optimize``) has one
implementation here, in two steps that the HTTP routes, ``/jobs``
campaigns and the CLI subcommands ``repro solve`` / ``simulate`` /
``dag optimize`` all run:

- :func:`normalise` turns a request dict (an HTTP body, or the dict the
  CLI builds from its flags) into a :class:`Request`: model objects and
  every option, defaults (:data:`FIELDS`) filled in, cross-field rules
  checked; anything malformed is an
  :class:`~repro.exceptions.InvalidParameterError` (HTTP 400);
- :func:`execute` computes it into an :class:`Outcome`: the result
  object and its :mod:`repro.api` document.  Run-only options no HTTP
  client can set (``n_jobs``, ``chunk_size``) are keyword arguments, so
  they never enter the content address.

An :class:`Engine` wraps the two steps in per-request instrumentation
(a thread-local :func:`repro.obs.instrument` scope whose snapshot it
merges into a cumulative pool) and one
:class:`~repro.service.cache.ContentCache`: rendered response payloads
keyed by :func:`repro.api.canonical_hash` of the *normalised content*,
plus the ``ChainObjective`` exact-solve memos as namespaced views into
the same evictable pool.

Cache contract: a hit returns the **byte-identical** payload the cold
request rendered — the hit/miss status travels out-of-band (HTTP
headers, :attr:`EngineResponse.cache`), never inside the body, so
clients can hash response bodies across a server restart or a cache
flush and get stable answers.  The CLI's ``--json`` prints that body.
"""

from __future__ import annotations

import inspect
import json
import threading
from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache
from time import perf_counter
from typing import Any

from ..api import SCHEMA_VERSION, as_document, canonical_hash
from ..chains import PAPER_TOTAL_WEIGHT, TaskChain, make_chain
from ..core import Schedule, evaluate_schedule, optimize
from ..core.solver import canonical_algorithm
from ..dag import WorkflowDAG, generate, optimize_dag, search_order, search_parallel
from ..dag.generate import GENERATORS
from ..dag.search import ChainObjective, uses_join_objective
from ..exceptions import InvalidParameterError, ReproError
from ..experiments.common import certify_solution
from ..obs import (
    DEFAULT_EVENT_CAPACITY,
    EventBus,
    MetricsRegistry,
    MetricsSnapshot,
    TaggedBus,
    Tracer,
    build_profile,
    get_logger,
    instrument,
    render_prometheus,
    span,
)
from ..platforms import TABLE1_ROWS, Platform, get_platform
from ..simulation import (
    DEFAULT_MAX_RUNS,
    get_backend,
    run_adaptive_parallel,
    run_monte_carlo,
)
from .cache import ContentCache

logger = get_logger(__name__)

__all__ = [
    "ENDPOINTS", "FIELDS", "Engine", "EngineResponse",
    "Outcome", "Request", "execute", "generator_knobs", "normalise",
    "render", "workflow",
]


_CHAIN_FIELDS: dict[str, tuple[Any, tuple[type, ...]]] = {
    "platform": ("hera", (str, dict)),
    "pattern": ("uniform", (str,)),
    "tasks": (20, (int,)),
    "total_weight": (PAPER_TOTAL_WEIGHT, (float,)),
    "weights": (None, (list,)),
    "chain": ("custom", (str,)),
    "algorithm": ("admv", (str,)),
}

#: Request fields of each endpoint: name -> (default, accepted JSON
#: types).  ``null`` is accepted only where the default is ``None``.
FIELDS: dict[str, dict[str, tuple[Any, tuple[type, ...]]]] = {
    "solve": _CHAIN_FIELDS,
    "simulate": {
        **_CHAIN_FIELDS,
        "schedule": (None, (str,)),
        "runs": (None, (int,)),
        "seed": (0, (int,)),
        "target_ci": (None, (float,)),
        "backend": (None, (str,)),
        "engine": ("batch", (str,)),
    },
    "dag/optimize": {
        "platform": ("hera", (str, dict)),
        "dag": (None, (dict,)),
        "generator": (None, (dict,)),
        "algorithm": ("admv", (str,)),
        "strategy": ("auto", (str,)),
        "method": ("hill_climb", (str,)),
        "seed": (0, (int,)),
        "restarts": (2, (int,)),
        "iterations": (400, (int,)),
        "recombine": (2, (int,)),
        "certify": (False, (bool,)),
        "target_ci": (0.01, (float,)),
        "backend": (None, (str,)),
        "processors": (None, (int,)),
        "estimate": (True, (bool,)),
    },
}

_TYPE_NAMES = {
    int: "an integer", float: "a number", str: "a string",
    bool: "a boolean", list: "a list", dict: "an object",
}


@dataclass(frozen=True)
class Request:
    """A normalised request: model objects and every option's value."""

    endpoint: str
    content: dict[str, Any]

    @property
    def key(self) -> str:
        """The content address the engine caches the answer under."""
        return canonical_hash([self.endpoint, self.content])


@dataclass(frozen=True)
class Outcome:
    """One executed request: the result object and its document."""

    request: Request
    result: Any
    document: dict[str, Any]
    #: a fixed order's ``certify`` stamp, or a parallel plan's estimate
    stamp: Any = None


def render(document: dict[str, Any]) -> str:
    """The one JSON text form of a document (CLI ``--json`` and HTTP)."""
    return json.dumps(document, indent=2)


def _typed(
    name: str, value: Any, types: tuple[type, ...], optional: bool, owner: str = "field"
) -> Any:
    if value is None and optional:
        return None
    accepted = types + (int,) if float in types else types
    if not isinstance(value, accepted) or (
        isinstance(value, bool) and bool not in types
    ):
        expected = " or ".join(_TYPE_NAMES[t] for t in types)
        raise InvalidParameterError(
            f"{owner} {name!r} must be {expected}{' or null' if optional else ''}; "
            f"got {json.dumps(value)[:60]}"
        )
    return float(value) if types == (float,) else value


def _options(endpoint: str, request: dict[str, Any]) -> dict[str, Any]:
    fields = FIELDS[endpoint]
    unknown = sorted(set(request) - set(fields))
    if unknown:
        raise InvalidParameterError(
            f"unknown field(s) {', '.join(unknown)} for /{endpoint}; "
            f"accepted: {', '.join(fields)}"
        )
    return {
        name: _typed(name, request.get(name, default), types, default is None)
        for name, (default, types) in fields.items()
    }


def _platform(spec: str | dict) -> Platform:
    if isinstance(spec, dict):
        return Platform.from_dict(spec)
    try:
        return get_platform(spec)
    except KeyError as exc:
        raise InvalidParameterError(str(exc.args[0])) from None


def _chain(o: dict[str, Any]) -> TaskChain:
    if o["weights"] is not None:
        return TaskChain(o["weights"], name=o["chain"])
    return make_chain(o["pattern"], o["tasks"], o["total_weight"])


@lru_cache(maxsize=None)
def _generator_args(kind: str) -> frozenset[str]:
    if kind not in GENERATORS:
        raise InvalidParameterError(
            f"unknown workflow kind {kind!r}; expected one of "
            f"{', '.join(sorted(GENERATORS))}"
        )
    return frozenset(inspect.signature(GENERATORS[kind]).parameters)


def generator_knobs() -> frozenset[str]:
    """Every shape knob some workflow family accepts."""
    knobs = frozenset().union(*map(_generator_args, GENERATORS))
    return knobs - {"seed", "name"}


def workflow(dag: dict | None = None, generator: dict | None = None):
    """The DAG a request names, and its generator echo (``None`` for an
    explicit ``dag`` document): ``{kind, seed, ...knobs}``."""
    if dag is not None:
        if generator is not None:
            raise InvalidParameterError(
                "give either 'dag' (a workflow document) or 'generator', "
                "not both"
            )
        return WorkflowDAG.from_dict(dag), None
    knobs = dict(generator or {})
    kind = _typed("kind", knobs.pop("kind", "layered"), (str,), False, "generator")
    seed = _typed("seed", knobs.pop("seed", 0), (int,), False, "generator")
    accepted = _generator_args(kind)
    unknown = sorted(set(knobs) - accepted)
    if unknown:
        raise InvalidParameterError(
            f"workflow family {kind!r} does not accept {', '.join(unknown)} "
            f"(it takes {', '.join(sorted(accepted - {'seed', 'name'}))})"
        )
    echo = {"kind": kind, "seed": seed, **dict(sorted(knobs.items()))}
    return generate(kind, seed=seed, **knobs), echo


def _spell(field: str) -> str:
    """A field as both surfaces spell it: request key and CLI flag."""
    flag = "no-estimate" if field == "estimate" else field.replace("_", "-")
    return f"{field} (--{flag})"


def _changed(o: dict[str, Any], *names: str) -> str:
    defaults = FIELDS["dag/optimize"]
    return ", ".join(_spell(n) for n in names if o[n] != defaults[n][0])


def _check_dag_options(o: dict[str, Any], dag) -> None:
    """The cross-field rules of ``dag/optimize``: an option the chosen
    path would ignore is an error, never silently dropped."""
    if o["processors"] is not None:
        if bad := _changed(o, "strategy", "recombine"):
            raise InvalidParameterError(
                f"{bad} only affect the single-processor serialisation; "
                f"processors {o['processors']} always runs the parallel "
                f"(assignment, order) search"
            )
        if o["certify"]:
            raise InvalidParameterError(
                f"{_spell('certify')} stamps serialized chain schedules; "
                "estimate a parallel plan's makespan with "
                "repro.simulation.simulate_parallel on solution.plan() "
                "(see repro.experiments.parallel_speedup)"
            )
        if not o["estimate"] and (bad := _changed(o, "backend", "target_ci")):
            raise InvalidParameterError(
                f"{bad} configure the adaptive makespan estimate; drop "
                f"{_spell('estimate')} to use them"
            )
        return
    if not o["certify"] and (bad := _changed(o, "backend", "target_ci")):
        raise InvalidParameterError(
            f"{bad} configure the Monte-Carlo certification campaign; "
            f"enable it with {_spell('certify')}"
        )
    if not o["estimate"]:
        raise InvalidParameterError(
            f"{_spell('estimate')} skips the parallel plan's adaptive "
            f"makespan estimate; it requires {_spell('processors')}"
        )
    if o["strategy"] != "search":
        if bad := _changed(o, "method", "restarts", "iterations", "recombine"):
            raise InvalidParameterError(
                f"{bad} only affect the metaheuristic search; add strategy "
                f"'search' (--strategy search), got strategy {o['strategy']!r}"
            )
    elif uses_join_objective(dag) and (bad := _changed(o, "recombine")):
        raise InvalidParameterError(
            f"{bad} does not apply to the join objective ({dag.name!r} is "
            f"join-shaped: its search has no recombination)"
        )


def _normalise_solve(o: dict[str, Any]) -> dict[str, Any]:
    return {
        "platform": _platform(o["platform"]),
        "chain": _chain(o),
        "algorithm": canonical_algorithm(o["algorithm"]),
    }


def _normalise_simulate(o: dict[str, Any]) -> dict[str, Any]:
    if o["runs"] is None:
        # an adaptive campaign gets the orchestrator's cap (as `repro
        # sweep --target-ci` does), not the fixed-N default
        o["runs"] = 1000 if o["target_ci"] is None else DEFAULT_MAX_RUNS
    if o["engine"] == "batch":
        o["backend"] = get_backend(o["backend"]).name
    keys = ("schedule", "runs", "seed", "target_ci", "backend", "engine")
    return {**_normalise_solve(o), **{k: o[k] for k in keys}}


def _normalise_dag(o: dict[str, Any]) -> dict[str, Any]:
    o["dag"], o["generator"] = workflow(o["dag"], o["generator"])
    o["platform"] = _platform(o["platform"])
    o["algorithm"] = canonical_algorithm(o["algorithm"])
    _check_dag_options(o, o["dag"])
    estimating = o["processors"] is not None and o["estimate"]
    if o["certify"] or estimating:
        o["backend"] = get_backend(o["backend"]).name
    return o


def normalise(endpoint: str, request: Any) -> Request:
    """Validate ``request`` for ``endpoint`` into typed content.

    Raises :class:`~repro.exceptions.InvalidParameterError` for an
    unknown endpoint or field, a wrong-typed value, a value the model
    refuses, and an option the request's path would ignore.
    """
    if endpoint not in _ENDPOINTS:
        raise InvalidParameterError(
            f"unknown endpoint {endpoint!r}; expected one of "
            f"{', '.join(ENDPOINTS)}"
        )
    if not isinstance(request, dict):
        raise InvalidParameterError(
            f"request body must be a JSON object, got "
            f"{type(request).__name__}"
        )
    try:
        content = _ENDPOINTS[endpoint][0](_options(endpoint, request))
    except ReproError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidParameterError(
            f"malformed /{endpoint} request: {exc}"
        ) from exc
    return Request(endpoint, content)


# ----------------------------------------------------------------------
# execution
# ----------------------------------------------------------------------
def _solve(request: Request, **_: Any) -> Outcome:
    c = request.content
    solution = optimize(c["chain"], c["platform"], algorithm=c["algorithm"])
    return Outcome(request, solution, as_document(solution))


def _simulate(
    request: Request,
    *,
    n_jobs: int | None = None,
    chunk_size: int | None = None,
    **_: Any,
) -> Outcome:
    c = request.content
    chain, platform = c["chain"], c["platform"]
    if c["schedule"]:
        schedule = Schedule.from_string(c["schedule"])
        analytic = evaluate_schedule(chain, platform, schedule).expected_time
    else:
        solution = optimize(chain, platform, algorithm=c["algorithm"])
        schedule, analytic = solution.schedule, solution.expected_time
    mc = run_monte_carlo(
        chain,
        platform,
        schedule,
        runs=c["runs"],
        seed=c["seed"],
        analytic=analytic,
        engine=c["engine"],
        target_ci=c["target_ci"],
        backend=c["backend"],
        n_jobs=n_jobs,
        **({} if chunk_size is None else {"chunk_size": chunk_size}),
    )
    doc = as_document(mc)
    doc.update(
        platform=platform.name,
        schedule=schedule.to_string(),
        seed=c["seed"],
        engine=c["engine"],
    )
    return Outcome(request, mc, doc)


def _dag_optimize(
    request: Request,
    *,
    n_jobs: int | None = None,
    memo: ContentCache | None = None,
    **_: Any,
) -> Outcome:
    c = request.content
    dag, platform, seed = c["dag"], c["platform"], c["seed"]
    search = {
        "algorithm": c["algorithm"], "method": c["method"], "seed": seed,
        "restarts": c["restarts"], "iterations": c["iterations"],
        "n_jobs": n_jobs,
    }
    if c["processors"] is not None:
        result = search_parallel(dag, platform, c["processors"], **search)
        doc = as_document(result)
        estimate = None
        if c["estimate"]:
            # the analytic value is a surrogate (the epoch fold swaps E
            # and max), so simulation is the plan's ground truth
            estimate = run_adaptive_parallel(
                result.solution.plan(),
                platform,
                target_relative_ci=c["target_ci"],
                seed=seed,
                backend=c["backend"],
                analytic=result.solution.expected_time,
            )
            doc["estimate"] = as_document(estimate)
        doc.update(seed=seed, backend=c["backend"], generator=c["generator"])
        return Outcome(request, result, doc, estimate)

    certificate = None
    if c["strategy"] == "search":
        objective = None
        if memo is not None and not uses_join_objective(dag):
            # this objective's exact-DP memo lives in the engine's shared
            # evictable pool, so a re-search of the same platform and
            # algorithm pays only for orders it has never priced
            objective = ChainObjective(
                dag,
                platform,
                algorithm=c["algorithm"],
                exact_cache=memo.namespaced(
                    ("objective", canonical_hash([dag, platform]), c["algorithm"])
                ),
            )
        result = search_order(
            dag,
            platform,
            recombine=c["recombine"],
            certify=c["certify"],
            backend=c["backend"],
            target_ci=c["target_ci"],
            objective=objective,
            **search,
        )
        doc = as_document(result)
    else:
        if n_jobs is not None:
            raise InvalidParameterError(
                "n_jobs (--jobs) only shards the metaheuristic search; add "
                "strategy 'search' (--strategy search)"
            )
        result = optimize_dag(
            dag, platform, algorithm=c["algorithm"], strategy=c["strategy"], seed=seed
        )
        doc = as_document(result)
        if c["certify"]:
            _, chain = dag.serialise(result.order)
            certificate = certify_solution(
                chain,
                platform,
                result,
                label=f"{dag.name} {c['strategy']} order",
                seed=seed,
                backend=c["backend"],
                target_ci=c["target_ci"],
                costs=dag.cost_profile(result.order, platform),
            )
            doc["certificate"] = as_document(certificate)
    doc.update(
        dag=dag.name,
        strategy=c["strategy"],
        seed=seed,
        backend=c["backend"],
        generator=c["generator"],
    )
    return Outcome(request, result, doc, certificate)


#: endpoint -> (normalise step, execute step)
_ENDPOINTS = {
    "solve": (_normalise_solve, _solve),
    "simulate": (_normalise_simulate, _simulate),
    "dag/optimize": (_normalise_dag, _dag_optimize),
}

#: Endpoints the engine executes (the HTTP layer maps URLs onto these).
ENDPOINTS = tuple(_ENDPOINTS)


def execute(
    request: Request,
    *,
    n_jobs: int | None = None,
    chunk_size: int | None = None,
    memo: ContentCache | None = None,
) -> Outcome:
    """Compute a normalised request.

    ``n_jobs`` shards searches and batched campaigns over worker
    processes (answers are invariant in it), ``chunk_size`` sets the
    batched kernel's replications per chunk, and ``memo`` lends chain
    searches a shared exact-solve pool.  None of them enters the key.
    """
    return _ENDPOINTS[request.endpoint][1](
        request, n_jobs=n_jobs, chunk_size=chunk_size, memo=memo
    )


@dataclass(frozen=True)
class EngineResponse:
    """One executed request: payload plus out-of-band cache/obs state."""

    body: bytes
    cache: str  # "hit" | "miss"
    key: str  # the content address of the request
    endpoint: str
    wall_s: float
    profile: dict | None = None
    trace: dict | None = field(default=None, repr=False)

    def document(self) -> dict:
        return json.loads(self.body.decode("utf-8"))


class Engine:
    """Session-spanning solver/simulator with content-addressed caching."""

    def __init__(
        self,
        *,
        cache_entries: int = 256,
        event_capacity: int = DEFAULT_EVENT_CAPACITY,
    ) -> None:
        self.cache = ContentCache(cache_entries)
        #: Engine-wide progress stream: every request/job session forwards
        #: its events here (tagged with endpoint / job id); ``GET /events``
        #: serves this bus as SSE.
        self.events = EventBus(capacity=event_capacity)
        self._lock = threading.Lock()
        self._cumulative = MetricsSnapshot()
        # service-level series (request wall-time distribution) recorded
        # outside any per-request scope; folded into every metrics view
        self._service = MetricsRegistry()
        self._requests: Counter[str] = Counter()
        self._cache_hits: Counter[str] = Counter()

    # -- request execution ---------------------------------------------
    def handle(
        self,
        endpoint: str,
        request: dict,
        *,
        collect_trace: bool = False,
        events: "EventBus | TaggedBus | None" = None,
    ) -> EngineResponse:
        """Execute one endpoint request (cache-aware).

        Raises :class:`~repro.exceptions.InvalidParameterError` for
        malformed requests (the HTTP layer maps it to 400).
        """
        normalised = normalise(endpoint, request)
        key = self.request_key(endpoint, normalised)
        t0 = perf_counter()
        cached = self.cache.get(("response", key))
        wall = perf_counter() - t0
        with self._lock:
            self._requests[endpoint] += 1
            if cached is not None:
                self._cache_hits[endpoint] += 1
                self._service.histogram("service.request.wall_s").observe(wall)
        if cached is not None:
            return EngineResponse(
                body=cached,
                cache="hit",
                key=key,
                endpoint=endpoint,
                wall_s=wall,
            )

        registry = MetricsRegistry()
        tracer = Tracer()
        bus = (
            events
            if events is not None
            else TaggedBus(self.events, endpoint=endpoint)
        )
        with instrument(registry, tracer, events=bus), span(
            f"service.{endpoint}", key=key[:12]
        ):
            outcome = execute(normalised, memo=self.cache)
        wall = perf_counter() - t0
        logger.info(
            "computed /%s %s in %.3fs", endpoint, key[:12], wall
        )
        body = (render(outcome.document) + "\n").encode("utf-8")
        self.cache.put(("response", key), body)
        snapshot = registry.snapshot()
        with self._lock:
            self._service.histogram("service.request.wall_s").observe(wall)
            self._cumulative = self._cumulative.merge(snapshot)
        profile = build_profile(
            snapshot, tracer, command=f"service.{endpoint}", wall_s=wall
        )
        return EngineResponse(
            body=body,
            cache="miss",
            key=key,
            endpoint=endpoint,
            wall_s=wall,
            profile=profile,
            trace=tracer.to_chrome_trace() if collect_trace else None,
        )

    def request_key(self, endpoint: str, request: dict | Request) -> str:
        """Content address of a request: model objects, not spellings.

        Two requests naming the same platform, the same weights (via a
        pattern or an explicit list), and the same options collide on
        purpose; dict ordering, display names and spelled-out defaults
        never matter.
        """
        if not isinstance(request, Request):
            request = normalise(endpoint, request)
        return request.key

    # -- observability -------------------------------------------------
    def merge_snapshot(self, snapshot: MetricsSnapshot) -> None:
        """Fold an externally-collected session snapshot into the pool
        (the job queue ships each job's snapshot here)."""
        with self._lock:
            self._cumulative = self._cumulative.merge(snapshot)

    def metrics_snapshot(self) -> MetricsSnapshot:
        with self._lock:
            return self._cumulative.merge(self._service.snapshot())

    def metrics_document(self, *, jobs: dict | None = None) -> dict:
        with self._lock:
            snapshot = self._cumulative.merge(self._service.snapshot())
            requests = dict(self._requests)
            cache_hits = dict(self._cache_hits)
        doc = {
            "schema_version": SCHEMA_VERSION,
            "kind": "service_metrics",
            "requests": {
                "total": sum(requests.values()),
                "by_endpoint": {k: requests[k] for k in sorted(requests)},
                "cache_hits": {
                    k: cache_hits[k] for k in sorted(cache_hits)
                },
            },
            "cache": self.cache.stats(),
            "metrics": snapshot.as_dict(),
        }
        if jobs is not None:
            doc["jobs"] = jobs
        return doc

    def metrics_prometheus(self, *, jobs: dict | None = None) -> str:
        """``GET /metrics?format=prometheus``: the merged snapshot plus
        service-level request/cache/job series as text exposition 0.0.4."""
        with self._lock:
            snapshot = self._cumulative.merge(self._service.snapshot())
            requests = dict(self._requests)
            cache_hits = dict(self._cache_hits)
        extra_counters: dict[str, int] = {
            "service.requests": sum(requests.values()),
        }
        for endpoint, count in requests.items():
            extra_counters[f"service.requests.{endpoint}"] = count
        for endpoint, count in cache_hits.items():
            extra_counters[f"service.cache_hits.{endpoint}"] = count
        extra_gauges: dict[str, float] = {}
        cache_stats = self.cache.stats()
        for key, value in cache_stats.items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                extra_gauges[f"service.cache.{key}"] = float(value)
        if jobs is not None:
            for key, value in jobs.items():
                if key == "by_status":
                    for status, count in value.items():
                        extra_gauges[f"service.jobs.{status}"] = float(count)
                elif isinstance(value, (int, float)) and not isinstance(
                    value, bool
                ):
                    extra_gauges[f"service.jobs.{key}"] = float(value)
        extra_gauges["service.events.last_seq"] = float(self.events.last_seq)
        return render_prometheus(
            snapshot,
            extra_counters=extra_counters,
            extra_gauges=extra_gauges,
        )

    def platforms_document(self) -> list[dict]:
        return [p.as_dict() for p in TABLE1_ROWS]
