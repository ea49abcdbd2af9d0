"""The benchmark workloads: the library paths, and the HTTP service.

Each workload builds its inputs from a seed, runs operations against the
public API of ``repro`` for a measured time, and checks every output
afterwards.  An operation is one search, one certification
or one HTTP request.

Every workload draws its operations from keys.  The first operation on
a key is a *miss*; a later operation on the same key is a *hit*.  On
``service_mix`` the server reports the class itself (``X-Repro-Cache``):
hits are answered from its cache.  The library keeps no cache of whole
results: a search's hit reuses the objective (and so its memo) that a
caller may pass back in.  A hit must repeat its miss's answer exactly.
"""

from __future__ import annotations

import http.client
import json
import os
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any

import numpy as np

from repro.chains import PAPER_TOTAL_WEIGHT, TaskChain
from repro.core import evaluate_schedule, optimize
from repro.dag import (
    ChainObjective,
    ParallelObjective,
    list_schedule,
    optimize_dag,
    search_order,
    search_parallel,
)
from repro.dag.generate import CAMPAIGNS, campaign, generate
from repro.dag.join import evaluate_join, join_from_dag, local_search_join, threshold_join
from repro.dag.linearize import ORDER_STRATEGIES
from repro.exceptions import ReproError
from repro.experiments.dag_search import stress_platform
from repro.obs import MetricsRegistry, instrument
from repro.platforms import get_platform
from repro.simulation import run_adaptive, run_adaptive_parallel

import checks
from tracing import LAYER_SPANS, Patches, Span, Tracer, patch_functions

BENCH_DIR = Path(__file__).resolve().parent

#: Confidence of every certified interval.  At 1 - 1e-6 a correct
#: analytic value falls outside its interval about once in a million
#: certifications, so a failed interval check means a wrong answer.
CERT_CONFIDENCE = 0.999999


@dataclass
class Op:
    """One operation and what it produced."""

    index: int
    key: Any
    kind: str = "miss"  #: "hit" or "miss" (see the module docstring)
    start: float = 0.0
    end: float = 0.0
    value: float | None = None  #: the answer's E[makespan] (s)
    reference: float | None = None  #: the set-up reference it is scored against
    reps: int = 0  #: Monte-Carlo replications the operation ran
    counters: dict[str, int] = field(default_factory=dict)  #: search counts it added
    output: Any = None
    error: str | None = None  #: what the operation raised, or its transport error

    @property
    def latency_s(self) -> float:
        return self.end - self.start


@dataclass
class Phase:
    """The operations of one measured interval and its wall time."""

    ops: list[Op]
    wall_s: float
    #: how much slower than the reference speed the CPU ran (see
    #: :func:`calibration_burst`); 1.0 where timings are not scaled
    slowness: float = 1.0


#: Median duration of :func:`calibration_burst` at the reference CPU speed.
REFERENCE_BURST_S = 1e-3


def calibration_burst() -> float:
    """Time a fixed slice of interpreter and small-NumPy work.

    A shared host's CPU speed can drift by tens of percent within half
    a minute, and every CPU-bound timing drifts with it.  The burst runs between
    operations, outside their timing; the run's median burst over
    :data:`REFERENCE_BURST_S` is the run's slowness, which scales the
    library timings to the reference speed.  The burst calls nothing of
    ``repro``, so no change to the program moves it.
    """
    t0 = perf_counter()
    table: dict[int, int] = {}
    total = 0
    for i in range(6000):
        total += i * i
        table[i & 255] = total
    values = np.arange(32.0)
    for _ in range(60):
        values = np.cumsum(values) * 0.5
    return perf_counter() - t0


@dataclass
class LayerInputs:
    """What a traced phase recorded, for the per-layer table."""

    spans: list[list[Span]]  #: one list per process; parents index into it
    counters: dict[str, int]
    cache: dict[str, int] = field(default_factory=dict)
    transport_errors: int = 0


def _describe(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


def _counted(objective) -> dict[str, int]:
    return {} if objective is None else dict(objective.metrics.snapshot().counters)


def _added(result, before: dict[str, int], prefix: str) -> dict[str, int]:
    """The ``prefix`` counters a search added: a reused objective's
    registry, which the result reports, also holds its earlier work."""
    return {
        name: value - before.get(name, 0)
        for name, value in result.metrics.counters.items()
        if name.startswith(prefix)
    }


# ----------------------------------------------------------------------
# library workload: one thread calling repro directly
# ----------------------------------------------------------------------
class LibraryMix:
    """The library paths of ``repro``, called directly in fixed rounds.

    One round of 13 operations:

    - four ``search_order`` calls (chain objective, hill climbing) on
      fresh seeded 7-task layered and 8-task fork-join DAGs on
      ``stress_platform()``, exact ADMV except one DAG in twelve on ADMV*
      (the DP-bound path), then each repeated with its
      :class:`ChainObjective` kept, so its exact-DP memo answers: hits;
    - ``run_adaptive`` certifying the first search's schedule;
    - one p=2 ``search_parallel`` on a fresh default-campaign DAG (ADMV*
      intervals, bounded climbs: neighbourhoods and epoch pricing, the
      DP a minor share), repeated with its :class:`ParallelObjective`
      kept: a hit;
    - ``run_adaptive_parallel`` certifying that p=2 plan;
    - ``search_order`` on a fresh ``join-24`` instance: the join
      objective, no DP at all.
    """

    name = "library_mix"
    ROUND = 13
    CHAIN_SHAPES = (
        ("layered", {"tasks": 7, "layers": 3, "density": 0.5}),
        ("fork_join", {"branches": 3, "branch_length": 2}),
    )
    PROCESSORS = 2
    PARALLEL_ALGORITHM = "admv_star"
    PARALLEL_OPTIONS = {"restarts": 0, "max_rounds": 4}
    JOIN_INSTANCE = "join-24"
    #: target relative CI half-widths of the certifications
    CHAIN_TARGET = 0.01
    PLAN_TARGET = 0.02
    #: rounds grow by a quarter, so replications track the precision a
    #: certification needs instead of doubling past it
    GROWTH = 1.25

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.platform = stress_platform()
        self.inputs: dict[tuple, Any] = {}  #: key -> the operation's input
        self.memos: dict[tuple, Any] = {}  #: key -> objective kept for its repeat
        self.results: dict[tuple, Any] = {}  #: key -> first answer
        self.references: dict[tuple, float] = {}
        self._campaigns: dict[int, list] = {}

    def _seed(self, *path: int) -> int:
        (s,) = np.random.SeedSequence([self.seed, *path]).generate_state(1)
        return int(s)

    def key_of(self, index: int) -> tuple:
        r, pos = divmod(index, self.ROUND)
        if pos < 8:
            key = ("chain", 4 * r + pos % 4)
        else:
            key = (("certify", 4 * r), ("parallel", r), ("parallel", r), ("plan", r), ("join", r))[pos - 8]
        if key not in self.inputs:
            self.inputs[key] = self._input(key)
        return key

    def _input(self, key: tuple) -> Any:
        kind, k = key
        if kind == "chain":
            shape, kwargs = self.CHAIN_SHAPES[k % len(self.CHAIN_SHAPES)]
            dag = generate(shape, seed=self._seed(1, k), weights="lognormal", name=f"{shape}-{k}", **kwargs)
            algorithm = "admv_star" if k % 12 == 0 else "admv"
            self.memos[key] = ChainObjective(dag, self.platform, algorithm=algorithm)
            return dag, algorithm
        if kind == "parallel":
            draws = self._campaigns.get(k // 6)
            if draws is None:
                draws = self._campaigns[k // 6] = campaign("default", seed=self._seed(2, k // 6))
            dag = draws[k % len(draws)]
            self.memos[key] = ParallelObjective(
                dag, self.platform, self.PROCESSORS, algorithm=self.PARALLEL_ALGORITHM
            )
            return dag
        if kind == "join":
            shape, kwargs = CAMPAIGNS["join"][self.JOIN_INSTANCE]
            return generate(shape, seed=self._seed(3, k), name=self.JOIN_INSTANCE, **kwargs)
        return None  # certifications certify an earlier answer

    def call(self, key: tuple, op: Op) -> None:
        kind, k = key
        hit = key in self.results
        memo = self.memos.pop(key, None) if hit else self.memos.get(key)
        before = _counted(memo)
        options = dict(confidence=CERT_CONFIDENCE, growth=self.GROWTH, seed=self._seed(4, *key[1:]))
        if kind == "chain":
            dag, algorithm = self.inputs[key]
            result = search_order(
                dag, self.platform, algorithm=algorithm, method="hill_climb",
                seed=self._seed(5, k), objective=memo,
            )
            op.counters = _added(result, before, "search.")
        elif kind == "parallel":
            result = search_parallel(
                self.inputs[key], self.platform, self.PROCESSORS,
                algorithm=self.PARALLEL_ALGORITHM, seed=self._seed(6, k),
                objective=memo, **self.PARALLEL_OPTIONS,
            )
            op.counters = _added(result, before, "parallel.")
        elif kind == "join":
            result = search_order(self.inputs[key], self.platform, seed=self._seed(7, k))
            op.counters = _added(result, before, "search.")
        elif kind == "certify":
            solution = self.results[("chain", k)].solution
            result = run_adaptive(
                solution.chain, self.platform, solution.schedule,
                target_relative_ci=self.CHAIN_TARGET, analytic=solution.expected_time, **options,
            )
        else:
            plan = self.results[("parallel", k)].solution.plan()
            result = run_adaptive_parallel(
                plan, self.platform, target_relative_ci=self.PLAN_TARGET, **options
            )
        op.output = result
        if kind in ("certify", "plan"):
            op.value = result.mean
            op.reps = result.reps_used
        else:
            op.value = result.expected_time
        self.results.setdefault(key, result)

    def measure(self, first: int, seconds: float, tracer: Tracer | None = None) -> Phase:
        """Run operations for ``seconds``; the wall time is the time spent
        in them, without the calibration bursts between them."""
        ops: list[Op] = []
        bursts: list[float] = []
        deadline = perf_counter() + seconds
        index = first
        while not ops or perf_counter() < deadline:
            key = self.key_of(index)
            op = Op(index, key, kind="hit" if key in self.results else "miss")
            if tracer is not None:
                tracer.set_op(str(index))
                span = tracer.begin("op")
            op.start = perf_counter()
            try:
                self.call(key, op)
            except Exception as exc:  # noqa: BLE001 - a raising operation counts as failed
                op.error = _describe(exc)
            op.end = perf_counter()
            if tracer is not None:
                tracer.end(span)
            ops.append(op)
            bursts.append(calibration_burst())
            index += 1
        slowness = statistics.median(bursts) / REFERENCE_BURST_S
        return Phase(ops, sum(op.latency_s for op in ops), slowness)

    def measure_traced(self, first: int, seconds: float) -> tuple[Phase, LayerInputs]:
        """Measure with spans around every layer and the registry on."""
        tracer = Tracer()
        patches = Patches()
        patch_functions(tracer, LAYER_SPANS, patches, extra_modules=[sys.modules[__name__]])
        registry = MetricsRegistry()
        try:
            with instrument(registry):
                phase = self.measure(first, seconds, tracer)
        finally:
            patches.undo()
        # search counts come from the searches' own snapshots: the ambient
        # registry mixes chain and parallel moves and double-counts a
        # reused objective
        counters = {
            name: value
            for name, value in registry.snapshot().counters.items()
            if not name.startswith(("search.", "parallel."))
        }
        for op in phase.ops:
            for name, value in op.counters.items():
                counters[name] = counters.get(name, 0) + value
        return phase, LayerInputs(spans=[tracer.spans], counters=counters)

    def _reference(self, key: tuple) -> float:
        """What an answer is scored against: the best fixed heuristic for
        searches, the analytic value or the surrogate lower bound for
        certifications."""
        kind, k = key
        if kind == "chain":
            dag, algorithm = self.inputs[key]
            return optimize_dag(dag, self.platform, algorithm=algorithm, strategy="auto").expected_time
        if kind == "parallel":
            dag = self.inputs[key]
            fresh = ParallelObjective(dag, self.platform, self.PROCESSORS, algorithm=self.PARALLEL_ALGORITHM)
            return min(
                fresh.value(list_schedule(dag, self.PROCESSORS, strategy))
                for strategy in ORDER_STRATEGIES
            )
        if kind == "join":
            instance = self._join_instance(self.inputs[key])
            return min(threshold_join(instance)[0], local_search_join(instance)[0])
        source = ("chain", k) if kind == "certify" else ("parallel", k)
        return self.results[source].expected_time

    def _join_instance(self, dag):
        p = self.platform
        return join_from_dag(dag, rate=p.lf, C=p.CD, R=p.RD)

    def check(self, op: Op) -> str | None:
        if op.error is not None:
            return op.error
        if op.key not in self.references:
            self.references[op.key] = self._reference(op.key)
        op.reference = self.references[op.key]
        reason = self._check_output(op.key, op.output, op.reference)
        if reason is None and _signature(op.output) != _signature(self.results[op.key]):
            reason = "a repeated operation gave a different answer"
        return reason

    def _check_output(self, key: tuple, result: Any, reference: float) -> str | None:
        kind, _ = key
        if kind in ("certify", "plan"):
            if not result.converged or result.reps_used >= result.max_runs:
                return f"did not converge below max_runs={result.max_runs}"
            # a p=2 value is the surrogate, a Jensen lower bound on E[makespan]
            return checks.interval_violation(
                result.mean, result.half_width, reference, lower_bound_only=kind == "plan"
            )
        dag = self.inputs[key][0] if kind == "chain" else self.inputs[key]
        solution = result.solution
        reason = checks.topological_violation(dag, solution.order)
        if reason is not None:
            return reason
        if kind == "chain":
            order = list(solution.order)
            _, chain = dag.serialise(order)
            recomputed = evaluate_schedule(
                chain, self.platform, solution.schedule, costs=dag.cost_profile(order, self.platform)
            ).expected_time
            what = "evaluate_schedule"
        elif kind == "parallel":
            try:
                solution.plan()  # ParallelPlan validates itself on construction
            except ReproError as exc:
                return f"plan fails validation: {_describe(exc)}"
            recomputed = ParallelObjective(
                dag, self.platform, self.PROCESSORS, algorithm=solution.algorithm
            ).value(solution.state())
            what = "a fresh ParallelObjective"
        else:
            recomputed = evaluate_join(self._join_instance(dag), solution.join_schedule)
            what = "evaluate_join"
        return checks.value_mismatch(
            solution.expected_time, recomputed, what
        ) or checks.worse_than_reference(solution.expected_time, reference)

    def peak_rss_mb(self) -> float:
        import resource

        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def close(self) -> None:
        pass


def _signature(result: Any) -> Any:
    """What a repeat must reproduce exactly."""
    if hasattr(result, "solution"):
        return tuple(result.solution.order), result.expected_time
    return result.reps_used, result.mean


# ----------------------------------------------------------------------
# service workload: closed-loop HTTP clients against `repro serve`
# ----------------------------------------------------------------------
class ServerProcess:
    """``server.py`` in its own process, driven over its stdin/stdout."""

    def __init__(self, cache_entries: int) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "server.py"), "--cache-entries", str(cache_entries)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        self.port = int(self._reply()["port"])

    def _reply(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("benchmark server exited")
        return json.loads(line)

    def command(self, command: str) -> dict:
        self.proc.stdin.write(command + "\n")
        self.proc.stdin.flush()
        return self._reply()

    def stop(self) -> dict:
        try:
            reply = self.command("stop")
            self.proc.wait(timeout=30)
            return reply
        finally:
            self.kill()

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for stream in (self.proc.stdin, self.proc.stdout):
            stream.close()


class ServiceMix:
    """Warm hits, cold solves and fixed-run simulations over keep-alive HTTP."""

    name = "service_mix"
    CLIENTS = len(os.sched_getaffinity(0))
    #: below the distinct keys of any run (the hot replies, the searches'
    #: memo entries and every cold reply), so inserts evict early on
    CACHE_ENTRIES = 128
    CYCLE = 20  #: requests per shuffled cycle ...
    COLD_SOLVES = 3  #: ... of which cold /solve requests
    SIMULATES = 1  #: ... and fixed-run /simulate requests
    COLD_TASKS = {"adv_star": 24, "admv_star": 14, "admv": 11}
    SIMULATE_RUNS = 2000

    def __init__(self, seed: int) -> None:
        self.seed = seed
        rng = np.random.default_rng([seed, 4])
        stress = stress_platform()
        # hot set: (endpoint, request, in-process reference value)
        self.hot: list[tuple[str, dict, float]] = []
        for k in range(3):
            generator = {"kind": "layered", "tasks": 6, "layers": 3, "seed": int(rng.integers(2**31))}
            request = {
                "platform": stress.as_dict(), "generator": generator,
                "strategy": "search", "algorithm": "admv_star", "restarts": 1, "seed": k,
            }
            dag = generate(**generator)
            reference = optimize_dag(dag, stress, algorithm="admv_star", strategy="auto")
            self.hot.append(("dag/optimize", request, reference.expected_time))
        for platform in ("hera", "atlas", "coastal"):
            for algorithm in ("adv_star", "admv_star", "admv"):
                weights = rng.lognormal(0.0, 0.5, 12)
                weights = [float(w) for w in weights / weights.sum() * PAPER_TOTAL_WEIGHT]
                request = {"platform": platform, "weights": weights, "algorithm": algorithm}
                reference = optimize(TaskChain(weights), get_platform(platform), algorithm)
                self.hot.append(("solve", request, reference.expected_time))
        self.first: dict[str, bytes] = {}
        self.transport_errors = 0
        self._lock = threading.Lock()
        self.server = ServerProcess(self.CACHE_ENTRIES)
        try:
            self._warm()
        except BaseException:
            self.server.kill()
            raise

    def _connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection("127.0.0.1", self.server.port, timeout=60)

    @staticmethod
    def _post(conn, endpoint: str, request: dict, op_id: str = "") -> tuple[int, str, str, bytes]:
        conn.request(
            "POST", "/" + endpoint, body=json.dumps(request).encode("utf-8"),
            headers={"Content-Type": "application/json", "X-Bench-Op": op_id},
        )
        reply = conn.getresponse()
        body = reply.read()
        return reply.status, reply.getheader("X-Repro-Cache", ""), reply.getheader("X-Repro-Key", ""), body

    def _warm(self) -> None:
        """Compute every hot request; after each search touch the replies
        before it again, since the search's memo entries flood the LRU
        cache and the touches keep those replies newer.  A last pass
        over the hot set must be all hits."""
        conn = self._connect()

        def post(endpoint: str, request: dict) -> str:
            status, cache, key, body = self._post(conn, endpoint, request)
            if status != 200:
                raise RuntimeError(f"warm-up /{endpoint} returned HTTP {status}")
            self.first.setdefault(key, body)
            return cache

        try:
            for n, (endpoint, request, _) in enumerate(self.hot):
                post(endpoint, request)
                if endpoint == "dag/optimize":
                    for earlier, earlier_request, _ in self.hot[:n]:
                        post(earlier, earlier_request)
            if any(post(endpoint, request) != "hit" for endpoint, request, _ in self.hot):
                raise RuntimeError("hot set does not stay cached")
        finally:
            conn.close()

    def get(self, path: str) -> dict:
        conn = self._connect()
        try:
            conn.request("GET", path)
            return json.loads(conn.getresponse().read())
        finally:
            conn.close()

    def request(self, index: int) -> tuple[str, dict, int | None, int]:
        """Operation ``index``: (endpoint, request, hot slot or None, reps)."""
        cycle, position = divmod(index, self.CYCLE)
        rng = np.random.default_rng([self.seed, 5, cycle])
        n_hot = len(self.hot)
        extra = self.CYCLE - n_hot - self.COLD_SOLVES - self.SIMULATES
        slots = (
            list(range(n_hot))
            + [int(s) for s in rng.integers(0, n_hot, extra)]
            + [-1] * self.COLD_SOLVES
            + [-2] * self.SIMULATES
        )
        slot = slots[int(rng.permutation(self.CYCLE)[position])]
        if slot >= 0:
            endpoint, request, _ = self.hot[slot]
            return endpoint, request, slot, 0
        if slot == -2:
            request = {
                "platform": "hera", "tasks": 10, "algorithm": "admv_star",
                "runs": self.SIMULATE_RUNS, "seed": index,
            }
            return "simulate", request, None, self.SIMULATE_RUNS
        algorithm = ("adv_star", "admv_star", "admv")[index % 3]
        weights = np.random.default_rng([self.seed, 6, index]).lognormal(
            0.0, 0.5, self.COLD_TASKS[algorithm]
        )
        weights = weights / weights.sum() * PAPER_TOTAL_WEIGHT
        request = {"platform": "hera", "weights": [float(w) for w in weights], "algorithm": algorithm}
        return "solve", request, None, 0

    def _client(self, next_index, deadline: float, out: list[Op], tracer: Tracer | None) -> None:
        conn = self._connect()
        try:
            while not out or perf_counter() < deadline:
                index = next_index()
                endpoint, request, slot, reps = self.request(index)
                op = Op(index, None, reps=reps)
                if tracer is not None:
                    tracer.set_op(str(index))
                    op_span = tracer.begin("op")
                    http_span = tracer.begin("service.http")
                op.start = perf_counter()
                try:
                    status, op.kind, op.key, body = self._post(conn, endpoint, request, str(index))
                    op.output = (endpoint, slot, status, body)
                except (OSError, http.client.HTTPException) as exc:
                    op.error = f"transport: {_describe(exc)}"
                    with self._lock:
                        self.transport_errors += 1
                    conn.close()
                    conn = self._connect()
                op.end = perf_counter()
                if tracer is not None:
                    tracer.end(http_span)
                    tracer.end(op_span)
                out.append(op)
        finally:
            conn.close()

    def measure(self, first: int, seconds: float, tracer: Tracer | None = None) -> Phase:
        counter = iter(range(first, 1 << 62))
        lock = threading.Lock()

        def next_index() -> int:
            with lock:
                return next(counter)

        results: list[list[Op]] = [[] for _ in range(self.CLIENTS)]
        t0 = perf_counter()
        deadline = t0 + seconds
        threads = [
            threading.Thread(target=self._client, args=(next_index, deadline, out, tracer))
            for out in results
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        ops = sorted((op for out in results for op in out), key=lambda op: op.index)
        return Phase(ops, max(op.end for op in ops) - t0)

    def check(self, op: Op) -> str | None:
        if op.error is not None:
            return op.error
        endpoint, slot, status, body = op.output
        reason = checks.reply_violation(status, body, self.first.get(op.key))
        self.first.setdefault(op.key, body)
        if reason is not None or slot is None:
            return reason
        doc = json.loads(body)
        op.value = (doc["solution"] if endpoint == "dag/optimize" else doc)["expected_time"]
        op.reference = self.hot[slot][2]
        if endpoint == "solve":
            return checks.value_mismatch(op.value, op.reference, "in-process optimize")
        return checks.worse_than_reference(op.value, op.reference)

    def measure_traced(self, first: int, seconds: float) -> tuple[Phase, LayerInputs]:
        """Measure with client spans and the server's spans on; counts
        are the differences of ``GET /metrics`` and ``GET /cache``."""
        self.server.command("trace on")
        cache_before = self.get("/cache")
        counters_before = self.get("/metrics")["metrics"]["counters"]
        tracer = Tracer()
        phase = self.measure(first, seconds, tracer)
        server_spans = [Span.from_list(row) for row in self.server.command("trace off")["spans"]]
        cache = self.get("/cache")
        counters = self.get("/metrics")["metrics"]["counters"]
        return phase, LayerInputs(
            spans=[tracer.spans, server_spans],
            counters={k: v - counters_before.get(k, 0) for k, v in counters.items()},
            cache={k: cache[k] - cache_before[k] for k in ("hits", "misses", "evictions")},
            transport_errors=self.transport_errors,
        )

    def peak_rss_mb(self) -> float:
        return float(self.server.stop()["peak_rss_mb"])

    def close(self) -> None:
        self.server.kill()


WORKLOADS = {w.name: w for w in (LibraryMix, ServiceMix)}
