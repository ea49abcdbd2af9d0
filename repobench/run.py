"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 repobench/run.py --workload library_mix --seed 1 --seconds 50 --trace 0

``--trace 0`` measures for ``--seconds`` with no tracing and prints the
end-to-end metrics.  ``--trace 1`` measures half the time untraced and
half traced, and prints the per-layer metrics.  Either way every output
is checked after the clock stops.  The human-readable table goes first;
the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import tracing

ROOT = Path(__file__).resolve().parent.parent

#: Set-ups per run; ``setup_s`` reports their median.
SETUP_REPEATS = 3

E2E_METRICS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
    "search_quality": "ratio",
    "hit_p50_ms": "ms",
    "miss_p50_ms": "ms",
}

#: Tails printed for reading but not gated: they do not repeat across
#: seeds within any bound the end-to-end metrics may have (see README).
TAILS = {"hit_p99_ms": ("hit", 99), "miss_p90_ms": ("miss", 90)}

ALGORITHMS = ("adv_star", "admv_star", "admv")

LAYER_METRICS = {
    **{f"core.solve.calls.{a}": "count" for a in ALGORITHMS},
    **{f"core.solve.busy_s.{a}": "s" for a in ALGORITHMS},
    "core.solve.wall_share": "fraction",
    "core.evaluate.calls": "count",
    "core.evaluate.busy_s": "s",
    "dag.search.self_s": "s",
    "dag.search.exact_evals": "count",
    "dag.search.exact_hits": "count",
    "dag.search.exact_hit_ratio": "ratio",
    "dag.search.bound_evals": "count",
    "dag.search.bound_hits": "count",
    "dag.search.moves_proposed": "count",
    "dag.search.moves_accepted": "count",
    "dag.parallel.self_s": "s",
    "dag.parallel.interval_solves": "count",
    "dag.parallel.interval_hits": "count",
    "dag.parallel.states_priced": "count",
    "dag.parallel.state_hits": "count",
    "sim.compile.calls": "count",
    "sim.compile.busy_s": "s",
    "sim.kernel.reps": "count",
    "sim.kernel.steps": "count",
    "sim.kernel.compactions": "count",
    "sim.kernel.busy_s": "s",
    "sim.adaptive.rounds": "count",
    "sim.adaptive.reps_used": "count",
    "sim.adaptive.self_s": "s",
    "sim.parallel.reps": "count",
    "sim.parallel.busy_s": "s",
    "mc_reps_per_s": "1/s",
    "service.http.overhead_ms.hit": "ms",
    "service.http.overhead_ms.miss": "ms",
    "service.http.transport_errors": "count",
    "service.engine.busy_s": "s",
    "service.engine.key_s": "s",
    "service.engine.hit_ms": "ms",
    "service.cache.hits": "count",
    "service.cache.misses": "count",
    "service.cache.evictions": "count",
    "service.cache.hit_ratio": "ratio",
    "obs.trace_overhead_frac": "fraction",
    "obs.unattributed_s": "s",
}


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile; 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def provenance(seed: int) -> str:
    import numpy

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip()
    except OSError:
        sha = ""
    return (
        f"git={sha or 'unknown'} python={platform.python_version()} "
        f"numpy={numpy.__version__} nproc={len(os.sched_getaffinity(0))} seed={seed}"
    )


def run_checks(workload, ops) -> dict[int, str]:
    failures = {}
    for op in ops:
        reason = workload.check(op)
        if reason is not None:
            failures[op.index] = reason
    return failures


def latencies_ms(phase) -> dict[str, list[float]]:
    """Latencies of the operations that completed, by class, at the
    reference CPU speed."""
    out: dict[str, list[float]] = {"hit": [], "miss": []}
    for op in phase.ops:
        if op.error is None:
            out[op.kind].append(op.latency_s * 1e3 / phase.slowness)
    return out


def ops_per_s(phase) -> float:
    """Completed operations per second of wall time, at the reference
    CPU speed."""
    done = sum(op.error is None for op in phase.ops)
    return done / phase.wall_s * phase.slowness


def end_to_end(phase, setup_s: float, peak_rss_mb: float) -> dict[str, float]:
    latency = latencies_ms(phase)
    done = [op for op in phase.ops if op.error is None]
    ratios = [op.value / op.reference for op in done if op.value is not None and op.reference]
    return {
        "setup_s": setup_s,
        "ops_per_s": ops_per_s(phase),
        "peak_rss_mb": peak_rss_mb,
        "search_quality": statistics.fmean(ratios) if ratios else 0.0,
        "hit_p50_ms": percentile(latency["hit"], 50),
        "miss_p50_ms": percentile(latency["miss"], 50),
    }


def per_layer(inputs, untraced, traced) -> dict[str, float]:
    """The per-layer table from a traced phase and its untraced twin."""
    by_name: dict[str, tracing.LayerStats] = {}
    by_algorithm: dict[str, float] = {a: 0.0 for a in ALGORITHMS}
    engine_ms: dict[str, float] = {}
    for group in inputs.spans:
        tracing.summarize(group, by_name)
        for span in group:
            if span.name == "core.solve":
                by_algorithm[span.attrs["algorithm"]] += span.duration
            elif span.name == "service.engine" and span.op is not None:
                engine_ms[span.op] = span.duration * 1e3

    def get(name: str) -> tracing.LayerStats:
        return by_name.get(name, tracing.LayerStats())

    c = inputs.counters.get
    cache = inputs.cache

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    overhead = {"hit": [], "miss": []}
    engine_hits = []
    for op in traced.ops:
        if op.error is None and str(op.index) in engine_ms:
            server = engine_ms[str(op.index)]
            overhead[op.kind].append(op.latency_s * 1e3 - server)
            if op.kind == "hit":
                engine_hits.append(server)

    # the benchmark's first span group: "op" spans and the layer spans under them
    own = inputs.spans[0]
    top = [s for s in own if s.parent is not None and own[s.parent].name == "op"]
    covered = tracing.covered_seconds((s.start, s.end) for s in top)
    exact_evals = c("search.exact.evaluations", 0)
    exact_hits = c("search.exact.hits", 0)
    metrics = {
        **{f"core.solve.calls.{a}": c(f"dp.solves.{a}", 0) for a in ALGORITHMS},
        **{f"core.solve.busy_s.{a}": by_algorithm[a] for a in ALGORITHMS},
        "core.solve.wall_share": ratio(get("core.solve").busy_s, traced.wall_s),
        "core.evaluate.calls": get("core.evaluate").calls,
        "core.evaluate.busy_s": get("core.evaluate").busy_s,
        "dag.search.self_s": get("dag.search").self_s,
        "dag.search.exact_evals": exact_evals,
        "dag.search.exact_hits": exact_hits,
        "dag.search.exact_hit_ratio": ratio(exact_hits, exact_evals + exact_hits),
        "dag.search.bound_evals": c("search.bound.evaluations", 0),
        "dag.search.bound_hits": c("search.bound.hits", 0),
        "dag.search.moves_proposed": c("search.moves.proposed", 0),
        "dag.search.moves_accepted": c("search.moves.accepted", 0),
        "dag.parallel.self_s": get("dag.parallel").self_s,
        "dag.parallel.interval_solves": c("parallel.interval.solves", 0),
        "dag.parallel.interval_hits": c("parallel.interval.hits", 0),
        "dag.parallel.states_priced": c("parallel.state.priced", 0),
        "dag.parallel.state_hits": c("parallel.state.hits", 0),
        "sim.compile.calls": get("sim.compile").calls,
        "sim.compile.busy_s": get("sim.compile").busy_s,
        "sim.kernel.reps": c("sim.batch.replications", 0),
        "sim.kernel.steps": c("sim.batch.steps", 0),
        "sim.kernel.compactions": c("sim.batch.compactions", 0),
        "sim.kernel.busy_s": get("sim.kernel").busy_s,
        "sim.adaptive.rounds": c("mc.rounds", 0),
        "sim.adaptive.reps_used": c("mc.replications", 0),
        "sim.adaptive.self_s": get("sim.adaptive").self_s,
        "sim.parallel.reps": c("sim.parallel.replications", 0),
        "sim.parallel.busy_s": get("sim.parallel").busy_s,
        "mc_reps_per_s": sum(op.reps for op in untraced.ops if op.error is None) / untraced.wall_s,
        "service.http.overhead_ms.hit": median(overhead["hit"]),
        "service.http.overhead_ms.miss": median(overhead["miss"]),
        "service.http.transport_errors": inputs.transport_errors,
        "service.engine.busy_s": get("service.engine").busy_s,
        "service.engine.key_s": get("service.engine.key").busy_s,
        "service.engine.hit_ms": median(engine_hits),
        "service.cache.hits": cache.get("hits", 0),
        "service.cache.misses": cache.get("misses", 0),
        "service.cache.evictions": cache.get("evictions", 0),
        "service.cache.hit_ratio": ratio(cache.get("hits", 0), cache.get("hits", 0) + cache.get("misses", 0)),
        "obs.trace_overhead_frac": 1.0 - ops_per_s(traced) / ops_per_s(untraced),
        "obs.unattributed_s": traced.wall_s - covered,
    }
    return metrics


def table(metrics: dict[str, float], units: dict[str, str]) -> list[str]:
    return [f"  {name:32s} {metrics[name]!r:>24} {units[name]}" for name in units]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Run one repro benchmark workload.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    t0 = perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    import_s = perf_counter() - t0
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; expected one of {sorted(workloads.WORKLOADS)}")
    factory = workloads.WORKLOADS[args.workload]

    setups = []
    workload = None
    for _ in range(SETUP_REPEATS):
        if workload is not None:
            workload.close()
        t = perf_counter()
        workload = factory(args.seed)
        setups.append(perf_counter() - t)
    setup_s = import_s + statistics.median(setups)

    try:
        if args.trace:
            half = args.seconds / 2.0
            untraced = workload.measure(0, half)
            traced, inputs = workload.measure_traced(len(untraced.ops), half)
            phases = [untraced, traced]
        else:
            phases = [workload.measure(0, args.seconds)]
        ops = [op for phase in phases for op in phase.ops]
        failures = run_checks(workload, ops)
        peak_rss_mb = workload.peak_rss_mb()
    finally:
        workload.close()

    print(f"# repobench workload={args.workload} seconds={args.seconds:g} trace={args.trace}")
    print(f"# {provenance(args.seed)}")
    hits = sum(op.kind == "hit" for op in ops)
    print(f"# operations={len(ops)} hits={hits} misses={len(ops) - hits} failed={len(failures)}")
    for index, reason in sorted(failures.items())[:10]:
        print(f"# FAILED op {index}: {reason}")
    if args.trace:
        metrics = per_layer(inputs, untraced, traced)
        units = LAYER_METRICS
        print(f"# traced wall {traced.wall_s:.3f} s, of which no layer span covers "
              f"{metrics['obs.unattributed_s']:.3f} s")
    else:
        metrics = end_to_end(phases[0], setup_s, peak_rss_mb)
        units = E2E_METRICS
        if phases[0].slowness != 1.0:
            print(f"# timings scaled to the reference CPU speed: the CPU ran {phases[0].slowness!r}x "
                  f"slower; unscaled ops_per_s={metrics['ops_per_s'] / phases[0].slowness!r}")
        latency = latencies_ms(phases[0])
        for name, (kind, q) in TAILS.items():
            print(f"# not gated: {name}={percentile(latency[kind], q)!r} over {len(latency[kind])} {kind} operations")
    print("\n".join(table(metrics, units)))
    print(f"  {'failed_frac':32s} {len(failures) / len(ops)!r:>24} fraction")
    result = {
        "correct": not failures,
        "attempted": len(ops),
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
