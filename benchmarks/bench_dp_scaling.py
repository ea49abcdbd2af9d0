"""DP runtime scaling — the paper's Section V claim, and its trajectory.

"While the most general algorithm has a high complexity of O(n^6) ... it
executes within a few seconds for n = 50" — our implementation is
``O(n^5)`` thanks to the affine decomposition, and its batched forward
pass makes a solve ``O(n^2)`` array operations, so ADMV at n = 50 must
solve in under half a second.  The single- and two-level DPs are orders
of magnitude cheaper and are timed with regular benchmark rounds.

``test_dp_scaling_trajectory`` times every algorithm at every n of the
grid over repeated solves and writes ``results/BENCH_dp.json`` (median,
min and IQR per point, plus the git SHA and library versions), which the
CI bench job copies to the repo root with the other trajectories.
"""

from __future__ import annotations

import json
import time

import pytest

from bench_common import bench_meta, spread
from repro.chains import uniform_chain
from repro.core import optimize
from repro.platforms import HERA

#: n grid of the trajectory, and repeated solves per point.
SCALING_NS = (10, 20, 30, 40, 50)
REPEATS = 5
ADMV_N50_BUDGET_S = 0.5


@pytest.mark.parametrize("n", [10, 25, 50])
@pytest.mark.parametrize("algorithm", ["adv_star", "admv_star"])
def test_cheap_dp_scaling(benchmark, algorithm, n):
    chain = uniform_chain(n)
    solution = benchmark(optimize, chain, HERA, algorithm)
    assert solution.schedule.is_strict


@pytest.mark.parametrize("n", [10, 25, 50])
def test_admv_scaling(benchmark, n):
    chain = uniform_chain(n)
    solution = benchmark.pedantic(
        optimize, args=(chain, HERA, "admv"), rounds=1, iterations=1
    )
    assert solution.schedule.is_strict


def test_admv_paper_runtime_claim():
    """n = 50 solves in under half a second (paper: 'a few seconds')."""
    chain = uniform_chain(50)
    optimize(uniform_chain(5), HERA, algorithm="admv")  # warm imports
    start = time.perf_counter()
    optimize(chain, HERA, algorithm="admv")
    elapsed = time.perf_counter() - start
    print(f"\nADMV n=50 wall time: {elapsed:.3f}s")
    assert elapsed < ADMV_N50_BUDGET_S


def test_dp_scaling_trajectory(results_dir):
    """Per-algorithm, per-n solve times over repeats -> BENCH_dp.json."""
    timings: dict[str, dict[str, dict[str, float]]] = {}
    for algorithm in ("adv_star", "admv_star", "admv"):
        optimize(uniform_chain(5), HERA, algorithm=algorithm)  # warm up
        timings[algorithm] = {}
        for n in SCALING_NS:
            chain = uniform_chain(n)
            samples = []
            for _ in range(REPEATS):
                start = time.perf_counter()
                optimize(chain, HERA, algorithm=algorithm)
                samples.append(time.perf_counter() - start)
            timings[algorithm][str(n)] = spread(samples)

    doc = {
        "bench": "dp_scaling",
        "platform": "hera",
        "chain": "uniform",
        "meta": bench_meta(REPEATS),
        "timings": timings,
    }
    (results_dir / "BENCH_dp.json").write_text(json.dumps(doc, indent=2) + "\n")

    lines = [f"exact DP solve time on Hera, uniform chain ({REPEATS} repeats)"]
    for algorithm, by_n in timings.items():
        row = ", ".join(
            f"n={n}: {t['median_s'] * 1e3:.1f} ms (IQR {t['iqr_s'] * 1e3:.1f})"
            for n, t in by_n.items()
        )
        lines.append(f"  {algorithm:9s} {row}")
    print("\n" + "\n".join(lines))
    (results_dir / "dp_scaling.txt").write_text("\n".join(lines) + "\n")

    assert timings["admv"]["50"]["median_s"] < ADMV_N50_BUDGET_S, doc
