"""The benchmark's own tests: its checks fire on corrupted outputs, its
span arithmetic is right, and the metric names it prints are the ones
``BENCHMARK.json`` declares.

Run from the repository root with ``python3 -m pytest repobench``.
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import run
import tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def _declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# -- checks -----------------------------------------------------------
def test_tampered_body_fails():
    body = b'{"expected_time": 1.0}\n'
    assert checks.reply_violation(200, body, body) is None
    assert checks.reply_violation(200, body, None) is None
    assert checks.reply_violation(200, body.replace(b"1.0", b"1.5"), body) is not None
    assert checks.reply_violation(500, body, body) is not None


def test_non_topological_order_fails():
    from repro.dag.generate import generate

    dag = generate("fork_join", seed=3, branches=2, branch_length=2)
    order = list(dag.serialise()[0])
    assert checks.topological_violation(dag, order) is None
    assert "backwards" in checks.topological_violation(dag, order[::-1])
    assert checks.topological_violation(dag, order[:-1]) is not None


def test_interval_missing_analytic_fails():
    assert checks.interval_violation(100.0, 1.0, 100.5) is None
    assert checks.interval_violation(100.0, 1.0, 102.0) is not None
    assert checks.interval_violation(100.0, 1.0, 98.0) is not None
    assert checks.interval_violation(100.0, float("inf"), 100.0) is not None
    # a lower bound may sit anywhere below the interval, never above it
    assert checks.interval_violation(100.0, 1.0, 50.0, lower_bound_only=True) is None
    assert checks.interval_violation(100.0, 1.0, 102.0, lower_bound_only=True) is not None


def _run(workload, index):
    op = workloads.Op(index, workload.key_of(index))
    workload.call(op.key, op)
    return op


def test_search_check_fires_on_a_reversed_order():
    workload = workloads.LibraryMix(seed=5)
    op = _run(workload, 1)  # a fork-join DAG: it always has a backwards order
    assert op.key[0] == "chain" and workload.check(op) is None
    solution = op.output.solution
    tampered = workloads.Op(1, op.key, output=dataclasses.replace(
        op.output, solution=type(solution)(solution.order[::-1], solution)
    ))
    assert "backwards" in workload.check(tampered)
    workload.references[op.key] = op.output.expected_time * 0.5
    assert "worse than the heuristic" in workload.check(workloads.Op(1, op.key, output=op.output))


def test_certification_check_fires_when_the_interval_misses():
    workload = workloads.LibraryMix(seed=5)
    _run(workload, 0)
    op = _run(workload, 8)
    assert op.key[0] == "certify" and workload.check(op) is None
    workload.references[op.key] *= 1.2
    assert "outside certified" in workload.check(op)


# -- span arithmetic ---------------------------------------------------
def test_self_time_subtracts_direct_children():
    spans = [
        tracing.Span("op", 0.0, 10.0),
        tracing.Span("dag.search", 1.0, 9.0, parent=0),
        tracing.Span("core.solve", 2.0, 5.0, parent=1),
        tracing.Span("core.solve", 6.0, 8.0, parent=1),
    ]
    assert tracing.self_times(spans) == [2.0, 3.0, 3.0, 2.0]
    stats = tracing.summarize(spans)
    assert stats["core.solve"].calls == 2 and stats["core.solve"].busy_s == 5.0
    assert tracing.covered_seconds([(0, 2), (1, 3), (5, 6)]) == 4


def test_patched_function_records_a_span_and_is_restored():
    import repro.dag.search as search_module
    from repro.core import solver

    original = solver.optimize
    tracer = tracing.Tracer()
    patches = tracing.Patches()
    tracing.patch_functions(tracer, tracing.LAYER_SPANS, patches, extra_modules=[workloads])
    try:
        assert search_module.optimize is not original
        from repro.chains import uniform_chain
        from repro.platforms import HERA

        search_module.optimize(uniform_chain(4), HERA, "ADMV*")
    finally:
        patches.undo()
    assert search_module.optimize is original
    assert [(s.name, s.attrs) for s in tracer.spans] == [("core.solve", {"algorithm": "admv_star"})]


# -- metric names --------------------------------------------------------
def test_declared_metrics_match_the_code():
    declared = _declared()
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == run.E2E_METRICS
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == run.LAYER_METRICS
    assert [w["name"] for w in declared["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metrics_match_benchmark_json(trace):
    declared = _declared()
    section = "per_layer" if trace else "end_to_end"
    out = subprocess.run(
        [sys.executable, *declared["command"][1:], "--workload", "library_mix", "--seed", "11",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared[section]
    }
