"""Pinned goldens for the shared local-search kernel (repro.dag.localsearch).

Every case runs one public search — ``search_order`` on chain and join
DAGs, ``search_parallel`` at p=2 — at a fixed seed and fingerprints the
result: the winning state, the value's float bits, ``rounds``,
``start_values``, every search counter of the merged metric snapshot
and the number of events per kind.  The fingerprints were recorded
before the chain, join and p-worker searches shared one kernel; the
only deltas since are the deliberate ones :func:`expected` applies.

The module also carries the direct kernel tests: ``climb``/``anneal``
on a bare space, the ``rounds`` == accepted-moves contract, and the
rejection of an objective built for another problem.
"""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from repro.dag import (
    ChainObjective,
    ParallelObjective,
    generate,
    search_order,
    search_parallel,
)
from repro.dag.localsearch import anneal, climb, search
from repro.exceptions import InvalidParameterError
from repro.obs import EventBus, MetricsRegistry, instrument
from repro.platforms import Platform

PLATFORM = Platform.from_costs("dag", lf=2e-4, ls=6e-4, CD=40.0, CM=8.0, r=0.8)

DAGS = {
    "layered8": dict(
        kind="layered", seed=5, tasks=8, layers=3, density=0.5,
        weights="lognormal",
    ),
    "hetero8": dict(
        kind="layered", seed=3, tasks=8, layers=3, density=0.5,
        weights="lognormal", cost_spread=1.0,
    ),
    "join6": dict(kind="join", seed=2, sources=5, weights="lognormal"),
    "join12": dict(kind="join", seed=4, sources=11, weights="lognormal"),
    "layered10": dict(kind="layered", seed=11, tasks=10, layers=3, density=0.5),
}


def _dag(name):
    spec = dict(DAGS[name])
    return generate(spec.pop("kind"), **spec)


def _case(search, dag, method, seed, algorithm="adv_star", **options):
    return dict(
        search=search, dag=dag, method=method, seed=seed,
        algorithm=algorithm, **options,
    )


CASES: dict[str, dict] = {}
for _dag_name, _algorithms in (
    ("layered8", ("adv_star", "admv")), ("hetero8", ("adv_star",))
):
    for _algorithm in _algorithms:
        for _method in ("hill_climb", "anneal", "hybrid"):
            for _seed in (0, 1):
                CASES[f"chain-{_dag_name}-{_algorithm}-{_method}-s{_seed}"] = (
                    _case("chain", _dag_name, _method, _seed, _algorithm,
                          iterations=60)
                )
for _method in ("hill_climb", "anneal", "hybrid"):
    CASES[f"chain-layered8-jobs2-{_method}"] = _case(
        "chain", "layered8", _method, 0, iterations=60, n_jobs=2
    )
CASES["chain-layered10-recombine3"] = _case(
    "chain", "layered10", "hill_climb", 2, recombine=3
)
CASES["chain-layered10-recombine0"] = _case(
    "chain", "layered10", "hill_climb", 2, recombine=0
)
for _dag_name in ("join6", "join12"):
    for _method in ("hill_climb", "anneal", "hybrid"):
        for _seed in (0, 1):
            CASES[f"join-{_dag_name}-{_method}-s{_seed}"] = _case(
                "chain", _dag_name, _method, _seed, iterations=80
            )
for _dag_name in ("layered8", "layered10"):
    for _method in ("hill_climb", "anneal", "hybrid"):
        for _seed in (0, 1):
            CASES[f"p2-{_dag_name}-{_method}-s{_seed}"] = _case(
                "parallel", _dag_name, _method, _seed, iterations=60,
                restarts=1,
            )
CASES["p2-layered10-jobs2"] = _case(
    "parallel", "layered10", "hill_climb", 3, restarts=1, n_jobs=2
)


def _hexes(values):
    return {k: float(v).hex() for k, v in sorted(values.items())}


def run_case(case: dict) -> dict:
    """Fingerprint one search (JSON-ready: strings, ints, lists, dicts)."""
    options = dict(case)
    search = options.pop("search")
    dag = _dag(options.pop("dag"))
    bus = EventBus()
    with instrument(MetricsRegistry(), events=bus):
        if search == "parallel":
            result = search_parallel(dag, PLATFORM, 2, **options)
        else:
            result = search_order(dag, PLATFORM, **options)
    solution = result.solution
    out = {
        "order": [str(v) for v in solution.order],
        "value": float(result.expected_time).hex(),
        "rounds": result.rounds,
        "start_values": _hexes(result.start_values),
        "counters": {
            k: v
            for k, v in sorted(result.metrics.counters.items())
            if k.startswith(("search.", "parallel."))
        },
        "events": dict(sorted(Counter(
            e.kind for e in bus.snapshot().events
        ).items())),
    }
    if search == "parallel":
        out["workers"] = [solution.assignment[v] for v in solution.order]
    if result.algorithm == "join":
        out["checkpoint"] = [bool(d) for d in solution.join_schedule.checkpoint]
    return out


#: ``parent`` holds every case as recorded before the kernel existed;
#: ``moved`` the p=2 anneal/hybrid cases as they are now.
GOLDEN = json.loads(
    (Path(__file__).with_name("localsearch_goldens.json")).read_text()
)


JOIN_STATE_COUNTERS = (
    "search.join.evaluations", "search.join.hits",
    "search.join.screened", "search.join.confirmed",
)


def screens_join_rounds(name: str) -> bool:
    return name.startswith("join-") and "-anneal-" not in name


def fold_join_scoring(counters: dict) -> dict:
    """Replace the join state counters by ``orders_scored``: evaluations
    + hits + screened - confirmed (each state scored once, exactly or
    in batch)."""
    counters = dict(counters)
    e, h, s, c = (counters.pop(k, 0) for k in JOIN_STATE_COUNTERS)
    counters["orders_scored"] = e + h + s - c
    return counters


def expected(name: str) -> dict:
    """The recorded fingerprint with the four deliberate deltas applied."""
    if name in GOLDEN["moved"]:
        # (b) p=2 anneal/hybrid walks accept on ``delta <= 0`` with the
        # ``max(T, 1e-300)`` floor, like the chain and join walks
        return GOLDEN["moved"][name]
    golden = dict(GOLDEN["parent"][name])
    if name.startswith("p2-"):
        # (a) p=2 ``rounds`` no longer counts each climb's final,
        # non-improving round
        golden["rounds"] = golden["counters"]["search.moves.accepted"]
    if screens_join_rounds(name):
        # (d) a join climb round screens its neighbourhood in one array
        # pass and prices exactly only the states that could win, so the
        # evaluations/hits split moves; the states scored do not
        golden["counters"] = fold_join_scoring(golden["counters"])
    return golden


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden(name):
    got = run_case(CASES[name])
    if name.startswith("join-"):
        # (c) the join search now emits the shared kernel's events
        new = {k: got["events"].pop(k, 0) for k in ("search.round", "search.best")}
        assert new["search.best" if "-anneal-" in name else "search.round"] > 0
    if screens_join_rounds(name):
        # (d) as in ``expected``; the screen skips most exact pricing
        counters = got["counters"]
        assert 0 < counters["search.join.confirmed"] < counters["search.join.screened"]
        assert counters["search.join.screened"] <= counters["search.moves.proposed"]
        got["counters"] = fold_join_scoring(counters)
    assert got == expected(name)


def test_goldens_cover_every_case():
    assert set(GOLDEN["parent"]) == set(CASES)
    assert set(GOLDEN["moved"]) <= set(CASES)


# ----------------------------------------------------------------------
# the kernel on its own
# ----------------------------------------------------------------------
class LineSpace:
    """A toy space: integers in [0, 20] priced by a parabola."""

    def __init__(self):
        self.metrics = MetricsRegistry()

    def evaluate(self, x):
        return float((x - 7) ** 2 + 1), None

    def neighbours(self, x, rng):
        return [y for y in (x - 1, x + 1) if 0 <= y <= 20]

    def random_neighbour(self, x, rng):
        return int(rng.choice(self.neighbours(x, rng)))

    def worker_factory(self):
        return None


class TestKernel:
    def test_climb_descends_to_the_minimum(self):
        walk = climb(LineSpace(), 18, np.random.default_rng(0))
        assert (walk.state, walk.value, walk.rounds) == (7, 1.0, 11)

    def test_anneal_returns_the_best_state_visited(self):
        space = LineSpace()
        walk = anneal(space, 15, np.random.default_rng(0), iterations=200)
        assert walk.value <= space.evaluate(15)[0]
        assert walk.rounds == space.metrics.counter("search.moves.accepted").value

    def test_search_walks_every_start(self):
        space = LineSpace()
        seeds = np.random.SeedSequence(0).spawn(2)
        outcome = search(
            space, [("low", 0), ("high", 20)], method="hybrid",
            climb_seed=seeds[0], anneal_seed=seeds[1], iterations=50,
            max_rounds=100,
        )
        assert outcome.state == 7 and outcome.value == 1.0
        assert set(outcome.start_values) == {"low", "high", "anneal"}
        assert space.metrics.counter("search.starts").value == 2


# ----------------------------------------------------------------------
# ``rounds`` means accepted moves, for every search
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "name",
    ["chain-layered8-adv_star-hill_climb-s0", "join-join12-hill_climb-s0",
     "p2-layered10-hill_climb-s0", "p2-layered10-jobs2"],
)
def test_rounds_count_accepted_moves(name):
    case = dict(CASES[name])
    search_kind, dag = case.pop("search"), _dag(case.pop("dag"))
    if search_kind == "parallel":
        result = search_parallel(dag, PLATFORM, 2, **case)
    else:
        result = search_order(dag, PLATFORM, **case)
    assert result.rounds == result.metrics.counter("search.moves.accepted")
    assert result.rounds > 0


# ----------------------------------------------------------------------
# a supplied objective must price the problem it is searched on
# ----------------------------------------------------------------------
OTHER_PLATFORM = Platform.from_costs(
    "other", lf=1e-3, ls=3e-3, CD=80.0, CM=8.0, r=0.8
)


class TestSuppliedObjective:
    def test_search_order_rejects_another_platform_or_dag(self):
        dag = _dag("layered8")
        foreign = ChainObjective(dag, OTHER_PLATFORM, algorithm="adv_star")
        with pytest.raises(InvalidParameterError, match="different dag"):
            search_order(dag, PLATFORM, objective=foreign)
        twin = ChainObjective(_dag("layered8"), PLATFORM, algorithm="adv_star")
        with pytest.raises(InvalidParameterError, match="different dag"):
            search_order(dag, PLATFORM, objective=twin)

    def test_search_parallel_rejects_another_platform(self):
        dag = _dag("layered8")
        foreign = ParallelObjective(dag, OTHER_PLATFORM, 2, algorithm="adv_star")
        with pytest.raises(InvalidParameterError, match="different dag"):
            search_parallel(dag, PLATFORM, 2, objective=foreign)
