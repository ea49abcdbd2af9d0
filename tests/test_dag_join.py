"""Unit tests for the join-graph checkpointing model (APDCM'15)."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dag import (
    JoinInstance,
    JoinSchedule,
    WorkflowDAG,
    evaluate_join,
    exhaustive_join,
    generate,
    join_from_dag,
    join_sources,
    local_search_join,
    search_order,
    simulate_join,
    threshold_join,
)
from repro.dag.join import evaluate_join_batch
from repro.dag.localsearch import SCREEN_MARGIN, _steepest_round, climb
from repro.dag.search import (
    JoinObjective,
    join_moves,
    join_neighborhood,
    random_join_neighbor,
)
from repro.exceptions import InvalidParameterError, SolverError
from repro.platforms import Platform
from repro.service import Engine
from repro.testing import ExactJoinSpace, random_join_state


def make_instance(weights=(10.0, 20.0, 30.0), sink=5.0, rate=5e-3, C=3.0, R=2.0):
    return JoinInstance(tuple(weights), sink, rate, C, R)


class TestConstruction:
    def test_validates_weights(self):
        with pytest.raises(InvalidParameterError):
            JoinInstance((), 1.0, 0.0, 0.0, 0.0)
        with pytest.raises(InvalidParameterError):
            JoinInstance((0.0,), 1.0, 0.0, 0.0, 0.0)
        with pytest.raises(InvalidParameterError):
            JoinInstance((1.0,), -1.0, 0.0, 0.0, 0.0)
        with pytest.raises(InvalidParameterError):
            JoinInstance((1.0,), 1.0, -1e-3, 0.0, 0.0)

    def test_schedule_validates_permutation(self):
        with pytest.raises(InvalidParameterError):
            JoinSchedule((0, 0), (False, False))
        with pytest.raises(InvalidParameterError):
            JoinSchedule((0, 1), (False,))

    def test_n_checkpoints(self):
        s = JoinSchedule((0, 1, 2), (True, False, True))
        assert s.n_checkpoints == 2


class TestEvaluate:
    def test_error_free_is_plain_sum(self):
        inst = make_instance(rate=0.0)
        sched = JoinSchedule((0, 1, 2), (True, True, False))
        # no errors: work + 2 checkpoints
        assert evaluate_join(inst, sched) == pytest.approx(65.0 + 2 * inst.C)

    def test_no_checkpoints_single_segment(self):
        inst = make_instance(rate=1e-3, R=7.0)
        sched = JoinSchedule((0, 1, 2), (False, False, False))
        V = 65.0
        expected = math.expm1(inst.rate * V) / inst.rate  # R not paid (no ckpt)
        assert evaluate_join(inst, sched) == pytest.approx(expected)

    def test_full_checkpointing_segments(self):
        inst = make_instance(rate=2e-3)
        sched = JoinSchedule((0, 1, 2), (True, True, True))
        lam = inst.rate
        expected = (
            math.expm1(lam * 10.0) / lam + inst.C  # first: restart free
            + math.expm1(lam * 20.0) * (1 / lam + inst.R) + inst.C
            + math.expm1(lam * 30.0) * (1 / lam + inst.R) + inst.C
            + math.expm1(lam * 5.0) * (1 / lam + inst.R)
        )
        assert evaluate_join(inst, sched) == pytest.approx(expected, rel=1e-12)

    def test_unprotected_work_stays_volatile(self):
        """The defining join property: skipping a checkpoint on an early
        source inflates *every* later segment, not just the next one."""
        inst = make_instance(weights=(50.0, 10.0, 10.0), rate=5e-3)
        all_ckpt = JoinSchedule((0, 1, 2), (True, True, True))
        skip_first = JoinSchedule((0, 1, 2), (False, True, True))
        lam = inst.rate
        v_all = evaluate_join(inst, all_ckpt)
        v_skip = evaluate_join(inst, skip_first)
        # manual: the unchecked 50s source is part of EVERY later segment's
        # volatile work — segments are (50+10), (50+10), (50+5), unlike a
        # chain where a checkpoint would seal it off
        expected_skip = (
            math.expm1(lam * 60.0) / lam + inst.C
            + math.expm1(lam * 60.0) * (1 / lam + inst.R) + inst.C
            + math.expm1(lam * 55.0) * (1 / lam + inst.R)
        )
        assert v_skip == pytest.approx(expected_skip, rel=1e-12)
        assert v_all != pytest.approx(v_skip)

    def test_mismatched_schedule_rejected(self):
        inst = make_instance()
        with pytest.raises(InvalidParameterError, match="covers"):
            evaluate_join(inst, JoinSchedule((0, 1), (False, False)))


class TestSimulationAgreement:
    @pytest.mark.parametrize(
        "decisions", [(False, False, False), (True, False, True), (True, True, True)]
    )
    def test_monte_carlo_matches_closed_form(self, decisions):
        inst = make_instance(rate=8e-3, C=2.0, R=4.0)
        sched = JoinSchedule((0, 1, 2), decisions)
        analytic = evaluate_join(inst, sched)
        samples = simulate_join(inst, sched, runs=6000, rng=5)
        sem = samples.std(ddof=1) / math.sqrt(samples.size)
        assert abs(samples.mean() - analytic) < 4.0 * sem + 1e-9

    def test_simulation_deterministic_without_errors(self):
        inst = make_instance(rate=0.0)
        sched = JoinSchedule((0, 1, 2), (True, False, False))
        samples = simulate_join(inst, sched, runs=10)
        assert np.allclose(samples, samples[0])


class TestOptimizers:
    @pytest.mark.parametrize("seed", range(5))
    def test_local_search_matches_exhaustive_small(self, seed):
        rng = np.random.default_rng(seed)
        inst = JoinInstance(
            tuple(rng.uniform(5.0, 80.0, size=5)),
            float(rng.uniform(5.0, 30.0)),
            float(rng.uniform(1e-3, 1e-2)),
            float(rng.uniform(0.5, 6.0)),
            float(rng.uniform(0.5, 6.0)),
        )
        # identical-order comparison: local search with order moves can only
        # do better than the fixed-order exhaustive optimum
        exh_value, _ = exhaustive_join(inst)
        ls_value, ls_sched = local_search_join(inst)
        assert ls_value <= exh_value * (1 + 1e-9)
        assert evaluate_join(inst, ls_sched) == pytest.approx(ls_value)

    def test_exhaustive_with_orders_dominates(self):
        rng = np.random.default_rng(42)
        inst = JoinInstance(
            tuple(rng.uniform(5.0, 50.0, size=4)), 10.0, 6e-3, 2.0, 3.0
        )
        v_fixed, _ = exhaustive_join(inst)
        v_orders, _ = exhaustive_join(inst, optimize_order=True)
        assert v_orders <= v_fixed + 1e-12

    def test_threshold_never_checkpoints_without_errors(self):
        inst = make_instance(rate=0.0)
        _, sched = threshold_join(inst)
        assert sched.n_checkpoints == 0

    def test_threshold_checkpoints_heavy_tasks_under_high_rate(self):
        inst = make_instance(weights=(1.0, 500.0, 1.0), rate=5e-2, C=1.0)
        _, sched = threshold_join(inst)
        assert sched.checkpoint[1] is True

    def test_exhaustive_guards(self):
        inst = JoinInstance(tuple([1.0] * 13), 1.0, 1e-3, 1.0, 1.0)
        with pytest.raises(InvalidParameterError, match="limited"):
            exhaustive_join(inst)
        inst8 = JoinInstance(tuple([1.0] * 8), 1.0, 1e-3, 1.0, 1.0)
        with pytest.raises(InvalidParameterError, match="n!"):
            exhaustive_join(inst8, optimize_order=True)

    def test_checkpointing_helps_when_errors_frequent(self):
        inst = make_instance(weights=(200.0, 200.0, 200.0), rate=5e-3, C=1.0)
        none_value = evaluate_join(
            inst, JoinSchedule((0, 1, 2), (False, False, False))
        )
        best_value, best = exhaustive_join(inst)
        assert best.n_checkpoints > 0
        assert best_value < none_value


class TestJoinFromDag:
    def test_round_trip(self):
        dag = WorkflowDAG(
            {"s1": 5.0, "s2": 7.0, "sink": 2.0},
            [("s1", "sink"), ("s2", "sink")],
        )
        inst = join_from_dag(dag, rate=1e-3, C=1.0, R=1.0)
        assert inst.source_weights == (5.0, 7.0)
        assert inst.sink_weight == 2.0

    def test_rejects_non_join(self):
        # a 2-node chain would BE a join (1 source + sink): use a fork
        fork = WorkflowDAG(
            {"a": 1.0, "b": 1.0, "c": 1.0}, [("a", "b"), ("a", "c")]
        )
        with pytest.raises(InvalidParameterError, match="not a join"):
            join_from_dag(fork, rate=1e-3, C=1.0, R=1.0)

    def test_source_weights_follow_numeric_name_order(self):
        # regression: with key=repr sorting, "t10" sorted before "t2" and
        # the weights of >9-source joins were silently permuted
        n = 12
        weights = {f"t{i}": float(100 + i) for i in range(n)}
        weights["sink"] = 7.0
        dag = WorkflowDAG(
            weights, [(f"t{i}", "sink") for i in range(n)]
        )
        inst = join_from_dag(dag, rate=1e-3, C=1.0, R=1.0)
        assert inst.source_weights == tuple(float(100 + i) for i in range(n))
        assert join_sources(dag) == [f"t{i}" for i in range(n)]

    def test_generated_join_round_trip(self):
        # generate("join") -> join_from_dag -> rebuild a WorkflowDAG:
        # the instance must survive the round trip exactly
        dag = generate("join", seed=5, sources=11, weights="lognormal")
        inst = join_from_dag(dag, rate=2e-3, C=3.0, R=2.0)
        sources = join_sources(dag)
        assert [dag.weight(v) for v in sources] == list(inst.source_weights)
        sink = dag.sinks()[0]
        rebuilt = WorkflowDAG(
            {str(v): dag.weight(v) for v in sources}
            | {str(sink): inst.sink_weight},
            [(str(v), str(sink)) for v in sources],
        )
        inst2 = join_from_dag(rebuilt, rate=2e-3, C=3.0, R=2.0)
        assert inst2 == inst


class TestToleranceBugfix:
    def test_local_search_is_scale_invariant(self, monkeypatch):
        """Regression: the old absolute 1e-15 convergence epsilon is below
        one ulp for large makespans, so scaled-up instances churned through
        all max_rounds re-accepting float noise.  With the relative
        tolerance the search does identical work at every scale."""
        import repro.dag.join as join_mod

        rng = np.random.default_rng(7)
        weights = tuple(rng.uniform(5.0, 80.0, size=6))
        base = JoinInstance(weights, 12.0, 8e-3, 2.0, 3.0)
        K = 1e6  # scaling time by K and rate by 1/K scales the optimum by K
        scaled = JoinInstance(
            tuple(w * K for w in weights), 12.0 * K, 8e-3 / K, 2.0 * K, 3.0 * K
        )

        counts = []
        real_evaluate = join_mod.evaluate_join
        for instance in (base, scaled):
            calls = 0

            def counting(inst, sched, _real=real_evaluate):
                nonlocal calls
                calls += 1
                return _real(inst, sched)

            monkeypatch.setattr(join_mod, "evaluate_join", counting)
            value, _ = join_mod.local_search_join(instance)
            monkeypatch.setattr(join_mod, "evaluate_join", real_evaluate)
            counts.append(calls)
        assert counts[0] == counts[1], counts
        # and the optima really do scale linearly
        v_base, _ = local_search_join(base)
        v_scaled, _ = local_search_join(scaled)
        assert v_scaled == pytest.approx(v_base * K, rel=1e-9)

    def test_local_search_terminates_quickly_on_large_makespans(self):
        inst = JoinInstance(
            tuple(float(w) for w in (3e5, 5e5, 2e5, 7e5, 4e5)),
            1e5, 5e-6, 6e3, 4e3,
        )
        value, sched = local_search_join(inst, max_rounds=200)
        assert evaluate_join(inst, sched) == pytest.approx(value)


class TestThresholdZeroCost:
    def test_free_checkpoints_are_always_taken(self):
        # regression: the max(C, 1e-12) clamp produced a positive threshold
        # at C=0, skipping checkpoints on very light sources
        inst = JoinInstance((1e-9, 1e-9, 500.0), 10.0, 1e-3, 0.0, 5.0)
        _, sched = threshold_join(inst)
        assert sched.checkpoint == (True, True, True)

    def test_zero_rate_still_never_checkpoints(self):
        inst = JoinInstance((1.0, 2.0), 1.0, 0.0, 0.0, 0.0)
        _, sched = threshold_join(inst)
        assert sched.n_checkpoints == 0

    def test_positive_threshold_unchanged(self):
        inst = JoinInstance((1.0, 500.0), 10.0, 5e-2, 1.0, 1.0)
        _, sched = threshold_join(inst)
        threshold = math.sqrt(2.0 * inst.C / inst.rate)
        assert sched.checkpoint == tuple(
            w >= threshold for w in inst.source_weights
        )


class TestSeededSimulationAgreement:
    @pytest.mark.parametrize("seed", range(4))
    def test_evaluate_matches_simulate_on_random_instances(self, seed):
        """evaluate_join's closed form vs the generative Monte Carlo on
        seeded random (instance, schedule) pairs: 4-sigma CI agreement."""
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(3, 8))
        inst = JoinInstance(
            tuple(rng.uniform(10.0, 120.0, size=n)),
            float(rng.uniform(5.0, 40.0)),
            float(rng.uniform(2e-3, 9e-3)),
            float(rng.uniform(0.5, 5.0)),
            float(rng.uniform(0.5, 5.0)),
        )
        order = tuple(int(i) for i in rng.permutation(n))
        decisions = tuple(bool(b) for b in rng.random(n) < 0.5)
        sched = JoinSchedule(order, decisions)
        analytic = evaluate_join(inst, sched)
        samples = simulate_join(inst, sched, runs=6000, rng=seed)
        sem = samples.std(ddof=1) / math.sqrt(samples.size)
        assert abs(samples.mean() - analytic) < 4.0 * sem + 1e-9


@st.composite
def join_state(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    return random_join_state(np.random.default_rng(draw(st.integers(0, 2**31))), n)


class TestJoinMoveProperties:
    @given(state=join_state())
    @settings(max_examples=40, deadline=None)
    def test_neighbors_are_valid_and_decisions_travel(self, state):
        by_source = dict(zip(state.order, state.checkpoint))
        for cand in join_neighborhood(state):
            # JoinSchedule.__post_init__ re-validates the permutation
            assert sorted(cand.order) == sorted(state.order)
            cand_by_source = dict(zip(cand.order, cand.checkpoint))
            flips = [
                src
                for src in by_source
                if cand_by_source[src] != by_source[src]
            ]
            if cand.order == state.order:
                assert len(flips) == 1  # flip move: exactly one decision
            else:
                assert flips == []  # reposition: decisions travel along

    @given(state=join_state(), seed=st.integers(0, 2**31))
    @settings(max_examples=40, deadline=None)
    def test_random_neighbor_is_a_single_move(self, state, seed):
        rng = np.random.default_rng(seed)
        cand = random_join_neighbor(state, rng)
        assert sorted(cand.order) == sorted(state.order)
        by_source = dict(zip(state.order, state.checkpoint))
        cand_by_source = dict(zip(cand.order, cand.checkpoint))
        changed = [s for s in by_source if cand_by_source[s] != by_source[s]]
        assert (cand.order == state.order and len(changed) == 1) or (
            cand.order != state.order and not changed
        )


# ----------------------------------------------------------------------
# overflow: e^(λV) past a double saturates to +inf, never raises
# ----------------------------------------------------------------------
#: λ_f = 0.5 puts any three of these sources in one segment past e^709.
OVERFLOW_PLATFORM = Platform.from_costs(
    "overflow", lf=0.5, ls=1e-6, CD=40.0, CM=8.0, r=0.8
)
#: λ_f = 2 overflows even the sink's own final segment: no finite state.
SATURATED_PLATFORM = Platform.from_costs(
    "saturated", lf=2.0, ls=1e-6, CD=40.0, CM=8.0, r=0.8
)


def overflow_dag():
    return generate("join", seed=1, sources=5, weights="lognormal")


class TestOverflow:
    def test_overflowing_segment_prices_inf(self):
        inst = join_from_dag(overflow_dag(), rate=0.5, C=40.0, R=40.0)
        order = tuple(range(inst.n_sources))
        none = JoinSchedule(order, (False,) * inst.n_sources)
        every = JoinSchedule(order, (True,) * inst.n_sources)
        assert evaluate_join(inst, none) == math.inf
        assert math.isfinite(evaluate_join(inst, every))
        batch = evaluate_join_batch(
            inst,
            np.array([order, order]),
            np.array([none.checkpoint, every.checkpoint]),
        )
        assert batch[0] == math.inf and math.isfinite(batch[1])

    def test_heuristics_return_instead_of_raising(self):
        inst = join_from_dag(overflow_dag(), rate=0.5, C=40.0, R=40.0)
        value, schedule = local_search_join(inst)
        assert math.isfinite(value) and value == evaluate_join(inst, schedule)
        assert threshold_join(inst)[0] > 0.0
        value, _ = exhaustive_join(inst, optimize_order=True)
        assert math.isfinite(value)

    @pytest.mark.parametrize("method", ["hill_climb", "anneal", "hybrid"])
    def test_search_order_finds_a_finite_schedule(self, method):
        result = search_order(overflow_dag(), OVERFLOW_PLATFORM, method=method)
        inst = result.solution.instance
        assert math.isfinite(result.expected_time)
        assert result.expected_time == evaluate_join(
            inst, result.solution.join_schedule
        )

    def test_no_finite_state_is_a_typed_error(self):
        with pytest.raises(SolverError, match="finite expected makespan"):
            search_order(overflow_dag(), SATURATED_PLATFORM)

    def test_engine_answers_or_refuses_with_a_typed_error(self):
        engine = Engine(cache_entries=8)
        request = {
            "generator": {
                "kind": "join", "seed": 1, "sources": 5, "weights": "lognormal"
            },
            "platform": OVERFLOW_PLATFORM.as_dict(),
            "strategy": "search",
            "restarts": 1,
        }
        doc = engine.handle("dag/optimize", request).document()
        assert math.isfinite(doc["solution"]["expected_time"])
        request["platform"] = SATURATED_PLATFORM.as_dict()
        with pytest.raises(SolverError):
            engine.handle("dag/optimize", request)


# ----------------------------------------------------------------------
# the screened join round against the exact scan it replaces
# ----------------------------------------------------------------------
class TestMoveTable:
    def test_rows_follow_join_neighborhood_order(self):
        rng = np.random.default_rng(0)
        for n in range(2, 31):
            table = join_moves(n)
            assert table.shape == (n * n, n) and not table.flags.writeable
            state = random_join_state(rng, n)
            _, materialise = JoinObjective(
                JoinInstance((1.0,) * n, 1.0, 1e-3, 1.0, 1.0)
            ).screen_neighbours(state)
            for k, cand in enumerate(join_neighborhood(state)):
                assert cand.order == tuple(state.order[p] for p in table[k])
                assert materialise(k) == cand


@st.composite
def join_instance(draw):
    """Small instances with degenerate parameters, exact duplicate
    weights and near-ties inside ``RELATIVE_TOLERANCE``."""
    n = draw(st.integers(min_value=1, max_value=9))
    pool = draw(st.lists(st.floats(0.5, 200.0), min_size=1, max_size=4))
    nudges = st.sampled_from([0.0, 0.0, 1e-14, -2e-14, 3e-13])
    weights = tuple(
        draw(st.sampled_from(pool)) * (1.0 + draw(nudges)) for _ in range(n)
    )
    sink = draw(st.sampled_from(pool))
    rate = draw(st.sampled_from([0.0, 1e-5, 1e-3, 2e-2, 1.0]))
    C = draw(st.sampled_from([0.0, 0.0, 5.0, 40.0]))
    R = draw(st.sampled_from([0.0, 0.0, 5.0, 40.0]))
    return JoinInstance(weights, sink, rate, C, R)


class TestScreenedRound:
    @given(inst=join_instance(), seed=st.integers(0, 2**31))
    @settings(max_examples=150, deadline=None)
    def test_round_matches_the_exact_scan(self, inst, seed):
        state = random_join_state(np.random.default_rng(seed), inst.n_sources)
        exact = ExactJoinSpace(inst)
        value, _ = exact.evaluate(state)
        rng = np.random.default_rng(0)
        want = _steepest_round(exact, state, value, None, rng, None)
        got = _steepest_round(JoinObjective(inst), state, value, None, rng, None)
        assert got[0] == want[0]  # every neighbour proposed
        if want[1] is None:
            assert got[1] is None
        else:
            assert got[1][0] == want[1][0]
            assert float(got[1][1]).hex() == float(want[1][1]).hex()

    @given(inst=join_instance(), seed=st.integers(0, 2**31))
    @settings(max_examples=60, deadline=None)
    def test_climb_matches_the_exact_climb(self, inst, seed):
        state = random_join_state(np.random.default_rng(seed), inst.n_sources)
        want = climb(ExactJoinSpace(inst), state, np.random.default_rng(0))
        got = climb(JoinObjective(inst), state, np.random.default_rng(0))
        assert (got.state, float(got.value).hex(), got.rounds) == (
            want.state, float(want.value).hex(), want.rounds
        )

    @given(inst=join_instance(), seed=st.integers(0, 2**31))
    @settings(max_examples=80, deadline=None)
    def test_approximate_values_stay_inside_the_margin(self, inst, seed):
        state = random_join_state(np.random.default_rng(seed), inst.n_sources)
        approx, _ = JoinObjective(inst).screen_neighbours(state)
        exact = np.array([evaluate_join(inst, c) for c in join_neighborhood(state)])
        finite = np.isfinite(exact)
        assert np.array_equal(np.isfinite(approx), finite)  # both saturate
        gap = np.abs(approx[finite] - exact[finite])
        assert np.all(gap <= SCREEN_MARGIN * exact[finite])

    def test_wide_join_is_priced_in_row_blocks(self):
        # 181 sources: 32761 neighbours of 181 positions, past one block
        rng = np.random.default_rng(3)
        inst = JoinInstance(
            tuple(rng.uniform(1.0, 50.0, 181)), 10.0, 1e-4, 5.0, 5.0
        )
        state = random_join_state(rng, inst.n_sources)
        approx, _ = JoinObjective(inst).screen_neighbours(state)
        sample = set(rng.choice(len(approx), 200, replace=False).tolist())
        for k, cand in enumerate(join_neighborhood(state)):
            if k in sample:
                exact = evaluate_join(inst, cand)
                assert abs(approx[k] - exact) <= SCREEN_MARGIN * exact
