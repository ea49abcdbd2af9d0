"""The batched exact DPs against their loop oracles, bitwise.

Production runs ``ADMV*`` and ``ADMV`` ``m1`` ascending with every ``d1``
of a step in one array (see :mod:`repro.core.dp_outer` and
:mod:`repro.core.dp_partial`), and ``ADV*`` ``v2`` ascending with every
``d1`` at once.  The loops they replaced live in ``tests/dp_oracles.py``.
Both evaluate the same floating-point expressions in the same order, so
the comparisons here are exact: ``==`` on ``expected_time``, the schedule
levels and the ``Edisk``/``Emem`` tables, never a tolerance.
"""

from __future__ import annotations

import tracemalloc
import warnings
from functools import partial

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dp_oracles import (
    loop_forward_partial,
    loop_forward_two_level,
    loop_optimize_partial,
    loop_optimize_single_level,
    loop_optimize_two_level,
    loop_verif_table,
)
from repro.chains import TaskChain, uniform_chain
from repro.core import optimize
from repro.core.costs import CostProfile
from repro.core.dp_outer import memory_pass
from repro.core.dp_partial import _Sweeper, optimize_partial
from repro.core.dp_single import _verif_table, optimize_single_level
from repro.core.dp_two_level import _verif_rows, optimize_two_level
from repro.core.factors import PairFactors
from repro.platforms import HERA
from repro.testing import random_chain, random_platform


def assert_same_bits(fast, slow) -> None:
    """Same dtype, shape and bytes: a NaN must match a NaN, and -0.0
    does not match 0.0."""
    fast, slow = np.asarray(fast), np.asarray(slow)
    assert (fast.dtype, fast.shape) == (slow.dtype, slow.shape)
    assert fast.tobytes() == slow.tobytes()


def assert_bitwise(fast, slow) -> None:
    """Equal values, schedules and diagnostic tables, bit for bit."""
    assert_same_bits(fast.expected_time, slow.expected_time)
    assert_same_bits(fast.schedule.levels_array(), slow.schedule.levels_array())
    assert fast.diagnostics.keys() == slow.diagnostics.keys()
    for table in fast.diagnostics:
        assert_same_bits(fast.diagnostics[table], slow.diagnostics[table])


#: Forward tables, argmins included, of each program: (production, oracle).
FORWARD = {
    "adv_star": (_verif_table, loop_verif_table),
    "admv_star": (
        lambda F: memory_pass(F, partial(_verif_rows, F)),
        loop_forward_two_level,
    ),
    "admv": (
        lambda F: memory_pass(F, _Sweeper(F, paper_faithful=False).verif_rows),
        partial(loop_forward_partial, paper_faithful=False),
    ),
    "admv_paper": (
        lambda F: memory_pass(F, _Sweeper(F, paper_faithful=True).verif_rows),
        partial(loop_forward_partial, paper_faithful=True),
    ),
}


def assert_tables_bitwise(F: PairFactors, program: str) -> None:
    fast, slow = (build(F) for build in FORWARD[program])
    for fast_table, slow_table in zip(fast, slow, strict=True):
        assert_same_bits(fast_table, slow_table)


@st.composite
def instances(draw, max_n: int = 14):
    """A random chain and platform, with recall extremes and cost profiles."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, max_n))
    chain = random_chain(rng, n)
    platform = random_platform(rng)
    recall = draw(st.sampled_from([None, 1.0, 0.0]))  # g = 0 / g = 1 extremes
    if recall is not None:
        platform = platform.with_overrides(r=recall)
    costs = None
    if draw(st.booleans()):
        costs = CostProfile.scaled(platform, rng.uniform(0.25, 4.0, n))
    return chain, platform, costs


ORACLE_SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestPartialMatchesLoop:
    @ORACLE_SETTINGS
    @given(instance=instances(), paper_faithful=st.booleans())
    def test_random_instances(self, instance, paper_faithful):
        chain, platform, costs = instance
        assert_bitwise(
            optimize_partial(
                chain, platform, paper_faithful=paper_faithful, costs=costs
            ),
            loop_optimize_partial(
                chain, platform, paper_faithful=paper_faithful, costs=costs
            ),
        )

    @pytest.mark.parametrize("n", [1, 2, 12])
    def test_table_one_platform(self, n):
        chain = uniform_chain(n)
        assert_bitwise(
            optimize_partial(chain, HERA), loop_optimize_partial(chain, HERA)
        )


class TestForwardTablesMatchLoop:
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(instance=instances(max_n=10), program=st.sampled_from(sorted(FORWARD)))
    def test_random_instances(self, instance, program):
        chain, platform, costs = instance
        assert_tables_bitwise(PairFactors(chain, platform, costs), program)


class TestTwoLevelMatchesLoop:
    @ORACLE_SETTINGS
    @given(instance=instances())
    def test_random_instances(self, instance):
        chain, platform, costs = instance
        assert_bitwise(
            optimize_two_level(chain, platform, costs=costs),
            loop_optimize_two_level(chain, platform, costs=costs),
        )


class TestSingleLevelMatchesLoop:
    @ORACLE_SETTINGS
    @given(instance=instances(max_n=20))
    def test_random_instances(self, instance):
        chain, platform, costs = instance
        assert_bitwise(
            optimize_single_level(chain, platform, costs=costs),
            loop_optimize_single_level(chain, platform, costs=costs),
        )


class TestOverflow:
    """Λ W > 709 on long segments: the exponentials saturate to inf and
    whole candidate rows of the memory level are inf.  The loop's argmin
    then returns its slice's first index; the batched masked argmin must
    be clamped to the same position.  (Such instances also carry NaNs,
    from ``0 * inf`` products, in both implementations alike.)"""

    @pytest.mark.parametrize("paper_faithful", [False, True])
    @pytest.mark.parametrize("seed", [5, 11])
    def test_saturated_rows(self, seed, paper_faithful):
        rng = np.random.default_rng(seed)
        platform = random_platform(rng)
        # Λ W of one task in [150, 300]: three or more tasks overflow.
        lam = platform.lf + platform.ls
        chain = TaskChain(rng.uniform(0.5, 1.0, 8) * 300.0 / lam)
        with warnings.catch_warnings(), np.errstate(all="ignore"):
            # both implementations warn on the saturated arithmetic
            warnings.simplefilter("ignore")
            slow = loop_optimize_partial(
                chain, platform, paper_faithful=paper_faithful
            )
            fast = optimize_partial(chain, platform, paper_faithful=paper_faithful)
            slow_star = loop_optimize_two_level(chain, platform)
            fast_star = optimize_two_level(chain, platform)
            slow_single = loop_optimize_single_level(chain, platform)
            fast_single = optimize_single_level(chain, platform)
            F = PairFactors(chain, platform)
            for program in FORWARD:
                assert_tables_bitwise(F, program)
        emem = slow.diagnostics["Emem"]
        assert np.isinf(emem[np.triu_indices_from(emem)]).any()
        assert_bitwise(fast, slow)
        assert_bitwise(fast_star, slow_star)
        assert_bitwise(fast_single, slow_single)


class TestScale:
    def test_peak_memory_of_an_n50_solve_stays_cubic(self):
        """One ADMV solve at n=50 keeps O(n^3) tables: ~4 MB, not O(n^4)."""
        chain = uniform_chain(50)
        tracemalloc.start()
        try:
            optimize(chain, HERA, algorithm="admv")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20, f"peak {peak / 2**20:.1f} MB"
