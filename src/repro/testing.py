"""Shared randomized-instance builders for tests and benchmarks.

Both the test suite and the benchmark harness cross-check the dynamic
programs, the Markov evaluator and the simulators on randomized
``(chain, platform)`` instances.  Importing these builders from the
package (instead of from a ``conftest.py``) keeps them addressable from
any rootdir: two ``conftest.py`` files (``tests/`` and ``benchmarks/``)
are both imported as the top-level module ``conftest``, so ``from
conftest import ...`` resolves to whichever directory pytest collected
first — the shadowing bug this module fixes.

The "hot" parameter ranges are deliberately exaggerated relative to the
Table I catalog so that error-handling paths carry real probability mass
and disagreements between the analytic model and the simulators become
statistically visible at small replication counts.
"""

from __future__ import annotations

import numpy as np

from .chains import TaskChain
from .platforms import Platform

__all__ = [
    "ExactJoinSpace",
    "random_chain",
    "random_platform",
    "random_cost_profile",
    "random_join_state",
]


def random_platform(
    rng: np.random.Generator,
    *,
    with_fail_stop: bool = True,
    with_silent: bool = True,
) -> Platform:
    """A random hot platform for randomized cross-checks."""
    return Platform.from_costs(
        "random",
        lf=float(rng.uniform(1e-4, 8e-3)) if with_fail_stop else 0.0,
        ls=float(rng.uniform(1e-3, 2e-2)) if with_silent else 0.0,
        CD=float(rng.uniform(5.0, 40.0)),
        CM=float(rng.uniform(1.0, 8.0)),
        r=float(rng.uniform(0.4, 0.95)),
        partial_cost_ratio=float(rng.uniform(5.0, 100.0)),
    )


def random_chain(rng: np.random.Generator, n: int, scale: float = 50.0) -> TaskChain:
    """A random chain of ``n`` tasks with positive weights."""
    return TaskChain(rng.uniform(0.2, 1.0, size=n) * scale)


def random_cost_profile(rng: np.random.Generator, n: int):
    """A random heterogeneous :class:`~repro.core.costs.CostProfile`."""
    from .core.costs import CostProfile

    return CostProfile.from_arrays(
        n,
        CD=rng.uniform(5.0, 40.0, n),
        CM=rng.uniform(1.0, 8.0, n),
        RD=rng.uniform(5.0, 40.0, n),
        RM=rng.uniform(1.0, 8.0, n),
        Vg=rng.uniform(0.5, 6.0, n),
        Vp=rng.uniform(0.05, 0.4, n),
    )


def random_join_state(rng: np.random.Generator, n: int):
    """A random join state: a source order and fair-coin decisions."""
    from .dag.join import JoinSchedule

    order = tuple(int(i) for i in rng.permutation(n))
    return JoinSchedule(order, tuple(bool(b) for b in rng.random(n) < 0.5))


class ExactJoinSpace:
    """The join objective without ``screen_neighbours``: a climb round
    prices every neighbour with ``evaluate_join``.  This is the exact scan
    the screened round must reproduce bitwise, and the one it is timed
    against."""

    def __init__(self, instance) -> None:
        from .dag.search import JoinObjective

        self.objective = JoinObjective(instance)
        self.metrics = self.objective.metrics

    def evaluate(self, state):
        return self.objective.evaluate(state)

    def neighbours(self, state, rng):
        from .dag.search import join_neighborhood

        return join_neighborhood(state)
