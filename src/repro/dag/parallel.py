"""p-processor list scheduling + (assignment, order) search for workflows.

Everything before this module linearises a :class:`~repro.dag.workflow.
WorkflowDAG` onto *one* processor.  Here a schedule is a pair — a global
topological order plus a task→worker assignment — and the chain machinery
is lifted per worker:

* **List scheduling seeds** (:func:`list_schedule`): the classic serial
  schedule-generation scheme — repeatedly start the highest-priority
  ready task on the worker giving it the earliest error-free start —
  with the priority rules of :mod:`repro.dag.linearize`
  (``bottom_level``, ``critical_path``, weight-greedy, …).
* **Commit protocol**: cross-worker dependencies are exchanged through
  disk checkpoints.  Each worker's chain is cut at its *commit
  boundaries* — after any task with a remote successor, before any task
  with a remote predecessor — which divides it into epochs (see
  :mod:`repro.simulation.parallel` for the failure semantics).
* **Per-worker checkpoint placement**: every inter-boundary interval is
  an independent chain problem (the renewal structure of disk
  checkpoints — :meth:`~repro.core.costs.CostProfile.
  with_boundary_recovery` prices an interval opening at a boundary), so
  the existing chain DP solves each interval and the worker schedule is
  their concatenation, with the forced boundary disk checkpoints being
  exactly the intervals' final disk checkpoints.
* **Surrogate objective** (:class:`ParallelObjective`): per-worker
  expected *busy* durations per epoch (exact, by the renewal
  decomposition) folded through the epoch dependency graph with a
  critical-path recursion.  Replacing each random epoch duration by its
  expectation under the outer ``max`` makes this a Jensen *lower bound*
  on the true expected makespan — the search ranks states by it, and
  :func:`~repro.simulation.parallel.simulate_parallel` certifies the
  winner's true value.
* **Search** (:func:`search_parallel`): the shared local-search kernel
  (:mod:`repro.dag.localsearch`) with the move set generalised to
  (assignment, order) pairs — all of :mod:`repro.dag.search`'s
  precedence-preserving order moves, plus reassignment moves relocating
  one task to another worker.

:func:`optimize_parallel` (and ``optimize_dag(processors=p)``) is the
top-level entry point.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Hashable, Iterator, Mapping, Sequence
from dataclasses import dataclass, field
from functools import partial
from operator import itemgetter

import numpy as np

from ..exceptions import InvalidChainError, InvalidParameterError
from ..chains import TaskChain
from ..platforms import Platform
from ..core.costs import CostProfile
from ..core.schedule import Action, Schedule
from ..core.solver import optimize
from ..obs import MetricsRegistry, MetricsSnapshot
from ..obs import span as _span
from ..simulation.parallel import ParallelPlan, WorkerPlan
from .linearize import candidate_orders
from .localsearch import check_request
from .localsearch import search as _search
from .search import neighborhood, random_neighbor, random_order
from .workflow import WorkflowDAG

__all__ = [
    "ParallelSchedule",
    "ParallelObjective",
    "ParallelSolution",
    "ParallelSearchResult",
    "list_schedule",
    "greedy_assignment",
    "parallel_neighborhood",
    "random_parallel_neighbor",
    "search_parallel",
    "optimize_parallel",
]

# ----------------------------------------------------------------------
# the decision variable
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _Layout:
    """Derived structure of a :class:`ParallelSchedule` (see module doc).

    ``worker_orders[w]`` is worker ``w``'s task sequence; ``boundaries[w]``
    its interior commit positions (1-based, strictly increasing);
    ``deps[w][e]`` the producer epochs epoch ``e`` waits on, sorted; and
    ``epoch_sequence`` a topological order of all epochs (by the global
    position of each epoch's first task — every producer epoch's last
    task precedes every consumer epoch's first task in the global order,
    so this linearises the epoch graph).
    """

    worker_orders: tuple[tuple[Hashable, ...], ...]
    boundaries: tuple[tuple[int, ...], ...]
    deps: tuple[tuple[tuple[tuple[int, int], ...], ...], ...]
    epoch_sequence: tuple[tuple[int, int], ...]


class ParallelSchedule:
    """A p-processor schedule: global topological order + assignment.

    The search's state.  Immutable by convention — moves build new
    instances via :meth:`with_order` / :meth:`with_worker`.
    """

    __slots__ = ("dag", "processors", "order", "assignment", "_layout")

    def __init__(
        self,
        dag: WorkflowDAG,
        processors: int,
        order: Sequence[Hashable],
        assignment: Mapping[Hashable, int],
        *,
        _validate: bool = True,
    ) -> None:
        self.dag = dag
        self.processors = int(processors)
        self.order: tuple[Hashable, ...] = tuple(order)
        self.assignment: dict[Hashable, int] = dict(assignment)
        self._layout: _Layout | None = None
        if _validate:
            self._check()

    def _check(self) -> None:
        if self.processors < 1:
            raise InvalidParameterError(
                f"processors must be >= 1, got {self.processors}"
            )
        if set(self.order) != set(self.dag.graph) or len(self.order) != self.dag.n:
            raise InvalidChainError(
                "order must list every task of the DAG exactly once"
            )
        position = {v: i for i, v in enumerate(self.order)}
        for u, v in self.dag.graph.edges:
            if position[u] >= position[v]:
                raise InvalidChainError(
                    f"order violates precedence: {u!r} must precede {v!r}"
                )
        for v in self.order:
            w = self.assignment.get(v)
            if w is None or not 0 <= int(w) < self.processors:
                raise InvalidParameterError(
                    f"task {v!r} needs a worker in [0, {self.processors}), "
                    f"got {w!r}"
                )

    # -- identity -------------------------------------------------------
    def key(self) -> tuple:
        """Hashable identity: the order plus its per-position workers."""
        return (self.order, tuple(self.assignment[v] for v in self.order))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ParallelSchedule) and self.key() == other.key()

    def __hash__(self) -> int:
        return hash(self.key())

    def __repr__(self) -> str:
        return (
            f"ParallelSchedule({self.dag.name!r}, p={self.processors}, "
            f"order={list(self.order)!r})"
        )

    # -- moves ----------------------------------------------------------
    def with_order(self, order: Sequence[Hashable]) -> "ParallelSchedule":
        """The same assignment under a different (feasible) order."""
        return ParallelSchedule(
            self.dag, self.processors, order, self.assignment, _validate=False
        )

    def with_worker(self, task: Hashable, worker: int) -> "ParallelSchedule":
        """The same order with one task moved to another worker."""
        assignment = dict(self.assignment)
        assignment[task] = int(worker)
        return ParallelSchedule(
            self.dag, self.processors, self.order, assignment, _validate=False
        )

    # -- structure -------------------------------------------------------
    def worker_orders(self) -> tuple[tuple[Hashable, ...], ...]:
        return self.layout().worker_orders

    def layout(self) -> _Layout:
        """Commit boundaries + epoch dependencies (cached)."""
        if self._layout is not None:
            return self._layout
        p = self.processors
        worker_orders: list[list[Hashable]] = [[] for _ in range(p)]
        wpos: dict[Hashable, tuple[int, int]] = {}
        for v in self.order:
            w = self.assignment[v]
            worker_orders[w].append(v)
            wpos[v] = (w, len(worker_orders[w]))  # 1-based local position
        bset: list[set[int]] = [set() for _ in range(p)]
        cross: list[tuple[Hashable, Hashable]] = []
        for u, v in self.dag.graph.edges:
            wu, pu = wpos[u]
            wv, pv = wpos[v]
            if wu == wv:
                continue
            cross.append((u, v))
            if pu < len(worker_orders[wu]):
                bset[wu].add(pu)  # commit after the producer
            if pv > 1:
                bset[wv].add(pv - 1)  # commit before the consumer
        boundaries = tuple(tuple(sorted(s)) for s in bset)
        deps_sets: list[list[set[tuple[int, int]]]] = [
            [set() for _ in range(len(boundaries[w]) + 1)]
            if worker_orders[w]
            else []
            for w in range(p)
        ]
        for u, v in cross:
            wu, pu = wpos[u]
            wv, pv = wpos[v]
            # Producer epoch: the one *ending* at pu (pu is a boundary, or
            # the chain end); consumer epoch: the one *containing* pv
            # (whose first task pv is, by the boundary construction).
            eu = bisect_left(boundaries[wu], pu)
            ev = bisect_left(boundaries[wv], pv)
            deps_sets[wv][ev].add((wu, eu))
        deps = tuple(
            tuple(tuple(sorted(s)) for s in deps_sets[w]) for w in range(p)
        )
        gpos = {v: i for i, v in enumerate(self.order)}
        epochs: list[tuple[int, tuple[int, int]]] = []
        for w in range(p):
            if not worker_orders[w]:
                continue
            bounds = (0,) + boundaries[w]
            for e in range(len(boundaries[w]) + 1):
                first = worker_orders[w][bounds[e]]  # local pos bounds[e]+1
                epochs.append((gpos[first], (w, e)))
        epochs.sort()
        layout = _Layout(
            worker_orders=tuple(tuple(o) for o in worker_orders),
            boundaries=boundaries,
            deps=deps,
            epoch_sequence=tuple(ref for _, ref in epochs),
        )
        self._layout = layout
        return layout


# ----------------------------------------------------------------------
# list-scheduling seeds
# ----------------------------------------------------------------------
def greedy_assignment(
    dag: WorkflowDAG, order: Sequence[Hashable], processors: int
) -> dict[Hashable, int]:
    """Earliest-start worker assignment for a fixed topological order.

    The forward pass of the serial schedule-generation scheme: walk the
    order, start each task at ``max(worker available, predecessors
    finished)`` on the worker minimising that start (ties to the lowest
    index), using error-free durations.
    """
    if processors < 1:
        raise InvalidParameterError(f"processors must be >= 1, got {processors}")
    graph = dag.graph
    finish: dict[Hashable, float] = {}
    avail = [0.0] * processors
    assignment: dict[Hashable, int] = {}
    for v in order:
        est = max((finish[u] for u in graph.predecessors(v)), default=0.0)
        w = min(
            range(processors), key=lambda k: (max(avail[k], est), avail[k], k)
        )
        start = max(avail[w], est)
        finish[v] = start + dag.weight(v)
        avail[w] = finish[v]
        assignment[v] = w
    return assignment


def list_schedule(
    dag: WorkflowDAG, processors: int, strategy: str = "bottom_level"
) -> ParallelSchedule:
    """Priority-rule list schedule on ``processors`` workers.

    ``strategy`` is any single order strategy of
    :data:`~repro.dag.linearize.ORDER_STRATEGIES` — the priority rule
    fixes the global order (``bottom_level`` is the classic HLF /
    critical-path-method rule), and the forward pass of
    :func:`greedy_assignment` maps it onto the workers.
    """
    (order,) = candidate_orders(dag, strategy)
    return ParallelSchedule(
        dag, processors, order, greedy_assignment(dag, order, processors)
    )


def _dedicated_schedule(dag: WorkflowDAG, processors: int) -> ParallelSchedule:
    """One task per worker (requires ``processors >= dag.n``).

    Maximally parallel: every dependency is a cross-worker commit, so the
    error-free makespan is exactly the critical path — the seed of choice
    when communication (checkpointing) is cheap.
    """
    (order,) = candidate_orders(dag, "lexicographic")
    assignment = {v: i for i, v in enumerate(order)}
    return ParallelSchedule(dag, processors, order, assignment)


# ----------------------------------------------------------------------
# the (assignment, order) objective
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ParallelPricing:
    """Full pricing of one state: the per-worker schedules and durations
    behind its surrogate ``value`` (see :class:`ParallelObjective`)."""

    value: float
    worker_schedules: tuple[Schedule | None, ...]
    epoch_durations: tuple[tuple[float, ...], ...]

    @property
    def worker_busy(self) -> tuple[float, ...]:
        """Expected busy (failure-inclusive, wait-free) time per worker."""
        return tuple(float(sum(d)) for d in self.epoch_durations)


class ParallelObjective:
    """Surrogate expected-makespan objective with interval-DP memoization.

    A state is priced in three memoized layers: each worker's
    inter-boundary *interval* is an independent chain-DP solve
    (:meth:`~repro.core.costs.CostProfile.with_boundary_recovery` prices
    intervals opening at a commit boundary), whole workers memoize their
    epoch-duration vectors, and the final fold is a critical-path
    recursion of expected durations over the epoch graph — a Jensen
    lower bound on the true expected makespan (``E[max] >= max of E``),
    exact whenever one worker's chain dominates every replication.
    Counters expose the solve/hit rates for diagnostics and benches.
    """

    def __init__(
        self,
        dag: WorkflowDAG,
        platform: Platform,
        processors: int,
        *,
        algorithm: str = "admv",
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if processors < 1:
            raise InvalidParameterError(
                f"processors must be >= 1, got {processors}"
            )
        self.dag = dag
        self.platform = platform
        self.processors = int(processors)
        self.algorithm = algorithm
        self.heterogeneous = dag.has_heterogeneous_costs()
        self._weight = {v: float(dag.weight(v)) for v in dag.graph}
        self._multiplier = (
            {v: float(dag.cost_multiplier(v)) for v in dag.graph}
            if self.heterogeneous
            else None
        )
        self._intervals: dict[tuple, tuple[float, tuple[int, ...]]] = {}
        self._workers: dict[tuple, tuple[tuple[float, ...], tuple[int, ...]]] = {}
        self._values: dict[tuple, float] = {}
        # Same discipline as ChainObjective: a private live registry
        # whose snapshot ships across n_jobs process shards.
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._c_interval_solves = self.metrics.counter("parallel.interval.solves")
        self._c_interval_hits = self.metrics.counter("parallel.interval.hits")
        self._c_worker_priced = self.metrics.counter("parallel.worker.priced")
        self._c_worker_hits = self.metrics.counter("parallel.worker.hits")
        self._c_state_priced = self.metrics.counter("parallel.state.priced")
        self._c_state_hits = self.metrics.counter("parallel.state.hits")

    # -- interval layer -------------------------------------------------
    def _solve_interval(
        self,
        weights: np.ndarray,
        mults: np.ndarray | None,
        rd0: float,
        rm0: float,
    ) -> tuple[float, tuple[int, ...]]:
        key = (
            weights.tobytes(),
            None if mults is None else mults.tobytes(),
            rd0,
            rm0,
        )
        cached = self._intervals.get(key)
        if cached is not None:
            self._c_interval_hits.inc()
            return cached
        n = int(weights.size)
        costs = (
            CostProfile.uniform(n, self.platform)
            if mults is None
            else CostProfile.scaled(self.platform, mults)
        )
        if rd0 != 0.0 or rm0 != 0.0:
            costs = costs.with_boundary_recovery(rd0, rm0)
        with _span("parallel.price_interval", n=n):
            solution = optimize(
                TaskChain(weights), self.platform, algorithm=self.algorithm,
                costs=costs,
            )
        levels = tuple(int(a) for a in solution.schedule.levels_array())
        if levels[-1] != int(Action.DISK):
            # The chain DP always disk-checkpoints the end; the commit
            # protocol relies on it (the boundary checkpoint *is* the
            # interval's final disk checkpoint).  Enforce, don't assume.
            levels = levels[:-1] + (int(Action.DISK),)
        result = (float(solution.expected_time), levels)
        self._intervals[key] = result
        self._c_interval_solves.inc()
        return result

    # -- worker layer ---------------------------------------------------
    def _price_worker(
        self, nodes: Sequence[Hashable], boundaries: tuple[int, ...]
    ) -> tuple[tuple[float, ...], tuple[int, ...]]:
        weights = np.asarray([self._weight[v] for v in nodes], dtype=np.float64)
        mults = (
            None
            if self._multiplier is None
            else np.asarray(
                [self._multiplier[v] for v in nodes], dtype=np.float64
            )
        )
        key = (
            weights.tobytes(),
            None if mults is None else mults.tobytes(),
            boundaries,
        )
        cached = self._workers.get(key)
        if cached is not None:
            self._c_worker_hits.inc()
            return cached
        durations: list[float] = []
        levels: tuple[int, ...] = ()
        cuts = (0,) + boundaries + (len(nodes),)
        for e in range(len(boundaries) + 1):
            lo, hi = cuts[e], cuts[e + 1]
            if lo == 0:
                rd0 = rm0 = 0.0
            else:
                scale = 1.0 if mults is None else float(mults[lo - 1])
                rd0 = float(self.platform.RD) * scale
                rm0 = float(self.platform.RM) * scale
            value, interval_levels = self._solve_interval(
                weights[lo:hi],
                None if mults is None else mults[lo:hi],
                rd0,
                rm0,
            )
            durations.append(value)
            levels = levels + interval_levels
        result = (tuple(durations), levels)
        self._workers[key] = result
        self._c_worker_priced.inc()
        return result

    # -- state layer ----------------------------------------------------
    def price(self, state: ParallelSchedule) -> ParallelPricing:
        """Schedules, epoch durations and surrogate value of ``state``."""
        layout = state.layout()
        schedules: list[Schedule | None] = []
        durations: list[tuple[float, ...]] = []
        for w in range(state.processors):
            nodes = layout.worker_orders[w]
            if not nodes:
                schedules.append(None)
                durations.append(())
                continue
            epoch_durations, levels = self._price_worker(
                nodes, layout.boundaries[w]
            )
            schedules.append(Schedule(levels))
            durations.append(epoch_durations)
        completion: dict[tuple[int, int], float] = {}
        for w, e in layout.epoch_sequence:
            start = completion[(w, e - 1)] if e > 0 else 0.0
            for dep in layout.deps[w][e]:
                start = max(start, completion[dep])
            completion[(w, e)] = start + durations[w][e]
        value = max(
            completion[(w, len(durations[w]) - 1)]
            for w in range(state.processors)
            if durations[w]
        )
        return ParallelPricing(
            value=value,
            worker_schedules=tuple(schedules),
            epoch_durations=tuple(durations),
        )

    def value(self, state: ParallelSchedule) -> float:
        """Surrogate expected makespan of ``state`` (memoized)."""
        key = state.key()
        cached = self._values.get(key)
        if cached is not None:
            self._c_state_hits.inc()
            return cached
        value = self.price(state).value
        self._values[key] = value
        self._c_state_priced.inc()
        return value

    # -- search space (see repro.dag.localsearch) ---------------------
    def evaluate(self, state: ParallelSchedule) -> tuple[float, None]:
        return self.value(state), None

    def neighbours(
        self, state: ParallelSchedule, rng: np.random.Generator
    ) -> Iterator[ParallelSchedule]:
        cap = max(16, 2 * len(state.order))
        return map(itemgetter(0), parallel_neighborhood(
            state, rng=rng, max_reinsertions=cap, max_reassignments=cap
        ))

    def random_neighbour(
        self, state: ParallelSchedule, rng: np.random.Generator
    ) -> ParallelSchedule | None:
        picked = random_parallel_neighbor(state, rng)
        return None if picked is None else picked[0]

    def worker_factory(self):
        # a subclass may price differently from the stock objective a
        # worker would rebuild, so it keeps every climb in-process
        if type(self) is not ParallelObjective:
            return None
        return partial(
            ParallelObjective, self.dag, self.platform, self.processors,
            algorithm=self.algorithm,
        )


# ----------------------------------------------------------------------
# moves
# ----------------------------------------------------------------------
def parallel_neighborhood(
    state: ParallelSchedule,
    *,
    rng: np.random.Generator | None = None,
    max_reinsertions: int | None = None,
    max_reassignments: int | None = None,
) -> Iterator[tuple[ParallelSchedule, tuple]]:
    """Yield ``(neighbor, move)`` pairs around ``state``.

    Order moves first — every move of :func:`repro.dag.search.
    neighborhood` applied with the assignment carried along — then
    reassignment moves ``("assign", task, worker)`` relocating one task
    to each other worker, optionally subsampled to
    ``max_reassignments`` (``rng`` required, as for order moves).
    """
    for order, move in neighborhood(
        state.dag, list(state.order), rng=rng, max_reinsertions=max_reinsertions
    ):
        yield state.with_order(order), ("order",) + move
    if state.processors == 1:
        return
    moves = [
        (v, w)
        for v in state.order
        for w in range(state.processors)
        if w != state.assignment[v]
    ]
    if max_reassignments is not None and len(moves) > max_reassignments:
        if rng is None:
            raise InvalidParameterError(
                "max_reassignments requires an rng to subsample"
            )
        picked = rng.choice(len(moves), size=max_reassignments, replace=False)
        moves = [moves[int(k)] for k in sorted(picked)]
    for v, w in moves:
        yield state.with_worker(v, w), ("assign", v, w)


def random_parallel_neighbor(
    state: ParallelSchedule,
    rng: np.random.Generator,
    *,
    p_reassign: float = 0.5,
) -> tuple[ParallelSchedule, tuple] | None:
    """One uniformly-drawn feasible move (``None`` iff the state is rigid)."""
    if state.processors > 1 and rng.random() < p_reassign:
        v = state.order[int(rng.integers(len(state.order)))]
        choices = [w for w in range(state.processors) if w != state.assignment[v]]
        w = int(choices[int(rng.integers(len(choices)))])
        return state.with_worker(v, w), ("assign", v, w)
    picked = random_neighbor(state.dag, list(state.order), rng)
    if picked is None:
        if state.processors == 1:
            return None
        v = state.order[int(rng.integers(len(state.order)))]
        choices = [w for w in range(state.processors) if w != state.assignment[v]]
        w = int(choices[int(rng.integers(len(choices)))])
        return state.with_worker(v, w), ("assign", v, w)
    order, move = picked
    return state.with_order(order), ("order",) + move


# ----------------------------------------------------------------------
# results
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ParallelSolution:
    """The winning p-processor schedule with its per-worker placements.

    ``expected_time`` is the *surrogate* analytic value — per-worker
    expected busy durations folded by a critical-path recursion over the
    epoch graph; a lower bound on the true expected makespan (exact at
    ``processors=1``), which :func:`~repro.simulation.parallel.
    simulate_parallel` on :meth:`plan` estimates to any precision.
    """

    dag: WorkflowDAG
    platform: Platform
    processors: int
    algorithm: str
    order: tuple[Hashable, ...]
    assignment: dict[Hashable, int]
    worker_orders: tuple[tuple[Hashable, ...], ...]
    worker_schedules: tuple[Schedule | None, ...]
    epoch_durations: tuple[tuple[float, ...], ...]
    expected_time: float
    diagnostics: dict = field(default_factory=dict)

    @property
    def worker_busy(self) -> tuple[float, ...]:
        """Expected busy (failure-inclusive, wait-free) time per worker."""
        return tuple(float(sum(d)) for d in self.epoch_durations)

    def state(self) -> ParallelSchedule:
        """The (order, assignment) pair as a search state."""
        return ParallelSchedule(
            self.dag, self.processors, self.order, self.assignment
        )

    def plan(self) -> ParallelPlan:
        """The executable :class:`~repro.simulation.parallel.ParallelPlan`."""
        layout = self.state().layout()
        workers: list[WorkerPlan | None] = []
        for w in range(self.processors):
            nodes = layout.worker_orders[w]
            if not nodes:
                workers.append(None)
                continue
            weights = [float(self.dag.weight(v)) for v in nodes]
            costs = None
            if self.dag.has_heterogeneous_costs():
                costs = CostProfile.scaled(
                    self.platform,
                    [float(self.dag.cost_multiplier(v)) for v in nodes],
                )
            workers.append(
                WorkerPlan(
                    chain=TaskChain(weights, name=f"{self.dag.name}-w{w}"),
                    schedule=self.worker_schedules[w],
                    boundaries=layout.boundaries[w],
                    costs=costs,
                )
            )
        return ParallelPlan(workers=tuple(workers), deps=layout.deps)

    def describe(self) -> str:
        """Multi-line human-readable summary."""
        busy = self.worker_busy
        lines = [
            f"parallel schedule of {self.dag.name!r} on "
            f"{self.processors} worker(s): surrogate E[T] = "
            f"{self.expected_time:.2f}s",
        ]
        for w in range(self.processors):
            nodes = self.worker_orders[w]
            if not nodes:
                lines.append(f"  w{w}: idle")
                continue
            lines.append(
                f"  w{w}: {len(nodes)} task(s), "
                f"{len(self.epoch_durations[w])} epoch(s), "
                f"busy {busy[w]:.2f}s"
            )
        return "\n".join(lines)


@dataclass(frozen=True)
class ParallelSearchResult:
    """Outcome of :func:`search_parallel` with its work accounting."""

    solution: ParallelSolution
    method: str
    seed: int
    algorithm: str
    processors: int
    starts: int  #: list-schedule + random starting states explored
    rounds: int  #: accepted moves over every climb and walk
    states_priced: int  #: distinct (assignment, order) states priced
    state_cache_hits: int
    interval_solves: int  #: chain-DP interval solves
    interval_cache_hits: int
    start_values: dict[str, float] = field(default_factory=dict)
    n_jobs: int | None = None  #: worker processes the start climbs used
    #: Full merged metric snapshot (in-process objective + worker shards);
    #: the int fields above are views into its counters.
    metrics: MetricsSnapshot | None = None

    @property
    def expected_time(self) -> float:
        return self.solution.expected_time

    def summary(self) -> str:
        return "\n".join(
            [
                f"parallel search ({self.method}, seed {self.seed}, "
                f"p={self.processors}) over {self.starts} starts: "
                f"E[T] >= {self.expected_time:.2f}s (surrogate)",
                f"  states priced: {self.states_priced} "
                f"({self.interval_solves} interval DP solves, "
                f"{self.interval_cache_hits} interval cache hits, "
                f"{self.state_cache_hits} state cache hits)",
            ]
        )


# ----------------------------------------------------------------------
# the top-level drivers
# ----------------------------------------------------------------------
def _start_states(
    dag: WorkflowDAG,
    processors: int,
    restarts: int,
    rng: np.random.Generator,
) -> list[tuple[str, ParallelSchedule]]:
    starts: list[tuple[str, ParallelSchedule]] = []
    seen: set[tuple] = set()

    def push(label: str, state: ParallelSchedule) -> None:
        key = state.key()
        if key not in seen:
            seen.add(key)
            starts.append((label, state))

    for k, order in enumerate(candidate_orders(dag, "auto")):
        state = ParallelSchedule(
            dag,
            processors,
            order,
            greedy_assignment(dag, order, processors),
            _validate=False,
        )
        push(f"heuristic-{k}", state)
    if processors >= dag.n:
        push("dedicated", _dedicated_schedule(dag, processors))
    for r in range(max(0, restarts)):
        order = random_order(dag, rng)
        state = ParallelSchedule(
            dag,
            processors,
            order,
            greedy_assignment(dag, order, processors),
            _validate=False,
        )
        push(f"random-{r}", state)
    return starts


def search_parallel(
    dag: WorkflowDAG,
    platform: Platform,
    processors: int,
    *,
    algorithm: str = "admv",
    method: str = "hill_climb",
    seed: int = 0,
    restarts: int = 2,
    iterations: int = 300,
    max_rounds: int = 60,
    objective: ParallelObjective | None = None,
    n_jobs: int | None = None,
) -> ParallelSearchResult:
    """Best (assignment, order) pair found by metaheuristic search.

    The p-processor generalisation of :func:`repro.dag.search.
    search_order`: starts are priority-rule list schedules (every
    heuristic order of :func:`~repro.dag.linearize.candidate_orders`
    through the greedy forward pass, plus a one-task-per-worker seed
    when ``processors >= n`` and ``restarts`` random orders), each
    climbed under :class:`ParallelObjective` with (assignment, order)
    moves.  ``method`` follows the chain search (``"hill_climb"``,
    ``"anneal"``, ``"hybrid"``).

    Seeding discipline matches PR-5's: every random choice descends from
    ``seed`` through spawned ``SeedSequence`` children, one per start, so
    the result is invariant in ``n_jobs`` (which only shards the start
    climbs across processes; workers use private objective memos, so
    only the *accounting* differs).
    """
    check_request(method, objective, dag, platform)
    if objective is None:
        objective = ParallelObjective(
            dag, platform, processors, algorithm=algorithm
        )
    elif objective.processors != processors:
        raise InvalidParameterError(
            "the supplied objective prices a different processor count"
        )

    ss_starts, ss_climbs, ss_anneal = np.random.SeedSequence(seed).spawn(3)
    starts = _start_states(
        dag, processors, restarts, np.random.default_rng(ss_starts)
    )
    objective.metrics.counter("search.restarts").inc(max(0, restarts))
    outcome = _search(
        objective,
        starts,
        method=method,
        climb_seed=ss_climbs,
        anneal_seed=ss_anneal,
        iterations=iterations,
        max_rounds=max_rounds,
        n_jobs=n_jobs,
    )
    best_state = outcome.state
    pricing = objective.price(best_state)
    # shipped after the final pricing so its (cache-hit) accounting is
    # included
    merged = outcome.ship_metrics(objective)
    layout = best_state.layout()
    solution = ParallelSolution(
        dag=dag,
        platform=platform,
        processors=processors,
        algorithm=objective.algorithm,
        order=best_state.order,
        assignment=dict(best_state.assignment),
        worker_orders=layout.worker_orders,
        worker_schedules=pricing.worker_schedules,
        epoch_durations=pricing.epoch_durations,
        expected_time=pricing.value,
        diagnostics=dict(
            search_method=method,
            search_seed=seed,
            search_starts=len(starts),
            search_n_jobs=n_jobs,
        ),
    )
    return ParallelSearchResult(
        solution=solution,
        method=method,
        seed=seed,
        algorithm=objective.algorithm,
        processors=processors,
        starts=len(starts),
        rounds=outcome.rounds,
        states_priced=merged.counter("parallel.state.priced"),
        state_cache_hits=merged.counter("parallel.state.hits"),
        interval_solves=merged.counter("parallel.interval.solves"),
        interval_cache_hits=merged.counter("parallel.interval.hits"),
        start_values=outcome.start_values,
        n_jobs=n_jobs,
        metrics=merged,
    )


def optimize_parallel(
    dag: WorkflowDAG,
    platform: Platform,
    processors: int,
    *,
    algorithm: str = "admv",
    seed: int = 0,
    search_options: dict | None = None,
) -> ParallelSolution:
    """Best p-processor (assignment, order, checkpoint) schedule found.

    Thin wrapper over :func:`search_parallel` returning its
    :class:`ParallelSolution`; ``search_options`` are passed through
    (``method``, ``restarts``, ``iterations``, ``n_jobs``, …).
    """
    return search_parallel(
        dag,
        platform,
        processors,
        algorithm=algorithm,
        seed=seed,
        **(search_options or {}),
    ).solution
