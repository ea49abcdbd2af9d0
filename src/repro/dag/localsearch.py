"""One local-search kernel for every order search of :mod:`repro.dag`.

The chain search (:func:`repro.dag.search.search_order`), the join search
(APDCM'15 forever-vulnerable model) and the p-worker search
(:func:`repro.dag.parallel.search_parallel`) differ only in their state
and how it is priced.  This module owns the algorithm they share: hill
climbing, the Metropolis walk, the ``hybrid`` of the two, multi-start,
elite recombination, ``n_jobs`` sharding and the shipping of metric and
event shards from worker processes.

The space contract
------------------
A *space* is the objective itself — a representation-agnostic pricer in
the MoRoTA split (the state is plain data, the space prices it).  It
provides:

* ``evaluate(state) -> (value, ref)`` — the exact value and an opaque
  reference the kernel hands back (a chain :class:`~repro.core.result.
  Solution`; ``None`` where the value is all there is);
* ``neighbours(state, rng)`` — the climb's (possibly subsampled)
  neighbourhood;
* ``random_neighbour(state, rng)`` — one random move, ``None`` iff the
  state is rigid;
* ``worker_factory()`` — a picklable zero-argument factory of a fresh
  equivalent space for pool workers, or ``None`` to keep every walk
  in-process (a subclass with its own pricing stays authoritative);
* ``metrics`` — the :class:`~repro.obs.MetricsRegistry` the kernel
  counts moves on.

Optionally, ``bound(state, ref)`` — a cheap upper bound on
``evaluate(state)`` re-pricing the reference — and ``crossover(a, b,
rng)``.  The kernel branches on one observation only: whether the space
has a ``bound``.  With one, a climb round screens the whole
neighbourhood by bound, exact-confirms candidates in bound order, takes
the first genuine improvement and *polishes* (exact-evaluates the most
promising neighbours anyway) when no bound promises progress, because
a bound can hide an improvement that only shows once the neighbour is
re-optimized; the walk screens its moves by bound and pays the exact
price only for accepted states.  Without one, a round is a running-best
steepest scan over exact values.  (The running best is kept in scan
order on purpose: sorting first and taking the head differs on
near-ties inside :data:`RELATIVE_TOLERANCE`.)

Optionally too, ``screen_neighbours(state) -> (approx_values,
materialise)`` — the values of the whole ``neighbours`` sequence, in its
order, each within :data:`SCREEN_MARGIN` (relative) of ``evaluate``,
and ``materialise(k)`` building the ``k``-th neighbour.  A steepest
round then replays its running-best scan over the approximate values
and exact-evaluates only the neighbours that could still beat the
current *exact* best; the rest cannot improve on it, so the round
returns the same state and value bits as the exact scan, at a fraction
of the exact evaluations.  (The join objective implements it; the
``proposed`` count is the full neighbourhood either way.)

Multi-start, crossover, parallelism
-----------------------------------
:func:`search` walks from every start the caller supplies (heuristic
orders, list schedules, random restarts); each start draws its moves
from an independently spawned child seed, so the result is reproducible
for a fixed ``(seed, n_jobs)`` — in fact invariant in ``n_jobs``, which
only shards the start walks across worker processes.  Workers price with
private memos and ship their metric and event snapshots home, so only
the *accounting* differs.  Elite survivors can then be recombined with
the space's ``crossover`` (for orders a precedence-preserving one-point
OX: a prefix of one parent completed in the other parent's relative
order is always a valid linear extension) and the children are walked
too.  ``hybrid`` finishes with one Metropolis walk from the winner.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Any, NamedTuple

import numpy as np

from ..exceptions import InvalidParameterError
from ..obs import MetricsSnapshot, get_logger
from ..obs import events as _ambient_events
from ..obs import metrics as _ambient_metrics
from ..obs import span as _span

__all__ = [
    "RELATIVE_TOLERANCE",
    "SCREEN_MARGIN",
    "SEARCH_METHODS",
    "Outcome",
    "Walk",
    "anneal",
    "check_request",
    "climb",
    "improves",
    "search",
]

#: Relative improvement below which two values are considered equivalent
#: (guards against accepting float noise as progress).
RELATIVE_TOLERANCE = 1e-12

#: Relative error a space's ``screen_neighbours`` values may carry
#: against its exact ``evaluate``.  Far above what a vectorised
#: transcendental's last-ulp differences and a few roundings add up to,
#: far below any improvement worth a move.
SCREEN_MARGIN = 1e-9

SEARCH_METHODS = ("hill_climb", "anneal", "hybrid")

logger = get_logger(__name__)


def improves(candidate: float, incumbent: float) -> bool:
    return candidate < incumbent * (1.0 - RELATIVE_TOLERANCE)


def check_request(method: str, space: Any = None, dag: Any = None,
                  platform: Any = None) -> None:
    """Reject an unknown ``method``, or a supplied ``space`` that prices
    another problem than ``(dag, platform)``."""
    if method not in SEARCH_METHODS:
        raise InvalidParameterError(
            f"unknown search method {method!r}; expected one of {SEARCH_METHODS}"
        )
    if space is not None and (space.dag is not dag or space.platform != platform):
        raise InvalidParameterError(
            "the supplied objective prices a different dag or platform"
        )


class Walk(NamedTuple):
    """Where one climb or walk ended: its best state, value and reference,
    and its accepted moves."""

    state: Any
    value: float
    ref: Any
    rounds: int


def _screened_round(space, state, value, ref, rng, polish_budget):
    scored = sorted(
        ((space.bound(cand, ref), cand) for cand in space.neighbours(state, rng)),
        key=lambda pair: pair[0],
    )
    for b, cand in scored:
        if not improves(b, value):
            break
        cand_value, cand_ref = space.evaluate(cand)
        if improves(cand_value, value):
            return len(scored), (cand, cand_value, cand_ref)
    budget = len(scored) if polish_budget is None else polish_budget
    for _, cand in scored[:budget]:
        cand_value, cand_ref = space.evaluate(cand)
        if improves(cand_value, value):
            return len(scored), (cand, cand_value, cand_ref)
    return len(scored), None


def _screen_cutoff(value: float) -> float:
    """Approximate values at or above this cannot be an improvement on
    ``value`` (see :data:`SCREEN_MARGIN`)."""
    return value * (1.0 - RELATIVE_TOLERANCE) * (1.0 + SCREEN_MARGIN)


def _steepest_round(space, state, value, ref, rng, polish_budget):
    screen = getattr(space, "screen_neighbours", None)
    if screen is not None:
        approx, materialise = screen(state)
        best, cutoff = None, _screen_cutoff(value)
        # the cutoff only falls as the running best improves, so the
        # first pass's survivors are a superset of what the scan needs
        survivors = np.flatnonzero(approx < cutoff)
        for k, guess in zip(survivors.tolist(), approx[survivors].tolist()):
            if not guess < cutoff:
                continue
            cand = materialise(k)
            cand_value, cand_ref = space.evaluate(cand)
            if improves(cand_value, value):
                best, value = (cand, cand_value, cand_ref), cand_value
                cutoff = _screen_cutoff(value)
        return len(approx), best
    proposed, best = 0, None
    for cand in space.neighbours(state, rng):
        proposed += 1
        cand_value, cand_ref = space.evaluate(cand)
        if improves(cand_value, value):
            best, value = (cand, cand_value, cand_ref), cand_value
    return proposed, best


def climb(space, state, rng: np.random.Generator, *, max_rounds: int = 200,
          polish_budget: int | None = None) -> Walk:
    """Descend from ``state`` until no evaluated neighbour improves.

    ``rounds`` counts accepted moves.  ``polish_budget`` caps the
    exact evaluations of a polishing round (``None`` = every neighbour;
    only bounded spaces polish).
    """
    value, ref = space.evaluate(state)
    bound = getattr(space, "bound", None)
    step_round = _steepest_round if bound is None else _screened_round
    c_proposed = space.metrics.counter("search.moves.proposed")
    c_accepted = space.metrics.counter("search.moves.accepted")
    bus = _ambient_events()
    rounds = 0
    for _ in range(max_rounds):
        proposed, step = step_round(space, state, value, ref, rng, polish_budget)
        c_proposed.inc(proposed)
        if step is None:
            break
        state, value, ref = step
        c_accepted.inc()
        rounds += 1
        if bus.enabled:
            bus.emit("search.round", round=rounds, value=value, proposed=proposed)
    return Walk(state, value, ref, rounds)


def anneal(space, state, rng: np.random.Generator, *, iterations: int = 400,
           cooling: float = 0.99) -> Walk:
    """Metropolis walk from ``state``; returns the best state visited.

    The initial temperature is 2% of the start value — enough to hop
    over small barriers without random-walking — and cools geometrically.
    A bounded space screens each move by its bound and exact-evaluates
    only accepted states.  ``rounds`` counts accepted moves.
    """
    value, ref = space.evaluate(state)
    best = Walk(state, value, ref, 0)
    bound = getattr(space, "bound", None)
    temperature = 0.02 * value
    c_proposed = space.metrics.counter("search.moves.proposed")
    c_accepted = space.metrics.counter("search.moves.accepted")
    bus = _ambient_events()
    accepted = 0
    for it in range(iterations):
        cand = space.random_neighbour(state, rng)
        if cand is None:  # rigid state: nothing to explore
            break
        c_proposed.inc()
        trial = space.evaluate(cand) if bound is None else (bound(cand, ref), None)
        delta = trial[0] - value
        if delta <= 0.0 or rng.random() < math.exp(
            -delta / max(temperature, 1e-300)
        ):
            state = cand
            value, ref = trial if bound is None else space.evaluate(cand)
            accepted += 1
            c_accepted.inc()
            if improves(value, best.value):
                best = Walk(state, value, ref, 0)
                if bus.enabled:
                    bus.emit(
                        "search.best", iteration=it, value=value,
                        accepted=accepted,
                    )
        temperature *= cooling
    return best._replace(rounds=accepted)


def _walk(space, method: str, state, rng, *, iterations: int, max_rounds: int,
          polish_budget: int | None) -> Walk:
    """One start's walk: annealing for ``anneal``, a climb otherwise."""
    if method == "anneal":
        return anneal(space, state, rng, iterations=iterations)
    return climb(
        space, state, rng, max_rounds=max_rounds, polish_budget=polish_budget
    )


def _walk_worker(payload: tuple):
    """Process-pool entry point: one start walked in a fresh space.

    Module-level so it pickles.  The walk's counters live on the fresh
    space's own registry; the ambient scope only carries the event bus
    home.
    """
    factory, method, state, seed, options = payload
    from ..obs import NULL_REGISTRY, EventBus, instrument

    space = factory()
    bus = EventBus()
    with instrument(NULL_REGISTRY, events=bus):
        walk = _walk(space, method, state, np.random.default_rng(seed), **options)
    return walk, space.metrics.snapshot(), bus.snapshot()


@dataclass
class Outcome:
    """What :func:`search` found, with its work accounting."""

    state: Any
    value: float
    ref: Any
    rounds: int  #: accepted moves over every walk
    start_values: dict[str, float]
    recombined: int = 0  #: crossover children walked
    shards: list[MetricsSnapshot] = field(default_factory=list)

    def ship_metrics(self, space) -> MetricsSnapshot:
        """Fold the space's registry with the worker shards and merge the
        total into the ambient registry.  Call once, after any final
        pricing the result should account for."""
        merged = MetricsSnapshot.merge_all([space.metrics.snapshot(), *self.shards])
        _ambient_metrics().merge_snapshot(merged)
        return merged


def search(
    space,
    starts: Sequence[tuple[str, Any]],
    *,
    method: str,
    climb_seed: np.random.SeedSequence,
    anneal_seed: np.random.SeedSequence,
    recombine_seed: np.random.SeedSequence | None = None,
    recombine: int = 0,
    iterations: int,
    max_rounds: int,
    polish_budget: int | None = None,
    n_jobs: int | None = None,
) -> Outcome:
    """Walk every labelled start, recombine elites, optionally anneal.

    ``climb_seed`` spawns one child per start; ``recombine_seed`` feeds
    ``recombine`` crossover children (the space needs a ``crossover``)
    and ``anneal_seed`` the ``hybrid`` finish.  ``n_jobs > 1`` shards
    the start walks over a process pool when the space has a
    ``worker_factory``.
    """
    options = dict(
        iterations=iterations, max_rounds=max_rounds, polish_budget=polish_budget
    )
    seeds = climb_seed.spawn(len(starts))
    space.metrics.counter("search.starts").inc(len(starts))
    bus = _ambient_events()
    walks: list[Walk] = []
    shards: list[MetricsSnapshot] = []
    factory = (
        space.worker_factory()
        if n_jobs is not None and n_jobs > 1 and len(starts) > 1
        else None
    )
    if factory is not None:
        from concurrent.futures import ProcessPoolExecutor

        payloads = [
            (factory, method, state, seed, options)
            for (_, state), seed in zip(starts, seeds)
        ]
        workers = min(n_jobs, len(starts))
        with _span("search.pool", n_jobs=workers, starts=len(starts)), \
                ProcessPoolExecutor(max_workers=workers) as pool:
            for walk, shard, event_shard in pool.map(_walk_worker, payloads):
                walks.append(walk)
                shards.append(shard)
                bus.replay(event_shard)
    else:
        for (label, state), seed in zip(starts, seeds):
            with _span("search.start", label=label) as sp:
                walk = _walk(
                    space, method, state, np.random.default_rng(seed), **options
                )
                sp.set(rounds=walk.rounds, value=walk.value)
            walks.append(walk)

    best: Walk | None = None
    start_values: dict[str, float] = {}
    rounds = recombined = 0

    def record(label: str, walk: Walk) -> None:
        nonlocal best, rounds
        start_values[label] = walk.value
        rounds += walk.rounds
        if best is None or improves(walk.value, best.value):
            best = walk

    for (label, _), walk in zip(starts, walks):
        if bus.enabled:
            bus.emit(
                "search.climb", label=label, value=walk.value, rounds=walk.rounds
            )
        record(label, walk)
    assert best is not None

    if recombine > 0:
        elites: list[Any] = []
        for walk in sorted(walks, key=lambda w: w.value):
            if walk.state not in elites:
                elites.append(walk.state)
            if len(elites) >= 4:
                break
        if len(elites) >= 2:
            assert recombine_seed is not None
            seeds = recombine_seed.spawn(recombine + 1)
            select_rng = np.random.default_rng(seeds[0])
            for c in range(recombine):
                a, b = select_rng.choice(len(elites), size=2, replace=False)
                child = space.crossover(
                    elites[int(a)], elites[int(b)], select_rng
                )
                with _span("search.crossover", child=c) as sp:
                    walk = _walk(
                        space, method, child, np.random.default_rng(seeds[c + 1]),
                        **options,
                    )
                    sp.set(value=walk.value)
                record(f"crossover-{c}", walk)
                recombined += 1

    if method == "hybrid":
        with _span("search.anneal") as sp:
            walk = anneal(
                space, best.state, np.random.default_rng(anneal_seed),
                iterations=iterations,
            )
            sp.set(value=walk.value)
        record("anneal", walk)
    logger.debug(
        "search done: space=%s method=%s starts=%d value=%.6g rounds=%d",
        type(space).__name__, method, len(starts), best.value, rounds,
    )
    return Outcome(
        best.state, best.value, best.ref, rounds, start_values, recombined, shards
    )
