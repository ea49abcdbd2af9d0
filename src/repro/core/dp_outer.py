"""Disk and memory recurrences shared by ``ADMV*`` and ``ADMV``.

Both two-level programs nest the same outer recurrences around a
per-interval verification row::

    E_disk(d2)    = min_{d1 < d2}        E_disk(d1) + E_mem(d1, d2) + C_D
    E_mem(d1, m2) = min_{d1 <= m1 < m2}  E_mem(d1, m1) + E_verif(d1, m1, m2) + C_M

and differ only in how the row ``E_verif(d1, m1, .)`` is computed
(guaranteed verifications only, or with partial ones).  That row depends
on ``d1`` only through the scalar ``K1 = R_D(d1) + E_mem(d1, m1)``, so
:func:`memory_pass` runs ``m1`` ascending and hands the row builder every
``d1 <= m1`` at once: before step ``m1`` each ``E_mem(d1, m1)`` with
``d1 < m1`` is known, and one masked argmin computes them all.

Every candidate is built with the same floating-point operations, in the
same order, as the one-pair-at-a-time loop nest, and ties break on the
first index as :func:`numpy.argmin` does there, so the results are
bitwise identical to it (the loop versions live in the test suite as
oracles).
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from contextlib import AbstractContextManager, contextmanager, nullcontext

import numpy as np

from ..exceptions import SolverError
from ..obs import MetricsRegistry
from ..obs import span as _span
from .factors import PairFactors
from .schedule import Action

__all__ = ["memory_pass", "disk_pass", "walk_intervals", "phase"]

#: ``rows(m1, K1) -> (E_verif, argmin)``, both shaped ``(K1.size, n+1-m1)``:
#: row ``d1`` holds ``E_verif(d1, m1, v2)`` and its optimal previous
#: verification for ``v2 = m1 .. n``.
RowBuilder = Callable[[int, np.ndarray], tuple[np.ndarray, np.ndarray]]


def memory_pass(
    F: PairFactors, rows: RowBuilder
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``E_mem`` and the argmin tables of the memory and verification levels.

    Returns ``(Emem, arg_mem, arg_verif)`` where ``Emem[d1, m2]``,
    ``arg_mem[d1, m2]`` (optimal previous memory checkpoint) and
    ``arg_verif[d1, m1, v2]`` (optimal previous verification) are
    ``-1``/``inf`` outside ``d1 <= m1 <= v2``.
    """
    n = F.n
    CM, RD = F.costs.CM, F.costs.RD
    Emem = np.full((n + 1, n + 1), np.inf)
    arg_mem = np.full((n + 1, n + 1), -1, dtype=np.int32)
    ev = np.full((n + 1, n + 1, n + 1), np.inf)  # ev[d1, m1, v2]
    arg_verif = np.full((n + 1, n + 1, n + 1), -1, dtype=np.int32)
    d1s = np.arange(n + 1)
    Emem[d1s, d1s] = 0.0

    for m1 in range(n + 1):
        if m1 > 0:
            # Row d1 is infeasible (inf) left of d1.  The loop's argmin runs
            # on the slice [d1, m1), so an all-inf row resolves to d1: clamp.
            cand = Emem[:m1, :m1] + ev[:m1, :m1, m1] + CM[m1]
            k = np.maximum(cand.argmin(axis=1), d1s[:m1])
            Emem[:m1, m1] = cand[d1s[:m1], k]
            arg_mem[:m1, m1] = k
        row, arg = rows(m1, RD[: m1 + 1] + Emem[: m1 + 1, m1])
        ev[: m1 + 1, m1, m1:] = row
        arg_verif[: m1 + 1, m1, m1:] = arg
    return Emem, arg_mem, arg_verif


def disk_pass(Emem: np.ndarray, CD: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(E_disk, arg_disk)``; the optimum of the whole chain is ``E_disk[n]``."""
    n = Emem.shape[0] - 1
    Edisk = np.full(n + 1, np.inf)
    arg_disk = np.full(n + 1, -1, dtype=np.int32)
    Edisk[0] = 0.0
    for d2 in range(1, n + 1):
        cand = Edisk[:d2] + Emem[:d2, d2] + CD[d2]
        k = int(np.argmin(cand))
        Edisk[d2] = float(cand[k])
        arg_disk[d2] = k
    return Edisk, arg_disk


def walk_intervals(
    levels: np.ndarray,
    arg_disk: np.ndarray,
    arg_mem: np.ndarray,
    arg_verif: np.ndarray,
) -> Iterator[tuple[int, int, int, int]]:
    """Backtrack the argmin tables, marking disk, memory and verification
    levels, and yield every ``(d1, m1, v1, v2)`` guaranteed-verification
    interval on the optimal path (right to left)."""
    d2 = levels.size
    while d2 > 0:
        d1 = int(arg_disk[d2])
        if d1 < 0 or d1 >= d2:
            raise SolverError(f"inconsistent disk backtrack at d2={d2}: {d1}")
        levels[d2 - 1] = int(Action.DISK)
        m2 = d2
        while m2 > d1:
            m1 = int(arg_mem[d1, m2])
            if m1 < 0 or m1 >= m2:
                raise SolverError(
                    f"inconsistent memory backtrack at (d1={d1}, m2={m2})"
                )
            if m2 != d2:
                levels[m2 - 1] = max(levels[m2 - 1], int(Action.MEMORY))
            v2 = m2
            while v2 > m1:
                v1 = int(arg_verif[d1, m1, v2])
                if v1 < 0 or v1 >= v2:
                    raise SolverError(
                        f"inconsistent verification backtrack at "
                        f"(d1={d1}, m1={m1}, v2={v2})"
                    )
                if v2 != m2:
                    levels[v2 - 1] = max(levels[v2 - 1], int(Action.VERIFY))
                yield d1, m1, v1, v2
                v2 = v1
            m2 = m1
        d2 = d1


@contextmanager
def _timed(reg: MetricsRegistry, name: str) -> Iterator[None]:
    with _span(f"dp.{name}"), reg.timer(f"dp.{name}").time():
        yield


_NO_PHASE = nullcontext()


def phase(reg: MetricsRegistry, name: str) -> AbstractContextManager[None]:
    """Span and timer ``dp.<name>`` around one phase of a solve
    (``factors``, ``forward``, ``backtrack``); a shared no-op when
    collection is off."""
    if not reg.enabled:
        return _NO_PHASE
    return _timed(reg, name)
