"""Loop implementations of the ADV*, ADMV* and ADMV dynamic programs.

Production (:mod:`repro.core.dp_single`, :mod:`repro.core.dp_two_level`,
:mod:`repro.core.dp_partial`) runs batched forward passes, with every
``d1`` of a step in one array.  The functions below are the
straightforward loop nests those passes replaced, one ``d1`` (or one
``(d1, m1)`` pair) at a time.  They are kept as
bitwise oracles: the batched code performs the same floating-point
operations in the same order, so the oracle tests compare results with
``==``, not a tolerance.

Not a test module (no ``test_`` prefix); imported by the oracle tests.
"""

from __future__ import annotations

import numpy as np

from repro.chains import TaskChain
from repro.core.costs import CostProfile
from repro.core.factors import PairFactors
from repro.core.result import Solution
from repro.core.schedule import Action, Schedule
from repro.exceptions import SolverError
from repro.platforms import Platform

__all__ = [
    "loop_verif_table",
    "loop_optimize_single_level",
    "scan_interval",
    "loop_forward_partial",
    "loop_optimize_partial",
    "verif_row",
    "loop_forward_two_level",
    "loop_optimize_two_level",
]


# ----------------------------------------------------------------------
# ADV* (disk checkpoints and guaranteed verifications)
# ----------------------------------------------------------------------
def loop_verif_table(F: PairFactors) -> tuple[np.ndarray, np.ndarray]:
    """``(Everif1, arg_verif)`` of ``ADV*``, one disk position at a time."""
    n = F.n
    everif1 = np.full((n + 1, n + 1), np.inf)
    arg_verif = np.full((n + 1, n + 1), -1, dtype=np.int32)
    for d1 in range(n + 1):
        K1 = F.rd_eff(d1)  # E_mem(d1, d1) = 0
        rm = F.rm_eff(d1)
        row = everif1[d1]
        row[d1] = 0.0
        for v2 in range(d1 + 1, n + 1):
            lo = d1
            cand = (
                row[lo:v2]
                + F.base_g[lo:v2, v2]
                + F.cK1[lo:v2, v2] * K1
                + F.etm1[lo:v2, v2] * row[lo:v2]
                + F.esm1[lo:v2, v2] * rm
            )
            k = int(np.argmin(cand))
            row[v2] = float(cand[k])
            arg_verif[d1, v2] = lo + k
    return everif1, arg_verif


def loop_optimize_single_level(
    chain: TaskChain,
    platform: Platform,
    *,
    costs: CostProfile | None = None,
) -> Solution:
    """``ADV*`` with one verification row per disk position ``d1``."""
    n = chain.n
    F = PairFactors(chain, platform, costs)
    CM, CD = F.costs.CM, F.costs.CD
    everif1, arg_verif = loop_verif_table(F)

    Edisk = np.full(n + 1, np.inf)
    arg_disk = np.full(n + 1, -1, dtype=np.int32)
    Edisk[0] = 0.0
    for d2 in range(1, n + 1):
        cand = Edisk[:d2] + everif1[:d2, d2] + CM[d2] + CD[d2]
        k = int(np.argmin(cand))
        Edisk[d2] = float(cand[k])
        arg_disk[d2] = k

    levels = np.zeros(n, dtype=np.int8)
    d2 = n
    while d2 > 0:
        d1 = int(arg_disk[d2])
        levels[d2 - 1] = int(Action.DISK)
        v2 = d2
        while v2 > d1:
            v1 = int(arg_verif[d1, v2])
            if v1 < 0 or v1 >= v2:
                raise SolverError(f"inconsistent backtrack at (d1={d1}, v2={v2})")
            if v2 != d2:
                levels[v2 - 1] = max(levels[v2 - 1], int(Action.VERIFY))
            v2 = v1
        d2 = d1
    return Solution(
        algorithm="adv_star",
        chain=chain,
        platform=platform,
        expected_time=float(Edisk[n]),
        schedule=Schedule(levels),
        diagnostics={"Edisk": Edisk, "Everif1": everif1},
    )


# ----------------------------------------------------------------------
# ADMV (partial verifications)
# ----------------------------------------------------------------------
def scan_interval(
    F: PairFactors,
    m1: int,
    K1: float,
    rm: float,
    *,
    want_chains: bool = False,
    paper_faithful: bool = False,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Run the partial-verification scan for one ``(d1, m1)`` pair.

    ``K1 = R_D(d1) + E_mem(d1, m1)`` and ``rm = R_M(m1)``.  Returns
    ``everif_row[v2] = E_verif(d1, m1, v2)``, ``arg_v1[v2]`` (the optimal
    previous guaranteed verification) and, with ``want_chains``, the
    ``next_p[p1, v2]`` successor table of the partial chains.
    """
    n = F.n
    platform = F.platform
    Vp_at, Vg_at = F.costs.Vp, F.costs.Vg
    g = platform.g
    rm_mix = (1.0 - g) * rm  # (1-g) R_M term of E⁻ / E_right

    everif_row = np.full(n + 1, np.inf)
    arg_v1 = np.full(n + 1, -1, dtype=np.int32)
    everif_row[m1] = 0.0
    next_p = (
        np.full((n + 1, n + 1), -1, dtype=np.int32) if want_chains else None
    )

    # Per-v2 scratch buffers (re-filled each iteration).
    ehat = np.empty(n + 1)
    eright = np.empty(n + 1)

    for v2 in range(m1 + 1, n + 1):
        # Right-to-left scan over p1; candidates p2 in (p1, v2].
        ehat[v2] = 0.0  # sentinel: "E_partial contribution of p2 = v2"
        eright[v2] = rm
        for p1 in range(v2 - 1, m1 - 1, -1):
            sl = slice(p1 + 1, v2 + 1)
            # E⁻(p1, p2) with K2 = 0, vector over p2 in (p1, v2]:
            em = (
                F.base_p[p1, sl]
                + F.cK1[p1, sl] * K1
                + F.esm1[p1, sl] * (rm_mix + g * eright[sl])
            )
            cand = em * F.etot[sl, v2] + ehat[sl]
            corr = F.etot[p1, v2] if paper_faithful else F.es[p1, v2]
            cand[-1] += corr * (Vg_at[v2] - Vp_at[v2])
            k = int(np.argmin(cand))
            p2 = p1 + 1 + k
            ehat[p1] = float(cand[k])
            if next_p is not None:
                next_p[p1, v2] = p2
            if p2 < v2 or paper_faithful:
                hop_cost = float(Vp_at[p2 if p2 < v2 else v2])
            else:
                hop_cost = float(Vg_at[v2])
            eright[p1] = F.pf[p1, p2] * (F.tlost[p1, p2] + K1) + (
                1.0 - F.pf[p1, p2]
            ) * (F.W[p1, p2] + hop_cost + rm_mix + g * eright[p2])

        cand_v1 = everif_row[m1:v2] * F.etot[m1:v2, v2] + ehat[m1:v2]
        k = int(np.argmin(cand_v1))
        everif_row[v2] = float(cand_v1[k])
        arg_v1[v2] = m1 + k

    return everif_row, arg_v1, next_p


def loop_forward_partial(
    F: PairFactors, *, paper_faithful: bool = False
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(Emem, arg_mem, arg_verif)`` of ``ADMV``, one pair at a time."""
    n = F.n
    CM = F.costs.CM
    Emem = np.full((n + 1, n + 1), np.inf)
    arg_mem = np.full((n + 1, n + 1), -1, dtype=np.int32)
    arg_verif = np.full((n + 1, n + 1, n + 1), -1, dtype=np.int32)

    for d1 in range(n + 1):
        ev = np.full((n + 1, n + 1), np.inf)  # ev[m1, v2] for this d1
        Emem[d1, d1] = 0.0
        for m1 in range(d1, n + 1):
            if m1 > d1:
                cand = Emem[d1, d1:m1] + ev[d1:m1, m1] + CM[m1]
                k = int(np.argmin(cand))
                Emem[d1, m1] = float(cand[k])
                arg_mem[d1, m1] = d1 + k
            row, arg, _ = scan_interval(
                F,
                m1,
                F.rd_eff(d1) + float(Emem[d1, m1]),
                F.rm_eff(m1),
                paper_faithful=paper_faithful,
            )
            ev[m1, :] = row
            arg_verif[d1, m1, :] = arg
    return Emem, arg_mem, arg_verif


def loop_optimize_partial(
    chain: TaskChain,
    platform: Platform,
    *,
    paper_faithful: bool = False,
    costs: CostProfile | None = None,
) -> Solution:
    """``ADMV`` with one :func:`scan_interval` call per ``(d1, m1)`` pair."""
    n = chain.n
    F = PairFactors(chain, platform, costs)
    Emem, arg_mem, arg_verif = loop_forward_partial(
        F, paper_faithful=paper_faithful
    )
    Edisk, arg_disk = _disk_pass(Emem, F.costs.CD)

    levels = np.zeros(n, dtype=np.int8)
    for d1, m1, m2 in _memory_intervals(n, arg_disk, arg_mem, levels):
        _, _, next_p = scan_interval(
            F,
            m1,
            F.rd_eff(d1) + float(Emem[d1, m1]),
            F.rm_eff(m1),
            want_chains=True,
            paper_faithful=paper_faithful,
        )
        assert next_p is not None
        for v1, v2 in _verif_intervals(arg_verif, d1, m1, m2, levels):
            p = int(next_p[v1, v2])
            while 0 < p < v2:
                levels[p - 1] = max(levels[p - 1], int(Action.PARTIAL))
                p = int(next_p[p, v2])

    return Solution(
        algorithm="admv",
        chain=chain,
        platform=platform,
        expected_time=float(Edisk[n]),
        schedule=Schedule(levels),
        diagnostics={"Edisk": Edisk, "Emem": Emem},
    )


# ----------------------------------------------------------------------
# ADMV* (guaranteed verifications only)
# ----------------------------------------------------------------------
def verif_row(
    F: PairFactors, d1: int, m1: int, emem_d1m1: float
) -> tuple[np.ndarray, np.ndarray]:
    """``E_verif(d1, m1, v2)`` for all ``v2`` in ``[m1, n]`` and its argmins."""
    n = F.n
    K1 = F.rd_eff(d1) + emem_d1m1
    rm = F.rm_eff(m1)
    row = np.full(n + 1, np.inf)
    arg = np.full(n + 1, -1, dtype=np.int32)
    row[m1] = 0.0
    for v2 in range(m1 + 1, n + 1):
        lo = m1
        cand = (
            row[lo:v2]
            + F.base_g[lo:v2, v2]
            + F.cK1[lo:v2, v2] * K1
            + F.etm1[lo:v2, v2] * row[lo:v2]
            + F.esm1[lo:v2, v2] * rm
        )
        k = int(np.argmin(cand))
        row[v2] = float(cand[k])
        arg[v2] = lo + k
    return row, arg


def loop_forward_two_level(
    F: PairFactors,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(Emem, arg_mem, arg_verif)`` of ``ADMV*``, one pair at a time."""
    n = F.n
    CM = F.costs.CM
    Emem = np.full((n + 1, n + 1), np.inf)
    arg_mem = np.full((n + 1, n + 1), -1, dtype=np.int32)
    arg_verif = np.full((n + 1, n + 1, n + 1), -1, dtype=np.int32)

    for d1 in range(n + 1):
        ev = np.full((n + 1, n + 1), np.inf)
        Emem[d1, d1] = 0.0
        for m1 in range(d1, n + 1):
            if m1 > d1:
                cand = Emem[d1, d1:m1] + ev[d1:m1, m1] + CM[m1]
                k = int(np.argmin(cand))
                Emem[d1, m1] = float(cand[k])
                arg_mem[d1, m1] = d1 + k
            row, arg = verif_row(F, d1, m1, float(Emem[d1, m1]))
            ev[m1, :] = row
            arg_verif[d1, m1, :] = arg
    return Emem, arg_mem, arg_verif


def loop_optimize_two_level(
    chain: TaskChain,
    platform: Platform,
    *,
    costs: CostProfile | None = None,
) -> Solution:
    """``ADMV*`` with one :func:`verif_row` call per ``(d1, m1)`` pair."""
    n = chain.n
    F = PairFactors(chain, platform, costs)
    Emem, arg_mem, arg_verif = loop_forward_two_level(F)
    Edisk, arg_disk = _disk_pass(Emem, F.costs.CD)

    levels = np.zeros(n, dtype=np.int8)
    for d1, m1, m2 in _memory_intervals(n, arg_disk, arg_mem, levels):
        for _ in _verif_intervals(arg_verif, d1, m1, m2, levels):
            pass

    return Solution(
        algorithm="admv_star",
        chain=chain,
        platform=platform,
        expected_time=float(Edisk[n]),
        schedule=Schedule(levels),
        diagnostics={"Edisk": Edisk, "Emem": Emem},
    )


# ----------------------------------------------------------------------
# shared loop helpers
# ----------------------------------------------------------------------
def _disk_pass(Emem: np.ndarray, CD: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
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


def _memory_intervals(n, arg_disk, arg_mem, levels):
    """Yield ``(d1, m1, m2)`` along the optimal path, marking D and M."""
    d2 = n
    while d2 > 0:
        d1 = int(arg_disk[d2])
        if d1 < 0 or d1 >= d2:
            raise SolverError(f"inconsistent disk backtrack at d2={d2}: {d1}")
        levels[d2 - 1] = int(Action.DISK)
        m2 = d2
        while m2 > d1:
            m1 = int(arg_mem[d1, m2])
            if m2 != d2:
                levels[m2 - 1] = max(levels[m2 - 1], int(Action.MEMORY))
            if m1 < 0 or m1 >= m2:
                raise SolverError(
                    f"inconsistent memory backtrack at (d1={d1}, m2={m2})"
                )
            yield d1, m1, m2
            m2 = m1
        d2 = d1


def _verif_intervals(arg_verif, d1, m1, m2, levels):
    """Yield ``(v1, v2)`` inside ``(m1, m2]``, marking V."""
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
        yield v1, v2
        v2 = v1
