"""Full dynamic program ``ADMV`` with partial verifications (paper §III-B).

This is the most involved algorithm of the paper: between two guaranteed
verifications it places *partial* verifications (cost ``V``, recall ``r``),
accounting for errors that slip through (probability ``g = 1 - r``) and are
only caught further right — possibly by the closing guaranteed verification.

Paper recurrences (for fixed ``d1, m1``, writing ``Λ = λ_f + λ_s``):

* ``E_right(v1, p1, v2)`` — expected time lost executing ``T_{p1+1}..T_{v2}``
  *given* a latent silent error, following the optimal next-verification
  chain ``p2 = next(p1)``::

      E_right(p1) = (1 - e^{-λ_f W}) (T_lost(W) + R_D + E_mem(d1, m1))
                  + e^{-λ_f W} (W + V + (1-g) R_M + g E_right(p2)),
      E_right(v2) = R_M                     with W = W_{p1,p2}

* ``E⁻(v1, p1, p2, v2)`` — the expected segment cost with the left
  re-execution term removed (re-injected through the ``e^{Λ W_{p2,v2}}``
  re-execution multiplier)::

      E⁻ = e^{λ_s W} ( (e^{λ_f W}-1)/λ_f + V )
         + e^{λ_s W} (e^{λ_f W}-1) (R_D + E_mem(d1, m1))
         + (e^{Λ W}-1) E_verif(d1, m1, v1)
         + (e^{λ_s W}-1) ((1-g) R_M + g E_right(p2))

* ``E_partial(v1, p1, v2) = min_{p1 < p2 <= v2}`` of
  ``E⁻(p1, p2) e^{Λ W_{p2,v2}} + E_partial(v1, p2, v2)`` for ``p2 < v2`` and
  ``E⁻(p1, v2) + e^{Λ W_{p1,v2}} (V* - V)`` for ``p2 = v2``;

* ``E_verif(d1, m1, v2) = min_{v1} E_verif(d1, m1, v1) + E_partial(v1, v1, v2)``.

Affine decomposition (this implementation's speed-up)
------------------------------------------------------
The term ``K2 = E_verif(d1, m1, v1)`` enters every candidate of the
``E_partial`` minimisation affinely, and by induction its coefficient
telescopes to ``e^{Λ W_{p1,v2}} - 1`` *independently of the chosen chain*:
for ``p2 < v2`` the coefficient is
``(e^{Λ W_{p1,p2}}-1) e^{Λ W_{p2,v2}} + (e^{Λ W_{p2,v2}}-1)
= e^{Λ W_{p1,v2}} - 1``, matching the ``p2 = v2`` base case.  Therefore the
argmin does not depend on ``v1`` and::

    E_partial(v1, p1, v2) = Ehat(p1, v2) + (e^{Λ W_{p1,v2}} - 1) K2,

where ``Ehat`` is ``E_partial`` computed with ``K2 = 0``.  One scan per
``(d1, m1)`` yields every ``v1`` at once, dropping the complexity from the
paper's ``O(n^6)`` to ``O(n^5)`` (and the table space from ``O(n^5)`` to
``O(n^3)``).  ``E_verif`` then reads::

    E_verif(d1, m1, v2) = min_{v1} E_verif(d1, m1, v1) e^{Λ W_{v1,v2}}
                                   + Ehat(v1, v2).

Batched sweeps
--------------
The outer recurrences (:mod:`~repro.core.dp_outer`) run ``m1`` ascending
and need, at each step, the rows ``E_verif(d1, m1, .)`` of every
``d1 <= m1``.  These differ only through ``K1 = R_D(d1) + E_mem(d1, m1)``,
so one step runs a single ``p1``-descending sweep
(:meth:`_Sweeper.sweep`) over arrays indexed ``[d1, p2, v2]``: for each
``p1`` it forms every candidate successor ``p2`` of every interval end
``v2 > p1`` at once, takes the argmin along ``p2``, and gathers
``Ehat(p1, v2)`` and ``E_right(p1)`` through the chosen successors.  The
``E_verif`` recurrence over ``v2`` then runs with ``d1`` as the array
axis.  A solve makes ``O(n^2)`` array operations instead of the
``O(n^4)`` tiny ones of a per-``(d1, m1)`` scan, and keeps ``O(n^3)``
memory (the ``E_verif`` and argmin tables; no successor table is kept).

Schedule extraction needs the successors ``next(p1, v2)`` only on the
optimal path: it runs one more sweep whose rows are the path's
``(d1, m1)`` pairs, each with its own ``K1`` and ``R_M``, over positions
up to the largest ``m2`` (always ``n``), and records the argmins.

Why the sweep is bitwise equal to the loop
------------------------------------------
Every candidate is the loop's expression with the same operations in the
same order, evaluated elementwise, so each feasible entry is the same
double.  Sub-expressions that do not depend on ``v2`` (or on the row) are
tabulated once; each table entry is that same sub-expression.  Two
rewrites are exact: ``E_right`` is stored as the product ``g E_right``,
the only form in which it is read, and the ``(V* - V)`` correction of the
``p2 = v2`` candidate is added to ``em * 1`` instead of ``em * 1 + 0``.
Successors with ``p2 > v2`` are infeasible; their entries are set to
``+inf`` after the arithmetic, so they never win, and a column whose
feasible candidates are all ``inf`` still resolves to its first entry
(``p2 = p1 + 1``), as :func:`numpy.argmin` does on the loop's slice.
Values computed there (and for path rows left of their own ``m1``) are
discarded, which is why the sweep silences overflow and invalid-value
warnings.

The loop versions of this module and of :mod:`~repro.core.dp_two_level`
live in ``tests/dp_oracles.py``; ``tests/test_dp_oracles.py`` compares
``expected_time``, the schedule levels, the ``Edisk``/``Emem`` tables and
the argmin tables with exact equality.  A per-``v1`` reference
implementation of the paper's ``O(n^6)`` recursion
(``tests/test_dp_partial_reference.py``) and the exhaustive/Markov oracle
certify the decomposition.
"""

from __future__ import annotations

import numpy as np

from ..chains import TaskChain
from ..obs import metrics as _metrics
from ..platforms import Platform
from .costs import CostProfile
from .dp_outer import disk_pass, memory_pass, phase, walk_intervals
from .factors import PairFactors
from .result import Solution
from .schedule import Action, Schedule

__all__ = ["optimize_partial"]


class _Sweeper:
    """Batched partial-verification scans for one instance.

    Holds the row-independent tables of the scan, so each sweep step only
    does the work that depends on a row's ``K1 = R_D(d1) + E_mem(d1, m1)``
    and ``R_M(m1)``.  Every table entry is the loop's sub-expression with
    the same operations, so precomputing it does not change a bit.
    """

    def __init__(self, F: PairFactors, *, paper_faithful: bool) -> None:
        n = F.n
        Vp, Vg = F.costs.Vp, F.costs.Vg
        self.F = F
        # The p2 = v2 candidate: no re-execution multiplier, and the
        # closing verification is guaranteed, hence a (V* - V) correction.
        # The paper multiplies it by e^{Λ W_{p1,v2}}; exact consistency
        # with eq. (4) (a fail-stop interrupts the segment *before* the
        # closing verification runs, so only silent-error retries re-pay
        # it) requires e^{λ_s W_{p1,v2}} — equivalently, base_g instead of
        # base_p on the final hop.
        corr = F.etot if paper_faithful else F.es
        # W_{p1,p2} plus the cost of the verification closing the hop,
        # indexed [p1, p2, v2].  The final hop (p2 = v2) ends at the
        # guaranteed verification, whose cost is V*, not V (second paper
        # deviation, same reasoning); the paper prices it at V.
        closing = F.W + (Vp if paper_faithful else Vg)
        hop = np.where(
            np.tri(n + 1, k=-1, dtype=bool).T,  # [p2, v2] with p2 < v2
            (F.W + Vp)[:, :, None],
            closing[:, None, :],
        )
        pok = 1.0 - F.pf  # P(no fail-stop)
        infeasible = np.tri(n, k=-1, dtype=bool)  # [p2, v2] with p2 > v2
        cols = np.arange(n)
        # Per p1, the views over its successors and interval ends
        # p2, v2 in (p1, n] that every sweep step reads.
        self.steps = [
            (
                cols[: n - p1],
                corr[p1, p1 + 1 :] * (Vg[p1 + 1 :] - Vp[p1 + 1 :]),
                F.esm1[p1, p1 + 1 :, None],
                F.etot[p1 + 1 :, p1 + 1 :],
                infeasible[: n - p1, : n - p1],
                hop[p1, p1 + 1 :, p1 + 1 :],
                pok[p1, p1 + 1 :],
            )
            for p1 in range(n)
        ]

    def sweep(
        self, lo: int, K1: np.ndarray, rm: np.ndarray, next_p: np.ndarray | None = None
    ) -> np.ndarray:
        """Scan a batch of rows over positions ``lo..n``.

        Row ``r`` carries ``K1[r]`` and ``rm[r] = R_M(m1)``.  Returns
        ``ehat`` with ``ehat[r, p1 - lo, v2 - lo] = Ehat(p1, v2)`` for
        ``lo <= p1 < v2 <= n``; when given, ``next_p[r, p1 - lo, v2 - lo]``
        receives the optimal next verification after ``p1`` in an interval
        closed by a guaranteed verification at ``v2``.
        """
        F, g, n = self.F, self.F.platform.g, self.F.n
        R, L = K1.size, n + 1 - lo
        K1_blk = K1[:, None, None]
        mix2 = ((1.0 - g) * rm)[:, None]  # (1-g) R_M term of E⁻ / E_right
        mix = mix2[:, :, None]
        tail = slice(lo, n + 1)
        # The parts of E⁻ and E_right that do not depend on v2, [r, p1, p2].
        em_fixed = F.base_p[tail, tail] + F.cK1[tail, tail] * K1_blk
        er_fail = F.pf[tail, tail] * (F.tlost[tail, tail] + K1_blk)
        ehat = np.full((R, L, L), np.inf)
        # g E_right(p2, v2), the only form in which E_right is ever read.
        ger = np.zeros((R, L, L))
        ger.reshape(R, L * L)[:, :: L + 1] = (g * rm)[:, None]
        # The p2 = v2 diagonal of ehat holds the (V* - V) correction of
        # the current p1: the loop adds it to em * 1 + 0, the same double.
        ehat_diag = ehat.reshape(R, L * L)[:, :: L + 1]
        picked = np.arange(R)[:, None]

        with np.errstate(over="ignore", invalid="ignore"):
            for p1 in range(n - 1, lo - 1, -1):
                c, corr, esm1, etot, infeasible, hop, pok = self.steps[p1]
                i = p1 - lo
                rel = slice(i + 1, L)  # p2 and v2 in (p1, n], relative to lo
                ger_blk = ger[:, rel, rel]
                ehat_diag[:, rel] = corr
                # E⁻(p1, p2) with K2 = 0, over [r, p2, v2]:
                em = em_fixed[:, i, rel, None] + esm1 * (mix + ger_blk)
                cand = em * etot
                cand += ehat[:, rel, rel]
                np.copyto(cand, np.inf, where=infeasible)
                k = cand.argmin(axis=1)  # [r, v2]: p2 - p1 - 1
                ehat[:, i, rel] = cand[picked, k, c]
                if next_p is not None:
                    next_p[:, i, rel] = k + (p1 + 1)
                # g E_right(p1) through the optimal successor p2.
                er = hop[k, c] + mix2
                er += ger_blk[picked, k, c]
                er *= pok[k]
                er += er_fail[:, i, rel][picked, k]
                er *= g
                ger[:, i, rel] = er
        return ehat

    def verif_rows(self, m1: int, K1: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``E_verif(d1, m1, v2)`` and its argmins for every ``d1 <= m1`` and
        ``v2`` in ``[m1, n]`` (column ``j`` is ``v2 = m1 + j``)."""
        F = self.F
        n = F.n
        rm = np.full(K1.size, F.rm_eff(m1))
        ehat = self.sweep(m1, K1, rm)
        width = n + 1 - m1
        rows = np.full((K1.size, width), np.inf)
        args = np.full((K1.size, width), -1, dtype=np.int32)
        rows[:, 0] = 0.0
        picked = np.arange(K1.size)
        for j in range(1, width):
            v2 = m1 + j
            cand = rows[:, :j] * F.etot[m1:v2, v2] + ehat[:, :j, j]
            k = cand.argmin(axis=1)
            rows[:, j] = cand[picked, k]
            args[:, j] = k
        args[:, 1:] += m1
        return rows, args


def optimize_partial(
    chain: TaskChain,
    platform: Platform,
    *,
    paper_faithful: bool = False,
    costs: CostProfile | None = None,
) -> Solution:
    """Optimal schedule with partial verifications (``ADMV``).

    Parameters
    ----------
    paper_faithful:
        Use the paper's literal ``e^{Λ W}(V* - V)`` correction and
        ``V``-priced final ``E_right`` hop instead of the exact variants
        (see :class:`_Sweeper`); the difference is ``O(λ_f W (V*-V))`` per
        interval — negligible on realistic platforms but measurable
        against the exact Markov oracle.
    """
    reg = _metrics()
    with phase(reg, "factors"):
        F = PairFactors(chain, platform, costs)
        sweeper = _Sweeper(F, paper_faithful=paper_faithful)
    with phase(reg, "forward"):
        Emem, arg_mem, arg_verif = memory_pass(F, sweeper.verif_rows)
        Edisk, arg_disk = disk_pass(Emem, F.costs.CD)
    with phase(reg, "backtrack"):
        levels = _extract_levels(sweeper, Emem, arg_disk, arg_mem, arg_verif)
    return Solution(
        algorithm="admv",
        chain=chain,
        platform=platform,
        expected_time=float(Edisk[chain.n]),
        schedule=Schedule(levels),
        diagnostics={"Edisk": Edisk, "Emem": Emem},
    )


def _extract_levels(
    sweeper: _Sweeper,
    Emem: np.ndarray,
    arg_disk: np.ndarray,
    arg_mem: np.ndarray,
    arg_verif: np.ndarray,
) -> np.ndarray:
    """Backtrack disk / memory / guaranteed chains, then recover the partial
    chains of every optimal ``(d1, m1)`` pair with one batched sweep."""
    F = sweeper.F
    levels = np.zeros(F.n, dtype=np.int8)
    intervals = list(walk_intervals(levels, arg_disk, arg_mem, arg_verif))
    row_of: dict[tuple[int, int], int] = {}
    for d1, m1, _, _ in intervals:
        row_of.setdefault((d1, m1), len(row_of))
    d1s = np.array([d1 for d1, _ in row_of])
    m1s = np.array([m1 for _, m1 in row_of])
    # The path's first memory interval starts at T0, so the sweep covers
    # every position; rows left of their own m1 compute unused values.
    next_p = np.full((len(row_of), F.n + 1, F.n + 1), -1, dtype=np.int32)
    sweeper.sweep(0, F.costs.RD[d1s] + Emem[d1s, m1s], F.costs.RM[m1s], next_p)
    for d1, m1, v1, v2 in intervals:
        chain = next_p[row_of[d1, m1], :, v2]
        p = int(chain[v1])
        while 0 < p < v2:
            levels[p - 1] = max(levels[p - 1], int(Action.PARTIAL))
            p = int(chain[p])
    return levels
