"""Certify the affine decomposition of the partial-verification DP.

``repro.core.dp_partial`` computes ``Ehat = E_partial`` with the
``E_verif(d1, m1, v1)`` term (``K2``) factored out, claiming

    E_partial(v1, p1, v2) = Ehat(p1, v2) + (e^{Λ W_{p1,v2}} - 1) K2

with a ``v1``-independent argmin.  This module implements the paper's
*literal* ``O(n^6)`` recursion — one full scan per ``(v1, v2)`` pair with
``K2`` embedded — and checks that it and the decomposed per-pair scan
(:func:`dp_oracles.scan_interval`, the loop oracle of the batched
production sweep) produce identical ``E_verif`` tables (hence identical
optima) on randomized instances.
"""

from __future__ import annotations

import numpy as np
import pytest

from dp_oracles import scan_interval
from repro.chains import TaskChain
from repro.core.factors import PairFactors
from repro.testing import random_chain, random_platform


def reference_everif_row(
    F: PairFactors, m1: int, K1: float, rm: float
) -> np.ndarray:
    """Paper-literal computation of ``E_verif(d1, m1, v2)`` for all ``v2``.

    For every guaranteed-verification interval ``(v1, v2)`` the partial scan
    is re-run from scratch with ``K2 = E_verif(v1)`` embedded in the
    candidates — ``O(n^4)`` per ``(d1, m1)`` instead of the production
    code's ``O(n^2)``.  Uses the exact-variant final-hop pricing (base_g /
    V* on the closing hop), like the default production path.
    """
    n, plat = F.n, F.platform
    Vp, Vg, g = plat.Vp, plat.Vg, plat.g
    rm_mix = (1.0 - g) * rm

    row = np.full(n + 1, np.inf)
    row[m1] = 0.0
    for v2 in range(m1 + 1, n + 1):
        best = np.inf
        for v1 in range(m1, v2):
            K2 = float(row[v1])
            epart: dict[int, float] = {}
            eright: dict[int, float] = {v2: rm}
            for p1 in range(v2 - 1, v1 - 1, -1):
                cands = []
                for p2 in range(p1 + 1, v2 + 1):
                    em = (
                        F.base_p[p1, p2]
                        + F.cK1[p1, p2] * K1
                        + F.etm1[p1, p2] * K2
                        + F.esm1[p1, p2] * (rm_mix + g * eright[p2])
                    )
                    if p2 < v2:
                        cand = em * F.etot[p2, v2] + epart[p2]
                    else:
                        cand = em + F.es[p1, v2] * (Vg - Vp)
                    cands.append((cand, p2))
                value, p2_star = min(cands)
                epart[p1] = value
                hop = Vp if p2_star < v2 else Vg
                eright[p1] = F.pf[p1, p2_star] * (
                    F.tlost[p1, p2_star] + K1
                ) + (1.0 - F.pf[p1, p2_star]) * (
                    F.W[p1, p2_star] + hop + rm_mix + g * eright[p2_star]
                )
            best = min(best, row[v1] + epart[v1])
        row[v2] = best
    return row


@pytest.mark.parametrize("seed", range(10))
def test_decomposed_scan_matches_reference(seed):
    rng = np.random.default_rng(seed)
    chain = random_chain(rng, int(rng.integers(2, 8)))
    platform = random_platform(rng)
    F = PairFactors(chain, platform)
    for m1 in range(0, chain.n):
        for K1 in (0.0, float(rng.uniform(0.0, 50.0))):
            rm = platform.RM if m1 > 0 else 0.0
            fast, _, _ = scan_interval(F, m1, K1, rm)
            slow = reference_everif_row(F, m1, K1, rm)
            np.testing.assert_allclose(
                fast[m1:], slow[m1:], rtol=1e-11, atol=1e-9
            )


def test_decomposition_coefficient_identity():
    """The K2 coefficient telescopes: E_partial(with K2) - E_partial(K2=0)
    equals (e^{Λ W_{v1,v2}} - 1) K2 for the *full interval* value."""
    rng = np.random.default_rng(99)
    chain = TaskChain(rng.uniform(5.0, 40.0, 6))
    platform = random_platform(rng)
    F = PairFactors(chain, platform)
    m1, K1, rm = 0, 12.0, 0.0
    fast, _, _ = scan_interval(F, m1, K1, rm)
    slow = reference_everif_row(F, m1, K1, rm)
    np.testing.assert_allclose(fast[m1:], slow[m1:], rtol=1e-11)


@pytest.mark.parametrize("g_zero", [True, False])
def test_reference_agrees_on_recall_extremes(g_zero):
    """r = 1 (g = 0) removes the E_right chains entirely; both paths must
    still agree."""
    rng = np.random.default_rng(7)
    chain = random_chain(rng, 5)
    platform = random_platform(rng).with_overrides(r=1.0 if g_zero else 0.0)
    F = PairFactors(chain, platform)
    fast, _, _ = scan_interval(F, 0, 3.0, 0.0)
    slow = reference_everif_row(F, 0, 3.0, 0.0)
    np.testing.assert_allclose(fast, slow, rtol=1e-11)
