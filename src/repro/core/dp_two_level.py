"""Two-level dynamic program ``ADMV*`` (paper Section III-A).

Places disk checkpoints, memory checkpoints and guaranteed verifications (no
partial verifications) to minimise the expected makespan of a linear chain.

Three nested recurrences, all initialised at the virtual task ``T0`` (disk
checkpointed, zero recovery cost):

.. math::

    E_{disk}(d_2) &= \\min_{0 \\le d_1 < d_2}
        E_{disk}(d_1) + E_{mem}(d_1, d_2) + C_D \\\\
    E_{mem}(d_1, m_2) &= \\min_{d_1 \\le m_1 < m_2}
        E_{mem}(d_1, m_1) + E_{verif}(d_1, m_1, m_2) + C_M \\\\
    E_{verif}(d_1, m_1, v_2) &= \\min_{m_1 \\le v_1 < v_2}
        E_{verif}(d_1, m_1, v_1) + E(d_1, m_1, v_1, v_2)

with the closed-form segment cost ``E(d1, m1, v1, v2)`` of eq. (4)::

    E = e^{λ_s W} ( (e^{λ_f W}-1)/λ_f + V* )
      + e^{λ_s W} (e^{λ_f W}-1) (R_D + E_mem(d1, m1))
      + (e^{(λ_s+λ_f) W} - 1) E_verif(d1, m1, v1)
      + (e^{λ_s W} - 1) R_M          where W = W_{v1,v2}.

The answer is ``E_disk(n)`` — the final task always ends with a guaranteed
verification, a memory checkpoint and a disk checkpoint.

Implementation notes
--------------------
The outer disk and memory recurrences live in
:mod:`~repro.core.dp_outer`, which runs ``m1`` ascending and asks this
module for the rows ``E_verif(d1, m1, .)`` of every ``d1 <= m1`` at once.
:func:`_verif_rows` walks ``v2`` ascending with ``d1`` as the array axis,
so a solve makes ``O(n^2)`` vectorized minima for ``O(n^4)`` scalar work.
Each candidate keeps the operation order of the one-pair-at-a-time loop,
so values and argmins are bitwise identical to it; that loop lives in the
test suite as the oracle.  Argmin tables are kept (``int32``) for exact
schedule extraction.
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
from .schedule import Schedule

__all__ = ["optimize_two_level"]


def _verif_rows(
    F: PairFactors, m1: int, K1: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``E_verif(d1, m1, v2)`` for every ``d1 <= m1`` and ``v2`` in ``[m1, n]``.

    ``K1[d1] = R_D(d1) + E_mem(d1, m1)``.  Returns ``(rows, args)`` shaped
    ``(m1+1, n+1-m1)``: column ``j`` is ``v2 = m1 + j``, ``rows`` the
    expected time to execute and verify ``T_{m1+1} .. T_{v2}`` and
    ``args`` the optimal previous verification position.
    """
    n = F.n
    width = n + 1 - m1
    tail = slice(m1, n + 1)
    # Candidate terms that do not depend on E_verif(v1): [d1, v1, v2], [v1, v2].
    fixed = F.cK1[tail, tail] * K1[:, None, None]
    recover = F.esm1[tail, tail] * F.rm_eff(m1)
    rows = np.full((K1.size, width), np.inf)
    args = np.full((K1.size, width), -1, dtype=np.int32)
    rows[:, 0] = 0.0
    picked = np.arange(K1.size)
    for j in range(1, width):
        v2 = m1 + j
        prev = rows[:, :j]
        cand = (
            prev
            + F.base_g[m1:v2, v2]
            + fixed[:, :j, j]
            + F.etm1[m1:v2, v2] * prev
            + recover[:j, j]
        )
        k = cand.argmin(axis=1)
        rows[:, j] = cand[picked, k]
        args[:, j] = k
    args[:, 1:] += m1
    return rows, args


def optimize_two_level(
    chain: TaskChain,
    platform: Platform,
    *,
    costs: CostProfile | None = None,
) -> Solution:
    """Optimal two-level schedule (``ADMV*``) for ``chain`` on ``platform``.

    ``costs`` optionally makes every checkpoint/verification/recovery
    cost position-dependent (see :class:`~repro.core.costs.CostProfile`);
    the default reproduces the paper's uniform model.
    """
    reg = _metrics()
    with phase(reg, "factors"):
        F = PairFactors(chain, platform, costs)
    with phase(reg, "forward"):
        Emem, arg_mem, arg_verif = memory_pass(
            F, lambda m1, K1: _verif_rows(F, m1, K1)
        )
        Edisk, arg_disk = disk_pass(Emem, F.costs.CD)
    with phase(reg, "backtrack"):
        levels = np.zeros(chain.n, dtype=np.int8)
        for _ in walk_intervals(levels, arg_disk, arg_mem, arg_verif):
            pass
    return Solution(
        algorithm="admv_star",
        chain=chain,
        platform=platform,
        expected_time=float(Edisk[chain.n]),
        schedule=Schedule(levels),
        diagnostics={"Edisk": Edisk, "Emem": Emem},
    )
