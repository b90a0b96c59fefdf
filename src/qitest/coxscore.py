"""Weighted Cox score statistics built from truncation-adjusted risk sets.

The risk set at time t holds subjects with entry < t <= exit. With the
risk-set size as weight, the score statistic for a covariate z is

    sum over events i of  Y(T_i) * { z_i - mean of z over the risk set at T_i }

Two covariates are supported: a fixed transform a(entry), and the subject's
within-risk-set entry rank divided by the risk-set size (rank counted from
above: 1 + number of at-risk subjects with strictly larger entry).

Both statistics have pairwise forms over comparable pairs: the covariate
score equals -1/2 sum_ij (a_i - a_j) sign(T_i - T_j) lambda_ij, and the rank
score equals half the sign/sign U-statistic numerator. The covariate
identity is exact when no two exits are tied, the rank identity when no two
entries and no two exits are tied: a tied pair can meet the risk-set
definition while sign(0) = 0 drops it from the pairwise form, so under ties
the forms differ. The direct risk-set evaluation (``method="direct"``) is
the definitional oracle.

Both covariate forms are one double sum, over failures i and partners j
with L_j < T_i, of a_i - a_j: the risk-set score keeps partners whose exit
ties T_i (T_j >= T_i), the pairwise form drops them (T_j > T_i).
``method="sweep"`` and ``method="pairwise"`` count it per subject by binary
search in O(n log n) time and O(n) memory; the rank score's
``method="sweep"`` maintains the risk set incrementally in O(n log n).

The direct forms cost O(n^2) time and memory: each builds the risk-set
matrix "j is at risk at T_i", L_j < T_i <= T_j, once over subjects j and
exit times T_i, and counts over it. For the rank covariate the subjects
are put in entry order and the at-risk counts cumulated along them; read
at the end of each entry-tie group, the cumulative count gives for event i
the risk-set size Y_i, the rank R_i = 1 + #{at risk with larger entry} and
the number P_i of at-risk pairs with strictly ordered entries. The score is
the sum over events of R_i - (Y_i + P_i) / Y_i, the event's rank minus the
risk-set mean rank.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .data import Dataset
from .errors import DomainError


def _score_direct(data: Dataset, z: np.ndarray) -> float:
    # risk[j, i] = 1 if j is at risk at T_i
    at = (data.entry[:, None] < data.exit[None, :]) & (data.exit[None, :] <= data.exit[:, None])
    y = at.sum(axis=0).astype(float)
    zsum = z @ at
    ev = data.event == 1
    return float(np.sum(y[ev] * z[ev] - zsum[ev]))


def _rankstar_direct(data: Dataset) -> float:
    order = np.argsort(data.entry, kind="stable")
    entry, exit_ = data.entry[order], data.exit[order]
    events = data.event == 1
    t = data.exit[events]
    # at[i, j]: subject j (columns in entry order) is at risk at event i's exit
    at = (entry[None, :] < t[:, None]) & (t[:, None] <= exit_[None, :])
    # counts are at most n, so int32; the pair counts P are summed in int64
    last = np.flatnonzero(np.r_[entry[1:] != entry[:-1], True])  # end of each entry-tie group
    up_to = np.cumsum(at, axis=1, dtype=np.int32)[:, last]  # at risk with entry <= the group's
    y = up_to[:, -1]
    group = np.searchsorted(entry[last], data.entry[events])
    r = 1 + y - up_to[np.arange(t.size), group]
    # each group's at-risk subjects times the at-risk subjects with smaller entry
    below = up_to[:, :-1]
    p = np.einsum("eg,eg->e", up_to[:, 1:] - below, below, dtype=np.int64)
    return float(np.sum(r - (y + p) / y))


def _score_by_counting(data: Dataset, a: np.ndarray, keep_tied_exits: bool) -> float:
    """sum_j a_j (d_j Y_j - E_j), counted by binary search over sorted times.

    With ``keep_tied_exits`` (the risk-set score) Y_j = #{L_k < T_j} -
    #{T_k < T_j} and E_j = #{failures f : L_j < f <= T_j}; without it (the
    pairwise form) partners and failures tied with T_j drop out: T_k <= T_j
    is subtracted and f < T_j counted. The coefficients are exact integers.
    """
    fail = np.sort(data.exit[data.event == 1])
    gone, upto = ("left", "right") if keep_tied_exits else ("right", "left")
    y = (np.searchsorted(np.sort(data.entry), data.exit)
         - np.searchsorted(np.sort(data.exit), data.exit, gone))
    e = np.searchsorted(fail, data.exit, upto) - np.searchsorted(fail, data.entry, "right")
    return float(a @ (data.event * y - e))


def cox_score_covariate(data: Dataset, a: Callable[[np.ndarray], np.ndarray], method: str = "sweep") -> float:
    """Score statistic with covariate a(entry) and risk-set-size weight.

    ``a`` maps an array of entry times to covariate values. ``method`` is
    ``"sweep"`` (the risk-set score by counting, O(n log n)), ``"direct"``
    (the definitional risk-set scan, O(n^2)) or ``"pairwise"``, the
    comparable-pair form -1/2 sum_ij (a_i - a_j) sign(T_i - T_j) lambda_ij,
    also counted in O(n log n); it equals the score when no two exits are
    tied. ``a`` must give one finite value per subject; anything else raises
    ``DomainError``.
    """
    if method not in ("sweep", "direct", "pairwise"):
        raise ValueError("method must be 'sweep', 'direct' or 'pairwise'")
    # an overflow (np.exp past about 709) is reported by the finiteness check
    with np.errstate(over="ignore", invalid="ignore"):
        aval = np.asarray(a(data.entry), dtype=float)
    if aval.shape != (data.n,):
        raise DomainError(f"the covariate must give one value per subject: "
                          f"expected shape ({data.n},), got {aval.shape}")
    if not np.all(np.isfinite(aval)):
        raise DomainError("the covariate gave a non-finite value")
    if method == "direct":
        return _score_direct(data, aval)
    return _score_by_counting(data, aval, keep_tied_exits=method == "sweep")


class _Fenwick:
    """Fenwick tree over positions 1..n counting at-risk entry ranks."""

    def __init__(self, n: int):
        self.n = n
        self.tree = np.zeros(n + 1, dtype=np.int64)

    def add(self, pos: int, delta: int) -> None:
        i = pos
        while i <= self.n:
            self.tree[i] += delta
            i += i & (-i)

    def prefix(self, pos: int) -> int:
        s = 0
        i = pos
        while i > 0:
            s += self.tree[i]
            i -= i & (-i)
        return int(s)


def cox_score_rankstar(data: Dataset, method: str = "sweep") -> float:
    """Score statistic with the scaled within-risk-set entry rank as covariate.

    Each event contributes R_i(T_i) minus the risk-set mean rank, where ranks
    count from above (1 + number of strictly larger at-risk entries). The
    mean rank is (Y + 1)/2 for distinct entries; under entry ties it equals
    (Y + P)/Y with P the number of strictly ordered at-risk pairs, which the
    sweep (``method="sweep"``, O(n log n)) maintains incrementally.
    ``method="direct"`` counts R_i, Y_i and P_i for every event from one
    risk-set matrix over (events) x (subjects in entry order), in O(n^2)
    time and memory.
    """
    if method == "direct":
        return _rankstar_direct(data)
    if method != "sweep":
        raise ValueError("method must be 'sweep' or 'direct'")
    n = data.n
    by_exit = np.argsort(data.exit, kind="stable")
    by_entry = np.argsort(data.entry, kind="stable")
    entry_sorted = data.entry[by_entry]
    exit_sorted = data.exit[by_exit]
    # dense 1-based positions over distinct entry values, so strict
    # comparisons are exact under ties
    _, dense0 = np.unique(data.entry, return_inverse=True)
    dense = dense0.astype(np.int64) + 1
    m = int(dense.max())

    in_riskset = np.zeros(n, dtype=bool)
    tree = _Fenwick(m)
    y = 0
    ordered_pairs = 0  # strictly ordered at-risk entry pairs
    ei = 0
    xi = 0
    total = 0.0
    k = 0
    while k < n:
        t = exit_sorted[k]
        while ei < n and entry_sorted[ei] < t:
            j = by_entry[ei]
            smaller = tree.prefix(int(dense[j]) - 1)
            larger = y - tree.prefix(int(dense[j]))
            ordered_pairs += smaller + larger
            tree.add(int(dense[j]), 1)
            in_riskset[j] = True
            y += 1
            ei += 1
        while xi < n and data.exit[by_exit[xi]] < t:
            j = by_exit[xi]
            if in_riskset[j]:
                in_riskset[j] = False
                tree.add(int(dense[j]), -1)
                y -= 1
                smaller = tree.prefix(int(dense[j]) - 1)
                larger = y - tree.prefix(int(dense[j]))
                ordered_pairs -= smaller + larger
            xi += 1
        kk = k
        while kk < n and data.exit[by_exit[kk]] == t:
            i = by_exit[kk]
            if data.event[i] == 1:
                larger = y - tree.prefix(int(dense[i]))
                r_i = 1 + larger
                mean_rank = (y + ordered_pairs) / y
                total += r_i - mean_rank
            kk += 1
        k = kk
    return float(total)
