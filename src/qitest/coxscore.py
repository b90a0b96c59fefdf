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
the definitional oracle, while ``method="sweep"`` maintains the risk set
incrementally in O(n log n).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .comparability import lambda_matrix
from .data import Dataset


class RiskSets:
    """Pointwise risk-set queries over a dataset (used mostly in tests)."""

    def __init__(self, data: Dataset):
        self._data = data

    def at_risk(self, t: float) -> np.ndarray:
        """Indices of subjects with entry < t <= exit."""
        d = self._data
        return np.flatnonzero((d.entry < t) & (t <= d.exit))

    def size(self, t: float) -> int:
        return int(self.at_risk(t).size)

    def rank(self, i: int, t: float) -> int:
        """1 + number of at-risk subjects whose entry strictly exceeds entry_i."""
        d = self._data
        at = (d.entry < t) & (t <= d.exit)
        return 1 + int(np.sum(at & (d.entry > d.entry[i])))


def _score_direct(data: Dataset, z_of_entry: Callable[[np.ndarray], np.ndarray]) -> float:
    # risk[j, i] = 1 if j is at risk at T_i
    at = (data.entry[:, None] < data.exit[None, :]) & (data.exit[None, :] <= data.exit[:, None])
    z = z_of_entry(data.entry)
    y = at.sum(axis=0).astype(float)
    zsum = z @ at
    ev = data.event == 1
    return float(np.sum(y[ev] * z[ev] - zsum[ev]))


def _rankstar_direct(data: Dataset) -> float:
    # events contribute Y(T_i) * (R_i* - mean R* over risk set), which is
    # R_i(T_i) - (Y(T_i) + 1) / 2 when at-risk entries are distinct
    at = (data.entry[:, None] < data.exit[None, :]) & (data.exit[None, :] <= data.exit[:, None])
    total = 0.0
    for i in np.flatnonzero(data.event == 1):
        risk = at[:, i]
        y = int(risk.sum())
        ranks = 1 + (risk[None, :] & (data.entry[None, :] > data.entry[:, None])).sum(axis=1)
        rstar = ranks / y
        total += y * (rstar[i] - rstar[risk].sum() / y)
    return float(total)


def _sweep_order(data: Dataset):
    """Sort orders shared by the incremental sweeps."""
    n = data.n
    by_exit = np.argsort(data.exit, kind="stable")
    by_entry = np.argsort(data.entry, kind="stable")
    return n, by_exit, by_entry


def cox_score_covariate(data: Dataset, a: Callable[[np.ndarray], np.ndarray], method: str = "sweep") -> float:
    """Score statistic with covariate a(entry) and risk-set-size weight.

    ``a`` maps an array of entry times to covariate values. ``method`` is
    ``"sweep"``, ``"direct"`` or ``"pairwise"``, the O(n^2) comparable-pair
    form -1/2 sum_ij (a_i - a_j) sign(T_i - T_j) lambda_ij, which equals the
    score when no two exits are tied.
    """
    if method == "direct":
        return _score_direct(data, a)
    if method not in ("sweep", "pairwise"):
        raise ValueError("method must be 'sweep', 'direct' or 'pairwise'")
    aval = np.asarray(a(data.entry), dtype=float)
    if method == "pairwise":
        sgn = np.sign(np.subtract.outer(data.exit, data.exit))
        return -0.5 * float(np.sum(np.subtract.outer(aval, aval) * sgn * lambda_matrix(data)))
    n, by_exit, by_entry = _sweep_order(data)
    entry_sorted = data.entry[by_entry]
    exit_sorted = data.exit[by_exit]

    in_riskset = np.zeros(n, dtype=bool)
    s_sum = 0.0  # running sum of a(entry) over the risk set
    y = 0
    ei = 0  # next candidate to enter (by entry order)
    xi = 0  # next candidate to leave (by exit order)
    total = 0.0
    k = 0
    while k < n:
        t = exit_sorted[k]
        # admit subjects with entry < t, retire subjects with exit < t
        while ei < n and entry_sorted[ei] < t:
            j = by_entry[ei]
            in_riskset[j] = True
            s_sum += aval[j]
            y += 1
            ei += 1
        while xi < n and data.exit[by_exit[xi]] < t:
            j = by_exit[xi]
            if in_riskset[j]:
                in_riskset[j] = False
                s_sum -= aval[j]
                y -= 1
            xi += 1
        # all events tied at this exit time see the same risk set
        kk = k
        while kk < n and data.exit[by_exit[kk]] == t:
            i = by_exit[kk]
            if data.event[i] == 1:
                total += y * aval[i] - s_sum
            kk += 1
        k = kk
    return float(total)


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
    sweep maintains incrementally.
    """
    if method == "direct":
        return _rankstar_direct(data)
    if method != "sweep":
        raise ValueError("method must be 'sweep' or 'direct'")
    n, by_exit, by_entry = _sweep_order(data)
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
