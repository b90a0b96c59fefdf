"""Brute-force reference implementations that the tests compare against.

None of these is part of the package API: each restates a definition
pointwise (one pair, one risk set or one event at a time), so it is slow and
obviously right, and the fast paths in ``qitest`` are checked against it.
"""

from __future__ import annotations

import numpy as np
from numpy.polynomial.legendre import leggauss

from qitest.comparability import lambda_matrix
from qitest.data import Dataset, Observation
from qitest.errors import DegenerateDataset
from qitest.teststat import pair_products


def eval_sign(s: float, t: float) -> float:
    """sign(s - t): +1, -1, or 0 on ties."""
    if s > t:
        return 1.0
    if s < t:
        return -1.0
    return 0.0


def eval_linear(s: float, t: float) -> float:
    """s - t."""
    return s - t


def eval_rank_kernel(ranks: np.ndarray, i: int, j: int) -> float:
    """Difference of scaled midranks for observations i and j."""
    return float(ranks[i] - ranks[j])


def omega_indicator(a: Observation, b: Observation) -> int:
    """1 iff the two observation windows strictly overlap (truncation-only rule)."""
    return int(max(a.entry, b.entry) < min(a.exit, b.exit))


def lambda_indicator(a: Observation, b: Observation) -> int:
    """1 iff the windows overlap and the earlier exit is an observed failure."""
    if not max(a.entry, b.entry) < min(a.exit, b.exit):
        return 0
    if a.event and b.event:
        return 1
    if a.event and b.exit > a.exit:
        return 1
    if b.event and a.exit > b.exit:
        return 1
    return 0


class RiskSets:
    """Pointwise risk-set queries over a dataset."""

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


def rankstar_score_per_event(data: Dataset) -> float:
    """The rank-in-risk-set score, one event and one n x n rank matrix at a time.

    Each event contributes Y(T_i) * (R*_i - mean R* over the risk set), with
    R* the within-risk-set entry rank (counted from above) over the risk-set
    size; this is R_i(T_i) - (Y(T_i) + 1) / 2 when at-risk entries are
    distinct. O(events * n^2) time.
    """
    at = (data.entry[:, None] < data.exit[None, :]) & (data.exit[None, :] <= data.exit[:, None])
    total = 0.0
    for i in np.flatnonzero(data.event == 1):
        risk = at[:, i]
        y = int(risk.sum())
        ranks = 1 + (risk[None, :] & (data.entry[None, :] > data.entry[:, None])).sum(axis=1)
        rstar = ranks / y
        total += y * (rstar[i] - rstar[risk].sum() / y)
    return float(total)


def covariate_score_pairwise(data: Dataset, a) -> float:
    """-1/2 sum_ij (a_i - a_j) sign(T_i - T_j) lambda_ij over the dense n x n matrices.

    The covariate score's comparable-pair form; it equals the risk-set score
    when no two exits are tied. O(n^2) memory.
    """
    av = a(data.entry)
    sgn = np.sign(np.subtract.outer(data.exit, data.exit))
    return -0.5 * float(np.sum(np.subtract.outer(av, av) * sgn * lambda_matrix(data)))


def phi_hat_bruteforce(data: Dataset, g, h, censored_mode: bool = False) -> float:
    """Direct enumeration of a_ij a_ik over ordered triples.

    Materializes the full triple product tensor and masks the excluded index
    patterns, so it shares no algebra with the row-sum path. O(n^3) memory;
    intended for small n.
    """
    if data.n < 3:
        raise DegenerateDataset("variance estimation needs at least three observations")
    a = pair_products(data, g, h, censored_mode)
    n = a.shape[0]
    t = a[:, :, None] * a[:, None, :]  # t[i, j, k] = a_ij a_ik
    idx = np.arange(n)
    t[idx, idx, :] = 0.0  # j == i
    t[idx, :, idx] = 0.0  # k == i
    t[:, idx, idx] = 0.0  # j == k
    return float(t.sum()) / (n * (n - 1) * (n - 2))


_GL_NODES, _GL_WEIGHTS = leggauss(48)


def sigma_xy(tables, t: float, proc_x, proc_y) -> float:
    """Covariance of two entry-time processes under the at-risk entry density at time t > 0.

    ``tables`` is a ``qitest.efficacy._ModelTables``; ``proc_x``/``proc_y``
    map arrays of entry times to process values. The moments are composite
    48-point Gauss-Legendre sums of ``tables.entry_density`` over 256 equal
    panels of (0, min(t, l_max)), so the endpoints are never sampled, each
    divided by the same rule's integral of the density. This is a second
    quadrature of what the moment rows give by lookup.
    """
    edges = np.linspace(0.0, min(t, tables.l_max), 257)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    nodes = (mid[:, None] + half[:, None] * _GL_NODES[None, :]).ravel()
    wts = (half[:, None] * _GL_WEIGHTS[None, :]).ravel() * tables.entry_density(t, nodes)
    x = np.asarray(proc_x(nodes), dtype=float)
    y = np.asarray(proc_y(nodes), dtype=float)
    z = float(np.sum(wts))
    ex, ey, exy = (float(np.sum(wts * v)) / z for v in (x, y, x * y))
    return exy - ex * ey
