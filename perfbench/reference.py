"""Reference values and reference computations for the output checks.

Every check that feeds the error rate compares an output of qitest with a
value kept here. The sources are:

* ``ARE_LINEAR_MODEL``: the efficiency-ratio table of the source paper for
  the linear-covariate model, as printed (the exponential block prints the
  (0, 1) censoring column twice, with slightly different values). Tolerance:
  relative 5%, the tolerance of the repository's acceptance criterion 6.
* ``CHANNING``: the published (statistic, p) pairs of the source paper's
  Channing House analysis, association table and reversed-role table.
  Tolerances: absolute 0.1 on the statistic and 0.005 on p, and p < 1e-7
  where the paper prints none; those of acceptance criterion 7.
* ``covariate_score_pairwise`` and ``rankstar_score_reference``: the
  pairwise and risk-set forms of the two Cox score statistics, written from
  their definitions in ``qitest.coxscore`` and computed here without calling
  qitest, so they are independent of the code they check.
"""

from __future__ import annotations

import math

import numpy as np

ARE_REL_TOL = 0.05

#: (entry law, (psi0, psi1)) -> {entry kernel: published ratios vs sign/sign}
ARE_LINEAR_MODEL = {
    ("exponential", (0.0, 1.0)): {"rank": (1.162, 1.210), "linear": (1.721, 1.800)},
    ("exponential", (1.0, 1.0)): {"rank": (1.325,), "linear": (1.769,)},
    ("uniform", (0.0, 0.0)): {"rank": (0.998,), "linear": (0.998,)},
    ("uniform", (0.0, 1.0)): {"rank": (1.047,), "linear": (1.047,)},
    ("uniform", (1.0, 1.0)): {"rank": (1.116,), "linear": (1.116,)},
}

#: rows of ``are_table()``: 2 models x 6 censoring columns x 2 compared tests
ARE_ROWS = 24

STAT_ABS_TOL = 0.1
P_ABS_TOL = 0.005
P_UNPRINTED_BELOW = 1e-7

#: (group, table as named in the CLI rows) -> {(g, h): (statistic, p or None)}
CHANNING = {
    ("men", "association"): {
        ("sign", "sign"): (3.972, 0.046),
        ("linear", "sign"): (3.248, 0.072),
        ("linear", "linear"): (7.142, 0.008),
        ("rank", "sign"): (3.749, 0.053),
        ("rank", "rank"): (7.315, 0.007),
    },
    ("women", "association"): {
        ("sign", "sign"): (0.600, 0.438),
        ("linear", "sign"): (0.663, 0.416),
        ("linear", "linear"): (11.682, 0.001),
        ("rank", "sign"): (0.521, 0.469),
        ("rank", "rank"): (8.287, 0.004),
    },
    ("men", "reversed-roles"): {
        ("sign", "sign"): (5.380, 0.020),
        ("linear", "sign"): (7.490, 0.006),
        ("rank", "sign"): (7.199, 0.007),
    },
    ("women", "reversed-roles"): {
        ("sign", "sign"): (30.213, None),
        ("linear", "sign"): (37.393, None),
        ("rank", "sign"): (35.514, None),
    },
}

#: relative agreement required between two floating-point routes to one
#: statistic whose summation orders differ
SCORE_REL_TOL = 1e-9


def close(a: float, b: float, scale: float = 0.0, rel: float = SCORE_REL_TOL) -> bool:
    """Equal up to ``rel`` of max(|a|, |b|, scale): tolerance for reordered sums."""
    return math.isclose(a, b, rel_tol=rel, abs_tol=rel * scale)


def covariate_score_pairwise(entry, exit_, event, a_vals, block: int = 512) -> tuple[float, float]:
    """Pairwise form of the covariate score, exact under tied exits.

    Returns (value, scale), where scale is the sum of absolute terms. Without
    ties the value is -1/2 sum_ij (a_i - a_j) sign(T_i - T_j) lambda_ij, the
    identity of acceptance criterion 2. A pair with tied exits has sign 0 but
    still meets the risk-set definition (entry < t <= exit): an overlapping
    failure i tied with a censored j contributes a_i - a_j. Hence the second
    term, 1/2 sum over tied overlapping ordered pairs of
    (d_i - d_j)(a_i - a_j), which is zero on tie-free data. Rows are taken in
    blocks so no n-by-n float matrix is held.
    """
    L, T, a = (np.asarray(v, dtype=float) for v in (entry, exit_, a_vals))
    d = np.asarray(event) == 1
    total = 0.0
    scale = 0.0
    for lo in range(0, L.size, block):
        rows = slice(lo, lo + block)
        overlap = np.maximum(L[rows, None], L[None, :]) < np.minimum(T[rows, None], T[None, :])
        earlier = T[rows, None] < T[None, :]
        later = T[rows, None] > T[None, :]
        # comparable under censoring: both failures, or the earlier exit failed
        lam = overlap & ((d[rows, None] & d[None, :]) | (d[rows, None] & earlier)
                         | (d[None, :] & later))
        diff = a[rows, None] - a[None, :]
        sgn = later.astype(float) - earlier.astype(float)
        tied = overlap & (T[rows, None] == T[None, :])
        dd = d[rows, None].astype(float) - d[None, :].astype(float)
        terms = -0.5 * diff * sgn * lam + 0.5 * dd * diff * tied
        total += float(terms.sum())
        scale += float(np.abs(terms).sum())
    return total, scale


def rankstar_score_reference(entry, exit_, event) -> tuple[float, float]:
    """Risk-set-rank score from its definition, one risk set per failure.

    Returns (value, scale). Each failure i at T_i contributes R_i - (Y + P)/Y,
    where the risk set holds j with entry_j < T_i <= exit_j, Y is its size,
    R_i = 1 + #{j at risk: entry_j > entry_i} and P is the number of at-risk
    pairs with distinct entries. Without entry ties (Y + P)/Y = (Y + 1)/2 and
    the sum is 1/2 of the sign/sign pair sum; with ties it is not a pair sum
    at all, which is why this reference exists.
    """
    L = np.asarray(entry, dtype=float)
    T = np.asarray(exit_, dtype=float)
    total = 0.0
    scale = 0.0
    for i in np.flatnonzero(np.asarray(event) == 1):
        at = (L < T[i]) & (T[i] <= T)
        y = int(np.count_nonzero(at))
        at_entry = L[at]
        larger = int(np.count_nonzero(at_entry > L[i]))
        counts = np.unique(at_entry, return_counts=True)[1]
        distinct_pairs = (y * y - int(np.dot(counts, counts))) // 2
        term = 1 + larger - (y + distinct_pairs) / y
        total += term
        scale += abs(term)
    return total, scale
