"""Comparable-pair indicators for truncated and truncated-censored samples.

Two subjects are comparable when their observation windows overlap:

* truncation only:   max(entry_1, entry_2) < min(exit_1, exit_2)
* with censoring:    the windows overlap AND the smaller exit is an observed
                     failure (both are failures, or the earlier exit has
                     event = 1).

Inequalities are strict, so boundary contact and empty windows never form a
comparable pair; with tied exits only double failures qualify. The n-by-n
matrices are the definitional forms; counts and row sums over comparable
pairs come from ``rowsums`` without them.
"""

from __future__ import annotations

import numpy as np

from .data import Dataset
from .rowsums import row_sums


def omega_matrix(data: Dataset) -> np.ndarray:
    """Boolean n-by-n matrix of pairwise window overlap; diagonal is False.

    Since entry < exit for every subject, the windows of i and j overlap
    exactly when L_i < T_j and L_j < T_i.
    """
    out = (data.entry[:, None] < data.exit[None, :]) & (data.entry[None, :] < data.exit[:, None])
    np.fill_diagonal(out, False)
    return out


def lambda_matrix(data: Dataset) -> np.ndarray:
    """Boolean n-by-n censoring-aware comparability matrix; diagonal is False."""
    out = omega_matrix(data)
    d = data.event == 1
    earlier = data.exit[:, None] < data.exit[None, :]
    # both are failures, or the earlier exit is a failure (i first, or j first)
    out &= (d[:, None] & (d[None, :] | earlier)) | (d[None, :] & earlier.T)
    return out


def comparable_matrix(data: Dataset, censored_mode: bool) -> np.ndarray:
    return lambda_matrix(data) if censored_mode else omega_matrix(data)


def count_comparable(data: Dataset, censored_mode: bool = False) -> int:
    """Number of unordered comparable pairs (at most n(n-1)/2), in O(n log n)."""
    return int(row_sums(data, [], censored_mode)[0].sum()) // 2
