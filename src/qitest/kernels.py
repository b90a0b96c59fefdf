"""Skew-symmetric pair kernels and the midrank transform.

Three bivariate kernels are supported, each satisfying k(s, t) = -k(t, s):

* ``sign``   -- sign(s - t), with sign(0) = 0, so tied pairs contribute zero;
* ``linear`` -- s - t;
* ``rank``   -- midrank(s)/n - midrank(t)/n, computed against a fixed sample.

The rank kernel is the only one that needs a dataset-level precomputation
(one ranking pass per value sequence); the other two are pointwise.
"""

from __future__ import annotations

import enum

import numpy as np


class Kernel(enum.Enum):
    """Kernel identifiers, parseable from case-insensitive strings."""

    SIGN = "sign"
    LINEAR = "linear"
    RANK = "rank"

    @classmethod
    def parse(cls, name: "Kernel | str") -> "Kernel":
        if isinstance(name, Kernel):
            return name
        try:
            return cls(name.strip().lower())
        except ValueError:
            valid = ", ".join(k.value for k in cls)
            raise ValueError(f"unknown kernel {name!r}; expected one of: {valid}") from None


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


def rank_transform(values) -> np.ndarray:
    """Midranks of ``values`` scaled to (0, 1].

    Distinct values receive a permutation of 1/n, 2/n, ..., n/n; ties share
    the average of the ranks they span, so tied entries have equal output.
    The midrank of v is (#{values < v} + #{values <= v} + 1) / 2, so the
    result equals ``scipy.stats.rankdata(values) / n`` bit for bit (one
    rounding of the same ratio); a NaN anywhere makes every output NaN, as
    there.
    """
    values = np.asarray(values, dtype=float).ravel()
    n = values.size
    if n == 0:
        raise ValueError("rank_transform needs a non-empty sequence")
    if np.isnan(values).any():
        return np.full(n, np.nan)
    s = np.sort(values)
    return (np.searchsorted(s, values, "left") + np.searchsorted(s, values, "right") + 1) / (2 * n)


def eval_rank_kernel(ranks: np.ndarray, i: int, j: int) -> float:
    """Difference of scaled midranks for observations i and j."""
    return float(ranks[i] - ranks[j])


def pair_matrix(kind: Kernel, values: np.ndarray, ranks: np.ndarray | None = None) -> np.ndarray:
    """n-by-n matrix of kernel evaluations k(values[i], values[j]).

    For the rank kernel, ``ranks`` must be the precomputed midrank transform
    of the same value sequence.
    """
    kind = Kernel.parse(kind)
    if kind is Kernel.SIGN:
        return np.sign(np.subtract.outer(values, values))
    if kind is Kernel.LINEAR:
        return np.subtract.outer(values, values)
    if ranks is None:
        ranks = rank_transform(values)
    return np.subtract.outer(ranks, ranks)
