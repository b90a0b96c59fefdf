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


def parse_member(cls: type[enum.Enum], name, noun: str):
    """The member of the string-valued enum ``cls`` that ``name`` is or names.

    A string names the member whose value it is, in any case and with
    surrounding spaces. Anything else raises ValueError naming the valid
    values; ``noun`` says what kind of name was expected.
    """
    if isinstance(name, cls):
        return name
    try:
        return cls(name.strip().lower())
    except (AttributeError, ValueError):  # AttributeError: not a string
        valid = ", ".join(m.value for m in cls)
        raise ValueError(f"unknown {noun} {name!r}; expected one of: {valid}") from None


class Kernel(enum.Enum):
    """Kernel identifiers, parseable from case-insensitive strings."""

    SIGN = "sign"
    LINEAR = "linear"
    RANK = "rank"

    @classmethod
    def parse(cls, name: "Kernel | str") -> "Kernel":
        return parse_member(cls, name, "kernel")


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
