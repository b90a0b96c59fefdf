"""The row-sum engine against the dense definitional forms.

Counts and sign/sign row sums are integers, so they must match exactly. The
other kernel pairs are sums of floating-point products taken in another
order; they must agree to 1e-12 of the row's scale, n max|g h| + sum_j |a_ij|
(a bare relative tolerance fails on rows that are exactly 0).
"""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qitest.comparability import comparable_matrix, count_comparable
from qitest.data import Dataset
from qitest.errors import DegenerateDataset
from qitest.kernels import Kernel, pair_matrix, rank_transform
from qitest.rowsums import row_sums
from qitest.teststat import (STANDARD_PAIRS, kappa_hat, pair_products, phi_hat_fast,
                             run_test_grid, u_numerator)

ALL_PAIRS = list(itertools.product(Kernel, Kernel))
TOL = 1e-12


@st.composite
def datasets(draw):
    """3 to 60 subjects, times rounded to 0-2 decimals (ties), 0-95% censored."""
    n = draw(st.integers(3, 60))
    decimals = draw(st.integers(0, 2))
    censoring = draw(st.floats(0.0, 0.95))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    entry = np.round(rng.exponential(1.0, n), decimals)
    exit_ = entry + np.round(rng.exponential(2.0, n), decimals) + 10.0**-decimals
    event = (rng.random(n) >= censoring).astype(int)
    return Dataset(entry, exit_, event)


def assert_rows_close(got, want, scale):
    assert np.all(np.abs(got - want) <= TOL * scale), np.max(np.abs(got - want) / scale)


def kernel_range(data, g, h):
    """An upper bound on |g h| over all pairs: the product of the kernels' ranges."""
    def spread(kind, values):
        if kind is Kernel.SIGN:
            return 1.0
        if kind is Kernel.LINEAR:
            return np.ptp(values)
        return np.ptp(rank_transform(values))

    return spread(g, data.entry) * spread(h, data.exit)


@settings(max_examples=150, deadline=None)
@given(datasets(), st.booleans())
def test_engine_matches_dense(data, censored):
    count, sums = row_sums(data, ALL_PAIRS, censored)
    np.testing.assert_array_equal(count, comparable_matrix(data, censored).sum(axis=1))
    n = data.n
    for g, h in ALL_PAIRS:
        a = pair_products(data, g, h, censored)
        r, r_sq = sums[(g, h)]
        if g is Kernel.SIGN and h is Kernel.SIGN:
            np.testing.assert_array_equal(r, a.sum(axis=1))
            np.testing.assert_array_equal(r_sq, (a * a).sum(axis=1))
            continue
        gh = np.abs(pair_matrix(g, data.entry) * pair_matrix(h, data.exit)).max()
        assert_rows_close(r, a.sum(axis=1), n * gh + np.abs(a).sum(axis=1))
        assert_rows_close(r_sq, (a * a).sum(axis=1), n * gh**2 + (a * a).sum(axis=1))


@settings(max_examples=50, deadline=None)
@given(datasets(), st.booleans())
def test_entry_points_match_dense(data, censored):
    n = data.n
    assert count_comparable(data, censored) == comparable_matrix(data, censored).sum() // 2
    for g, h in STANDARD_PAIRS:
        a = pair_products(data, g, h, censored)
        r, r_sq = a.sum(axis=1), (a * a).sum(axis=1)
        # the row tolerances above, summed: |r_i| and sqrt(r_sq_i) are below the row scale
        scale = n * kernel_range(data, g, h) + np.abs(a).sum(axis=1)
        assert u_numerator(data, g, h, censored) == pytest.approx(
            r.sum() / 2, rel=0, abs=TOL * scale.sum())
        assert phi_hat_fast(data, g, h, censored) == pytest.approx(
            np.sum(r * r - r_sq) / (n * (n - 1) * (n - 2)),
            rel=0, abs=3 * TOL * np.sum(scale**2) / (n * (n - 1) * (n - 2)))


def test_tiny_tied_and_all_censored():
    one = Dataset([0.0], [1.0])
    assert count_comparable(one) == 0
    assert row_sums(one, ALL_PAIRS, True)[0].tolist() == [0]
    two = Dataset([0.0, 0.5], [2.0, 2.0], [1, 0])
    assert count_comparable(two, censored_mode=False) == 1
    assert count_comparable(two, censored_mode=True) == 0  # tied exits need two failures
    # all entries tied, or all exits tied: every kernel pair product is exactly 0
    for tied in (Dataset([0.1] * 3, [0.7, 1.3, 2.9]), Dataset([0.1, 0.5, 0.9], [1.1] * 3)):
        sums = row_sums(tied, ALL_PAIRS, False)[1]
        assert all(not r.any() and not r_sq.any() for r, r_sq in sums.values())
    dead = Dataset([0.0, 0.2, 0.4, 0.6], [3.0, 2.0, 2.5, 1.0], [0, 0, 0, 0])
    count, sums = row_sums(dead, ALL_PAIRS, True)
    assert not count.any()
    assert all(not r.any() and not r_sq.any() for r, r_sq in sums.values())
    with pytest.raises(DegenerateDataset):
        run_test_grid(dead, STANDARD_PAIRS, censored_mode=True)


def month_tied(rng, n):
    """Ages in years rounded to whole months, about half censored."""
    entry = np.round(rng.uniform(61.0, 95.0, n) * 12) / 12
    exit_ = entry + np.round(rng.exponential(8.0, n) * 12) / 12 + 1 / 12
    return Dataset(entry, exit_, (rng.random(n) < 0.5).astype(int))


def dense_row(data, i, g, h, censored):
    """Row i of the pair products, straight from the comparability rule."""
    L, T, d = data.entry, data.exit, data.event == 1
    comparable = (L[i] < T) & (L < T[i])
    if censored:
        comparable &= (d[i] & d) | (d[i] & (T[i] < T)) | (d & (T < T[i]))
    comparable[i] = False

    def kernel(kind, values):
        if kind is Kernel.SIGN:
            return np.sign(values[i] - values)
        if kind is Kernel.LINEAR:
            return values[i] - values
        ranks = rank_transform(values)
        return ranks[i] - ranks

    return np.where(comparable, kernel(g, L) * kernel(h, T), 0.0), comparable


def test_large_tied_censored_rows():
    """n = 20 000, where one dense float matrix takes 3.2 GB: sampled rows are exact."""
    rng = np.random.default_rng(7)
    data = month_tied(rng, 20_000)
    count, sums = row_sums(data, ALL_PAIRS, True)
    for i in rng.choice(data.n, 40, replace=False):
        for g, h in ALL_PAIRS:
            a, comparable = dense_row(data, i, g, h, True)
            assert count[i] == comparable.sum()
            r, r_sq = sums[(g, h)][0][i], sums[(g, h)][1][i]
            if g is Kernel.SIGN and h is Kernel.SIGN:
                assert (r, r_sq) == (a.sum(), (a * a).sum())
            else:
                gh = kernel_range(data, g, h)
                assert r == pytest.approx(a.sum(), rel=0, abs=TOL * (data.n * gh + np.abs(a).sum()))
                assert r_sq == pytest.approx((a * a).sum(), rel=0,
                                             abs=TOL * (data.n * gh**2 + (a * a).sum()))
    grid = run_test_grid(data, STANDARD_PAIRS, censored_mode=True)
    assert all(np.isfinite(res.chi_square) for res in grid.values())


def test_rank_rows_stay_float_at_large_n():
    # (2n)^4, the rank/rank divisor of r_sq, is past the 64-bit integers at n = 40 000
    data = month_tied(np.random.default_rng(3), 40_000)
    r, r_sq = row_sums(data, [(Kernel.RANK, Kernel.RANK)], False)[1][(Kernel.RANK, Kernel.RANK)]
    assert r.dtype == r_sq.dtype == np.float64


def test_no_square_allocation():
    """Every test entry point stays far below one boolean n-by-n mask."""
    data = month_tied(np.random.default_rng(11), 6000)
    calls = [lambda: run_test_grid(data, ALL_PAIRS, censored_mode=True),
             lambda: kappa_hat(data, "sign", "sign", censored_mode=True),
             lambda: u_numerator(data, "rank", "linear"),
             lambda: phi_hat_fast(data, "linear", "sign", censored_mode=True),
             lambda: count_comparable(data, censored_mode=True)]
    for call in calls:
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < data.n**2, f"peak {peak / 2**20:.1f} MB"
