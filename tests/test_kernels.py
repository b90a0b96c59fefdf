import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import rankdata

from qitest.kernels import Kernel, eval_linear, eval_rank_kernel, eval_sign, pair_matrix, rank_transform

finite = st.floats(allow_nan=False, allow_infinity=False, width=64, min_value=-1e12, max_value=1e12)


def test_sign_examples():
    assert eval_sign(3, 2) == 1
    assert eval_sign(2, 3) == -1
    assert eval_sign(5, 5) == 0


def test_linear_examples():
    assert eval_linear(0, 1) == -1
    assert eval_linear(2.5, 2.5) == 0
    assert eval_linear(7, 3) == 4


def test_rank_transform_examples():
    np.testing.assert_allclose(rank_transform([0, 1, 2]), [1 / 3, 2 / 3, 1.0])
    np.testing.assert_allclose(rank_transform([2, 0, 1]), [1.0, 1 / 3, 2 / 3])
    np.testing.assert_allclose(rank_transform([1, 1, 3]), [0.5, 0.5, 1.0])


def test_rank_transform_rejects_empty():
    with pytest.raises(ValueError):
        rank_transform([])


@settings(max_examples=300)
@given(st.integers(1, 300), st.integers(0, 3), st.integers(0, 2**32 - 1))
def test_midranks_equal_rankdata_bit_for_bit(n, decimals, seed):
    """Ties come from rounding; n = 1 and all-tied samples are among the draws."""
    values = np.round(np.random.default_rng(seed).normal(0.0, 3.0, n), decimals)
    want = rankdata(values) / n
    got = rank_transform(values)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    tied = np.full(n, values[0])
    assert rank_transform(tied).tobytes() == (rankdata(tied) / n).tobytes()


def test_midranks_of_nan_and_infinities_follow_rankdata():
    for values in ([1.0, np.nan, 0.0], [np.inf, -np.inf, 0.0, np.inf]):
        want = rankdata(values) / len(values)
        np.testing.assert_array_equal(rank_transform(values), want)


def test_rank_kernel_examples():
    ranks = np.array([1 / 3, 2 / 3, 1.0])
    assert eval_rank_kernel(ranks, 0, 1) == pytest.approx(-1 / 3)
    assert eval_rank_kernel(ranks, 2, 2) == 0
    tied = np.array([0.5, 0.5, 1.0])
    assert eval_rank_kernel(tied, 0, 1) == 0


@given(finite, finite)
def test_skew_symmetry_pointwise(s, t):
    assert eval_sign(s, t) + eval_sign(t, s) == 0
    assert eval_linear(s, t) + eval_linear(t, s) == 0


@given(st.lists(finite, min_size=2, max_size=30), st.data())
def test_rank_kernel_skew_symmetry(values, data):
    ranks = rank_transform(values)
    i = data.draw(st.integers(0, len(values) - 1))
    j = data.draw(st.integers(0, len(values) - 1))
    assert eval_rank_kernel(ranks, i, j) + eval_rank_kernel(ranks, j, i) == 0


@pytest.mark.parametrize("kind", list(Kernel))
def test_pair_matrix_skew_symmetric(kind, rng):
    v = rng.normal(size=40)
    m = pair_matrix(kind, v)
    np.testing.assert_allclose(m + m.T, 0, atol=0)
    assert np.all(np.diag(m) == 0)


def test_pair_product_symmetry(rng):
    # swapping i and j flips both factors, so their product is symmetric
    v = rng.normal(size=25)
    w = rng.normal(size=25)
    for g in Kernel:
        for h in Kernel:
            prod = pair_matrix(g, v) * pair_matrix(h, w)
            np.testing.assert_array_equal(prod, prod.T)


def test_monotone_transform_invariance(rng):
    v = rng.normal(size=60)
    grow = np.expm1(v) + 3.0 * v  # strictly increasing
    assert np.array_equal(pair_matrix(Kernel.SIGN, v), pair_matrix(Kernel.SIGN, grow))
    assert np.array_equal(pair_matrix(Kernel.RANK, v), pair_matrix(Kernel.RANK, grow))
    assert not np.allclose(pair_matrix(Kernel.LINEAR, v), pair_matrix(Kernel.LINEAR, grow))


def test_kernel_parsing():
    assert Kernel.parse("Sign") is Kernel.SIGN
    assert Kernel.parse(" LINEAR ") is Kernel.LINEAR
    assert Kernel.parse(Kernel.RANK) is Kernel.RANK
    with pytest.raises(ValueError, match="unknown kernel"):
        Kernel.parse("cubic")
