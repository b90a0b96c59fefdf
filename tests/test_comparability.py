import numpy as np
import pytest
from hypothesis import given, strategies as st

from qitest.comparability import count_comparable, lambda_matrix, omega_matrix
from qitest.data import Dataset, Observation

from oracles import lambda_indicator, omega_indicator

times = st.floats(min_value=0.0, max_value=100.0, allow_nan=False)


def obs(entry, exit, event=1):
    return Observation(entry, exit, event)


def test_omega_examples():
    assert omega_indicator(obs(0, 3), obs(1, 2)) == 1
    assert omega_indicator(obs(0, 1), obs(2, 3)) == 0
    assert omega_indicator(obs(0, 2), obs(2, 3)) == 0  # boundary contact fails
    # windows (0,2) and (1,2) overlap on (1,2): comparable even with tied exits
    assert omega_indicator(obs(0, 2), obs(1, 2)) == 1


def test_lambda_examples():
    assert lambda_indicator(obs(0, 3, 1), obs(1, 2, 0)) == 0  # earlier exit censored
    assert lambda_indicator(obs(0, 3, 1), obs(1.5, 4, 1)) == 1
    # with two events the censoring-aware rule reduces to window overlap
    a, b = obs(0, 3, 1), obs(1, 2, 1)
    assert lambda_indicator(a, b) == omega_indicator(a, b) == 1


def test_count_comparable_examples(toy_uncensored, toy_censored):
    assert count_comparable(toy_uncensored, censored_mode=False) == 2
    assert count_comparable(Dataset([0.0], [1.0]), censored_mode=False) == 0
    assert count_comparable(toy_censored, censored_mode=True) == 1


@given(times, times, times, times, st.integers(0, 1), st.integers(0, 1))
def test_pairwise_symmetry(e1, d1, e2, d2, ev1, ev2):
    a = obs(e1, e1 + d1 + 0.25, ev1)
    b = obs(e2, e2 + d2 + 0.25, ev2)
    assert omega_indicator(a, b) == omega_indicator(b, a)
    assert lambda_indicator(a, b) == lambda_indicator(b, a)
    # the censoring-aware event implies window overlap
    if lambda_indicator(a, b):
        assert max(a.entry, b.entry) < min(a.exit, b.exit)


def test_uncensored_reduction(make_dataset):
    data = make_dataset(80, censored=False)
    np.testing.assert_array_equal(lambda_matrix(data), omega_matrix(data))


def test_matrices_match_scalar_rule(make_dataset):
    data = make_dataset(40, censored=True)
    om = omega_matrix(data)
    lam = lambda_matrix(data)
    for i in range(data.n):
        for j in range(data.n):
            if i == j:
                assert not om[i, j] and not lam[i, j]
            else:
                assert om[i, j] == bool(omega_indicator(data[i], data[j]))
                assert lam[i, j] == bool(lambda_indicator(data[i], data[j]))


def test_common_monotone_transform_invariance(make_dataset):
    data = make_dataset(60, censored=True)
    warp = lambda t: np.expm1(0.5 * t) + 2.0 * t
    warped = Dataset(warp(data.entry), warp(data.exit), data.event)
    np.testing.assert_array_equal(omega_matrix(data), omega_matrix(warped))
    np.testing.assert_array_equal(lambda_matrix(data), lambda_matrix(warped))


def test_tied_exits_need_double_event():
    # same exit time: only the both-events clause can make the pair comparable
    a, b = obs(0.0, 2.0, 1), obs(0.5, 2.0, 0)
    assert lambda_indicator(a, b) == 0
    assert lambda_indicator(obs(0.0, 2.0, 1), obs(0.5, 2.0, 1)) == 1
