import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qitest.coxscore import cox_score_covariate, cox_score_rankstar
from qitest.data import Dataset
from qitest.errors import DomainError
from qitest.kernels import Kernel
from qitest.teststat import u_numerator

from oracles import RiskSets, covariate_score_pairwise, rankstar_score_per_event

TRANSFORMS = {"identity": lambda x: x, "exp": np.exp, "cube": lambda x: x**3}


def peak_bytes(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestCovariateScore:
    def test_hand_example(self, toy_censored):
        assert cox_score_covariate(toy_censored, lambda x: x) == pytest.approx(-1.5)

    def test_constant_covariate_vanishes(self, make_dataset):
        data = make_dataset(50, censored=True)
        assert cox_score_covariate(data, lambda x: np.full_like(x, 7.0)) == pytest.approx(0.0)

    def test_all_censored_vanishes(self, rng):
        entry = rng.exponential(1.0, 30)
        data = Dataset(entry, entry + rng.exponential(1.0, 30), np.zeros(30, int))
        assert cox_score_covariate(data, lambda x: x) == 0.0
        assert cox_score_rankstar(data) == 0.0

    @pytest.mark.parametrize("a", [lambda x: x, np.exp, lambda x: x**3])
    def test_pairwise_identity(self, make_dataset, a):
        for _ in range(5):
            data = make_dataset(60, censored=True)
            score = cox_score_covariate(data, a)
            expected = covariate_score_pairwise(data, a)
            assert score == pytest.approx(expected, rel=1e-12, abs=1e-10)
            pairwise = cox_score_covariate(data, a, method="pairwise")
            assert pairwise == pytest.approx(expected, rel=1e-12, abs=1e-10)

    def test_sweep_equals_direct(self, make_dataset):
        for round_to in (None, 1):  # rounded data has ties
            data = make_dataset(45, censored=True, round_to=round_to)
            s = cox_score_covariate(data, np.exp, method="sweep")
            d = cox_score_covariate(data, np.exp, method="direct")
            assert s == pytest.approx(d, rel=1e-12, abs=1e-10)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 60), st.sampled_from([0, 1, 2, None]), st.floats(0.0, 1.0),
           st.sampled_from(sorted(TRANSFORMS)), st.integers(0, 2**32 - 1))
    def test_counting_forms_equal_their_oracles(self, n, decimals, censoring, transform, seed):
        """Rounding to 0-2 decimals ties entries and exits; censoring runs 0-100%."""
        rng = np.random.default_rng(seed)
        entry, gap = rng.exponential(1.0, n), rng.exponential(2.0, n)
        if decimals is not None:
            entry, gap = np.round(entry, decimals), np.round(gap, decimals) + 10.0**-decimals
        event = (rng.random(n) >= censoring).astype(int)
        data = Dataset(entry, entry + gap, event)
        a = TRANSFORMS[transform]
        direct = cox_score_covariate(data, a, method="direct")
        assert cox_score_covariate(data, a, method="sweep") == pytest.approx(direct, rel=1e-12, abs=1e-10)
        pairwise = covariate_score_pairwise(data, a)
        assert cox_score_covariate(data, a, method="pairwise") == pytest.approx(pairwise, rel=1e-12, abs=1e-10)
        all_censored = Dataset(entry, entry + gap, np.zeros(n, int))
        assert cox_score_covariate(all_censored, a, method="sweep") == 0.0
        assert cox_score_covariate(all_censored, a, method="pairwise") == 0.0

    @pytest.mark.parametrize("method", ["sweep", "pairwise"])
    def test_counting_forms_peak_below_n_squared_bytes(self, make_dataset, method):
        data = make_dataset(5000, censored=True, round_to=2)
        assert peak_bytes(lambda: cox_score_covariate(data, np.exp, method=method)) < data.n**2

    def test_equal_entries_zero_score(self, rng):
        exits = 1.0 + rng.exponential(1.0, 20)
        data = Dataset(np.zeros(20), exits, np.ones(20, int))
        assert cox_score_covariate(data, lambda x: x) == pytest.approx(0.0)

    @pytest.mark.parametrize("method", ["sweep", "direct", "pairwise"])
    @pytest.mark.parametrize("a", [
        lambda x: np.where(x > 1.0, np.nan, x),  # NaN for one subject
        lambda x: np.where(x > 1.0, np.inf, x),
        lambda x: 1.0,  # scalar, not one value per subject
        lambda x: x[:-1],  # one value short
        lambda x: np.stack([x, x]),
    ], ids=["nan", "inf", "scalar", "short", "2d"])
    def test_bad_covariate_values_raise(self, toy_censored, a, method):
        with pytest.raises(DomainError, match="covariate"):
            cox_score_covariate(toy_censored, a, method=method)

    @pytest.mark.parametrize("method", ["sweep", "direct", "pairwise"])
    def test_overflowing_covariate_raises_without_a_warning(self, method):
        # np.exp overflows past about 709, e.g. on ages in months
        data = Dataset(np.array([500.0, 700.0, 800.0]), np.array([900.0, 950.0, 1000.0]), np.array([1, 0, 1]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="non-finite"):
                cox_score_covariate(data, np.exp, method=method)


class TestRankStarScore:
    def test_hand_example(self, toy_censored):
        assert cox_score_rankstar(toy_censored) == pytest.approx(0.5)

    def test_half_pair_sum_identity(self, make_dataset):
        # the rank-in-risk-set score equals half the sign/sign pair sum over
        # comparable pairs (ranks counted from above)
        for _ in range(6):
            data = make_dataset(70, censored=True)
            score = cox_score_rankstar(data)
            half_u = 0.5 * u_numerator(data, Kernel.SIGN, Kernel.SIGN, censored_mode=True)
            assert score == pytest.approx(half_u, rel=1e-12, abs=1e-10)

    def test_two_disjoint_subjects(self):
        data = Dataset([0.0, 5.0], [1.0, 6.0], [1, 1])
        # no overlap: every risk set is a singleton, so both sides vanish
        assert cox_score_rankstar(data) == 0.0
        assert u_numerator(data, "sign", "sign", censored_mode=True) == 0.0

    def test_sweep_equals_direct_with_ties(self, make_dataset):
        data = make_dataset(50, censored=True, round_to=1)
        s = cox_score_rankstar(data, method="sweep")
        d = cox_score_rankstar(data, method="direct")
        assert s == pytest.approx(d, rel=1e-12, abs=1e-10)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 60), st.sampled_from([0, 1, 2, None]), st.floats(0.0, 1.0),
           st.integers(0, 2**32 - 1))
    def test_direct_equals_per_event_oracle(self, n, decimals, censoring, seed):
        """Rounding to 0-2 decimals ties entries and exits; censoring runs 0-100%."""
        rng = np.random.default_rng(seed)
        entry, gap = rng.exponential(1.0, n), rng.exponential(2.0, n)
        if decimals is not None:
            entry, gap = np.round(entry, decimals), np.round(gap, decimals) + 10.0**-decimals
        event = (rng.random(n) >= censoring).astype(int)
        data = Dataset(entry, entry + gap, event)
        want = rankstar_score_per_event(data)
        assert cox_score_rankstar(data, method="direct") == pytest.approx(want, rel=1e-12, abs=1e-10)
        all_censored = Dataset(entry, entry + gap, np.zeros(n, int))
        assert cox_score_rankstar(all_censored, method="direct") == 0.0

    def test_sweep_equals_direct_at_month_tied_n_2000(self):
        """Ages in years rounded to months, about half censored, as in the Channing data."""
        rng = np.random.default_rng(2000)
        m = 2400
        entry = rng.uniform(61.0, 95.0, m)
        death = entry + rng.exponential(8.0, m)
        censor = entry + rng.uniform(0.0, 12.0, m)
        exit_ = np.round(np.minimum(death, censor) * 12.0) / 12.0
        entry = np.round(entry * 12.0) / 12.0
        keep = np.flatnonzero(entry < exit_)[:2000]
        data = Dataset(entry[keep], exit_[keep], (death <= censor)[keep].astype(int))
        assert data.n == 2000 and 0.3 < data.censored_fraction < 0.7
        assert data.tie_counts()[0] > 1000 and data.tie_counts()[1] > 1000
        s = cox_score_rankstar(data, method="sweep")
        d = cox_score_rankstar(data, method="direct")
        assert s == pytest.approx(d, rel=1e-12, abs=1e-10)

    def test_direct_peak_memory_within_the_covariate_direct_form(self, make_dataset):
        """cox-check runs both direct forms on one file; the covariate's sets its peak."""
        data = make_dataset(5000, censored=True)
        rank = peak_bytes(lambda: cox_score_rankstar(data, method="direct"))
        covariate = peak_bytes(lambda: cox_score_covariate(data, lambda x: x, method="direct"))
        assert rank <= covariate


class TestRiskSets:
    def test_membership_and_rank(self, toy_censored):
        rs = RiskSets(toy_censored)
        np.testing.assert_array_equal(rs.at_risk(3.0), [0, 2])
        assert rs.size(3.0) == 2
        assert rs.rank(0, 3.0) == 2  # one at-risk entry (1.5) exceeds 0.0
        assert rs.rank(2, 3.0) == 1

    def test_rank_sum_identity(self, make_dataset):
        # with distinct entries, at-risk ranks sum to y(y+1)/2
        data = make_dataset(40, censored=True)
        rs = RiskSets(data)
        for t in np.quantile(data.exit, [0.25, 0.5, 0.9]):
            members = rs.at_risk(float(t))
            y = members.size
            if y == 0:
                continue
            total = sum(rs.rank(int(i), float(t)) for i in members)
            assert total == y * (y + 1) // 2
