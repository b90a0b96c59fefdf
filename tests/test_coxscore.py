import numpy as np
import pytest

from qitest.comparability import lambda_matrix
from qitest.coxscore import RiskSets, cox_score_covariate, cox_score_rankstar
from qitest.data import Dataset
from qitest.kernels import Kernel
from qitest.teststat import u_numerator


def pairwise_covariate_form(data, a):
    lam = lambda_matrix(data)
    diff = np.subtract.outer(a(data.entry), a(data.entry))
    sgn = np.sign(np.subtract.outer(data.exit, data.exit))
    return -0.5 * float(np.sum(diff * sgn * lam))


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
            expected = pairwise_covariate_form(data, a)
            assert score == pytest.approx(expected, rel=1e-12, abs=1e-10)
            pairwise = cox_score_covariate(data, a, method="pairwise")
            assert pairwise == pytest.approx(expected, rel=1e-12, abs=1e-10)

    def test_sweep_equals_direct(self, make_dataset):
        for round_to in (None, 1):  # rounded data has ties
            data = make_dataset(45, censored=True, round_to=round_to)
            s = cox_score_covariate(data, np.exp, method="sweep")
            d = cox_score_covariate(data, np.exp, method="direct")
            assert s == pytest.approx(d, rel=1e-12, abs=1e-10)

    def test_equal_entries_zero_score(self, rng):
        exits = 1.0 + rng.exponential(1.0, 20)
        data = Dataset(np.zeros(20), exits, np.ones(20, int))
        assert cox_score_covariate(data, lambda x: x) == pytest.approx(0.0)


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
