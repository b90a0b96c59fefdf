import math

import numpy as np
import pytest

from qitest.data import Dataset
from qitest.errors import DegenerateDataset, DegenerateVariance, DomainError
from qitest.kernels import Kernel
from qitest.teststat import (
    STANDARD_PAIRS,
    _pair_and_triple_sums,
    chi2_sf1,
    chi_square_test,
    kappa_hat,
    phi_hat_fast,
    quasi_independence_test,
    reverse_roles,
    run_test_grid,
    u_numerator,
)

import oracles
from oracles import phi_hat_bruteforce


class TestUNumerator:
    def test_sign_sign_cancellation(self, toy_uncensored):
        assert u_numerator(toy_uncensored, "sign", "sign") == 0.0

    def test_linear_linear(self, toy_uncensored):
        assert u_numerator(toy_uncensored, "linear", "linear") == pytest.approx(1.0)

    def test_censored_sign_sign(self, toy_censored):
        assert u_numerator(toy_censored, "sign", "sign", censored_mode=True) == pytest.approx(1.0)


class TestKappaHat:
    def test_linear_linear(self, toy_uncensored):
        assert kappa_hat(toy_uncensored, "linear", "linear") == pytest.approx(0.5)

    def test_rank_rank(self, toy_uncensored):
        assert kappa_hat(toy_uncensored, "rank", "rank") == pytest.approx(1 / 18)

    def test_censored_sign_sign(self, toy_censored):
        assert kappa_hat(toy_censored, "sign", "sign", censored_mode=True) == pytest.approx(1.0)

    def test_no_comparable_pairs_raises(self):
        apart = Dataset([0.0, 10.0, 20.0], [1.0, 11.0, 21.0])
        with pytest.raises(DegenerateDataset):
            kappa_hat(apart, "sign", "sign")

    def test_sign_sign_bounded(self, make_dataset):
        for _ in range(10):
            data = make_dataset(30, censored=True)
            assert abs(kappa_hat(data, "sign", "sign", censored_mode=True)) <= 1.0
            assert abs(kappa_hat(data, "rank", "rank", censored_mode=True)) < 1.0


class TestPhiHat:
    # symmetric pair products 1, 2, 3 on three subjects: pair sum 6 and
    # ordered-triple sum 22, i.e. 22 / 6 averaged over the 3 * 2 * 1 triples
    HAND = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 3.0], [2.0, 3.0, 0.0]])

    def test_hand_instance(self):
        r, r_sq = self.HAND.sum(axis=1), (self.HAND**2).sum(axis=1)
        assert _pair_and_triple_sums(r, r_sq) == (6.0, 22.0)

    def test_bruteforce_hand_instance(self, monkeypatch):
        # route both paths over the same products by a tiny shim dataset: the
        # oracle through the dense matrix, the fast path through its row sums
        import qitest.teststat as ts

        a = self.HAND
        data = Dataset([0.0, 0.1, 0.2], [5.0, 5.1, 5.2])
        pair = (Kernel.SIGN, Kernel.SIGN)
        monkeypatch.setattr(oracles, "pair_products", lambda *args, **kw: a.copy())
        monkeypatch.setattr(ts, "row_sums", lambda *args, **kw: (
            (a != 0).sum(axis=1), {pair: (a.sum(axis=1), (a**2).sum(axis=1))}))
        assert phi_hat_bruteforce(data, "sign", "sign") == pytest.approx(22 / 6)
        assert ts.phi_hat_fast(data, "sign", "sign") == pytest.approx(22 / 6)
        assert ts.u_numerator(data, "sign", "sign") == 6.0

    def test_all_zero(self):
        apart = Dataset([0.0, 10.0, 20.0], [1.0, 11.0, 21.0])
        assert phi_hat_fast(apart, "sign", "sign") == 0.0
        assert phi_hat_bruteforce(apart, "sign", "sign") == 0.0

    def test_needs_three(self):
        two = Dataset([0.0, 0.5], [2.0, 2.5])
        with pytest.raises(DegenerateDataset):
            phi_hat_fast(two, "sign", "sign")
        with pytest.raises(DegenerateDataset):
            phi_hat_bruteforce(two, "sign", "sign")

    def test_fast_equals_bruteforce(self, make_dataset):
        for censored in (False, True):
            for _ in range(6):
                data = make_dataset(17, censored=censored)
                for g, h in STANDARD_PAIRS:
                    fast = phi_hat_fast(data, g, h, censored)
                    slow = phi_hat_bruteforce(data, g, h, censored)
                    if g is Kernel.SIGN and h is Kernel.SIGN:
                        assert fast == slow
                    else:
                        assert fast == pytest.approx(slow, rel=1e-12)


class TestChiSquare:
    def test_tail_values(self):
        assert chi2_sf1(3.841459) == pytest.approx(0.05, abs=1e-3)
        assert chi2_sf1(3.972) == pytest.approx(0.046, abs=5e-4)
        assert chi2_sf1(0.0) == 1.0

    def test_tail_accuracy_against_quadrature(self):
        # integrate the chi-square(1) density as an independent oracle
        from scipy.integrate import quad

        for x in (0.5, 1.0, 3.841459, 10.0, 25.0):
            oracle = quad(lambda u: math.exp(-u / 2) / math.sqrt(2 * math.pi * u), x, np.inf)[0]
            assert chi2_sf1(x) == pytest.approx(oracle, abs=1e-10)

    def test_statistic_formula(self):
        stat, p = chi_square_test(kappa=0.2, phi=0.01, pr=0.5, n=100)
        assert stat == pytest.approx(100 * 0.04 * 0.25 / 0.04)
        assert p == chi2_sf1(stat)

    @pytest.mark.parametrize("kappa, phi, pr", [
        (math.nan, 0.01, 0.5), (math.inf, 0.01, 0.5), (0.1, math.nan, 0.5),
        (0.1, math.inf, 0.5), (0.1, 0.01, math.nan), (0.1, 0.01, math.inf)])
    def test_non_finite_input_raises(self, kappa, phi, pr):
        with pytest.raises(DomainError, match="finite"):
            chi_square_test(kappa, phi, pr, 10)

    def test_degenerate_variance(self):
        with pytest.raises(DegenerateVariance):
            chi_square_test(0.1, 0.0, 0.5, 50)
        with pytest.raises(DegenerateVariance):
            chi_square_test(0.1, 0.01, 0.0, 50)


class TestQuasiIndependenceTest:
    def test_result_invariants(self, make_dataset):
        data = make_dataset(60, censored=True)
        for g, h in STANDARD_PAIRS:
            r = quasi_independence_test(data, g, h, censored_mode=True)
            assert r.pr_hat == pytest.approx(r.n_comparable / (r.n * (r.n - 1) / 2))
            assert r.chi_square == pytest.approx(
                r.n * r.kappa_hat**2 * r.pr_hat**2 / (4 * r.phi_hat)
            )
            assert r.assumption_3b_required == (h is not Kernel.SIGN)
            assert 0.0 <= r.p_value <= 1.0

    def test_uncensored_never_requires_3b(self, make_dataset):
        data = make_dataset(20)
        r = quasi_independence_test(data, "rank", "rank", censored_mode=False)
        assert not r.assumption_3b_required

    def test_all_events_mode_equivalence(self, make_dataset):
        data = make_dataset(50, censored=False)
        for g, h in STANDARD_PAIRS:
            unc = quasi_independence_test(data, g, h, censored_mode=False)
            cen = quasi_independence_test(data, g, h, censored_mode=True)
            assert unc.kappa_hat == cen.kappa_hat
            assert unc.chi_square == cen.chi_square

    def test_permutation_invariance(self, make_dataset, rng):
        data = make_dataset(40, censored=True)
        perm = rng.permutation(data.n)
        shuffled = Dataset(data.entry[perm], data.exit[perm], data.event[perm])
        for g, h in (("sign", "sign"), ("rank", "rank")):
            a = quasi_independence_test(data, g, h, censored_mode=True)
            b = quasi_independence_test(shuffled, g, h, censored_mode=True)
            assert a.kappa_hat == pytest.approx(b.kappa_hat, rel=1e-12, abs=1e-15)
            assert a.phi_hat == pytest.approx(b.phi_hat, rel=1e-12, abs=1e-15)

    def test_monotone_invariance(self, make_dataset):
        data = make_dataset(40, censored=True)
        warp = lambda t: np.expm1(0.3 * t) + 1.5 * t
        warped = Dataset(warp(data.entry), warp(data.exit), data.event)
        for g, h in (("sign", "sign"), ("rank", "sign")):
            a = quasi_independence_test(data, g, h, censored_mode=True)
            b = quasi_independence_test(warped, g, h, censored_mode=True)
            assert a.chi_square == pytest.approx(b.chi_square, rel=1e-12)
        lin_a = quasi_independence_test(data, "linear", "linear", censored_mode=True)
        lin_b = quasi_independence_test(warped, "linear", "linear", censored_mode=True)
        assert lin_a.chi_square != pytest.approx(lin_b.chi_square, rel=1e-6)

    def test_grid_matches_single(self, make_dataset):
        data = make_dataset(35, censored=True)
        grid = run_test_grid(data, censored_mode=True)
        for (g, h), res in grid.items():
            single = quasi_independence_test(data, g, h, censored_mode=True)
            assert res.chi_square == single.chi_square
            assert res.p_value == single.p_value


class TestReverseRoles:
    def test_flip(self):
        d = Dataset([0.0], [3.0], [1])
        assert reverse_roles(d).event[0] == 0

    def test_involution(self, make_dataset):
        data = make_dataset(25, censored=True)
        twice = reverse_roles(reverse_roles(data))
        np.testing.assert_array_equal(twice.event, data.event)
        np.testing.assert_array_equal(twice.entry, data.entry)
