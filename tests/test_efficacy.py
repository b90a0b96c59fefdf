import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import cumulative_simpson, fixed_quad, quad

from qitest.efficacy import (
    STUDY_COLUMNS,
    AlternativeModel,
    EfficacyTest,
    _FIRST_Z_ROW,
    _doubling_grids,
    _gauss_kronrod,
    _ModelTables,
    _node_moments,
    _Simpson,
    are_table,
    conditional_entry_density,
    efficacy,
    exponential_entry,
    model_linear_risk,
    model_reciprocal_risk,
    pitman_are,
    uniform_entry,
    ybar,
)
from qitest.errors import DomainError, IntegrationFailure, IntegrationWarning

from oracles import sigma_xy


@pytest.fixture(scope="module")
def exp_model():
    # constant hazards 0.3 everywhere, exponential(2) entries
    return AlternativeModel(entry=exponential_entry(2.0))


@pytest.fixture(scope="module")
def exp_tables(exp_model):
    return _ModelTables(exp_model)


@pytest.fixture(scope="module")
def exp_moment_tables(exp_model):
    tables = _ModelTables(exp_model)
    tables.load(exp_model.a_fun, regularize=False)
    return tables


@pytest.fixture
def built_tables(monkeypatch):
    """The models _ModelTables is built for, in order, while the test runs."""
    built = []
    init = _ModelTables.__init__

    def counting_init(self, model):
        built.append(model)
        init(self, model)

    monkeypatch.setattr(_ModelTables, "__init__", counting_init)
    return built


def bits(a):
    return np.asarray(a, dtype=float).tobytes()


class TestSimpson:
    """The grid-level rule against SciPy's cumulative_simpson, bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 99), st.booleans(), st.integers(0, 2**32 - 1))
    def test_random_grids(self, half, odd, seed):
        n = 2 * half + 1 if odd else 2 * half + 2  # 3 <= n <= 200, both parities
        rng = np.random.default_rng(seed)
        # spacings over six decades, so neighbouring intervals differ widely
        x = rng.uniform(-5, 5) + np.cumsum(10.0 ** rng.uniform(-3, 3, n))
        y = rng.normal(size=n) * 10.0 ** rng.uniform(-3, 3, n)
        y[rng.random(n) < 0.1] = 0.0
        assert bits(_Simpson(x)(y)) == bits(cumulative_simpson(y, x=x, initial=0.0))

    def test_negative_zeros(self):
        x = np.array([0.0, 1.0, 3.0, 3.5])
        y = np.array([-0.0, -0.0, 0.0, -0.0])
        assert bits(_Simpson(x)(y)) == bits(cumulative_simpson(y, x=x, initial=0.0))

    def test_model_grid(self, exp_model, exp_tables):
        # the mixed geometric/uniform entry grid, on integrands of the kinds a model uses
        g = exp_tables.grid
        for y in (exp_tables.c, g * exp_tables.c, exp_model.entry.cdf(g) * exp_tables.c,
                  exp_tables.Ic * exp_tables.c, np.full(g.size, 0.3)):
            assert bits(exp_tables.simpson(y)) == bits(cumulative_simpson(y, x=g, initial=0.0))

    @pytest.mark.parametrize("start,points", [(8.0, 4001), (40.224000000000004, 8001), (9.0, 8001), (0.3, 7)])
    def test_doubled_grids_share_one_coefficient_set(self, start, points):
        # grid k and its integrals equal a fresh linspace and a fresh rule on it, bit for bit
        rng = np.random.default_rng(5)
        for k, (grid, integral) in enumerate(_doubling_grids(start, points, 12)):
            want = np.linspace(0.0, start * 2.0**k, points)
            assert bits(grid) == bits(want), k
            for y in (np.full(points, 1.3), np.exp(-0.7 * grid), rng.uniform(0.0, 2.0, points)):
                assert bits(integral(y)) == bits(_Simpson(want)(y)), k


class TestRowLookup:
    """The cubic Hermite lookup: stored rows at the nodes, the end columns outside the grid, exact on cubics."""

    def assert_reads(self, tables, xs, want):
        xs = np.asarray(xs, dtype=float)
        got = tables.rows_at(xs)
        assert bits(got) == bits(want)
        for rows in self.SUBSETS:  # a subset of the rows reads them as the full lookup does
            assert bits(tables.rows_at(xs, rows)) == bits(got[list(rows)]), rows
        for x, column in zip(xs, want.T):  # a scalar x reads one column
            assert bits(tables.rows_at(x)) == bits(column), x
            assert bits(tables.rows_at(x, (0,))) == bits(column[:1]), x

    #: row 0 alone (C, read by ybar and the entry density), each test's rows, and an arbitrary order
    SUBSETS = [(0,)] + [(0, 1, k, k + 1, k + 2) for k in _FIRST_Z_ROW.values()] + [(10, 3, 3)]

    def test_grid_points(self, exp_moment_tables):
        g = exp_moment_tables.grid
        brk = _ModelTables.GEOM_POINTS - 1  # index of the first uniform node
        idx = [0, 1, 2, brk - 1, brk, brk + 1, g.size // 2, g.size - 2]
        self.assert_reads(exp_moment_tables, g[idx], exp_moment_tables.rows[:, idx])

    def test_last_point_and_beyond(self, exp_moment_tables):
        l_max = exp_moment_tables.l_max
        assert exp_moment_tables.grid[-1] == l_max
        xs = [l_max, l_max * (1 + 1e-15), 2 * l_max, np.inf]
        self.assert_reads(exp_moment_tables, xs, np.repeat(exp_moment_tables.rows[:, -1:], len(xs), axis=1))

    def test_below_first_point(self, exp_moment_tables):
        first = exp_moment_tables.grid[0]
        xs = [-np.inf, -1.0, 0.0, 0.5 * first, np.nextafter(first, 0.0)]
        self.assert_reads(exp_moment_tables, xs, np.repeat(exp_moment_tables.rows[:, :1], len(xs), axis=1))

    def test_random_interior_points(self):
        # uniform(0, 1) entries and equal hazards give c = 1 on the grid, so
        # every row with a(l) = l loaded is a cubic in l, which the lookup
        # reproduces up to rounding
        model = AlternativeModel(entry=uniform_entry())
        tables = _ModelTables(model)
        assert np.all(tables.c == 1.0)
        tables.load(model.a_fun, regularize=False)
        g0 = tables.grid[0]
        rng = np.random.default_rng(7)
        # uniform over the bulk and log-uniform over the geometric head
        x = np.concatenate([rng.uniform(g0, 1.0, 300), 10.0 ** rng.uniform(-11, -2, 300)])
        l1, l2, l3 = x - g0, (x * x - g0 * g0) / 2, (x**3 - g0**3) / 3
        # row k integrates v_k from g0 with v = 1, a, l, a l, l^2, F_L, a F_L, F_L^2, C, a C, C^2
        # and a = F_L = l, C = l - g0
        want = [l1, l2, l2, l3, l3, l2, l3, l3, l1 * l1 / 2, l3 - g0 * l2, l1**3 / 3]
        got = tables.rows_at(x)
        for k, row in enumerate(want):
            assert got[k] == pytest.approx(row, rel=1e-14, abs=0.0), k

    def test_mixed_array(self, exp_moment_tables):
        # every kind of point in one call, in no particular order; the far
        # ones must not overflow the position within the interval
        g = exp_moment_tables.grid
        rng = np.random.default_rng(11)
        nodes = g[[0, 1, _ModelTables.GEOM_POINTS - 1, g.size - 1]]
        xs = rng.permutation(np.concatenate([rng.uniform(-1.0, 2 * g[-1], 200), nodes,
                                             [-1e300, 1e300, 0.0, g[-1] * (1 + 1e-15)]]))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = exp_moment_tables.rows_at(xs)
        assert np.all(np.isfinite(got))
        for rows in self.SUBSETS:
            assert bits(exp_moment_tables.rows_at(xs, rows)) == bits(got[list(rows)]), rows
        for x, column in zip(xs, got.T):
            assert bits(exp_moment_tables.rows_at(x)) == bits(column), x
            # nodes, and points outside the grid, read a stored column
            stored = np.flatnonzero(g == np.clip(x, g[0], g[-1]))
            if stored.size:
                assert bits(column) == bits(exp_moment_tables.rows[:, stored[0]]), x


class TestGaussKronrod:
    """The adaptive outer integrator against SciPy's quad, on smooth, kinked, peaked and singular integrands."""

    @pytest.mark.parametrize("f,points", [
        (lambda x: np.exp(-x) * np.cos(3 * x), (0.0, 5.0)),  # smooth
        (lambda x: np.abs(x - 1 / 3) * np.exp(x), (0.0, 2.0)),  # a kink inside
        (lambda x: 1 / (x + 1e-3), (0.0, 1.0)),  # peaked at an endpoint
        (lambda x: 1 / np.sqrt(x), (0.0, 1.0)),  # singular at an endpoint
        (lambda x: np.minimum(x, 1.5) ** 2, (0.0, 1.5, 4.0)),  # split where the kink is
    ], ids=["smooth", "kink", "peak", "singular", "breakpoint"])
    def test_matches_quad(self, f, points):
        want = sum(quad(lambda x: float(f(np.float64(x))), lo, hi, epsabs=1e-12, epsrel=1e-8, limit=300)[0]
                   for lo, hi in zip(points[:-1], points[1:]))
        assert _gauss_kronrod(f, points) == pytest.approx(want, rel=1e-8)

    def test_evaluates_each_round_in_one_call(self):
        sizes = []

        def f(x):
            sizes.append(x.size)
            return np.abs(x - 1 / 3)

        _gauss_kronrod(f, (0.0, 1.0, 2.0))
        assert sizes[0] == 2 * 21 and len(sizes) > 1
        assert all(n % 42 == 0 for n in sizes[1:])  # a bisected interval's two halves

    def test_limit_returns_the_estimate_with_a_warning(self):
        f = lambda x: np.abs(x - 1 / 3) * np.exp(x)
        with pytest.warns(IntegrationWarning, match="error bound"):
            got = _gauss_kronrod(f, (0.0, 2.0), limit=3)
        assert got == pytest.approx(_gauss_kronrod(f, (0.0, 2.0)), rel=1e-3)


class TestEntryDensity:
    def test_closed_form_value(self, exp_model, exp_tables):
        got = exp_tables.entry_density(t=1.0, l=0.5)
        want = 2 * math.exp(-1.0) / (1 - math.exp(-2.0))
        assert got == pytest.approx(want, rel=1e-6)
        assert conditional_entry_density(exp_model, t=1.0, l=0.5) == got

    def test_outside_support_is_zero(self, exp_model):
        got = conditional_entry_density(exp_model, 1.0, [1.0, 1.7, -0.1])
        assert got.tolist() == [0.0, 0.0, 0.0]

    def test_rejects_nonpositive_time(self, exp_model):
        with pytest.raises(DomainError):
            conditional_entry_density(exp_model, 0.0, 0.5)

    @pytest.mark.parametrize("t,l", [(math.nan, 0.5), (1.0, math.nan), (math.inf, 0.5), (1.0, -math.inf),
                                     ([1.0, math.nan], 0.5), (1.0, [0.5, math.nan]), ([1.0, -1.0], 0.5)])
    def test_rejects_nan_and_infinite_times(self, exp_model, t, l):
        with pytest.raises(DomainError):
            conditional_entry_density(exp_model, t, l)

    @pytest.mark.parametrize("psi0,psi1,t", [(0.0, 0.0, 1.0), (0.0, 1.0, 0.7), (1.0, 1.0, 2.5)])
    def test_normalization(self, psi0, psi1, t):
        # constant hazards make the density smooth in l over (0, t), so a
        # 200-point Gauss-Legendre rule, evaluated in one array call, is exact
        model = model_linear_risk(exponential_entry(2.0), psi0, psi1)
        val = fixed_quad(lambda l: conditional_entry_density(model, t, l), 0.0, t, n=200)[0]
        assert val == pytest.approx(1.0, abs=1e-8)

    def test_array_matches_scalar_calls(self, exp_model, exp_tables, built_tables):
        l_max, t_max = exp_tables.l_max, exp_tables.t_max
        t = np.array([0.5, 1.0, l_max, t_max, 2 * t_max])[:, None]
        # outside the support (<= 0, >= t, beyond l_max), below the first grid node, inside
        l = np.array([-0.1, 0.0, 1e-13, 0.3, 1.0, 3.0, l_max, l_max + 1.0])
        got = conditional_entry_density(exp_model, t, l)
        assert len(built_tables) == 1
        assert got.shape == (t.size, l.size)
        want = [[conditional_entry_density(exp_model, ti, li) for li in l] for ti in t[:, 0]]
        assert all(isinstance(w, float) for row in want for w in row)
        assert bits(got) == bits(want)
        outside = (l <= 0) | (l >= t) | (l > l_max)
        assert np.all(got[outside] == 0.0) and np.all(got[~outside] > 0.0)


class TestYbar:
    def test_closed_form_value(self, exp_model):
        want = math.exp(-0.3) * (1 - math.exp(-2.0))
        assert ybar(exp_model, 1.0) == pytest.approx(want, rel=1e-6)

    def test_vanishes_at_zero(self, exp_model):
        assert ybar(exp_model, 1e-9) == pytest.approx(0.0, abs=1e-8)

    @pytest.mark.parametrize("t", [0.0, -1.0, math.nan, math.inf, [1.0, math.nan], [[1.0], [0.0]]])
    def test_rejects_nonpositive_nan_and_infinite_times(self, exp_model, t):
        with pytest.raises(DomainError):
            ybar(exp_model, t)

    def test_array_matches_scalar_calls(self, exp_model, exp_tables, built_tables):
        l_max, t_max = exp_tables.l_max, exp_tables.t_max
        ts = np.array([1e-13, 1e-9, 0.3, 1.0, l_max, 0.5 * (l_max + t_max), t_max, 2 * t_max])
        got = ybar(exp_model, ts)
        assert len(built_tables) == 1
        assert isinstance(got, np.ndarray) and got.shape == ts.shape
        want = [ybar(exp_model, t) for t in ts]
        assert all(isinstance(w, float) for w in want)
        assert bits(got) == bits(want)
        assert bits(ybar(exp_model, ts.reshape(2, -1))) == bits(got)

    def test_matches_independent_quadrature(self):
        # nested-quadrature oracle straight from the defining double integral
        model = model_linear_risk(exponential_entry(2.0), psi0=1.0, psi1=1.0)
        gamma0 = 1.3
        gamma1 = 1.3

        def oracle(t):
            def integrand(l):
                return (2 * math.exp(-2 * l)) * math.exp(-gamma0 * l - gamma1 * (t - l))

            return quad(integrand, 0.0, t, epsabs=1e-12)[0]

        for t in (0.4, 1.3, 3.7):
            assert ybar(model, t) == pytest.approx(oracle(t), rel=1e-6)

    def test_nonincreasing_factor(self, exp_model):
        ts = np.linspace(1.0, 20.0, 30)
        vals = ybar(exp_model, ts)
        # beyond the entry bulk the at-risk fraction decays
        assert all(a >= b for a, b in zip(vals[10:], vals[11:]))


class TestSigmaXY:
    """The reference quadrature of at-risk covariances that the moment rows are checked against."""

    def test_constant_process(self, exp_tables):
        assert sigma_xy(exp_tables, 1.0, lambda l: np.ones_like(l), lambda l: l) == pytest.approx(0.0, abs=1e-12)

    def test_truncated_exponential_variance(self, exp_tables):
        got = sigma_xy(exp_tables, 1.0, lambda l: l, lambda l: l)
        lam, t = 2.0, 1.0
        z = 1 - math.exp(-lam * t)
        m1 = (1 - (1 + lam * t) * math.exp(-lam * t)) / (lam * z)
        m2 = (2 - (2 + 2 * lam * t + (lam * t) ** 2) * math.exp(-lam * t)) / (lam**2 * z)
        assert got == pytest.approx(m2 - m1 * m1, rel=1e-7)

    def test_reflection_antisymmetry(self, exp_model, exp_tables):
        f = exp_model.entry.cdf
        a = sigma_xy(exp_tables, 2.0, lambda l: l, lambda l: 1 - f(l))
        b = sigma_xy(exp_tables, 2.0, lambda l: l, f)
        assert a == pytest.approx(-b, rel=1e-9)

    def test_variance_nonnegative(self, exp_model, exp_tables):
        for t in (0.3, 1.0, 4.0):
            for proc in (lambda l: l, np.sin, exp_model.entry.cdf):
                assert sigma_xy(exp_tables, t, proc, proc) >= 0.0


class TestEfficacy:
    def test_uniform_rank_equals_linear_exactly(self):
        model = model_linear_risk(uniform_entry(), 0.0, 1.0)
        rank = efficacy(model, "rank")
        linear = efficacy(model, "linear")
        assert rank.efficacy == linear.efficacy

    def test_beta_cancels_in_ratios(self):
        base = model_linear_risk(exponential_entry(2.0), 0.0, 1.0)
        scaled = AlternativeModel(entry=base.entry, psi0=0.0, psi1=1.0,
                                  a_fun=base.a_fun, beta=3.7)
        r1 = pitman_are(base, "linear", "sign")
        r2 = pitman_are(scaled, "linear", "sign")
        assert r1 == pytest.approx(r2, rel=1e-12)
        assert efficacy(scaled, "linear").mu_inf == pytest.approx(
            3.7 * efficacy(base, "linear").mu_inf, rel=1e-12)

    def test_self_ratio_is_one(self):
        model = model_linear_risk(exponential_entry(2.0), 0.0, 0.0)
        assert pitman_are(model, "rank", "rank") == pytest.approx(1.0)

    def test_sign_variance_matches_uniform_rank_limit(self, exp_model, exp_moment_tables):
        # the within-risk-set scaled rank has limiting variance 1/12
        res = efficacy(AlternativeModel(entry=exp_model.entry), "sign")
        for ub in (0.5, 2.0, 8.0):
            _, _, var = _node_moments(exp_moment_tables, EfficacyTest.SIGN_SIGN, ub)
            assert var == pytest.approx(1 / 12, rel=1e-5)
        assert res.sigma2_inf > 0

    @pytest.mark.parametrize("entry_name, psi0, psi1", [
        (name, psi0, psi1) for name, columns in STUDY_COLUMNS.items() for psi0, psi1 in dict.fromkeys(columns)])
    def test_node_moments_match_each_tests_own_process(self, entry_name, psi0, psi1):
        # one formula with a per-test scale against direct quadrature of each
        # test's z: 1 - C(l)/C(ub), F_L(l) and l
        entry = exponential_entry(2.0) if entry_name == "exponential" else uniform_entry()
        model = model_linear_risk(entry, psi0, psi1)
        tables = _ModelTables(model)
        tables.load(model.a_fun, regularize=False)
        C = lambda x: tables.rows_at(x, (0,))[0]
        for ub in (0.1, 0.3, 0.7, 1.0):
            processes = {EfficacyTest.SIGN_SIGN: lambda l: 1.0 - C(l) / C(ub),
                         EfficacyTest.RANK_SIGN: entry.cdf,
                         EfficacyTest.LINEAR_SIGN: lambda l: np.asarray(l, dtype=float)}
            for test, z in processes.items():
                mass, cov, var = _node_moments(tables, test, ub)
                assert bits(mass) == bits(C(ub))
                assert cov == pytest.approx(sigma_xy(tables, ub, model.a_fun, z), rel=1e-5), (test, ub)
                assert var == pytest.approx(sigma_xy(tables, ub, z, z), rel=1e-5), (test, ub)

    def test_pitman_are_builds_tables_once(self, built_tables):
        pitman_are(model_linear_risk(exponential_entry(2.0), 0.0, 1.0), "linear", "sign")
        assert len(built_tables) == 1

    def test_divergent_covariate_raises_without_regularization(self):
        model = model_reciprocal_risk(exponential_entry(2.0), 0.0, 1.0)
        with pytest.raises(IntegrationFailure, match="not integrable"):
            efficacy(model, "linear")

    def test_divergent_covariate_has_regularized_value(self):
        model = model_reciprocal_risk(exponential_entry(2.0), 0.0, 1.0)
        res = efficacy(model, "linear", regularize=True)
        assert math.isfinite(res.efficacy) and res.efficacy > 0

    def test_published_linear_covariate_cells(self):
        # exponential entries: censored-column ratios against the sign/sign
        # member, compared to the published table at its stated 5% slack
        model = model_linear_risk(exponential_entry(2.0), 0.0, 1.0)
        assert pitman_are(model, "linear", "sign") == pytest.approx(1.800, rel=0.05)
        model11 = model_linear_risk(exponential_entry(2.0), 1.0, 1.0)
        assert pitman_are(model11, "rank", "sign") == pytest.approx(1.325, rel=0.05)


STUDY_MODELS = {"linear-covariate": model_linear_risk, "reciprocal-covariate": model_reciprocal_risk}


@pytest.fixture(scope="module")
def fresh_cells():
    """Every test's result for each of the 10 distinct study models, each on tables of its own."""
    entries = {"exponential": exponential_entry(2.0), "uniform": uniform_entry()}
    cells = {}
    for model_name, factory in STUDY_MODELS.items():
        for entry_name, columns in STUDY_COLUMNS.items():
            for psi0, psi1 in dict.fromkeys(columns):
                model = factory(entries[entry_name], psi0, psi1)
                cells[model_name, entry_name, psi0, psi1] = _ModelTables(model).efficacies(
                    model, EfficacyTest, regularize=True)
    return cells


class TestBoundSearch:
    """l_max and t_max of every distinct study cell, as found with a fresh Simpson rule per doubled grid."""

    RECORDED = {
        ("exponential", 0.0, 1.0): (32.224000000000004, 80.44800000000001),
        ("exponential", 1.0, 1.0): (16.112000000000002, 48.224000000000004),
        ("uniform", 0.0, 0.0): (1.0, 72.0),
        ("uniform", 0.0, 1.0): (1.0, 18.0),
        ("uniform", 1.0, 1.0): (1.0, 18.0),
    }

    @pytest.mark.parametrize("entry_name, psi0, psi1", list(RECORDED))
    def test_study_cell_bounds(self, entry_name, psi0, psi1):
        entry = exponential_entry(2.0) if entry_name == "exponential" else uniform_entry()
        tables = _ModelTables(model_linear_risk(entry, psi0, psi1))
        assert (tables.l_max, tables.t_max) == self.RECORDED[entry_name, psi0, psi1]


class TestSharedTables:
    """One table set per (entry law, censoring) cell, shared by both covariate models."""

    def test_are_table_equals_fresh_tables_per_model(self, fresh_cells, built_tables):
        rows = are_table()
        assert len(built_tables) == 5
        want = []
        for model_name in STUDY_MODELS:
            for entry_name, columns in STUDY_COLUMNS.items():
                for psi0, psi1 in columns:
                    res = fresh_cells[model_name, entry_name, psi0, psi1]
                    base = res[EfficacyTest.SIGN_SIGN].efficacy
                    for test in (EfficacyTest.RANK_SIGN, EfficacyTest.LINEAR_SIGN):
                        eff = res[test].efficacy
                        want.append({"model": model_name, "entry": entry_name, "psi0": psi0, "psi1": psi1,
                                     "g_kernel": test.value, "h_kernel": "sign",
                                     "efficacy": eff, "are_vs_sign_sign": eff / base})
        assert len(rows) == 24
        for got, exp in zip(rows, want):
            assert got == exp

    def test_variance_does_not_read_the_covariate(self, fresh_cells):
        # the reason one sigma2(inf) per test serves both models of a cell
        for (model_name, *cell), res in fresh_cells.items():
            if model_name == "linear-covariate":
                other = fresh_cells[("reciprocal-covariate", *cell)]
                for test in EfficacyTest:
                    assert res[test].sigma2_inf == other[test].sigma2_inf, (cell, test)

    def test_reloading_a_covariate_restores_its_result(self):
        entry = exponential_entry(2.0)
        linear, reciprocal = model_linear_risk(entry, 0.0, 1.0), model_reciprocal_risk(entry, 0.0, 1.0)
        tables = _ModelTables(linear)
        first = tables.efficacies(linear, ["rank"], regularize=False)[EfficacyTest.RANK_SIGN]
        other = tables.efficacies(reciprocal, ["rank"], regularize=True)[EfficacyTest.RANK_SIGN]
        assert other.mu_inf != first.mu_inf
        with pytest.raises(IntegrationFailure, match="not integrable"):
            tables.efficacies(reciprocal, ["rank"], regularize=False)
        assert tables.efficacies(linear, ["rank"], regularize=False)[EfficacyTest.RANK_SIGN] == first
        assert efficacy(linear, "rank") == first


def test_are_table_matches_pinned_ratios():
    # every ratio of are_table(), pinned at 17 digits from tables with a 10x
    # finer uniform segment read by linear interpolation, whose own error is
    # about 1e-7; the regularized reciprocal cells get a looser bound
    pinned = json.loads((Path(__file__).resolve().parent / "golden" / "are_ratios.json").read_text())
    rows = are_table()
    assert len(rows) == len(pinned) == 24
    bound = {"linear-covariate": 2e-7, "reciprocal-covariate": 1e-6}
    for got, want in zip(rows, pinned):
        cell = {k: got[k] for k in ("model", "entry", "psi0", "psi1", "g_kernel")}
        assert cell == {k: want[k] for k in cell}
        assert got["are_vs_sign_sign"] == pytest.approx(want["are_vs_sign_sign"], rel=bound[got["model"]]), cell


@pytest.mark.filterwarnings("ignore::qitest.errors.IntegrationWarning")
def test_grid_refinement_moves_published_ratios_below_1e6(monkeypatch):
    # halve and double both entry-grid sizes (intervals, so the point counts
    # stay odd); the linear-model ratios of every distinct study cell must hold
    entries = {"exponential": exponential_entry(2.0), "uniform": uniform_entry()}
    models = [model_linear_risk(entries[name], psi0, psi1)
              for name, columns in STUDY_COLUMNS.items() for psi0, psi1 in dict.fromkeys(columns)]
    assert len(models) == 5

    def ratios():
        out = []
        for model in models:
            res = _ModelTables(model).efficacies(model, EfficacyTest, regularize=True)
            out += [res[test].efficacy / res[EfficacyTest.SIGN_SIGN].efficacy
                    for test in (EfficacyTest.RANK_SIGN, EfficacyTest.LINEAR_SIGN)]
        return np.array(out)

    base = ratios()
    geom, unif = _ModelTables.GEOM_POINTS, _ModelTables.UNIF_POINTS
    for scale in (0.5, 2.0):
        monkeypatch.setattr(_ModelTables, "GEOM_POINTS", int((geom - 1) * scale) + 1)
        monkeypatch.setattr(_ModelTables, "UNIF_POINTS", int((unif - 1) * scale) + 1)
        moved = np.max(np.abs(ratios() - base))
        assert moved < 1e-6, f"grid x{scale}: ratios moved by {moved:.2e}"
