import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import cumulative_simpson, quad

from qitest.efficacy import (
    STUDY_COLUMNS,
    AlternativeModel,
    EfficacyTest,
    _gauss_kronrod,
    _ModelTables,
    _node_moments,
    _ratios_vs_sign,
    _Simpson,
    are_table,
    conditional_entry_density,
    efficacy,
    exponential_entry,
    model_linear_risk,
    model_reciprocal_risk,
    pitman_are,
    sigma_xy,
    uniform_entry,
    ybar,
)
from qitest.errors import DomainError, IntegrationFailure, IntegrationWarning


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
    tables.load(exp_model, regularize=False)
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


class TestRowLookup:
    """One index search per array of nodes reads every moment row exactly as np.interp."""

    def assert_matches_interp(self, tables, xs):
        xs = np.asarray(xs, dtype=float)
        want = np.stack([np.interp(xs, tables.grid, row) for row in tables.rows])
        assert bits(tables.rows_at(xs)) == bits(want)
        for x, column in zip(xs, want.T):  # a scalar x reads one column
            assert bits(tables.rows_at(x)) == bits(column), x

    def test_grid_points(self, exp_moment_tables):
        g = exp_moment_tables.grid
        self.assert_matches_interp(exp_moment_tables, g[[0, 1, 2, 9599, 9600, 9601, 100_000, g.size - 2]])

    def test_last_point_and_beyond(self, exp_moment_tables):
        l_max = exp_moment_tables.l_max
        self.assert_matches_interp(exp_moment_tables, [l_max, l_max * (1 + 1e-15), 2 * l_max])

    def test_below_first_point(self, exp_moment_tables):
        first = exp_moment_tables.grid[0]
        self.assert_matches_interp(exp_moment_tables, [0.0, 0.5 * first, np.nextafter(first, 0.0)])

    def test_random_interior_points(self, exp_moment_tables):
        rng = np.random.default_rng(7)
        l_max = exp_moment_tables.l_max
        # uniform over the bulk and log-uniform over the geometric head
        xs = np.concatenate([rng.uniform(0.0, l_max, 300),
                             l_max * 10.0 ** rng.uniform(-12, -2, 300)])
        self.assert_matches_interp(exp_moment_tables, xs)

    def test_mixed_array(self, exp_moment_tables):
        # every kind of point in one call, in no particular order
        g = exp_moment_tables.grid
        rng = np.random.default_rng(11)
        xs = np.concatenate([rng.uniform(-1.0, 2 * g[-1], 200), g[[0, 1, 9600, g.size - 1]],
                             [-1e300, 1e300, 0.0, g[-1] * (1 + 1e-15)]])
        self.assert_matches_interp(exp_moment_tables, rng.permutation(xs))


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
        got = conditional_entry_density(exp_model, t=1.0, l=0.5, _tables=exp_tables)
        want = 2 * math.exp(-1.0) / (1 - math.exp(-2.0))
        assert got == pytest.approx(want, rel=1e-6)

    def test_outside_support_is_zero(self, exp_model, exp_tables):
        assert conditional_entry_density(exp_model, 1.0, 1.0, _tables=exp_tables) == 0.0
        assert conditional_entry_density(exp_model, 1.0, 1.7, _tables=exp_tables) == 0.0
        assert conditional_entry_density(exp_model, 1.0, -0.1, _tables=exp_tables) == 0.0

    def test_rejects_nonpositive_time(self, exp_model):
        with pytest.raises(DomainError):
            conditional_entry_density(exp_model, 0.0, 0.5)

    @pytest.mark.parametrize("psi0,psi1,t", [(0.0, 0.0, 1.0), (0.0, 1.0, 0.7), (1.0, 1.0, 2.5)])
    def test_normalization(self, psi0, psi1, t):
        model = model_linear_risk(exponential_entry(2.0), psi0, psi1)
        tables = _ModelTables(model)
        val = quad(lambda l: conditional_entry_density(model, t, l, _tables=tables),
                   0.0, t, limit=300, epsabs=1e-11, epsrel=1e-10)[0]
        assert val == pytest.approx(1.0, abs=1e-8)


class TestYbar:
    def test_closed_form_value(self, exp_model):
        want = math.exp(-0.3) * (1 - math.exp(-2.0))
        assert ybar(exp_model, 1.0) == pytest.approx(want, rel=1e-6)

    def test_vanishes_at_zero(self, exp_model, exp_tables):
        assert float(exp_tables.ybar(1e-9)) == pytest.approx(0.0, abs=1e-8)

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

    def test_nonincreasing_factor(self, exp_model, exp_tables):
        ts = np.linspace(1.0, 20.0, 30)
        vals = [float(exp_tables.ybar(t)) for t in ts]
        # beyond the entry bulk the at-risk fraction decays
        assert all(a >= b for a, b in zip(vals[10:], vals[11:]))


class TestSigmaXY:
    def test_constant_process(self, exp_model):
        assert sigma_xy(exp_model, 1.0, lambda l: np.ones_like(l), lambda l: l) == pytest.approx(0.0, abs=1e-12)

    def test_truncated_exponential_variance(self, exp_model):
        got = sigma_xy(exp_model, 1.0, lambda l: l, lambda l: l)
        lam, t = 2.0, 1.0
        z = 1 - math.exp(-lam * t)
        m1 = (1 - (1 + lam * t) * math.exp(-lam * t)) / (lam * z)
        m2 = (2 - (2 + 2 * lam * t + (lam * t) ** 2) * math.exp(-lam * t)) / (lam**2 * z)
        assert got == pytest.approx(m2 - m1 * m1, rel=1e-7)

    def test_reflection_antisymmetry(self, exp_model, exp_tables):
        f = exp_model.entry.cdf
        a = sigma_xy(exp_model, 2.0, lambda l: l, lambda l: 1 - f(l), _tables=exp_tables)
        b = sigma_xy(exp_model, 2.0, lambda l: l, f, _tables=exp_tables)
        assert a == pytest.approx(-b, rel=1e-9)

    def test_variance_nonnegative(self, exp_model, exp_tables):
        for t in (0.3, 1.0, 4.0):
            for proc in (lambda l: l, np.sin, exp_model.entry.cdf):
                assert sigma_xy(exp_model, t, proc, proc, _tables=exp_tables) >= 0.0


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
                tables = _ModelTables(model)
                cells[model_name, entry_name, psi0, psi1] = {
                    test: efficacy(model, test, regularize=True, _tables=tables) for test in EfficacyTest}
    return cells


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

    @pytest.mark.parametrize("change", [
        dict(entry=exponential_entry(2.0)),  # an equal law, but another object
        dict(lambda0=0.31), dict(lambda1=0.31), dict(alpha1=1.1), dict(psi0=0.1), dict(psi1=1.1),
    ], ids=lambda change: next(iter(change)))
    def test_tables_of_another_model_are_refused(self, change):
        model = model_linear_risk(exponential_entry(2.0), 0.0, 1.0)
        tables = _ModelTables(model)
        with pytest.raises(ValueError, match="built for a model"):
            efficacy(dataclasses.replace(model, **change), "linear", _tables=tables)

    def test_reloading_a_covariate_restores_its_result(self):
        entry = exponential_entry(2.0)
        linear, reciprocal = model_linear_risk(entry, 0.0, 1.0), model_reciprocal_risk(entry, 0.0, 1.0)
        tables = _ModelTables(linear)
        first = efficacy(linear, "rank", _tables=tables)
        assert efficacy(reciprocal, "rank", regularize=True, _tables=tables).mu_inf != first.mu_inf
        with pytest.raises(IntegrationFailure, match="not integrable"):
            efficacy(reciprocal, "rank", _tables=tables)  # loaded regularized, asked unregularized
        assert efficacy(linear, "rank", _tables=tables) == first
        assert efficacy(linear, "rank") == first


@pytest.mark.filterwarnings("ignore::qitest.errors.IntegrationWarning")
def test_grid_refinement_moves_published_ratios_below_1e6(monkeypatch):
    # halve and double both entry-grid sizes (intervals, so the point counts
    # stay odd); the linear-model ratios of every distinct study cell must hold
    entries = {"exponential": exponential_entry(2.0), "uniform": uniform_entry()}
    models = [model_linear_risk(entries[name], psi0, psi1)
              for name, columns in STUDY_COLUMNS.items() for psi0, psi1 in dict.fromkeys(columns)]
    assert len(models) == 5

    def ratios():
        return np.array([ratio for model in models
                         for _, _, ratio in _ratios_vs_sign(model, regularize=True)])

    base = ratios()
    geom, unif = _ModelTables.GEOM_POINTS, _ModelTables.UNIF_POINTS
    for scale in (0.5, 2.0):
        monkeypatch.setattr(_ModelTables, "GEOM_POINTS", int((geom - 1) * scale) + 1)
        monkeypatch.setattr(_ModelTables, "UNIF_POINTS", int((unif - 1) * scale) + 1)
        moved = np.max(np.abs(ratios() - base))
        assert moved < 1e-6, f"grid x{scale}: ratios moved by {moved:.2e}"
