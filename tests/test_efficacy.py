import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import cumulative_simpson, quad

from qitest.efficacy import (
    STUDY_COLUMNS,
    AlternativeModel,
    EfficacyTest,
    _ModelTables,
    _moment_tables,
    _node_moments,
    _ratios_vs_sign,
    _Simpson,
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
from qitest.errors import DomainError, IntegrationFailure


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
    _moment_tables(tables, exp_model, regularize=False)
    return tables


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
    """One index search per node reads every moment row exactly as np.interp."""

    def assert_matches_interp(self, tables, xs):
        for x in xs:
            want = [float(np.interp(x, tables.grid, row)) for row in tables.rows]
            assert bits(tables.rows_at(float(x))) == bits(want), x

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

    def test_pitman_are_builds_tables_once(self, monkeypatch):
        built = []
        init = _ModelTables.__init__

        def counting_init(self, model):
            built.append(model)
            init(self, model)

        monkeypatch.setattr(_ModelTables, "__init__", counting_init)
        pitman_are(model_linear_risk(exponential_entry(2.0), 0.0, 1.0), "linear", "sign")
        assert len(built) == 1

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


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
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
