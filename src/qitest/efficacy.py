"""Asymptotic efficacies of the score tests under local hazard alternatives.

Model: subjects carry an entry time with hazard theta; before entry they are
exposed to failure hazard lambda0 and censoring hazard psi0, after entry to
baseline failure hazard lambda1 (times a local relative-risk perturbation
driven by a covariate transform of the entry time) and censoring hazard psi1.

The entry density among subjects at risk at time t is proportional to

    c(l) = f_L(l) * exp(B(l) - A(l)),   l < t,

where f_L is the entry density, A and B are the cumulative pre-entry and
post-entry total hazards (failure + censoring). The t-dependence enters only
through the truncation point and a common factor exp(-B(t)), so the at-risk
fraction is ybar(t) = exp(-B(t)) * C(min(t, l_max)) with C the cumulative
integral of c. Every at-risk moment needed below is a cumulative integral of
a fixed function evaluated at min(t, l_max), which keeps the whole
computation a family of one-dimensional quadratures. Each table is a
cumulative composite Simpson integral whose coefficients are computed once
per grid, and the moment tables are the rows of one array, so every node of
the outer quadrature reads all of them with one index search.

The drift and variance of a score test with limiting covariate process z are

    mu(inf)     = beta * integral  ybar(u)^2 Cov_u(a(L), z) lambda1(u) du
    sigma2(inf) =        integral  ybar(u)^3 Var_u(z) lambda1(u) alpha1(u) du

with Cov_u/Var_u taken under the at-risk entry density at time u. The three
tests map to z = 1 - F_u(l) (sign/sign, via the within-risk-set rank),
z = F_L(l) (rank/sign) and z = l (linear/sign). The efficacy is
mu(inf)^2 / sigma2(inf) and ratios of efficacies compare tests.

Covariate transforms that are not integrable against the at-risk entry
density (they blow up like 1/l or faster near the support edge) make mu
diverge; by default this is detected and reported as an IntegrationFailure.
``regularize=True`` instead truncates the covariate integrals at a fixed
small fraction of the support (1e-8 of l_max). Regularized drifts grow
logarithmically in the truncation depth, so such values are comparison
devices, not limits; efficacy ratios drift by roughly a percent per further
decade of depth at the default floor.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import DomainError, IntegrationFailure

HazardLike = "float | Callable[[np.ndarray], np.ndarray]"

#: lower truncation of covariate integrals in regularized mode, as a fraction
#: of the entry-support length
REGULARIZATION_FLOOR = 1e-8


@dataclass(frozen=True)
class EntryLaw:
    """Entry-time distribution given by closed-form pdf and cdf."""

    pdf: Callable[[np.ndarray], np.ndarray]
    cdf: Callable[[np.ndarray], np.ndarray]
    upper: float  # support upper endpoint (may be inf)
    name: str = ""


def exponential_entry(rate: float = 2.0) -> EntryLaw:
    """Exponential entry times with the given rate."""
    return EntryLaw(
        pdf=lambda x: rate * np.exp(-rate * np.asarray(x, dtype=float)),
        cdf=lambda x: 1.0 - np.exp(-rate * np.asarray(x, dtype=float)),
        upper=math.inf,
        name=f"exponential(rate={rate:g})",
    )


def uniform_entry(width: float = 1.0) -> EntryLaw:
    """Uniform entry times on (0, width)."""
    return EntryLaw(
        pdf=lambda x: np.where((np.asarray(x) >= 0) & (np.asarray(x) <= width), 1.0 / width, 0.0),
        cdf=lambda x: np.clip(np.asarray(x, dtype=float) / width, 0.0, 1.0),
        upper=width,
        name=f"uniform(0,{width:g})",
    )


class EfficacyTest(enum.Enum):
    """Which member of the family the efficacy refers to (entry kernel / sign exit kernel)."""

    SIGN_SIGN = "sign"
    RANK_SIGN = "rank"
    LINEAR_SIGN = "linear"

    @classmethod
    def parse(cls, name: "EfficacyTest | str") -> "EfficacyTest":
        if isinstance(name, EfficacyTest):
            return name
        try:
            return cls(name.strip().lower())
        except ValueError:
            valid = ", ".join(t.value for t in cls)
            raise ValueError(f"unknown test {name!r}; expected one of: {valid}") from None


@dataclass(frozen=True)
class EfficacyResult:
    test: EfficacyTest
    mu_inf: float
    sigma2_inf: float

    @property
    def efficacy(self) -> float:
        return self.mu_inf * self.mu_inf / self.sigma2_inf


@dataclass(frozen=True)
class AlternativeModel:
    """Local hazard alternative around quasi-independence.

    Hazards may be given as constants or as vectorized callables of time.
    ``a_fun`` is the covariate transform of the entry time that drives the
    local perturbation; ``beta`` is the local slope (it cancels in ratios).
    """

    entry: EntryLaw
    lambda0: "HazardLike" = 0.3
    lambda1: "HazardLike" = 0.3
    alpha1: "HazardLike" = 1.0
    psi0: "HazardLike" = 0.0
    psi1: "HazardLike" = 0.0
    a_fun: Callable[[np.ndarray], np.ndarray] = lambda l: np.asarray(l, dtype=float)
    beta: float = 1.0
    name: str = ""


def model_linear_risk(entry: EntryLaw, psi0: float = 0.0, psi1: float = 0.0) -> AlternativeModel:
    """Study model with covariate transform a(l) = l (linear in the entry time)."""
    return AlternativeModel(entry=entry, psi0=psi0, psi1=psi1,
                            a_fun=lambda l: np.asarray(l, dtype=float), name="linear-covariate")


def model_reciprocal_risk(entry: EntryLaw, psi0: float = 0.0, psi1: float = 0.0) -> AlternativeModel:
    """Study model with covariate transform a(l) = 1 / (l^2 + sin l).

    The transform is unbounded near l = 0 and is not integrable against the
    at-risk entry density, so efficacies exist only in the regularized sense.
    """
    return AlternativeModel(entry=entry, psi0=psi0, psi1=psi1,
                            a_fun=lambda l: 1.0 / (np.square(l) + np.sin(l)), name="reciprocal-covariate")


def _as_fun(h: "HazardLike") -> Callable[[np.ndarray], np.ndarray]:
    if callable(h):
        return lambda x: np.asarray(h(np.asarray(x, dtype=float)), dtype=float)
    v = float(h)

    def constant(x):
        # the quadrature nodes are Python floats: no array for a constant
        if isinstance(x, float):
            return v
        return np.full(np.shape(np.asarray(x, dtype=float)), v, dtype=float)

    return constant


class _Simpson:
    """Cumulative composite Simpson integrals over one fixed grid of n >= 3 points.

    This is SciPy's ``cumulative_simpson(y, x=grid, initial=0.0)``, the
    unequal-interval rule of Cartwright (2017, J. Math. Sci. Math. Educ.
    12(2):1-9), with the coefficients, which depend on the grid alone,
    computed once. Interval k is integrated from the quadratic through points
    k, k+1, k+2 when k is even, and through k+1, k, k-1 when k is odd or is
    the last interval. The formula and its operation order are SciPy's, so
    the result is bit-identical to it.
    """

    def __init__(self, grid: np.ndarray):
        x21 = np.diff(grid)
        k = np.arange(x21.size)
        forward = np.zeros(x21.size, dtype=np.intp)
        forward[:-1:2] = 1
        # interval k joins points i1 and i2; its quadratic takes the third
        # point i3 next to i2: k+2 on forward intervals, k-1 on the others
        self._i2 = k + forward
        self._i1 = k + 1 - forward
        self._i3 = 2 * self._i2 - self._i1
        x32 = x21[np.minimum(self._i2, self._i3)]
        x31 = x21 + x32
        x21_x31 = x21 / x31
        x21x21_x31x32 = x21_x31 * (x21 / x32)
        self._w = x21 / 6
        self._c1 = 3 - x21_x31
        self._c2 = 3 + x21x21_x31x32 + x21_x31
        self._c3 = -x21x21_x31x32

    def __call__(self, y: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        out = np.empty(y.size) if out is None else out
        # a leading 0.0 in the running sum stands for SciPy's ``initial``
        out[0] = 0.0
        out[1:] = self._w * (self._c1 * y[self._i1] + self._c2 * y[self._i2] + self._c3 * y[self._i3])
        return np.cumsum(out, out=out)


#: the moment table's row of each test's z = l, F_L(l) or C(l); the a z and
#: z^2 rows follow it (see _moment_tables)
_FIRST_Z_ROW = {EfficacyTest.LINEAR_SIGN: 2, EfficacyTest.RANK_SIGN: 5, EfficacyTest.SIGN_SIGN: 8}


class _ModelTables:
    """Cumulative-integral tables underlying every efficacy quantity."""

    GEOM_POINTS = 9601
    UNIF_POINTS = 200001

    def __init__(self, model: AlternativeModel):
        self.model = model
        lam0 = _as_fun(model.lambda0)
        lam1 = _as_fun(model.lambda1)
        psi0 = _as_fun(model.psi0)
        psi1 = _as_fun(model.psi1)
        self.lam1 = lam1
        self.alpha1 = _as_fun(model.alpha1)
        gamma0 = lambda x: lam0(x) + psi0(x)
        gamma1 = lambda x: lam1(x) + psi1(x)
        self.gamma1 = gamma1

        self.l_max = self._find_l_max(model.entry, gamma0, gamma1)
        # mixed grid: geometric near 0 (resolves integrable singularities),
        # uniform over the bulk
        brk = 1e-2 * self.l_max
        geo = np.geomspace(1e-12 * self.l_max, brk, self.GEOM_POINTS)[:-1]
        uni = np.linspace(brk, self.l_max, self.UNIF_POINTS)
        self.grid = np.concatenate([geo, uni])
        self.simpson = _Simpson(self.grid)

        g = self.grid
        A = self.simpson(gamma0(g))
        Bl = self.simpson(gamma1(g))
        self.c = model.entry.pdf(g) * np.exp(Bl - A)
        self._A_l = A  # cumulative pre-entry hazard on the entry grid
        self._B_l = Bl  # cumulative post-entry hazard on the entry grid

        self.Ic = self.simpson(self.c)

        # time grid for the post-entry cumulative hazard beyond l_max
        self.t_max = self._find_t_max(gamma1)
        tg = np.linspace(0.0, self.t_max, 40001)
        self._t_grid = tg
        self._B_t = _Simpson(tg)(gamma1(tg))

        self.rows: np.ndarray | None = None  # the moment table, built by _moment_tables

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def _find_l_max(entry: EntryLaw, gamma0, gamma1) -> float:
        if math.isfinite(entry.upper):
            return float(entry.upper)
        bound = 8.0
        for _ in range(20):
            g = np.linspace(0.0, bound, 4001)
            simpson = _Simpson(g)
            A = simpson(gamma0(g))
            B = simpson(gamma1(g))
            c = entry.pdf(g) * np.exp(B - A)
            peak = float(c.max())
            if peak > 0 and c[-1] < 1e-14 * peak:
                tail = np.flatnonzero(c >= 1e-14 * peak)
                return float(g[tail[-1]]) if tail.size else bound
            bound *= 2.0
        raise IntegrationFailure("entry weight function does not decay; cannot bound the support")

    def _find_t_max(self, gamma1) -> float:
        # need exp(-2 (B(t) - B(l_max))) below 1e-10
        target = 0.5 * math.log(1e10)
        bound = self.l_max + 8.0
        for _ in range(30):
            tg = np.linspace(0.0, bound, 8001)
            B = _Simpson(tg)(gamma1(tg))
            b_lmax = float(np.interp(self.l_max, tg, B))
            if float(B[-1]) - b_lmax > target:
                return bound
            bound *= 2.0
        raise IntegrationFailure("post-entry hazard does not accumulate; cannot bound the time axis")

    # -- lookups ---------------------------------------------------------------

    def B(self, t) -> np.ndarray:
        return np.interp(t, self._t_grid, self._B_t)

    def C(self, x) -> np.ndarray:
        return np.interp(x, self.grid, self.Ic)

    def rows_at(self, x: float) -> list[float]:
        """Every moment row at x, each equal to ``np.interp(x, grid, row)``.

        One index search serves all rows; the arithmetic is np.interp's, so
        the values are bit-identical to it for finite rows.
        """
        g = self.grid
        j = max(int(g.searchsorted(x, side="right")) - 1, 0)
        lo = self.rows[:, j]
        if j == g.size - 1 or g[j] >= x:  # at a grid point, the last one, or below the first
            return lo.tolist()
        x0 = g[j]
        slope = (self.rows[:, j + 1] - lo) / (g[j + 1] - x0)
        return (slope * (x - x0) + lo).tolist()

    def ybar(self, t) -> np.ndarray:
        return np.exp(-self.B(t)) * self.C(np.minimum(t, self.l_max))


def _decade_divergence(tables: _ModelTables, a_vals: np.ndarray) -> bool:
    """True when |a|-weighted mass per decade near 0 fails to decay."""
    g = tables.grid
    w = np.abs(a_vals) * tables.c
    total = float(np.trapezoid(w, g)) + 1e-300
    edges = [1e-12 * tables.l_max * 10.0**k for k in range(0, 7)]
    contrib = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        m = (g >= lo) & (g < hi)
        contrib.append(float(np.trapezoid(w[m], g[m])) if m.sum() > 2 else 0.0)
    # integrable transforms: contributions shrink toward the lowest decades
    lowest = sum(contrib[:3])
    return lowest > 1e-9 * total and contrib[0] > 0.45 * (contrib[2] + 1e-300)


def conditional_entry_density(model: AlternativeModel, t: float, l: float,
                              _tables: "_ModelTables | None" = None) -> float:
    """Density (in l) of entry times among subjects at risk at time t."""
    if t <= 0:
        raise DomainError("the risk-set time t must be positive")
    tables = _tables if _tables is not None else _ModelTables(model)
    ub = min(t, tables.l_max)
    if l <= 0 or l >= t or l > tables.l_max:
        return 0.0
    c_l = float(model.entry.pdf(np.asarray(l, dtype=float))
                * np.exp(np.interp(l, tables.grid, tables._B_l)
                         - np.interp(l, tables.grid, tables._A_l)))
    denom = float(tables.C(ub))
    if denom <= 0:
        raise DomainError("no entry mass before t; density undefined")
    return c_l / denom


def ybar(model: AlternativeModel, t: float) -> float:
    """Limiting at-risk fraction at time t (the normalizing integral above)."""
    if t <= 0:
        raise DomainError("the risk-set time t must be positive")
    return float(_ModelTables(model).ybar(t))


_GL_NODES, _GL_WEIGHTS = leggauss(48)


def sigma_xy(model: AlternativeModel, t: float, proc_x, proc_y, _tables: "_ModelTables | None" = None) -> float:
    """Covariance of two entry-time processes under the at-risk density at t.

    ``proc_x``/``proc_y`` map arrays of entry times to process values.
    Evaluated by composite Gauss rules against the at-risk weight, so the
    endpoints are never sampled.
    """
    if t <= 0:
        raise DomainError("the risk-set time t must be positive")
    tables = _tables if _tables is not None else _ModelTables(model)
    ub = min(t, tables.l_max)
    edges = np.linspace(0.0, ub, 257)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    nodes = (mid[:, None] + half[:, None] * _GL_NODES[None, :]).ravel()
    wts = (half[:, None] * _GL_WEIGHTS[None, :]).ravel()
    c = np.interp(nodes, tables.grid, tables.c)
    z = float(np.sum(wts * c))
    if z <= 0:
        raise DomainError("no at-risk mass before t")
    x = np.asarray(proc_x(nodes), dtype=float)
    y = np.asarray(proc_y(nodes), dtype=float)
    exy = float(np.sum(wts * c * x * y)) / z
    ex = float(np.sum(wts * c * x)) / z
    ey = float(np.sum(wts * c * y)) / z
    return exy - ex * ey


def _moment_tables(tables: _ModelTables, model: AlternativeModel, regularize: bool) -> None:
    g = tables.grid
    a = np.asarray(model.a_fun(g), dtype=float)
    if not np.all(np.isfinite(a)) or _decade_divergence(tables, a):
        if not regularize:
            raise IntegrationFailure(
                "covariate transform is not integrable against the at-risk entry "
                "density near the support edge; pass regularize=True to truncate "
                f"the covariate integrals at {REGULARIZATION_FLOOR:g} of the support"
            )
        a = np.where(g >= REGULARIZATION_FLOOR * tables.l_max, a, 0.0)
        a[~np.isfinite(a)] = 0.0
    f_entry = np.asarray(model.entry.cdf(g), dtype=float)
    ic = tables.Ic
    # row 0 is C; the others integrate v(l) c(l) for v = a, then z, a z, z^2
    # for each test's z (the rows _FIRST_Z_ROW names), one v at a time to
    # hold one temporary at a time
    rows = np.empty((11, g.size))
    rows[0] = ic

    def put(k, v):
        tables.simpson(v * tables.c, out=rows[k])

    put(1, a)
    put(2, g)
    put(3, a * g)
    put(4, g * g)
    put(5, f_entry)
    put(6, a * f_entry)
    put(7, f_entry * f_entry)
    put(8, ic)
    put(9, a * ic)
    put(10, ic * ic)
    tables.rows = rows
    tables.Ic = rows[0]  # keep one copy of C


def _node_moments(tables: _ModelTables, test: EfficacyTest, ub: float) -> tuple[float, float, float]:
    """C(ub) and the at-risk Cov(a, z) and Var(z) at truncation point ub."""
    row = tables.rows_at(ub)
    cu = row[0]
    if cu <= 0:
        return cu, 0.0, 0.0
    ea = row[1] / cu
    k = _FIRST_Z_ROW[test]
    z, az, zz = row[k:k + 3]
    if test is EfficacyTest.SIGN_SIGN:
        # z = 1 - F_u(l) with F_u(l) = C(l)/C(ub)
        efu = z / cu**2
        efu2 = zz / cu**3
        eafu = az / cu**2
        return cu, -(eafu - ea * efu), efu2 - efu * efu
    ez = z / cu
    return cu, az / cu - ea * ez, zz / cu - ez * ez


def efficacy(model: AlternativeModel, test_id, regularize: bool = False,
             _tables: "_ModelTables | None" = None) -> EfficacyResult:
    """Drift, variance and efficacy of one test under the model's alternative."""
    from scipy.integrate import quad  # imported here: ``import qitest`` stays free of SciPy

    test = EfficacyTest.parse(test_id)
    tables = _tables if _tables is not None else _ModelTables(model)
    if tables.rows is None:
        _moment_tables(tables, model, regularize)

    def mu_integrand(u):
        cu, cov, _ = _node_moments(tables, test, min(u, tables.l_max))
        yb = float(np.exp(-tables.B(u)) * cu)
        return yb * yb * cov * float(tables.lam1(u))

    def s2_integrand(u):
        cu, _, var = _node_moments(tables, test, min(u, tables.l_max))
        yb = float(np.exp(-tables.B(u)) * cu)
        return yb**3 * var * float(tables.lam1(u)) * float(tables.alpha1(u))

    opts = dict(epsabs=1e-12, epsrel=1e-8, limit=300)
    try:
        mu = quad(mu_integrand, 0.0, tables.l_max, **opts)[0]
        mu += quad(mu_integrand, tables.l_max, tables.t_max, **opts)[0]
        s2 = quad(s2_integrand, 0.0, tables.l_max, **opts)[0]
        s2 += quad(s2_integrand, tables.l_max, tables.t_max, **opts)[0]
    except Exception as exc:  # pragma: no cover - quad failures are rare
        raise IntegrationFailure(f"outer efficacy integral failed: {exc}") from exc
    if not (math.isfinite(mu) and math.isfinite(s2)) or s2 <= 0:
        raise IntegrationFailure("efficacy integrals did not produce a finite, positive variance")
    return EfficacyResult(test=test, mu_inf=model.beta * mu, sigma2_inf=s2)


def pitman_are(model: AlternativeModel, test_a, test_b, regularize: bool = False) -> float:
    """Ratio of the efficacy of test_a to that of test_b under the model."""
    tables = _ModelTables(model)
    ea = efficacy(model, test_a, regularize=regularize, _tables=tables)
    eb = efficacy(model, test_b, regularize=regularize, _tables=tables)
    if eb.efficacy <= 0:
        raise IntegrationFailure("reference test has zero efficacy; ratio undefined")
    return ea.efficacy / eb.efficacy


#: census of the published comparison grid: entry law label -> censoring
#: hazard pairs (pre-entry, post-entry), in printed column order
STUDY_COLUMNS = {
    "exponential": ((0.0, 1.0), (0.0, 1.0), (1.0, 1.0)),
    "uniform": ((0.0, 0.0), (0.0, 1.0), (1.0, 1.0)),
}


def are_table(regularize: bool = True) -> list[dict]:
    """Efficacy-ratio grid over the two study models, entry laws and columns.

    Returns one row per (model, entry law, censoring column, comparison test)
    with the ratio taken against the sign/sign member. The reciprocal model
    needs ``regularize=True`` to produce finite values.
    """
    rows = []
    entries = {"exponential": exponential_entry(2.0), "uniform": uniform_entry()}
    for model_name, factory in (("linear-covariate", model_linear_risk),
                                ("reciprocal-covariate", model_reciprocal_risk)):
        for entry_name, columns in STUDY_COLUMNS.items():
            cells = {}
            for psi0, psi1 in columns:
                if (psi0, psi1) not in cells:  # a repeated column is computed once
                    model = factory(entries[entry_name], psi0=psi0, psi1=psi1)
                    cells[psi0, psi1] = _ratios_vs_sign(model, regularize)
                for test, eff, ratio in cells[psi0, psi1]:
                    rows.append({
                        "model": model_name,
                        "entry": entry_name,
                        "psi0": psi0,
                        "psi1": psi1,
                        "g_kernel": test.value,
                        "h_kernel": "sign",
                        "efficacy": eff,
                        "are_vs_sign_sign": ratio,
                    })
    return rows


def _ratios_vs_sign(model: AlternativeModel, regularize: bool) -> list[tuple[EfficacyTest, float, float]]:
    """(test, efficacy, ratio to sign/sign) for the rank and linear members.

    The model's tables are local, so they are freed before the caller builds
    the next model's.
    """
    tables = _ModelTables(model)
    base = efficacy(model, EfficacyTest.SIGN_SIGN, regularize=regularize, _tables=tables)
    out = []
    for test in (EfficacyTest.RANK_SIGN, EfficacyTest.LINEAR_SIGN):
        eff = efficacy(model, test, regularize=regularize, _tables=tables).efficacy
        out.append((test, eff, eff / base.efficacy))
    return out
