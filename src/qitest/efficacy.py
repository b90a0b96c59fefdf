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
per grid, and the moment tables are the rows of one array, so the nodes of
the outer quadrature read all of them with one index search. The outer
integrals are adaptive 21-point Gauss-Kronrod rules that evaluate every node
of a round in one call.

Only four moment rows depend on the covariate transform a(l): those of a,
a l, a F_L and a C. The tables are therefore built once per entry law and
set of hazards (an (entry law, censoring) cell of the study grid), and each
covariate's four rows are loaded into them in place. sigma2(inf) below never
reads a, so each test's variance is integrated once per set of tables.

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
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import DomainError, IntegrationFailure, IntegrationWarning

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
    return lambda x: np.full(np.shape(x), v)


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
#: z^2 rows follow it (see _ModelTables.load)
_FIRST_Z_ROW = {EfficacyTest.LINEAR_SIGN: 2, EfficacyTest.RANK_SIGN: 5, EfficacyTest.SIGN_SIGN: 8}


class _ModelTables:
    """Cumulative-integral tables underlying every efficacy quantity.

    All but the four covariate rows, which ``load`` writes in place, depend
    on the entry law and the hazards alone, as does each test's sigma2(inf).
    """

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

        self.rows: np.ndarray | None = None  # the moment table, built by load
        self._covariate = None  # (a_fun, regularize) of the loaded covariate rows
        self.sigma2: dict[EfficacyTest, float] = {}  # sigma2(inf) by test

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

    # -- the moment table ------------------------------------------------------

    def load(self, model: AlternativeModel, regularize: bool) -> None:
        """Make the moment table hold ``model``'s covariate rows.

        Row 0 is C; the others integrate v(l) c(l) for v = a, then z, a z,
        z^2 for each test's z (the rows _FIRST_Z_ROW names). The rows free of
        a are built on the first load; a load writes rows 1, 3, 6 and 9 in
        place, one v at a time to hold one temporary at a time.
        """
        if self._covariate == (model.a_fun, regularize):
            return
        g = self.grid
        a = np.asarray(model.a_fun(g), dtype=float)
        if not np.all(np.isfinite(a)) or _decade_divergence(self, a):
            if not regularize:
                raise IntegrationFailure(
                    "covariate transform is not integrable against the at-risk entry "
                    "density near the support edge; pass regularize=True to truncate "
                    f"the covariate integrals at {REGULARIZATION_FLOOR:g} of the support"
                )
            a = np.where(g >= REGULARIZATION_FLOOR * self.l_max, a, 0.0)
            a[~np.isfinite(a)] = 0.0
        f_entry = np.asarray(model.entry.cdf(g), dtype=float)
        ic = self.Ic

        def put(k, v):
            self.simpson(v * self.c, out=self.rows[k])

        if self.rows is None:
            self.rows = np.empty((11, g.size))
            self.rows[0] = ic
            put(2, g)
            put(4, g * g)
            put(5, f_entry)
            put(7, f_entry * f_entry)
            put(8, ic)
            put(10, ic * ic)
            self.Ic = ic = self.rows[0]  # keep one copy of C
        self._covariate = None  # until every covariate row is written
        if np.array_equal(a, g):  # a(l) = l: the a and a l rows are those of l and l^2
            self.rows[1] = self.rows[2]
            self.rows[3] = self.rows[4]
        else:
            put(1, a)
            put(3, a * g)
        put(6, a * f_entry)
        put(9, a * ic)
        self._covariate = (model.a_fun, regularize)

    # -- lookups ---------------------------------------------------------------

    def B(self, t) -> np.ndarray:
        return np.interp(t, self._t_grid, self._B_t)

    def C(self, x) -> np.ndarray:
        return np.interp(x, self.grid, self.Ic)

    def rows_at(self, x) -> np.ndarray:
        """Every moment row at the points x: ``out[k]`` is ``np.interp(x, grid, rows[k])``.

        One index search serves all rows; the arithmetic is np.interp's, so
        the values are bit-identical to it for finite rows.
        """
        g = self.grid
        x = np.asarray(x, dtype=float)
        j = np.clip(g.searchsorted(x, side="right") - 1, 0, g.size - 2)
        x0, x1 = g[j], g[j + 1]
        lo, hi = self.rows[:, j], self.rows[:, j + 1]
        between = (hi - lo) / (x1 - x0) * (x - x0) + lo
        # x >= x1 only at or beyond the last point; x <= x0 only at a grid
        # point or below the first
        return np.where(x >= x1, hi, np.where(x <= x0, lo, between))

    def ybar(self, t) -> np.ndarray:
        return np.exp(-self.B(t)) * self.C(np.minimum(t, self.l_max))


def _decade_divergence(tables: _ModelTables, a_vals: np.ndarray) -> bool:
    """True when |a|-weighted mass per decade near 0 fails to decay."""
    g = tables.grid
    w = np.abs(a_vals) * tables.c
    total = float(np.trapezoid(w, g)) + 1e-300
    edges = [1e-12 * tables.l_max * 10.0**k for k in range(0, 7)]
    # the grid is sorted, so each decade [lo, hi) is one slice of it
    bounds = g.searchsorted(edges)
    contrib = [float(np.trapezoid(w[i:j], g[i:j])) if j - i > 2 else 0.0
               for i, j in zip(bounds[:-1], bounds[1:])]
    # integrable transforms: contributions shrink toward the lowest decades
    lowest = sum(contrib[:3])
    return lowest > 1e-9 * total and contrib[0] > 0.45 * (contrib[2] + 1e-300)


#: the model fields a table set is built from, besides the entry law
_TABLE_HAZARDS = ("lambda0", "lambda1", "alpha1", "psi0", "psi1")


def _tables_for(model: AlternativeModel, tables: "_ModelTables | None") -> _ModelTables:
    """``tables`` once checked to be built for the model's entry law and hazards, or fresh ones."""
    if tables is None:
        return _ModelTables(model)
    built = tables.model
    if built.entry is not model.entry or any(getattr(built, k) != getattr(model, k) for k in _TABLE_HAZARDS):
        raise ValueError("the tables were built for a model with another entry law or other hazards")
    return tables


def conditional_entry_density(model: AlternativeModel, t: float, l: float,
                              _tables: "_ModelTables | None" = None) -> float:
    """Density (in l) of entry times among subjects at risk at time t."""
    if t <= 0:
        raise DomainError("the risk-set time t must be positive")
    tables = _tables_for(model, _tables)
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
    tables = _tables_for(model, _tables)
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


def _node_moments(tables: _ModelTables, test: EfficacyTest, ub) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """C(ub) and the at-risk Cov(a, z) and Var(z) at the truncation points ub.

    Both moments are 0 where C(ub) is not positive (no entry mass yet).
    """
    row = tables.rows_at(ub)
    cu = row[0]
    mass = cu > 0
    c = np.where(mass, cu, 1.0)
    ea = row[1] / c
    k = _FIRST_Z_ROW[test]
    z, az, zz = row[k:k + 3]
    if test is EfficacyTest.SIGN_SIGN:
        # z = 1 - F_u(l) with F_u(l) = C(l)/C(ub)
        efu = z / c**2
        efu2 = zz / c**3
        eafu = az / c**2
        cov, var = -(eafu - ea * efu), efu2 - efu * efu
    else:
        ez = z / c
        cov, var = az / c - ea * ez, zz / c - ez * ez
    return cu, np.where(mass, cov, 0.0), np.where(mass, var, 0.0)


# QUADPACK's qk21 rule (Piessens et al., 1983): the Kronrod abscissae on
# [0, 1] from the outside in, their weights, and the weights of the 10-point
# Gauss rule, whose abscissae are the Kronrod ones of odd index
_XGK = np.array([0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
                 0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
                 0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
                 0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
                 0.294392862701460198131126603103866, 0.148874338981631210884826001129720, 0.0])
_WGK = np.array([0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
                 0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
                 0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
                 0.123491976262065851077958109831074, 0.134709217311473325928054001771707,
                 0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
                 0.149445554002916905664936468389821])
_WG = np.array([0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
                0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
                0.295524224714752870173892994651338])
# the same rule over all 21 abscissae on [-1, 1], in ascending order
_GK_NODES = np.concatenate([-_XGK[:-1], _XGK[::-1]])
_GK_KRONROD = np.concatenate([_WGK[:-1], _WGK[::-1]])
_GK_GAUSS = np.zeros(21)
_GK_GAUSS[1:10:2] = _WG
_GK_GAUSS[11::2] = _WG[::-1]


def _gauss_kronrod(f, points, epsabs: float = 1e-12, epsrel: float = 1e-8, limit: int = 300) -> float:
    """Adaptive 21-point Gauss-Kronrod integral of a vectorised f over [points[0], points[-1]].

    The intervals between ``points`` start the subdivision. Each round calls
    f once, on every node of the intervals made by the last round, and then
    bisects the intervals of largest error estimate, as few as leave the
    others' estimates summing within max(epsabs, epsrel |integral|), with at
    most ``limit`` intervals in all. The error estimate of an interval is
    QUADPACK's qk21 one. When the limit stops the subdivision first, the
    estimate is returned with an IntegrationWarning naming its error bound.
    """
    edges = np.asarray(points, dtype=float)
    new_a, new_b = edges[:-1], edges[1:]
    a = b = val = err = np.empty(0)
    while True:
        centre = 0.5 * (new_a + new_b)
        half = 0.5 * (new_b - new_a)
        fx = f((centre[:, None] + half[:, None] * _GK_NODES).ravel()).reshape(-1, _GK_NODES.size)
        resk = np.sum(fx * _GK_KRONROD, axis=1)
        mean = 0.5 * resk
        resabs = np.sum(np.abs(fx) * _GK_KRONROD, axis=1) * half
        resasc = np.sum(np.abs(fx - mean[:, None]) * _GK_KRONROD, axis=1) * half
        new_err = np.abs((resk - np.sum(fx * _GK_GAUSS, axis=1)) * half)
        scaled = resasc * np.minimum(1.0, (200.0 * new_err / np.where(resasc != 0, resasc, 1.0)) ** 1.5)
        new_err = np.maximum(50 * np.finfo(float).eps * resabs, np.where(resasc != 0, scaled, new_err))
        a, b = np.concatenate([a, new_a]), np.concatenate([b, new_b])
        val, err = np.concatenate([val, resk * half]), np.concatenate([err, new_err])

        total, bound = float(np.sum(val)), float(np.sum(err))
        tol = max(epsabs, epsrel * abs(total))
        if bound <= tol:
            return total
        order = np.argsort(-err, kind="stable")
        # rest[k]: the error left on the intervals not bisected when the k largest are
        rest = np.append(np.cumsum(err[order][::-1])[::-1], 0.0)
        split = order[:min(int(np.argmax(rest <= tol)), limit - a.size)]
        mid = 0.5 * (a[split] + b[split])
        if split.size == 0 or not np.all((a[split] < mid) & (mid < b[split])):
            warnings.warn(f"integral stopped at {a.size} subintervals with error bound {bound:.3g} "
                          f"above its tolerance {tol:.3g}", IntegrationWarning, stacklevel=3)
            return total
        new_a, new_b = np.concatenate([a[split], mid]), np.concatenate([mid, b[split]])
        keep = np.ones(a.size, dtype=bool)
        keep[split] = False
        a, b, val, err = a[keep], b[keep], val[keep], err[keep]


def efficacy(model: AlternativeModel, test_id, regularize: bool = False,
             _tables: "_ModelTables | None" = None) -> EfficacyResult:
    """Drift, variance and efficacy of one test under the model's alternative.

    Each of mu(inf) and sigma2(inf) is one adaptive integral over the time
    axis, split at l_max where the truncation point stops moving; the
    variance's nodes never depend on the covariate.
    """
    test = EfficacyTest.parse(test_id)
    tables = _tables_for(model, _tables)
    tables.load(model, regularize)

    def at_risk(u):
        """ybar(u) and the at-risk Cov(a, z) and Var(z) at the times u."""
        cu, cov, var = _node_moments(tables, test, np.minimum(u, tables.l_max))
        return np.exp(-tables.B(u)) * cu, cov, var

    def mu_integrand(u):
        yb, cov, _ = at_risk(u)
        return yb * yb * cov * tables.lam1(u)

    def s2_integrand(u):
        yb, _, var = at_risk(u)
        return yb**3 * var * tables.lam1(u) * tables.alpha1(u)

    points = (0.0, tables.l_max, tables.t_max)
    mu = _gauss_kronrod(mu_integrand, points)
    s2 = tables.sigma2.get(test)
    if s2 is None:
        s2 = tables.sigma2[test] = _gauss_kronrod(s2_integrand, points)
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

    The two models of an (entry law, censoring) cell differ only in the
    covariate transform, so each distinct cell builds one set of tables:
    both models load their covariate rows into it in turn and share its
    variances, and it is freed before the next cell's set is built.
    """
    entries = {"exponential": exponential_entry(2.0), "uniform": uniform_entry()}
    factories = {"linear-covariate": model_linear_risk, "reciprocal-covariate": model_reciprocal_risk}
    cells = {}
    for entry_name, columns in STUDY_COLUMNS.items():
        for psi0, psi1 in dict.fromkeys(columns):  # a repeated column is computed once
            models = {name: factory(entries[entry_name], psi0=psi0, psi1=psi1)
                      for name, factory in factories.items()}
            tables = _ModelTables(models["linear-covariate"])
            for name, model in models.items():
                cells[name, entry_name, psi0, psi1] = _ratios_vs_sign(model, regularize, tables)
            del tables  # building the next set while this one lives raises the peak memory
    return [
        {
            "model": model_name,
            "entry": entry_name,
            "psi0": psi0,
            "psi1": psi1,
            "g_kernel": test.value,
            "h_kernel": "sign",
            "efficacy": eff,
            "are_vs_sign_sign": ratio,
        }
        for model_name in factories
        for entry_name, columns in STUDY_COLUMNS.items()
        for psi0, psi1 in columns
        for test, eff, ratio in cells[model_name, entry_name, psi0, psi1]
    ]


def _ratios_vs_sign(model: AlternativeModel, regularize: bool,
                    _tables: "_ModelTables | None" = None) -> list[tuple[EfficacyTest, float, float]]:
    """(test, efficacy, ratio to sign/sign) for the rank and linear members."""
    tables = _tables_for(model, _tables)
    base = efficacy(model, EfficacyTest.SIGN_SIGN, regularize=regularize, _tables=tables)
    out = []
    for test in (EfficacyTest.RANK_SIGN, EfficacyTest.LINEAR_SIGN):
        eff = efficacy(model, test, regularize=regularize, _tables=tables).efficacy
        out.append((test, eff, eff / base.efficacy))
    return out
