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
per grid, and the moment tables are the rows of one array. A lookup reads
the rows its caller asks for with one index search, by cubic Hermite
interpolation: a row integrates v(l) c(l), so its derivative at a node is
v c there, known exactly, and the lookup is O(h^4) in the grid spacing h,
the order of the Simpson tables themselves. The outer integrals are
adaptive 21-point Gauss-Kronrod rules that evaluate every node of a round
in one call; ``ybar`` and ``conditional_entry_density`` take arrays.

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
z = F_L(l) (rank/sign) and z = l (linear/sign); as F_u(l) = C(l)/C(u), the
sign/sign z is C(l) scaled by -1/C(u), plus a constant that moves no
moment. The efficacy is mu(inf)^2 / sigma2(inf) and ratios of efficacies
compare tests.

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

from .errors import DomainError, IntegrationFailure, IntegrationWarning
from .kernels import parse_member

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
        return parse_member(cls, name, "test")


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


def _doubling_grids(start: float, points: int, rounds: int):
    """The grids linspace(0, 2^k start, points), k < ``rounds``, each with its cumulative Simpson rule.

    Grid k is the first one times 2^k exactly, and so are its spacings, so
    one ``_Simpson`` set serves all: its integrals times 2^k are bit for bit
    those of a set built on grid k.
    """
    first = np.linspace(0.0, start, points)
    simpson = _Simpson(first)
    for k in range(rounds):
        scale = 2.0**k
        yield scale * first, lambda y, scale=scale: scale * simpson(y)


#: moment row k integrates v_k(l) c(l), v_k the product of the factors named
#: here: the covariate a, l, F_L (F) and C. Row 0 (v = 1) is C itself; then
#: come a and, for each test's z, the z, a z and z^2 rows
_ROW_FACTORS = ("", "a", "l", "al", "ll", "F", "aF", "FF", "C", "aC", "CC")
#: the moment table's row of each test's z = l, F_L(l) or C(l)
_FIRST_Z_ROW = {EfficacyTest.LINEAR_SIGN: 2, EfficacyTest.RANK_SIGN: 5, EfficacyTest.SIGN_SIGN: 8}


class _ModelTables:
    """Cumulative-integral tables underlying every efficacy quantity.

    All but the four covariate rows, which ``load`` writes in place, depend
    on the entry law and the hazards alone, as does each test's sigma2(inf),
    so one set serves every test and every covariate transform of a model's
    entry law and hazards.

    The lookup's node derivatives come from c, a, l, F_L and C on the grid,
    so the tables keep a and F_L beside the rows, not a derivative per row.
    Being O(h^4), it needs only a 20 001-point uniform segment over the
    bulk; the geometric segment near 0 keeps its 9 600 points, which
    resolve the jump of a c at the regularization floor.
    """

    GEOM_POINTS = 9601
    UNIF_POINTS = 20001

    def __init__(self, model: AlternativeModel):
        self.entry = entry = model.entry
        lam0, lam1, psi0, psi1 = map(_as_fun, (model.lambda0, model.lambda1, model.psi0, model.psi1))
        self.lam1 = lam1
        self.alpha1 = _as_fun(model.alpha1)
        gamma0 = lambda x: lam0(x) + psi0(x)
        gamma1 = lambda x: lam1(x) + psi1(x)

        self.l_max = float(entry.upper) if math.isfinite(entry.upper) else self._find_l_max(entry, gamma0, gamma1)
        # mixed grid: geometric near 0 (resolves integrable singularities),
        # uniform over the bulk
        brk = 1e-2 * self.l_max
        geo = np.geomspace(1e-12 * self.l_max, brk, self.GEOM_POINTS)[:-1]
        uni = np.linspace(brk, self.l_max, self.UNIF_POINTS)
        self.grid = g = np.concatenate([geo, uni])
        self.simpson = _Simpson(g)

        # log of the entry weight c/f_L: post-entry minus pre-entry cumulative hazard
        self._log_w = self.simpson(gamma1(g))
        self._log_w -= self.simpson(gamma0(g))
        self.c = entry.pdf(g) * np.exp(self._log_w)

        # time grid for the post-entry cumulative hazard beyond l_max
        self._t_grid, self._B_t = self._time_table(gamma1)
        self.t_max = float(self._t_grid[-1])

        # the moment table, rows as _ROW_FACTORS names them; row 0 is C, its
        # only copy. The rows free of a are built here, one v at a time to
        # hold one temporary at a time; load writes the others.
        self.rows = np.empty((len(_ROW_FACTORS), g.size))
        self.Ic = self.rows[0]
        self.F_L = np.asarray(entry.cdf(g), dtype=float)
        self.a: np.ndarray | None = None  # the loaded covariate on the grid, written by load
        for k, factors in enumerate(_ROW_FACTORS):
            if "a" not in factors:
                self._put(k)
        self.sigma2: dict[EfficacyTest, float] = {}  # sigma2(inf) by test

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def _find_l_max(entry: EntryLaw, gamma0, gamma1) -> float:
        for g, integral in _doubling_grids(8.0, 4001, 20):
            c = entry.pdf(g) * np.exp(integral(gamma1(g)) - integral(gamma0(g)))
            peak = float(c.max())
            if peak > 0 and c[-1] < 1e-14 * peak:
                return float(g[np.flatnonzero(c >= 1e-14 * peak)[-1]])
        raise IntegrationFailure("entry weight function does not decay; cannot bound the support")

    def _time_table(self, gamma1) -> tuple[np.ndarray, np.ndarray]:
        """The first doubled time grid over which B grows enough past l_max, and B on it."""
        # need exp(-2 (B(t) - B(l_max))) below 1e-10
        target = 0.5 * math.log(1e10)
        for tg, integral in _doubling_grids(self.l_max + 8.0, 40001, 30):
            B = integral(gamma1(tg))
            if float(B[-1]) - float(np.interp(self.l_max, tg, B)) > target:
                return tg, B
        raise IntegrationFailure("post-entry hazard does not accumulate; cannot bound the time axis")

    # -- the moment table ------------------------------------------------------

    def _v(self, k: int, j=slice(None)):
        """v_k of moment row k at the grid nodes j (the int 1 for row 0)."""
        factor = {"a": self.a, "l": self.grid, "F": self.F_L, "C": self.Ic}
        return math.prod(factor[name][j] for name in _ROW_FACTORS[k])

    def _put(self, k: int) -> None:
        """Write moment row k, the cumulative integral of v_k(l) c(l)."""
        self.simpson(self._v(k) * self.c, out=self.rows[k])

    def load(self, a_fun: Callable[[np.ndarray], np.ndarray], regularize: bool) -> None:
        """Write the covariate rows of a = ``a_fun``: those of a, a l, a F_L and a C."""
        g = self.grid
        a = np.asarray(a_fun(g), dtype=float)
        if not np.all(np.isfinite(a)) or _decade_divergence(self, a):
            if not regularize:
                raise IntegrationFailure(
                    "covariate transform is not integrable against the at-risk entry "
                    "density near the support edge; pass regularize=True to truncate "
                    f"the covariate integrals at {REGULARIZATION_FLOOR:g} of the support"
                )
            a = np.where(g >= REGULARIZATION_FLOOR * self.l_max, a, 0.0)
            a[~np.isfinite(a)] = 0.0
        self.a = a
        a_is_l = np.array_equal(a, g)
        if a_is_l:  # the a and a l rows are those of l and l^2
            self.rows[[1, 3]] = self.rows[[2, 4]]
        for k in (6, 9) if a_is_l else (1, 3, 6, 9):
            self._put(k)

    # -- efficacy quantities -----------------------------------------------------

    def efficacies(self, model: AlternativeModel, tests, regularize: bool) -> dict[EfficacyTest, EfficacyResult]:
        """Drift, variance and efficacy of each test under ``model``'s alternative.

        ``model`` must have the entry law and hazards the tables were built
        for; its covariate rows are loaded once for all the tests. Each of
        mu(inf) and sigma2(inf) is one adaptive integral over the time axis,
        split at l_max where the truncation point stops moving; the
        variance's nodes never read the covariate, so each test's sigma2(inf)
        is integrated once per table set.
        """
        tests = dict.fromkeys(EfficacyTest.parse(t) for t in tests)
        self.load(model.a_fun, regularize)
        return {test: self._efficacy(test, model.beta) for test in tests}

    def _efficacy(self, test: EfficacyTest, beta: float) -> EfficacyResult:
        def at_risk(u):
            """ybar(u) and the at-risk Cov(a, z) and Var(z) at the times u, from one lookup."""
            c, cov, var = _node_moments(self, test, np.minimum(u, self.l_max))
            return np.exp(-self.B(u)) * c, cov, var

        def mu_integrand(u):
            yb, cov, _ = at_risk(u)
            return yb * yb * cov * self.lam1(u)

        def s2_integrand(u):
            yb, _, var = at_risk(u)
            return yb**3 * var * self.lam1(u) * self.alpha1(u)

        points = (0.0, self.l_max, self.t_max)
        mu = _gauss_kronrod(mu_integrand, points)
        s2 = self.sigma2.get(test)
        if s2 is None:
            s2 = self.sigma2[test] = _gauss_kronrod(s2_integrand, points)
        if not (math.isfinite(mu) and math.isfinite(s2)) or s2 <= 0:
            raise IntegrationFailure("efficacy integrals did not produce a finite, positive variance")
        return EfficacyResult(test=test, mu_inf=beta * mu, sigma2_inf=s2)

    def entry_density(self, t, l) -> np.ndarray:
        """Density (in l) of entry times among subjects at risk at times t > 0, broadcast against l."""
        t, l = np.broadcast_arrays(t, l)
        inside = (l > 0) & (l < t) & (l <= self.l_max)
        denom = self.rows_at(np.minimum(t[inside], self.l_max), (0,))[0]
        if np.any(denom <= 0):
            raise DomainError("no entry mass before t; density undefined")
        out = np.zeros(t.shape)
        # the at-risk entry weight c: f_L exactly, its log weight interpolated
        l = np.asarray(l[inside], dtype=float)
        out[inside] = self.entry.pdf(l) * np.exp(np.interp(l, self.grid, self._log_w)) / denom
        return out

    # -- lookups ---------------------------------------------------------------

    def B(self, t) -> np.ndarray:
        return np.interp(t, self._t_grid, self._B_t)

    def rows_at(self, x, rows=range(len(_ROW_FACTORS))) -> np.ndarray:
        """The moment rows ``rows`` at the points x: ``out[i]`` is row ``rows[i]``'s cubic Hermite interpolant.

        Row k integrates v_k(l) c(l), so its derivative at a node is v_k c
        there and the interpolant is O(h^4) in the grid spacing h. Only the
        requested rows and slopes are formed, after one index search. A grid
        node reads its stored values bit for bit, x below the first node the
        first, x at or beyond the last node the last. It reads the covariate
        ``load`` wrote.
        """
        g = self.grid
        x = np.clip(np.asarray(x, dtype=float), g[0], g[-1])
        j = np.minimum(g.searchsorted(x, side="right") - 1, g.size - 2)
        h = g[j + 1] - g[j]
        t = (x - g[j]) / h  # in [0, 1]: 0 at node j, 1 only at the last node
        s = 1.0 - t
        k = np.reshape(rows, (-1,) + (1,) * j.ndim)
        slopes = lambda j: np.stack([self.c[j] * self._v(r, j) for r in rows])
        return ((1.0 + 2.0 * t) * s * s * self.rows[k, j] + t * t * (3.0 - 2.0 * t) * self.rows[k, j + 1]
                + t * s * h * (s * slopes(j) - t * slopes(j + 1)))

    def ybar(self, t) -> np.ndarray:
        """The at-risk fraction at the times t: exp(-B(t)) times C, row 0, at min(t, l_max)."""
        return np.exp(-self.B(t)) * self.rows_at(np.minimum(t, self.l_max), (0,))[0]


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


def _check_times(t, l=0.0) -> None:
    """DomainError unless every risk-set time t is finite and positive and every entry time l finite."""
    if not (np.all(np.isfinite(t) & (np.asarray(t) > 0)) and np.all(np.isfinite(l))):
        raise DomainError("risk-set times t must be finite and positive, and entry times l finite")


def conditional_entry_density(model: AlternativeModel, t, l) -> "float | np.ndarray":
    """Density (in l) of entry times among subjects at risk at time t.

    t and l may be arrays, broadcast against each other; one set of tables
    serves every point, and scalars give a float. The density is 0 for l
    outside (0, min(t, l_max)].
    """
    _check_times(t, l)
    density = _ModelTables(model).entry_density(t, l)
    return float(density) if density.ndim == 0 else density


def ybar(model: AlternativeModel, t) -> "float | np.ndarray":
    """Limiting at-risk fraction at time t (the normalizing integral above).

    t may be an array; one set of tables serves every point, and a scalar
    gives a float.
    """
    _check_times(t)
    fraction = _ModelTables(model).ybar(t)
    return float(fraction) if fraction.ndim == 0 else fraction


def _node_moments(tables: _ModelTables, test: EfficacyTest, ub) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The at-risk mass C(ub), Cov(a, z) and Var(z) at the truncation points ub, from one lookup.

    A test's z is, up to a constant, s r(l) with r the process of its
    moment rows: r = l or F_L(l) with s = 1, and r = C(l) with
    s = -1/C(ub) for sign/sign. So Cov(a, z) = s Cov(a, r) and
    Var(z) = s^2 Var(r). Both are 0 where C(ub) is not positive (no entry
    mass yet).
    """
    k = _FIRST_Z_ROW[test]
    mass_c, a, z, az, zz = tables.rows_at(ub, (0, 1, k, k + 1, k + 2))
    mass = mass_c > 0
    c = np.where(mass, mass_c, 1.0)
    s = -1.0 / c if test is EfficacyTest.SIGN_SIGN else 1.0
    ea = a / c
    ez = z / c
    cov, var = s * (az / c - ea * ez), s * s * (zz / c - ez * ez)
    return mass_c, np.where(mass, cov, 0.0), np.where(mass, var, 0.0)


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


def efficacy(model: AlternativeModel, test_id, regularize: bool = False) -> EfficacyResult:
    """Drift, variance and efficacy of one test under the model's alternative."""
    test = EfficacyTest.parse(test_id)
    return _ModelTables(model).efficacies(model, [test], regularize)[test]


def pitman_are(model: AlternativeModel, test_a, test_b, regularize: bool = False) -> float:
    """Ratio of the efficacy of test_a to that of test_b under the model."""
    test_a, test_b = EfficacyTest.parse(test_a), EfficacyTest.parse(test_b)
    res = _ModelTables(model).efficacies(model, [test_a, test_b], regularize)
    if res[test_b].efficacy <= 0:
        raise IntegrationFailure("reference test has zero efficacy; ratio undefined")
    return res[test_a].efficacy / res[test_b].efficacy


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
                res = tables.efficacies(model, EfficacyTest, regularize)
                base = res.pop(EfficacyTest.SIGN_SIGN).efficacy
                cells[name, entry_name, psi0, psi1] = [(test, r.efficacy, r.efficacy / base)
                                                       for test, r in res.items()]
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
