"""The family of quasi-independence test statistics and their chi-square test.

A test in the family is indexed by two skew-symmetric kernels: one applied to
entry times, one to exit times. The statistic is the average of the kernel
pair products over comparable pairs; its null variance is estimated from
pair-product row sums in O(n^2) work, and the squared standardized statistic
is referred to a chi-square distribution with one degree of freedom.

All pairwise accumulations are single-pass numpy reductions over arrays of
fixed shape, so results are bit-reproducible for a given dataset.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .comparability import comparable_matrix
from .data import Dataset
from .errors import DegenerateDataset, DegenerateVariance
from .kernels import Kernel, pair_matrix

#: The five kernel pairs studied throughout: (entry kernel, exit kernel).
STANDARD_PAIRS = (
    (Kernel.SIGN, Kernel.SIGN),
    (Kernel.LINEAR, Kernel.SIGN),
    (Kernel.LINEAR, Kernel.LINEAR),
    (Kernel.RANK, Kernel.SIGN),
    (Kernel.RANK, Kernel.RANK),
)


@dataclass(frozen=True)
class TestResult:
    """Full output of one quasi-independence test."""

    kappa_hat: float
    n: int
    n_comparable: int
    pr_hat: float
    phi_hat: float
    chi_square: float
    p_value: float
    g_kernel: Kernel
    h_kernel: Kernel
    censored_mode: bool
    assumption_3b_required: bool

    def to_dict(self) -> dict:
        d = asdict(self)
        d["g_kernel"] = self.g_kernel.value
        d["h_kernel"] = self.h_kernel.value
        return d


def _masked_products(data: Dataset, pairs, censored_mode: bool):
    """Comparable-pair count, and a generator of each kernel pair's product matrix.

    The comparable mask and every distinct kernel matrix are built once and
    shared by the pairs. Each matrix holds g(L_i,L_j) h(T_i,T_j) on comparable
    pairs and zero elsewhere, the diagonal included.
    """
    mask = comparable_matrix(data, censored_mode)
    off = ~mask

    def products():  # lazy, so a dataset without comparable pairs builds no kernel matrix
        ent = {g: pair_matrix(g, data.entry, data.entry_ranks if g is Kernel.RANK else None)
               for g in {g for g, _ in pairs}}
        ext = {h: pair_matrix(h, data.exit, data.exit_ranks if h is Kernel.RANK else None)
               for h in {h for _, h in pairs}}
        for g, h in pairs:
            a = ent[g] * ext[h]
            a[off] = 0.0
            yield g, h, a

    return int(np.count_nonzero(mask)) // 2, products()


def _row_sums(a: np.ndarray) -> tuple[float, float]:
    """Pair sum and ordered-triple sum of a symmetric zero-diagonal matrix.

    With row sums r, the sum over unordered pairs is sum(r) / 2. For each hub
    i, the sum of a_ij a_ik over j != k (both != i) is r_i^2 minus the row sum
    of squares, so the triple sum needs O(n^2) work and no n-by-n temporary.
    """
    r = a.sum(axis=1)
    r_sq = np.einsum("ij,ij->i", a, a)
    return float(r.sum()) / 2.0, float(np.sum(r * r - r_sq))


def pair_products(data: Dataset, g, h, censored_mode: bool = False) -> np.ndarray:
    """Symmetric n-by-n matrix g(L_i,L_j) h(T_i,T_j) I(comparable); zero diagonal."""
    _, products = _masked_products(data, [(Kernel.parse(g), Kernel.parse(h))], censored_mode)
    return next(products)[2]


def u_numerator(data: Dataset, g, h, censored_mode: bool = False) -> float:
    """Sum over unordered comparable pairs of the kernel pair products."""
    if data.n < 2:
        raise DegenerateDataset("need at least two observations")
    return _row_sums(pair_products(data, g, h, censored_mode))[0]


def kappa_hat(data: Dataset, g, h, censored_mode: bool = False) -> float:
    """Comparable-pair average of the kernel pair products."""
    if data.n < 2:
        raise DegenerateDataset("need at least two observations")
    count, products = _masked_products(data, [(Kernel.parse(g), Kernel.parse(h))], censored_mode)
    if count == 0:
        raise DegenerateDataset("no comparable pairs; the statistic is undefined")
    return _row_sums(next(products)[2])[0] / count


def phi_hat_fast(data: Dataset, g, h, censored_mode: bool = False) -> float:
    """Plug-in variance piece: the ordered-triple average of a_ij a_ik (O(n^2))."""
    n = data.n
    if n < 3:
        raise DegenerateDataset("variance estimation needs at least three observations")
    return _row_sums(pair_products(data, g, h, censored_mode))[1] / (n * (n - 1) * (n - 2))


def phi_hat_bruteforce(data: Dataset, g, h, censored_mode: bool = False) -> float:
    """Direct enumeration of a_ij a_ik over ordered triples (testing oracle).

    Materializes the full triple product tensor and masks the excluded index
    patterns, so it shares no algebra with the row-sum path. O(n^3) memory;
    intended for small n.
    """
    if data.n < 3:
        raise DegenerateDataset("variance estimation needs at least three observations")
    a = pair_products(data, g, h, censored_mode)
    n = a.shape[0]
    t = a[:, :, None] * a[:, None, :]  # t[i, j, k] = a_ij a_ik
    idx = np.arange(n)
    t[idx, idx, :] = 0.0  # j == i
    t[idx, :, idx] = 0.0  # k == i
    t[:, idx, idx] = 0.0  # j == k
    return float(t.sum()) / (n * (n - 1) * (n - 2))


def chi2_sf1(x: float) -> float:
    """Upper-tail probability of the chi-square law with one degree of freedom.

    Uses the complementary error function identity; absolute accuracy is far
    below 1e-10 over the whole range.
    """
    if x < 0:
        raise ValueError("chi-square statistic must be nonnegative")
    return math.erfc(math.sqrt(x / 2.0))


def chi_square_test(kappa: float, phi: float, pr: float, n: int) -> tuple[float, float]:
    """Standardized chi-square statistic and p-value.

    statistic = n * kappa^2 * pr^2 / (4 * phi), referred to chi-square(1).
    """
    if pr <= 0:
        raise DegenerateVariance("comparable-pair probability estimate is zero")
    if phi <= 0:
        raise DegenerateVariance("plug-in variance piece is non-positive")
    stat = n * kappa * kappa * pr * pr / (4.0 * phi)
    return stat, chi2_sf1(stat)


def quasi_independence_test(data: Dataset, g, h, censored_mode: bool = False) -> TestResult:
    """Run one test of the family end to end: a one-cell grid.

    Raises DegenerateVariance where the grid would record it in the cell.
    """
    (result,) = run_test_grid(data, [(g, h)], censored_mode).values()
    if isinstance(result, DegenerateVariance):
        raise result
    return result


def run_test_grid(data: Dataset, pairs=STANDARD_PAIRS, censored_mode: bool = False) -> dict:
    """Run several kernel pairs on one dataset, sharing the pairwise setup.

    Returns {(g, h): TestResult}. Raises DegenerateDataset when the dataset
    has fewer than three observations or no comparable pair; a
    DegenerateVariance in one cell does not abort the others, the offending
    cell maps to the exception instance instead.
    """
    pairs = [(Kernel.parse(g), Kernel.parse(h)) for g, h in pairs]
    n = data.n
    if n < 3:
        raise DegenerateDataset("the chi-square test needs at least three observations")
    count, products = _masked_products(data, pairs, censored_mode)
    if count == 0:
        raise DegenerateDataset("no comparable pairs; the statistic is undefined")
    pr = count / (n * (n - 1) / 2.0)
    out = {}
    for g, h, a in products:
        pair_sum, triple_sum = _row_sums(a)
        kappa = pair_sum / count
        phi = triple_sum / (n * (n - 1) * (n - 2))
        try:
            stat, p = chi_square_test(kappa, phi, pr, n)
        except DegenerateVariance as exc:
            out[(g, h)] = exc
            continue
        out[(g, h)] = TestResult(
            kappa_hat=kappa,
            n=n,
            n_comparable=count,
            pr_hat=pr,
            phi_hat=phi,
            chi_square=stat,
            p_value=p,
            g_kernel=g,
            h_kernel=h,
            censored_mode=bool(censored_mode),
            assumption_3b_required=bool(censored_mode) and h is not Kernel.SIGN,
        )
    return out


def reverse_roles(data: Dataset) -> Dataset:
    """Swap the roles of failure and censoring: flip every event flag.

    Running a sign-exit-kernel test on the reversed data probes association
    between entry and censoring times, the standard diagnostic before
    trusting tests whose exit kernel is not the sign function.
    """
    return Dataset(data.entry, data.exit, 1 - data.event)
