"""The family of quasi-independence test statistics and their chi-square test.

A test in the family is indexed by two skew-symmetric kernels: one applied to
entry times, one to exit times. The statistic is the average of the kernel
pair products over comparable pairs; its null variance is estimated from
pair-product row sums, and the squared standardized statistic is referred to
a chi-square distribution with one degree of freedom.

Every test reduces the per-subject row sums of ``rowsums.row_sums``, computed
in O(n log n) time and O(n) memory without any n-by-n array; the Monte Carlo
harness tests a block of datasets with one call (``_grid_block``). The dense
``pair_products`` is the definitional form, kept as a testing oracle. All
accumulations are numpy reductions over arrays of fixed shape, so results
are bit-reproducible for a given dataset.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .comparability import comparable_matrix
from .data import Dataset
from .errors import DegenerateDataset, DegenerateVariance, DomainError
from .kernels import Kernel, pair_matrix
from .rowsums import block_row_sums, row_sums

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


def _pair_and_triple_sums(r: np.ndarray, r_sq: np.ndarray):
    """Pair sum and ordered-triple sum of a kernel pair, from its row sums.

    The sum over unordered comparable pairs is sum(r) / 2. For each hub i,
    the sum of a_ij a_ik over j != k (both != i) is r_i^2 minus the row sum
    of squares r_sq_i. Both sums run over the last axis, so a block of
    datasets gets one pair of sums per dataset.
    """
    return r.sum(axis=-1) / 2.0, np.sum(r * r - r_sq, axis=-1)


def _one_pair(data: Dataset, g, h, censored_mode: bool) -> tuple[int, float, float]:
    """Comparable-pair count, pair sum and ordered-triple sum of one kernel pair."""
    pair = (Kernel.parse(g), Kernel.parse(h))
    count, sums = row_sums(data, [pair], censored_mode)
    pair_sum, triple_sum = _pair_and_triple_sums(*sums[pair])
    return int(count.sum()) // 2, float(pair_sum), float(triple_sum)


def pair_products(data: Dataset, g, h, censored_mode: bool = False) -> np.ndarray:
    """Symmetric n-by-n matrix g(L_i,L_j) h(T_i,T_j) I(comparable); zero diagonal.

    The definitional form of the row sums (testing oracle); O(n^2) memory.
    """
    a = pair_matrix(Kernel.parse(g), data.entry) * pair_matrix(Kernel.parse(h), data.exit)
    a[~comparable_matrix(data, censored_mode)] = 0.0
    return a


def u_numerator(data: Dataset, g, h, censored_mode: bool = False) -> float:
    """Sum over unordered comparable pairs of the kernel pair products."""
    if data.n < 2:
        raise DegenerateDataset("need at least two observations")
    return _one_pair(data, g, h, censored_mode)[1]


def kappa_hat(data: Dataset, g, h, censored_mode: bool = False) -> float:
    """Comparable-pair average of the kernel pair products."""
    if data.n < 2:
        raise DegenerateDataset("need at least two observations")
    count, pair_sum, _ = _one_pair(data, g, h, censored_mode)
    if count == 0:
        raise DegenerateDataset("no comparable pairs; the statistic is undefined")
    return pair_sum / count


def phi_hat_fast(data: Dataset, g, h, censored_mode: bool = False) -> float:
    """Plug-in variance piece: the ordered-triple average of a_ij a_ik (O(n log n))."""
    n = data.n
    if n < 3:
        raise DegenerateDataset("variance estimation needs at least three observations")
    return _one_pair(data, g, h, censored_mode)[2] / (n * (n - 1) * (n - 2))


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
    Raises DomainError on a non-finite input.
    """
    if not all(math.isfinite(x) for x in (kappa, phi, pr)):
        raise DomainError(f"chi-square test inputs must be finite: kappa={kappa!r}, "
                          f"phi={phi!r}, pr={pr!r}")
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
    (grid,) = _grid_block(data.entry[None], data.exit[None], data.event[None], pairs,
                          censored_mode)
    if isinstance(grid, DegenerateDataset):
        raise grid
    return grid


def _grid_block(entry: np.ndarray, exit_: np.ndarray, event: np.ndarray, pairs,
                censored_mode: bool) -> list:
    """:func:`run_test_grid` on each row of a block of datasets of one size.

    The (R, n) arrays hold one dataset per row and ``pairs`` parsed kernel
    pairs. Returns one grid per row, or the DegenerateDataset of a row whose
    statistic is undefined. Each row's grid equals that of its own dataset.
    """
    R, n = entry.shape
    if n < 3:
        return [DegenerateDataset("the chi-square test needs at least three observations")
                for _ in range(R)]
    counts, sums = block_row_sums(entry, exit_, event, pairs, censored_mode)
    comparable = counts.sum(axis=1) // 2
    pair_triple = {pair: _pair_and_triple_sums(r, r_sq) for pair, (r, r_sq) in sums.items()}
    grids = []
    for row in range(R):
        count = int(comparable[row])
        if count == 0:
            grids.append(DegenerateDataset("no comparable pairs; the statistic is undefined"))
            continue
        pr = count / (n * (n - 1) / 2.0)
        grid = {}
        for g, h in pairs:
            pair_sums, triple_sums = pair_triple[(g, h)]
            kappa = float(pair_sums[row]) / count
            phi = float(triple_sums[row]) / (n * (n - 1) * (n - 2))
            try:
                stat, p = chi_square_test(kappa, phi, pr, n)
            except DegenerateVariance as exc:
                grid[(g, h)] = exc
                continue
            grid[(g, h)] = TestResult(
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
        grids.append(grid)
    return grids


def reverse_roles(data: Dataset) -> Dataset:
    """Swap the roles of failure and censoring: flip every event flag.

    Running a sign-exit-kernel test on the reversed data probes association
    between entry and censoring times, the standard diagnostic before
    trusting tests whose exit kernel is not the sign function.
    """
    return Dataset(data.entry, data.exit, 1 - data.event)
