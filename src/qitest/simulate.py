"""Scenario generators and the replicated level/power experiment harness.

Five generative families are supported: three exponential-hazard models with
uniform entries (null, linear link, nonlinear link) and two bivariate-normal
models (null and correlated). Observations violating the truncation condition
are discarded and generation continues until exactly the requested number of
subjects survives the filter. Censoring, when enabled, draws an independent
exponential time whose rate is calibrated so the post-truncation censored
fraction matches a target.

Replicates derive independent generators from (seed, replicate index), so an
experiment is reproducible bit for bit regardless of execution order or
worker count; aggregation is integer tallies only.
"""

from __future__ import annotations

import enum
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .errors import CalibrationFailure, DegenerateDataset, DegenerateVariance, GenerationStall
from .kernels import Kernel
from .teststat import STANDARD_PAIRS, _grid_block

_ACCEPT_FLOOR = 1e-6
_BATCH_CAP = 4_000_000
#: relative distance from a probe rate within which a draw's censoring
#: threshold is re-evaluated by the probe's own comparison
_NEAR = 1e-12
#: subjects per block of replicates tested by one engine call
_BLOCK_SUBJECTS = 8192


class ScenarioFamily(enum.Enum):
    EXP_NULL = "exp-null"
    EXP_LINEAR = "exp-linear"
    EXP_NONLINEAR = "exp-nonlinear"
    NORMAL_NULL = "normal-null"
    NORMAL_ALT = "normal-alt"

    @classmethod
    def parse(cls, name: "ScenarioFamily | str") -> "ScenarioFamily":
        if isinstance(name, ScenarioFamily):
            return name
        try:
            return cls(name.strip().lower())
        except ValueError:
            valid = ", ".join(f.value for f in cls)
            raise ValueError(f"unknown scenario {name!r}; expected one of: {valid}") from None


@dataclass(frozen=True)
class SimScenario:
    """One generative setting for the Monte Carlo harness.

    ``censoring_target`` is the desired post-truncation censored fraction in
    (0, 1), or None for uncensored data. The exponential censoring rate that
    achieves the target is calibrated once per scenario (deterministically
    from ``seed``) and cached on first use via :func:`calibrate_censoring`.
    """

    family: ScenarioFamily
    target_n: int = 400
    censoring_target: float | None = None
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "family", ScenarioFamily.parse(self.family))
        if self.censoring_target is not None and not (0.0 < self.censoring_target < 1.0):
            raise ValueError("censoring_target must lie in (0, 1) or be None")


def _draw_latent(family: ScenarioFamily, rng: np.random.Generator, m: int):
    """m latent (entry, failure) pairs before truncation filtering."""
    if family in (ScenarioFamily.EXP_NULL, ScenarioFamily.EXP_LINEAR, ScenarioFamily.EXP_NONLINEAR):
        entry = rng.uniform(0.0, 5.0, m)
        if family is ScenarioFamily.EXP_NULL:
            hazard = np.full(m, 0.3)
        elif family is ScenarioFamily.EXP_LINEAR:
            hazard = 0.3 * (1.0 - entry / 12.0)
        else:
            hazard = 0.3 / (np.square(entry - 2.5) + 2.0)
        failure = rng.exponential(1.0, m) / hazard
        return entry, failure
    rho = 0.15 if family is ScenarioFamily.NORMAL_ALT else 0.0
    z = rng.standard_normal((m, 2))
    entry = -1.0 + z[:, 0]
    failure = rho * z[:, 0] + math.sqrt(1.0 - rho * rho) * z[:, 1]
    return entry, failure


def generate_dataset(scenario: SimScenario, rng: np.random.Generator,
                     censoring_rate: float | None = None) -> Dataset:
    """Draw until exactly ``target_n`` subjects pass the truncation filter.

    ``censoring_rate`` is the exponential rate of the censoring time; it must
    be supplied when the scenario requests censoring (use
    :func:`calibrate_censoring`), because calibration is a separate,
    deterministic step.
    """
    want_censoring = scenario.censoring_target is not None
    if want_censoring and censoring_rate is None:
        censoring_rate = calibrate_censoring(scenario)
    n = scenario.target_n
    entry = np.empty(0)
    exit_ = np.empty(0)
    event = np.empty(0, dtype=np.int8)
    drawn = 0
    while entry.size < n:
        # grow batches when acceptance is poor so stalls surface quickly
        m = min(_BATCH_CAP, max(3 * (n - entry.size) + 64, drawn))
        le, lx = _draw_latent(scenario.family, rng, m)
        if want_censoring:
            lc = rng.exponential(1.0 / censoring_rate, m)
            lt = np.minimum(lx, lc)
            ld = (lx <= lc).astype(np.int8)
        else:
            lt = lx
            ld = np.ones(m, dtype=np.int8)
        keep = le < lt
        drawn += m
        entry = np.concatenate([entry, le[keep]])
        exit_ = np.concatenate([exit_, lt[keep]])
        event = np.concatenate([event, ld[keep]])
        if drawn >= 1_000_000 and entry.size < drawn * _ACCEPT_FLOOR:
            raise GenerationStall(
                f"acceptance probability below {_ACCEPT_FLOOR:g} after {drawn} draws"
            )
    return Dataset(entry[:n], exit_[:n], event[:n])


def _count_at_least(x: np.ndarray, bound: np.ndarray, strict: bool):
    """rate -> #{i : fl(x_i / rate) > bound_i}, or >= bound_i when not ``strict``.

    ``x`` is positive (at least -log(1 - 2^-53)) and the bisection probes
    rates up to 4^60, so fl(x_i / rate) is positive and non-increasing in the
    rate: a draw with bound_i <= 0 always counts, and one with bound_i > 0
    counts below its threshold rate x_i / bound_i and not above it. With the thresholds sorted
    once, a probe is one search. Draws whose threshold lies within a relative
    _NEAR of the rate, far wider than the rounding of either quotient, are
    decided by the comparison itself.
    """
    positive = bound > 0
    always = x.size - int(np.count_nonzero(positive))
    x, bound = x[positive], bound[positive]
    threshold = x / bound
    order = np.argsort(threshold)
    threshold, x, bound = threshold[order], x[order], bound[order]
    compare = np.greater if strict else np.greater_equal

    def count(rate: float) -> int:
        lo, hi = np.searchsorted(threshold, (rate * (1.0 - _NEAR), rate * (1.0 + _NEAR)))
        return (always + threshold.size - int(hi)
                + int(np.count_nonzero(compare(x[lo:hi] / rate, bound[lo:hi]))))

    return count


def _censored_fraction(entry: np.ndarray, failure: np.ndarray, log_u: np.ndarray):
    """rate -> censored fraction of the latent draws that pass truncation.

    With censoring time c = fl(log_u / rate), a draw is kept iff
    entry < min(failure, c), and kept and uncensored iff entry < failure and
    c >= failure (then c > entry). Both counts are monotone in the rate; the
    fraction is 1.0 when no draw is kept.
    """
    first = entry < failure
    log_u = log_u[first]
    kept = _count_at_least(log_u, entry[first], strict=True)
    observed = _count_at_least(log_u, failure[first], strict=False)

    def censored_fraction(rate: float) -> float:
        k = kept(rate)
        return 1.0 if k == 0 else (k - observed(rate)) / k

    return censored_fraction


def calibrate_censoring(scenario: SimScenario, target_rate: float | None = None,
                        probe_draws: int = 100_000, tol: float = 0.005) -> float:
    """Exponential censoring rate hitting the post-truncation censored target.

    Uses one fixed batch of latent draws with common random numbers across
    probe rates, so the probed censored fraction is a deterministic function
    of the rate and plain bisection applies. Each probe counts the kept and
    the censored draws from thresholds sorted once, instead of passing over
    every draw. Returns 0.0 when the target is None or 0 (censoring disabled).
    """
    target = scenario.censoring_target if target_rate is None else target_rate
    if target is None or target == 0:
        return 0.0
    if not (0.0 < target < 1.0):
        raise CalibrationFailure("target censored fraction must lie in (0, 1)")
    rng = np.random.default_rng(np.random.SeedSequence(entropy=scenario.seed,
                                                       spawn_key=(0xCA11B,)))
    entry, failure = _draw_latent(scenario.family, rng, probe_draws)
    u = rng.uniform(size=probe_draws)
    censored_fraction = _censored_fraction(entry, failure, -np.log(u))

    lo, hi = 1e-9, 1.0
    for _ in range(60):
        if censored_fraction(hi) >= target:
            break
        hi *= 4.0
    else:
        raise CalibrationFailure("could not bracket the censoring target from above")
    if censored_fraction(lo) > target:
        raise CalibrationFailure("could not bracket the censoring target from below")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if censored_fraction(mid) < target:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-10 * hi:
            break
    rate = 0.5 * (lo + hi)
    achieved = censored_fraction(rate)
    if abs(achieved - target) > tol:
        raise CalibrationFailure(
            f"bisection stalled at censored fraction {achieved:.4f} for target {target:.4f}"
        )
    return rate


@dataclass(frozen=True)
class ExperimentReport:
    """Aggregated results of one replicated experiment.

    A replicate whose whole dataset has no statistic (DegenerateDataset) is
    counted in ``degenerate_datasets``; a replicate where only some cells have
    a degenerate variance is counted, per cell, in ``degenerate_cells``.
    Degenerate results reject nothing, and every rejection rate is taken over
    all ``replicates``.
    """

    scenario: SimScenario
    censored_mode: bool
    level: float
    replicates: int
    kernel_pairs: tuple
    rejections: dict
    degenerate_datasets: int
    degenerate_cells: dict
    mean_censored_fraction: float
    censoring_rate: float

    @property
    def degenerate(self) -> int:
        """Degenerate results in all: one per degenerate dataset, one per degenerate cell."""
        return self.degenerate_datasets + sum(self.degenerate_cells.values())

    def degenerate_replicates(self, g, h) -> int:
        """Replicates in which the (g, h) cell has no statistic."""
        return self.degenerate_datasets + self.degenerate_cells[(Kernel.parse(g), Kernel.parse(h))]

    def rejection_rate(self, g, h) -> float:
        return self.rejections[(Kernel.parse(g), Kernel.parse(h))] / self.replicates

    def monte_carlo_se(self, g, h) -> float:
        p = self.rejection_rate(g, h)
        return math.sqrt(p * (1.0 - p) / self.replicates)

    def to_rows(self) -> list[dict]:
        rows = []
        for (g, h) in self.kernel_pairs:
            g = Kernel.parse(g)
            h = Kernel.parse(h)
            rows.append({
                "scenario": self.scenario.family.value,
                "censored": self.censored_mode,
                "g_kernel": g.value,
                "h_kernel": h.value,
                "replicates": self.replicates,
                "rejection_rate": self.rejection_rate(g, h),
                "monte_carlo_se": self.monte_carlo_se(g, h),
                "mean_censored_fraction": self.mean_censored_fraction,
                "degenerate_replicates": self.degenerate_replicates(g, h),
            })
        return rows


def _replicate_rng(seed: int, r: int) -> np.random.Generator:
    """The generator of replicate r, independent of every other replicate's."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(r,)))


def _replicate_batch(args):
    """Tallies of replicates lo..hi-1, generated and tested a block at a time."""
    scenario, censoring_rate, pairs, level, lo, hi = args
    tallies = {pair: 0 for pair in pairs}
    cells = {pair: 0 for pair in pairs}
    datasets = 0
    censored = 0  # censored subjects, an integer so the total is order-free
    censored_mode = scenario.censoring_target is not None
    per_block = max(1, _BLOCK_SUBJECTS // scenario.target_n)
    for start in range(lo, hi, per_block):
        block = [generate_dataset(scenario, _replicate_rng(scenario.seed, r), censoring_rate)
                 for r in range(start, min(start + per_block, hi))]
        censored += sum(data.n - data.n_events for data in block)
        grids = _grid_block(np.stack([data.entry for data in block]),
                            np.stack([data.exit for data in block]),
                            np.stack([data.event for data in block]), pairs, censored_mode)
        for grid in grids:
            if isinstance(grid, DegenerateDataset):
                datasets += 1
                continue
            for pair, res in grid.items():
                if isinstance(res, DegenerateVariance):
                    cells[pair] += 1
                elif res.p_value < level:
                    tallies[pair] += 1
    return tallies, cells, datasets, censored


def run_experiment(scenario: SimScenario, kernel_pairs=STANDARD_PAIRS,
                   replicates: int = 1000, level: float = 0.05,
                   n_jobs: int = 1) -> ExperimentReport:
    """Replicated rejection-rate experiment under one scenario.

    Each replicate generates a fresh dataset from its own derived stream and
    runs every kernel pair on it at the given significance level. Replicates
    whose statistic is undefined reject nothing and are counted. The report
    is bit-identical for fixed (scenario, replicates); ``n_jobs`` only
    changes wall-clock time.
    """
    if replicates < 1:
        raise ValueError("need at least one replicate")
    pairs = tuple((Kernel.parse(g), Kernel.parse(h)) for g, h in kernel_pairs)
    censoring_rate = calibrate_censoring(scenario) if scenario.censoring_target else 0.0

    n_jobs = max(1, int(n_jobs))
    if n_jobs == 1:
        chunks = [(scenario, censoring_rate, pairs, level, 0, replicates)]
        outputs = [_replicate_batch(chunks[0])]
    else:
        bounds = np.linspace(0, replicates, n_jobs * 4 + 1).astype(int)
        chunks = [(scenario, censoring_rate, pairs, level, int(a), int(b))
                  for a, b in zip(bounds[:-1], bounds[1:]) if b > a]
        with ProcessPoolExecutor(max_workers=n_jobs) as pool:
            outputs = list(pool.map(_replicate_batch, chunks))

    tallies = {pair: 0 for pair in pairs}
    cells = {pair: 0 for pair in pairs}
    datasets = 0
    censored = 0
    for t, c, d, k in outputs:
        for pair in pairs:
            tallies[pair] += t[pair]
            cells[pair] += c[pair]
        datasets += d
        censored += k
    return ExperimentReport(
        scenario=scenario,
        censored_mode=scenario.censoring_target is not None,
        level=level,
        replicates=replicates,
        kernel_pairs=pairs,
        rejections=tallies,
        degenerate_datasets=datasets,
        degenerate_cells=cells,
        mean_censored_fraction=censored / (scenario.target_n * replicates),
        censoring_rate=censoring_rate,
    )
