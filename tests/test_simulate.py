import concurrent.futures
import dataclasses
import math

import numpy as np
import pytest

from qitest import simulate
from qitest.errors import (CalibrationFailure, DegenerateDataset, DegenerateVariance,
                           DomainError, GenerationStall)
from qitest.simulate import (
    ScenarioFamily,
    SimScenario,
    _censored_fraction,
    _draw_latent,
    calibrate_censoring,
    generate_dataset,
    run_experiment,
)
from qitest.teststat import STANDARD_PAIRS, run_test_grid

ABOVE = "could not bracket the censoring target from above"

#: calibrate_censoring(SimScenario(family, seed=seed), target_rate=k / 10) for
#: k = 1..8, as float.hex, from the implementation that evaluated every probe
#: over all draws; ABOVE marks a CalibrationFailure with that message
RECORDED_RATES = {
    ("exp-null", 3): ['0x1.15be600267790p-5', '0x1.386a3e79ba5fep-4', '0x1.0908ffbe49c6ap-3', '0x1.9ae3426137582p-3',
                        '0x1.3305e91ec7648p-2', '0x1.c82d3e8046c86p-2', '0x1.6d27c43db6b18p-1', '0x1.363240a13e70ep+0'],
    ("exp-null", 11): ['0x1.febba3260f29cp-6', '0x1.2f4320de61af8p-4', '0x1.0b422332403a4p-3', '0x1.96a42afdc9952p-3',
                        '0x1.33bf2bd4c448ep-2', '0x1.cb0335753a9a6p-2', '0x1.60b72f3eec1f2p-1', '0x1.319e9e3cc35b0p+0'],
    ("exp-null", 2024): ['0x1.0e1f53e28834ap-5', '0x1.315b17f3d8b16p-4', '0x1.02e94f072413ep-3', '0x1.9ce257b52ec4ep-3',
                        '0x1.346ea800c1572p-2', '0x1.d291c5ac1a256p-2', '0x1.602363226e99ep-1', '0x1.2fefdbf345298p+0'],
    ("exp-linear", 3): ['0x1.c2d5f208906b8p-6', '0x1.fc3beefaa9860p-5', '0x1.b7f6ef64968dap-4', '0x1.57a9cf6cd8120p-3',
                          '0x1.0840f4c51f15ep-2', '0x1.8dff400b40a9ap-2', '0x1.4800f93dd6420p-1', '0x1.26aa37172f1e2p+0'],
    ("exp-linear", 11): ['0x1.a55cfe150f00cp-6', '0x1.ec2807ca6e93cp-5', '0x1.b545145622206p-4', '0x1.588f14ee54394p-3',
                          '0x1.081bc9e3dfb58p-2', '0x1.94fe7861a29c6p-2', '0x1.40b14d80f5a8cp-1', '0x1.241cf46eb1db8p+0'],
    ("exp-linear", 2024): ['0x1.bd780cfd27786p-6', '0x1.f25c264753eecp-5', '0x1.b3a0dc11a92d4p-4', '0x1.5a5facaccc6dep-3',
                          '0x1.09a887b2190dap-2', '0x1.95009d06a2932p-2', '0x1.4030649577d26p-1', '0x1.1bc1ee807ad46p+0'],
    ("exp-nonlinear", 3): ['0x1.068f11fef9ce8p-7', '0x1.31863df600870p-6', '0x1.0acec73f96712p-5', '0x1.a1a39bda2ea06p-5',
                             '0x1.3d2b74d3a5f3ep-4', '0x1.e21d7a4de1848p-4', '0x1.7bdd4ddabc966p-3', '0x1.44f339b77a65ap-2'],
    ("exp-nonlinear", 11): ['0x1.ffa2fc25ad83cp-8', '0x1.2a083e54a0b4cp-6', '0x1.052ae34aeeaaap-5', '0x1.9f11aee3b9aa0p-5',
                             '0x1.400a7fe2999eep-4', '0x1.e4d571be55d74p-4', '0x1.7c5f49e43a682p-3', '0x1.426dfb7085390p-2'],
    ("exp-nonlinear", 2024): ['0x1.02ffe20889180p-7', '0x1.2a9242159e63ep-6', '0x1.069a55a868806p-5', '0x1.9dbc807dbf636p-5',
                             '0x1.3db99774a3916p-4', '0x1.e4ec3ad5d5758p-4', '0x1.7de42f2933e1ep-3', '0x1.42d0d1bc03906p-2'],
    ("normal-null", 3): ['0x1.efa63e2e4b4bap-3', '0x1.20f234681e026p-1', '0x1.0f3356cc484fep+0', '0x1.f864eb0e6dec2p+0',
                           '0x1.1d59d9c5a6478p+2', ABOVE, ABOVE, ABOVE],
    ("normal-null", 11): ['0x1.e2a52f1f0325ep-3', '0x1.1e9c4dc6a80a4p-1', '0x1.1095ee5cc6d34p+0', '0x1.fce2309ae91a2p+0',
                           '0x1.248b48fee4592p+2', ABOVE, ABOVE, ABOVE],
    ("normal-null", 2024): ['0x1.dd4a40f41a25cp-3', '0x1.1bd82eba33ebcp-1', '0x1.0b7368c68c56cp+0', '0x1.f24bdfeaf4784p+0',
                           '0x1.1caa4f482676ap+2', ABOVE, ABOVE, ABOVE],
    ("normal-alt", 3): ['0x1.03a1fc99f2eeap-2', '0x1.368a718e2142cp-1', '0x1.271aec202ea52p+0', '0x1.1d4f00acd3686p+1',
                          '0x1.7b60ce98ed0a2p+2', ABOVE, ABOVE, ABOVE],
    ("normal-alt", 11): ['0x1.fe11f8f90d5bap-3', '0x1.30a9900d3a822p-1', '0x1.2699f8bf6f2f8p+0', '0x1.21e62a674e7aap+1',
                          '0x1.8ebda83067d7ap+2', ABOVE, ABOVE, ABOVE],
    ("normal-alt", 2024): ['0x1.f9dbec001f720p-3', '0x1.2de38f28466bap-1', '0x1.227d4b43b399ep+0', '0x1.19bfd952573acp+1',
                          '0x1.7a925b50ed418p+2', ABOVE, ABOVE, ABOVE],
}


def fresh_rng(seed=0):
    return np.random.default_rng(seed)


class TestGeneration:
    def test_uncensored_structure(self):
        sc = SimScenario(family="exp-null", target_n=300, seed=1)
        d = generate_dataset(sc, fresh_rng(1))
        assert d.n == 300
        assert d.event.all()
        assert (d.entry < d.exit).all()
        assert d.entry.max() <= 5.0

    @pytest.mark.parametrize("family", list(ScenarioFamily))
    def test_all_families(self, family):
        sc = SimScenario(family=family, target_n=120, seed=3)
        d = generate_dataset(sc, fresh_rng(3))
        assert d.n == 120
        assert (d.entry < d.exit).all()

    def test_censored_fraction_near_target(self):
        sc = SimScenario(family="exp-null", target_n=400, censoring_target=0.40, seed=11)
        rate = calibrate_censoring(sc)
        fracs = [generate_dataset(sc, fresh_rng(100 + i), rate).censored_fraction
                 for i in range(40)]
        assert np.mean(fracs) == pytest.approx(0.40, abs=0.01)

    def test_stall_detection(self):
        # entries are uniform on (0,5) but censoring kills everything at once,
        # so the truncation filter accepts essentially nothing
        sc = SimScenario(family="exp-null", target_n=10, censoring_target=0.4, seed=5)
        with pytest.raises(GenerationStall):
            generate_dataset(sc, fresh_rng(5), censoring_rate=1e9)


    @pytest.mark.parametrize("rate", [0.0, -1.0, math.nan, math.inf])
    def test_censoring_rate_must_be_finite_and_positive(self, rate):
        sc = SimScenario(family="exp-null", target_n=10, censoring_target=0.4, seed=5)
        with pytest.raises(DomainError, match="censoring rate"):
            generate_dataset(sc, fresh_rng(5), censoring_rate=rate)

    @pytest.mark.parametrize("target_n", [0, -3, 2.5, "400", None])
    def test_target_n_must_be_a_positive_integer(self, target_n):
        with pytest.raises(ValueError, match="target_n"):
            SimScenario(family="exp-null", target_n=target_n)

    def test_integer_target_n_is_kept_as_an_int(self):
        sc = SimScenario(family="exp-null", target_n=np.int64(50))
        assert type(sc.target_n) is int and sc.target_n == 50


class TestCalibration:
    def test_zero_target_disables(self):
        sc = SimScenario(family="exp-null", target_n=50, seed=2)
        assert calibrate_censoring(sc, target_rate=0) == 0.0

    def test_deterministic(self):
        sc = SimScenario(family="exp-null", target_n=50, censoring_target=0.4, seed=9)
        assert calibrate_censoring(sc) == calibrate_censoring(sc)

    def test_monotone_in_rate(self):
        # larger exponential rate censors a larger post-truncation fraction
        sc = SimScenario(family="exp-null", target_n=50, censoring_target=0.4, seed=9)
        fracs = []
        for target in (0.2, 0.4, 0.6):
            rate = calibrate_censoring(sc, target_rate=target)
            fracs.append(rate)
        assert fracs[0] < fracs[1] < fracs[2]

    def test_achieves_target_on_fresh_draws(self):
        sc = SimScenario(family="normal-null", target_n=300, censoring_target=0.4, seed=21)
        rate = calibrate_censoring(sc)
        rng = fresh_rng(777)
        fracs = [generate_dataset(sc, rng, rate).censored_fraction for _ in range(60)]
        assert np.mean(fracs) == pytest.approx(0.40, abs=0.01)

    def test_invalid_target(self):
        sc = SimScenario(family="exp-null", target_n=50, seed=2)
        with pytest.raises(CalibrationFailure):
            calibrate_censoring(sc, target_rate=1.5)

    @pytest.mark.parametrize("family, seed", list(RECORDED_RATES))
    def test_recorded_rates(self, family, seed):
        sc = SimScenario(family=family, target_n=50, seed=seed)
        for k, want in enumerate(RECORDED_RATES[family, seed], start=1):
            if want == ABOVE:
                with pytest.raises(CalibrationFailure, match=f"^{ABOVE}$"):
                    calibrate_censoring(sc, target_rate=k / 10)
            else:
                assert calibrate_censoring(sc, target_rate=k / 10).hex() == want, k / 10

    @pytest.mark.parametrize("family", list(ScenarioFamily))
    def test_counting_matches_direct_probe_at_thresholds(self, family):
        """At every rate where a draw changes its state, and one ulp to either side."""
        rng = np.random.default_rng(5)
        entry, failure = _draw_latent(family, rng, 400)
        log_u = -np.log(rng.uniform(size=400))
        counted = _censored_fraction(entry, failure, log_u)

        def direct(rate):
            c = log_u / rate
            keep = entry < np.minimum(failure, c)
            return 1.0 if not keep.any() else float(np.mean(c[keep] < failure[keep]))

        first = entry < failure
        thresholds = np.concatenate([log_u[first] / entry[first], log_u[first] / failure[first]])
        thresholds = thresholds[(thresholds > 0) & np.isfinite(thresholds)]
        rates = np.concatenate([thresholds, np.nextafter(thresholds, 0.0),
                                np.nextafter(thresholds, np.inf)])
        assert rates.size > 500
        for rate in rates.tolist():
            assert counted(rate) == direct(rate), rate


class TestExperiments:
    def test_bit_identical_reports(self):
        # uncensored data leave the censored-fraction tally at zero; censored data test it
        for sc in (SimScenario(family="exp-null", target_n=80, seed=31),
                   SimScenario(family="exp-null", target_n=60, censoring_target=0.4, seed=3)):
            a = run_experiment(sc, replicates=40, n_jobs=1)
            b = run_experiment(sc, replicates=40, n_jobs=2)
            assert a.rejections == b.rejections
            assert a.mean_censored_fraction == b.mean_censored_fraction
            assert a.degenerate == b.degenerate
            assert a == b

    def test_level_one_rejects_everything(self):
        sc = SimScenario(family="exp-null", target_n=60, seed=17)
        rep = run_experiment(sc, replicates=25, level=1.0)
        for g, h in rep.kernel_pairs:
            assert rep.rejection_rate(g, h) == 1.0

    def test_report_rows(self):
        sc = SimScenario(family="exp-linear", target_n=80, censoring_target=0.4, seed=23)
        rep = run_experiment(sc, replicates=30)
        rows = rep.to_rows()
        assert len(rows) == 5
        for row in rows:
            se = np.sqrt(row["rejection_rate"] * (1 - row["rejection_rate"]) / 30)
            assert row["monte_carlo_se"] == pytest.approx(se)
            assert row["censored"] is True

    def test_replicate_count_validated(self):
        sc = SimScenario(family="exp-null", target_n=50, seed=4)
        with pytest.raises(ValueError):
            run_experiment(sc, replicates=0)

    @pytest.mark.parametrize("level", [1.5, math.nan, 0.0, -0.05])
    def test_level_outside_the_unit_interval_raises(self, level):
        sc = SimScenario(family="exp-null", target_n=30, seed=4)
        with pytest.raises(DomainError, match="level"):
            run_experiment(sc, replicates=2, level=level)

    def test_no_more_workers_than_replicates(self, monkeypatch):
        requested = []

        class InProcessPool:
            """Records the workers asked for and maps in this process, so no process starts."""

            def __init__(self, max_workers):
                requested.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
        sc = SimScenario(family="exp-null", target_n=40, seed=13)
        many = run_experiment(sc, replicates=3, n_jobs=64)
        assert requested and max(requested) <= 3
        assert many == run_experiment(sc, replicates=3, n_jobs=1)

    def test_blocks_and_workers_leave_every_field_unchanged(self):
        """Replicate counts around the block size, one and two workers."""
        sc = SimScenario(family="exp-linear", target_n=1500, censoring_target=0.3, seed=41)
        block = simulate._BLOCK_SUBJECTS // sc.target_n
        assert block > 2
        rate = calibrate_censoring(sc)
        for replicates in (1, block - 1, block, block + 1, 2 * block + 3):
            one = run_experiment(sc, replicates=replicates, n_jobs=1)
            two = run_experiment(sc, replicates=replicates, n_jobs=2)
            assert dataclasses.asdict(one) == dataclasses.asdict(two)
            want = recount(sc, replicates, rate)
            got = (one.rejections, one.degenerate_datasets, one.degenerate_cells,
                   one.mean_censored_fraction, one.censoring_rate)
            assert got == want, replicates

    def test_degenerate_replicates_are_counted_per_cell(self):
        sc = SimScenario(family="exp-null", target_n=5, censoring_target=0.5, seed=7)
        rep = run_experiment(sc, replicates=200)
        _, datasets, cells, _, _ = recount(sc, 200, rep.censoring_rate)
        assert (rep.degenerate_datasets, rep.degenerate_cells) == (datasets, cells)
        assert datasets > 0 and len(set(cells.values())) > 1
        assert rep.degenerate == datasets + sum(cells.values())
        rows = rep.to_rows()
        assert [row["degenerate_replicates"] for row in rows] == [
            datasets + cells[pair] for pair in rep.kernel_pairs]
        # rates stay over every replicate: degenerate results reject nothing
        for row, pair in zip(rows, rep.kernel_pairs):
            assert row["rejection_rate"] == rep.rejections[pair] / 200


def recount(scenario, replicates, rate):
    """The report's figures, one replicate and one grid at a time."""
    tallies = {pair: 0 for pair in STANDARD_PAIRS}
    cells = {pair: 0 for pair in STANDARD_PAIRS}
    datasets = censored = 0
    for r in range(replicates):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=scenario.seed, spawn_key=(r,)))
        data = generate_dataset(scenario, rng, rate)
        censored += data.n - data.n_events
        try:
            grid = run_test_grid(data, STANDARD_PAIRS, censored_mode=True)
        except DegenerateDataset:
            datasets += 1
            continue
        for pair, cell in grid.items():
            if isinstance(cell, DegenerateVariance):
                cells[pair] += 1
            elif cell.p_value < 0.05:
                tallies[pair] += 1
    return tallies, datasets, cells, censored / (scenario.target_n * replicates), rate


def test_null_mean_of_kappa_is_zero():
    # quasi-independent truncated data: the Monte Carlo mean of the statistic
    # must sit within 3 standard errors of zero for every kernel pair
    from qitest.kernels import Kernel
    from qitest.teststat import STANDARD_PAIRS, run_test_grid

    reps = 300
    sc = SimScenario(family="exp-null", target_n=120, censoring_target=0.4, seed=71)
    rate = calibrate_censoring(sc)
    values = {pair: [] for pair in STANDARD_PAIRS}
    for r in range(reps):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=71, spawn_key=(r,)))
        data = generate_dataset(sc, rng, rate)
        grid = run_test_grid(data, censored_mode=True)
        for pair, res in grid.items():
            values[pair].append(res.kappa_hat)
    for pair, vals in values.items():
        vals = np.asarray(vals)
        se = vals.std(ddof=1) / np.sqrt(reps)
        assert abs(vals.mean()) < 3 * se, f"{pair}: mean {vals.mean():.4g}, se {se:.4g}"
