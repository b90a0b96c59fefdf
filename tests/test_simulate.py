import numpy as np
import pytest

from qitest.errors import CalibrationFailure, GenerationStall
from qitest.simulate import (
    ScenarioFamily,
    SimScenario,
    calibrate_censoring,
    generate_dataset,
    run_experiment,
)


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
