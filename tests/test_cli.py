import json
import subprocess
import sys
from pathlib import Path

import pytest

from qitest.cli import main


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


@pytest.fixture
def sample_csv(tmp_path):
    return write(tmp_path, "d.csv",
                 "entry,exit,event\n0,3,1\n1,2,0\n1.5,4,1\n0.5,5,0\n2,6,1\n"
                 "0.2,2.6,0\n1.1,3.3,1\n0.8,4.4,0\n2.5,5.5,1\n0.1,1.9,0\n")


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


class TestTestCommand:
    def test_table_output(self, capsys, sample_csv):
        code, out = run(capsys, ["test", sample_csv, "--event", "event",
                                 "--g", "sign", "--h", "sign"])
        assert code == 0
        assert "chi-square" in out

    def test_json_output(self, capsys, sample_csv):
        code, out = run(capsys, ["test", sample_csv, "--event", "event", "--format", "json"])
        assert code == 0
        doc = json.loads(out)
        assert doc["result"]["censored_mode"] is True
        assert 0 <= doc["result"]["p_value"] <= 1

    def test_uncensored_when_no_event_column(self, capsys, tmp_path):
        path = write(tmp_path, "u.csv",
                     "entry,exit\n0,3\n1,2\n0.5,4\n1.2,5\n0.2,2.5\n")
        code, out = run(capsys, ["test", path, "--format", "json"])
        assert code == 0
        assert json.loads(out)["result"]["censored_mode"] is False

    def test_reverse_flag(self, capsys, sample_csv):
        code, out = run(capsys, ["test", sample_csv, "--event", "event",
                                 "--reverse", "--format", "json"])
        assert code == 0

    def test_assumption_warning_for_non_sign_exit(self, capsys, sample_csv):
        code, out = run(capsys, ["test", sample_csv, "--event", "event",
                                 "--g", "linear", "--h", "linear", "--format", "json"])
        assert code == 0
        doc = json.loads(out)
        assert any("reversed-role" in w for w in doc["warnings"])

    def test_missing_file_exit_code(self, capsys, tmp_path):
        code = main(["test", str(tmp_path / "absent.csv")])
        assert code == 2

    def test_validation_exit_code(self, capsys, tmp_path):
        path = write(tmp_path, "bad.csv", "entry,exit\n3,3\n")
        code = main(["test", path])
        assert code == 3

    @pytest.mark.parametrize("option", [["--delimiter", ";;"], ["--delimiter", ""],
                                        ["--group-column", "event"], ["--group-value", "1"]],
                             ids=["long-delimiter", "empty-delimiter", "lone-group-column", "lone-group-value"])
    def test_bad_input_options_are_usage_errors(self, capsys, sample_csv, option):
        code = main(["test", sample_csv, "--event", "event", *option])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_degenerate_exit_code(self, capsys, tmp_path):
        # disjoint windows: no comparable pairs
        path = write(tmp_path, "deg.csv", "entry,exit\n0,1\n5,6\n10,11\n")
        code = main(["test", path])
        assert code == 4


class TestUnknownNames:
    """Kernel and scenario names outside the known sets are argparse usage errors."""

    @pytest.mark.parametrize("argv", [["test", "{csv}", "--g", "bogus"],
                                      ["test", "{csv}", "--h", "bogus"],
                                      ["simulate", "--scenario", "bogus"]])
    def test_usage_error(self, capsys, sample_csv, argv):
        with pytest.raises(SystemExit) as exc:
            main([a.format(csv=sample_csv) for a in argv])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_names_are_case_insensitive(self, capsys, sample_csv):
        code, out = run(capsys, ["test", sample_csv, "--event", "event",
                                 "--g", "Rank", "--h", "SIGN", "--format", "json"])
        assert code == 0
        doc = json.loads(out)["result"]
        assert (doc["g_kernel"], doc["h_kernel"]) == ("rank", "sign")


class TestChanningCommand:
    def test_both_groups_row_count(self, capsys):
        code, out = run(capsys, ["channing", "--format", "json"])
        assert code == 0
        doc = json.loads(out)
        rows = doc["result"]
        assert len(rows) == 16  # 5 association + 3 reversed, per group
        men_assoc = [r for r in rows if r["group"] == "men" and r["table"] == "association"]
        assert len(men_assoc) == 5

    def test_published_values(self, capsys):
        code, out = run(capsys, ["channing", "--group", "men", "--format", "json"])
        rows = json.loads(out)["result"]
        ss = next(r for r in rows if r["table"] == "association"
                  and r["g_kernel"] == "sign" and r["h_kernel"] == "sign")
        assert ss["statistic"] == pytest.approx(3.972, abs=0.1)
        assert ss["p_value"] == pytest.approx(0.046, abs=0.005)

    def test_csv_format(self, capsys):
        code, out = run(capsys, ["channing", "--group", "women", "--format", "csv"])
        assert code == 0
        assert out.splitlines()[0] == "group,table,g_kernel,h_kernel,statistic,p_value"
        assert len(out.strip().splitlines()) == 9


class TestSimulateCommand:
    def test_small_run(self, capsys):
        code, out = run(capsys, ["simulate", "--scenario", "exp-null", "--n", "60",
                                 "--reps", "10", "--seed", "5", "--threads", "1",
                                 "--format", "json"])
        assert code == 0
        doc = json.loads(out)
        assert len(doc["result"]) == 5
        assert doc["seeds"] == [5]

    def test_env_seed(self, capsys, monkeypatch):
        monkeypatch.setenv("QITEST_SEED", "123")
        code, out = run(capsys, ["simulate", "--scenario", "exp-null", "--n", "50",
                                 "--reps", "4", "--threads", "1", "--format", "json"])
        assert code == 0
        assert json.loads(out)["seeds"] == [123]

    @pytest.mark.parametrize("flag", [["--reps", "0"], ["--censoring", "1.5"], ["--censoring", "-0.5"],
                                      ["--level", "-1"], ["--threads", "0"], ["--n", "0"]],
                             ids=lambda flag: " ".join(flag))
    def test_out_of_range_flag_is_a_usage_error(self, capsys, flag):
        # a small valid run, so a flag that is not rejected finishes quickly
        argv = ["simulate", "--n", "30", "--reps", "2", "--threads", "1"] + flag
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        errors = [line for line in err.splitlines() if "error:" in line]
        assert len(errors) == 1 and errors[0].startswith(f"qitest simulate: error: argument {flag[0]}: ")

    def test_bad_env_seed_is_a_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv("QITEST_SEED", "abc")
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--n", "30", "--reps", "2", "--threads", "1"])
        assert exc.value.code == 2
        assert "error: QITEST_SEED must be an integer, got 'abc'" in capsys.readouterr().err
        code, out = run(capsys, ["simulate", "--n", "30", "--reps", "2", "--threads", "1",
                                 "--seed", "5", "--format", "json"])
        assert code == 0 and json.loads(out)["seeds"] == [5]

    def test_bad_env_seed_is_ignored_by_other_commands(self, capsys, monkeypatch):
        monkeypatch.setenv("QITEST_SEED", "abc")
        code, out = run(capsys, ["channing", "--group", "men", "--format", "csv"])
        assert code == 0
        assert len(out.strip().splitlines()) == 9


class TestAreCommand:
    def test_table(self, capsys):
        code, out = run(capsys, ["are", "--format", "csv"])
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 25  # header + 24 cells

    def test_no_regularize_fails_cleanly(self, capsys):
        code = main(["are", "--no-regularize"])
        assert code == 6


class TestCoxCheckCommand:
    def test_identities_reported(self, capsys, sample_csv):
        code, out = run(capsys, ["cox-check", sample_csv, "--event", "event",
                                 "--format", "json"])
        assert code == 0
        rows = json.loads(out)["result"]
        for row in rows:
            assert row["sweep"] == pytest.approx(row["direct"], rel=1e-12, abs=1e-12)
            assert row["sweep"] == pytest.approx(row["pairwise_form"], rel=1e-12, abs=1e-12)


def test_import_and_test_command_leave_scipy_stats_unloaded(sample_csv):
    """``import qitest`` and ``qitest test`` need numpy only: no scipy.stats import cost."""
    script = ("import sys; import qitest; from qitest.cli import main; "
              "assert 'scipy.stats' not in sys.modules, 'import'; "
              f"main(['test', {sample_csv!r}, '--event', 'event', '--g', 'rank', '--h', 'rank']); "
              "assert 'scipy.stats' not in sys.modules, 'test'")
    src = str(Path(__file__).resolve().parents[1] / "src")
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={"PYTHONPATH": src}, timeout=120)
    assert done.returncode == 0, done.stderr
    assert "chi-square" in done.stdout


def test_are_command_needs_no_scipy():
    """``qitest are`` integrates with numpy alone: no scipy module is imported."""
    script = ("import sys; from qitest.cli import main; "
              "assert main(['are', '--format', 'json']) == 0; "
              "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'); "
              "assert not loaded, loaded")
    src = str(Path(__file__).resolve().parents[1] / "src")
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={"PYTHONPATH": src}, timeout=300)
    assert done.returncode == 0, done.stderr
    assert len(json.loads(done.stdout)["result"]) == 24
