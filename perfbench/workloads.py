"""One benchmark workload in a fresh interpreter: set up, run, check, report.

Started by ``run.py`` from the root of a qitest checkout, with the checkout's
``src`` as the only ``PYTHONPATH`` entry. The process imports qitest, builds
the workload's inputs from the seed and prints ``ready``; ``run.py`` times
set-up from process start to that line. With ``--setup-only`` it exits there.
Otherwise it runs the workload as a closed loop (one client, next operation
only after the previous one returned) for ``--seconds``, checks every output
against the references in ``reference.py`` and prints one JSON line: the op
times, work done and peak RSS, from which ``run.py`` derives the end-to-end
metrics, or with ``--trace 1`` the per-layer metrics.

With ``--trace 1`` each operation runs twice: untraced, then traced, with a
span around every call the benchmark makes into qitest, followed by a replay
of the layer calls beneath it (see ``replay`` on each workload). Per-layer
metrics come from the traced runs; the ratio of traced to untraced operation
time is the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import scipy

import qitest
from qitest import cli
from qitest.comparability import lambda_matrix, omega_matrix
from qitest.coxscore import cox_score_covariate, cox_score_rankstar
from qitest.data import Dataset
from qitest.datasets import load_channing
from qitest.efficacy import (
    are_table,
    efficacy,
    exponential_entry,
    model_linear_risk,
    pitman_are,
    ybar,
)
from qitest.errors import DegenerateDataset, DegenerateVariance
from qitest.ingest import InputSpec, ingest_csv
from qitest.kernels import Kernel, pair_matrix, rank_transform
from qitest.report import to_json
from qitest.simulate import SimScenario, calibrate_censoring, generate_dataset, run_experiment
from qitest.teststat import (
    STANDARD_PAIRS,
    pair_products,
    phi_hat_fast,
    quasi_independence_test,
    reverse_roles,
    run_test_grid,
)

import reference
from tracing import Tracer, median_over_ops, plain_call

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
#: distinct seeds prepared per run; a run never gets near this many operations
MAX_OPS = 4096
#: agreement required between two routes to one test statistic
RESULT_REL_TOL = 1e-12


def replicate_rng(scenario_seed: int, r: int) -> np.random.Generator:
    """The generator the harness derives for replicate r (see qitest.simulate)."""
    return np.random.default_rng(np.random.SeedSequence(entropy=scenario_seed, spawn_key=(r,)))


def peak_alloc_mb(fn, *args, **kwargs) -> float:
    """Peak memory traced by tracemalloc (numpy buffers included) inside one call."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def grid_count(grid: dict) -> int:
    """Comparable-pair count of a grid (shared by every non-degenerate cell)."""
    for cell in grid.values():
        if not isinstance(cell, Exception):
            return cell.n_comparable
    return 0


def matrix_layers(data: Dataset, call) -> None:
    """The mask and kernel-matrix calls ``run_test_grid`` makes for the five pairs.

    ``omega_matrix`` is the overlap part that ``lambda_matrix`` builds on.
    """
    call("comparability.lambda_matrix", lambda_matrix, data)
    call("comparability.omega_matrix", omega_matrix, data)
    for values in (data.entry, data.exit):
        ranks = call("kernels.rank_transform", rank_transform, values)
        for kind in Kernel:
            call(f"kernels.pair_matrix.{kind.value}", pair_matrix, kind, values,
                 ranks if kind is Kernel.RANK else None)


def same_result(a, b) -> bool:
    """Two TestResults agree: counts exactly, statistics to RESULT_REL_TOL."""
    if (a.n, a.n_comparable, a.g_kernel, a.h_kernel) != (b.n, b.n_comparable, b.g_kernel, b.h_kernel):
        return False
    return all(math.isclose(getattr(a, f), getattr(b, f), rel_tol=RESULT_REL_TOL)
               for f in ("kappa_hat", "pr_hat", "phi_hat", "chi_square", "p_value"))


def identity(x):
    return x


class McPower:
    """The paper's level/power study: one op is one ``run_experiment`` call."""

    name = "mc-power"
    replicates = 100
    level = 0.05
    scenario_args = {"family": "exp-nonlinear", "target_n": 400, "censoring_target": 0.40}
    #: replicates whose grid the output check also compares with single tests
    sample = (0, 49, 99)
    cycle = 1

    def __init__(self, seed: int, workdir: Path):
        self.op_seeds = np.random.SeedSequence([seed, 1]).generate_state(MAX_OPS)

    def sizes(self) -> dict:
        return {**self.scenario_args, "replicates": self.replicates, "level": self.level,
                "kernel_pairs": len(STANDARD_PAIRS), "n_jobs": 1,
                "grid_vs_single_replicates": list(self.sample)}

    def scenario(self, i: int) -> SimScenario:
        return SimScenario(seed=int(self.op_seeds[i % MAX_OPS]), **self.scenario_args)

    def units(self, out) -> int:
        return out.replicates

    def op(self, i, call):
        return call("simulate.run_experiment", run_experiment, self.scenario(i), STANDARD_PAIRS,
                    replicates=self.replicates, level=self.level, n_jobs=1)

    def replay(self, i, out, tracer: Tracer) -> None:
        call = tracer.call
        sc = self.scenario(i)
        # the harness's own sequence first, so its siblings see the same cache
        # state as inside run_experiment; the layers beneath the grid after
        rate = call("simulate.calibrate_censoring", calibrate_censoring, sc)
        replicates = []
        for r in range(self.replicates):
            data = call("simulate.generate_dataset", generate_dataset, sc, replicate_rng(sc.seed, r), rate)
            grid = call("teststat.run_test_grid", run_test_grid, data, STANDARD_PAIRS, censored_mode=True)
            tracer.count("teststat.n_comparable", grid_count(grid))
            replicates.append(data)
        for data in replicates:
            matrix_layers(data, call)
        tracer.count("teststat.peak_alloc_mb",
                     peak_alloc_mb(run_test_grid, replicates[0], STANDARD_PAIRS, censored_mode=True))

    def check(self, i, out) -> list[str]:
        """Regenerate every replicate, re-test it and recount the report's tallies.

        A replicate rejects a pair when its p-value is below the level; a
        degenerate cell, or a whole replicate without comparable pairs, counts
        as one degenerate result and rejects nothing.
        """
        sc = self.scenario(i)
        tallies = {pair: 0 for pair in STANDARD_PAIRS}
        degenerate = 0
        censored = 0.0
        problems = []
        for r in range(self.replicates):
            data = generate_dataset(sc, replicate_rng(sc.seed, r), out.censoring_rate)
            censored += data.censored_fraction
            try:
                grid = run_test_grid(data, STANDARD_PAIRS, censored_mode=True)
            except DegenerateDataset:
                degenerate += 1
                continue
            for pair, cell in grid.items():
                if isinstance(cell, DegenerateVariance):
                    degenerate += 1
                elif cell.p_value < self.level:
                    tallies[pair] += 1
            if r in self.sample:
                problems += self._check_replicate(r, data, grid)
        if out.rejections != tallies:
            def show(t):
                return {f"{g.value}/{h.value}": k for (g, h), k in t.items()}
            problems.append(f"tallies {show(out.rejections)} != recounted {show(tallies)}")
        if out.degenerate != degenerate:
            problems.append(f"degenerate count {out.degenerate!r} != recounted {degenerate}")
        mean = censored / self.replicates
        if not math.isclose(mean, out.mean_censored_fraction, rel_tol=RESULT_REL_TOL):
            problems.append(f"mean censored fraction {out.mean_censored_fraction} != regenerated {mean}")
        if abs(out.mean_censored_fraction - self.scenario_args["censoring_target"]) > 0.03:
            problems.append(f"censored fraction {out.mean_censored_fraction} misses the target")
        return problems

    def _check_replicate(self, r, data, grid) -> list[str]:
        """Each grid cell reaches the same decision and statistics as its single test."""
        problems = []
        for (g, h), cell in grid.items():
            try:
                single = quasi_independence_test(data, g, h, censored_mode=True)
            except DegenerateVariance:
                single = None
            if isinstance(cell, DegenerateVariance) or single is None:
                if not (isinstance(cell, DegenerateVariance) and single is None):
                    problems.append(f"replicate {r} {g.value}/{h.value}: degenerate on one route only")
            elif (cell.p_value < self.level) != (single.p_value < self.level) or not same_result(cell, single):
                problems.append(f"replicate {r} {g.value}/{h.value}: grid and single test disagree")
        return problems


def channing_like(rng: np.random.Generator, n: int):
    """n subjects shaped like the Channing House data, times in years.

    Entry ages are uniform on 61-95; death follows an exponential law (mean 8
    years after entry) and censoring a uniform one (0-12 years), about 48%
    deaths. Ages are rounded to whole months, as in the Channing data, so
    entry and exit times are heavily tied; rows whose rounded exit does not
    exceed their rounded entry are redrawn.
    """
    entry, exit_, event = [], [], []
    have = 0
    while have < n:
        m = 2 * (n - have) + 64
        e = rng.uniform(61.0, 95.0, m)
        death = e + rng.exponential(8.0, m)
        censor = e + rng.uniform(0.0, 12.0, m)
        x = np.round(np.minimum(death, censor) * 12.0) / 12.0
        e = np.round(e * 12.0) / 12.0
        keep = e < x
        entry.append(e[keep])
        exit_.append(x[keep])
        event.append((death <= censor)[keep].astype(np.int8))
        have += int(keep.sum())
    return tuple(np.concatenate(parts)[:n] for parts in (entry, exit_, event))


class BigN:
    """A full censored analysis of one n = 5 000 dataset, as ``qitest channing`` does."""

    name = "big-n"
    n = 5000
    #: datasets prepared in set-up; op i analyses dataset i mod pool
    pool = 8
    reversed_kernels = (Kernel.SIGN, Kernel.LINEAR, Kernel.RANK)
    cycle = 1

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng(np.random.SeedSequence([seed, 2]))
        self.inputs = [channing_like(rng, self.n) for _ in range(self.pool)]

    def sizes(self) -> dict:
        return {"n": self.n, "datasets": self.pool, "kernel_pairs": len(STANDARD_PAIRS),
                "reversed_role_tests": len(self.reversed_kernels), "time_unit": "1/12 year",
                "float_matrix_mb": 8 * self.n * self.n / 2**20}

    def units(self, out) -> int:
        return 1

    def op(self, i, call):
        # a fresh Dataset per op, so no rank cache carries over between ops
        data = call("data.Dataset", Dataset, *self.inputs[i % self.pool])
        grid = call("teststat.run_test_grid", run_test_grid, data, STANDARD_PAIRS, censored_mode=True)
        rev = call("teststat.reverse_roles", reverse_roles, data)
        reversed_tests = {g: call("teststat.quasi_independence_test", quasi_independence_test,
                                  rev, g, Kernel.SIGN, censored_mode=True)
                          for g in self.reversed_kernels}
        rankstar = call("coxscore.cox_score_rankstar", cox_score_rankstar, data, method="sweep")
        covariate = call("coxscore.cox_score_covariate", cox_score_covariate, data, identity,
                         method="sweep")
        return {"data": data, "grid": grid, "reversed": reversed_tests,
                "rankstar": rankstar, "covariate": covariate}

    def replay(self, i, out, tracer: Tracer) -> None:
        data = out["data"]
        matrix_layers(data, tracer.call)
        tracer.call("teststat.pair_products", pair_products, data, Kernel.SIGN, Kernel.SIGN,
                    censored_mode=True)
        tracer.call("teststat.phi_hat_fast", phi_hat_fast, data, Kernel.SIGN, Kernel.SIGN,
                    censored_mode=True)
        tracer.count("teststat.n_comparable", grid_count(out["grid"]))
        tracer.count("teststat.peak_alloc_mb",
                     peak_alloc_mb(run_test_grid, data, STANDARD_PAIRS, censored_mode=True))

    def check(self, i, out) -> list[str]:
        data = out["data"]
        problems = []
        for (g, h), cell in out["grid"].items():
            single = quasi_independence_test(data, g, h, censored_mode=True)
            if isinstance(cell, Exception) or not same_result(cell, single):
                problems.append(f"grid cell {g.value}/{h.value} differs from its single test")
        for g, res in out["reversed"].items():
            if not (math.isfinite(res.chi_square) and 0.0 <= res.p_value <= 1.0):
                problems.append(f"reversed-role {g.value}/sign: invalid statistic or p")
        ref, scale = reference.rankstar_score_reference(data.entry, data.exit, data.event)
        if not reference.close(out["rankstar"], ref, scale):
            problems.append(f"rank-in-risk-set score {out['rankstar']} != reference {ref}")
        ref, scale = reference.covariate_score_pairwise(data.entry, data.exit, data.event,
                                                        identity(data.entry))
        if not reference.close(out["covariate"], ref, scale):
            problems.append(f"covariate score {out['covariate']} != pairwise form {ref}")
        return problems


class AreTable:
    """The efficiency-ratio table: one op is one ``are_table()`` call."""

    name = "are-table"
    cycle = 1

    def __init__(self, seed: int, workdir: Path):
        # are_table() takes no input; the layer replay uses the first cell's model
        self.model = model_linear_risk(exponential_entry(2.0), psi0=0.0, psi1=1.0)

    def sizes(self) -> dict:
        return {"rows": reference.ARE_ROWS, "replay_model": "linear-covariate, exponential(2) entry, psi=(0,1)",
                "replay_ybar_t": 1.0}

    def units(self, out) -> int:
        return 1

    def op(self, i, call):
        return call("efficacy.are_table", are_table)

    def replay(self, i, out, tracer: Tracer) -> None:
        call = tracer.call
        call("efficacy.ybar", ybar, self.model, 1.0)
        for test in ("sign", "rank", "linear"):
            call(f"efficacy.efficacy.{test}", efficacy, self.model, test)
        call("efficacy.pitman_are", pitman_are, self.model, "rank", "sign")
        tracer.count("efficacy.peak_alloc_mb", peak_alloc_mb(efficacy, self.model, "sign"))

    def check(self, i, rows) -> list[str]:
        problems = []
        if len(rows) != reference.ARE_ROWS:
            problems.append(f"{len(rows)} rows, expected {reference.ARE_ROWS}")
        if not all(math.isfinite(r["are_vs_sign_sign"]) and r["are_vs_sign_sign"] > 0 for r in rows):
            problems.append("a ratio is not finite and positive")

        def cells(model, entry, psi, g):
            return [r["are_vs_sign_sign"] for r in rows
                    if (r["model"], r["entry"], (r["psi0"], r["psi1"]), r["g_kernel"]) == (model, entry, psi, g)]

        for (entry, psi), published in reference.ARE_LINEAR_MODEL.items():
            for g, values in published.items():
                got = cells("linear-covariate", entry, psi, g)
                if not got or not all(math.isclose(x, v, rel_tol=reference.ARE_REL_TOL)
                                      for x in got for v in values):
                    problems.append(f"linear-covariate {entry} {psi} {g}: {got} vs published {values}")
        for psi in ((0.0, 0.0), (0.0, 1.0), (1.0, 1.0)):
            for model in ("linear-covariate", "reciprocal-covariate"):
                if cells(model, "uniform", psi, "rank") != cells(model, "uniform", psi, "linear"):
                    problems.append(f"{model} uniform {psi}: rank and linear ratios differ")
        return problems


def write_censored_csv(path: Path, rng: np.random.Generator, n: int) -> None:
    """Tie-free censored sample (entry < exit), full-precision decimal text."""
    entry = rng.exponential(1.0, n)
    failure = entry + rng.exponential(2.0, n)
    censor = entry + rng.exponential(3.0, n)
    exit_ = np.minimum(failure, censor)
    event = (failure <= censor).astype(int)
    lines = ["entry,exit,event"] + [f"{a:.17g},{b:.17g},{d}" for a, b, d in zip(entry, exit_, event)]
    path.write_text("\n".join(lines) + "\n")


def run_cli(argv: list[str]) -> tuple[int, str]:
    """``qitest.cli.main(argv)`` in this process, as ``qitest <argv>`` would run it.

    Returns the exit code and everything the command wrote to stdout.
    """
    saved = sys.argv
    sys.argv = ["qitest", *argv]
    stdout = io.StringIO()
    try:
        with contextlib.redirect_stdout(stdout):
            code = cli.main(argv)
    finally:
        sys.argv = saved
    return code, stdout.getvalue()


class Cli:
    """One op is one ``qitest.cli.main`` call in the workload process; ops cycle over three commands.

    Interpreter start and ``import qitest``, which a shell user pays on every
    invocation, are this workload's ``setup_s``.
    """

    name = "cli"
    commands = ("channing", "test", "cox-check")
    test_n = 2000
    cox_n = 500
    cycle = 3

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng(np.random.SeedSequence([seed, 4]))
        self.test_csv = workdir / "test.csv"
        self.cox_csv = workdir / "cox-check.csv"
        write_censored_csv(self.test_csv, rng, self.test_n)
        write_censored_csv(self.cox_csv, rng, self.cox_n)
        self.argv = {
            "channing": ["channing", "--format", "json"],
            "test": ["test", str(self.test_csv), "--event", "event", "--g", "rank", "--h", "rank",
                     "--format", "json"],
            "cox-check": ["cox-check", str(self.cox_csv), "--event", "event", "--format", "json"],
        }
        self._test_reference = None

    def sizes(self) -> dict:
        return {"test_csv_rows": self.test_n, "cox_check_csv_rows": self.cox_n,
                "commands": {c: " ".join(a) for c, a in self.argv.items()}}

    def units(self, out) -> int:
        return 1

    def op(self, i, call):
        command = self.commands[i % len(self.commands)]
        code, stdout = call(f"cli.main.{command}", run_cli, self.argv[command])
        return command, code, stdout

    def replay(self, i, out, tracer: Tracer) -> None:
        call = tracer.call
        command, _, stdout = out
        call("cli.interpreter_start", subprocess.run, [sys.executable, "-c", "pass"], check=True)
        call("cli.import_qitest_process", subprocess.run, [sys.executable, "-c", "import qitest"],
             check=True)
        if command == "channing":
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                for group in ("men", "women"):
                    call("datasets.load_channing", load_channing, group)
        else:
            path = self.test_csv if command == "test" else self.cox_csv
            call("ingest.ingest_csv", ingest_csv, InputSpec(path=str(path), event_column="event"))
        call("report.to_json", to_json, json.loads(stdout))

    def check(self, i, out) -> list[str]:
        command, code, stdout = out
        if code != 0:
            return [f"{command} returned exit code {code}"]
        try:
            result = json.loads(stdout)["result"]
        except (ValueError, KeyError) as exc:
            return [f"{command} stdout is not a JSON report: {exc}"]
        return getattr(self, "_check_" + command.replace("-", "_"))(result)

    @staticmethod
    def _check_channing(rows) -> list[str]:
        problems = []
        checked = 0
        for (group, table), cells in reference.CHANNING.items():
            for (g, h), (stat, p) in cells.items():
                got = [r for r in rows if (r["group"], r["table"], r["g_kernel"], r["h_kernel"]) == (group, table, g, h)]
                if len(got) != 1:
                    problems.append(f"channing {group} {table} {g}/{h}: {len(got)} rows")
                    continue
                row = got[0]
                p_ok = row["p_value"] < reference.P_UNPRINTED_BELOW if p is None else \
                    abs(row["p_value"] - p) <= reference.P_ABS_TOL
                if abs(row["statistic"] - stat) > reference.STAT_ABS_TOL or not p_ok:
                    problems.append(f"channing {group} {table} {g}/{h}: "
                                    f"({row['statistic']}, {row['p_value']}) vs published ({stat}, {p})")
                checked += 1
        if checked != 16:
            problems.append(f"{checked} published channing cells checked, expected 16")
        return problems

    def _check_test(self, got) -> list[str]:
        if self._test_reference is None:
            data, _ = ingest_csv(InputSpec(path=str(self.test_csv), event_column="event"))
            self._test_reference = quasi_independence_test(data, "rank", "rank", censored_mode=True)
        ref = self._test_reference
        same = (got["n"] == ref.n and got["n_comparable"] == ref.n_comparable
                and all(math.isclose(got[f], getattr(ref, f), rel_tol=RESULT_REL_TOL)
                        for f in ("kappa_hat", "phi_hat", "chi_square", "p_value")))
        return [] if same else [f"test result {got} differs from the in-process test"]

    @staticmethod
    def _check_cox_check(rows) -> list[str]:
        problems = []
        if len(rows) != 2:
            problems.append(f"cox-check printed {len(rows)} rows, expected 2")
        for row in rows:
            forms = (row["sweep"], row["direct"], row["pairwise_form"])
            scale = max(abs(x) for x in forms)
            if not all(reference.close(x, forms[0], scale) for x in forms):
                problems.append(f"cox-check {row['statistic']}: forms disagree {forms}")
        return problems


WORKLOADS = {w.name: w for w in (McPower, BigN, AreTable, Cli)}


def run_untraced(wl, seconds: float):
    """Closed loop for ``seconds``; always at least one op and whole command cycles."""
    latencies, outputs = [], []
    start = time.perf_counter()
    i = 0
    while i == 0 or i % wl.cycle or time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        try:
            out = wl.op(i, plain_call)
        except Exception as exc:  # an op that raises counts as failed
            out = exc
        latencies.append(time.perf_counter() - t0)
        outputs.append((i, out))
        i += 1
    return latencies, outputs, time.perf_counter() - start


def run_traced(wl, seconds: float, tracer: Tracer):
    """Pairs of the same op, untraced then traced with its layer replay."""
    plain, traced, outputs = [], [], []
    start = time.perf_counter()
    k = 0
    while k < wl.cycle or time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        try:
            out = wl.op(k, plain_call)
            plain.append(time.perf_counter() - t0)
        except Exception as exc:
            out = exc
        outputs.append((k, out))
        tracer.op = k
        t0 = time.perf_counter()
        try:
            with tracer.span("op"):
                out = wl.op(k, tracer.call)
            traced.append(time.perf_counter() - t0)
            with tracer.span("replay"):
                wl.replay(k, out, tracer)
        except Exception as exc:
            out = exc
        outputs.append((k, out))
        k += 1
    return plain, traced, outputs


def check_all(wl, outputs) -> tuple[list[int], list[str]]:
    """Indices (into outputs) of failed ops, and what failed."""
    failed, messages = [], []
    for index, (i, out) in enumerate(outputs):
        if isinstance(out, Exception):
            problems = [f"raised {out!r}"]
        else:
            try:
                problems = wl.check(i, out)
            except Exception as exc:  # a check that cannot run fails the op
                problems = [f"check raised {exc!r}"]
        if problems:
            failed.append(index)
            messages += [f"op {i}: {p}" for p in problems]
    return failed, messages


def per_layer(tracer: Tracer, plain, traced) -> dict:
    ms = tracer.per_op_ms()
    counts = tracer.per_op_counts()

    def per_op(name):
        return ms.get(name, {})

    def derived(total, parts):
        return {op: t - sum(per_op(p).get(op, 0.0) for p in parts) for op, t in per_op(total).items()}

    kernel_matrices = [f"kernels.pair_matrix.{k.value}" for k in Kernel]
    values = {f"{name}.ms": median_over_ops(series) for name, series in ms.items()}
    generate = [(end - start) * 1e3 for name, start, end, _, _ in tracer.spans
                if name == "simulate.generate_dataset"]
    values["simulate.generate_dataset.ms"] = statistics.median(generate) if generate else 0.0
    values["simulate.harness_self.ms"] = median_over_ops(derived(
        "simulate.run_experiment",
        ["simulate.calibrate_censoring", "simulate.generate_dataset", "teststat.run_test_grid"]))
    values["teststat.grid_self.ms"] = median_over_ops(derived(
        "teststat.run_test_grid", ["comparability.lambda_matrix", *kernel_matrices]))
    values["cli.import_qitest.ms"] = median_over_ops(derived(
        "cli.import_qitest_process", ["cli.interpreter_start"]))
    n_comparable = counts.get("teststat.n_comparable", {})
    values["teststat.n_comparable"] = n_comparable[min(n_comparable)] if n_comparable else 0
    for name in ("teststat.peak_alloc_mb", "efficacy.peak_alloc_mb"):
        values[name] = median_over_ops(counts.get(name))
    if plain and traced:
        values["trace.overhead_pct"] = 100.0 * (statistics.median(traced) / statistics.median(plain) - 1.0)
    return values


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    caches = {}
    # glibc sysconf numbers: _SC_LEVEL1_DCACHE_SIZE, _SC_LEVEL2_CACHE_SIZE, _SC_LEVEL3_CACHE_SIZE
    for label, key in (("l1d", 188), ("l2", 191), ("l3", 194)):
        try:
            caches[label + "_bytes"] = os.sysconf(key)
        except (ValueError, OSError):
            caches[label + "_bytes"] = None
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "caches": caches,
        "machine": platform.machine(),
        "threads_env": {k: os.environ.get(k) for k in
                        ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "qitest": qitest.__file__,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    expected = (Path.cwd() / "src" / "qitest").resolve()
    if Path(qitest.__file__).resolve().parent != expected:
        sys.stderr.write(f"error: imported {qitest.__file__}, not the checkout's {expected}\n")
        return 2
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix="inputs-") as workdir:
        wl = WORKLOADS[args.workload](args.seed, Path(workdir))
        print("ready", flush=True)
        if args.setup_only:
            return 0
        detail = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "sizes": wl.sizes(), "environment": environment()}
        if args.trace:
            tracer = Tracer()
            plain, traced, outputs = run_traced(wl, args.seconds, tracer)
            failed, messages = check_all(wl, outputs)
            values = per_layer(tracer, plain, traced)
            trace_file = OUT / f"trace-{wl.name}-seed{args.seed}.json"
            tracer.write(trace_file)
            detail.update(op_ms_untraced=[t * 1e3 for t in plain],
                          op_ms_traced=[t * 1e3 for t in traced], trace_file=str(trace_file),
                          values=values)
        else:
            latencies, outputs, elapsed = run_untraced(wl, args.seconds)
            usage = resource.getrusage(resource.RUSAGE_SELF)
            failed, messages = check_all(wl, outputs)
            done = sum(wl.units(out) for index, (_, out) in enumerate(outputs) if index not in failed)
            detail.update(op_ms=[t * 1e3 for t in latencies], timed_s=elapsed, work_units=done,
                          peak_rss_mb=usage.ru_maxrss / 1024.0)
    detail.update(attempted=len(outputs), failed=len(failed), failures=messages)
    print(json.dumps(detail))
    return 0


if __name__ == "__main__":
    sys.exit(main())
