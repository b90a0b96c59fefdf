"""Command-line interface.

Subcommands: ``test`` (one test on a CSV file), ``simulate`` (replicated
level/power experiment), ``are`` (asymptotic-efficiency table), ``channing``
(bundled data reproduction) and ``cox-check`` (score/U-statistic equivalence
diagnostics on a file). Exit code 0 on success; error classes map to
distinct nonzero codes (see errors.py).
"""

from __future__ import annotations

import argparse
import os
import sys
import warnings

import numpy as np

from . import __version__
from .coxscore import cox_score_covariate, cox_score_rankstar
from .datasets import load_channing
from .efficacy import are_table
from .errors import DegenerateVariance, QITestError
from .ingest import InputSpec, ingest_csv
from .kernels import Kernel
from .report import ReportEnvelope, render_test_result_text, rows_to_csv
from .simulate import ScenarioFamily, SimScenario, run_experiment
from .teststat import (STANDARD_PAIRS, quasi_independence_test, reverse_roles, run_test_grid,
                       u_numerator)


def _env_seed(parser: argparse.ArgumentParser) -> int:
    """The ``simulate`` seed when ``--seed`` is not given: QITEST_SEED, else 20240001."""
    text = os.environ.get("QITEST_SEED", "20240001")
    try:
        return int(text)
    except ValueError:
        parser.error(f"QITEST_SEED must be an integer, got {text!r}")


def _checked(kind, ok, rule: str):
    """argparse type: ``kind(text)``, a usage error unless the value satisfies ``ok``."""
    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid {kind.__name__} value: {text!r}") from None
        if not ok(value):
            raise argparse.ArgumentTypeError(f"{rule}, got {text}")
        return value

    return parse


def _add_io_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("path", help="input CSV file")
    p.add_argument("--entry", default="entry", help="entry-time column (name or 0-based index)")
    p.add_argument("--exit", dest="exit_", default="exit", help="exit-time column")
    p.add_argument("--event", default=None,
                   help="event column (0/1); omit to treat every exit as a failure")
    p.add_argument("--delimiter", default=",")
    p.add_argument("--no-header", action="store_true", help="file has no header row")
    p.add_argument("--group-column", default=None)
    p.add_argument("--group-value", default=None)


def _spec_from_args(args) -> InputSpec:
    return InputSpec(
        path=args.path,
        entry_column=args.entry,
        exit_column=args.exit_,
        event_column=args.event,
        group_column=args.group_column,
        group_value=args.group_value,
        delimiter=args.delimiter,
        header=not args.no_header,
    )


def _emit(args, envelope: ReportEnvelope, text: str, rows=None) -> None:
    if args.format == "json":
        sys.stdout.write(envelope.to_json())
    elif args.format == "csv":
        if rows is None:
            raise QITestError("csv output is not available for this command")
        sys.stdout.write(rows_to_csv(rows))
    else:
        for w in envelope.warnings:
            sys.stdout.write(f"warning: {w}\n")
        sys.stdout.write(text + "\n")


def _cmd_test(args) -> None:
    data, report = ingest_csv(_spec_from_args(args))
    censored = args.mode == "censored" or (args.mode == "auto" and args.event is not None)
    if args.reverse:
        data = reverse_roles(data)
    result = quasi_independence_test(data, args.g, args.h, censored_mode=censored)
    messages = list(report.warnings)
    if result.assumption_3b_required:
        messages.append(
            "this kernel pair is valid only when entry and censoring times are "
            "quasi-independent; check with the reversed-role diagnostic "
            "(--reverse with --h sign) before relying on it"
        )
    env = ReportEnvelope(command=_echo(), payload=result, warnings=messages)
    rows = [result.to_dict()]
    _emit(args, env, render_test_result_text(result), rows)


def _cmd_channing(args) -> None:
    groups = ["men", "women"] if args.group == "both" else [args.group]
    # the reversed-role table runs every sign-exit pair on flipped event flags
    reversed_pairs = [(g, Kernel.SIGN) for g in Kernel]
    rows = []
    with warnings.catch_warnings(record=True) as rec:
        warnings.simplefilter("always")
        for grp in groups:
            data = load_channing(grp)
            for table, d, pairs in (("association", data, STANDARD_PAIRS),
                                    ("reversed-roles", reverse_roles(data), reversed_pairs)):
                for (g, h), r in run_test_grid(d, pairs, censored_mode=True).items():
                    if isinstance(r, DegenerateVariance):
                        raise r
                    rows.append({"group": grp, "table": table, "g_kernel": g.value,
                                 "h_kernel": h.value, "statistic": r.chi_square,
                                 "p_value": r.p_value})
        caught = [str(w.message) for w in rec]
    env = ReportEnvelope(command=_echo(), payload=rows, warnings=caught)
    lines = [f"{'group':6s} {'table':14s} {'g':6s} {'h':6s} {'statistic':>10s} {'p':>9s}"]
    for row in rows:
        lines.append(f"{row['group']:6s} {row['table']:14s} {row['g_kernel']:6s} "
                     f"{row['h_kernel']:6s} {row['statistic']:10.3f} {row['p_value']:9.3g}")
    _emit(args, env, "\n".join(lines), rows)


def _cmd_simulate(args) -> None:
    scenario = SimScenario(
        family=args.scenario,
        target_n=args.n,
        censoring_target=args.censoring if args.censoring > 0 else None,
        seed=args.seed,
    )
    report = run_experiment(scenario, replicates=args.reps, level=args.level,
                            n_jobs=args.threads)
    rows = report.to_rows()
    env = ReportEnvelope(command=_echo(), payload=rows, seeds=[args.seed])
    lines = [f"scenario {scenario.family.value}, n={scenario.target_n}, "
             f"reps={args.reps}, level={args.level:g}, "
             f"mean censored fraction {report.mean_censored_fraction:.3f}"]
    lines.append(f"{'g':6s} {'h':6s} {'reject':>8s} {'mc se':>8s}")
    for row in rows:
        lines.append(f"{row['g_kernel']:6s} {row['h_kernel']:6s} "
                     f"{row['rejection_rate']:8.4f} {row['monte_carlo_se']:8.4f}")
    if report.degenerate:
        lines.append(f"degenerate replicates excluded: {report.degenerate}")
    _emit(args, env, "\n".join(lines), rows)


def _cmd_are(args) -> None:
    rows = are_table(regularize=not args.no_regularize)
    env = ReportEnvelope(command=_echo(), payload=rows)
    lines = [f"{'model':22s} {'entry':12s} {'psi0':>5s} {'psi1':>5s} {'g':7s} {'ratio':>8s}"]
    for row in rows:
        lines.append(f"{row['model']:22s} {row['entry']:12s} {row['psi0']:5.1f} "
                     f"{row['psi1']:5.1f} {row['g_kernel']:7s} {row['are_vs_sign_sign']:8.3f}")
    _emit(args, env, "\n".join(lines), rows)


def _cmd_cox_check(args) -> None:
    data, report = ingest_csv(_spec_from_args(args))
    covariates = {"identity": lambda x: x, "exp": np.exp, "cube": lambda x: x**3}
    a = covariates[args.covariate]
    rows = [
        {"statistic": f"covariate({args.covariate})",
         "sweep": cox_score_covariate(data, a, method="sweep"),
         "direct": cox_score_covariate(data, a, method="direct"),
         "pairwise_form": cox_score_covariate(data, a, method="pairwise")},
        {"statistic": "rank-in-risk-set",
         "sweep": cox_score_rankstar(data, method="sweep"),
         "direct": cox_score_rankstar(data, method="direct"),
         "pairwise_form": 0.5 * u_numerator(data, Kernel.SIGN, Kernel.SIGN, censored_mode=True)},
    ]
    env = ReportEnvelope(command=_echo(), payload=rows, warnings=list(report.warnings))
    lines = [f"{'statistic':22s} {'sweep':>14s} {'direct':>14s} {'pairwise':>14s}"]
    for row in rows:
        lines.append(f"{row['statistic']:22s} {row['sweep']:14.6g} "
                     f"{row['direct']:14.6g} {row['pairwise_form']:14.6g}")
    _emit(args, env, "\n".join(lines), rows)


def _echo() -> str:
    return "qitest " + " ".join(sys.argv[1:])


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="qitest",
                                description="quasi-independence tests for left-truncated survival data")
    p.add_argument("--version", action="version", version=f"qitest {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    t = sub.add_parser("test", help="run one test on a CSV file")
    _add_io_args(t)
    kernels = [k.value for k in Kernel]
    t.add_argument("--g", type=str.lower, choices=kernels, default="sign",
                   help="entry-time kernel")
    t.add_argument("--h", type=str.lower, choices=kernels, default="sign",
                   help="exit-time kernel")
    t.add_argument("--mode", choices=("auto", "censored", "uncensored"), default="auto")
    t.add_argument("--reverse", action="store_true",
                   help="flip event flags (entry-vs-censoring diagnostic)")
    t.add_argument("--format", choices=("table", "json", "csv"), default="table")
    t.set_defaults(func=_cmd_test)

    s = sub.add_parser("simulate", help="replicated level/power experiment")
    s.add_argument("--scenario", type=str.lower, choices=[f.value for f in ScenarioFamily],
                   default="exp-null", help="generative scenario")
    at_least_one = _checked(int, lambda v: v >= 1, "must be at least 1")
    s.add_argument("--n", type=at_least_one, default=400, help="post-truncation sample size")
    s.add_argument("--reps", type=at_least_one, default=1000)
    s.add_argument("--level", default=0.05,
                   type=_checked(float, lambda v: 0.0 < v < 1.0, "must lie in (0, 1)"))
    s.add_argument("--censoring", default=0.0,
                   type=_checked(float, lambda v: 0.0 <= v < 1.0, "must be 0 or lie in (0, 1)"),
                   help="target censored fraction in (0,1); 0 disables censoring")
    s.add_argument("--seed", type=int, default=None,
                   help="random seed (default: $QITEST_SEED, else 20240001)")
    s.add_argument("--threads", type=at_least_one, default=os.cpu_count() or 1)
    s.add_argument("--format", choices=("table", "json", "csv"), default="table")
    s.set_defaults(func=_cmd_simulate)

    a = sub.add_parser("are", help="asymptotic relative efficiency table")
    a.add_argument("--no-regularize", action="store_true",
                   help="fail instead of truncating non-integrable covariate transforms")
    a.add_argument("--format", choices=("table", "json", "csv"), default="table")
    a.set_defaults(func=_cmd_are)

    c = sub.add_parser("channing", help="bundled retirement-community data analysis")
    c.add_argument("--group", choices=("men", "women", "both"), default="both")
    c.add_argument("--format", choices=("table", "json", "csv"), default="table")
    c.set_defaults(func=_cmd_channing)

    x = sub.add_parser("cox-check", help="score/U-statistic equivalence diagnostics")
    _add_io_args(x)
    x.add_argument("--covariate", choices=("identity", "exp", "cube"), default="identity")
    x.add_argument("--format", choices=("table", "json", "csv"), default="table")
    x.set_defaults(func=_cmd_cox_check)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "simulate" and args.seed is None:
        args.seed = _env_seed(parser)
    try:
        args.func(args)
    except QITestError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return exc.exit_code
    return 0


if __name__ == "__main__":
    sys.exit(main())
