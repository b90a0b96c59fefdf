"""Compare a change with its parent on the qitest benchmark.

    python3 perfbench/compare.py --parent PARENT_CHECKOUT --change CHANGE_CHECKOUT

Both sides run this directory's ``run.py`` with identical settings, each from
its own checkout root, so only the program under test differs. Every workload
of BENCHMARK.json is run in 10 pairs. Pairs alternate which side runs first;
pair k uses seed ``SEED + k`` on both sides. Every run is kept in
``perfbench/out/compare-*.json``.

One row per (workload, end-to-end metric), with each side's median and
quartiles, the pairs the change won, and a verdict:

* improved: the change wins at least 9 of 10 pairs (ties count for neither)
  and the medians differ by more than the parent's inter-quartile spread;
* worse: the change's median is worse than the parent's by more than the
  metric's bound in BENCHMARK.json;
* unresolved: neither, and a side's spread exceeds the bound (unless every
  change run beats every parent run);
* unchanged: otherwise.

A gain is withheld when the change fails more of its operations than the
parent; the error rate (failed / attempted ops) of each side is printed. A
run that exits nonzero (a crash, or the time limit in ``run.py``) has no
metrics: its workload reads worse when only the change has such runs, and
unresolved when the parent has them too.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
PAIRS = 10
WIN_SHARE = 0.9
SEED = 1000


def run_once(checkout: Path, workload: str, seed: int, seconds: int) -> dict | None:
    """The result line of one untraced run, or None if the run exited nonzero."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        print(f"run failed in {checkout} ({workload}, seed {seed}):\n{proc.stderr}", file=sys.stderr)
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> tuple[str, int]:
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    if wins >= WIN_SHARE * len(parent) and sign * (cm - pm) > p3 - p1:
        return "improved", wins
    if sign * (pm - cm) > bound * abs(pm):
        return "worse", wins
    spread = max((p3 - p1) / abs(pm) if pm else 0.0, (c3 - c1) / abs(cm) if cm else 0.0)
    all_better = all(sign * (c - p) > 0 for c in change for p in parent)
    if spread > bound and not all_better:
        return "unresolved", wins
    return "unchanged", wins


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="Compare a change with its parent on the benchmark.")
    p.add_argument("--parent", type=Path, required=True, help="root of the parent checkout")
    p.add_argument("--change", type=Path, required=True, help="root of the changed checkout")
    args = p.parse_args(argv)
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    workloads = [w["name"] for w in SPEC["workloads"]]
    seconds = SPEC["run_seconds"]

    runs = {(w, side): [] for w in workloads for side in sides}
    for k in range(PAIRS):
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        for w in workloads:
            for side in order:
                runs[(w, side)].append(run_once(sides[side], w, SEED + k, seconds))
                print(f"pair {k + 1}/{PAIRS} {w} {side} done", file=sys.stderr, flush=True)

    (HERE / "out").mkdir(exist_ok=True)
    record = HERE / "out" / f"compare-{time.strftime('%Y%m%d-%H%M%S')}.json"
    record.write_text(json.dumps({"sides": {s: str(d) for s, d in sides.items()},
                                  "seed": SEED, "pairs": PAIRS,
                                  "runs": {f"{w}/{s}": r for (w, s), r in runs.items()}}, indent=1))

    print(f"{'workload':14s} {'metric':17s} {'unit':6s} {'parent median [q1, q3]':>34s} "
          f"{'change median [q1, q3]':>34s} {'wins':>6s}  verdict")
    for w in workloads:
        crashed = {side: sum(r is None for r in runs[(w, side)]) for side in sides}
        if crashed["parent"] or crashed["change"]:
            result = "worse" if not crashed["parent"] else "unresolved"
            print(f"{w:14s} runs exited nonzero: parent {crashed['parent']}/{PAIRS}, "
                  f"change {crashed['change']}/{PAIRS}  {result}")
            continue
        errors = {}
        for side in sides:
            attempted = sum(r["attempted"] for r in runs[(w, side)])
            failed = sum(r["failed"] for r in runs[(w, side)])
            errors[side] = failed / attempted
        for m in SPEC["end_to_end"]:
            name = m["name"]
            values = {side: [r["metrics"][name]["value"] for r in runs[(w, side)]] for side in sides}
            result, wins = verdict(values["parent"], values["change"], m["better"], m["bound"])
            if result == "improved" and errors["change"] > errors["parent"]:
                result = "unchanged (gain withheld: more failed ops)"
            cells = []
            for side in sides:
                q1, q2, q3 = quartiles(values[side])
                cells.append(f"{q2:12.5g} [{q1:.5g}, {q3:.5g}]")
            print(f"{w:14s} {name:17s} {m['unit']:6s} {cells[0]:>34s} {cells[1]:>34s} "
                  f"{wins:3d}/{PAIRS:<2d}  {result}")
        print(f"{w:14s} {'error_rate':17s} {'ratio':6s} {errors['parent']:34.4g} {errors['change']:34.4g}"
              f"{'':8s}  {'worse' if errors['change'] > errors['parent'] else 'not worse'}")
    print(f"runs recorded in {record}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
