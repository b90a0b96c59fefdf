"""qitest benchmark: run one workload and print its result as one JSON line.

Run from the root of a qitest checkout:

    python3 perfbench/run.py --workload mc-power --seed 7 --seconds 10 --trace 0

The program under test is ``./src/qitest``; nothing is installed. Each
workload runs in fresh interpreters (``workloads.py``) with BLAS/OpenMP
threads pinned to 1 and bytecode writing off. With ``--trace 0`` the result
holds the end-to-end metrics of ``BENCHMARK.json``. The timed phase is split
over two fresh processes, whose ops are pooled, and ``setup_s`` is the median
over three fresh processes (those two and one that only sets up) of the time
from process start until qitest is imported and the inputs are built. With
``--trace 1`` one process runs and the result holds the per-layer metrics.
The full record (environment, input sizes, per-op times, failures) goes to
``perfbench/out/``. See ``perfbench/NOTES.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = HERE.parent / "BENCHMARK.json"
#: fresh processes that share the timed phase, their ops pooled: on a shared
#: host the speed of a fresh process differs from the next one's by more than
#: one long-lived process drifts over the same time (see NOTES.md)
MEASURED_PROCESSES = 2
#: fresh processes timed for setup_s, the measured ones included
SETUP_SAMPLES = 3
#: a whole run, set-up probes and output checks included, is stopped after
#: max(RUN_LIMIT_S, RUN_LIMIT_PER_S x --seconds) seconds; at the default 10 s
#: that keeps it under 3 minutes. The slowest run, big-n, takes about 48 s.
RUN_LIMIT_S = 170.0
RUN_LIMIT_PER_S = 11.0

PINNED_ENV = {
    "PYTHONDONTWRITEBYTECODE": "1",
    "PYTHONHASHSEED": "0",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


class ChildFailed(RuntimeError):
    pass


def run_child(cmd, env, cwd, deadline):
    """Run one workload process; return (seconds until it printed ready, rest of stdout).

    The process leads its own process group, so a kill at the deadline also
    stops the CLI processes it may have running.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, env=env, cwd=cwd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)

    def kill():
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)

    def time_up():
        timed_out.set()
        kill()

    timed_out = threading.Event()
    timer = threading.Timer(max(0.0, deadline - time.monotonic()), time_up)
    timer.start()
    try:
        first = proc.stdout.readline()
        ready = time.perf_counter() - t0
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            kill()
        proc.wait()
    if timed_out.is_set():
        raise ChildFailed("stopped at the run's time limit")
    if code != 0 or first.strip() != "ready":
        raise ChildFailed(f"workload process exited with code {code}")
    return ready, rest


def main(argv=None) -> int:
    spec = json.loads(SPEC.read_text())
    p = argparse.ArgumentParser(description="Run one qitest benchmark workload.")
    p.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")

    root = Path.cwd()
    src = root / "src"
    if not (src / "qitest" / "__init__.py").is_file():
        sys.stderr.write(f"error: no qitest source tree at {src}; run from a checkout's root\n")
        return 2

    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    env = {**os.environ, **PINNED_ENV, "PYTHONPATH": str(src)}
    cmd = [sys.executable, str(HERE / "workloads.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--trace", str(args.trace)]
    deadline = time.monotonic() + max(RUN_LIMIT_S, RUN_LIMIT_PER_S * args.seconds)
    setup, parts = [], []
    try:
        if args.trace:
            parts.append(run_child(cmd + ["--seconds", str(args.seconds)], env, root, deadline)[1])
        else:
            for _ in range(SETUP_SAMPLES - MEASURED_PROCESSES):
                setup.append(run_child(cmd + ["--seconds", "0", "--setup-only"], env, root, deadline)[0])
            for _ in range(MEASURED_PROCESSES):
                ready, out = run_child(cmd + ["--seconds", str(args.seconds / MEASURED_PROCESSES)],
                                       env, root, deadline)
                setup.append(ready)
                parts.append(out)
    except ChildFailed as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    parts = [json.loads(out.strip().splitlines()[-1]) for out in parts]
    detail = {key: parts[0][key] for key in ("workload", "seed", "trace", "sizes", "environment")}
    for part in parts:
        for key in detail:
            del part[key]
    detail.update(seconds=args.seconds, processes=parts, setup_s_samples=setup,
                  attempted=sum(part["attempted"] for part in parts),
                  failed=sum(part["failed"] for part in parts),
                  failures=[line for part in parts for line in part["failures"]])
    if args.trace:
        # a layer this workload never calls spends 0 ms in it
        values = {m["name"]: parts[0]["values"].get(m["name"], 0.0) for m in metrics}
    else:
        op_ms = [t for part in parts for t in part["op_ms"]]
        values = {
            "setup_s": statistics.median(setup),
            "throughput_per_s": sum(part["work_units"] for part in parts)
            / sum(part["timed_s"] for part in parts),
            "latency_p50_ms": statistics.median(op_ms),
            "peak_rss_mb": max(part["peak_rss_mb"] for part in parts),
            "success_rate": 1.0 - detail["failed"] / detail["attempted"],
        }
        detail["error_rate"] = detail["failed"] / detail["attempted"]

    result = {
        "correct": detail["failed"] == 0,
        "attempted": detail["attempted"],
        "failed": detail["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metrics},
    }
    detail["result"] = result
    record = HERE / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps(detail, indent=1) + "\n")
    for line in detail["failures"][:20]:
        sys.stderr.write(f"check failed: {line}\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
