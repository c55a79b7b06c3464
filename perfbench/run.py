#!/usr/bin/env python3
"""Seeded benchmark of the sparsedisc pipelines.

    python3 perfbench/run.py --workload power --seed 1 --seconds 30 --trace 0

Run from the repository root.  Starts ``worker.py`` once per set-up
sample (interpreter start, imports, pass-0 inputs, one warm-up op) and
keeps the last one as the measured run.  Before each set-up it times a
bare interpreter start with the numpy import, so that set-up time can be
reported at one fixed host speed.  The last stdout line is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``).  Exits non-zero without that line if any worker fails.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 4  # set-ups per run; setup_s comes from their median
SETUP_LIMIT_S = 60
# Interpreter start and the one third-party import: the part of set-up the
# library does not control, slowed by the host as much as set-up is.
BASELINE = [sys.executable, "-c", "import numpy; print('READY', flush=True)"]
BASELINE_REFERENCE_S = 0.09  # the baseline's time on a quiet host that set the bounds
# One caller and no threads: without this, numpy's BLAS library starts a
# thread pool at import.
CHILD_ENV = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
RESULT_MARGIN_S = 100  # time allowed after the measured seconds for checks and reporting


def start_child(argv: list[str], limit_s: float) -> tuple[float, list[str], int]:
    """Run a process that prints READY when set up; return (seconds until
    READY, later stdout lines, exit code).  A watchdog kills it once it
    exceeds limit_s."""
    started = perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, env=CHILD_ENV)
    watchdog = threading.Timer(limit_s, proc.kill)
    watchdog.start()
    try:
        ready_s = None
        lines = []
        for line in proc.stdout:
            if ready_s is None and line.strip() == "READY":
                ready_s = perf_counter() - started
            else:
                lines.append(line.rstrip("\n"))
        code = proc.wait()
    finally:
        watchdog.cancel()
        proc.kill()
        proc.wait()
    if ready_s is None:
        return 0.0, lines, code or 1
    return ready_s, lines, code


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--trace", str(args.trace)]

    worker = [sys.executable, str(HERE / "worker.py"), *common]
    setups, baselines = [], []
    for i in range(SETUP_SAMPLES):
        baseline_s, _, code = start_child(BASELINE, SETUP_LIMIT_S)
        if code != 0:
            print(f"baseline interpreter start failed with exit code {code}", file=sys.stderr)
            return 1
        baselines.append(baseline_s)
        last = i == SETUP_SAMPLES - 1
        ready_s, lines, code = start_child(
            worker if last else worker + ["--setup-only"],
            SETUP_LIMIT_S + (args.seconds + RESULT_MARGIN_S if last else 0))
        if code != 0 or (last and not lines):
            print(f"benchmark worker failed with exit code {code}", file=sys.stderr)
            return 1
        setups.append(ready_s)
    report = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)
    setup_s = statistics.median(setups) * BASELINE_REFERENCE_S / statistics.median(baselines)
    metrics = report["metrics"]
    if not args.trace:
        metrics["setup_s"] = {"value": setup_s, "unit": "s"}
    report["raw_setup_samples_s"] = setups
    report["baseline_samples_s"] = baselines
    print("report " + json.dumps(report, separators=(",", ":")))
    result = {key: report[key] for key in ("correct", "attempted", "failed")}
    result["metrics"] = metrics
    print(json.dumps(result, separators=(",", ":")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
