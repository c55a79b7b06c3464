"""One benchmark process: set up, then run the workload's ops in a closed
loop with one caller and report.

Printed on stdout: ``READY`` once set-up (imports, pass-0 inputs, one
warm-up op) is done, then one JSON line with the measurements.  ``run.py``
starts this process and times the set-up from outside, so interpreter
start-up is counted.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"

sys.path.insert(0, str(ROOT / "src"))

import numpy  # noqa: E402  (only for its version in the provenance)

import calib  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


class OpRecord:
    __slots__ = ("kind", "seconds", "error", "canon", "quality", "ref_seconds")

    def __init__(self, kind, seconds, error, canon, quality):
        self.kind, self.seconds, self.error = kind, seconds, error
        self.canon, self.quality = canon, quality
        self.ref_seconds = seconds  # set by run_pass from the host-speed probes


def execute(op: workloads.Op, call=None) -> OpRecord:
    """Time one op, then check it with the timer stopped.  An op fails if it
    raises (a cap included) or breaks its exact check; the run goes on."""
    start = perf_counter()
    try:
        out = call(workloads.run_op, op) if call else workloads.run_op(op)
    except Exception as exc:  # any failure of the library counts against error_rate
        return OpRecord(op.kind, perf_counter() - start, f"raised {exc!r}", None, None)
    seconds = perf_counter() - start
    try:
        outcome = workloads.check_op(op, out)
    except workloads.CheckFailed as exc:
        return OpRecord(op.kind, seconds, f"check: {exc}", None, None)
    except Exception as exc:  # a malformed output can break the check itself
        return OpRecord(op.kind, seconds, f"check raised {exc!r}", None, None)
    return OpRecord(op.kind, seconds, None, outcome.canon, outcome.quality)


def digest(records: list[OpRecord]) -> str:
    h = hashlib.sha256()
    for rec in records:
        h.update(f"{rec.kind}\t{rec.canon}\n".encode())
    return h.hexdigest()


def run_pass(ops, call=None) -> tuple[list[OpRecord], float]:
    """Run ops back to back, probing the host speed between them; returns
    the records and the pass time at the reference speed."""
    gc.collect()
    records = []
    before = calib.probe()
    for op in ops:
        rec = execute(op, call)
        after = calib.probe()
        rec.ref_seconds = calib.to_reference(rec.seconds, before, after)
        records.append(rec)
        before = after
    return records, sum(r.ref_seconds for r in records)


def tail(times: list[float], percentile: int) -> tuple[float, int]:
    """The percentile's op time and the number of ops beyond it.  The
    percentile is fixed per workload, so the tail stays the same statistic
    however many ops a run completes."""
    if len(times) < 2:
        return times[0], 0
    cut = statistics.quantiles(times, n=100, method="inclusive")[percentile - 1]
    return cut, sum(1 for t in times if t > cut)


def source_hash() -> str:
    h = hashlib.sha256()
    files = sorted((ROOT / "src").rglob("*.py")) + sorted(HERE.glob("*.py"))
    for path in files:
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def git_state() -> tuple[str | None, bool | None]:
    if not (ROOT / ".git").exists():
        return None, None
    try:
        sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=20, check=True).stdout.strip()
        dirty = subprocess.run(["git", "-C", str(ROOT), "status", "--porcelain"], capture_output=True,
                               text=True, timeout=20, check=True).stdout.strip() != ""
    except (OSError, subprocess.SubprocessError):
        return None, None
    return sha, dirty


def record_digest(key: str, value: str) -> bool:
    """Store the pass-0 digest under key (workload, seed, input scale and
    source hash); False if an earlier run of the same code stored another."""
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / "digests.json"
    known = json.loads(path.read_text()) if path.exists() else {}
    if known.setdefault(key, value) != value:
        return False
    path.write_text(json.dumps(known, indent=1, sort_keys=True))
    return True


def mean(values) -> float | None:
    values = [v for v in values if v is not None]
    return float(sum(values, Fraction(0)) / len(values)) if values else None


def timed_run(args, first: list[workloads.Op]) -> dict:
    """Untraced passes over fresh inputs until the time is used."""
    passes: list[tuple[list[OpRecord], float]] = []
    wall0 = perf_counter()
    index = 0
    while True:
        ops = first if index == 0 else workloads.make_pass(args.workload, args.seed, index, args.tiny)
        started = perf_counter()
        passes.append(run_pass(ops))
        elapsed = perf_counter() - wall0
        if elapsed + (perf_counter() - started) > args.seconds:
            break
        index += 1
    records = [r for recs, _ in passes for r in recs]
    times = [r.ref_seconds for r in records]
    raw = [r.seconds for r in records]
    percentile = workloads.TAIL_PERCENTILE[args.workload]
    tail_s, beyond = tail(times, percentile)
    return {
        "records": records,
        "pass0": passes[0][0],
        "summary": {
            "passes": len(passes),
            "timed_s": sum(raw),
            "wall_s": perf_counter() - wall0,
            "host_slowdown": sum(raw) / sum(times),
            "raw_ops_per_s": len(raw) / sum(raw),
            "raw_op_p50_s": statistics.median(raw),
            "raw_op_tail_s": tail(raw, percentile)[0],
            "op_p50_samples": len(times),
            "op_tail_percentile": percentile,
            "op_tail_beyond": beyond,
            "pass_s": [t for _, t in passes],
        },
        "metrics": {
            "ops_per_s": (len(times) / sum(times), "1/s"),
            "op_p50_s": (statistics.median(times), "s"),
            "op_tail_s": (tail_s, "s"),
        },
    }


def traced_run(args, first: list[workloads.Op]) -> dict:
    """Alternate untraced and traced passes over the pass-0 inputs; the
    per-layer numbers come from the traced ones."""
    tracer = tracing.Tracer()
    untraced: list[float] = []
    traced: list[float] = []
    records: list[OpRecord] = []
    pass_counts = []
    consistent = True
    wall0 = perf_counter()
    base = None
    op_id = 0

    def call(run, op):
        nonlocal op_id
        op_id += 1
        return tracer.op(op_id, run, op)

    while True:
        started = perf_counter()
        before = dict(tracer.counts)
        # alternate which side runs first, so warming favours neither
        for side in ((0, 1) if len(traced) % 2 == 0 else (1, 0)):
            if side:
                tracer.install()
                try:
                    trecs, traced_s = run_pass(first, call)
                finally:
                    tracer.uninstall()
            else:
                recs, plain_s = run_pass(first)
        untraced.append(plain_s)
        traced.append(traced_s)
        records += recs + trecs
        pass_counts.append({k: v - before.get(k, 0) for k, v in tracer.counts.items()
                            if k != "power_coloring.star_degree_max"})
        base = base or digest(recs)
        consistent &= digest(recs) == base and digest(trecs) == base
        now = perf_counter()
        if now - wall0 + (now - started) > args.seconds:
            break
    consistent &= all(c == pass_counts[0] for c in pass_counts)
    counts = dict(pass_counts[0])
    counts["power_coloring.star_degree_max"] = tracer.counts["power_coloring.star_degree_max"]
    layers = tracing.layer_times(tracer.spans)
    op_total = layers[tracing.OP_SPAN]["total_s"]
    write_spans(args, tracer.spans)
    return {
        "records": records,
        "pass0": records[:len(first)],
        "consistent": consistent,
        "layers": layers,
        "counts": counts,
        "op_total_s": op_total,
        "overhead": sum(traced) / sum(untraced),
        "passes": len(traced),
    }


def write_spans(args, spans) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
    rows = [{"name": n, "start": s, "end": e, "parent": p, "op": o} for n, s, e, p, o in spans]
    path.write_text(json.dumps(rows, separators=(",", ":")))


def layer_metrics(result: dict) -> dict:
    """The per-layer metrics: each layer's share of traced op time, and
    exact counts of one pass, with ratios over their stated bases."""
    layers, counts, total = result["layers"], result["counts"], result["op_total_s"]

    def share(name):
        return (layers.get(name, {}).get("self_s", 0.0) / total, "ratio")

    def ratio(num, den):
        return (counts.get(num, 0) / counts[den] if counts.get(den) else 0.0, "ratio")

    def count(name):
        return (counts.get(name, 0), "count")

    return {
        "discrepancy.beck_fiala.share": share("discrepancy.beck_fiala"),
        "discrepancy.beck_fiala.calls": count("discrepancy.beck_fiala.calls"),
        "discrepancy.rounds": count("discrepancy.rounds"),
        "discrepancy.incidences": count("discrepancy.incidences"),
        "discrepancy.rounds_per_element": ratio("discrepancy.rounds", "discrepancy.ground_sum"),
        "discrepancy.eval_discrepancy.share": share("discrepancy.eval_discrepancy"),
        "orderings.wcol_from_order.share": share("orderings.wcol_from_order"),
        "orderings.degeneracy_order.share": share("orderings.degeneracy_order"),
        "orderings.weak_reach.calls": count("orderings.weak_reach.calls"),
        "orderings.wreach_size_sum": count("orderings.wreach_size_sum"),
        "power_coloring.reach_profile.share": share("power_coloring.reach_profile"),
        "power_coloring.wreach_star_system.share": share("power_coloring.wreach_star_system"),
        "power_coloring.star_sets": count("power_coloring.star_sets"),
        "power_coloring.star_degree_max": count("power_coloring.star_degree_max"),
        "graphs.graph_power.share": share("graphs.graph_power"),
        "graphs.power_edges": count("graphs.power_edges"),
        "setsystems.intersection_closure.share": share("setsystems.intersection_closure"),
        "setsystems.closure_sets": count("setsystems.closure_sets"),
        "setsystems.closure_growth": ratio("setsystems.closure_sets", "setsystems.closure_base_sets"),
        "setsystems.trace.share": share("setsystems.trace"),
        "setsystems.trace.calls": count("setsystems.trace.calls"),
        "setsystems.neighborhood_system.share": share("setsystems.neighborhood_system"),
        "pointer.defined_system.share": share("pointer.defined_system"),
        "pointer.formula_evals": count("pointer.eval_formula.calls"),
        "pointer.qf_decompose.share": share("pointer.qf_decompose"),
        "pointer.definable_closure.share": share("pointer.definable_closure"),
        "formulas.parse_formula.share": share("formulas.parse_formula"),
        "approx.epsilon_approximation.share": share("approx.epsilon_approximation"),
        "approx.verify_approximation.share": share("approx.verify_approximation"),
        "approx.levels": count("approx.levels"),
        "approx.applied_ratio": ratio("approx.applied_levels", "approx.levels"),
        "trace.overhead": (result["overhead"], "ratio"),
    }


def print_layer_table(result: dict) -> None:
    layers, total = result["layers"], result["op_total_s"]
    print(f"traced op time {total:.6f} s over {result['passes']} traced pass(es)")
    print(f"{'span':<40} {'self_s':>11} {'share':>7} {'max_s':>10} {'calls':>8}")
    for name, rec in sorted(layers.items(), key=lambda kv: -kv[1]["self_s"]):
        print(f"{name:<40} {rec['self_s']:11.6f} {rec['self_s'] / total:7.2%} "
              f"{rec['max_s']:10.6f} {rec['calls']:8d}")
    counts = result["counts"]
    print("counts of one pass: " + json.dumps(dict(sorted(counts.items()))))
    for num, den in (("discrepancy.rounds", "discrepancy.ground_sum"),
                     ("setsystems.closure_sets", "setsystems.closure_base_sets"),
                     ("approx.applied_levels", "approx.levels")):
        print(f"ratio {num} / {den} = {counts.get(num, 0)} / {counts.get(den, 0)}")
    print(f"trace.overhead = traced / untraced op time = {result['overhead']:.4f}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.PASSES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--tiny", action="store_true", help="small inputs, for the harness self-test")
    args = ap.parse_args(argv)

    first = workloads.make_pass(args.workload, args.seed, 0, args.tiny)
    warm = execute(first[0])
    print("READY", flush=True)
    if args.setup_only:
        return 0

    result = traced_run(args, first) if args.trace else timed_run(args, first)
    records = result["records"]
    pass0 = result["pass0"]
    src = source_hash()
    pass0_digest = digest(pass0)
    scale = "tiny" if args.tiny else "full"
    stable = record_digest(f"{args.workload}/{args.seed}/{scale}/{src}", pass0_digest)
    failures = [r for r in records if r.error]
    for rec in failures[:10]:
        print(f"FAILED {rec.kind}: {rec.error}", file=sys.stderr)
    if not stable:
        print("digest differs from an earlier run of the same code", file=sys.stderr)
    correct = not failures and warm.error is None and stable and result.get("consistent", True)
    sha, dirty = git_state()
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "digest": pass0_digest,
        "digest_stable": stable,
        "provenance": {
            "git_sha": sha,
            "git_dirty": dirty,
            "source_sha256": src,
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
        },
        "attempted": len(records),
        "failed": len(failures),
        "error_rate": len(failures) / len(records),
        "ops_per_pass": len(first),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if args.trace:
        print_layer_table(result)
        metrics = layer_metrics(result)
    else:
        report.update(result["summary"])
        quality = [r.quality for r in records if r.quality is not None]
        key = "sample_fraction" if args.workload == "approx" else "achieved_over_bound"
        if quality:
            report[key] = mean(quality)
        metrics = dict(result["metrics"])
        metrics["peak_rss_mb"] = (report["peak_rss_mb"], "MB")
    report["correct"] = correct
    report["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    print(json.dumps(report, separators=(",", ":")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
