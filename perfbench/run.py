"""Layered benchmark for motzeta.

    python3 perfbench/run.py --workload jets --seed 0 --seconds 28 --trace 0

Runs one workload (jets, twisted, nearby or symbolic; see workloads.py) for
``--seconds``.  Each pass is a fresh single-threaded worker process that
imports motzeta, builds the inputs and runs the op list once, so caches start
empty as in a user's script.  Every op's exact answer is checked, outside the
timed region, against a reference from an independent route; one more worker
computes the references once per run.  This process never imports motzeta
(see worker.py for why).

With ``--trace 0`` the last line of output is a JSON object with the
end-to-end metrics: wall_s and cpu_s (one pass over the op list), op_p50_s
(the median op), setup_s (launch to ready) and peak_rss_mb.  The four
timings are medians over passes of times at reference host speed: each is
scaled by the speed of a calibration kernel sampled next to it, because the
shared host's own speed swings by up to 2x (see calibrate.py).  Memory is the
median over passes.  With ``--trace 1`` traced and untraced
passes alternate and the JSON holds the per-layer metrics of the traced
passes (tracing.py), the tracing overhead and the outcome of the probes: ops
that fail today, run once per run outside the timed passes and checked when
they return.  The spans of the traced passes are written to .bench_out/.

Exit status is 1 when any op returns a wrong value.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"
MIN_PASSES = 3  # per kind of pass, however short --seconds is
WORKER_TIMEOUT_S = 60  # one pass takes a few seconds; a run must end within 180 s
WORKER_ENV = {
    **os.environ,
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
END_TO_END = {"wall_s": "s", "cpu_s": "s", "op_p50_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class Worker:
    """Starts worker.py processes for one run and collects their reports."""

    def __init__(self, workload, seed):
        OUT_DIR.mkdir(exist_ok=True)
        self.workload, self.seed = workload, seed
        self.refs_file = OUT_DIR / ("refs-%d.pkl" % os.getpid())
        self.count = 0

    def run(self, *flags):
        """Run one worker; return its report and its monotonic launch time."""
        out = OUT_DIR / ("out-%d-%d.pkl" % (os.getpid(), self.count))
        self.count += 1
        cmd = [
            sys.executable, str(HERE / "worker.py"),
            "--workload", self.workload, "--seed", str(self.seed),
            "--refs-file", str(self.refs_file), "--out", str(out), *flags,
        ]
        launched = time.monotonic()
        subprocess.run(cmd, env=WORKER_ENV, check=True, timeout=WORKER_TIMEOUT_S, stdout=subprocess.DEVNULL)
        try:
            with open(out, "rb") as fh:
                return pickle.load(fh), launched  # builtins written by our own worker
        finally:
            out.unlink(missing_ok=True)

    def references(self):
        return self.run("--refs")[0]

    def one_pass(self, traced, probes):
        report, launched = self.run("--trace", str(int(traced)), "--probes", str(int(probes)))
        raw = report["ready"] - launched - report["start_sample_s"]
        report["setup"] = raw * report["setup_speed"]
        return report

    def close(self):
        self.refs_file.unlink(missing_ok=True)


def evaluate(op_ids, reports):
    """Count every op of every pass.  Returns (attempted, failed, errors,
    mismatches): errors maps an op id to the exception classes it raised."""
    attempted = failed = 0
    errors, mismatches = {}, []
    for report in reports:
        for op_id, rec in zip(op_ids, report["ops"]):
            attempted += 1
            if rec["error"] is not None:
                failed += 1
                errors.setdefault(op_id, set()).add(rec["error"])
            elif rec["mismatch"] is not None:
                mismatches.append("%s: %s" % (op_id, rec["mismatch"]))
    return attempted, failed, errors, mismatches


def evaluate_probes(records):
    """(refused, solved, mismatches) for the probe records of one pass."""
    refused = sum(rec["error"] is not None for rec in records)
    wrong = ["probe %s: %s" % (rec["id"], rec["mismatch"]) for rec in records if rec["mismatch"]]
    return refused, len(records) - refused - len(wrong), wrong


def tail(values):
    """(percentile, value) of the highest percentile with at least ten
    samples above it, or None with fewer than 11 samples."""
    n = len(values)
    if n < 11:
        return None
    k = n - 11
    return 100 * (k + 1) // n, sorted(values)[k]


def describe(values):
    text = "median %.6g of %d" % (statistics.median(values), len(values))
    t = tail(values)
    if t is not None:
        text += ", p%d %.6g" % t
    return text


def git_sha():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def end_to_end(reports):
    """Metric -> (value, description of its samples).

    wall_s, cpu_s and op_p50_s take each op's median over the run's passes
    of its time at reference speed (calibrate.py), and setup_s the median
    pass's set-up at reference speed.  The descriptions give the raw times
    measured, as medians over passes, and the median speed factor."""
    n_ops = len(reports[0]["ops"])

    def op_medians(key, k):
        return [statistics.median(r["ops"][i][key] * r["ops"][i]["speed"][k] for r in reports) for i in range(n_ops)]

    wall, cpu = op_medians("wall", 0), op_medians("cpu", 1)
    setups = [r["setup"] for r in reports]
    rss = [r["peak_rss_mb"] for r in reports]
    per_pass = "sum of op medians over %d passes; raw pass" % len(reports)
    factor = statistics.median(rec["speed"][0] for r in reports for rec in r["ops"])
    return {
        "wall_s": (sum(wall), "%s wall %s; speed factor %.3g" % (
            per_pass, describe([r["wall"] for r in reports]), factor)),
        "cpu_s": (sum(cpu), "%s cpu %s" % (per_pass, describe([r["cpu"] for r in reports]))),
        "op_p50_s": (statistics.median(wall), "median of %d op medians; raw op wall %s" % (
            n_ops, describe([rec["wall"] for r in reports for rec in r["ops"]]))),
        "setup_s": (statistics.median(setups), describe(setups)),
        "peak_rss_mb": (statistics.median(rss), describe(rss)),
    }


def per_layer(untraced, traced, probe_outcome):
    """Metric -> (median over traced passes, unit), plus the trace overhead
    and the probe outcome."""
    values = {
        name: (statistics.median(r["layers"][name][0] for r in traced), unit)
        for name, (_, unit) in traced[0]["layers"].items()
    }
    overhead = statistics.median(r["wall"] for r in traced) - statistics.median(r["wall"] for r in untraced)
    values["trace.overhead_s"] = (overhead, "s")
    refused, solved = probe_outcome
    values["probe.refused"] = (refused, "count")
    values["probe.solved"] = (solved, "count")
    return values


def write_trace(workload, seed, env, op_ids, traced):
    path = OUT_DIR / ("trace-%s-seed%d.json" % (workload, seed))
    doc = {
        "workload": workload,
        "seed": seed,
        **env,
        "ops": op_ids,
        "passes": [
            {
                "wall": r["wall"],
                "op_walls": [rec["wall"] for rec in r["ops"]],
                "layers": {k: v for k, (v, _) in r["layers"].items()},
                "unmeasured": r["unmeasured"],
                "spans": r["spans"],
            }
            for r in traced
        ],
    }
    path.write_text(json.dumps(doc))
    return path


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=28)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "motzeta" / "__init__.py").is_file():
        print("perfbench: no motzeta sources under %s" % (ROOT / "src"), file=sys.stderr)
        return 2

    worker = Worker(args.workload, args.seed)
    untraced, traced = [], []
    try:
        meta = worker.references()
        deadline = time.monotonic() + args.seconds
        while True:
            is_traced = bool(args.trace) and (len(untraced) + len(traced)) % 2 == 1
            report = worker.one_pass(is_traced, probes=not untraced)
            (traced if is_traced else untraced).append(report)
            done = len(untraced) >= MIN_PASSES and (not args.trace or len(traced) >= MIN_PASSES)
            if done and time.monotonic() >= deadline:
                break
    finally:
        worker.close()

    attempted, failed, errors, mismatches = evaluate(meta["ops"], untraced + traced)
    refused, solved, probe_bad = evaluate_probes(untraced[0]["probes"])
    mismatches += probe_bad
    env = {"sha": git_sha(), "nproc": os.cpu_count(), "python": platform.python_version(), "numpy": meta["numpy"]}

    print("# perfbench workload=%s seed=%d trace=%d passes=%d+%d sha=%s nproc=%s python=%s numpy=%s" % (
        args.workload, args.seed, args.trace, len(untraced), len(traced),
        env["sha"], env["nproc"], env["python"], env["numpy"]))
    print("# ops attempted %d, failed %d%s" % (
        attempted, failed, "".join("; %s raised %s" % (k, "/".join(sorted(v))) for k, v in errors.items())))
    for rec in untraced[0]["probes"]:
        print("# probe %s: %s" % (rec["id"], rec["detail"] or "returned a value"))
    for bad in mismatches:
        print("# WRONG %s" % bad)

    if args.trace:
        metrics = per_layer(untraced, traced, (refused, solved))
        unmeasured = {}
        for r in traced:
            unmeasured.update(r["unmeasured"])
        for name, reason in sorted(unmeasured.items()):
            print("# unmeasured %s: %s" % (name, reason))
        print("# spans written to %s" % write_trace(args.workload, args.seed, env, meta["ops"], traced))
    else:
        metrics = {}
        for name, (value, note) in end_to_end(untraced).items():
            metrics[name] = (value, END_TO_END[name])
            print("%-12s %12.6f %-2s  %s" % (name, value, END_TO_END[name], note))

    print(json.dumps({
        "correct": not mismatches,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if not mismatches else 1


if __name__ == "__main__":
    sys.exit(main())
