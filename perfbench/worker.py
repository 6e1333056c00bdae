"""Workload processes started by run.py.

With ``--refs`` it computes, once per run, the exact reference of every op
and probe of the workload, by the independent routes in workloads.py, and
writes them to ``--refs-file`` for the pass processes.

Otherwise it is one pass: a fresh single-threaded process (so module caches
start empty, as in a user's script) that builds the inputs, runs the op list
once with calibration samples between the ops (calibrate.py), and then,
outside the timed region, checks every op's exact values against the
references.

Either way it writes a pickle of builtins only to ``--out``, so the parent
never imports motzeta.  That keeps the parent small, which matters because a
process's peak-RSS high-water mark carries over from its parent across fork
and exec: the pass's peak_rss_mb is its own only while the parent's is lower.
"""

from __future__ import annotations

import argparse
import pickle
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import calibrate  # noqa: E402

# Taken before motzeta is imported.  With a sample taken once the inputs are
# built, it gives the host's speed over set-up (see calibrate.py).
START_SAMPLE = calibrate.sample("python")

import tracing  # noqa: E402
import workloads  # noqa: E402


def run_op(prepared):
    """Time one op.  Returns a record with its wall and CPU seconds, its result,
    and the class and message of the exception it raised, if any."""
    wall0, cpu0 = time.perf_counter(), time.process_time()
    rec = {"result": None, "error": None, "detail": None}
    try:
        rec["result"] = prepared.run()
    except Exception as e:  # an op's failure is a measured outcome, not a crash
        rec["error"] = type(e).__name__
        rec["detail"] = traceback.format_exception_only(e)[-1].strip()
    rec["wall"] = time.perf_counter() - wall0
    rec["cpu"] = time.process_time() - cpu0
    return rec


def run_pass(prepared, tracer=None, kernel="python"):
    """Run every op once, with a sample of the calibration ``kernel`` before
    the first op and after each op.  Returns (wall, cpu, per-op records):
    wall and cpu sum the ops' times, and each record's ``speed`` holds the
    (wall, cpu) factors from its bracketing samples to reference speed."""
    records = []
    calibrate.sample(kernel)  # warm-up
    before = calibrate.sample(kernel)
    for i, p in enumerate(prepared):
        spent = sum(m.spent for m in p.meters)
        if tracer is not None:
            tracer.op = i
        rec = run_op(p)
        rec["units"] = {"geomset.candidates": sum(m.spent for m in p.meters) - spent}
        after = calibrate.sample(kernel)
        rec["speed"] = calibrate.speed(kernel, before, after)
        records.append(rec)
        before = after
    return sum(r["wall"] for r in records), sum(r["cpu"] for r in records), records


def check_records(prepared, records, expected):
    """Replace each result by ``mismatch``: None when its exact values equal
    the reference, else a description of the first difference (untimed)."""
    for p, rec, want in zip(prepared, records, expected):
        result = rec.pop("result")
        rec["mismatch"] = None
        if rec["error"] is None:
            rec["mismatch"] = workloads.check(p.extract(result), want)
            if p.units is not None:
                rec["units"].update(p.units(result))


def run_probes(workload, expected):
    records = []
    for op, want in zip(workloads.probes(workload), expected):
        p = workloads.prepare(op)
        rec = run_op(p)
        check_records([p], [rec], [want])
        rec["id"] = op.id
        records.append(rec)
    return records


def compute_refs(workload, seed, refs_file):
    import numpy

    ops, probes = workloads.plan(workload, seed), workloads.probes(workload)
    refs = workloads.References()
    expected = {
        "ops": [workloads.reference(op, refs) for op in ops],
        "probes": [workloads.reference(op, refs) for op in probes],
    }
    with open(refs_file, "wb") as fh:
        pickle.dump(expected, fh)
    return {"ops": [op.id for op in ops], "probes": [op.id for op in probes], "numpy": numpy.__version__}


def one_pass(args):
    prepared = [workloads.prepare(op) for op in workloads.plan(args.workload, args.seed)]
    ready = time.monotonic()
    setup_speed = calibrate.speed("python", START_SAMPLE, calibrate.sample("python"))[0]

    tracer = tracing.Tracer().install() if args.trace else None
    wall, cpu, records = run_pass(prepared, tracer, workloads.CALIBRATION[args.workload])
    if tracer is not None:
        tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    with open(args.refs_file, "rb") as fh:
        expected = pickle.load(fh)  # written by this program's --refs process
    check_records(prepared, records, expected["ops"])
    report = {
        "ready": ready,
        "start_sample_s": START_SAMPLE[0],
        "setup_speed": setup_speed,
        "wall": wall,
        "cpu": cpu,
        "peak_rss_mb": peak_rss_mb,
        "ops": records,
        "probes": run_probes(args.workload, expected["probes"]) if args.probes else None,
    }
    if tracer is not None:
        layers = tracer.layer_metrics([r["units"] for r in records])
        report["layers"] = {k: (v, tracing.METRICS[k][0]) for k, v in layers.items()}
        report["unmeasured"] = tracer.unmeasured()
        report["spans"] = [s.as_dict() for s in tracer.spans]
    return report


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--refs", action="store_true", help="compute the references instead of a pass")
    ap.add_argument("--refs-file", required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probes", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    if args.refs:
        report = compute_refs(args.workload, args.seed, args.refs_file)
    else:
        report = one_pass(args)
    with open(args.out, "wb") as fh:
        pickle.dump(report, fh)


if __name__ == "__main__":
    main()
