"""Tests of the benchmark itself (not part of the library's test suite).

    python3 -m pytest -q perfbench
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import calibrate  # noqa: E402
import pytest  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from motzeta.errors import FitFailed  # noqa: E402


def _checked_pass(ops, expected, prepared=None):
    prepared = prepared or [workloads.prepare(op) for op in ops]
    _, _, records = worker.run_pass(prepared)
    worker.check_records(prepared, records, expected)
    return run.evaluate([op.id for op in ops], [{"ops": records}])


def test_perturbed_reference_is_reported_wrong():
    ops = workloads.plan("twisted", 0)[:2]
    expected = [workloads.reference(op) for op in ops]
    assert _checked_pass(ops, expected) == (2, 0, {}, [])
    expected[1] = {(): expected[1][()] + 1}
    attempted, failed, _, mismatches = _checked_pass(ops, expected)
    assert (attempted, failed) == (2, 0)
    assert len(mismatches) == 1 and mismatches[0].startswith(ops[1].id)


def test_symbolic_reference_mismatch_is_reported():
    op = workloads.Op("v_hadamard", ((2, 3), (3, 2), 12))
    want = workloads.reference(op)
    assert _checked_pass([op], [want])[3] == []
    key = next(iter(want))
    want[key] = want[key] + want[key]
    assert len(_checked_pass([op], [want])[3]) == 1


def test_refusal_counts_as_failed_with_its_class():
    def refuse():
        raise FitFailed("no closed form")

    ops = [workloads.Op("zeta_trunc", ("x^2", 3, 5)), workloads.Op("refusing", ())]
    prepared = [workloads.prepare(ops[0]), workloads.Prepared(refuse)]
    expected = [workloads.reference(ops[0]), {}]
    attempted, failed, errors, mismatches = _checked_pass(ops, expected, prepared)
    assert (attempted, failed, mismatches) == (2, 1, [])
    assert errors == {ops[1].id: {"FitFailed"}}


def test_probe_outcomes():
    records = worker.run_probes("twisted", [workloads.reference(op) for op in workloads.probes("twisted")])
    assert [rec["error"] for rec in records] == ["ValueError"]
    solved = {"id": "p", "error": None, "mismatch": None}
    wrong = {"id": "w", "error": None, "mismatch": "(): got 0, expected 1"}
    assert run.evaluate_probes(records + [solved]) == (1, 1, [])
    assert run.evaluate_probes([wrong]) == (0, 0, ["probe w: (): got 0, expected 1"])


def test_times_are_scaled_by_the_bracketing_kernel_samples():
    ref = calibrate.KERNELS["python"][1]
    assert calibrate.speed("python", (ref, ref), (3 * ref, ref)) == pytest.approx((0.5, 1.0))
    prepared = [workloads.prepare(workloads.Op("zeta_trunc", ("x^2", 3, 5)))] * 2
    _, _, records = worker.run_pass(prepared, kernel="numpy")
    assert all(w > 0 and c > 0 for rec in records for w, c in [rec["speed"]])
    report = {"ops": records, "setup": 1.0, "peak_rss_mb": 1.0, "wall": 1.0, "cpu": 1.0}
    want = sum(rec["wall"] * rec["speed"][0] for rec in records)
    assert run.end_to_end([report])["wall_s"][0] == pytest.approx(want)


def test_missing_wrap_target_is_unmeasured():
    targets = [t for t in tracing.TARGETS if t[2] != "zeta.table"]
    targets.append(("motzeta.zeta", "NoSuchTable.__init__", "zeta.table"))
    tracer = tracing.Tracer(targets=targets).install()
    try:
        prepared = [workloads.prepare(workloads.Op("zeta_trunc", ("x^2+x^3", 3, 5)))]
        worker.run_pass(prepared, tracer)
    finally:
        tracer.uninstall()
    assert "motzeta.zeta.NoSuchTable.__init__" in tracer.missing
    unmeasured = tracer.unmeasured()
    assert set(unmeasured) == {"zeta.table_rows", "zeta.tables", "zeta.table_s", "zeta.route_hist"}
    assert "NoSuchTable" in unmeasured["zeta.table_rows"]
    layers = tracer.layer_metrics()
    assert layers["zeta.tables"] == 0 and layers["zeta.pipeline_self_s"] > 0


def test_traced_pass_counts_tables_and_restores_the_library():
    from motzeta import zeta

    original = zeta.JetTable.__init__
    tracer = tracing.Tracer().install()
    try:
        prepared = [workloads.prepare(workloads.Op("zeta_trunc", ("x^2+x^3", 3, 5)))]
        worker.run_pass(prepared, tracer)
    finally:
        tracer.uninstall()
    assert zeta.JetTable.__init__ is original
    layers = tracer.layer_metrics()
    assert layers["zeta.tables"] == 3
    assert layers["zeta.table_rows"] == 5 + 25 + 125
    assert layers["zeta.route_hist"] == 1 and layers["series.fit_attempts"] == 0
    assert tracer.unmeasured() == {}


def test_seeds_draw_same_shaped_plans():
    for name in workloads.WORKLOADS:
        canonical = workloads.plan(name, 0)
        for seed in (1, 2):
            plan = workloads.plan(name, seed)
            assert plan == workloads.plan(name, seed)
            assert [op.kind for op in plan] == [op.kind for op in canonical]
