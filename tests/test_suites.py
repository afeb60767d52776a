import json

import numpy as np
import pytest

from wqcm.suites import (
    CheckRecord,
    CheckReport,
    SamplePlan,
    emit_report,
    run_suite,
    sample_points,
)

DOMAIN3 = [(-1.0, 1.0)] * 3
PLAN = SamplePlan(count=8, seed=7)


def test_sample_points_deterministic_and_in_margin():
    for dim in (3, 11):
        domain = [(-1.0, 1.0)] * dim
        a = sample_points(PLAN, domain)
        b = sample_points(PLAN, domain)
        assert len(a) == 8
        for u, v in zip(a, b):
            assert np.array_equal(u, v)
        for p in a:
            assert p.shape == (dim,) and np.all(p >= -0.95) and np.all(p <= 0.95)
        # a different seed shifts the halton stream
        c = sample_points(SamplePlan(count=8, seed=11), domain)
        assert any(not np.array_equal(u, v) for u, v in zip(a, c))
    # the first coordinates keep their bases as coordinates are added; the
    # eleventh has base 31, so the first point (index seed + 1 = 8) sits at 8/31
    assert np.array_equal(np.array(a)[:, :3], np.array(sample_points(PLAN, DOMAIN3)))
    assert a[0][10] == pytest.approx(-0.95 + 1.9 * 8 / 31, abs=1e-15)


def test_sample_points_bad_inputs():
    with pytest.raises(ValueError):
        sample_points(PLAN, [(1.0, -1.0)])


def test_identity_suite_all_pass_on_sasakian(sasakian_r3):
    report = run_suite(sasakian_r3, "identity", PLAN)
    assert not report.failed
    assert all(c.verdict == "pass" for c in report.checks)
    ids = {c.id for c in report.checks}
    assert {"axiom-f-square", "lemma21-5", "eq13-h", "eq16-h-n2"} <= ids


def test_identity_suite_gates_on_scaled(scaled2):
    report = run_suite(scaled2, "identity", PLAN)
    assert not report.failed
    by_id = {c.id: c for c in report.checks}
    for cid in ("lemma21-5", "lemma21-10", "eq13-h"):
        assert by_id[cid].verdict == "skipped"
        assert by_id[cid].points == 0
    assert by_id["axiom-f-square"].verdict == "pass"


def test_curvature_suite(sasakian_r3, scaled2):
    good = run_suite(sasakian_r3, "curvature", PLAN)
    assert all(c.verdict == "pass" for c in good.checks)
    gated = run_suite(scaled2, "curvature", PLAN)
    assert all(c.verdict == "skipped" for c in gated.checks)
    assert not gated.failed


def test_theorem_suite_gating(sasakian_r3, scaled2, flat_const):
    assert not run_suite(sasakian_r3, "theorems", PLAN).failed
    for acm in (scaled2, flat_const):
        report = run_suite(acm, "theorems", PLAN)
        assert not report.failed  # unmet hypotheses skip, never fail
        by_id = {c.id: c for c in report.checks}
        for prefix in ("t31", "t33", "t34", "t35"):
            assert by_id[f"{prefix}-hyp-quasi"].verdict == "skipped"
            assert by_id[f"{prefix}-Qt-zero"].verdict == "skipped"


def test_run_all_concatenates(sasakian_r3):
    combined = run_suite(sasakian_r3, "all", PLAN)
    parts = (
        run_suite(sasakian_r3, "identity", PLAN).checks
        + run_suite(sasakian_r3, "curvature", PLAN).checks
        + run_suite(sasakian_r3, "theorems", PLAN).checks
    )
    assert [c.id for c in combined.checks] == [c.id for c in parts]
    assert combined.suite == "all"


def test_report_failed_ignores_skipped():
    report = CheckReport(suite="x", structure="y", seed=1, tol={})
    report.checks.append(CheckRecord("a", "lbl", 5.0, 1e-9, "skipped", 0))
    assert not report.failed
    report.checks.append(CheckRecord("b", "lbl", 5.0, 1e-9, "fail", 3))
    assert report.failed


def test_emit_report_json_schema(sasakian_r3):
    report = run_suite(sasakian_r3, "identity", PLAN)
    doc = json.loads(emit_report(report, "json"))
    assert set(doc) == {"suite", "structure", "seed", "tol", "checks"}
    assert doc["structure"] == "sasakian-r3"
    for entry in doc["checks"]:
        assert set(entry) == {"id", "paper", "max_residual", "tol", "verdict", "points"}
        assert entry["verdict"] in ("pass", "fail", "skipped")


def test_emit_report_deterministic(scaled2):
    a = emit_report(run_suite(scaled2, "all", PLAN), "json")
    b = emit_report(run_suite(scaled2, "all", PLAN), "json")
    assert a == b


def test_emit_report_timestamp_and_formats(sasakian_r3):
    report = run_suite(sasakian_r3, "identity", PLAN)
    report.timestamp = "2026-01-01T00:00:00+00:00"
    doc = json.loads(emit_report(report, "json"))
    assert "timestamp" in doc
    text = emit_report(report, "text").decode()
    assert "sasakian-r3" in text and "verdict" in text
    with pytest.raises(ValueError):
        emit_report(report, "yaml")


def test_report_from_axioms(sasakian_r3):
    report = run_suite(sasakian_r3, "validate", PLAN)
    assert not report.failed
    ids = {c.id for c in report.checks}
    assert "Q-positive-definite" in ids and "f-rank" in ids


def test_report_from_classification(scaled2):
    report = run_suite(scaled2, "classify", PLAN)
    by_id = {c.id: c for c in report.checks}
    assert by_id["quasi-canonical-direction"].max_residual == pytest.approx(8.0, abs=1e-6)
    assert by_id["contact-metric"].verdict == "fail"
