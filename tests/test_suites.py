import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as hs

from conftest import points_for, state_at
from wqcm import catalog, suites
from wqcm.catalog import document
from wqcm.exprdsl import eval_tape, load_structure_def
from wqcm.geometry import mT
from wqcm.structure import PointState
from wqcm.suites import (
    CheckRecord,
    CheckReport,
    Tolerances,
    emit_report,
    evaluate,
    sample_points,
)

DOMAIN3 = [(-1.0, 1.0)] * 3


def test_sample_points_deterministic_and_in_margin():
    for dim in (3, 11):
        domain = [(-1.0, 1.0)] * dim
        a = sample_points(8, 7, domain)
        b = sample_points(8, 7, domain)
        assert a.shape == (8, dim)
        for u, v in zip(a, b):
            assert np.array_equal(u, v)
        for p in a:
            assert p.shape == (dim,) and np.all(p >= -0.95) and np.all(p <= 0.95)
        # a different seed shifts the halton stream
        c = sample_points(8, 11, domain)
        assert any(not np.array_equal(u, v) for u, v in zip(a, c))
    # the first coordinates keep their bases as coordinates are added; the
    # eleventh has base 31, so the first point (index seed + 1 = 8) sits at 8/31
    assert np.array_equal(np.array(a)[:, :3], np.array(sample_points(8, 7, DOMAIN3)))
    assert a[0][10] == pytest.approx(-0.95 + 1.9 * 8 / 31, abs=1e-15)


@hs.composite
def intervals(draw):
    """A domain interval the loader accepts: finite bounds, lo < hi and a
    finite width, from one ulp wide to bounds near the largest float."""
    lo = draw(hs.floats(-math.inf, math.inf, allow_nan=False, allow_infinity=False))
    if draw(hs.booleans()):
        hi = lo
        for _ in range(draw(hs.integers(1, 3))):
            hi = math.nextafter(hi, math.inf)
    else:
        hi = lo + draw(hs.floats(0.0, math.inf, allow_infinity=False, exclude_min=True))
    assume(lo < hi < math.inf and math.isfinite(hi - lo))
    return [lo, hi]


@settings(max_examples=300, deadline=None)
@given(box=hs.lists(intervals(), min_size=3, max_size=3), count=hs.integers(1, 40), seed=hs.integers(0, 10**6))
def test_sample_points_lie_in_every_box_the_loader_accepts(box, count, seed):
    """`evaluate` checks no point against the domain: every box comes from
    the loader, and the sample points of any such box lie in it."""
    sdef = load_structure_def({**document("flat-const"), "domain": box})
    points = sample_points(count, seed, sdef.domain)
    assert sdef.contains(points).all(), points[~sdef.contains(points)].tolist()


@settings(max_examples=40, deadline=None)
@given(box=hs.lists(intervals(), min_size=1, max_size=11), count=hs.integers(1, 40), seed=hs.integers(0, 10**9))
def test_point_i_of_a_seed_is_point_0_of_the_seed_plus_i(box, count, seed):
    """Point i of (count, seed) and point 0 of (1, seed + i) have the same
    Halton index, seed + 1 + i, and the same bits."""
    points = sample_points(count, seed, box)
    singles = np.concatenate([sample_points(1, seed + i, box) for i in range(count)])
    assert points.tobytes() == singles.tobytes()


def test_identity_suite_all_pass_on_sasakian(sasakian_r3):
    report = evaluate(sasakian_r3, "identity", 8, 7)
    assert not report.failed
    assert all(c.verdict == "pass" for c in report.checks)
    ids = {c.id for c in report.checks}
    assert {"axiom-f-square", "lemma21-5", "eq13-h", "eq16-h-n2"} <= ids


def test_identity_suite_gates_on_scaled(scaled2):
    report = evaluate(scaled2, "identity", 8, 7)
    assert not report.failed
    by_id = {c.id: c for c in report.checks}
    for cid in ("lemma21-5", "lemma21-10", "eq13-h"):
        assert by_id[cid].verdict == "skipped"
        assert by_id[cid].points == 0
    assert by_id["axiom-f-square"].verdict == "pass"


def test_curvature_suite(sasakian_r3, scaled2):
    good = evaluate(sasakian_r3, "curvature", 8, 7)
    assert all(c.verdict == "pass" for c in good.checks)
    gated = evaluate(scaled2, "curvature", 8, 7)
    assert all(c.verdict == "skipped" for c in gated.checks)
    assert not gated.failed


def test_theorem_suite_gating(sasakian_r3, scaled2, flat_const):
    assert not evaluate(sasakian_r3, "theorems", 8, 7).failed
    for sdef in (scaled2, flat_const):
        report = evaluate(sdef, "theorems", 8, 7)
        assert not report.failed  # unmet hypotheses skip, never fail
        by_id = {c.id: c for c in report.checks}
        for prefix in ("t31", "t33", "t34", "t35"):
            assert by_id[f"{prefix}-hyp-quasi"].verdict == "skipped"
            assert by_id[f"{prefix}-Qt-zero"].verdict == "skipped"


def test_run_all_concatenates(sasakian_r3):
    combined = evaluate(sasakian_r3, "all", 8, 7)
    parts = (
        evaluate(sasakian_r3, "identity", 8, 7).checks
        + evaluate(sasakian_r3, "curvature", 8, 7).checks
        + evaluate(sasakian_r3, "theorems", 8, 7).checks
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
    report = evaluate(sasakian_r3, "identity", 8, 7)
    doc = json.loads(emit_report(report, "json"))
    assert set(doc) == {"suite", "structure", "seed", "tol", "checks"}
    assert doc["structure"] == "sasakian-r3"
    for entry in doc["checks"]:
        assert set(entry) == {"id", "paper", "max_residual", "tol", "verdict", "points"}
        assert entry["verdict"] in ("pass", "fail", "skipped")


def test_emit_report_deterministic(scaled2):
    a = emit_report(evaluate(scaled2, "all", 8, 7), "json")
    b = emit_report(evaluate(scaled2, "all", 8, 7), "json")
    assert a == b


def test_emit_report_timestamp_and_formats(sasakian_r3):
    report = evaluate(sasakian_r3, "identity", 8, 7)
    report.timestamp = "2026-01-01T00:00:00+00:00"
    doc = json.loads(emit_report(report, "json"))
    assert "timestamp" in doc
    text = emit_report(report, "text").decode()
    assert "sasakian-r3" in text and "verdict" in text
    with pytest.raises(ValueError):
        emit_report(report, "yaml")


def test_report_from_axioms(sasakian_r3):
    report = evaluate(sasakian_r3, "validate", 8, 7)
    assert not report.failed
    ids = {c.id for c in report.checks}
    assert "Q-positive-definite" in ids and "f-rank" in ids


def test_report_from_classification(scaled2):
    report = evaluate(scaled2, "classify", 8, 7)
    by_id = {c.id: c for c in report.checks}
    assert by_id["quasi-canonical-direction"].max_residual == pytest.approx(8.0, abs=1e-6)
    assert by_id["contact-metric"].verdict == "fail"


# -- residuals are read as sizes ----------------------------------------------------------


def _sizes_and_rows(st, part):
    """The sizes of the checks `part` needs on `st`, and its report rows by id,
    folded over the points as `evaluate` folds them."""
    order = suites._with_hypotheses(suites._inputs(part))

    def tol(cid):
        return getattr(Tolerances(), suites.CHECKS[cid].tier)

    out = suites._residuals(st, order, tol)
    worst = {cid: float(value.max()) for cid, (value, _) in out.items()}
    count = {cid: int(np.count_nonzero(on)) for cid, (_, on) in out.items()}
    rows = suites._rows(part, worst, count, len(st.points), tol)
    return {cid: value for cid, (value, _) in out.items()}, {r.id: r for r in rows}


POINT = [0.15, -0.4, 0.3]


def _with_infinite_sectional(st):
    """`st` with K(xi, .) = +inf in the first direction that `_eq21_hypothesis` keeps."""
    _, keep = suites._ker_eta_dirs(st)
    column = int(np.argmax(keep[0]))
    assert keep[0, column]
    sectional = st.sectional

    def infinite_in_one_column(y):
        k = sectional(y).copy()
        k[:, column] = np.inf
        return k

    st.__dict__["sectional"] = infinite_in_one_column


@pytest.mark.parametrize("inject, part, check, row", [
    # 1e-6 - contact volume is -inf: a fold that clamps reads it as 0.0
    (lambda st: st.__dict__.update(contact_volume=np.array([np.inf])), "theorems", "contact-volume",
     "p34-contact-volume"),
    # rhs - lhs of (21) is -inf against a scale of +inf: NaN, where a clamp at 0 read 0.0
    (lambda st: st.__dict__.update(ric_xi_xi=np.array([np.inf])), "curvature", "eq21", "eq21"),
    # the largest of -K over the kept directions dropped a -inf column
    (_with_infinite_sectional, "curvature", "eq21-hypothesis", "eq21"),
], ids=["contact-volume", "ric-xi-xi", "sectional"])
def test_an_injected_infinity_fails_closed(sasakian_r3, inject, part, check, row):
    st = state_at(sasakian_r3, POINT)
    _, rows = _sizes_and_rows(st, part)
    assert rows[row].verdict == "pass"  # the clean state passes
    st = state_at(sasakian_r3, POINT)
    inject(st)
    with np.errstate(all="ignore"):  # as `run_cli` evaluates: the verdicts judge inf and NaN
        sizes, rows = _sizes_and_rows(st, part)
    assert not np.isfinite(sizes[check]).any(), sizes[check]
    assert not math.isfinite(rows[row].max_residual)
    assert (rows[row].verdict, rows[row].points) == ("fail", 1)


def test_a_negative_residual_reads_zero_and_minus_inf_reads_inf(sasakian_r3, monkeypatch):
    """The size of a raw residual: -2 and -0.0 read +0.0, -inf reads +inf, NaN and +inf stay."""
    raw = np.array([-2.0, -0.0, 3.0, -np.inf, np.nan, np.inf])
    check = suites.CHECKS["Qt-zero"]
    monkeypatch.setitem(suites.CHECKS, "Qt-zero", check._replace(residual=lambda st: raw))
    points = points_for(sasakian_r3, len(raw))
    st = PointState(points, eval_tape(sasakian_r3.tape, points, 1))
    value, on = suites._residuals(st, ["Qt-zero"], lambda cid: 1e-9)["Qt-zero"]
    assert on.all()
    assert value.tobytes() == np.array([0.0, 0.0, 3.0, np.inf, np.nan, np.inf]).tobytes()


# A weak a.c.m. structure on which N^(2) and h are far from 0: the frame of
# H^5 (`catalog._sasakian_doc`, n = 2), G = id/4, xi = 2 E_z and
# F = 4 S exp(z) for a generic skew S on (x1, x2, y1, y2).  G F is skew and
# F xi = 0, so f is g-skew with f xi = 0; since xi = 2 d/dz and the frame does
# not depend on z, h = (1/2) L_xi f = f, so h* = -h.
_GENERIC_S = [[0, 1, 0.3, -0.7], [-1, 0, 0.5, 0.2], [-0.3, -0.5, 0, 1], [0.7, -0.2, -1, 0]]


def _generic_h5_doc() -> dict:
    coframe, frame = catalog._identity(5), catalog._identity(5)
    coframe[4][:2] = ["-y1", "-y2"]  # theta^z = dz - y1 dx1 - y2 dx2
    frame[4][:2] = ["y1", "y2"]  # E_{x_i} = d/dx_i + y_i d/dz
    F = [[f"({4.0 * s!r})*exp(z)" if s else "0" for s in row] + ["0"] for row in _GENERIC_S] + [["0"] * 5]
    coords, xi = ["x1", "x2", "y1", "y2", "z"], ["0"] * 4 + ["2"]
    return catalog._frame_doc("generic-h5", coords, coframe, frame, catalog._identity(5, "1/4"), F, xi)


@pytest.fixture(scope="module")
def generic_h5():
    sdef = load_structure_def(_generic_h5_doc())
    points = points_for(sdef, 8, 7)
    return sdef, PointState(points, eval_tape(sdef.tape, points, 2))


def test_generic_h5_fixture_is_a_weak_acm_with_n2_and_h_nonzero(generic_h5):
    sdef, st = generic_h5
    assert not evaluate(sdef, "validate", 8, 7).failed
    d, _ = st.directions
    assert np.max(np.abs(st.n2(d, d))) > 1.0
    assert np.max(np.abs(st.h)) > 1.0


@pytest.mark.parametrize("cid", ["n2-nabla-eta", "h-skew-symmetric"])
def test_rows_that_hold_on_any_weak_acm_hold_on_the_generic_fixture(generic_h5, cid):
    """Row (4) and h = -h* hold at every point, with N^(2) and h far from 0."""
    _, st = generic_h5
    assert np.all(suites.CHECKS[cid].residual(st) <= 1e-12)


def test_gated_rows_read_their_formulas_ungated_on_the_generic_fixture(generic_h5):
    """(16), 2 h^2 = Qt^2 and h = h* do not hold here, since their hypotheses
    fail; their residuals, read ungated, are those built from g, h, N^(2) and Qt."""
    _, st = generic_h5
    d, _ = st.directions
    gh = st.g @ st.h
    lhs, rhs = mT(d) @ (gh - mT(gh)) @ d, -0.5 * st.n2(d, d)
    eq16 = (np.abs(lhs - rhs) / (1.0 + np.maximum(np.abs(lhs), np.abs(rhs)))).max(axis=(1, 2))
    h2, qt = st.h @ st.h, st.Qt
    size = np.abs(2.0 * h2 - qt @ qt).max(axis=(1, 2))
    h2_qt2 = size / (1.0 + np.maximum(np.abs(h2).max(axis=(1, 2)), np.abs(qt).max(axis=(1, 2))))
    h, h_star = st.h, np.linalg.inv(st.g) @ mT(st.h) @ st.g
    self_adjoint = np.abs(h - h_star).max(axis=(1, 2)) / (1.0 + np.abs(h).max(axis=(1, 2)))
    for cid, expected in (("eq16-h-n2", eq16), ("2h2-eq-Qt2", h2_qt2), ("h-self-adjoint", self_adjoint)):
        assert np.all(expected > 1.0)
        np.testing.assert_allclose(suites.CHECKS[cid].residual(st), expected, rtol=1e-12, atol=0)
