"""Reports stay those of the pinned reference implementations.

`tests/data/<key>.check-all.json` and `<key>.classify.json` were written by
a per-pair loop implementation of the checks, and `<key>.validate.json` by
the hand-written axiom validation that the check registry replaced.  The
three `scaled-n3-s2` files (the structure whose quasi, contact and Killing
gates fail, so most of its gated checks skip) were written by the check
registry itself.  `flat-const.classify.json`, `scaled-n1-s2.classify.json`
and `scaled-n3-s2.classify.json` were written again by `wqcm classify` when
the normal, Sasakian, nearly Sasakian, Killing and K-contact rows came to
read the relative checks of the theorem rows (`normal`, `sasakian-eq17`,
`killing-xi`) instead of absolute copies (a failing absolute residual was
twice the relative one on these charts).  All come from

    wqcm check all builtin:<source> --points 8 --seed 7 --format json --no-timestamp
    wqcm classify  builtin:<source> --points 8 --seed 7 --format json --no-timestamp
    wqcm validate  builtin:<source> --points 8 --seed 7 --format json --no-timestamp

`scaled-n1-s2-tol6.check-all.json`, a report whose quasi gate passes at 2
of 32 points, was written by the evaluator that built one state per point,
before the checks ran over blocks of points.

Ids, labels, verdicts and point counts must match exactly; residuals may
differ only by summation order.
"""

import dataclasses
import functools
import gc
import io
import json
import math
import weakref
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wqcm import geometry, suites
from wqcm.catalog import catalog, document
from wqcm.cli import run_cli
from wqcm.exprdsl import load_structure_def
from wqcm.structure import PointState, WeakACM
from wqcm.suites import SamplePlan, run_suite

DATA = Path(__file__).parent / "data"
SOURCES = {
    "sasakian-r3": "sasakian-r3",
    "sasakian-r5": "sasakian-r5",
    "sasakian-r7": "sasakian-r7",
    "scaled-n1-s2": "scaled?n=1,s=2",
    "scaled-n3-s2": "scaled?n=3,s=2",
    "flat-const": "flat-const",
}


def signature(doc):
    head = (doc["suite"], doc["structure"], doc["seed"], doc["tol"])
    rows = [(c["id"], c["paper"], c["tol"], c["verdict"], c["points"]) for c in doc["checks"]]
    return head, rows


def assert_same_report(got, expected):
    assert signature(got) == signature(expected)
    for new, old in zip(got["checks"], expected["checks"]):
        assert abs(new["max_residual"] - old["max_residual"]) <= 1e-12, new["id"]


def report(argv):
    out = io.StringIO()
    run_cli(argv + ["--format", "json", "--no-timestamp"], stdout=out)
    return json.loads(out.getvalue())


@pytest.mark.parametrize("command", ["check-all", "classify", "validate"])
@pytest.mark.parametrize("key", sorted(SOURCES))
def test_report_matches_loop_implementation(key, command):
    expected = json.loads((DATA / f"{key}.{command}.json").read_text())
    got = report(command.split("-") + [f"builtin:{SOURCES[key]}", "--points", "8", "--seed", "7"])
    assert_same_report(got, expected)


@pytest.mark.parametrize("command", ["check all", "classify", "validate"])
def test_padded_chart_reports_as_its_builtin(command):
    """`sasakian-r3-padded.json` is sasakian-r3 with each nonzero cell
    multiplied by two seeded factors sin(a*v + b)^2 + cos(a*v + b)^2 (v a
    coordinate), which equal 1: its reports assert the same checks with the
    same verdicts at the same points."""

    def rows(source):
        got = report(command.split() + [source, "--points", "40", "--seed", "7"])
        return [(c["id"], c["verdict"], c["points"]) for c in got["checks"]]

    assert rows(str(DATA / "sasakian-r3-padded.json")) == rows("builtin:sasakian-r3")


# the quasi hypothesis of scaled n=1, s=2 is 4.7 to 8.0 at these 32 points,
# so with --tol-deriv 6 it passes at 2 of them
MIXED = ["check", "all", "builtin:scaled?n=1,s=2", "--points", "32", "--seed", "7", "--tol-deriv", "6"]


def test_mixed_gate_report_matches_pinned():
    """Written before the checks ran over blocks of points, by the
    one-point-at-a-time evaluator; every quasi-gated row is asserted at 2
    points."""
    expected = json.loads((DATA / "scaled-n1-s2-tol6.check-all.json").read_text())
    assert_same_report(report(MIXED), expected)
    gated = [c for c in expected["checks"] if c["id"] in suites.CHECKS and suites.CHECKS[c["id"]].gate == "quasi"]
    assert len(gated) == 14 and all(c["points"] == 2 for c in gated)


def test_a_gated_check_sees_only_the_points_that_pass_its_gate(monkeypatch):
    acm = WeakACM(catalog("scaled", n=1, s=2.0))
    points = suites.sample_points(SamplePlan(count=32, seed=7), acm.sdef.domain)
    quasi = [suites.CHECKS["quasi"].residual(acm.at(p)).item() for p in points]
    gated_in = [p for p, q in zip(points, quasi) if q <= 6.0]
    assert len(gated_in) == 2 and min(quasi) > 1e-9
    seen = []
    check = suites.CHECKS["lemma21-10"]

    def spy(st):
        seen.append(st.points.copy())
        return check.residual(st)

    monkeypatch.setitem(suites.CHECKS, "lemma21-10", dataclasses.replace(check, residual=spy))
    rows = {c["id"]: c for c in report(MIXED)["checks"]}
    assert rows["lemma21-10"]["points"] == 2
    assert len(seen) == 1 and np.array_equal(seen[0], gated_in)


def test_run_all_builds_curvature_and_f_basis_once_per_block(monkeypatch):
    calls = Counter()

    def count(module, name):
        original = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    count(geometry, "christoffel")
    count(geometry, "riemann")
    count(np.linalg, "eigh")  # 2n = 2 eigensolves per f-basis, and no other caller
    run_suite(WeakACM(catalog("sasakian-r3")), "all", SamplePlan(count=suites.BLOCK + 8, seed=7))
    assert calls["christoffel"] == 2 and calls["riemann"] == 2  # two blocks
    assert 0 < calls["eigh"] <= 2 * 2


def record_states_and_blocks(monkeypatch):
    """Weak references to every `PointState` built and to every field array
    of the tape, and the (points, jet order) of each run of the tape; running
    the tape over a chunk asserts that no earlier chunk is alive, a chunk
    whose run of the tape raised included."""
    states, arrays, chunks = [], [], []
    init, eval_tape = PointState.__init__, suites.eval_tape

    def recorded_init(self, *args):
        init(self, *args)
        states.append(weakref.ref(self))

    def record(fields):
        arrays.extend(weakref.ref(a) for jets in fields.values() for a in jets if a is not None)

    def recorded_tape(tape, points, order):
        # without a garbage collection: nothing but a reference holds a chunk
        assert not [ref for ref in arrays if ref() is not None]
        chunks.append((len(points), order))
        try:
            fields = eval_tape(tape, points, order)
        except (ValueError, ArithmeticError) as exc:
            # the field arrays of a run that raised, as its frame holds them
            record(exc.__traceback__.tb_next.tb_frame.f_locals["fields"])
            raise
        record(fields)
        return fields

    monkeypatch.setattr(PointState, "__init__", recorded_init)
    monkeypatch.setattr(suites, "eval_tape", recorded_tape)
    return states, arrays, chunks


def test_one_state_per_block_and_none_outlives_run_suite(monkeypatch):
    states, arrays, chunks = record_states_and_blocks(monkeypatch)
    run_suite(WeakACM(catalog("sasakian-r3")), "all", SamplePlan(count=8, seed=7))
    gc.collect()
    assert chunks == [(8, 2)] and len(states) == 1
    assert len(arrays) == 9  # one block: v, dv, ddv of metric, f and xi
    assert states[0]() is None
    assert not [ref for ref in arrays if ref() is not None]


def test_no_sub_state_outlives_run_suite(monkeypatch):
    states, arrays, _ = record_states_and_blocks(monkeypatch)
    assert report(MIXED)["checks"]
    gc.collect()
    # the block, and the 2 points where quasi holds and the 2 where the eq21
    # hypothesis holds (nabla-xi-f holds everywhere: its checks take the block)
    assert len(states) == 3 and [ref() for ref in states] == [None] * 3
    assert not [ref for ref in arrays if ref() is not None]


@pytest.mark.parametrize("suite, count, chunks, arrays_per_chunk", [
    # jets of order 1 over chunks of 4 blocks: v and dv of metric, f and xi
    ("validate", 2 * 4 * suites.BLOCK + 1, [(4 * suites.BLOCK, 1)] * 2 + [(1, 1)], 6),
    # the curvature rows need order 2, over chunks of one block: v, dv and ddv
    ("curvature", 2 * suites.BLOCK + 1, [(suites.BLOCK, 2)] * 2 + [(1, 2)], 9),
])
def test_one_block_of_field_arrays_alive_at_a_time(monkeypatch, suite, count, chunks, arrays_per_chunk):
    """One chunk of tape arrays alive at a time, and one state per block of
    `suites.BLOCK` points (every gate of sasakian-r3 passes everywhere)."""
    states, arrays, seen = record_states_and_blocks(monkeypatch)
    run_suite(WeakACM(catalog("sasakian-r3")), suite, SamplePlan(count=count, seed=7))
    assert seen == chunks
    assert len(states) == -(-count // suites.BLOCK) and len(arrays) == len(chunks) * arrays_per_chunk
    assert not [ref for ref in arrays if ref() is not None]


# lanes 0-31 pass, 32-63 and 32-47 fail, 32-39 pass, and 40-47, 40-43, 40-41
# and 40 fail
HALVES_TO_LANE_40 = [32, 32, 16, 8, 8, 4, 2, 1]


@pytest.mark.parametrize("suite, chunks, arrays_per_chunk", [
    # the one 64-point chunk of order 1 fails, then its halves are searched
    ("validate", [(64, 1)] + [(size, 1) for size in HALVES_TO_LANE_40], 6),
    # 32-point chunks of order 2: lanes 0-31 are the first chunk
    ("all", [(size, 2) for size in HALVES_TO_LANE_40], 9),
])
@pytest.mark.parametrize("cell, message", [
    ("(x - ({x}))^2", "metric is not positive definite"),
    ("(x - ({x}))^-2", "negative power of zero jet value"),
], ids=["in-the-states", "in-the-tape"])
def test_no_array_of_a_failed_chunk_outlives_its_failure(monkeypatch, suite, chunks, arrays_per_chunk, cell, message):
    """g_11 fails at lane 40 alone, in the states or in the tape.  The chunk
    that holds it is searched by halves, and no array of a run that failed
    is alive when the next run of the tape starts."""
    points = suites.sample_points(SamplePlan(count=64, seed=7), document("flat-const")["domain"])
    doc = document("flat-const")
    doc["metric"][0][0] = cell.format(x=repr(float(points[40][0])))
    acm = WeakACM(load_structure_def(doc))
    _, arrays, seen = record_states_and_blocks(monkeypatch)
    with pytest.raises(suites.EvaluationError) as error:
        suites.evaluate(acm, suite, points, 7)
    assert str(error.value) == f"at sample point {points[40].tolist()}: {message}"
    # the arrays of every run of the tape were recorded, the failed ones too
    assert seen == chunks and len(arrays) == len(chunks) * arrays_per_chunk


def test_a_failed_chunk_is_searched_in_logarithmically_many_runs(monkeypatch):
    """A 128-point chunk of order 1 that fails at lane 127 alone runs the
    tape at most 2 * log2(128) + 1 = 15 times: the chunk, then two halves
    per level (one passes, one fails) down to the one point."""
    points = suites.sample_points(SamplePlan(count=128, seed=7), document("flat-const")["domain"])
    doc = document("flat-const")
    doc["metric"][0][0] = f"1 + 0 * (x - ({float(points[127][0])!r}))^-2"
    acm = WeakACM(load_structure_def(doc))
    _, _, seen = record_states_and_blocks(monkeypatch)
    with pytest.raises(suites.EvaluationError) as error:
        suites.evaluate(acm, "validate", points, 7)
    assert str(error.value) == f"at sample point {points[127].tolist()}: negative power of zero jet value"
    assert seen[0] == (128, 1) and len(seen) <= 2 * math.ceil(math.log2(128)) + 1


STRUCTURES = [("sasakian-r3", {}), ("sasakian-r5", {}), ("sasakian-r7", {}),
              ("scaled", {"n": 1, "s": 2.0}), ("scaled", {"n": 3, "s": 2.0}), ("flat-const", {})]


@functools.cache
def structure(index):
    key, params = STRUCTURES[index]
    return WeakACM(catalog(key, **params))


# the checks that read no second derivative, and their hypotheses
FIRST_ORDER = suites._with_hypotheses(cid for cid, c in suites.CHECKS.items() if c.tier != "curv")


def tolerance(tol_deriv):
    tolerances = suites.Tolerances(deriv=tol_deriv)
    return lambda cid: getattr(tolerances, suites.CHECKS[cid].tier)


def block_states(acm, points, seed, jet_order):
    """The states of `suites.evaluate`: the tape over chunks of one block at
    jet order 2 and of four at order 1, one state per block of a chunk."""
    step = suites.BLOCK if jet_order == 2 else 4 * suites.BLOCK
    for start in range(0, len(points), step):
        chunk = points[start : start + step]
        fields = suites.eval_tape(acm.sdef.tape, chunk, jet_order)
        for lo in range(0, len(chunk), suites.BLOCK):
            yield PointState(acm.sdef, chunk, seed, fields, slice(lo, lo + suites.BLOCK))


@settings(max_examples=24, deadline=None)
@given(
    index=st.sampled_from(range(len(STRUCTURES))),
    count=st.sampled_from([1, 31, 33, 70, 130]),
    seed=st.integers(0, 1000),
    tol_deriv=st.sampled_from([1e-9, 6.0]),
    jet_order=st.sampled_from([1, 2]),
)
def test_block_evaluation_equals_one_point_at_a_time(index, count, seed, tol_deriv, jet_order):
    """Every check of the registry (at jet order 1, every check that is not
    of the curvature tier), over the blocks of `suites.evaluate` and over
    each point as its own state of one from jets of order 2: the same points
    asserted, and residuals within 1e-12 (NaN where NaN).  A quasi tolerance
    of 6 gates some points of scaled n=1 in and others out."""
    acm = structure(index)
    tol = tolerance(tol_deriv)
    assert sorted(suites._with_hypotheses(suites.CHECKS)) == sorted(suites.CHECKS)
    order = suites._with_hypotheses(suites.CHECKS) if jet_order == 2 else FIRST_ORDER
    points = np.array(suites.sample_points(SamplePlan(count=count, seed=seed), acm.sdef.domain))
    blocks = [suites._residuals(state, order, tol) for state in block_states(acm, points, seed, jet_order)]
    singles = [suites._residuals(acm.at(p, seed), order, tol) for p in points]
    for cid in order:
        value = np.concatenate([b[cid][0] for b in blocks])
        on = np.concatenate([b[cid][1] for b in blocks])
        assert np.array_equal(on, [s[cid][1][0] for s in singles]), cid
        one = np.array([s[cid][0][0] for s in singles])
        assert np.array_equal(np.isnan(value[on]), np.isnan(one[on])), cid
        assert np.nanmax(np.abs(value[on] - one[on]), initial=0.0) <= 1e-12, cid


@pytest.mark.parametrize("tol_deriv", [1e-9, 6.0])
@pytest.mark.parametrize("index", range(len(STRUCTURES)), ids=[f"{k}{p or ''}" for k, p in STRUCTURES])
def test_checks_below_the_curvature_tier_read_no_second_derivative(index, tol_deriv):
    """On states of the same points from jets of order 1 and of order 2,
    every check that is not of the curvature tier, and every hypothesis it
    needs, gives the same bits and is asserted at the same points; so
    `suites.evaluate` may run the tape at order 1 when no curvature row is
    needed.  What reads a Hessian raises on an order-1 state."""
    acm, tol = structure(index), tolerance(tol_deriv)
    assert all(suites.CHECKS[cid].tier != "curv" for cid in FIRST_ORDER)
    points = np.array(suites.sample_points(SamplePlan(count=suites.BLOCK, seed=7), acm.sdef.domain))
    (first,), (second,) = (list(block_states(acm, points, 7, jet_order)) for jet_order in (1, 2))
    assert first.ddg is None and first.ddf is None and first.ddxi is None
    one, two = suites._residuals(first, FIRST_ORDER, tol), suites._residuals(second, FIRST_ORDER, tol)
    for cid in FIRST_ORDER:
        assert np.array_equal(one[cid][0], two[cid][0], equal_nan=True), cid
        assert np.array_equal(one[cid][1], two[cid][1]), cid
    with pytest.raises(AttributeError):
        first.dh
    with pytest.raises(TypeError):
        first.curvature_xi


@pytest.mark.parametrize("suite, jet_order", [
    ("validate", 1), ("classify", 1), ("identity", 1), ("curvature", 2), ("theorems", 2), ("all", 2),
])
def test_the_jet_order_is_that_of_the_checks_run(monkeypatch, suite, jet_order):
    """Second derivatives only for a suite that runs a curvature-tier check."""
    _, _, chunks = record_states_and_blocks(monkeypatch)
    run_suite(structure(0), suite, SamplePlan(count=8, seed=7))
    assert chunks == [(8, jet_order)]


@functools.cache
def single_point_reports(index, suite):
    """The reports of `suite` on each of the first 300 sample points alone
    (seed 7): one state of one point per report."""
    acm = structure(index)
    points = suites.sample_points(SamplePlan(count=300, seed=7), acm.sdef.domain)
    return [suites.evaluate(acm, suite, [p], 7) for p in points]


def combined(reports):
    """The rows of one report over all points from the reports of each point
    alone: the largest residual (NaN first), the points summed, and a pass
    only where every point passes."""
    rows = []
    for cs in zip(*(r.checks for r in reports)):
        res = [c.max_residual for c in cs]
        worst = next((x for x in res if math.isnan(x)), max(res))
        verdicts = {c.verdict for c in cs} - {"skipped"}
        verdict = "skipped" if not verdicts else "fail" if "fail" in verdicts else "pass"
        points = len(cs) if cs[0].paper == "class" else sum(c.points for c in cs)
        rows.append(dict(dataclasses.asdict(cs[0]), max_residual=worst, verdict=verdict, points=points))
    return rows


@pytest.mark.parametrize("count", [1, 127, 128, 129, 300])
@pytest.mark.parametrize("suite", ["validate", "classify"])
@pytest.mark.parametrize("index", [0, 3], ids=["sasakian-r3", "scaled-n1-s2"])
def test_chunk_boundaries_equal_one_point_at_a_time(index, suite, count):
    """Reports over first-order chunks of 4 blocks, whole and partial, equal
    the reports of each point alone put together."""
    acm = structure(index)
    got = run_suite(acm, suite, SamplePlan(count=count, seed=7))
    want = combined(single_point_reports(index, suite)[:count])
    assert_same_report(dataclasses.asdict(got), dict(dataclasses.asdict(got), checks=want))


@pytest.mark.parametrize("tol_deriv", [1e-9, 6.0])
@pytest.mark.parametrize("suite", ["all", "classify", "validate"])
@pytest.mark.parametrize("index", range(len(STRUCTURES)), ids=[f"{k}{p or ''}" for k, p in STRUCTURES])
def test_a_clean_run_evaluates_each_block_once(monkeypatch, index, suite, tol_deriv):
    """A chunk where nothing fails is never searched by halves, so an error
    in the batched checks themselves cannot hide behind that slower path."""
    sizes = []
    residuals = suites._residuals

    def counted(st, *args):
        sizes.append(len(st.points))
        return residuals(st, *args)

    monkeypatch.setattr(suites, "_residuals", counted)
    plan = SamplePlan(count=suites.BLOCK + 8, seed=7)
    run_suite(structure(index), suite, plan, suites.Tolerances(deriv=tol_deriv))
    assert sizes == [suites.BLOCK, 8]
