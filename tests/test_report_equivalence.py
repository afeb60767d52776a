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

`scaled-n1-s2-tol5.check-all.json`, a report whose quasi gate passes at 2
of 32 points, was written by `wqcm check all` with the fixed guard columns
of `PointState.directions` (the command is `MIXED` below).  The rows of
scaled n=1 and n=3 whose residual is above its tolerance were written again
then too; every other residual stayed within 1e-12 of its pin.

Ids, labels, verdicts and point counts must match exactly; residuals may
differ only by summation order.
"""

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

from conftest import sasakian_r3_edited, state_at
from test_perfbench_oracle import WORKLOADS
from wqcm import geometry, suites
from wqcm.catalog import catalog, document
from wqcm.cli import run_cli
from wqcm.exprdsl import load_structure_def
from wqcm.structure import PointState
from wqcm.suites import evaluate

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


@pytest.mark.parametrize("offset", range(1, 1000, 100))
@pytest.mark.parametrize("name", ["check-sasakian", "check-weak"])
def test_guard_columns_keep_the_benchmark_signature_across_seeds(name, offset):
    """The guard columns of `PointState.directions` are the same at every
    seed, while the seed picks the sample points and stays in the report:
    `check all` at the seeds offset, offset + 1000, ... of `SEED_RANGE`
    gives the (id, verdict, points) rows of `perfbench/expected.json` at
    each of them."""
    workload = WORKLOADS.WORKLOADS[name]
    expected = WORKLOADS.expected_signature(workload)
    source = workload.source(None)
    for seed in range(WORKLOADS.SEED_RANGE[0] + offset, WORKLOADS.SEED_RANGE[1], 1000):
        got = report(["check", "all", source, "--points", str(workload.points), "--seed", str(seed)])
        assert (got["seed"], WORKLOADS.signature(got)) == (seed, expected)


# the quasi hypothesis of scaled n=1, s=2 is 4.736 to 7.900 at these 32
# points, and its lowest three are 4.736, 4.921 and 5.030, so with
# --tol-deriv 5 it passes at 2 of them
MIXED = ["check", "all", "builtin:scaled?n=1,s=2", "--points", "32", "--seed", "7", "--tol-deriv", "5"]


def test_mixed_gate_report_matches_pinned():
    """Every quasi-gated row is asserted at 2 points, and eq14, eq15, eq22
    and eq21 fail there."""
    expected = json.loads((DATA / "scaled-n1-s2-tol5.check-all.json").read_text())
    assert_same_report(report(MIXED), expected)
    gated = [c for c in expected["checks"] if c["id"] in suites.CHECKS and suites.CHECKS[c["id"]].gate == "quasi"]
    assert len(gated) == 14 and all(c["points"] == 2 for c in gated)
    assert [c["id"] for c in expected["checks"] if c["verdict"] == "fail"] == ["eq14", "eq15", "eq22", "eq21"]


def test_a_gated_check_sees_only_the_points_that_pass_its_gate(monkeypatch):
    sdef = catalog("scaled", n=1, s=2.0)
    points = suites.sample_points(32, 7, sdef.domain)
    quasi = [suites.CHECKS["quasi"].residual(state_at(sdef, p)).item() for p in points]
    gated_in = [p for p, q in zip(points, quasi) if q <= 5.0]
    assert len(gated_in) == 2 and min(quasi) > 1e-9
    seen = []
    check = suites.CHECKS["lemma21-10"]

    def spy(st):
        seen.append(st.points.copy())
        return check.residual(st)

    monkeypatch.setitem(suites.CHECKS, "lemma21-10", check._replace(residual=spy))
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
    count(geometry, "curvature_z")
    count(np.linalg, "eigh")  # 2n = 2 eigensolves per f-basis, and no other caller
    evaluate(catalog("sasakian-r3"), "all", suites.BLOCK + 8, 7)
    assert calls["christoffel"] == 2 and calls["curvature_z"] == 2  # two blocks
    assert 0 < calls["eigh"] <= 2 * 2


# the jet orders of the fields of a run, by the highest tier of the checks it needs
CURV, DERIV, ALGEBRAIC = ({"metric": m, "f": o, "xi": o, "q": 0} for m, o in [(2, 2), (1, 1), (0, 1)])


def record_states_and_blocks(monkeypatch):
    """Weak references to every `PointState` built and to every field array
    of the tape, and the (points, field jet orders) of each run of the tape; running
    the tape over a chunk asserts that no earlier chunk is alive, a chunk
    whose run of the tape raised included."""
    states, arrays, chunks = [], [], []
    init, eval_tape = PointState.__init__, suites.eval_tape

    def recorded_init(self, *args):
        init(self, *args)
        states.append(weakref.ref(self))

    def record(fields):
        arrays.extend(weakref.ref(a) for jets in fields.values() for a in jets if a is not None)

    def recorded_tape(tape, points, order, slot_order=None):
        # without a garbage collection: nothing but a reference holds a chunk
        assert not [ref for ref in arrays if ref() is not None]
        chunks.append((len(points), order))
        try:
            fields = eval_tape(tape, points, order, slot_order)
        except (ValueError, ArithmeticError) as exc:
            # the field arrays of a run that raised, as its frame holds them
            record(exc.__traceback__.tb_next.tb_frame.f_locals["fields"])
            raise
        record(fields)
        return fields

    monkeypatch.setattr(PointState, "__init__", recorded_init)
    monkeypatch.setattr(suites, "eval_tape", recorded_tape)
    return states, arrays, chunks


def test_one_state_per_block_and_none_outlives_evaluate(monkeypatch):
    states, arrays, chunks = record_states_and_blocks(monkeypatch)
    evaluate(catalog("sasakian-r3"), "all", 8, 7)
    gc.collect()
    assert chunks == [(8, CURV)] and len(states) == 1
    assert len(arrays) == 9  # one block: v, dv, ddv of metric, f and xi
    assert states[0]() is None
    assert not [ref for ref in arrays if ref() is not None]


def test_no_sub_state_outlives_evaluate(monkeypatch):
    states, arrays, _ = record_states_and_blocks(monkeypatch)
    assert report(MIXED)["checks"]
    gc.collect()
    # the block, and the 2 points where quasi holds and the 2 where the eq21
    # hypothesis holds (nabla-xi-f holds everywhere: its checks take the block)
    assert len(states) == 3 and [ref() for ref in states] == [None] * 3
    assert not [ref for ref in arrays if ref() is not None]


@pytest.mark.parametrize("suite, count, chunks, block, arrays_per_chunk", [
    # the metric's values and the jets of order 1 of f and xi over chunks of
    # 8 blocks, each chunk one state: v of metric, v and dv of f and xi
    ("validate", 2 * 8 * suites.BLOCK + 1, [(8 * suites.BLOCK, ALGEBRAIC)] * 2 + [(1, ALGEBRAIC)],
     8 * suites.BLOCK, 5),
    # the curvature rows need order 2, over chunks of one block: v, dv and ddv
    ("curvature", 2 * suites.BLOCK + 1, [(suites.BLOCK, CURV)] * 2 + [(1, CURV)], suites.BLOCK, 9),
])
def test_one_block_of_field_arrays_alive_at_a_time(monkeypatch, suite, count, chunks, block, arrays_per_chunk):
    """One chunk of tape arrays alive at a time, and one state per block of
    `block` points (every gate of sasakian-r3 passes everywhere)."""
    states, arrays, seen = record_states_and_blocks(monkeypatch)
    evaluate(catalog("sasakian-r3"), suite, count, 7)
    assert seen == chunks
    assert len(states) == -(-count // block) and len(arrays) == len(chunks) * arrays_per_chunk
    assert not [ref for ref in arrays if ref() is not None]


# lanes 0-31 pass, 32-63 and 32-47 fail, 32-39 pass, and 40-47, 40-43, 40-41
# and 40 fail
HALVES_TO_LANE_40 = [32, 32, 16, 8, 8, 4, 2, 1]


@pytest.mark.parametrize("suite, chunks, arrays_per_chunk", [
    # the one 64-point chunk fails, then its halves are searched
    ("validate", [(64, ALGEBRAIC)] + [(size, ALGEBRAIC) for size in HALVES_TO_LANE_40], 5),
    # 32-point chunks of order 2: lanes 0-31 are the first chunk
    ("all", [(size, CURV) for size in HALVES_TO_LANE_40], 9),
])
@pytest.mark.parametrize("cell, message", [
    ("(x - ({x}))^2", "metric is not positive definite"),
    ("(x - ({x}))^-2", "negative power of zero jet value"),
], ids=["in-the-states", "in-the-tape"])
def test_no_array_of_a_failed_chunk_outlives_its_failure(monkeypatch, suite, chunks, arrays_per_chunk, cell, message):
    """g_11 fails at lane 40 alone, in the states or in the tape.  The chunk
    that holds it is searched by halves, and no array of a run that failed
    is alive when the next run of the tape starts."""
    points = suites.sample_points(64, 7, document("flat-const")["domain"])
    doc = document("flat-const")
    doc["metric"][0][0] = cell.format(x=repr(float(points[40][0])))
    sdef = load_structure_def(doc)
    _, arrays, seen = record_states_and_blocks(monkeypatch)
    with pytest.raises(suites.EvaluationError) as error:
        evaluate(sdef, suite, 64, 7)
    assert str(error.value) == f"at sample point {points[40].tolist()}: {message}"
    # the arrays of every run of the tape were recorded, the failed ones too
    assert seen == chunks and len(arrays) == len(chunks) * arrays_per_chunk


def test_a_failed_chunk_is_searched_in_logarithmically_many_runs(monkeypatch):
    """A 128-point chunk of `validate` that fails at lane 127 alone runs the
    tape at most 2 * log2(128) + 1 = 15 times: the chunk, then two halves
    per level (one passes, one fails) down to the one point."""
    points = suites.sample_points(128, 7, document("flat-const")["domain"])
    doc = document("flat-const")
    doc["metric"][0][0] = f"1 + 0 * (x - ({float(points[127][0])!r}))^-2"
    sdef = load_structure_def(doc)
    _, _, seen = record_states_and_blocks(monkeypatch)
    with pytest.raises(suites.EvaluationError) as error:
        evaluate(sdef, "validate", 128, 7)
    assert str(error.value) == f"at sample point {points[127].tolist()}: negative power of zero jet value"
    assert seen[0] == (128, ALGEBRAIC) and len(seen) <= 2 * math.ceil(math.log2(128)) + 1


# a state of `validate` spans its chunk, here all 40 points
@pytest.mark.parametrize("suite, cid, block", [("all", "n2-nabla-eta", suites.BLOCK), ("validate", "axiom-f-square", 40)])
def test_a_chunk_that_fails_only_whole_reports_its_halves(monkeypatch, suite, cid, block):
    """A residual that raises on every state of more than one point fails
    each chunk and passes at each point alone, so the chunks are split down
    to single points: the report put together from the halves equals the
    report of the unpatched blocks."""
    sdef = structure(3)  # scaled n=1
    want = evaluate(sdef, suite, 40, 7)
    check, raised = suites.CHECKS[cid], []

    def only_alone(st):
        if len(st.points) > 1:
            raised.append(len(st.points))
            raise ValueError("a state of more than one point")
        return check.residual(st)

    monkeypatch.setitem(suites.CHECKS, cid, check._replace(residual=only_alone))
    got = evaluate(sdef, suite, 40, 7)
    assert raised[0] == block
    assert_same_report(*(dict(vars(r), checks=[c._asdict() for c in r.checks]) for r in (got, want)))


STRUCTURES = [("sasakian-r3", {}), ("sasakian-r5", {}), ("sasakian-r7", {}),
              ("scaled", {"n": 1, "s": 2.0}), ("scaled", {"n": 3, "s": 2.0}), ("flat-const", {})]


@functools.cache
def structure(index):
    key, params = STRUCTURES[index]
    return catalog(key, **params)


# the checks that read no second derivative, and their hypotheses
FIRST_ORDER = suites._with_hypotheses(cid for cid, c in suites.CHECKS.items() if c.tier != "curv")


def tolerance(tol_deriv):
    tolerances = suites.Tolerances(deriv=tol_deriv)
    return lambda cid: getattr(tolerances, suites.CHECKS[cid].tier)


def block_states(sdef, points, tier):
    """The states of `suites.evaluate` for a run whose highest tier is
    `tier`: the tape over chunks of one block with every field at jet order 2
    (curv), of eight blocks at order 1 (deriv), and of eight blocks with the
    metric at order 0 (algebraic), one state per block of a chunk."""
    orders, step, block = suites.JETS[tier]
    for start in range(0, len(points), step):
        chunk = points[start : start + step]
        fields = suites.eval_tape(sdef.tape, chunk, orders)
        for lo in range(0, len(chunk), block):
            yield PointState(chunk, fields, slice(lo, lo + block))


@settings(max_examples=24, deadline=None)
@given(
    index=st.sampled_from(range(len(STRUCTURES))),
    count=st.sampled_from([1, 31, 33, 70, 130]),
    seed=st.integers(0, 1000),
    tol_deriv=st.sampled_from([1e-9, 6.0]),
    tier=st.sampled_from(["algebraic", "deriv", "curv"]),
)
def test_block_evaluation_equals_one_point_at_a_time(index, count, seed, tol_deriv, tier):
    """Every check of the registry (for a run of the derivative tier, every
    check that is not of the curvature tier; for one of the algebraic tier,
    the `validate` rows), over the blocks of `suites.evaluate` and over
    each point as its own state of one from jets of order 2: the same points
    asserted, and residuals within 1e-12 (NaN where NaN).  A quasi tolerance
    of 6 gates some points of scaled n=1 in and others out."""
    sdef = structure(index)
    tol = tolerance(tol_deriv)
    assert sorted(suites._with_hypotheses(suites.CHECKS)) == sorted(suites.CHECKS)
    order = {"curv": suites._with_hypotheses(suites.CHECKS), "deriv": FIRST_ORDER, "algebraic": suites.VALIDATE}[tier]
    points = np.array(suites.sample_points(count, seed, sdef.domain))
    blocks = [suites._residuals(state, order, tol) for state in block_states(sdef, points, tier)]
    singles = [suites._residuals(state_at(sdef, p), order, tol) for p in points]
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
    sdef, tol = structure(index), tolerance(tol_deriv)
    assert all(suites.CHECKS[cid].tier != "curv" for cid in FIRST_ORDER)
    points = np.array(suites.sample_points(suites.BLOCK, 7, sdef.domain))
    (first,), (second,) = (list(block_states(sdef, points, tier)) for tier in ("deriv", "curv"))
    assert first.ddg is None and first.ddf is None and first.ddxi is None
    one, two = suites._residuals(first, FIRST_ORDER, tol), suites._residuals(second, FIRST_ORDER, tol)
    for cid in FIRST_ORDER:
        assert np.array_equal(one[cid][0], two[cid][0], equal_nan=True), cid
        assert np.array_equal(one[cid][1], two[cid][1]), cid
    assert isinstance(PointState.__dict__["dh_xi"], functools.cached_property)
    with pytest.raises(AttributeError):
        first.dh_xi
    with pytest.raises(TypeError):
        first.curvature_xi


def sasakian_r3_with_q():
    """sasakian-r3 with a varying xi and f, and an explicit Q that `Q-consistency` reads."""
    doc = sasakian_r3_edited()
    doc["Q"] = [[f"{i} * x1 + z^{j + 1}" for j in range(3)] for i in range(3)]
    return load_structure_def(doc)


@pytest.mark.parametrize("sdef", [structure(index) for index in range(len(STRUCTURES))] + [sasakian_r3_with_q()],
                         ids=[f"{k}{p or ''}" for k, p in STRUCTURES] + ["sasakian-r3-with-q"])
def test_the_validate_rows_read_no_derivative_of_the_metric(sdef):
    """On one state of 256 points with the jet orders of `validate` (the
    metric and an explicit Q at order 0, f and xi at order 1) and on the
    states of 32 of the same points with every field at order 2, every
    `validate` row gives the same bits and is asserted at the same points.
    What reads a derivative of the metric raises on the `validate` state."""
    tol = tolerance(1e-9)
    orders, chunk, block = suites.JETS["algebraic"]
    assert chunk == block == 8 * suites.BLOCK
    points = np.array(suites.sample_points(chunk, 7, sdef.domain))
    (state,) = block_states(sdef, points, "algebraic")
    assert len(state.points) == chunk
    assert state.dg is None and state.ddg is None and state.ddf is None and state.ddxi is None
    assert state.df is not None and state.dxi is not None
    assert ("q" in sdef.tape.fields) == (state.q_explicit is not None)
    one = suites._residuals(state, suites.VALIDATE, tol)
    blocks = [suites._residuals(st, suites.VALIDATE, tol) for st in block_states(sdef, points, "curv")]
    for cid in suites.VALIDATE:
        for k in range(2):  # sizes, then where asserted
            joined = np.concatenate([b[cid][k] for b in blocks])
            assert np.array_equal(one[cid][k], joined, equal_nan=True), cid
    for name in ("gamma", "nabla_xi", "deta"):  # None in an operation, or as a 0-d array of matmul
        with pytest.raises((TypeError, ValueError)):
            getattr(state, name)


@pytest.mark.parametrize("suite, jet_order", [
    ("validate", ALGEBRAIC), ("classify", DERIV), ("identity", DERIV), ("curvature", CURV), ("theorems", CURV),
    ("all", CURV),
])
def test_the_jet_order_is_that_of_the_checks_run(monkeypatch, suite, jet_order):
    """Second derivatives only for a suite that runs a curvature-tier check,
    and derivatives of the metric only for one that runs a derivative-tier check."""
    _, _, chunks = record_states_and_blocks(monkeypatch)
    evaluate(structure(0), suite, 8, 7)
    assert chunks == [(8, jet_order)]


@functools.cache
def single_point_reports(index, suite):
    """The reports of `suite` on each of the first 300 sample points of seed 7
    alone: one state of one point per report."""
    sdef = structure(index)
    # point i of seed 7 has Halton index 8 + i, as point 0 of seed 7 + i has
    return [evaluate(sdef, suite, 1, 7 + i) for i in range(300)]


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
        rows.append(dict(cs[0]._asdict(), max_residual=worst, verdict=verdict, points=points))
    return rows


@pytest.mark.parametrize("count", [1, 255, 256, 257, 300])
@pytest.mark.parametrize("suite", ["validate", "classify"])
@pytest.mark.parametrize("index", [0, 3], ids=["sasakian-r3", "scaled-n1-s2"])
def test_chunk_boundaries_equal_one_point_at_a_time(index, suite, count):
    """Reports over first-order chunks of 8 blocks, whole and partial, equal
    the reports of each point alone put together."""
    sdef = structure(index)
    got = evaluate(sdef, suite, count, 7)
    want = combined(single_point_reports(index, suite)[:count])
    doc = dict(vars(got), checks=[c._asdict() for c in got.checks])
    assert_same_report(doc, dict(doc, checks=want))


@pytest.mark.parametrize("tol_deriv", [1e-9, 6.0])
@pytest.mark.parametrize("suite", ["all", "classify", "validate"])
@pytest.mark.parametrize("index", range(len(STRUCTURES)), ids=[f"{k}{p or ''}" for k, p in STRUCTURES])
def test_a_clean_run_evaluates_each_block_once(monkeypatch, index, suite, tol_deriv):
    """A chunk where nothing fails is never searched by halves, so an error
    in the batched checks themselves cannot hide behind that slower path.  A
    state of `validate` spans its chunk."""
    sizes = []
    residuals = suites._residuals

    def counted(st, *args):
        sizes.append(len(st.points))
        return residuals(st, *args)

    monkeypatch.setattr(suites, "_residuals", counted)
    evaluate(structure(index), suite, suites.BLOCK + 8, 7, suites.Tolerances(deriv=tol_deriv))
    assert sizes == ([suites.BLOCK + 8] if suite == "validate" else [suites.BLOCK, 8])
