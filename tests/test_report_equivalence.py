"""Reports stay those of the pinned reference implementations.

`tests/data/<key>.check-all.json` and `<key>.classify.json` were written by
a per-pair loop implementation of the checks, and `<key>.validate.json` by
the hand-written axiom validation that the check registry replaced.  The
three `scaled-n3-s2` files (the structure whose quasi, contact and Killing
gates fail, so most of its gated checks skip) were written by the check
registry itself.  All come from

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
import weakref
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wqcm import geometry, suites
from wqcm.catalog import catalog
from wqcm.cli import run_cli
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
    of the tape; building a block asserts that no earlier block is alive."""
    states, arrays = [], []
    init, eval_tape = PointState.__init__, suites.eval_tape

    def recorded_init(self, *args):
        init(self, *args)
        states.append(weakref.ref(self))

    def recorded_tape(*args):
        # without a garbage collection: nothing but a reference holds a block
        assert not [ref for ref in arrays if ref() is not None]
        fields, errors = eval_tape(*args)
        arrays.extend(weakref.ref(a) for jets in fields.values() for a in jets)
        return fields, errors

    monkeypatch.setattr(PointState, "__init__", recorded_init)
    monkeypatch.setattr(suites, "eval_tape", recorded_tape)
    return states, arrays


def test_one_state_per_block_and_none_outlives_run_suite(monkeypatch):
    states, arrays = record_states_and_blocks(monkeypatch)
    run_suite(WeakACM(catalog("sasakian-r3")), "all", SamplePlan(count=8, seed=7))
    gc.collect()
    assert len(states) == 1 and len(arrays) == 9  # one block: v, dv, ddv of metric, f and xi
    assert states[0]() is None
    assert not [ref for ref in arrays if ref() is not None]


def test_no_sub_state_outlives_run_suite(monkeypatch):
    states, arrays = record_states_and_blocks(monkeypatch)
    assert report(MIXED)["checks"]
    gc.collect()
    # the block, and the 2 points where quasi holds and the 2 where the eq21
    # hypothesis holds (nabla-xi-f holds everywhere: its checks take the block)
    assert len(states) == 3 and [ref() for ref in states] == [None] * 3
    assert not [ref for ref in arrays if ref() is not None]


def test_one_block_of_field_arrays_alive_at_a_time(monkeypatch):
    states, arrays = record_states_and_blocks(monkeypatch)
    run_suite(WeakACM(catalog("sasakian-r3")), "validate", SamplePlan(count=2 * suites.BLOCK + 1, seed=7))
    assert len(states) == 3 and len(arrays) == 3 * 9
    assert not [ref for ref in arrays if ref() is not None]


STRUCTURES = [("sasakian-r3", {}), ("sasakian-r5", {}), ("sasakian-r7", {}),
              ("scaled", {"n": 1, "s": 2.0}), ("scaled", {"n": 3, "s": 2.0}), ("flat-const", {})]


@functools.cache
def structure(index):
    key, params = STRUCTURES[index]
    return WeakACM(catalog(key, **params))


@settings(max_examples=24, deadline=None)
@given(
    index=st.sampled_from(range(len(STRUCTURES))),
    count=st.sampled_from([1, 31, 33, 70]),
    seed=st.integers(0, 1000),
    tol_deriv=st.sampled_from([1e-9, 6.0]),
)
def test_block_evaluation_equals_one_point_at_a_time(index, count, seed, tol_deriv):
    """Every check of the registry, over blocks of `suites.BLOCK` points and
    over each point as its own block of one: the same points asserted, and
    residuals within 1e-12 (NaN where NaN).  A quasi tolerance of 6 gates
    some points of scaled n=1 in and others out."""
    acm = structure(index)
    tolerances = suites.Tolerances(deriv=tol_deriv)

    def tol(cid):
        return getattr(tolerances, suites.CHECKS[cid].tier)

    order = suites._with_hypotheses(suites.CHECKS)
    assert sorted(order) == sorted(suites.CHECKS)
    points = np.array(suites.sample_points(SamplePlan(count=count, seed=seed), acm.sdef.domain))
    blocks = []
    for start in range(0, count, suites.BLOCK):
        block = points[start : start + suites.BLOCK]
        fields, errors = suites.eval_tape(acm.sdef.tape, block)
        assert not errors
        blocks.append(suites._residuals(PointState(acm.sdef, block, seed, fields), order, tol))
    singles = [suites._residuals(acm.at(p, seed), order, tol) for p in points]
    for cid in order:
        value = np.concatenate([b[cid][0] for b in blocks])
        on = np.concatenate([b[cid][1] for b in blocks])
        assert np.array_equal(on, [s[cid][1][0] for s in singles]), cid
        one = np.array([s[cid][0][0] for s in singles])
        assert np.array_equal(np.isnan(value[on]), np.isnan(one[on])), cid
        assert np.nanmax(np.abs(value[on] - one[on]), initial=0.0) <= 1e-12, cid


@pytest.mark.parametrize("tol_deriv", [1e-9, 6.0])
@pytest.mark.parametrize("suite", ["all", "classify", "validate"])
@pytest.mark.parametrize("index", range(len(STRUCTURES)), ids=[f"{k}{p or ''}" for k, p in STRUCTURES])
def test_a_clean_run_evaluates_each_block_once(monkeypatch, index, suite, tol_deriv):
    """A block where nothing fails is never evaluated again one point at a
    time, so an error in the batched checks themselves cannot hide behind
    that slower path."""
    sizes = []
    residuals = suites._residuals

    def counted(st, *args):
        sizes.append(len(st.points))
        return residuals(st, *args)

    monkeypatch.setattr(suites, "_residuals", counted)
    plan = SamplePlan(count=suites.BLOCK + 8, seed=7)
    run_suite(structure(index), suite, plan, suites.Tolerances(deriv=tol_deriv))
    assert sizes == [suites.BLOCK, 8]
