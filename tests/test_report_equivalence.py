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

Ids, labels, verdicts and point counts must match exactly; residuals may
differ only by summation order.
"""

import gc
import io
import json
import weakref
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

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


@pytest.mark.parametrize("command", ["check-all", "classify", "validate"])
@pytest.mark.parametrize("key", sorted(SOURCES))
def test_report_matches_loop_implementation(key, command):
    expected = json.loads((DATA / f"{key}.{command}.json").read_text())
    out = io.StringIO()
    argv = command.split("-") + [f"builtin:{SOURCES[key]}", "--points", "8", "--seed", "7"]
    run_cli(argv + ["--format", "json", "--no-timestamp"], stdout=out)
    got = json.loads(out.getvalue())

    def signature(doc):
        head = (doc["suite"], doc["structure"], doc["seed"], doc["tol"])
        rows = [(c["id"], c["paper"], c["tol"], c["verdict"], c["points"]) for c in doc["checks"]]
        return head, rows

    assert signature(got) == signature(expected)
    for new, old in zip(got["checks"], expected["checks"]):
        assert abs(new["max_residual"] - old["max_residual"]) <= 1e-12, new["id"]


def test_run_all_builds_curvature_and_f_basis_once_per_point(monkeypatch):
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
    run_suite(WeakACM(catalog("sasakian-r3")), "all", SamplePlan(count=8, seed=7))
    assert 0 < calls["christoffel"] <= 8
    assert 0 < calls["riemann"] <= 8
    assert 0 < calls["eigh"] <= 2 * 8


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


def test_no_point_state_outlives_run_suite(monkeypatch):
    states, arrays = record_states_and_blocks(monkeypatch)
    run_suite(WeakACM(catalog("sasakian-r3")), "all", SamplePlan(count=8, seed=7))
    gc.collect()
    assert len(states) == 8 and len(arrays) == 9  # one block: v, dv, ddv of metric, f and xi
    assert [ref() for ref in states] == [None] * 8
    assert not [ref for ref in arrays if ref() is not None]


def test_one_block_of_field_arrays_alive_at_a_time(monkeypatch):
    states, arrays = record_states_and_blocks(monkeypatch)
    run_suite(WeakACM(catalog("sasakian-r3")), "validate", SamplePlan(count=2 * suites.BLOCK + 1, seed=7))
    assert len(states) == 2 * suites.BLOCK + 1 and len(arrays) == 3 * 9
    assert not [ref for ref in arrays if ref() is not None]
