import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import jet_at, points_for
from wqcm.catalog import catalog, keys
from wqcm.structure import WeakACM
from wqcm.exprdsl import (
    Bin,
    Call,
    ExprSyntaxError,
    Neg,
    Num,
    Pow,
    SchemaError,
    Var,
    compile_tape,
    dumps,
    eval_tape,
    load_structure_def,
    parse,
    structure_to_dict,
    to_str,
)

COORDS = ["x", "y", "z"]


def value_at(text, point):
    return float(jet_at(parse(text, COORDS), point)[0])


def test_precedence_and_arithmetic():
    p = [0.0, 0.0, 0.0]
    assert value_at("2 + 3 * 4 ^ 2", p) == 50.0
    assert value_at("2 ^ -1", p) == 0.5
    assert value_at("-2 ^ 2", p) == -4.0  # unary minus binds looser than ^
    assert value_at("6 / 3 / 2", p) == 1.0  # left-associative
    assert value_at("1 - 2 - 3", p) == -4.0
    assert value_at("(1 + 2) * 3", p) == 9.0


def test_coordinates_and_functions():
    p = [0.5, -1.25, 2.0]
    assert value_at("x * y + z", p) == pytest.approx(0.5 * -1.25 + 2.0)
    assert value_at("sin(x) + cos(y) * exp(z)", p) == pytest.approx(
        math.sin(0.5) + math.cos(-1.25) * math.exp(2.0)
    )
    assert value_at("sqrt(z)", p) == pytest.approx(math.sqrt(2.0))
    assert value_at("1e-2 + .5 + 2.", p) == pytest.approx(2.51)


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("", "empty expression"),
        ("x +", "unexpected token"),
        ("x + $", "unexpected character"),
        ("foo(x)", "unknown function"),
        ("w + 1", "unknown identifier"),
        ("x ^ y", "non-integer exponent"),
        ("x ^ 1.5", "non-integer exponent"),
        ("(x + 1", "expected ')'"),
        ("x 1", "trailing input"),
    ],
)
def test_syntax_errors(text, fragment):
    with pytest.raises(ExprSyntaxError) as exc:
        parse(text, COORDS)
    assert fragment in str(exc.value)


def test_error_reports_line_and_column():
    with pytest.raises(ExprSyntaxError) as exc:
        parse("x +\n y + $", COORDS)
    assert exc.value.line == 2
    assert exc.value.col == 6


names = st.sampled_from(COORDS)


@st.composite
def exprs(draw, depth=3):
    if depth == 0:
        if draw(st.booleans()):
            # negative literals print as a Neg node, so keep leaves nonnegative
            return Num(abs(draw(st.floats(min_value=0, max_value=5, allow_nan=False))))
        name = draw(names)
        return Var(name, COORDS.index(name))
    kind = draw(st.integers(min_value=0, max_value=4))
    if kind == 0:
        return Neg(draw(exprs(depth=depth - 1)))
    if kind == 1:
        op = draw(st.sampled_from("+-*"))
        return Bin(op, draw(exprs(depth=depth - 1)), draw(exprs(depth=depth - 1)))
    if kind == 2:
        return Pow(draw(exprs(depth=depth - 1)), draw(st.integers(0, 3)))
    if kind == 3:
        return Call(draw(st.sampled_from(("sin", "cos", "exp"))), draw(exprs(depth=0)))
    return draw(exprs(depth=0))


@settings(max_examples=200, deadline=None)
@given(exprs())
def test_print_parse_roundtrip(e):
    text = to_str(e)
    again = parse(text, COORDS)
    assert to_str(again) == text
    point = np.array([0.3, -0.6, 0.9])
    assert jet_at(again, point)[0] == jet_at(e, point)[0]


def base_doc():
    return {
        "name": "toy",
        "n": 1,
        "coords": ["x", "y", "z"],
        "domain": [[-1, 1], [-1, 1], [-1, 1]],
        "metric": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
        "f": [["0", "1", "0"], ["-1", "0", "0"], ["0", "0", "0"]],
        "xi": ["0", "0", "1"],
    }


def test_load_structure_def_roundtrip():
    sdef = load_structure_def(json.dumps(base_doc()))
    assert sdef.dim == 3
    assert sdef.contains([0.0, 0.0, 0.0])
    assert not sdef.contains([2.0, 0.0, 0.0])
    again = load_structure_def(dumps(sdef))
    assert structure_to_dict(again) == structure_to_dict(sdef)


def test_catalog_definitions_roundtrip():
    for key in ("sasakian-r3", "flat-const"):
        sdef = catalog(key)
        again = load_structure_def(dumps(sdef))
        assert structure_to_dict(again) == structure_to_dict(sdef)


def test_metric_lower_triangle_may_be_blank():
    doc = base_doc()
    doc["metric"] = [["1", "x", "0"], ["", "1", "0"], ["", "", "1"]]
    sdef = load_structure_def(doc)
    assert to_str(sdef.metric[1][0]) == to_str(sdef.metric[0][1])


def test_metric_lower_triangle_mismatch_rejected():
    doc = base_doc()
    doc["metric"][1][0] = "x + 1"
    with pytest.raises(SchemaError, match="match"):
        load_structure_def(doc)


def test_explicit_q_field_parsed():
    doc = base_doc()
    doc["Q"] = [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]
    sdef = load_structure_def(doc)
    assert sdef.q is not None


@pytest.mark.parametrize(
    "mutate,fragment",
    [
        (lambda d: d.pop("xi"), "missing field"),
        (lambda d: d.update(n="1"), "positive integer"),
        (lambda d: d.update(coords=["x", "y"]), "coords"),
        (lambda d: d.update(coords=["x", "x", "z"]), "distinct"),
        (lambda d: d["domain"].pop(), "domain"),
        (lambda d: d["domain"].__setitem__(0, [1, -1]), "bad interval"),
        (lambda d: d["metric"].pop(), "metric"),
        (lambda d: d["f"][0].pop(), "row 0"),
        (lambda d: d.update(xi=["0", "0"]), "xi"),
        # a cell that is not a string (the number 1 instead of "1")
        pytest.param(lambda d: d["metric"][0].__setitem__(0, 1), "metric entry", id="metric-number"),
        pytest.param(lambda d: d["metric"][1].__setitem__(0, 0), "metric entry", id="metric-lower-number"),
        pytest.param(lambda d: d["f"][0].__setitem__(1, 1), "f entry", id="f-number"),
        pytest.param(lambda d: d["xi"].__setitem__(2, 1.0), "xi entry", id="xi-number"),
        pytest.param(lambda d: d.update(Q=[["1", "0", "0"], ["0", "1", "0"], ["0", "0", None]]), "Q entry", id="Q-null"),
    ],
)
def test_schema_errors(mutate, fragment):
    doc = base_doc()
    mutate(doc)
    with pytest.raises(SchemaError, match=fragment):
        load_structure_def(doc)


def test_invalid_json_rejected():
    with pytest.raises(SchemaError, match="invalid JSON"):
        load_structure_def(b"{ not json")


# -- the tape -----------------------------------------------------------------


def distinct_subtrees(fields) -> set:
    """Every subtree of every cell, compared by value (AST nodes are frozen)."""
    seen = set()

    def walk(e):
        seen.add(e)
        for child in (getattr(e, name, None) for name in ("arg", "left", "right", "base")):
            if child is not None:
                walk(child)

    for cells in fields:
        for e in np.array(cells, dtype=object).flat:
            walk(e)
    return seen


def test_tape_has_one_instruction_per_distinct_subtree():
    doc = base_doc()
    doc["metric"] = [["1 + x*y", "x*y", "0"], ["x*y", "1 + x*y", "0"], ["", "", "1"]]
    doc["f"] = [["0", "x*y", "0"], ["-(x*y)", "0", "0"], ["0", "0", "0"]]
    sdef = load_structure_def(doc)
    # 0, 1, x, y, x*y, 1 + x*y and -(x*y): the mirrored metric triangle and
    # the repeated "0" and "1" cells cost one instruction each
    assert len(sdef.tape.code) == 7
    slots, shape = sdef.tape.fields["metric"]
    assert shape == (3, 3) and slots[1] == slots[3] and slots[2] == slots[5] == slots[6]
    # the cells hold five distinct expressions: 0, 1, x*y, 1 + x*y, -(x*y)
    assert len({*slots, *sdef.tape.fields["f"][0], *sdef.tape.fields["xi"][0]}) == 5
    for key in keys():
        sdef = catalog(key, s=2.0) if key == "scaled" else catalog(key)
        assert len(sdef.tape.code) == len(distinct_subtrees([sdef.metric, sdef.f, sdef.xi])), key
    assert len(catalog("sasakian-r7").tape.code) == 33


def test_padding_by_one_leaves_every_jet_unchanged():
    doc = structure_to_dict(catalog("sasakian-r3"))
    shifts = ["0.7*x1 + 0.2", "1.3*z + 0.5", "y1 - 0.1"]
    count = 0

    def pad(cell):
        nonlocal count
        for _ in range(3):  # the same few factors repeat across cells
            u = shifts[count % len(shifts)]
            cell, count = f"({cell}) * (sin({u})^2 + cos({u})^2)", count + 1
        return cell

    doc["metric"] = [[pad(c) if j >= i else "" for j, c in enumerate(row)] for i, row in enumerate(doc["metric"])]
    doc["f"] = [[pad(c) for c in row] for row in doc["f"]]
    doc["xi"] = [pad(c) for c in doc["xi"]]
    plain, padded = catalog("sasakian-r3"), load_structure_def(doc)
    assert len(padded.tape.code) == len(distinct_subtrees([padded.metric, padded.f, padded.xi]))
    for point in points_for(WeakACM(plain), count=8):
        want, got = eval_tape(plain.tape, point), eval_tape(padded.tape, point)
        for name in ("metric", "f", "xi"):
            for a, b in zip(want[name], got[name]):
                assert a.shape == b.shape and np.max(np.abs(a - b)) <= 1e-12, name
