import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import jet_at, points_for
from wqcm.catalog import catalog, document, keys
from wqcm.structure import WeakACM
from wqcm.exprdsl import ExprSyntaxError, SchemaError, compile_tape, eval_tape, load_structure_def

COORDS = ["x", "y", "z"]


def value_at(text, point):
    return float(jet_at(text, point)[0])


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
        pytest.param("(" * 1200 + "x" + ")" * 1200, "nested too deeply", id="deep-parentheses"),
        pytest.param("sin(" * 1200 + "x" + ")" * 1200, "nested too deeply", id="deep-calls"),
    ],
)
def test_syntax_errors(text, fragment):
    with pytest.raises(ExprSyntaxError) as exc:
        compile_tape({"e": text}, COORDS)
    assert fragment in str(exc.value)


def test_error_reports_line_and_column():
    with pytest.raises(ExprSyntaxError) as exc:
        compile_tape({"e": "x +\n y + $"}, COORDS)
    assert exc.value.line == 2
    assert exc.value.col == 6


names = st.sampled_from(COORDS)


@st.composite
def exprs(draw, depth=3):
    """Fully parenthesized expression text: every negation, operation and
    power is wrapped in its own parentheses."""
    if depth == 0:
        if draw(st.booleans()):
            # a negative literal would read as a negation, so keep leaves nonnegative
            return repr(abs(draw(st.floats(min_value=0, max_value=5, allow_nan=False))))
        return draw(names)
    kind = draw(st.integers(min_value=0, max_value=4))
    if kind == 0:
        return f"(-{draw(exprs(depth=depth - 1))})"
    if kind == 1:
        op = draw(st.sampled_from("+-*"))
        return f"({draw(exprs(depth=depth - 1))} {op} {draw(exprs(depth=depth - 1))})"
    if kind == 2:
        return f"({draw(exprs(depth=depth - 1))}^{draw(st.integers(0, 3))})"
    if kind == 3:
        return f"{draw(st.sampled_from(('sin', 'cos', 'exp')))}({draw(exprs(depth=0))})"
    return draw(exprs(depth=0))


@settings(max_examples=200, deadline=None)
@given(exprs())
def test_redundant_parentheses_leave_the_tape_unchanged(text):
    tape = compile_tape({"e": text}, COORDS)
    assert compile_tape({"e": f" (( {text} )) "}, COORDS) == tape


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
    assert load_structure_def(base_doc()) == sdef  # the document and its JSON text load alike


def test_catalog_definitions_roundtrip():
    for key in ("sasakian-r3", "flat-const"):
        assert load_structure_def(json.dumps(document(key))) == catalog(key)


def test_metric_lower_triangle_may_be_blank():
    doc = base_doc()
    doc["metric"] = [["1", "x", "0"], ["", "1", "0"], ["", "", "1"]]
    sdef = load_structure_def(doc)
    slots, _ = sdef.tape.fields["metric"]
    assert slots[3] == slots[1]  # [1][0] reads [0][1]


def test_metric_lower_triangle_mismatch_rejected():
    doc = base_doc()
    doc["metric"][1][0] = "x + 1"
    with pytest.raises(SchemaError, match="match"):
        load_structure_def(doc)


def test_explicit_q_field_parsed():
    doc = base_doc()
    doc["Q"] = [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]
    assert "q" in load_structure_def(doc).tape.fields
    assert "q" not in load_structure_def(base_doc()).tape.fields


@pytest.mark.parametrize(
    "mutate,fragment",
    [
        (lambda d: d.pop("xi"), "missing field"),
        (lambda d: d.update(n="1"), "positive integer"),
        (lambda d: d.update(coords=["x", "y"]), "coords"),
        (lambda d: d.update(coords=["x", "x", "z"]), "distinct"),
        (lambda d: d["domain"].pop(), "domain"),
        (lambda d: d["domain"].__setitem__(0, [1, -1]), "bad interval"),
        pytest.param(lambda d: d.update(n=True), "positive integer", id="n-bool"),
        pytest.param(lambda d: d.update(coords=[[1], [2], [3]]), "strings", id="coords-lists"),
        pytest.param(lambda d: d["domain"].__setitem__(0, ["a", "b"]), "finite", id="domain-strings"),
        pytest.param(lambda d: d["domain"].__setitem__(0, [0, None]), "finite", id="domain-null"),
        pytest.param(lambda d: d["domain"].__setitem__(0, [0, json.loads("1e400")]), "finite", id="domain-inf"),
        pytest.param(lambda d: d["domain"].__setitem__(0, [0, 10**400]), "finite", id="domain-huge-int"),
        pytest.param(lambda d: d["domain"].__setitem__(0, [-1e308, 1e308]), "width", id="domain-width-overflow"),
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
    for source in (b"{ not json", b'{"name": "\xff\xfe"}', b"[" * 100_000 + b"]" * 100_000):
        with pytest.raises(SchemaError, match="invalid JSON"):
            load_structure_def(source)


# -- the tape -----------------------------------------------------------------


# Instructions of each built-in (scaled at n=1, s=2): one per distinct
# subexpression of its cells, as a walk over their syntax trees counts them.
TAPE_LENGTHS = {"sasakian-r3": 13, "sasakian-r5": 22, "sasakian-r7": 33, "scaled": 13, "flat-const": 3}


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
    assert list(TAPE_LENGTHS) == keys()
    for key, length in TAPE_LENGTHS.items():
        sdef = catalog(key, s=2.0) if key == "scaled" else catalog(key)
        assert len(sdef.tape.code) == length, key


def test_padding_by_one_leaves_every_jet_unchanged():
    doc = document("sasakian-r3")
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
    assert len(padded.tape.code) == 64  # one per distinct subexpression
    for point in points_for(WeakACM(plain), count=8):
        want, got = eval_tape(plain.tape, point), eval_tape(padded.tape, point)
        for name in ("metric", "f", "xi"):
            for a, b in zip(want[name], got[name]):
                assert a.shape == b.shape and np.max(np.abs(a - b)) <= 1e-12, name
