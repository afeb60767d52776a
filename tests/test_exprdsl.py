import json
import math
import types
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import jet_at, points_for
from scalar_tape import scalar_eval_tape
from wqcm import exprdsl
from wqcm.catalog import catalog, document, keys
from wqcm.structure import WeakACM
from wqcm.exprdsl import ExprSyntaxError, SchemaError, compile_tape, eval_tape, load_structure_def

COORDS = ["x", "y", "z"]
PADDED = Path(__file__).parent / "data" / "sasakian-r3-padded.json"


def value_at(text, point):
    return float(jet_at(text, point)[0])


def test_precedence_and_arithmetic():
    p = [0.0, 0.0, 0.0]
    assert value_at("2 + 3 * 4 ^ 2", p) == 50.0
    assert value_at("2 ^ -1", p) == 0.5
    assert value_at("-2 ^ 2", p) == -4.0  # unary minus binds looser than ^
    assert value_at("2 ^ 3 ^ 2", p) == 64.0  # (2^3)^2, unlike Python's 2 ** 3 ** 2
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
    assert value_at("1 + 1e-400", p) == 1.0  # below the float range a literal reads as 0


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("", "empty expression"),
        ("x +", "unexpected token"),
        ("x + $", "unexpected character"),
        # a no-break space is no whitespace, not even in a cell of nothing else
        pytest.param("\u00a0", "unexpected character '\\xa0'", id="non-ascii-space"),
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


@pytest.mark.parametrize(
    "text, fragment, line, col",
    [
        pytest.param("x +\n y + $", "unexpected character '$'", 2, 6, id="character-line-2"),
        pytest.param("x\n + y\n  * (z + #)", "unexpected character '#'", 3, 10, id="character-line-3"),
        pytest.param("x +\n y ^ 1.5", "non-integer exponent '1.5'", 2, 6, id="exponent"),
        pytest.param("x + tan(y)", "unknown function 'tan'", 1, 5, id="function"),
        pytest.param("(x + y)\n z", "trailing input 'z'", 2, 2, id="trailing"),
        # digits are ASCII: an Arabic-Indic two or a fullwidth 3.5 is no number
        pytest.param("y +\n x^\u0662 + \uff13.\uff15", "unexpected character '\u0662'", 2, 4, id="non-ascii-digit"),
        # the 101st opening parenthesis is one too many
        pytest.param("(" * 101 + "x" + ")" * 101, "nested too deeply", 1, 101, id="nesting"),
        pytest.param("x +\n  sin(" * 101 + "x" + ")" * 101, "nested too deeply", 102, 6, id="nesting-calls"),
        # a literal beyond the float range is an input error, not an inf
        pytest.param("x * 1e400", "number '1e400' is too large for a float", 1, 5, id="huge-literal"),
        pytest.param("y +\n" + "9" * 400, "too large for a float", 2, 1, id="huge-integer-literal"),
    ],
)
def test_error_reports_line_and_column(text, fragment, line, col):
    with pytest.raises(ExprSyntaxError) as exc:
        compile_tape({"e": text}, COORDS)
    assert fragment in str(exc.value)
    assert (exc.value.line, exc.value.col) == (line, col)
    assert str(exc.value).endswith(f"(line {line}, column {col})")


@pytest.mark.parametrize(
    "opening, length",
    [
        pytest.param("(", 1, id="parentheses"),
        pytest.param("sin(", 101, id="calls"),
        # the most parser frames per level: x, y, then a * and a + each
        pytest.param("x + y * (", 202, id="operators"),
    ],
)
def test_nesting_limit_is_accepted(opening, length):
    tape = compile_tape({"e": opening * 100 + "x" + ")" * 100}, COORDS)
    assert len(tape.code) == length


# Binding power of each operation; a leaf or a call binds as tightly as
# anything (5).  An operand binds at least as tightly as its operation, and
# the right operand of a binary operator more tightly: all four associate to
# the left.  The operand of ^ is an atom or a power: x^2^3 is (x^2)^3.
BINDING = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}


@st.composite
def trees(draw, depth=4):
    """A syntax tree: ("leaf", text), ("neg", t), (op, t, t) for each binary
    op, ("^", t, exponent) or (function, t)."""
    kind = draw(st.sampled_from(["leaf", "neg", "+", "-", "*", "/", "^", "sin", "exp"] if depth else ["leaf"]))
    if kind == "leaf":
        return (kind, draw(st.sampled_from([*COORDS, "2", "0.5"])))
    if kind == "^":
        return (kind, draw(trees(depth=depth - 1)), draw(st.integers(-3, 3)))
    operands = 2 if kind in ("+", "-", "*", "/") else 1
    return (kind, *(draw(trees(depth=depth - 1)) for _ in range(operands)))


def render(tree, need=0, full=False) -> str:
    """The text of a tree, with the fewest parentheses the grammar allows or,
    when full, every operation parenthesized; `need` is the binding power the
    context asks of it."""
    kind = tree[0]
    if kind == "leaf":
        return tree[1]
    if kind not in BINDING:
        return f"{kind}({render(tree[1], full=full)})"
    power = BINDING[kind]
    if kind == "neg":
        text = "-" + render(tree[1], power, full)
    elif kind == "^":
        text = f"{render(tree[1], power, full)}^{tree[2]}"
    else:
        text = f"{render(tree[1], power, full)} {kind} {render(tree[2], power + 1, full)}"
    return f"({text})" if full or power < need else text


def post_order(tree) -> list[tuple]:
    """The instructions of a tree, each distinct subtree once, operands before
    their operation and left to right."""
    code: list[tuple] = []

    def walk(t) -> int:
        kind = t[0]
        if kind == "leaf":
            ins = ("var", COORDS.index(t[1]), None) if t[1] in COORDS else ("num", float(t[1]), None)
        elif kind == "^":
            ins = (kind, walk(t[1]), t[2])
        else:
            ins = (kind, walk(t[1]), walk(t[2]) if len(t) == 3 else None)
        if ins not in code:
            code.append(ins)
        return code.index(ins)

    walk(tree)
    return code


@settings(max_examples=300, deadline=None)
@given(trees())
def test_precedence_and_associativity(tree):
    text = render(tree)
    tape = compile_tape({"e": text}, COORDS)
    assert compile_tape({"e": render(tree, full=True)}, COORDS) == tape, text
    assert list(tape.code) == post_order(tree), text


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
    doc["Q"] = None  # a null Q is an absent one
    assert "q" not in load_structure_def(doc).tape.fields


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
    points = points_for(WeakACM(plain), count=8)
    want, got = eval_tape(plain.tape, points, 2), eval_tape(padded.tape, points, 2)
    for name in ("metric", "f", "xi"):
        for a, b in zip(want[name], got[name]):
            assert a.shape == b.shape and np.max(np.abs(a - b)) <= 1e-12, name


def peak_live_slots(tape) -> int:
    """The most slots `eval_tape` holds at once under the tape's release schedule."""
    live = peak = 0
    for released in tape.release:
        live += 1
        peak = max(peak, live)
        live -= len(released)
    assert live == 0
    return peak


def test_each_slot_is_released_after_its_last_reader():
    doc = document("sasakian-r7")
    rng = np.random.default_rng(7)

    def pad(cell):  # four value-preserving factors on a nonzero cell, as in a deep rewrite
        for _ in range(4 if cell != "0" else 0):
            u = f"{rng.uniform(0.5, 2.0):.4f} * {rng.choice(doc['coords'])} + {rng.uniform(0.1, 1.0):.4f}"
            cell = f"({cell}) * (sin({u})^2 + cos({u})^2)"
        return cell

    doc["metric"] = [[pad(c) if j >= i else "" for j, c in enumerate(row)] for i, row in enumerate(doc["metric"])]
    doc["f"] = [[pad(c) for c in row] for row in doc["f"]]
    doc["xi"] = [pad(c) for c in doc["xi"]]
    for tape in (catalog("sasakian-r7").tape, load_structure_def(doc).tape):
        last_reader = {}
        for k, (op, a, b) in enumerate(tape.code):
            operands = () if op in ("num", "var") else (a, b) if op in ("+", "-", "*", "/") else (a,)
            last_reader.update(dict.fromkeys(operands, k))
        released = sorted(slot for slots in tape.release for slot in slots)
        assert released == list(range(len(tape.code)))  # each slot once
        for k, slots in enumerate(tape.release):
            assert all(last_reader.get(slot, slot) == k for slot in slots)
    assert len(tape.code) > 800 and peak_live_slots(tape) <= 30


# A cell and a coordinate value at which the scalar tape raises, one case for
# each way it fails.
TAPE_ERRORS = [
    pytest.param("1 / x", 0.0, id="zero-denominator"),
    pytest.param("x^-2", 0.0, id="negative-power-of-zero"),
    pytest.param("sqrt(x)", -0.5, id="sqrt-negative"),
    pytest.param("sqrt(x)", 0.0, id="sqrt-zero"),
    pytest.param("1 / x", 1e-200, id="square-underflow"),
    pytest.param("1 / x", 1e-110, id="cube-underflow"),
    pytest.param("sqrt(x)", 5e-324, id="sqrt-underflow"),
    pytest.param("x^3", 1e200, id="power-overflow"),
    pytest.param("x^-3", 1e-200, id="negative-power-overflow"),
    pytest.param("exp(x)", 710.0, id="exp-overflow"),
    pytest.param("sin(x * x)", 1e200, id="sin-of-inf"),
    pytest.param("cos(x * x)", -1e200, id="cos-of-inf"),
]


def scalar_outcome(tape, point):
    """The scalar tape's fields at a point, or the error it raises there."""
    with np.errstate(all="ignore"):
        try:
            return scalar_eval_tape(tape, point)
        except (ValueError, ArithmeticError) as exc:
            return exc


def tape_outcome(tape, points, order):
    """The fields of `eval_tape` over the points, or the error it raises."""
    try:
        return eval_tape(tape, points, order)
    except (ValueError, ArithmeticError) as exc:
        return exc


def error_of(outcome):
    """(type, message) of an error, to compare errors by; None for fields."""
    return (type(outcome), str(outcome)) if isinstance(outcome, Exception) else None


def assert_block_matches_scalar(tape, points):
    """`eval_tape` at jet order 1 and 2, without a warning: over the block it
    raises if and only if the scalar tape raises at some point, and then the
    error of one such point; each point alone raises the scalar tape's error
    there, by type and message, or gives the scalar tape's values, gradients
    and (at order 2) Hessians bit for bit; and a block that raises nothing
    gives them at every point."""
    wants = [scalar_outcome(tape, point) for point in points]
    scalar_errors = {error_of(want) for want in wants} - {None}
    for order in (1, 2):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            block = tape_outcome(tape, points, order)
            alone = [tape_outcome(tape, points[p : p + 1], order) for p in range(len(points))]
        assert error_of(block) in (scalar_errors or {None})
        for p, (point, want) in enumerate(zip(points, wants)):
            assert error_of(alone[p]) == error_of(want), (order, point)
            if isinstance(want, Exception):
                continue
            for fields, lane in [(alone[p], 0)] + ([] if scalar_errors else [(block, p)]):
                for name, jets in want.items():
                    for got, exact in zip(fields[name][: order + 1], jets):
                        assert np.array_equal(got[lane], exact, equal_nan=True), (order, point)


@pytest.mark.parametrize("cell, bad", TAPE_ERRORS)
def test_block_tape_fails_where_the_scalar_tape_fails(cell, bad):
    tape = compile_tape({"e": ["x * y + z", cell, "exp(z)"]}, COORDS)
    points = np.array([[0.5, 0.25, -0.5], [bad, 0.25, -0.5], [0.75, -1.0, 2.0]])
    assert isinstance(scalar_outcome(tape, points[1]), Exception)
    assert_block_matches_scalar(tape, points)


def test_float_overflow_is_a_value_not_an_error():
    tape = compile_tape({"e": "x * x"}, COORDS)
    fields = eval_tape(tape, np.array([[1e200, 0.0, 0.0], [-1e200, 1.0, 1.0]]), 2)
    assert fields["e"][0].tolist() == [math.inf, math.inf]


# Values where the jet arithmetic fails or overflows, and ordinary ones.
COORDINATES = st.one_of(
    st.sampled_from([0.0, 1e-200, -1e-200, 1e200, -1e200, 1.0, -1.0, 1e-110, 5e-324, 710.0]),
    st.floats(min_value=-5, max_value=5),
)
RISKY_FORMS = (
    "{a}", "({a}) / ({b})", "({a}) / (x - y)", "sqrt({a})", "({a})^-{k}", "({a})^{k}",
    "exp({a})", "sin(({a}) * ({b}))", "cos(({a}) * ({b}))",
    # sin and cos of one argument share one pair of libm calls
    "sin({a})^2 + cos({a})^{k}", "cos(({a}) * ({b})) * sin(({a}) * ({b}))",
)


@st.composite
def risky_cells(draw):
    """One to three cells of `exprs()` text under the operations `exprs()`
    leaves out: division, sqrt, negative powers and functions of any argument."""
    return [
        draw(st.sampled_from(RISKY_FORMS)).format(a=draw(exprs()), b=draw(exprs()), k=draw(st.integers(1, 3)))
        for _ in range(draw(st.integers(1, 3)))
    ]


@settings(max_examples=300, deadline=None)
@given(risky_cells(), st.lists(st.tuples(COORDINATES, COORDINATES, COORDINATES), min_size=2, max_size=6))
def test_block_tape_matches_scalar_tape(cells, points):
    assert_block_matches_scalar(compile_tape({"e": cells}, COORDS), np.array(points))


def test_sin_and_cos_run_once_per_point_and_argument(monkeypatch):
    calls = Counter()

    def counted(fn):
        def shim(x):
            calls[fn.__name__] += 1
            return fn(x)

        return shim

    shim = types.SimpleNamespace(**{**vars(math), "sin": counted(math.sin), "cos": counted(math.cos)})
    monkeypatch.setattr(exprdsl, "math", shim)
    tape = load_structure_def(PADDED.read_bytes()).tape
    arguments = {a for op, a, _ in tape.code if op in ("sin", "cos")}
    # each argument slot is read by one sin and one cos instruction
    assert sum(op in ("sin", "cos") for op, _, _ in tape.code) == 2 * len(arguments) > 0
    points = points_for(WeakACM(catalog("sasakian-r3")), count=40)
    for order in (1, 2):
        calls.clear()
        eval_tape(tape, points, order)
        assert calls == {"sin": 40 * len(arguments), "cos": 40 * len(arguments)}
