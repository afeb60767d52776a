"""Expression DSL for tensor component functions.

Closed-form expressions over the chart coordinates with the grammar

    expr   := unary (('+' | '-' | '*' | '/') unary)*
    unary  := '-'* atom ('^' ['-'] INTEGER)*
    atom   := NUMBER | NAME | NAME '(' expr ')' | '(' expr ')'

where NAME is either a declared coordinate or one of sin, cos, exp, sqrt,
and digits are ASCII.  * and / bind tighter than + and -, and all four
associate to the left: a/b/c is (a/b)/c.  Powers bind tighter than the
minus signs before them and apply in turn: -x^2 is -(x^2) and x^2^3 is
(x^2)^3.  Exponents must be integer literals.  No syntax tree is built:
`compile_tape` parses the text of every cell straight into one hash-consed
flat tape, each distinct subexpression once, and `eval_tape` runs it over a
chunk of points, giving each field's jet at each point to the order asked
for that field: its value at order 0, and its gradient from order 1 and its
Hessian at order 2 too.  A slot is differentiated only as far as the
highest order among the fields it is a cell of and the slots that read it
(`slot_orders`).  `suites.JETS` sets the orders: every field at order 2 for
curvature rows and at order 1 for derivative rows, and for `validate`, whose
state spans a whole 256-point chunk, the metric at order 0 and f and xi at
order 1; an explicit Q is at order 0 in every run.

Also home of the structure-definition file format: a JSON document holding
the metric, the fundamental (1,1)-tensor and the characteristic vector
field as expression strings, and no field that the loader does not read.
"""

from __future__ import annotations

import itertools
import json
import math
import re
from typing import NamedTuple

import numpy as np


class ExprSyntaxError(ValueError):
    @classmethod
    def at(cls, message: str, text: str, offset: int) -> ExprSyntaxError:
        """The error at character `offset` of `text`, its position ending the message."""
        line, col = text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)
        return cls(f"{message} (line {line}, column {col})")


# -- lexer --------------------------------------------------------------------
#
# A token is a tuple (kind, text, offset) with kind num, name, op or end.
# ASCII whitespace matches no group, so `finditer` steps over it; any other
# character that starts no token, a non-ASCII digit or space too, is "bad".

_TOKEN_RE = re.compile(
    r"(?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()])"
    r"|(?P<bad>\S)",
    re.ASCII,
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = [(m.lastgroup, m.group(), m.start()) for m in _TOKEN_RE.finditer(text)]
    for kind, lexeme, offset in tokens:
        if kind == "bad":
            raise ExprSyntaxError.at(f"unexpected character {lexeme!r}", text, offset)
    tokens.append(("end", "", len(text)))
    return tokens


# -- parser and tape compiler --------------------------------------------------
#
# A tape is a flat list of instructions in which each distinct subexpression of
# the compiled fields appears once.  Instruction k is a triple (op, a, b) whose
# result goes to slot k: a is the slot of the (first) argument, or the number
# of "num" and the coordinate index of "var"; b is the second argument slot of
# + - * /, the exponent of "^", and None otherwise.  The parser emits the
# instructions of each operation it reads after those of its operands, left to
# right, and passes on the slot of its result.  Running the tape over a chunk
# of P points computes the jet of every slot in order, for all points at once:
# the tuple of its parts, values (P,), from jet order 1 gradients (P, d), and at
# order 2 Hessians (P, d, d).  Each slot has its own order, that of
# `slot_orders`, and reads the parts of its operands up to it; of the rules,
# only `_chain` and `_mul` see the order.  The derivatives of a function of
# one slot (1/v, v^k, sqrt, exp, sin, cos) come from Python floats, point by
# point, so each point gets the libm values that scalar float arithmetic
# gives there, and the run raises as it does, at the first value that fails
# (a zero division, a `sqrt` domain error, an overflow); numpy's vector exp
# and power can differ in the last bit.
# exp, sin, cos and v^k map the libm call over the chunk's values; sin and
# cos of one slot share one pair of calls, kept while that slot is live.  1/v
# and sqrt stay scalar: a vector -1/(v*v) gives -inf where a float division
# raises.  Their first and second derivatives are computed at every order, so
# a run fails the same way at each.  Every update adds symmetric terms
# (`cross + cross.T`, `outer(g, g)`) to symmetric matrices, and IEEE sums and
# products commute, so Hessians are exactly symmetric.  The formulas and their
# operand order are fixed, and the same at every order: changing them changes
# the last bits of every report.

# Each level of parentheses or calls recurses through at most five parser
# frames (`binary` three times, as in "x + y * (", then `unary` and `atom`);
# past this depth a cell is an input error rather than a RecursionError.
MAX_NESTING = 100

# the binary operators by precedence; all four associate to the left
_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2}


def _parse(text: str, coord_index: dict[str, int], emit) -> int:
    """Parse one cell by precedence climbing, emitting its instructions, and
    return the slot of its value."""
    tokens = _tokenize(text)
    if tokens[0][0] == "end":
        raise ExprSyntaxError.at("empty expression", text, 0)
    pos = 0

    def error(message: str, tok: tuple[str, str, int]) -> ExprSyntaxError:
        return ExprSyntaxError.at(message, text, tok[2])

    def binary(level: int, depth: int) -> int:
        """The operands and operators of precedence `level` and above."""
        nonlocal pos
        slot = unary(depth)
        # only an op token's text is a key of the table
        while _PRECEDENCE.get(tokens[pos][1], 0) >= level:
            op = tokens[pos][1]
            pos += 1
            slot = emit(op, slot, binary(_PRECEDENCE[op] + 1, depth))
        return slot

    def unary(depth: int) -> int:
        nonlocal pos
        signs = 0
        while tokens[pos][1] == "-":
            pos += 1
            signs += 1
        slot = atom(depth)
        while tokens[pos][1] == "^":
            negative = tokens[pos + 1][1] == "-"
            tok = tokens[pos + 1 + negative]
            pos += 2 + negative
            if tok[0] != "num" or not tok[1].isdecimal():
                raise error(f"non-integer exponent {tok[1]!r}", tok)
            if float(tok[1]) == math.inf:
                raise error(f"exponent {tok[1]!r} is too large for a float", tok)
            slot = emit("^", slot, -int(tok[1]) if negative else int(tok[1]))
        for _ in range(signs):
            slot = emit("neg", slot, None)
        return slot

    def atom(depth: int) -> int:
        nonlocal pos
        tok = tokens[pos]
        kind, lexeme, _ = tok
        pos += 1
        if kind == "num":
            value = float(lexeme)
            if value == math.inf:
                raise error(f"number {lexeme!r} is too large for a float", tok)
            return emit("num", value, None)
        if kind == "name":
            if tokens[pos][1] != "(":
                if lexeme not in coord_index:
                    raise error(f"unknown identifier {lexeme!r}", tok)
                return emit("var", coord_index[lexeme], None)
            if lexeme not in FUNCTIONS:
                raise error(f"unknown function {lexeme!r}", tok)
            tok = tokens[pos]
            pos += 1
        elif lexeme != "(":
            raise error(f"unexpected token {lexeme!r}", tok)
        # tok is the opening parenthesis of a call or a group
        if depth == MAX_NESTING:
            raise error("expression nested too deeply", tok)
        slot = binary(1, depth + 1)
        if tokens[pos][1] != ")":
            raise error(f"expected ')', found {tokens[pos][1]!r}", tokens[pos])
        pos += 1
        return emit(lexeme, slot, None) if kind == "name" else slot

    slot = binary(1, 0)
    if tokens[pos][0] != "end":
        raise error(f"trailing input {tokens[pos][1]!r}", tokens[pos])
    return slot


class Tape(NamedTuple):
    """Compiled fields: `code` holds the instructions, `fields` maps each field
    name to its output slots (one per cell, in row-major order) and its shape,
    and `release[k]` lists the slots whose last reader is instruction k (a
    slot that nothing reads is its own last reader), so that `eval_tape`
    holds only the slots that are still to be read."""

    code: tuple[tuple, ...]
    fields: dict[str, tuple[tuple[int, ...], tuple[int, ...]]]
    release: tuple[tuple[int, ...], ...]


def compile_tape(fields: dict, coords) -> Tape:
    """Parse fields (name -> expression text or nested lists of it) over the
    coordinate names into one tape.  Instructions are keyed on (op, a, b), so
    equal subexpressions, within one cell or across cells and fields, share one
    slot; each distinct cell text is parsed once."""
    code: list[tuple] = []
    slots: dict[tuple, int] = {}
    cell_slots: dict[str, int] = {}
    coord_index = {name: i for i, name in enumerate(coords)}

    def emit(op, a, b) -> int:
        ins = (op, a, b)
        if ins not in slots:
            slots[ins] = len(code)
            code.append(ins)
        return slots[ins]

    def cell(text: str) -> int:
        if text not in cell_slots:
            cell_slots[text] = _parse(text, coord_index, emit)
        return cell_slots[text]

    out = {}
    for name, texts in fields.items():
        cells = np.array(texts, dtype=object)
        out[name] = (tuple(cell(t) for t in cells.flat), cells.shape)
    last = list(range(len(code)))
    for k, (op, a, b) in enumerate(code):
        if op not in ("num", "var"):
            last[a] = k
        if op in _PRECEDENCE:
            last[b] = k
    release: list[list[int]] = [[] for _ in code]
    for slot, k in enumerate(last):
        release[k].append(slot)
    return Tape(tuple(code), out, tuple(map(tuple, release)))


# The value, first and second derivative of each function of one slot at a
# list of values, in Python floats; a function raises as scalar arithmetic
# does at the first value that fails.


def _libm(fn, *args) -> np.ndarray:
    return np.fromiter(map(fn, *args), float, len(args[0]))


def _reciprocal(xs: list[float]):
    """1/x, the division's second operand."""
    if 0.0 in xs:
        raise ZeroDivisionError("jet division by zero value")
    return (
        np.array([1.0 / x for x in xs]),
        np.array([-1.0 / (x * x) for x in xs]),
        np.array([2.0 / (x * x * x) for x in xs]),
    )


def _power(k: int, v: np.ndarray, xs: list[float]):
    """x^k for an integer k != 0, at the values `v`, which are `xs`.  The
    exponent goes to `pow` as a float: the same libm call as an int's."""
    if k < 0 and 0.0 in xs:
        raise ZeroDivisionError("negative power of zero jet value")

    def pw(e):  # x ** 0 is 1.0 and x ** 1 is x, for every float x
        return np.ones(len(xs)) if e == 0 else v if e == 1 else _libm(pow, xs, itertools.repeat(float(e)))

    f2 = np.zeros(len(xs)) if k == 1 else k * (k - 1) * pw(k - 2)
    return pw(k), k * pw(k - 1), f2


def _sqrt(xs: list[float]):
    for x in xs:
        if x <= 0.0:
            raise ValueError(f"sqrt of non-positive jet value {x}")
    r = [math.sqrt(x) for x in xs]
    return np.array(r), np.array([0.5 / y for y in r]), np.array([-0.25 / (y * x) for x, y in zip(xs, r)])


def _exp(xs: list[float]):
    e = _libm(math.exp, xs)
    return e, e, e


def _sin(xs: list[float]):
    """sin, cos and -sin: the jet of sin; that of cos is (cos, -sin, -cos)."""
    s = _libm(math.sin, xs)
    return s, _libm(math.cos, xs), -s


# the functions of the grammar, by name; `eval_tape` reads cos off `_sin`
FUNCTIONS = {"sin": _sin, "cos": _sin, "exp": _exp, "sqrt": _sqrt}


def _chain(jet, f0, f1, f2):
    """Compose a jet with a function given its value and derivatives at each
    point; the gradient and Hessian terms only if the jet has them."""
    if len(jet) == 1:
        return (f0,)
    g = jet[1]
    out = f0, f1[:, None] * g
    if len(jet) == 2:
        return out
    return out + (f1[:, None, None] * jet[2] + f2[:, None, None] * (g[:, :, None] * g[:, None, :]),)


def _mul(a, b):
    """The product of two jets of one order."""
    if len(a) == 1:
        return (a[0] * b[0],)
    (va, ga), (vb, gb) = a[:2], b[:2]
    out = va * vb, va[:, None] * gb + vb[:, None] * ga
    if len(a) == 2:
        return out
    cross = ga[:, :, None] * gb[:, None, :]
    return out + (va[:, None, None] * b[2] + vb[:, None, None] * a[2] + (cross + cross.transpose(0, 2, 1)),)


# field name -> (values, gradients or None, Hessians or None), with a leading point axis
Fields = dict[str, tuple[np.ndarray, np.ndarray | None, np.ndarray | None]]


def slot_orders(tape: Tape, order: dict[str, int]) -> tuple[int, ...]:
    """The jet order of each slot of `tape` when its fields are wanted at
    the orders {field name: order}.  A slot's order is the largest among
    those of the fields it is a cell of and of the slots that read it: one
    backward pass over the code."""
    orders = [0] * len(tape.code)
    for name, (slots, _) in tape.fields.items():
        for slot in slots:
            orders[slot] = max(orders[slot], order[name])
    for k in reversed(range(len(tape.code))):
        op, a, b = tape.code[k]
        if op not in ("num", "var"):
            orders[a] = max(orders[a], orders[k])
        if op in _PRECEDENCE:
            orders[b] = max(orders[b], orders[k])
    return tuple(orders)


def eval_tape(tape: Tape, points, order, slot_order=None) -> Fields:
    """Run the tape once over a chunk of points (P, d) -> fields, with the
    jets of `order`: the jet order 0, 1 or 2 of every field, or {field name:
    its order}, as `suites.JETS` gives them (for `validate`, the metric and an
    explicit Q at order 0 and f and xi at order 1).  Each slot's jet, the
    tuple of its parts, is of its order in `slot_order`, by default
    `slot_orders(tape, order)`, which a caller that runs the tape over many
    chunks computes once.

    fields[name] = (v, dv, ddv) with v[p, ...] the field at point p, from
    order 1 dv[p, k, ...] = d_k v, and at order 2 ddv[p, k, l, ...] = d_k d_l v;
    a part above the field's order is None.  Values, gradients and Hessians
    are the same bits at every order of the field and of the slots.  Raises
    the first error it meets, the same at every order; over one point, the
    error of scalar evaluation there.  numpy's floating-point warnings are
    off: scalar float arithmetic overflows to inf silently."""
    if isinstance(order, int):
        order = dict.fromkeys(tape.fields, order)
    if slot_order is None:
        slot_order = slot_orders(tape, order)
    points = np.asarray(points, dtype=float)
    npts, d = points.shape
    leads = ((npts,), (npts, d), (npts, d, d))[: max(slot_order) + 1]
    zeros = tuple(np.zeros(lead) for lead in leads[1:])  # the derivatives of a constant
    fields: Fields = {}
    targets: dict[int, list] = {}  # slot -> [(its field's arrays with the cells flattened, cell)]
    for name, (slots, shape) in tape.fields.items():
        arrays = tuple(np.empty(lead + shape) for lead in leads[: order[name] + 1])
        fields[name] = arrays + (None,) * (2 - order[name])
        flat = tuple(a.reshape(a.shape[: a.ndim - len(shape)] + (-1,)) for a in arrays)
        for cell, slot in enumerate(slots):
            targets.setdefault(slot, []).append((flat, cell))

    jets: list = [None] * len(tape.code)
    sines: dict[int, tuple] = {}  # argument slot -> the jet of its sin, while that slot is live
    with np.errstate(all="ignore"):
        for k, (op, a, b) in enumerate(tape.code):
            n = slot_order[k]
            cut = slice(n + 1)  # the parts of the operands' jets that this slot reads
            if op == "num":
                jet = (np.full(npts, float(a)), *zeros[:n])
            elif op == "var":
                jet = (points[:, a],)
                if n:
                    g = np.zeros((npts, d))
                    g[:, a] = 1.0
                    jet += (g, *zeros[1:n])
            elif op == "neg":
                jet = tuple(map(np.negative, jets[a][cut]))
            elif op == "+":
                jet = tuple(map(np.add, jets[a][cut], jets[b][cut]))
            elif op == "-":
                jet = tuple(map(np.subtract, jets[a][cut], jets[b][cut]))
            elif op == "*":
                jet = _mul(jets[a][cut], jets[b][cut])
            elif op == "/":  # a times the reciprocal of b
                jet = _mul(jets[a][cut], _chain(jets[b][cut], *_reciprocal(jets[b][0].tolist())))
            elif op == "^" and b == 0:
                jet = (np.ones(npts), *zeros[:n])
            elif op in ("sin", "cos"):  # one libm (sin, cos) pair per argument slot
                if a not in sines:
                    sines[a] = _sin(jets[a][0].tolist())
                s, c, minus_s = sines[a]
                arg = jets[a][cut]
                jet = _chain(arg, s, c, minus_s) if op == "sin" else _chain(arg, c, minus_s, -c)
            else:
                v = jets[a][0]
                xs = v.tolist()
                jet = _chain(jets[a][cut], *(_power(b, v, xs) if op == "^" else FUNCTIONS[op](xs)))
            jets[k] = jet
            for flat, cell in targets.get(k, ()):
                for target, part in zip(flat, jet):
                    target[..., cell] = part
            for slot in tape.release[k]:
                jets[slot] = None
                sines.pop(slot, None)
    return fields


# -- structure definition files ------------------------------------------------


class SchemaError(ValueError):
    """Malformed structure-definition document."""


class StructureDef(NamedTuple):
    """A chart manifold whose metric, f-tensor, Reeb field and (when given) Q
    are compiled into one tape, with the fields "metric", "f", "xi" and "q"."""

    name: str
    n: int
    domain: tuple[tuple[float, float], ...]
    tape: Tape

    @property
    def dim(self) -> int:
        return 2 * self.n + 1

    def contains(self, points) -> np.ndarray:
        """Whether each point (..., d) lies in the closed domain box; NaN does not."""
        lo, hi = np.array(self.domain).T
        return ((lo <= points) & (points <= hi)).all(axis=-1)


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise SchemaError(message)


def _cell(cell, what: str) -> str:
    _require(isinstance(cell, str), f"{what} must be an expression string, got {cell!r}")
    return cell


def _matrix(rows, dim, what: str) -> list[list[str]]:
    _require(isinstance(rows, list) and len(rows) == dim, f"{what} must be a {dim}x{dim} matrix")
    out = []
    for i, row in enumerate(rows):
        _require(isinstance(row, list) and len(row) == dim, f"{what} row {i} must have {dim} entries")
        out.append([_cell(cell, f"{what} entry [{i}][{j}]") for j, cell in enumerate(row)])
    return out


def _finite_number(v) -> bool:
    """A number, not a bool, that is finite as a float."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        return False
    try:
        return math.isfinite(float(v))
    except OverflowError:  # an integer beyond the float range
        return False


_FIELDS = ("name", "n", "coords", "domain", "metric", "f", "xi")  # and the optional "Q"


def load_structure_def(source) -> StructureDef:
    """Load a structure definition from JSON bytes/text or a parsed dict."""
    if isinstance(source, (bytes, str)):
        try:
            doc = json.loads(source)
        except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
            raise SchemaError(f"invalid JSON: {exc}") from exc
    else:
        doc = source
    _require(isinstance(doc, dict), "document must be a JSON object")
    for key in doc:
        _require(key in (*_FIELDS, "Q"), f"unknown field {key!r}")
    for key in _FIELDS:
        _require(key in doc, f"missing field {key!r}")
    name = doc["name"]
    _require(isinstance(name, str), "name must be a string")
    n = doc["n"]
    # a bool is an int to Python
    _require(isinstance(n, int) and not isinstance(n, bool) and n >= 1, "n must be a positive integer")
    dim = 2 * n + 1
    coords = doc["coords"]
    _require(isinstance(coords, list) and len(coords) == dim, f"coords must list {dim} names for n={n}")
    _require(all(isinstance(c, str) for c in coords), "coordinate names must be strings")
    for c in coords:  # one identifier to the lexer, and not the name of a function
        token = _TOKEN_RE.fullmatch(c)
        _require(token is not None and token.lastgroup == "name" and c not in FUNCTIONS,
                 f"coordinate name {c!r} must be an identifier other than {', '.join(FUNCTIONS)}")
    _require(len(set(coords)) == dim, "coordinate names must be distinct")
    domain = doc["domain"]
    _require(isinstance(domain, list) and len(domain) == dim, f"domain must list {dim} intervals")
    box = []
    for iv in domain:
        _require(isinstance(iv, list) and len(iv) == 2, f"bad interval {iv!r}")
        _require(all(map(_finite_number, iv)), f"interval bounds must be finite numbers: {iv!r}")
        lo, hi = float(iv[0]), float(iv[1])
        _require(lo < hi, f"bad interval {iv!r}")
        _require(math.isfinite(hi - lo), f"interval width must be finite: {iv!r}")
        box.append((lo, hi))

    # Only the upper triangle of the metric is read; the lower triangle must
    # match the upper textually or be left blank.
    metric = _matrix(doc["metric"], dim, "metric")
    for i in range(dim):
        for j in range(i):
            if metric[i][j].strip() not in ("", metric[j][i].strip()):
                raise SchemaError(f"metric entry [{i}][{j}] must be empty or match [{j}][{i}] textually")
            metric[i][j] = metric[j][i]

    fields = {"metric": metric, "f": _matrix(doc["f"], dim, "f")}
    xi_rows = doc["xi"]
    _require(isinstance(xi_rows, list) and len(xi_rows) == dim, f"xi must have {dim} entries")
    fields["xi"] = [_cell(cell, f"xi entry [{i}]") for i, cell in enumerate(xi_rows)]
    if doc.get("Q") is not None:
        fields["q"] = _matrix(doc["Q"], dim, "Q")
    return StructureDef(name=name, n=n, domain=tuple(box), tape=compile_tape(fields, coords))
