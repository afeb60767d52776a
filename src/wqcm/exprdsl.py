"""Expression DSL for tensor component functions.

Closed-form expressions over the chart coordinates with the grammar

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' ['-'] INTEGER)*
    atom   := NUMBER | NAME | NAME '(' expr ')' | '(' expr ')'

where NAME is either a declared coordinate or one of sin, cos, exp, sqrt.
Exponents must be integer literals.  No syntax tree is built: `compile_tape`
parses the text of every cell straight into one hash-consed flat tape, each
distinct subexpression once, and `eval_tape` runs it at a point, giving the
value, gradient and Hessian of every cell.

Also home of the structure-definition file format: a JSON document holding
the metric, the fundamental (1,1)-tensor and the characteristic vector
field as expression strings.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass

import numpy as np


FUNCTIONS = ("sin", "cos", "exp", "sqrt")


class ExprSyntaxError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


# -- lexer --------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"(?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()])"
    r"|(?P<ws>\s+)"
)


@dataclass(frozen=True)
class _Token:
    kind: str  # num | name | op | end
    text: str
    line: int
    col: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ExprSyntaxError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        lexeme = m.group()
        if kind != "ws":
            tokens.append(_Token(kind, lexeme, line, col))
        newlines = lexeme.count("\n")
        if newlines:
            line += newlines
            col = len(lexeme) - lexeme.rfind("\n")
        else:
            col += len(lexeme)
        pos = m.end()
    tokens.append(_Token("end", "", line, col))
    return tokens


# -- parser and tape compiler --------------------------------------------------
#
# A tape is a flat list of instructions in which each distinct subexpression of
# the compiled fields appears once.  Instruction k is a triple (op, a, b) whose
# result goes to slot k: a is the slot of the (first) argument, or the number
# of "num" and the coordinate index of "var"; b is the second argument slot of
# + - * /, the exponent of "^", and None otherwise.  Each parser rule emits the
# instructions of what it read, operands before their operator, and returns
# the slot of its result.  Running the tape at a point computes the jet of every
# slot in order: the value (a Python float, so a zero division, a `sqrt` domain
# error or an overflow raises), the gradient (d,) and the full Hessian (d, d).
# Every update adds symmetric terms (`cross + cross.T`, `outer(g, g)`) to
# symmetric matrices, and IEEE sums and products commute, so Hessians are
# exactly symmetric.  The formulas and their operand order are fixed: changing
# them changes the last bits of every report.

# Each level of parentheses or calls recurses through six parser calls; past
# this depth a cell is an input error rather than a RecursionError.
MAX_NESTING = 100


class _Parser:
    def __init__(self, text: str, coord_index: dict[str, int], emit):
        if not text.strip():
            raise ExprSyntaxError("empty expression", 1, 1)
        self.tokens = _tokenize(text)
        self.pos = 0
        self.coord_index = coord_index
        self.emit = emit
        self.depth = 0

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def at_op(self, ops: str) -> bool:
        tok = self.tokens[self.pos]
        return tok.kind == "op" and tok.text in ops

    def expect_op(self, op: str) -> None:
        tok = self.next()
        if tok.kind != "op" or tok.text != op:
            raise ExprSyntaxError(f"expected {op!r}, found {tok.text!r}", tok.line, tok.col)

    def parse(self) -> int:
        slot = self.expr()
        tok = self.tokens[self.pos]
        if tok.kind != "end":
            raise ExprSyntaxError(f"trailing input {tok.text!r}", tok.line, tok.col)
        return slot

    def expr(self) -> int:
        slot = self.term()
        while self.at_op("+-"):
            op = self.next().text
            slot = self.emit(op, slot, self.term())
        return slot

    def term(self) -> int:
        slot = self.unary()
        while self.at_op("*/"):
            op = self.next().text
            slot = self.emit(op, slot, self.unary())
        return slot

    def unary(self) -> int:
        signs = 0
        while self.at_op("-"):
            self.next()
            signs += 1
        slot = self.power()
        for _ in range(signs):
            slot = self.emit("neg", slot, None)
        return slot

    def power(self) -> int:
        slot = self.atom()
        while self.at_op("^"):
            self.next()
            sign = 1
            if self.at_op("-"):
                self.next()
                sign = -1
            tok = self.next()
            if tok.kind != "num" or not re.fullmatch(r"\d+", tok.text):
                raise ExprSyntaxError(f"non-integer exponent {tok.text!r}", tok.line, tok.col)
            slot = self.emit("^", slot, sign * int(tok.text))
        return slot

    def nested(self, tok: _Token) -> int:
        """The parenthesized expression that follows `tok`, one level deeper."""
        if self.depth == MAX_NESTING:
            raise ExprSyntaxError("expression nested too deeply", tok.line, tok.col)
        self.depth += 1
        slot = self.expr()
        self.expect_op(")")
        self.depth -= 1
        return slot

    def atom(self) -> int:
        tok = self.next()
        if tok.kind == "num":
            return self.emit("num", float(tok.text), None)
        if tok.kind == "name":
            if self.at_op("("):
                if tok.text not in FUNCTIONS:
                    raise ExprSyntaxError(f"unknown function {tok.text!r}", tok.line, tok.col)
                return self.emit(tok.text, self.nested(self.next()), None)
            if tok.text not in self.coord_index:
                raise ExprSyntaxError(f"unknown identifier {tok.text!r}", tok.line, tok.col)
            return self.emit("var", self.coord_index[tok.text], None)
        if tok.kind == "op" and tok.text == "(":
            return self.nested(tok)
        raise ExprSyntaxError(f"unexpected token {tok.text!r}", tok.line, tok.col)


@dataclass(frozen=True)
class Tape:
    """Compiled fields: `code` holds the instructions, `fields` maps each field
    name to its output slots (one per cell, in row-major order) and its shape."""

    code: tuple[tuple, ...]
    fields: dict[str, tuple[tuple[int, ...], tuple[int, ...]]]


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
            cell_slots[text] = _Parser(text, coord_index, emit).parse()
        return cell_slots[text]

    out = {}
    for name, texts in fields.items():
        cells = np.array(texts, dtype=object)
        out[name] = (tuple(cell(t) for t in cells.flat), cells.shape)
    return Tape(tuple(code), out)


def _chain(g, h, f0: float, f1: float, f2: float):
    """Compose a jet (g, h) with a scalar function given its value and derivatives."""
    return f0, f1 * g, f1 * h + f2 * np.multiply.outer(g, g)


def _mul(va, ga, ha, vb, gb, hb):
    cross = np.multiply.outer(ga, gb)
    return va * vb, va * gb + vb * ga, va * hb + vb * ha + (cross + cross.T)


def eval_tape(tape: Tape, point) -> dict[str, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Run the tape once at a point -> {field: (v, dv, ddv)} with
    dv[k, ...] = d_k v and ddv[k, l, ...] = d_k d_l v."""
    point = np.asarray(point, dtype=float)
    d = point.shape[0]
    zero_g, zero_h = np.zeros(d), np.zeros((d, d))
    val: list[float] = []
    grad: list[np.ndarray] = []
    hess: list[np.ndarray] = []
    for op, a, b in tape.code:
        if op == "num":
            jet = float(a), zero_g, zero_h
        elif op == "var":
            g = np.zeros(d)
            g[a] = 1.0
            jet = float(point[a]), g, zero_h
        elif op == "neg":
            jet = -val[a], -grad[a], -hess[a]
        elif op == "+":
            jet = val[a] + val[b], grad[a] + grad[b], hess[a] + hess[b]
        elif op == "-":
            jet = val[a] - val[b], grad[a] - grad[b], hess[a] - hess[b]
        elif op == "*":
            jet = _mul(val[a], grad[a], hess[a], val[b], grad[b], hess[b])
        elif op == "/":  # a times the reciprocal of b
            v = val[b]
            if v == 0.0:
                raise ZeroDivisionError("jet division by zero value")
            inv = _chain(grad[b], hess[b], 1.0 / v, -1.0 / (v * v), 2.0 / (v * v * v))
            jet = _mul(val[a], grad[a], hess[a], *inv)
        elif op == "^":
            v, k = val[a], b
            if k == 0:
                jet = 1.0, zero_g, zero_h
            elif k < 0 and v == 0.0:
                raise ZeroDivisionError("negative power of zero jet value")
            else:
                f2 = 0.0 if k == 1 else k * (k - 1) * v ** (k - 2)
                jet = _chain(grad[a], hess[a], v**k, k * v ** (k - 1), f2)
        elif op == "sqrt":
            v = val[a]
            if v <= 0.0:
                raise ValueError(f"sqrt of non-positive jet value {v}")
            r = math.sqrt(v)
            jet = _chain(grad[a], hess[a], r, 0.5 / r, -0.25 / (r * v))
        elif op == "exp":
            e = math.exp(val[a])
            jet = _chain(grad[a], hess[a], e, e, e)
        elif op == "sin":
            s, c = math.sin(val[a]), math.cos(val[a])
            jet = _chain(grad[a], hess[a], s, c, -s)
        else:  # cos
            s, c = math.sin(val[a]), math.cos(val[a])
            jet = _chain(grad[a], hess[a], c, -s, -c)
        val.append(jet[0])
        grad.append(jet[1])
        hess.append(jet[2])

    out = {}
    for name, (slots, shape) in tape.fields.items():
        v = np.array([val[i] for i in slots]).reshape(shape)
        dv = np.stack([grad[i] for i in slots], axis=-1).reshape((d,) + shape)
        ddv = np.stack([hess[i] for i in slots], axis=-1).reshape((d, d) + shape)
        out[name] = v, dv, ddv
    return out


# -- structure definition files ------------------------------------------------


class SchemaError(ValueError):
    """Malformed structure-definition document."""


@dataclass(frozen=True)
class StructureDef:
    """A chart manifold whose metric, f-tensor, Reeb field and (when given) Q
    are compiled into one tape, with the fields "metric", "f", "xi" and "q"."""

    name: str
    n: int
    coords: tuple[str, ...]
    domain: tuple[tuple[float, float], ...]
    tape: Tape

    @property
    def dim(self) -> int:
        return 2 * self.n + 1

    def contains(self, point: np.ndarray) -> bool:
        return all(lo <= x <= hi for x, (lo, hi) in zip(point, self.domain))


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
    for key in ("name", "n", "coords", "domain", "metric", "f", "xi"):
        _require(key in doc, f"missing field {key!r}")
    name = doc["name"]
    n = doc["n"]
    # a bool is an int to Python
    _require(isinstance(n, int) and not isinstance(n, bool) and n >= 1, "n must be a positive integer")
    dim = 2 * n + 1
    coords = doc["coords"]
    _require(isinstance(coords, list) and len(coords) == dim, f"coords must list {dim} names for n={n}")
    _require(all(isinstance(c, str) for c in coords), "coordinate names must be strings")
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
    return StructureDef(name=str(name), n=n, coords=tuple(coords), domain=tuple(box), tape=compile_tape(fields, coords))
