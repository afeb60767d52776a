"""Expression DSL for tensor component functions.

Closed-form expressions over the chart coordinates with the grammar

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' ['-'] INTEGER)*
    atom   := NUMBER | NAME | NAME '(' expr ')' | '(' expr ')'

where NAME is either a declared coordinate or one of sin, cos, exp, sqrt.
Exponents must be integer literals.  Evaluation runs over Jet2 arithmetic,
so every expression yields its value, gradient and Hessian at a point.

Also home of the structure-definition file format: a JSON document holding
the metric, the fundamental (1,1)-tensor and the characteristic vector
field as expression strings.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from . import jet
from .jet import Jet2

FUNCTIONS = ("sin", "cos", "exp", "sqrt")


class ExprSyntaxError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


# -- AST ----------------------------------------------------------------------


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str
    index: int


@dataclass(frozen=True)
class Neg:
    arg: "Expr"


@dataclass(frozen=True)
class Bin:
    op: str  # one of + - * /
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Pow:
    base: "Expr"
    exponent: int


@dataclass(frozen=True)
class Call:
    fn: str
    arg: "Expr"


Expr = Union[Num, Var, Neg, Bin, Pow, Call]


def to_str(e: Expr) -> str:
    """Render an AST back to parseable text (fully parenthesized)."""
    if isinstance(e, Num):
        return repr(e.value)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Neg):
        return f"(-{to_str(e.arg)})"
    if isinstance(e, Bin):
        return f"({to_str(e.left)} {e.op} {to_str(e.right)})"
    if isinstance(e, Pow):
        exp = str(e.exponent) if e.exponent >= 0 else f"-{-e.exponent}"
        return f"({to_str(e.base)}^{exp})"
    if isinstance(e, Call):
        return f"{e.fn}({to_str(e.arg)})"
    raise TypeError(f"not an expression node: {e!r}")


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


# -- parser -------------------------------------------------------------------


class _Parser:
    def __init__(self, text: str, coords: list[str]):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.coord_index = {name: i for i, name in enumerate(coords)}

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str) -> None:
        tok = self.next()
        if tok.kind != "op" or tok.text != op:
            raise ExprSyntaxError(f"expected {op!r}, found {tok.text!r}", tok.line, tok.col)

    def parse(self) -> Expr:
        e = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ExprSyntaxError(f"trailing input {tok.text!r}", tok.line, tok.col)
        return e

    def expr(self) -> Expr:
        e = self.term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.next().text
            e = Bin(op, e, self.term())
        return e

    def term(self) -> Expr:
        e = self.unary()
        while self.peek().kind == "op" and self.peek().text in "*/":
            op = self.next().text
            e = Bin(op, e, self.unary())
        return e

    def unary(self) -> Expr:
        if self.peek().kind == "op" and self.peek().text == "-":
            self.next()
            return Neg(self.unary())
        return self.power()

    def power(self) -> Expr:
        e = self.atom()
        while self.peek().kind == "op" and self.peek().text == "^":
            self.next()
            sign = 1
            if self.peek().kind == "op" and self.peek().text == "-":
                self.next()
                sign = -1
            tok = self.next()
            if tok.kind != "num" or not re.fullmatch(r"\d+", tok.text):
                raise ExprSyntaxError(
                    f"non-integer exponent {tok.text!r}", tok.line, tok.col
                )
            e = Pow(e, sign * int(tok.text))
        return e

    def atom(self) -> Expr:
        tok = self.next()
        if tok.kind == "num":
            return Num(float(tok.text))
        if tok.kind == "name":
            if self.peek().kind == "op" and self.peek().text == "(":
                if tok.text not in FUNCTIONS:
                    raise ExprSyntaxError(f"unknown function {tok.text!r}", tok.line, tok.col)
                self.next()
                arg = self.expr()
                self.expect_op(")")
                return Call(tok.text, arg)
            if tok.text not in self.coord_index:
                raise ExprSyntaxError(f"unknown identifier {tok.text!r}", tok.line, tok.col)
            return Var(tok.text, self.coord_index[tok.text])
        if tok.kind == "op" and tok.text == "(":
            e = self.expr()
            self.expect_op(")")
            return e
        raise ExprSyntaxError(f"unexpected token {tok.text!r}", tok.line, tok.col)


def parse(text: str, coords: list[str] | tuple[str, ...]) -> Expr:
    if not text.strip():
        raise ExprSyntaxError("empty expression", 1, 1)
    return _Parser(text, list(coords)).parse()


# -- evaluation ---------------------------------------------------------------

_JET_FNS = {"sin": jet.sin, "cos": jet.cos, "exp": jet.exp, "sqrt": jet.sqrt}


def eval_jet(e: Expr, point: np.ndarray) -> Jet2:
    """Evaluate an expression over jet arithmetic at a point."""
    point = np.asarray(point, dtype=float)
    dim = point.shape[0]

    def ev(node: Expr) -> Jet2:
        if isinstance(node, Num):
            return Jet2.constant(node.value, dim)
        if isinstance(node, Var):
            return Jet2.coordinate(point, node.index)
        if isinstance(node, Neg):
            return -ev(node.arg)
        if isinstance(node, Bin):
            a, b = ev(node.left), ev(node.right)
            if node.op == "+":
                return a + b
            if node.op == "-":
                return a - b
            if node.op == "*":
                return a * b
            return a / b
        if isinstance(node, Pow):
            return jet.powi(ev(node.base), node.exponent)
        if isinstance(node, Call):
            return _JET_FNS[node.fn](ev(node.arg))
        raise TypeError(f"not an expression node: {node!r}")

    return ev(e)


def eval_field(exprs, point: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Evaluate a nested tuple of expressions (a scalar, vector or matrix field)
    at a point -> (v, dv, ddv) with dv[k, ...] = d_k v and ddv[k, l, ...] = d_k d_l v.

    Equal expressions are evaluated once (AST nodes are frozen and hashable),
    so the mirrored metric triangle and repeated constant cells cost nothing."""
    point = np.asarray(point, dtype=float)
    cells = np.array(exprs, dtype=object)
    index: dict[Expr, int] = {}
    slots = [index.setdefault(e, len(index)) for e in cells.flat]
    jets = [eval_jet(e, point) for e in index]
    d = point.shape[0]
    v = np.array([jets[i].value for i in slots]).reshape(cells.shape)
    dv = np.stack([jets[i].grad for i in slots], axis=-1).reshape((d,) + cells.shape)
    ddv = np.stack([jets[i].hess for i in slots], axis=-1).reshape((d, d) + cells.shape)
    return v, dv, ddv


# -- structure definition files ------------------------------------------------


class SchemaError(ValueError):
    """Malformed structure-definition document."""


@dataclass(frozen=True)
class StructureDef:
    """A chart manifold with expression-valued metric, f-tensor and Reeb field."""

    name: str
    n: int
    coords: tuple[str, ...]
    domain: tuple[tuple[float, float], ...]
    metric: tuple[tuple[Expr, ...], ...]
    f: tuple[tuple[Expr, ...], ...]
    xi: tuple[Expr, ...]
    q: Optional[tuple[tuple[Expr, ...], ...]] = field(default=None)

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


def _parse_matrix(rows, coords, dim, what: str) -> tuple[tuple[Expr, ...], ...]:
    _require(isinstance(rows, list) and len(rows) == dim, f"{what} must be a {dim}x{dim} matrix")
    out = []
    for i, row in enumerate(rows):
        _require(isinstance(row, list) and len(row) == dim, f"{what} row {i} must have {dim} entries")
        out.append(tuple(parse(_cell(cell, f"{what} entry [{i}][{j}]"), coords) for j, cell in enumerate(row)))
    return tuple(out)


def load_structure_def(source) -> StructureDef:
    """Load a structure definition from JSON bytes/text or a parsed dict."""
    if isinstance(source, (bytes, str)):
        try:
            doc = json.loads(source)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"invalid JSON: {exc}") from exc
    else:
        doc = source
    _require(isinstance(doc, dict), "document must be a JSON object")
    for key in ("name", "n", "coords", "domain", "metric", "f", "xi"):
        _require(key in doc, f"missing field {key!r}")
    name = doc["name"]
    n = doc["n"]
    _require(isinstance(n, int) and n >= 1, "n must be a positive integer")
    dim = 2 * n + 1
    coords = doc["coords"]
    _require(
        isinstance(coords, list) and len(coords) == dim,
        f"coords must list {dim} names for n={n}",
    )
    _require(len(set(coords)) == dim, "coordinate names must be distinct")
    domain = doc["domain"]
    _require(isinstance(domain, list) and len(domain) == dim, f"domain must list {dim} intervals")
    box = []
    for iv in domain:
        _require(isinstance(iv, list) and len(iv) == 2 and iv[0] < iv[1], f"bad interval {iv!r}")
        box.append((float(iv[0]), float(iv[1])))

    # Only the upper triangle of the metric is read; the lower triangle must
    # match the upper textually or be left blank.
    rows = doc["metric"]
    _require(isinstance(rows, list) and len(rows) == dim, f"metric must be a {dim}x{dim} matrix")
    metric: list[list[Expr]] = [[None] * dim for _ in range(dim)]
    for i, row in enumerate(rows):
        _require(isinstance(row, list) and len(row) == dim, f"metric row {i} must have {dim} entries")
        for j in range(i, dim):
            metric[i][j] = parse(_cell(row[j], f"metric entry [{i}][{j}]"), coords)
    for i in range(dim):
        for j in range(i):
            cell = _cell(rows[i][j], f"metric entry [{i}][{j}]")
            if cell.strip() != "" and cell.strip() != rows[j][i].strip():
                raise SchemaError(
                    f"metric entry [{i}][{j}] must be empty or match [{j}][{i}] textually"
                )
            metric[i][j] = metric[j][i]

    f = _parse_matrix(doc["f"], coords, dim, "f")
    xi_rows = doc["xi"]
    _require(isinstance(xi_rows, list) and len(xi_rows) == dim, f"xi must have {dim} entries")
    xi = tuple(parse(_cell(cell, f"xi entry [{i}]"), coords) for i, cell in enumerate(xi_rows))
    q = _parse_matrix(doc["Q"], coords, dim, "Q") if doc.get("Q") is not None else None

    return StructureDef(
        name=str(name),
        n=n,
        coords=tuple(coords),
        domain=tuple(box),
        metric=tuple(tuple(r) for r in metric),
        f=f,
        xi=xi,
        q=q,
    )


def structure_to_dict(sdef: StructureDef) -> dict:
    doc = {
        "name": sdef.name,
        "n": sdef.n,
        "coords": list(sdef.coords),
        "domain": [[lo, hi] for lo, hi in sdef.domain],
        "metric": [[to_str(e) for e in row] for row in sdef.metric],
        "f": [[to_str(e) for e in row] for row in sdef.f],
        "xi": [to_str(e) for e in sdef.xi],
    }
    if sdef.q is not None:
        doc["Q"] = [[to_str(e) for e in row] for row in sdef.q]
    return doc


def dumps(sdef: StructureDef) -> str:
    return json.dumps(structure_to_dict(sdef), indent=2)
