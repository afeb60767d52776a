"""Workloads of the wqcm benchmark and the generator of the validate-heavy input.

Each workload is one `wqcm` command line, repeated with a fresh non-negative
`--seed` per command.  The benchmark seed picks those command seeds and, for
validate-heavy, the padding constants of the generated structure file, so a
seed reproduces every input.  No command of any workload is expected to fail.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

# Command seeds come from this range.  A negative --seed is an input error
# the CLI does not handle yet, so the range stays non-negative.
SEED_RANGE = (0, 10_000)

# Depth of the validate-heavy input: every nonzero cell is multiplied by this
# many value-preserving factors (sin(u)^2 + cos(u)^2).
HEAVY_DEPTH = 4
HEAVY_POINTS = 256


@dataclass(frozen=True)
class Workload:
    name: str
    points: int
    # Catalog key, n and s of a built-in structure; None for a workload that
    # validates the generated validate-heavy file.
    builtin: tuple[str, int, float | None] | None

    def source(self, input_path: Path | None) -> str:
        if self.builtin is None:
            return str(input_path)
        key, n, s = self.builtin
        return f"builtin:{key}" if s is None else f"builtin:{key}?n={n},s={s:g}"

    def setup_args(self, input_path: Path | None) -> list[str]:
        """Arguments of the set-up probe in run.py."""
        if self.builtin is None:
            return ["file", str(input_path)]
        key, n, s = self.builtin
        return ["builtin", key, str(n), "-" if s is None else repr(s)]

    def argv(self, source: str, seed: int, output: Path) -> list[str]:
        """The `wqcm` arguments of one command."""
        head = ["check", "all", source] if self.builtin else ["validate", source]
        return head + [
            "--points", str(self.points),
            "--seed", str(seed),
            "--format", "json",
            "--no-timestamp",
            "--output", str(output),
        ]


# Why each workload was chosen is recorded in BENCHMARK.json.  In short:
# check-sasakian runs every gated check loop, check-weak shares its chart but
# skips the gated loops, and validate-heavy spends its time in jet evaluation.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("check-sasakian", 32, ("sasakian-r7", 1, None)),
        Workload("check-weak", 32, ("scaled", 3, 2.0)),
        Workload("validate-heavy", HEAVY_POINTS, None),
    )
}


# -- expected outputs -----------------------------------------------------------

_EXPECTED = json.loads((Path(__file__).parent / "expected.json").read_text())


def expected_signature(workload: Workload) -> list[tuple[str, str, int]]:
    """(id, verdict, points) of each check, in report order."""
    return [tuple(c) for c in _EXPECTED[workload.name]]


def signature(report: dict) -> list[tuple[str, str, int]]:
    return [(c["id"], c["verdict"], c["points"]) for c in report["checks"]]


# -- validate-heavy input ---------------------------------------------------------
#
# Expressions are built as small trees that mirror the DSL's node types
# (num, var, neg, bin, pow, call), so the generator can report the node
# count of the file it writes without importing the program under test.


def _num(v):
    return ("num", v)


def _var(name):
    return ("var", name)


def _bin(op, a, b):
    return ("bin", op, a, b)


def _render(e) -> str:
    kind = e[0]
    if kind == "num":
        return repr(float(e[1]))
    if kind == "var":
        return e[1]
    if kind == "neg":
        return f"(-{_render(e[1])})"
    if kind == "bin":
        return f"({_render(e[2])} {e[1]} {_render(e[3])})"
    if kind == "pow":
        return f"({_render(e[1])}^{e[2]})"
    if kind == "call":
        return f"{e[1]}({_render(e[2])})"
    raise ValueError(kind)


def _nodes(e) -> int:
    kind = e[0]
    if kind in ("num", "var"):
        return 1
    if kind in ("neg", "pow"):
        return 1 + _nodes(e[1])
    if kind == "call":
        return 1 + _nodes(e[2])
    return 1 + _nodes(e[2]) + _nodes(e[3])


def _sasakian_r7():
    """sasakian-r7 as written by the built-in catalog: g = eta (x) eta +
    (1/4) sum (dx_i^2 + dy_i^2) with eta = (1/2)(dz - sum y_i dx_i),
    f(d/dx_i) = -d/dy_i, f(d/dy_i) = d/dx_i + y_i d/dz, xi = 2 d/dz."""
    n, dim = 3, 7
    xs = [f"x{i + 1}" for i in range(n)]
    ys = [f"y{i + 1}" for i in range(n)]
    coords = xs + ys + ["z"]
    quarter = _bin("/", _num(1), _num(4))
    metric = [[None] * dim for _ in range(dim)]
    for i in range(n):
        for j in range(i, n):
            cross = _bin("/", _bin("*", _var(ys[i]), _var(ys[j])), _num(4))
            metric[i][j] = _bin("+", cross, quarter) if i == j else cross
        metric[i][dim - 1] = _bin("/", ("neg", _var(ys[i])), _num(4))
        metric[n + i][n + i] = quarter
    metric[dim - 1][dim - 1] = quarter
    f = [[None] * dim for _ in range(dim)]
    for i in range(n):
        f[n + i][i] = ("neg", _num(1))
        f[i][n + i] = _num(1)
        f[dim - 1][n + i] = _var(ys[i])
    xi = [None] * dim
    xi[dim - 1] = _num(2)
    return coords, metric, f, xi


def heavy_structure(seed: int) -> tuple[dict, int]:
    """sasakian-r7 with every nonzero cell multiplied by HEAVY_DEPTH seeded factors
    sin(a*v + b)^2 + cos(a*v + b)^2, which equal 1, so every value of the
    structure is unchanged up to rounding.  Returns the document and the
    total expression node count; both the count and the evaluation cost are
    the same for every seed, only the constants and coordinates differ."""
    rng = random.Random(seed)
    coords, metric, f, xi = _sasakian_r7()

    def pad(cell):
        if cell is None:
            return _num(0)
        for _ in range(HEAVY_DEPTH):
            a = round(rng.uniform(0.5, 2.0), 4)
            b = round(rng.uniform(0.1, 1.0), 4)
            u = _bin("+", _bin("*", _num(a), _var(rng.choice(coords))), _num(b))
            one = _bin("+", ("pow", ("call", "sin", u), 2), ("pow", ("call", "cos", u), 2))
            cell = _bin("*", cell, one)
        return cell

    dim = len(coords)
    metric = [[pad(metric[i][j]) if j >= i else None for j in range(dim)] for i in range(dim)]
    f = [[pad(c) for c in row] for row in f]
    xi = [pad(c) for c in xi]
    upper = [c for row in metric for c in row if c is not None]
    nodes = sum(_nodes(c) for c in upper + [c for row in f for c in row] + xi)
    doc = {
        "name": f"sasakian-r7-padded-d{HEAVY_DEPTH}",
        "n": 3,
        "coords": coords,
        "domain": [[-1.0, 1.0]] * dim,
        # Only the upper triangle is read; lower cells stay blank.
        "metric": [[_render(c) if c is not None else "" for c in row] for row in metric],
        "f": [[_render(c) for c in row] for row in f],
        "xi": [_render(c) for c in xi],
    }
    return doc, nodes
