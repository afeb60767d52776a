"""Built-in catalog of structure definitions.

Every built-in is left-invariant data in one global chart: a coframe theta^a,
its inverse frame E_a, and constant components G_ab, F^a_b and xi^a in that
frame.  `_frame_doc` writes the cells g_ij = theta^a_i G_ab theta^b_j,
f^i_j = E_a^i F^a_b theta^b_j and xi^i = E_a^i xi^a.  Three families:

  * "sasakian-r{2n+1}", n = 1 .. MAX_N -- the standard Sasakian structure
    on the Heisenberg group R^{2n+1}: coframe dx_i, dy_i, dz - sum_i y_i dx_i
    (= 2 eta), frame d/dx_i + y_i d/dz, d/dy_i, d/dz, G = id/4,
    F^{x_i}_{y_i} = 1 = -F^{y_i}_{x_i} and xi = 2 E_z: the sign of F for
    which d eta = Phi.
  * "scaled" (parameters n, s) -- the same data with F scaled by s.  A
    genuine weak structure with Q = s^2 id + (1 - s^2) eta (x) xi.
  * "flat-const" -- Euclidean R^3: the identity frame, G = id,
    F^x_y = 1 = -F^y_x and xi = E_z.  It fails the contact condition
    (d eta = 0) while satisfying the weak axioms.

`document` gives a built-in as its JSON structure-definition document, and
`catalog` compiles that document.
"""

from __future__ import annotations

import math

from .exprdsl import StructureDef, load_structure_def

DEFAULT_DOMAIN_HALF_WIDTH = 1.0
MAX_N = 3  # dimension 7; keeps full suite runs fast
_SASAKIAN = {f"sasakian-r{2 * n + 1}": n for n in range(1, MAX_N + 1)}
# the parameters each key takes, with their types; the other keys take none
PARAMETERS = {"scaled": {"n": int, "s": float}}


def keys() -> list[str]:
    return [*_SASAKIAN, "scaled", "flat-const"]


def _fmt(x: float) -> str:
    return repr(float(x))


def _frame_doc(name: str, coords: list[str], coframe, frame, G, F, xi) -> dict:
    """The document of left-invariant data on the chart `coords`, given as
    cell text: coframe[a][i] = theta^a_i, frame[i][a] = E_a^i (so
    theta E = id) and the components G[a][b], F[a][b] and xi[a] in the
    frame.  A cell is the sum of products of parenthesised factors, less
    the products with a "0" factor and the "1" factors."""
    span = range(len(coords))
    pairs_g, pairs_f = ([(a, b) for a in span for b in span if m[a][b] != "0"] for m in (G, F))

    def cell(products) -> str:
        terms = ["*".join(f"({t})" for t in p if t != "1") or "1" for p in products if "0" not in p]
        return " + ".join(terms) or "0"

    def g(i: int, j: int) -> str:  # the same text at (i, j) and (j, i)
        return cell((coframe[a][min(i, j)], G[a][b], coframe[b][max(i, j)]) for a, b in pairs_g)

    w = DEFAULT_DOMAIN_HALF_WIDTH
    return {
        "name": name,
        "n": len(coords) // 2,
        "coords": coords,
        "domain": [[-w, w]] * len(coords),
        "metric": [[g(i, j) for j in span] for i in span],
        "f": [[cell((frame[i][a], F[a][b], coframe[b][j]) for a, b in pairs_f) for j in span] for i in span],
        "xi": [cell((frame[i][a], xi[a]) for a in span) for i in span],
    }


def _identity(dim: int, one: str = "1") -> list[list[str]]:
    return [[one if i == j else "0" for j in range(dim)] for i in range(dim)]


def _sasakian_doc(n: int, s: float = 1.0, name: str | None = None) -> dict:
    """The Heisenberg group R^{2n+1}, with F scaled by s."""
    dim = 2 * n + 1
    xs, ys = [f"x{i + 1}" for i in range(n)], [f"y{i + 1}" for i in range(n)]
    coframe, frame, F = _identity(dim), _identity(dim), [["0"] * dim for _ in range(dim)]
    coframe[-1][:n] = [f"-{y}" for y in ys]  # theta^z = dz - sum_i y_i dx_i
    frame[-1][:n] = ys  # E_{x_i} = d/dx_i + y_i d/dz
    for i in range(n):
        F[i][n + i], F[n + i][i] = _fmt(s), _fmt(-s)
    return _frame_doc(name or f"sasakian-r{dim}", xs + ys + ["z"], coframe, frame, _identity(dim, "1/4"), F,
                      ["0"] * (dim - 1) + ["2"])


def _flat_const_doc() -> dict:
    eye, F = _identity(3), [["0", "1", "0"], ["-1", "0", "0"], ["0", "0", "0"]]
    return _frame_doc("flat-const", ["x", "y", "z"], eye, eye, eye, F, eye[2])


def document(key: str, n: int = 1, s: float | None = None) -> dict:
    """The structure-definition document of a built-in, by key.  A key takes
    the parameters `PARAMETERS` names; for any other key, n must be 1 and s
    must be None.  Every bad key or parameter is a ValueError."""
    if key not in keys():
        raise ValueError(f"unknown catalog key {key!r}")
    if key not in PARAMETERS and (n != 1 or s is not None):
        raise ValueError(f"catalog key {key!r} takes no parameters (got n={n}, s={s})")
    if key == "scaled":
        if s is None:
            raise ValueError("catalog key 'scaled' requires parameter s")
        if not (math.isfinite(s) and s > 0):
            raise ValueError("scale parameter s must be a finite positive number")
        if not 1 <= n <= MAX_N:
            raise ValueError(f"n must be between 1 and {MAX_N}")
        return _sasakian_doc(n, s=s, name=f"scaled-n{n}-s{_fmt(s)}")
    if key == "flat-const":
        return _flat_const_doc()
    return _sasakian_doc(_SASAKIAN[key])


def catalog(key: str, n: int = 1, s: float | None = None) -> StructureDef:
    """A built-in structure definition by key, compiled from `document`.
    The benchmark's set-up probe passes n and s for every key, `n=1, s=None`
    for a key without parameters; `tests/test_perfbench_oracle.py` runs the
    probe, so a change to this signature fails there."""
    return load_structure_def(document(key, n, s))
