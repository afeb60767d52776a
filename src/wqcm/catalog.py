"""Built-in catalog of structure definitions.

Three families:

  * "sasakian-r{2n+1}", n = 1 .. MAX_N -- the standard Sasakian structure
    on R^{2n+1} with eta = (1/2)(dz - sum_i y_i dx_i), xi = 2 d/dz and the
    associated metric.
    The sign of f is the one for which d eta = Phi.
  * "scaled" (parameters n, s) -- same chart, metric and xi, with f scaled
    by s.  A genuine weak structure with Q = s^2 id + (1 - s^2) eta (x) xi.
  * "flat-const" -- Euclidean R^3 with a constant f; fails the contact
    condition (d eta = 0) while satisfying the weak axioms.

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


def _sasakian_doc(n: int, s: float = 1.0, name: str | None = None) -> dict:
    """Sasakian chart on R^{2n+1}, with f scaled by s."""
    dim = 2 * n + 1
    xs = [f"x{i + 1}" for i in range(n)]
    ys = [f"y{i + 1}" for i in range(n)]
    coords = xs + ys + ["z"]
    zero = "0"
    metric = [[zero] * dim for _ in range(dim)]
    # g = eta (x) eta + (1/4) sum_i (dx_i^2 + dy_i^2), eta = (1/2)(dz - sum y_i dx_i)
    for i in range(n):
        for j in range(n):
            a, b = min(i, j), max(i, j)  # keep the text symmetric
            cross = f"{ys[a]}*{ys[b]}/4"
            metric[i][j] = f"{cross} + 1/4" if i == j else cross
        metric[i][dim - 1] = f"-{ys[i]}/4"
        metric[dim - 1][i] = f"-{ys[i]}/4"
        metric[n + i][n + i] = "1/4"
    metric[dim - 1][dim - 1] = "1/4"

    # The literature is split on the sign of f; this is the sign that satisfies
    # the contact-metric condition d eta = Phi for the unscaled structure.
    f = [[zero] * dim for _ in range(dim)]
    for i in range(n):
        # f(d/dx_i) = -d/dy_i ;  f(d/dy_i) = d/dx_i + y_i d/dz  (times s)
        f[n + i][i] = _fmt(-s)
        f[i][n + i] = _fmt(s)
        f[dim - 1][n + i] = f"({_fmt(s)})*{ys[i]}"

    xi = [zero] * dim
    xi[dim - 1] = "2"
    w = DEFAULT_DOMAIN_HALF_WIDTH
    return {
        "name": name or f"sasakian-r{dim}",
        "n": n,
        "coords": coords,
        "domain": [[-w, w]] * dim,
        "metric": metric,
        "f": f,
        "xi": xi,
    }


def _flat_const_doc() -> dict:
    w = DEFAULT_DOMAIN_HALF_WIDTH
    return {
        "name": "flat-const",
        "n": 1,
        "coords": ["x", "y", "z"],
        "domain": [[-w, w]] * 3,
        "metric": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
        "f": [["0", "1", "0"], ["-1", "0", "0"], ["0", "0", "0"]],
        "xi": ["0", "0", "1"],
    }


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
    """A built-in structure definition by key, compiled from `document`."""
    return load_structure_def(document(key, n, s))
