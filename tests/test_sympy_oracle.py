"""The tape against sympy's exact derivatives, cell by cell, on every catalog
chart and on the round 2-sphere."""

import numpy as np
import pytest

from conftest import points_for
from test_geometry import SPHERE_COORDS, SPHERE_METRIC
from wqcm.catalog import catalog, document, keys
from wqcm.exprdsl import compile_tape, eval_tape
from wqcm.structure import WeakACM

sympy = pytest.importorskip("sympy")


def oracle(cell, coords):
    """(value, gradient, Hessian) of one cell's text as a float function of the point."""
    xs = sympy.symbols(coords)
    e = sympy.sympify(cell.replace("^", "**"), locals=dict(zip(coords, xs)))
    grad = [sympy.diff(e, x) for x in xs]
    hess = [[sympy.diff(g, x) for x in xs] for g in grad]
    return sympy.lambdify([xs], [e, grad, hess], modules="math")


def charts():
    for key in keys():
        params = {"n": 3, "s": 2.0} if key == "scaled" else {}
        doc = document(key, **params)
        fields = {name: doc[name] for name in ("metric", "f", "xi")}
        yield pytest.param(doc["coords"], fields, points_for(WeakACM(catalog(key, **params)), count=4), id=key)
    sphere = np.array([[0.4, 0.3], [1.1, -0.5], [2.0, 2.5]])
    yield pytest.param(SPHERE_COORDS, {"metric": SPHERE_METRIC}, sphere, id="sphere")


@pytest.mark.parametrize("coords,fields,points", charts())
def test_tape_matches_sympy_derivatives(coords, fields, points):
    tape = compile_tape(fields, coords)
    for field, cells in fields.items():
        flat = np.array(cells, dtype=object).reshape(-1)
        exact = [oracle(cell, coords) for cell in flat]
        for point in points:
            d = len(point)
            v, dv, ddv = eval_tape(tape, point)[field]
            v, dv, ddv = v.reshape(-1), dv.reshape(d, -1), ddv.reshape(d, d, -1)
            for c, fn in enumerate(exact):
                e, grad, hess = fn(point)
                for got, want in ((v[c], e), (dv[:, c], grad), (ddv[:, :, c], hess)):
                    want = np.asarray(want, dtype=float)
                    assert np.all(np.abs(got - want) <= 1e-12 * (1.0 + np.abs(want))), (field, flat[c])
