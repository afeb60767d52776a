"""The tape against sympy's exact derivatives, cell by cell, on every catalog
chart and on the round 2-sphere; the Christoffel symbols and the curvature
tensor against sympy on the sphere and the 3- and 5-dimensional charts; and
L_xi g, h and its derivative against sympy on charts where xi is not Killing
and h is not zero."""

import numpy as np
import pytest

from conftest import points_for
from test_geometry import SPHERE_COORDS, SPHERE_METRIC
from wqcm.catalog import catalog, document, keys
from wqcm.exprdsl import compile_tape, eval_tape, load_structure_def
from wqcm.geometry import christoffel, riemann
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
    # all points in one chunk
    jets = eval_tape(compile_tape(fields, coords), points, 2)
    for field, cells in fields.items():
        flat = np.array(cells, dtype=object).reshape(-1)
        exact = [oracle(cell, coords) for cell in flat]
        for p, point in enumerate(points):
            d = len(point)
            v, dv, ddv = (a[p] for a in jets[field])
            v, dv, ddv = v.reshape(-1), dv.reshape(d, -1), ddv.reshape(d, d, -1)
            for c, fn in enumerate(exact):
                e, grad, hess = fn(point)
                for got, want in ((v[c], e), (dv[:, c], grad), (ddv[:, :, c], hess)):
                    want = np.asarray(want, dtype=float)
                    assert np.all(np.abs(got - want) <= 1e-12 * (1.0 + np.abs(want))), (field, flat[c])


def connection_oracle(cells, coords):
    """Exact Gamma[k, i, j] = Gamma^k_ij and R[l, k, i, j] = R^l_{kij} of the
    metric with upper-triangle text `cells`, as float functions of the point:
    Gamma^k_ij = (1/2) g^kl (d_i g_jl + d_j g_il - d_l g_ij) and
    R^l_{kij} = d_i Gamma^l_jk - d_j Gamma^l_ik + Gamma^l_im Gamma^m_jk - Gamma^l_jm Gamma^m_ik."""
    xs = sympy.symbols(coords)
    d, names = len(xs), dict(zip(coords, xs))
    g = sympy.Matrix(d, d, lambda i, j: sympy.sympify(cells[min(i, j)][max(i, j)].replace("^", "**"), locals=names))
    g_inv = g.inv().applyfunc(sympy.simplify)
    dg = [[[g[i, j].diff(x) for j in range(d)] for i in range(d)] for x in xs]  # dg[k][i][j] = d_k g_ij
    gamma = [[[sympy.simplify(sum(g_inv[k, l] * (dg[i][j][l] + dg[j][i][l] - dg[l][i][j]) for l in range(d)) / 2)
               for j in range(d)] for i in range(d)] for k in range(d)]
    riem = [[[[gamma[l][j][k].diff(xs[i]) - gamma[l][i][k].diff(xs[j])
               + sum(gamma[l][i][m] * gamma[m][j][k] - gamma[l][j][m] * gamma[m][i][k] for m in range(d))
               for j in range(d)] for i in range(d)] for k in range(d)] for l in range(d)]
    return sympy.lambdify([xs], [gamma, riem], modules="math")


def metric_charts():
    for key in ("sasakian-r3", "sasakian-r5"):
        doc = document(key)
        yield pytest.param(doc["coords"], doc["metric"], points_for(WeakACM(catalog(key)), count=4), id=key)
    sphere = np.array([[0.4, 0.3], [1.1, -0.5], [2.0, 2.5]])
    yield pytest.param(SPHERE_COORDS, SPHERE_METRIC, sphere, id="sphere")


@pytest.mark.parametrize("coords,cells,points", metric_charts())
def test_connection_and_curvature_match_sympy(coords, cells, points):
    jets = eval_tape(compile_tape({"metric": cells}, coords), points, 2)
    exact = connection_oracle(cells, coords)
    for p, point in enumerate(points):
        g, dg, ddg = (a[p] for a in jets["metric"])
        g_inv = np.linalg.inv(g)
        gamma = christoffel(g_inv, dg)
        for got, want in zip((gamma, riemann(g_inv, dg, ddg, gamma)), exact(point)):
            want = np.asarray(want, dtype=float)
            assert np.all(np.abs(got - want) <= 1e-12 * (1.0 + np.abs(want))), point


def derived_oracle(doc):
    """Exact L_xi g, h = (1/2) L_xi f and dh[l, i, j] = d_l h^i_j of a structure
    document, as float functions of the point:
    (L_xi g)_ij = xi^k d_k g_ij + g_kj d_i xi^k + g_ik d_j xi^k and
    (L_xi f)^i_j = xi^k d_k f^i_j - f^k_j d_k xi^i + f^i_k d_j xi^k."""
    coords = doc["coords"]
    xs = sympy.symbols(coords)
    d, names = len(xs), dict(zip(coords, xs))

    def expr(text):
        return sympy.sympify(text.replace("^", "**"), locals=names)

    g = sympy.Matrix(d, d, lambda i, j: expr(doc["metric"][min(i, j)][max(i, j)]))
    f = sympy.Matrix(d, d, lambda i, j: expr(doc["f"][i][j]))
    xi = [expr(c) for c in doc["xi"]]
    lie_g = [[sum(xi[k] * g[i, j].diff(xs[k]) + g[k, j] * xi[k].diff(xs[i]) + g[i, k] * xi[k].diff(xs[j])
                  for k in range(d)) for j in range(d)] for i in range(d)]
    h = [[sum(xi[k] * f[i, j].diff(xs[k]) - f[k, j] * xi[i].diff(xs[k]) + f[i, k] * xi[k].diff(xs[j])
              for k in range(d)) / 2 for j in range(d)] for i in range(d)]
    dh = [[[h[i][j].diff(x) for j in range(d)] for i in range(d)] for x in xs]
    return sympy.lambdify([xs], [lie_g, h, dh], modules="math")


def non_killing_docs():
    # flat metric: xi = (y, 0, 1) is not Killing and f depends on z
    doc = document("flat-const")
    doc["xi"] = ["y", "0", "1"]
    doc["f"][0][1], doc["f"][1][0] = "z", "-z"
    yield pytest.param(doc, id="flat-const")
    # curved metric: every term of L_xi g and of h contributes
    doc = document("sasakian-r3")
    doc["xi"] = ["y1 * z", "x1 + z^2", "2 + sin(x1)"]
    doc["f"] = [["x1 * y1", "1 + z", "y1"], ["-1 - z", "0", "cos(z)"], ["x1^2", "-y1", "z * x1"]]
    yield pytest.param(doc, id="sasakian-r3-edited")


@pytest.mark.parametrize("doc", non_killing_docs())
def test_lie_xi_g_and_h_match_sympy(doc):
    acm = WeakACM(load_structure_def(doc))
    exact = derived_oracle(doc)
    for point in points_for(acm, count=4):
        st = acm.at(point)
        lie_g, h, dh = (np.asarray(want, dtype=float) for want in exact(point))
        assert np.max(np.abs(lie_g)) > 0.1 and np.max(np.abs(h)) > 0.1  # not Killing, h != 0
        for name, got, want in (("lie_xi_g", st.lie_xi_g, lie_g), ("h", st.h, h), ("dh", st.dh, dh)):
            assert np.all(np.abs(got - want) <= 1e-12 * (1.0 + np.abs(want))), (name, point)
