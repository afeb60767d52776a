"""The tape against sympy's exact derivatives, cell by cell, on every catalog
chart and on the round 2-sphere; the Christoffel symbols and the curvature
tensor (stacked from R_{., .} e_k over the coordinate frame) against sympy
on the sphere and the 3- and 5-dimensional charts; R_{., .} xi and
Ric(xi, xi) against sympy on a curved chart where xi varies; and L_xi g, h
and its derivative and covariant derivative along xi, nabla eta, nabla Q and
L_xi Q against sympy on charts where xi is not Killing and h is not zero."""

from types import SimpleNamespace

import numpy as np
import pytest

from conftest import points_for, sasakian_r3_edited, state_at
from test_geometry import SPHERE_COORDS, SPHERE_METRIC, christoffel_of, riemann_of
from wqcm.catalog import catalog, document, keys
from wqcm.exprdsl import compile_tape, eval_tape, load_structure_def

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
        yield pytest.param(doc["coords"], fields, points_for(catalog(key, **params), count=4), id=key)
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
    """Exact Gamma[k, i, j] = Gamma^k_ij, R[l, k, i, j] = R^l_{kij} and
    Ric[k, j] of the metric with upper-triangle text `cells`, as float
    functions of the point:
    Gamma^k_ij = (1/2) g^kl (d_i g_jl + d_j g_il - d_l g_ij),
    R^l_{kij} = d_i Gamma^l_jk - d_j Gamma^l_ik + Gamma^l_im Gamma^m_jk - Gamma^l_jm Gamma^m_ik
    and Ric_kj = R^l_{klj}."""
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
    ric = [[sum(riem[l][k][l][j] for l in range(d)) for j in range(d)] for k in range(d)]
    return sympy.lambdify([xs], [gamma, riem, ric], modules="math")


def metric_charts():
    for key in ("sasakian-r3", "sasakian-r5"):
        doc = document(key)
        yield pytest.param(doc["coords"], doc["metric"], points_for(catalog(key), count=4), id=key)
    sphere = np.array([[0.4, 0.3], [1.1, -0.5], [2.0, 2.5]])
    yield pytest.param(SPHERE_COORDS, SPHERE_METRIC, sphere, id="sphere")


@pytest.mark.parametrize("coords,cells,points", metric_charts())
def test_connection_and_curvature_match_sympy(coords, cells, points):
    jets = eval_tape(compile_tape({"metric": cells}, coords), points, 2)
    exact = connection_oracle(cells, coords)
    for p, point in enumerate(points):
        g, dg, ddg = (a[p] for a in jets["metric"])
        m = SimpleNamespace(g=g, dg=dg, ddg=ddg, g_inv=np.linalg.inv(g))
        for got, want in zip((christoffel_of(m), riemann_of(m)), exact(point)[:2]):
            want = np.asarray(want, dtype=float)
            assert np.all(np.abs(got - want) <= 1e-12 * (1.0 + np.abs(want))), point


def derived_oracle(doc):
    """Exact L_xi g, h = (1/2) L_xi f, xi^l d_l h^i_j, nabla_xi h, nabla eta,
    nabla Q and L_xi Q of a structure document, from partial derivatives and
    Christoffel symbols, as float functions of the point:
    (L_xi g)_ij = xi^k d_k g_ij + g_kj d_i xi^k + g_ik d_j xi^k,
    (L_xi T)^i_j = xi^k d_k T^i_j - T^k_j d_k xi^i + T^i_k d_j xi^k for T = f and Q,
    (nabla_k eta)_j = d_k eta_j - Gamma^m_kj eta_m with eta_j = g_jm xi^m,
    (nabla_k T)^i_j = d_k T^i_j + Gamma^i_km T^m_j - Gamma^m_kj T^i_m and
    Q = -f^2 + xi (x) eta."""
    coords = doc["coords"]
    xs = sympy.symbols(coords)
    d, names = len(xs), dict(zip(coords, xs))

    def expr(text):
        return sympy.sympify(text.replace("^", "**"), locals=names)

    def lie(t):
        return [[sum(xi[k] * t[i, j].diff(xs[k]) - t[k, j] * xi[i].diff(xs[k]) + t[i, k] * xi[k].diff(xs[j])
                     for k in range(d)) for j in range(d)] for i in range(d)]

    def nabla(t):  # [k][i][j] = (nabla_k t)^i_j
        return [[[t[i, j].diff(xs[k]) + sum(gamma[i][k][m] * t[m, j] - gamma[m][k][j] * t[i, m] for m in range(d))
                  for j in range(d)] for i in range(d)] for k in range(d)]

    g = sympy.Matrix(d, d, lambda i, j: expr(doc["metric"][min(i, j)][max(i, j)]))
    f = sympy.Matrix(d, d, lambda i, j: expr(doc["f"][i][j]))
    xi = [expr(c) for c in doc["xi"]]
    lie_g = [[sum(xi[k] * g[i, j].diff(xs[k]) + g[k, j] * xi[k].diff(xs[i]) + g[i, k] * xi[k].diff(xs[j])
                  for k in range(d)) for j in range(d)] for i in range(d)]
    h = sympy.Matrix(lie(f)) / 2
    dh_xi = sympy.Matrix(d, d, lambda i, j: sum(xi[k] * h[i, j].diff(xs[k]) for k in range(d)))
    g_inv = g.inv()
    # gamma[i][k][m] = Gamma^i_km
    gamma = [[[sum(g_inv[i, l] * (g[m, l].diff(xs[k]) + g[k, l].diff(xs[m]) - g[k, m].diff(xs[l])) for l in range(d)) / 2
               for m in range(d)] for k in range(d)] for i in range(d)]
    gamma_xi = sympy.Matrix(d, d, lambda i, m: sum(xi[k] * gamma[i][k][m] for k in range(d)))
    nabla_xi_h = dh_xi + gamma_xi * h - h * gamma_xi
    eta = [sum(g[j, m] * xi[m] for m in range(d)) for j in range(d)]
    nabla_eta = [[eta[j].diff(xs[k]) - sum(gamma[m][k][j] * eta[m] for m in range(d)) for j in range(d)]
                 for k in range(d)]
    q = -f * f + sympy.Matrix(xi) * sympy.Matrix([eta])
    return sympy.lambdify([xs], [lie_g, h.tolist(), dh_xi.tolist(), nabla_xi_h.tolist(), nabla_eta, nabla(q), lie(q)],
                          modules="math")


def non_killing_docs():
    # flat metric: xi = (y, 0, 1) is not Killing and f depends on z
    doc = document("flat-const")
    doc["xi"] = ["y", "0", "1"]
    doc["f"][0][1], doc["f"][1][0] = "z", "-z"
    yield pytest.param(doc, id="flat-const")
    yield pytest.param(sasakian_r3_edited(), id="sasakian-r3-edited")


@pytest.mark.parametrize("doc", non_killing_docs())
def test_lie_xi_g_and_h_match_sympy(doc):
    sdef = load_structure_def(doc)
    exact = derived_oracle(doc)
    for point in points_for(sdef, count=4):
        st = state_at(sdef, point)
        lie_g, h, dh_xi, nabla_xi_h = (np.asarray(want, dtype=float) for want in exact(point)[:4])
        assert np.max(np.abs(lie_g)) > 0.1 and np.max(np.abs(h)) > 0.1  # not Killing, h != 0
        for name, got, want in (("lie_xi_g", st.lie_xi_g, lie_g), ("h", st.h, h), ("dh_xi", st.dh_xi, dh_xi),
                                ("nabla_xi_h", st.nabla_xi_h, nabla_xi_h)):
            assert np.all(np.abs(got - want) <= 1e-12 * (1.0 + np.abs(want))), (name, point)


@pytest.mark.parametrize("doc", non_killing_docs())
def test_nabla_eta_nabla_q_and_lie_xi_q_match_sympy(doc):
    """The state's nabla eta, nabla Q and L_xi Q, from nabla xi and nabla f,
    against the partial route of `derived_oracle`."""
    sdef = load_structure_def(doc)
    exact = derived_oracle(doc)
    for point in points_for(sdef, count=4):
        st = state_at(sdef, point)
        nabla_eta, nabla_q, lie_q = (np.asarray(want, dtype=float) for want in exact(point)[4:])
        for name, got, want in (("nabla_eta", st.nabla_eta, nabla_eta), ("nabla_Q", st.nabla_Q, nabla_q),
                                ("lie_xi_Q", st.lie_xi_Q, lie_q)):
            assert np.max(np.abs(want)) > 0.1, name
            assert np.all(np.abs(got[0] - want) <= 1e-12 * (1.0 + np.abs(want))), (name, point)


def test_curvature_along_a_varying_xi_matches_sympy():
    """R_{., .} xi and Ric(xi, xi) of a state against R^l_{kij} xi^k and
    Ric_kj xi^k xi^j from sympy, where xi is not constant on the chart."""
    doc = sasakian_r3_edited()
    coords = doc["coords"]
    sdef = load_structure_def(doc)
    exact = connection_oracle(doc["metric"], coords)
    xi_of = [oracle(cell, coords) for cell in doc["xi"]]
    for point in points_for(sdef, count=4):
        st = state_at(sdef, point)
        _, riem, ric = (np.asarray(want, dtype=float) for want in exact(point))
        xi = np.array([fn(point)[0] for fn in xi_of])
        want = np.einsum("lkij,k->ilj", riem, xi)  # the [i, l, j] layout of curvature_xi
        want_ric = xi @ ric @ xi
        assert np.max(np.abs(want)) > 0.1 and abs(want_ric) > 0.1
        assert np.max(np.abs(st.curvature_xi[0] - want)) <= 1e-12 * np.max(np.abs(want)), point
        assert abs(st.ric_xi_xi.item() - want_ric) <= 1e-12 * abs(want_ric), point
