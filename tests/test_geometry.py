from types import SimpleNamespace

import numpy as np
import pytest

from conftest import eval_at, sasakian_r3_edited, state_at
from wqcm.catalog import catalog, document
from wqcm.exprdsl import compile_tape, load_structure_def
from wqcm.geometry import (
    bilinear,
    christoffel,
    cov_tensor11,
    curvature_z,
    d_oneform,
    orthonormal_frame,
    sectional,
)
from wqcm.suites import sample_points

SPHERE_COORDS = ["theta", "phi"]
SPHERE_METRIC = [["1", "0"], ["0", "sin(theta)^2"]]


def metric_at(cells, point, coords=SPHERE_COORDS):
    """The metric jet of expression cells at a point, compiled through a tape,
    with the arrays a `PointState` holds for it."""
    g, dg, ddg = eval_at(compile_tape({"metric": cells}, coords), point)["metric"]
    return SimpleNamespace(g=g, dg=dg, ddg=ddg, g_inv=np.linalg.inv(g), frame=orthonormal_frame(g))


def christoffel_of(m):
    return christoffel(m.g_inv, m.dg)


def curvature_z_of(m, z):
    return curvature_z(m.g_inv, m.dg, m.ddg, christoffel_of(m), z)


def ell_of(m, x):
    """The Jacobi matrix ell Y = R_{x,Y} x of a column x."""
    return np.einsum("i,ilj->lj", x[:, 0], curvature_z_of(m, x))


def riemann_of(m):
    """The full tensor R[l, k, i, j] = R^l_{kij}, stacked from R_{., .} e_k
    over the coordinate frame e_k."""
    r = np.stack([curvature_z_of(m, e[:, None]) for e in np.eye(len(m.g))])  # [k, i, l, j]
    return r.transpose(2, 0, 1, 3)


def ricci(r):
    """Ric(X, Y) = tr(Z -> R_{Z,X} Y) = R^l_{klj} Y^k X^j of a full tensor: out[k, j]."""
    return np.trace(r, axis1=0, axis2=2)


def sphere_at(theta, phi=0.3):
    return metric_at(SPHERE_METRIC, np.array([theta, phi]))


def test_sphere_christoffel_symbols():
    theta = 0.8
    m = sphere_at(theta)
    gamma = christoffel_of(m)
    # the only nonzero symbols of the round 2-sphere
    assert gamma[0, 1, 1] == pytest.approx(-np.sin(theta) * np.cos(theta), abs=1e-12)
    assert gamma[1, 0, 1] == pytest.approx(np.cos(theta) / np.sin(theta), abs=1e-12)
    assert gamma[1, 1, 0] == pytest.approx(gamma[1, 0, 1], abs=1e-14)
    assert abs(gamma[0, 0, 0]) < 1e-14 and abs(gamma[1, 1, 1]) < 1e-14


def test_sphere_curvature_is_plus_one():
    m = sphere_at(1.1, 0.5)
    x = np.array([[1.0], [0.0]])
    assert sectional(m.g, x, np.array([[0.0], [1.0]]), ell_of(m, x)) == pytest.approx(1.0, abs=1e-10)
    # Ric = (dim - 1) g on a unit sphere
    assert np.allclose(ricci(riemann_of(m)), m.g, atol=1e-9)


# every metric cell varies: each term of d_i Gamma and of the bracket counts
VARYING_COORDS = ["x", "y", "z"]
VARYING_METRIC = [
    ["2 + x^2 + sin(y)", "0.3 * x * z", "0.2 * cos(y + z)"],
    ["0.3 * x * z", "1.5 + y * z", "0.1 * x^2 - 0.2 * y"],
    ["0.2 * cos(y + z)", "0.1 * x^2 - 0.2 * y", "1 + exp(0.3 * x * y)"],
]


def test_curvature_z_matches_finite_differences():
    """R_{., .} z from central differences of the connection contracted with
    a constant z that is not a coordinate vector:
    t[i, l, j] = d_i (Gamma z)^l_j + Gamma^l_im (Gamma z)^m_j, minus t with
    i and j swapped."""
    step = 1e-5
    point = np.array([0.4, -0.3, 0.6])
    z = np.array([[0.7], [-1.2], [0.5]])
    m = metric_at(VARYING_METRIC, point, VARYING_COORDS)
    gamma = christoffel_of(m)
    gamma_z = (gamma @ z)[..., 0]
    d_gamma_z = []
    for e in np.eye(3) * step:
        plus, minus = (christoffel_of(metric_at(VARYING_METRIC, point + s, VARYING_COORDS)) @ z for s in (e, -e))
        d_gamma_z.append((plus - minus)[..., 0] / (2 * step))
    t = np.array(d_gamma_z) + gamma.swapaxes(0, 1) @ gamma_z
    want = t - t.transpose(2, 1, 0)
    got = curvature_z_of(m, z)
    assert np.max(np.abs(want)) > 0.1
    assert np.allclose(got, want, rtol=0.0, atol=1e-8)


def catalog_metric_points(key, count=6, **kw):
    """The metric arrays of a catalog structure at sample points, one point at
    a time (the geometry functions take any leading axes, or none)."""
    sdef = catalog(key, **kw)
    for point in sample_points(count, 7, sdef.domain):
        st = state_at(sdef, point)
        m = SimpleNamespace(dim=st.dim, **{k: getattr(st, k)[0] for k in ("g", "dg", "ddg", "g_inv", "frame", "xi")})
        m.ric_xi_xi = st.ric_xi_xi.item()
        m.riem = riemann_of(m)
        yield m


@pytest.mark.parametrize("key", ["sasakian-r3", "sasakian-r5", "flat-const"])
def test_connection_is_torsion_free_and_metric(key):
    for m in catalog_metric_points(key):
        gamma = christoffel_of(m)
        assert np.allclose(gamma, gamma.transpose(0, 2, 1), atol=1e-12)
        # nabla g = 0 componentwise
        nabla_g = (
            m.dg
            - np.einsum("mki,mj->kij", gamma, m.g)
            - np.einsum("mkj,im->kij", gamma, m.g)
        )
        assert np.max(np.abs(nabla_g)) < 1e-10


@pytest.mark.parametrize("key", ["sasakian-r3", "sasakian-r5"])
def test_curvature_tensor_symmetries(key):
    for m in catalog_metric_points(key, count=4):
        r = riemann_of(m)
        rl = np.einsum("la,akij->lkij", m.g, r)  # fully lowered
        assert np.allclose(rl, -rl.transpose(0, 1, 3, 2), atol=1e-10)  # (i,j) skew
        assert np.allclose(rl, -rl.transpose(1, 0, 2, 3), atol=1e-10)  # (l,k) skew
        assert np.allclose(rl, rl.transpose(2, 3, 0, 1), atol=1e-10)  # pair symmetry
        bianchi = r + r.transpose(0, 2, 3, 1) + r.transpose(0, 3, 1, 2)
        assert np.max(np.abs(bianchi)) < 1e-10


@pytest.mark.parametrize("key, kw", [("sasakian-r7", {}), ("scaled", {"n": 3, "s": 2.0})])
def test_ricci_trace_is_the_frame_sum(key, kw, rng):
    # Ric(X, Y) = sum_a g(R_{E_a, X} Y, E_a) over the g-orthonormal frame E
    for st in catalog_metric_points(key, count=4, **kw):
        for _ in range(3):
            x, y = rng.standard_normal((2, st.dim, 1))
            frame_sum = float(np.sum((st.g @ st.frame) * bilinear(curvature_z_of(st, y), st.frame, x)[:, :, 0]))
            assert abs((y.T @ ricci(st.riem) @ x).item() - frame_sum) <= 1e-13 * abs(frame_sum)
        # the state's Ric(xi, xi), the trace of R_{., xi} xi, is the same sum
        frame_sum = float(np.sum((st.g @ st.frame) * bilinear(curvature_z_of(st, st.xi), st.frame, st.xi)[:, :, 0]))
        assert abs(st.ric_xi_xi - frame_sum) <= 1e-13 * abs(frame_sum)


def test_flat_space_has_zero_curvature():
    for m in catalog_metric_points("flat-const", count=3):
        assert np.max(np.abs(riemann_of(m))) == 0.0


def test_curvature_operator_antisymmetry():
    m = sphere_at(0.7, 1.2)
    x = np.array([[0.4], [-1.0]])
    y = np.array([[1.3], [0.2]])
    z = np.array([[-0.5], [0.8]])
    rz = curvature_z_of(m, z)
    assert np.allclose(bilinear(rz, x, y), -bilinear(rz, y, x), atol=1e-12)


def test_sectional_degenerate_plane_raises():
    m = sphere_at(0.7)
    v = np.array([[1.0], [2.0]])
    with pytest.raises(ValueError, match=r"^plane is degenerate \(vectors nearly dependent\)$"):
        sectional(m.g, v, 2.0 * v, ell_of(m, v))


def test_non_positive_definite_metric_rejected():
    with pytest.raises(ValueError, match="^metric is not positive definite$"):
        metric_at([["1", "0"], ["0", "-1"]], np.array([0.5, 0.5]))
    # Cholesky alone accepts NaN and inf entries; the caller names the point
    for bad in (np.inf, np.nan):
        with pytest.raises(ValueError, match="^metric is not finite$"):
            orthonormal_frame(np.array([[1.0, 0.0], [0.0, bad]]))


def test_orthonormal_frame_is_orthonormal():
    g = np.array([[2.0, 0.5, 0.0], [0.5, 1.0, 0.1], [0.0, 0.1, 3.0]])
    cells = [[repr(float(v)) for v in row] for row in g]
    frame = metric_at(cells, np.zeros(3), ["x", "y", "z"]).frame
    assert np.allclose(frame.T @ g @ frame, np.eye(3), atol=1e-12)
    # Gram-Schmidt of the coordinate frame: upper triangular, positive diagonal
    assert np.array_equal(frame, np.triu(frame)) and np.all(np.diag(frame) > 0.0)


def test_covariant_derivative_leibniz_rule():
    # nabla(T v) = (nabla T) v + T nabla v, checked componentwise on the sphere
    point = np.array([0.9, 0.4])
    h = 1e-6
    m = sphere_at(*point)
    gamma = christoffel_of(m)

    def v_of(p):
        return np.array([np.sin(p[0] + p[1]), p[0] * p[1]])

    def t_of(p):
        return np.array([[p[0], 1.0], [np.cos(p[1]), p[0] ** 2]])

    dv = np.zeros((2, 2))
    dt = np.zeros((2, 2, 2))
    for k in range(2):
        e = np.zeros(2)
        e[k] = h
        dv[k] = (v_of(point + e) - v_of(point - e)) / (2 * h)
        dt[k] = (t_of(point + e) - t_of(point - e)) / (2 * h)
    v, t = v_of(point), t_of(point)
    tv = t @ v
    dtv = np.einsum("kij,j->ki", dt, v) + np.einsum("ij,kj->ki", t, dv)

    def cov_vector(w, dw):  # (nabla_k w)^i = d_k w^i + Gamma^i_km w^m
        return dw + np.einsum("ikm,m->ki", gamma, w)

    lhs = cov_vector(tv, dtv)
    rhs = np.einsum("kij,j->ki", cov_tensor11(gamma, t, dt), v) + np.einsum("ij,kj->ki", t, cov_vector(v, dv))
    assert np.allclose(lhs, rhs, atol=1e-8)


@pytest.mark.parametrize("doc, varies", [(document("sasakian-r3"), False), (sasakian_r3_edited(), True)],
                         ids=["sasakian-r3", "edited"])
def test_nabla_eta_nabla_q_and_lie_xi_q_match_the_partial_routes(doc, varies):
    """A state takes nabla eta, nabla Q and L_xi Q from nabla xi and nabla f;
    here they are built from partial derivatives instead:
    (nabla_k eta)_j = d_k eta_j - Gamma^m_kj eta_m, nabla Q = `cov_tensor11`
    of d Q, and (L_xi Q)^i_j = xi^k d_k Q^i_j - Q^k_j d_k xi^i + Q^i_k d_j xi^k,
    with d_k Q = -(d_k f) f - f (d_k f) + (d_k xi) (x) eta + xi (x) d_k eta."""
    sdef = load_structure_def(doc)
    for point in sample_points(3, 7, sdef.domain):
        st = state_at(sdef, point)
        gamma, eta, xi, f, df = st.gamma[0], st.eta[0, 0], st.xi[0, :, 0], st.f[0], st.df[0]
        deta, dxi = st.deta[0], st.dxi[0]
        nabla_eta = deta - np.einsum("m,mkj->kj", eta, gamma)
        dq = -df @ f - f @ df + np.einsum("ki,j->kij", dxi, eta) + np.einsum("i,kj->kij", xi, deta)
        q = st.Q[0]
        nabla_q = cov_tensor11(gamma, q, dq)
        lie_q = np.einsum("k,kij->ij", xi, dq) - np.einsum("kj,ki->ij", q, dxi) + np.einsum("ik,jk->ij", q, dxi)
        for got, want in ((st.nabla_eta, nabla_eta), (st.nabla_Q, nabla_q), (st.lie_xi_Q, lie_q)):
            assert np.all(np.abs(got[0] - want) <= 1e-12 * (1.0 + np.abs(want))), point
        if varies:  # Q = id on sasakian-r3, so nabla Q and L_xi Q vanish there
            assert min(np.max(np.abs(t)) for t in (nabla_eta, nabla_q, lie_q)) > 0.1


def test_d_oneform_of_closed_form_vanishes():
    # w = df for a function f has dw = 0; take f = x*y on the plane
    dw = np.array([[0.0, 1.0], [1.0, 0.0]])  # dw[k,i] = d_k w_i with w = (y, x)
    assert np.max(np.abs(d_oneform(dw))) == 0.0
