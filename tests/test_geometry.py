from types import SimpleNamespace

import numpy as np
import pytest

from conftest import eval_at
from wqcm.catalog import catalog
from wqcm.exprdsl import compile_tape
from wqcm.geometry import (
    christoffel,
    christoffel_derivative,
    cov_oneform,
    cov_tensor11,
    cov_vector,
    curvature,
    curvature_z,
    d_oneform,
    orthonormal_frame,
    ricci,
    riemann,
    sectional,
)
from wqcm.structure import WeakACM
from wqcm.suites import SamplePlan, sample_points

SPHERE_COORDS = ["theta", "phi"]
SPHERE_METRIC = [["1", "0"], ["0", "sin(theta)^2"]]


def metric_at(cells, point, coords=SPHERE_COORDS):
    """The metric jet of expression cells at a point, compiled through a tape,
    with the arrays a `PointState` holds for it."""
    g, dg, ddg = eval_at(compile_tape({"metric": cells}, coords), point)["metric"]
    return SimpleNamespace(g=g, dg=dg, ddg=ddg, g_inv=np.linalg.inv(g), frame=orthonormal_frame(g))


def christoffel_of(m):
    return christoffel(m.g_inv, m.dg)


def riemann_of(m):
    return riemann(m.g_inv, m.dg, m.ddg, christoffel_of(m))


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


def sphere_curvature(theta, phi=0.3):
    m = sphere_at(theta, phi)
    return m, riemann_of(m)


def test_sphere_curvature_is_plus_one():
    m, r = sphere_curvature(1.1, 0.5)
    x = np.array([[1.0], [0.0]])
    assert sectional(m.g, x, np.array([[0.0], [1.0]]), curvature_z(r, x)) == pytest.approx(1.0, abs=1e-10)
    # Ric = (dim - 1) g on a unit sphere
    assert np.allclose(ricci(r), m.g, atol=1e-9)


def test_christoffel_derivative_matches_finite_differences():
    h = 1e-6
    point = np.array([0.9, 0.4])
    m = sphere_at(*point)
    dgamma = christoffel_derivative(m.g_inv, m.dg, m.ddg)
    for k in range(2):
        e = np.zeros(2)
        e[k] = h
        gp = christoffel_of(metric_at(SPHERE_METRIC, point + e))
        gm = christoffel_of(metric_at(SPHERE_METRIC, point - e))
        assert np.allclose(dgamma[k], (gp - gm) / (2 * h), atol=1e-8)


def catalog_metric_points(key, count=6, **kw):
    """The metric arrays of a catalog structure at sample points, one point at
    a time (the geometry functions take any leading axes, or none)."""
    acm = WeakACM(catalog(key, **kw))
    for point in sample_points(SamplePlan(count=count), acm.sdef.domain):
        st = acm.at(point)
        m = SimpleNamespace(dim=st.dim, **{k: getattr(st, k)[0] for k in ("g", "dg", "ddg", "g_inv", "frame")})
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
            frame_sum = float(np.sum((st.g @ st.frame) * curvature(curvature_z(st.riem, y), st.frame, x)[:, :, 0]))
            assert abs((y.T @ ricci(st.riem) @ x).item() - frame_sum) <= 1e-13 * abs(frame_sum)


def test_flat_space_has_zero_curvature():
    for m in catalog_metric_points("flat-const", count=3):
        assert np.max(np.abs(riemann_of(m))) == 0.0


def test_curvature_operator_antisymmetry():
    _, r = sphere_curvature(0.7, 1.2)
    x = np.array([[0.4], [-1.0]])
    y = np.array([[1.3], [0.2]])
    z = np.array([[-0.5], [0.8]])
    rz = curvature_z(r, z)
    assert np.allclose(curvature(rz, x, y), -curvature(rz, y, x), atol=1e-12)


def test_sectional_degenerate_plane_raises():
    m, r = sphere_curvature(0.7)
    v = np.array([[1.0], [2.0]])
    with pytest.raises(ValueError, match=r"^plane is degenerate \(vectors nearly dependent\)$"):
        sectional(m.g, v, 2.0 * v, curvature_z(r, v))


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
    lhs = cov_vector(gamma, tv, dtv)
    rhs = np.einsum("kij,j->ki", cov_tensor11(gamma, t, dt), v) + np.einsum(
        "ij,kj->ki", t, cov_vector(gamma, v, dv)
    )
    assert np.allclose(lhs, rhs, atol=1e-8)


def test_cov_oneform_kills_metric_pairing():
    # d_k (w(v)) = (nabla_k w)(v) + w(nabla_k v) for w = g(u, .), u, v constant
    for m in catalog_metric_points("sasakian-r3", count=3):
        gamma = christoffel_of(m)
        u = np.array([0.7, -0.2, 1.0])
        w = m.g @ u
        dw = np.einsum("kij,j->ki", m.dg, u)
        nw = cov_oneform(gamma, w, dw)
        nu = cov_vector(gamma, u, np.zeros((3, 3)))
        # nabla g = 0  =>  (nabla_k w)_j = g(nabla_k u, .)_j
        assert np.allclose(nw, np.einsum("ki,ij->kj", nu, m.g), atol=1e-10)


def test_d_oneform_of_closed_form_vanishes():
    # w = df for a function f has dw = 0; take f = x*y on the plane
    dw = np.array([[0.0, 1.0], [1.0, 0.0]])  # dw[k,i] = d_k w_i with w = (y, x)
    assert np.max(np.abs(d_oneform(dw))) == 0.0
