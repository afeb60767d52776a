import numpy as np
import pytest

from wqcm.catalog import catalog
from wqcm.geometry import bilinear, d_twoform, mT
from wqcm.structure import WeakACM
from conftest import points_for


def col(*entries):
    """A vector as a (d, 1) column, the form state methods take."""
    return np.array(entries, dtype=float)[:, None]


def test_derived_components_on_sasakian(sasakian_r3):
    point = np.array([0.4, -0.3, 0.2])
    st = sasakian_r3.at(point)
    x, y, z = point
    # eta = (1/2)(dz - y dx), xi = 2 d/dz
    assert np.allclose(st.eta, [-y / 2.0, 0.0, 0.5], atol=1e-14)
    assert st.eta.shape == (1, 1, 3) and st.xi.shape == (1, 3, 1)  # a row and a column
    assert np.allclose(st.xi, col(0.0, 0.0, 2.0), atol=1e-14)
    assert st.eta @ st.xi == pytest.approx(1.0, abs=1e-14)
    assert np.allclose(st.Q, np.eye(3), atol=1e-13)
    assert np.max(np.abs(st.Qt)) < 1e-13
    # fundamental form equals the exterior derivative of eta
    assert np.allclose(st.deta_form, st.Phi, atol=1e-13)


def test_sasakian_special_tensors(sasakian_r3):
    for point in points_for(sasakian_r3):
        st = sasakian_r3.at(point)
        assert np.max(np.abs(st.h)) < 1e-13
        assert np.max(np.abs(st.nabla_xi + st.f)) < 1e-12
        assert np.max(np.abs(st.lie_xi_g)) < 1e-13
        assert st.sectional(col(1.0, 0.0, 0.0)) == pytest.approx(
            1.0, abs=1e-9
        )
        assert st.ricci(st.xi, st.xi) == pytest.approx(2.0, abs=1e-9)


def test_scaled_q_closed_form(scaled2):
    s = 2.0
    for point in points_for(scaled2, count=4):
        st = scaled2.at(point)
        expected = s * s * np.eye(3) + (1.0 - s * s) * np.outer(st.xi, st.eta)
        assert np.allclose(st.Q, expected, atol=1e-12)
        assert np.max(np.abs(st.h)) < 1e-13  # f scaling keeps L_xi f = 0


def _bracket_of_fields(acm, field_a, field_b, point, h=1e-6):
    """[A, B] by finite differences, for callable vector fields."""
    d = acm.dim
    out = np.zeros(d)
    a0, b0 = field_a(point), field_b(point)
    for k in range(d):
        e = np.zeros(d)
        e[k] = h
        da = (field_a(point + e) - field_a(point - e)) / (2 * h)
        db = (field_b(point + e) - field_b(point - e)) / (2 * h)
        out += a0[k] * db - b0[k] * da
    return out


def test_nijenhuis_against_bracket_oracle(scaled2):
    # N^(1)(X,Y) = f^2 [X,Y] + [fX,fY] - f[fX,Y] - f[X,fY] + 2 d eta(X,Y) xi
    # for constant coordinate fields X, Y; brackets by finite differences.
    acm = scaled2
    point = np.array([0.3, -0.2, 0.1])
    st = acm.at(point)

    def const(i):
        v = np.zeros(acm.dim)
        v[i] = 1.0
        return lambda p: v

    def f_of(field):
        return lambda p: acm.at(p).f[0] @ field(p)

    for i in range(acm.dim):
        for j in range(acm.dim):
            x_fld, y_fld = const(i), const(j)
            x, y = x_fld(point), y_fld(point)
            f = st.f[0]
            oracle = (
                f @ f @ _bracket_of_fields(acm, x_fld, y_fld, point)
                + _bracket_of_fields(acm, f_of(x_fld), f_of(y_fld), point)
                - f @ _bracket_of_fields(acm, f_of(x_fld), y_fld, point)
                - f @ _bracket_of_fields(acm, x_fld, f_of(y_fld), point)
                + 2.0 * st.deta2(x[:, None], y[:, None]).item() * st.xi[0, :, 0]
            )
            assert np.allclose(st.n1(x[:, None], y[:, None])[0, :, 0, 0], oracle, atol=1e-7)


def test_n_tensor_identities(sasakian_r3, scaled2, flat_const):
    e = np.eye(3)[:, :, None]  # e[i] is a (3, 1) column
    for acm in (sasakian_r3, scaled2, flat_const):
        for point in points_for(acm, count=4):
            st = acm.at(point)
            for i in range(3):
                assert np.max(np.abs(st.n3(st.xi))) < 1e-13
                for j in range(3):
                    # N^(2) antisymmetry
                    assert st.n2(e[i], e[j]) == pytest.approx(
                        -st.n2(e[j], e[i]), abs=1e-13
                    )
    # normality: N^(1) = 0 on the Sasakian chart, nonzero on the scaled one
    st = sasakian_r3.at(np.array([0.2, 0.5, -0.1]))
    assert all(np.max(np.abs(st.n1(e[i], e[j]))) < 1e-12 for i in range(3) for j in range(3))
    st2 = scaled2.at(np.array([0.2, 0.5, -0.1]))
    assert max(np.max(np.abs(st2.n1(e[i], e[j]))) for i in range(3) for j in range(3)) > 0.1


def test_closedness_of_derived_forms(sasakian_r3, sasakian_r5):
    for acm in (sasakian_r3, sasakian_r5):
        for point in points_for(acm, count=3):
            st = acm.at(point)
            # ddeta[k, l, i] = d_k d_l eta_i, from eta = g xi
            ddeta = (
                np.einsum("pklij,pj->pkli", st.ddg, st.xi[..., 0])
                + np.einsum("pkij,plj->pkli", st.dg, st.dxi)
                + np.einsum("plij,pkj->pkli", st.dg, st.dxi)
                + np.einsum("pij,pklj->pkli", st.g, st.ddxi)
            )
            d_deta = 0.5 * (ddeta - ddeta.transpose(0, 1, 3, 2))  # d_k (d eta)_ij
            assert np.max(np.abs(d_twoform(d_deta))) < 1e-12  # d(d eta) = 0
            assert np.max(np.abs(st.dPhi_form)) < 1e-12  # Phi closed here


def test_h_tensor_decomposition(scaled2):
    st = scaled2.at(np.array([0.1, 0.2, 0.3]))
    sym, skew = 0.5 * (st.h + st.h_star), 0.5 * (st.h - st.h_star)
    assert np.allclose(sym + skew, st.h, atol=1e-15)
    assert np.max(np.abs(st.h @ st.xi)) < 1e-13
    # adjoint property g(h* X, Y) = g(X, h Y)
    x = col(1.0, -0.5, 0.25)
    y = col(0.2, 1.0, -1.0)
    assert mT(st.h_star @ x) @ st.g @ y == pytest.approx(x.T @ st.g @ (st.h @ y), abs=1e-13)


def test_n_tensors_shapes(sasakian_r3):
    st = sasakian_r3.at(np.array([0.0, 0.0, 0.0]))
    x = col(1.0, 0.0, 0.0)
    y = col(0.0, 1.0, 0.0)
    # the point axis first; a vector is a column, so it keeps an axis of its own
    assert st.n1(x, y).shape == (1, 3, 1, 1)
    assert st.n2(x, y).shape == (1, 1, 1)
    assert st.n3(x).shape == (1, 3, 1)
    assert np.allclose(st.n1(x, y)[..., 0], bilinear(st.nijenhuis, x, y)[..., 0] + 2.0 * st.deta2(x, y) * st.xi)
    # direction matrices give every column pair: [i, a, b]
    d = np.hstack([x, y, x + y])
    assert st.n1(d, d[:, :2]).shape == (1, 3, 3, 2)
    assert st.n2(d, d[:, :2]).shape == (1, 3, 2)
    assert np.allclose(st.n1(d, d[:, :2])[:, :, 2, 1], st.n1(x + y, y)[:, :, 0, 0], atol=1e-15)


def test_explicit_q_is_cross_checked():
    doc = {
        "name": "with-q",
        "n": 1,
        "coords": ["x", "y", "z"],
        "domain": [[-1, 1]] * 3,
        "metric": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
        "f": [["0", "1", "0"], ["-1", "0", "0"], ["0", "0", "0"]],
        "xi": ["0", "0", "1"],
        "Q": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
    }
    from wqcm.exprdsl import load_structure_def

    acm = WeakACM(load_structure_def(doc))
    st = acm.at(np.array([0.0, 0.0, 0.0]))
    assert st.q_explicit is not None
    assert np.allclose(st.q_explicit, st.Q, atol=1e-15)


def test_at_builds_a_fresh_state(sasakian_r3):
    p = [0.1, 0.1, 0.1]
    a, b = sasakian_r3.at(p), sasakian_r3.at(np.array(p))
    assert a is not b
    (a_rxi, a_ric), (b_rxi, b_ric) = a.curvature_xi, b.curvature_xi
    assert np.array_equal(a.points, b.points) and np.array_equal(a_rxi, b_rxi) and np.array_equal(a_ric, b_ric)
    assert a.points.shape == (1, 3) and a_rxi.shape == (1, 3, 3, 3) and a_ric.shape == (1, 3, 3)


def test_normalize_zero_vector_raises(sasakian_r3):
    st = sasakian_r3.at(np.zeros(3))
    with pytest.raises(ValueError, match=r"^cannot normalize a \(near\) zero vector$"):
        st.g_normalize(np.zeros((1, 3, 1)))
