import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wqcm import jet
from wqcm.jet import Jet2


def fd_gradient(fn, x, h=1e-6):
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for i in range(len(x)):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (fn(x + e) - fn(x - e)) / (2 * h)
    return g


def fd_hessian(fn, x, h=1e-4):
    x = np.asarray(x, dtype=float)
    d = len(x)
    m = np.zeros((d, d))
    for i in range(d):
        for j in range(d):
            ei = np.zeros(d)
            ej = np.zeros(d)
            ei[i] = h
            ej[j] = h
            m[i, j] = (
                fn(x + ei + ej) - fn(x + ei - ej) - fn(x - ei + ej) + fn(x - ei - ej)
            ) / (4 * h * h)
    return m


def jet_of(fn_jets, point):
    coords = [Jet2.coordinate(point, i) for i in range(len(point))]
    return fn_jets(*coords)


CASES = [
    (lambda x, y, z: x * y * z + x, lambda p: p[0] * p[1] * p[2] + p[0]),
    (
        lambda x, y, z: jet.sin(x * y) + jet.cos(z) * jet.exp(y),
        lambda p: math.sin(p[0] * p[1]) + math.cos(p[2]) * math.exp(p[1]),
    ),
    (
        lambda x, y, z: jet.sqrt(x * x + y * y + 1.0) / (z + 2.0),
        lambda p: math.sqrt(p[0] ** 2 + p[1] ** 2 + 1.0) / (p[2] + 2.0),
    ),
    (
        lambda x, y, z: jet.powi(x + y, 3) - jet.powi(z + 2.0, -2),
        lambda p: (p[0] + p[1]) ** 3 - (p[2] + 2.0) ** (-2),
    ),
]


@pytest.mark.parametrize("fn_jets,fn", CASES)
def test_gradient_and_hessian_match_finite_differences(fn_jets, fn):
    for point in ([0.3, -0.7, 0.5], [1.1, 0.2, -0.4]):
        point = np.array(point)
        j = jet_of(fn_jets, point)
        assert j.value == pytest.approx(fn(point), rel=1e-12)
        assert np.allclose(j.grad, fd_gradient(fn, point), rtol=1e-6, atol=1e-8)
        assert np.allclose(j.hess, fd_hessian(fn, point), rtol=1e-4, atol=1e-5)


def test_constant_and_coordinate():
    c = Jet2.constant(4.5, 3)
    assert c.value == 4.5
    assert not c.grad.any() and not c.hess.any()
    x1 = Jet2.coordinate(np.array([2.0, 3.0]), 1)
    assert x1.value == 3.0
    assert np.array_equal(x1.grad, [0.0, 1.0])
    with pytest.raises(IndexError):
        Jet2.coordinate(np.array([1.0]), 5)


def test_division_by_zero_jet():
    z = Jet2.constant(0.0, 2)
    with pytest.raises(ZeroDivisionError):
        1.0 / z
    with pytest.raises(ZeroDivisionError):
        jet.powi(z, -1)


def test_powi_edge_cases():
    x = Jet2.coordinate(np.array([0.0, 1.0]), 0)
    one = jet.powi(x, 0)
    assert one.value == 1.0 and not one.grad.any()
    ident = jet.powi(x, 1)  # must not evaluate 0**(-1)
    assert ident.value == 0.0 and ident.grad[0] == 1.0
    with pytest.raises(TypeError):
        jet.powi(x, 1.5)


def test_sqrt_domain():
    with pytest.raises(ValueError):
        jet.sqrt(Jet2.constant(-1.0, 1))


def test_dimension_mismatch():
    with pytest.raises(ValueError):
        Jet2.constant(1.0, 2) + Jet2.constant(1.0, 3)


finite = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)


@st.composite
def jets(draw, dim=3):
    value = draw(finite)
    grad = np.array([draw(finite) for _ in range(dim)])
    rows, cols = np.triu_indices(dim)
    hess = np.zeros((dim, dim))
    hess[rows, cols] = hess[cols, rows] = [draw(finite) for _ in rows]
    return Jet2(value, grad, hess)


def close(a: Jet2, b: Jet2, tol=1e-9):
    scale = 1.0 + max(
        abs(a.value), abs(b.value), np.max(np.abs(a.grad)), np.max(np.abs(a.hess))
    )
    return (
        abs(a.value - b.value) <= tol * scale
        and np.all(np.abs(a.grad - b.grad) <= tol * scale)
        and np.all(np.abs(a.hess - b.hess) <= tol * scale)
    )


@settings(max_examples=200, deadline=None)
@given(jets(), jets())
def test_mul_commutative(a, b):
    assert close(a * b, b * a, tol=0.0)


@settings(max_examples=200, deadline=None)
@given(jets(), jets(), jets())
def test_add_and_mul_associate_approximately(a, b, c):
    assert close((a + b) + c, a + (b + c))
    assert close((a * b) * c, a * (b * c))


@settings(max_examples=200, deadline=None)
@given(jets(), jets())
def test_mul_div_roundtrip(a, b):
    if abs(b.value) < 1e-3:
        return
    assert close((a * b) / b, a, tol=1e-7)


@settings(max_examples=100, deadline=None)
@given(jets(), jets(), st.integers(min_value=-3, max_value=4))
def test_hessian_matrix_is_exactly_symmetric(a, b, k):
    results = [a * b, jet.sin(a)]
    if abs(b.value) >= 1e-3:
        results.append(a / b)
    if k >= 0 or abs(a.value) >= 1e-3:
        results.append(jet.powi(a, k))
    for r in results:
        assert np.array_equal(r.hess, r.hess.T)
