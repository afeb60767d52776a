"""Jets as the tape computes them: exact gradients and Hessians of
expressions, checked against finite differences and algebraic laws, and
first-order jets that are the second-order ones without the Hessian."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wqcm.exprdsl import compile_tape

from conftest import jet_at
from test_exprdsl import COORDINATES, COORDS, error_of, exprs, risky_cells, tape_outcome


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


# Each case writes the expression over the coordinate names, next to a
# plain-float version of it.
CASES = [
    (lambda x, y, z: f"{x} * {y} * {z} + {x}", lambda p: p[0] * p[1] * p[2] + p[0]),
    (
        lambda x, y, z: f"sin({x} * {y}) + cos({z}) * exp({y})",
        lambda p: math.sin(p[0] * p[1]) + math.cos(p[2]) * math.exp(p[1]),
    ),
    (
        lambda x, y, z: f"sqrt({x} * {x} + {y} * {y} + 1.0) / ({z} + 2.0)",
        lambda p: math.sqrt(p[0] ** 2 + p[1] ** 2 + 1.0) / (p[2] + 2.0),
    ),
    (
        lambda x, y, z: f"({x} + {y})^3 - ({z} + 2.0)^-2",
        lambda p: (p[0] + p[1]) ** 3 - (p[2] + 2.0) ** (-2),
    ),
]


@pytest.mark.parametrize("text_of,fn", CASES)
def test_gradient_and_hessian_match_finite_differences(text_of, fn):
    for point in ([0.3, -0.7, 0.5], [1.1, 0.2, -0.4]):
        point = np.array(point)
        v, grad, hess = jet_at(text_of(*COORDS), point)
        assert v == pytest.approx(fn(point), rel=1e-12)
        assert np.allclose(grad, fd_gradient(fn, point), rtol=1e-6, atol=1e-8)
        assert np.allclose(hess, fd_hessian(fn, point), rtol=1e-4, atol=1e-5)


def test_constant_and_coordinate():
    v, grad, hess = jet_at("4.5", [0.0, 0.0, 0.0])
    assert v == 4.5
    assert not grad.any() and not hess.any()
    v, grad, hess = jet_at("y", [2.0, 3.0, 0.0])
    assert v == 3.0
    assert np.array_equal(grad, [0.0, 1.0, 0.0]) and not hess.any()


def test_division_by_zero_jet():
    zero = [0.0, 0.0, 0.0]
    with pytest.raises(ZeroDivisionError):
        jet_at("1 / z", zero)
    with pytest.raises(ZeroDivisionError):
        jet_at("z^-1", zero)


def test_powi_edge_cases():
    at_zero = [0.0, 1.0, 0.0]
    v, grad, _ = jet_at("x^0", at_zero)
    assert v == 1.0 and not grad.any()
    v, grad, _ = jet_at("x^1", at_zero)  # must not evaluate 0**(-1)
    assert v == 0.0 and grad[0] == 1.0


def test_sqrt_domain():
    with pytest.raises(ValueError):
        jet_at("sqrt(z - 1)", [0.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        jet_at("sqrt(z)", [0.0, 0.0, 0.0])


# -- algebraic laws, on jets of random expressions at a fixed point ----------------

POINT = np.array([0.3, -0.6, 0.9])


def size(j) -> float:
    """1 + the largest entry of a jet: rounding errors scale with it."""
    return 1.0 + max(float(np.max(np.abs(part))) for part in j)


def close(a, b, tol):
    return all(np.all(np.abs(x - y) <= tol) for x, y in zip(a, b))


@settings(max_examples=200, deadline=None)
@given(exprs(), exprs())
def test_mul_commutative(a, b):
    ab, ba = jet_at(f"({a} * {b})", POINT), jet_at(f"({b} * {a})", POINT)
    assert all(np.array_equal(x, y) for x, y in zip(ab, ba))


@settings(max_examples=200, deadline=None)
@given(exprs(), exprs(), exprs())
def test_add_and_mul_associate_approximately(a, b, c):
    ja, jb, jc = (jet_at(e, POINT) for e in (a, b, c))
    sa, sb, sc = size(ja), size(jb), size(jc)
    left, right = f"(({a} + {b}) + {c})", f"({a} + ({b} + {c}))"
    assert close(jet_at(left, POINT), jet_at(right, POINT), 1e-12 * (sa + sb + sc))
    left, right = f"(({a} * {b}) * {c})", f"({a} * ({b} * {c}))"
    assert close(jet_at(left, POINT), jet_at(right, POINT), 1e-12 * sa * sb * sc)


@settings(max_examples=200, deadline=None)
@given(exprs(), exprs())
def test_mul_div_roundtrip(a, b):
    ja, jb = jet_at(a, POINT), jet_at(b, POINT)
    if abs(jb[0]) < 1e-3:
        return
    # 1/b and its derivatives grow like size(b) / |b| per order
    scale = size(ja) * (size(jb) / abs(jb[0])) ** 3
    assert close(jet_at(f"(({a} * {b}) / {b})", POINT), ja, 1e-12 * scale)


@settings(max_examples=100, deadline=None)
@given(exprs(), exprs(), st.integers(min_value=-3, max_value=4))
def test_hessian_matrix_is_exactly_symmetric(a, b, k):
    results = [f"({a} * {b})", f"sin({a})"]
    if abs(jet_at(b, POINT)[0]) >= 1e-3:
        results.append(f"({a} / {b})")
    if k >= 0 or abs(jet_at(a, POINT)[0]) >= 1e-3:
        results.append(f"({a}^{k})")
    for e in results:
        hess = jet_at(e, POINT)[2]
        assert np.array_equal(hess, hess.T)


# -- jet orders ---------------------------------------------------------------------


def assert_orders_agree(tape, points):
    """Over the points, and at each point alone, the tape at order 1 raises
    the error of order 2, by type and message, or gives the values and
    gradients of order 2 bit for bit, and no Hessians."""
    for lanes in [slice(None)] + [slice(p, p + 1) for p in range(len(points))]:
        first, second = (tape_outcome(tape, points[lanes], order) for order in (1, 2))
        assert error_of(first) == error_of(second), lanes
        if error_of(second):
            continue
        assert first.keys() == second.keys()
        for name in second:
            (v1, dv1, ddv1), (v2, dv2, ddv2) = first[name], second[name]
            assert ddv1 is None and ddv2 is not None
            assert np.array_equal(v1, v2, equal_nan=True) and np.array_equal(dv1, dv2, equal_nan=True)


@settings(max_examples=300, deadline=None)
@given(risky_cells(), st.lists(st.tuples(COORDINATES, COORDINATES, COORDINATES), min_size=1, max_size=6))
def test_first_order_jets_are_the_second_order_ones_without_hessians(cells, points):
    assert_orders_agree(compile_tape({"e": cells}, COORDS), np.array(points))


@pytest.mark.parametrize("cell, bad, error", [
    # x * x * x underflows to 0 in the second derivative 2/x^3 of 1/x alone
    ("1 / x", 1e-110, ZeroDivisionError),
    ("sqrt(x)", -0.5, ValueError),
])
def test_first_order_jets_fail_where_second_order_ones_fail(cell, bad, error):
    tape = compile_tape({"e": ["x * y", cell]}, COORDS)
    points = np.array([[0.5, 0.25, -0.5], [bad, 0.25, -0.5], [0.75, -1.0, 2.0]])
    assert_orders_agree(tape, points)
    for order in (1, 2):
        assert type(tape_outcome(tape, points, order)) is error
        assert [type(tape_outcome(tape, points[p : p + 1], order)) for p in range(3)] == [dict, error, dict]
