"""Second-order forward-mode jets.

A jet carries the value, gradient and Hessian of a scalar function of the
chart coordinates at one point.  All derivative information downstream
(Christoffel symbols, curvature, Lie and exterior derivatives) is obtained
by evaluating coordinate expressions over this arithmetic, so every
derivative is exact up to rounding.

The Hessian is a full (d, d) matrix, and it is exactly symmetric by
construction: every update adds symmetric terms (`cross + cross.T`,
`outer(g, g)`) to symmetric matrices, and IEEE sums and products commute,
so entries (i, j) and (j, i) take the same rounding.
"""

from __future__ import annotations

import math

import numpy as np


class Jet2:
    """Truncated second-order Taylor data of a scalar at a point."""

    __slots__ = ("value", "grad", "hess")

    def __init__(self, value: float, grad: np.ndarray, hess: np.ndarray):
        self.value = value
        self.grad = grad
        self.hess = hess

    @property
    def dim(self) -> int:
        return self.grad.shape[0]

    # -- construction ------------------------------------------------------

    @staticmethod
    def constant(c: float, dim: int) -> "Jet2":
        return Jet2(float(c), np.zeros(dim), np.zeros((dim, dim)))

    @staticmethod
    def coordinate(point: np.ndarray, index: int) -> "Jet2":
        point = np.asarray(point, dtype=float)
        dim = point.shape[0]
        if not 0 <= index < dim:
            raise IndexError(f"coordinate index {index} out of range for dimension {dim}")
        g = np.zeros(dim)
        g[index] = 1.0
        return Jet2(float(point[index]), g, np.zeros((dim, dim)))

    # -- helpers -----------------------------------------------------------

    def _coerce(self, other) -> "Jet2":
        if isinstance(other, Jet2):
            if other.dim != self.dim:
                raise ValueError(f"jet dimension mismatch: {self.dim} vs {other.dim}")
            return other
        return Jet2.constant(float(other), self.dim)

    def _chain(self, f0: float, f1: float, f2: float) -> "Jet2":
        """Compose with a scalar function given its value and derivatives."""
        return Jet2(f0, f1 * self.grad, f1 * self.hess + f2 * np.outer(self.grad, self.grad))

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other) -> "Jet2":
        o = self._coerce(other)
        return Jet2(self.value + o.value, self.grad + o.grad, self.hess + o.hess)

    __radd__ = __add__

    def __sub__(self, other) -> "Jet2":
        o = self._coerce(other)
        return Jet2(self.value - o.value, self.grad - o.grad, self.hess - o.hess)

    def __rsub__(self, other) -> "Jet2":
        return self._coerce(other) - self

    def __neg__(self) -> "Jet2":
        return Jet2(-self.value, -self.grad, -self.hess)

    def __mul__(self, other) -> "Jet2":
        o = self._coerce(other)
        cross = np.outer(self.grad, o.grad)
        return Jet2(
            self.value * o.value,
            self.value * o.grad + o.value * self.grad,
            self.value * o.hess + o.value * self.hess + (cross + cross.T),
        )

    __rmul__ = __mul__

    def _reciprocal(self) -> "Jet2":
        if self.value == 0.0:
            raise ZeroDivisionError("jet division by zero value")
        v = self.value
        return self._chain(1.0 / v, -1.0 / (v * v), 2.0 / (v * v * v))

    def __truediv__(self, other) -> "Jet2":
        return self * self._coerce(other)._reciprocal()

    def __rtruediv__(self, other) -> "Jet2":
        return self._coerce(other) * self._reciprocal()


# -- elementary functions ----------------------------------------------------


def sin(a: Jet2) -> Jet2:
    s, c = math.sin(a.value), math.cos(a.value)
    return a._chain(s, c, -s)


def cos(a: Jet2) -> Jet2:
    s, c = math.sin(a.value), math.cos(a.value)
    return a._chain(c, -s, -c)


def exp(a: Jet2) -> Jet2:
    e = math.exp(a.value)
    return a._chain(e, e, e)


def sqrt(a: Jet2) -> Jet2:
    if a.value <= 0.0:
        raise ValueError(f"sqrt of non-positive jet value {a.value}")
    r = math.sqrt(a.value)
    return a._chain(r, 0.5 / r, -0.25 / (r * a.value))


def powi(a: Jet2, k: int) -> Jet2:
    """Integer power; negative exponents require a nonzero value."""
    if not isinstance(k, int):
        raise TypeError(f"powi exponent must be an integer, got {k!r}")
    if k == 0:
        return Jet2.constant(1.0, a.dim)
    if k < 0 and a.value == 0.0:
        raise ZeroDivisionError("negative power of zero jet value")
    v = a.value
    f2 = 0.0 if k == 1 else k * (k - 1) * v ** (k - 2)
    return a._chain(v**k, k * v ** (k - 1), f2)
