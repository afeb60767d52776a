"""Pointwise Riemannian machinery on a coordinate chart.

Everything is computed from the jet of the metric components (their values
and exact first and second derivatives, from the structure's tape), so
Christoffel symbols carry exact first derivatives of g and the curvature
carries exact second derivatives; no nested numerical differentiation
appears anywhere.  The curvature is built only with a vector z in its Z
slot, as the array R_{., .} z of `curvature_z`: z is contracted into the
connection before it is differentiated, so neither d Gamma^l_ij nor the
full tensor R^l_{kij}, each d times larger, is ever formed.  Sectional
curvatures K(x, .) are read from the Jacobi matrix ell Y = R_{x,Y} x, that
array contracted once more with x.  Every function takes and returns plain
arrays; the metric jet is laid out as g[i, j] = g_ij, dg[k, i, j] = d_k g_ij
and ddg[k, l, i, j] = d_k d_l g_ij, and g_inv is the inverse of g.  Any
leading axes (a block of points) broadcast: g may be (P, d, d), and so on.
A vector is a flat (..., d) array, except where a function takes test
directions: those are matrices of columns (..., d, m), one column for a
single vector.

Conventions used throughout (they matter, the check suites depend on them):

  * curvature  R_{X,Y} Z = nabla_X nabla_Y Z - nabla_Y nabla_X Z - nabla_[X,Y] Z,
    components R^l_{kij} = d_i Gamma^l_jk - d_j Gamma^l_ik
                           + Gamma^l_im Gamma^m_jk - Gamma^l_jm Gamma^m_ik
  * the exterior derivative of a 1-form carries a 1/2 factor:
    d eta(X,Y) = (1/2)(X eta(Y) - Y eta(X) - eta([X,Y]))
  * the exterior derivative of a 2-form carries a 1/3 factor.

With these, the sectional curvature of every plane containing the Reeb
field of the built-in Sasakian example equals +1.
"""

from __future__ import annotations

import numpy as np


def mT(a: np.ndarray) -> np.ndarray:
    """The transpose of each matrix of a stack: the last two axes swapped."""
    return a.swapaxes(-1, -2)


def orthonormal_frame(g: np.ndarray) -> np.ndarray:
    """The g-orthonormal frame (columns) of Gram-Schmidt on the coordinate
    frame: with g = L L^T (Cholesky), the upper-triangular L^-T.  The
    factor validates g: Cholesky lets NaN and inf through, so the entries
    are checked to be finite first.  The caller names the point."""
    if not np.all(np.isfinite(g)):
        raise ValueError("metric is not finite")
    try:
        lower = np.linalg.cholesky(g)
    except np.linalg.LinAlgError as exc:
        raise ValueError("metric is not positive definite") from exc
    # the inverse of a triangular matrix is triangular: triu drops the
    # rounding fill-in of the pivoted solve
    return np.triu(mT(np.linalg.inv(lower)))


def _dg_bracket(dg: np.ndarray) -> np.ndarray:
    """bracket[l, i, j] = d_i g_jl + d_j g_il - d_l g_ij, over the last three
    axes of dg[k, i, j] = d_k g_ij."""
    out = -dg
    out += np.moveaxis(dg, -1, -3)
    out += dg.swapaxes(-1, -3)
    return out


def contract(a: np.ndarray, t: np.ndarray) -> np.ndarray:
    """a[k, l] t[l, i, j] summed over l: out[k, i, j]."""
    out = a @ t.reshape(t.shape[:-2] + (-1,))
    return out.reshape(out.shape[:-1] + t.shape[-2:])


def christoffel(g_inv: np.ndarray, dg: np.ndarray) -> np.ndarray:
    """Levi-Civita coefficients, Gamma[k, i, j] = Gamma^k_ij."""
    # Gamma^k_ij = (1/2) g^{kl} (d_i g_jl + d_j g_il - d_l g_ij)
    return 0.5 * contract(g_inv, _dg_bracket(dg))


def curvature_z(g_inv: np.ndarray, dg: np.ndarray, ddg: np.ndarray, gamma: np.ndarray, z: np.ndarray) -> np.ndarray:
    """The curvature with the vector z (a (d, 1) column) in its Z slot,
    R_{., .} z, from the Christoffel symbols `gamma` of the metric, laid out
    as `bilinear` reads it: out[i, l, j] = R^l_{kij} z^k, so that
    (R_{X,Y} z)^l = out[i, l, j] X^i Y^j.  z is contracted before the
    connection is differentiated, so neither d Gamma nor the full tensor is
    built."""
    # t[i, l, j] = d_i Gamma^l_jk z^k + Gamma^l_im Gamma^m_jk z^k, so that
    # R^l_{kij} z^k = t[i, l, j] - t[j, l, i]; with z constant and B the
    # bracket of dg, d_i (Gamma z) = g^-1 ((1/2) (d_i B) z - (d_i g) (Gamma z))
    gz = (gamma @ z[..., None, :, :])[..., None, :, :, 0]  # [1, l, j] = Gamma^l_jk z^k
    bz = (_dg_bracket(ddg) @ z[..., None, None, :, :])[..., 0]  # [i, m, j] = d_i B[m, j, k] z^k
    t = g_inv[..., None, :, :] @ (0.5 * bz - dg @ gz)
    t += gamma.swapaxes(-3, -2) @ gz
    return np.subtract(t, t.swapaxes(-3, -1), order="C")


def bilinear(t: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """t[k, i, j] x^k y^j at every column pair of the direction matrices
    x (d, a) and y (d, b): out[i, a, b]."""
    ty = t @ y[..., None, :, :]  # [k, i, b]
    return mT(x)[..., None, :, :] @ ty.swapaxes(-3, -2)  # [i, a, b]: x^T ty[:, i, :] for each i


def sectional(g: np.ndarray, x: np.ndarray, y: np.ndarray, ell: np.ndarray) -> np.ndarray:
    """Sectional curvature of the plane of the vector x (a (d, 1) column)
    with each column of y, from the Jacobi matrix ell Y = R_{x,Y} x: out[b]."""
    gx = g @ x
    den = (mT(x) @ gx)[..., 0] * np.sum(y * (g @ y), axis=-2) - (mT(gx) @ y)[..., 0, :] ** 2
    if np.any(den < 1e-12):
        raise ValueError("plane is degenerate (vectors nearly dependent)")
    # g(R_{X,Y} Y, X) = g(R_{Y,X} X, Y) = -g(ell Y, Y) by the pair symmetry of the curvature
    return -np.sum(y * (g @ (ell @ y)), axis=-2) / den


# -- nabla and d; a state takes nabla eta, nabla Q, L_xi Q, d Phi and [f, f] from nabla xi and nabla f --


def cov_tensor11(gamma: np.ndarray, t: np.ndarray, dt: np.ndarray) -> np.ndarray:
    """nabla T for a (1,1)-tensor: out[k, i, j] = d_k T^i_j + Gamma^i_km T^m_j - Gamma^m_kj T^i_m."""
    return dt + (gamma @ t[..., None, :, :] - contract(t, gamma)).swapaxes(-3, -2)


def d_oneform(dw: np.ndarray) -> np.ndarray:
    """Exterior derivative of a 1-form with the 1/2 normalization:
    (d w)_ij = (1/2)(d_i w_j - d_j w_i), given dw[k, i] = d_k w_i."""
    return 0.5 * (dw - mT(dw))


def d_twoform(dphi: np.ndarray) -> np.ndarray:
    """Exterior derivative of a 2-form with the 1/3 normalization, on the
    coordinate frame: out[i, j, k] = (1/3)(d_i phi_jk + d_j phi_ki + d_k phi_ij),
    given dphi[k, i, j] = d_k phi_ij or, as Gamma cancels for a skew phi, nabla_k phi_ij."""
    return (dphi + np.moveaxis(dphi, -3, -1) + np.moveaxis(dphi, -1, -3)) / 3.0
