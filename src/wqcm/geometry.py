"""Pointwise Riemannian machinery on a coordinate chart.

Everything is computed from the jet of the metric components (their values
and exact first and second derivatives, from the structure's tape), so
Christoffel symbols carry exact first derivatives of g and the curvature
tensor carries exact second derivatives; no nested numerical
differentiation appears anywhere.  Every function takes and returns plain
arrays; the metric jet is laid out as g[i, j] = g_ij, dg[k, i, j] = d_k g_ij
and ddg[k, l, i, j] = d_k d_l g_ij, and g_inv is the inverse of g.

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
    return np.triu(np.linalg.inv(lower).T)


def _dg_bracket(dg: np.ndarray) -> np.ndarray:
    """bracket[l, i, j] = d_i g_jl + d_j g_il - d_l g_ij."""
    return dg.transpose(2, 0, 1) + dg.transpose(2, 1, 0) - dg


def christoffel(g_inv: np.ndarray, dg: np.ndarray) -> np.ndarray:
    """Levi-Civita coefficients, Gamma[k, i, j] = Gamma^k_ij."""
    # Gamma^k_ij = (1/2) g^{kl} (d_i g_jl + d_j g_il - d_l g_ij)
    return 0.5 * np.einsum("kl,lij->kij", g_inv, _dg_bracket(dg))


def christoffel_derivative(g_inv: np.ndarray, dg: np.ndarray, ddg: np.ndarray) -> np.ndarray:
    """dGamma[m, k, i, j] = d_m Gamma^k_ij, from exact second derivatives of g."""
    d_ginv = -np.einsum("ka,mab,bl->mkl", g_inv, dg, g_inv)
    bracket = _dg_bracket(dg)
    # dbracket[m, l, i, j] = d_m (d_i g_jl + d_j g_il - d_l g_ij)
    dbracket = ddg.transpose(0, 3, 1, 2) + ddg.transpose(0, 3, 2, 1) - ddg
    return 0.5 * (
        np.einsum("mkl,lij->mkij", d_ginv, bracket)
        + np.einsum("kl,mlij->mkij", g_inv, dbracket)
    )


def riemann(g_inv: np.ndarray, dg: np.ndarray, ddg: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """Curvature components R[l, k, i, j] = R^l_{kij}; (R_{X,Y}Z)^l = R^l_{kij} X^i Y^j Z^k,
    from the Christoffel symbols `gamma` of the metric."""
    dgamma = christoffel_derivative(g_inv, dg, ddg)
    r = (
        dgamma.transpose(1, 3, 0, 2)  # d_i Gamma^l_jk -> [l,k,i,j]
        - dgamma.transpose(1, 3, 2, 0)  # d_j Gamma^l_ik
        + np.einsum("lim,mjk->lkij", gamma, gamma)
        - np.einsum("ljm,mik->lkij", gamma, gamma)
    )
    return r


def bilinear(t: np.ndarray, x, y) -> np.ndarray:
    """t[k, i, j] x^k y^j.  Each of x, y is a vector or a matrix of column
    vectors; matrices give every column pair, out[i, a, b] for x[:, a], y[:, b],
    and a vector argument has no axis of its own in the result."""
    (k, i, j), xs, ys = t.shape, np.shape(x)[1:], np.shape(y)[1:]
    ty = t @ np.reshape(y, (j, -1))  # [k, i, b]
    out = np.reshape(x, (k, -1)).T @ ty.reshape(k, -1)  # [a, (i, b)]
    return out.reshape(-1, i, ty.shape[2]).transpose(1, 0, 2).reshape((i,) + xs + ys)


def curvature(r: np.ndarray, x, y, z: np.ndarray) -> np.ndarray:
    """R_{X,Y} Z from the curvature tensor r; X and Y may be matrices of
    columns (see `bilinear`)."""
    rz = r.transpose(0, 2, 3, 1) @ z  # [l, i, j]
    return bilinear(rz.transpose(1, 0, 2), x, y)


def sectional(g: np.ndarray, x: np.ndarray, y, r: np.ndarray):
    """Sectional curvature of the plane spanned by x, y; for a matrix y, of the
    plane of x with each column of y."""
    gx = g @ x
    den = (x @ gx) * np.sum(y * (g @ y), axis=0) - (gx @ y) ** 2
    if np.any(den < 1e-12):
        raise ValueError("plane is degenerate (vectors nearly dependent)")
    # g(R_{X,Y} Y, X) = R^l_{kij} gx_l x^i y^j y^k
    d = len(x)
    a = (gx @ (r.transpose(0, 1, 3, 2) @ x).reshape(d, -1)).reshape(d, d)  # [k, j]
    return np.sum(y * (a @ y), axis=0) / den


def ricci(x: np.ndarray, y: np.ndarray, r: np.ndarray) -> float:
    """Ric(X, Y) = tr(Z -> R_{Z,X} Y) = R^l_{klj} Y^k X^j: the trace of the
    curvature tensor r over its first and third indices."""
    return float(y @ np.trace(r, axis1=0, axis2=2) @ x)


# -- covariant derivatives (component level) -----------------------------------


def cov_vector(gamma: np.ndarray, v: np.ndarray, dv: np.ndarray) -> np.ndarray:
    """nabla v for a vector field: out[k, i] = d_k v^i + Gamma^i_km v^m."""
    return dv + np.einsum("ikm,m->ki", gamma, v)


def cov_oneform(gamma: np.ndarray, w: np.ndarray, dw: np.ndarray) -> np.ndarray:
    """nabla w for a 1-form: out[k, j] = d_k w_j - Gamma^m_kj w_m."""
    return dw - np.einsum("mkj,m->kj", gamma, w)


def cov_tensor11(gamma: np.ndarray, t: np.ndarray, dt: np.ndarray) -> np.ndarray:
    """nabla T for a (1,1)-tensor: out[k, i, j] = d_k T^i_j + Gamma^i_km T^m_j - Gamma^m_kj T^i_m."""
    return dt + np.einsum("ikm,mj->kij", gamma, t) - np.einsum("mkj,im->kij", gamma, t)


def lie_derivative_tensor11(
    zv: np.ndarray, zd: np.ndarray, t: np.ndarray, dt: np.ndarray
) -> np.ndarray:
    """(L_Z T)^i_j = Z^k d_k T^i_j - T^k_j d_k Z^i + T^i_k d_j Z^k."""
    return (
        np.einsum("k,kij->ij", zv, dt)
        - np.einsum("kj,ki->ij", t, zd)
        + np.einsum("ik,jk->ij", t, zd)
    )


def d_oneform(dw: np.ndarray) -> np.ndarray:
    """Exterior derivative of a 1-form with the 1/2 normalization:
    (d w)_ij = (1/2)(d_i w_j - d_j w_i), given dw[k, i] = d_k w_i."""
    return 0.5 * (dw - dw.T)


def d_twoform(dphi: np.ndarray) -> np.ndarray:
    """Exterior derivative of a 2-form with the 1/3 normalization, on the
    coordinate frame: out[i, j, k] = (1/3)(d_i phi_jk + d_j phi_ki + d_k phi_ij),
    given dphi[k, i, j] = d_k phi_ij."""
    return (dphi + dphi.transpose(1, 2, 0) + dphi.transpose(2, 0, 1)) / 3.0
