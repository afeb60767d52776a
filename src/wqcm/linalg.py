"""Small dense linear algebra: a symmetric eigensolver with a fixed sign
rule and modified Gram-Schmidt with respect to an arbitrary inner product.

Dimensions here are tiny (at most 10), so determinism matters more than
speed.
"""

from __future__ import annotations

import math

import numpy as np


def eigh(a: np.ndarray):
    """Eigenvalues (ascending) and eigenvectors (columns) of a symmetric
    matrix.  The sign of each eigenvector is fixed: its largest-magnitude
    component is positive (the first such component on a tie)."""
    vals, vecs = np.linalg.eigh(a)
    lead = vecs[np.argmax(np.abs(vecs), axis=0), np.arange(vecs.shape[1])]
    return vals, vecs * np.where(lead < 0.0, -1.0, 1.0)


def gram_schmidt(vectors: np.ndarray, gram: np.ndarray, pivot_tol: float = 1e-12) -> np.ndarray:
    """Modified Gram-Schmidt of the columns of `vectors` under the inner
    product <u, v> = u^T gram v.  Columns with norm below pivot_tol after
    projection are dropped.  Returns orthonormal columns."""
    out = []
    for k in range(vectors.shape[1]):
        w = vectors[:, k].astype(float).copy()
        for u in out:
            w -= (u @ gram @ w) * u
        # second pass for numerical orthogonality
        for u in out:
            w -= (u @ gram @ w) * u
        norm = math.sqrt(max(w @ gram @ w, 0.0))
        if norm > pivot_tol:
            out.append(w / norm)
    return np.array(out).T if out else np.zeros((vectors.shape[0], 0))
