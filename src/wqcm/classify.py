"""What the checks share about a structure: tolerance tiers, test
directions, the quasi-contact and Sasakian defects, the adapted f-basis and
the contact volume.  The checks themselves are declared in `suites`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .geometry import bilinear
from .linalg import eigh, gram_schmidt
from .structure import PointState, StructureError, WeakACM


@dataclass(frozen=True)
class Tolerances:
    """Default tolerance tiers by derivative depth of the identity."""

    algebraic: float = 1e-10
    deriv: float = 1e-9
    curv: float = 1e-8

    def as_dict(self) -> dict:
        return {"algebraic": self.algebraic, "deriv": self.deriv, "curv": self.curv}


def direction_set(st: PointState, seed: int, extra: int = 8) -> np.ndarray:
    """Deterministic test directions, one per row: the coordinate frame plus
    seeded random g-unit vectors.  Identities are multilinear, so the frame
    alone decides them; the random vectors guard against implementation
    errors."""
    key = hash(tuple(round(float(c), 12) for c in st.point)) % 1_000_003
    rng = np.random.default_rng(seed * 1_000_003 + key)
    randoms = st.g_normalize(rng.standard_normal((extra, st.dim)).T).T
    return np.vstack([np.eye(st.dim), randoms])


def quasi_defect(st: PointState, x, y):
    """LHS - RHS of the quasi-contact defining identity at every column pair
    of the direction matrices x (d x a) and y (d x b): [i, a, b]."""
    lhs = bilinear(st.nabla_f, x, y) + bilinear(st.nabla_f, st.f @ x, st.f @ y)
    rhs = 2.0 * np.multiply.outer(st.xi, x.T @ st.g @ y) - (
        x + st.h @ x + np.outer(st.xi, st.eta @ x)
    )[:, :, None] * (st.eta @ y)
    return lhs - rhs


def sasakian_defect(st: PointState, x, y):
    """(nabla_X f) Y - g(X, Y) xi + eta(Y) X over column pairs, as `quasi_defect`."""
    lhs = bilinear(st.nabla_f, x, y)
    return lhs - np.multiply.outer(st.xi, x.T @ st.g @ y) + x[:, :, None] * (st.eta @ y)


# -- f-basis --------------------------------------------------------------------


@dataclass(frozen=True)
class FBasis:
    """Adapted basis {xi, e_i, f e_i} of Q-eigenvectors on ker eta."""

    point: np.ndarray
    xi: np.ndarray
    e: tuple[np.ndarray, ...]
    fe: tuple[np.ndarray, ...]
    lam: tuple[float, ...]

    def vectors(self) -> list[np.ndarray]:
        return [self.xi] + [v for pair in zip(self.e, self.fe) for v in pair]


def _tie_break_column(vecs: np.ndarray) -> int:
    """Among eigenvector columns, pick the one whose largest-magnitude
    component has the lowest coordinate index (deterministic for repeated
    eigenvalues)."""
    return min(range(vecs.shape[1]), key=lambda k: int(np.argmax(np.abs(vecs[:, k]))))


def f_basis(s: WeakACM, point) -> FBasis:
    """The iterative construction: restrict Q to ker eta, take a unit
    eigenvector with the smallest eigenvalue, adjoin its f-image, deflate
    the pair's span, repeat n times."""
    st = s.at(point)
    n, d = st.n, st.dim

    # g-orthonormal basis of ker eta (= xi-perp), deterministic.
    seed = np.concatenate([st.xi[:, None], np.eye(d)], axis=1)
    frame = gram_schmidt(seed, st.g)
    if frame.shape[1] != d:
        raise StructureError("could not complete a frame adapted to xi")
    w = frame[:, 1:]  # columns spanning ker eta

    pairs = []
    for _ in range(n):
        m = w.T @ st.g @ st.Q @ w
        if not np.all(np.isfinite(m)):
            raise StructureError("Q is not finite on ker eta")
        vals, vecs = eigh(0.5 * (m + m.T))
        lam = float(vals[0])
        if lam <= 0.0:
            raise StructureError("Q is not positive definite on ker eta")
        same = np.where(np.abs(vals - lam) <= 1e-9 * max(1.0, abs(lam)))[0]
        col = same[_tie_break_column(w @ vecs[:, same])]
        e = w @ vecs[:, col]
        e = e / st.gnorm(e)
        fe = st.f @ e
        pairs.append((e, fe, lam))
        # deflate span{e, fe} out of the working subspace
        for u in (e, fe / st.gnorm(fe)):
            w = w - np.outer(u, u @ st.g @ w)
        w = gram_schmidt(w, st.g)
    return FBasis(np.asarray(point, dtype=float), st.xi.copy(), *zip(*pairs))


# -- contact volume ---------------------------------------------------------------


def _wedge(a: dict, b: dict) -> dict:
    """Wedge product of forms in the sorted-multi-index basis
    {dx^I : I strictly increasing}."""
    out: dict[tuple, float] = {}
    for i_idx, av in a.items():
        for j_idx, bv in b.items():
            if set(i_idx) & set(j_idx):
                continue
            # both indices increase, so the inversions of the merged index
            # are its pairs (i, j) with i > j: they give the sign
            sign = (-1.0) ** sum(i > j for i in i_idx for j in j_idx)
            key = tuple(sorted(i_idx + j_idx))
            out[key] = out.get(key, 0.0) + sign * av * bv
    return {k: v for k, v in out.items() if v != 0.0}


def contact_volume(s: WeakACM, point) -> float:
    """eta wedge (d eta)^n evaluated on the f-basis at the point."""
    st = s.at(point)
    form = {(i,): float(st.eta[i]) for i in range(st.dim) if st.eta[i] != 0.0}
    pairs = combinations(range(st.dim), 2)
    deta = {(i, j): float(st.deta_form[i, j]) for i, j in pairs if st.deta_form[i, j] != 0.0}
    for _ in range(st.n):
        form = _wedge(form, deta)
    return float(form.get(tuple(range(st.dim)), 0.0) * np.linalg.det(np.column_stack(st.fbasis.vectors())))
