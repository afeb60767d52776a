"""Structure classification: axiom validation, class residuals, the adapted
f-basis and the contact volume.

Residuals are reported raw (g-norms of the defect tensors); verdicts compare
them against the tolerance tiers.  For the quasi class the report also
carries the defect at the canonical direction X = Y = e_1 (the first f-basis
vector), which is the quantity with a closed-form oracle on the scaled
fixtures.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .geometry import bilinear, orthonormal_frame
from .linalg import gram_schmidt, jacobi_eigh
from .structure import PointState, StructureError, WeakACM


@dataclass(frozen=True)
class Tolerances:
    """Default tolerance tiers by derivative depth of the identity."""

    algebraic: float = 1e-10
    deriv: float = 1e-9
    curv: float = 1e-8

    def as_dict(self) -> dict:
        return {"algebraic": self.algebraic, "deriv": self.deriv, "curv": self.curv}


CLASS_NAMES = (
    "weak-acm-axioms",
    "contact-metric",
    "quasi",
    "normal",
    "sasakian",
    "nearly-sasakian",
    "killing-xi",
    "k-contact",
)


def direction_set(st: PointState, seed: int, extra: int = 8) -> np.ndarray:
    """Deterministic test directions, one per row: the coordinate frame plus
    seeded random g-unit vectors.  Identities are multilinear, so the frame
    alone decides them; the random vectors guard against implementation
    errors."""
    rng = np.random.default_rng(
        seed * 1_000_003 + hash(tuple(round(float(c), 12) for c in st.point)) % 1_000_003
    )
    randoms = st.g_normalize(rng.standard_normal((extra, st.dim)).T).T
    return np.vstack([np.eye(st.dim), randoms])


class Worst:
    """Largest residual of each check over the points where it is asserted.

    NaN and inf are kept, so they fail the check: the builtin max drops a NaN
    that comes second."""

    def __init__(self):
        self.value: dict[str, float] = defaultdict(float)
        self.points: dict[str, int] = defaultdict(int)

    def update(self, cid: str, residual) -> None:
        self.value[cid] = float(np.maximum(self.value[cid], residual))

    def admit(self, ids, gate: float = 0.0, tol: float = 0.0) -> bool:
        """Count this point for the checks `ids` unless their hypothesis
        residual `gate` exceeds `tol`; True when their residuals are due here.
        A non-finite hypothesis counts the point and becomes the residual of
        each check, so they fail instead of being skipped."""
        if math.isfinite(gate) and gate > tol:
            return False
        for cid in ids:
            self.points[cid] += 1
            if not math.isfinite(gate):
                self.update(cid, gate)
        return math.isfinite(gate)


# -- axiom validation ----------------------------------------------------------


@dataclass
class AxiomReport:
    residuals: dict[str, float]
    q_min_eigenvalue: float
    f_singular_values: list[float]
    tol: float
    passed: bool
    failures: list[str] = field(default_factory=list)


def _q_spectrum(st: PointState):
    """Eigenvalues of Q in a g-orthonormal frame (Q is g-self-adjoint)."""
    frame = orthonormal_frame(st.g)
    m = frame.T @ st.g @ st.Q @ frame
    vals, _ = jacobi_eigh(0.5 * (m + m.T))
    return vals


def _f_singular_values(st: PointState):
    frame = orthonormal_frame(st.g)
    fm = frame.T @ st.g @ st.f @ frame  # f in the orthonormal frame
    vals, _ = jacobi_eigh(fm.T @ fm)
    return np.sqrt(np.maximum(vals, 0.0))


def axiom_residuals(st: PointState) -> dict[str, float]:
    """Residuals of the defining axioms (2) and identities (3) at one point."""
    return {
        "eta-normalization": abs(st.eta @ st.xi - 1.0),
        "f-square": np.max(np.abs(st.f @ st.f + st.Q - np.outer(st.xi, st.eta))),
        "metric-compatibility": np.max(
            np.abs(st.f.T @ st.g @ st.f - st.g @ st.Q + np.outer(st.eta, st.eta))
        ),
        "f-xi": np.max(np.abs(st.f @ st.xi)),
        "eta-f": np.max(np.abs(st.eta @ st.f)),
        "eta-Q": np.max(np.abs(st.eta @ st.Q - st.eta)),
        "Qf-commutator": np.max(np.abs(st.Q @ st.f - st.f @ st.Q)),
        "Qt-xi": np.max(np.abs(st.Qt @ st.xi)),
        "eta-Qt": np.max(np.abs(st.eta @ st.Qt)),
    }


def validate_axioms(s: WeakACM, points, tol: float = 1e-10) -> AxiomReport:
    """Residuals of the defining axioms and algebraic identities at each point."""
    res: dict[str, float] = {}
    q_min = math.inf
    sing = None
    rank_ok = True

    def upd(name: str, value: float) -> None:
        res[name] = float(np.maximum(res.get(name, 0.0), value))

    for point in points:
        if not s.sdef.contains(point):
            raise ValueError(f"point {np.asarray(point).tolist()} outside the chart domain")
        st = s.at(point)
        for name, value in axiom_residuals(st).items():
            upd(name, value)
        upd("f-skew-symmetry", np.max(np.abs(st.g @ st.f + (st.g @ st.f).T)))
        gq = st.g @ st.Q
        upd("Q-self-adjoint", np.max(np.abs(gq - gq.T)))
        if st.q_explicit is not None:
            upd("Q-consistency", np.max(np.abs(st.q_explicit - st.Q)))
        spec = _q_spectrum(st)
        q_min = min(q_min, float(spec[0]))
        sv = np.sort(_f_singular_values(st))
        sing = sv
        # rank f = 2n: exactly one singular value (near) zero at every point.
        # The zero is a square root of an eigensolver residual, so it only
        # resolves to about sqrt(eps) of the largest singular value.
        scale = 1.0 + sv[-1]
        if not (sv[0] < 1e-6 * scale and np.all(sv[1:] > 1e-4 * scale)):
            rank_ok = False
        upd("h-xi", np.max(np.abs(st.h @ st.xi)))
        upd("n3-xi", np.max(np.abs(st.n3(st.xi))))

    failures = [name for name, value in res.items() if not value <= tol]  # NaN fails
    if q_min <= 0.0:
        failures.append("Q-positive-definite")
    if not rank_ok:
        failures.append("f-rank")
    sv_sorted = sing
    return AxiomReport(
        residuals=res,
        q_min_eigenvalue=q_min,
        f_singular_values=[float(v) for v in sv_sorted],
        tol=tol,
        passed=not failures,
        failures=failures,
    )


# -- class residuals ------------------------------------------------------------


@dataclass
class ClassResult:
    residual: float
    tol: float
    verdict: bool
    canonical_residual: float | None = None


@dataclass
class ClassReport:
    structure: str
    seed: int
    classes: dict[str, ClassResult]


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


def class_residuals(
    s: WeakACM,
    points,
    tolerances: Tolerances = Tolerances(),
    seed: int = 7,
) -> ClassReport:
    axioms = validate_axioms(s, points, tol=tolerances.algebraic)
    weak_res = float(np.max(list(axioms.residuals.values())))

    worst = Worst()
    for point in points:
        st = s.at(point)
        d, _ = st.directions(seed)
        sasaki = st.gnorm(sasakian_defect(st, d, d))
        e1 = st.fbasis.e[0][:, None]
        worst.update("contact-metric", st.contact_residual)
        worst.update("killing-xi", st.killing_residual)
        worst.update("quasi", st.quasi_residual(seed))
        worst.update("normal", np.max(st.gnorm(st.n1(d, d))))
        worst.update("sasakian", np.max(sasaki))
        # the nearly-Sasakian defect is the Sasakian one at X = Y
        worst.update("nearly-sasakian", np.max(np.diagonal(sasaki)))
        worst.update("quasi-canonical", np.max(st.gnorm(quasi_defect(st, e1, e1))))

    t = tolerances
    classes = {"weak-acm-axioms": ClassResult(weak_res, t.algebraic, axioms.passed)}
    for name in ("contact-metric", "quasi", "normal", "sasakian", "nearly-sasakian", "killing-xi"):
        r = worst.value[name]
        classes[name] = ClassResult(r, t.deriv, r <= t.deriv)
    classes["quasi"].canonical_residual = worst.value["quasi-canonical"]
    kc = float(np.maximum(classes["contact-metric"].residual, classes["killing-xi"].residual))
    classes["k-contact"] = ClassResult(
        kc, t.deriv, classes["contact-metric"].verdict and classes["killing-xi"].verdict
    )
    return ClassReport(structure=s.name, seed=seed, classes=classes)


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
        out = [self.xi]
        for e, fe in zip(self.e, self.fe):
            out.extend((e, fe))
        return out


def _tie_break_column(vecs: np.ndarray) -> int:
    """Among eigenvector columns, pick the one whose largest-magnitude
    component has the lowest coordinate index (deterministic for repeated
    eigenvalues)."""
    best, best_idx = None, 0
    for k in range(vecs.shape[1]):
        idx = int(np.argmax(np.abs(vecs[:, k])))
        if best is None or idx < best:
            best, best_idx = idx, k
    return best_idx


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

    es, fes, lams = [], [], []
    for _ in range(n):
        m = w.T @ st.g @ st.Q @ w
        vals, vecs = jacobi_eigh(0.5 * (m + m.T))
        lam = float(vals[0])
        if lam <= 0.0:
            raise StructureError("Q is not positive definite on ker eta")
        same = np.where(np.abs(vals - lam) <= 1e-9 * max(1.0, abs(lam)))[0]
        col = same[_tie_break_column(w @ vecs[:, same])]
        e = w @ vecs[:, col]
        e = e / st.gnorm(e)
        fe = st.f @ e
        es.append(e)
        fes.append(fe)
        lams.append(lam)
        # deflate span{e, fe} out of the working subspace
        fe_unit = fe / st.gnorm(fe)
        cols = []
        for k in range(w.shape[1]):
            v = w[:, k].copy()
            v -= st.gdot(e, v) * e
            v -= st.gdot(fe_unit, v) * fe_unit
            cols.append(v)
        w = gram_schmidt(np.array(cols).T, st.g)
    return FBasis(
        point=np.asarray(point, dtype=float),
        xi=st.xi.copy(),
        e=tuple(es),
        fe=tuple(fes),
        lam=tuple(lams),
    )


# -- contact volume ---------------------------------------------------------------


def _wedge(a: dict, b: dict) -> dict:
    """Wedge product of forms in the sorted-multi-index basis
    {dx^I : I strictly increasing}."""
    out: dict[tuple, float] = {}
    for i_idx, av in a.items():
        for j_idx, bv in b.items():
            if set(i_idx) & set(j_idx):
                continue
            merged = i_idx + j_idx
            order = sorted(range(len(merged)), key=lambda k: merged[k])
            sign = 1.0
            # parity of the sorting permutation
            seen = [False] * len(order)
            for start in range(len(order)):
                if seen[start]:
                    continue
                length, k = 0, start
                while not seen[k]:
                    seen[k] = True
                    k = order[k]
                    length += 1
                if length % 2 == 0:
                    sign = -sign
            key = tuple(sorted(merged))
            out[key] = out.get(key, 0.0) + sign * av * bv
    return {k: v for k, v in out.items() if v != 0.0}


def contact_volume(s: WeakACM, point) -> float:
    """eta wedge (d eta)^n evaluated on the f-basis at the point."""
    st = s.at(point)
    basis = st.fbasis.vectors()
    eta_form = {(i,): float(st.eta[i]) for i in range(st.dim) if st.eta[i] != 0.0}
    deta = {
        (i, j): float(st.deta_form[i, j])
        for i, j in combinations(range(st.dim), 2)
        if st.deta_form[i, j] != 0.0
    }
    form = eta_form
    for _ in range(st.n):
        form = _wedge(form, deta)
    coeff = form.get(tuple(range(st.dim)), 0.0)
    mat = np.column_stack(basis)
    return float(coeff * np.linalg.det(mat))
