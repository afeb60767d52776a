"""Weak almost-contact metric structures and their derived tensors.

The structure file supplies g, f and the Reeb field xi; everything else is
derived here:

    eta = g(xi, .)          Q = -f^2 + eta (x) xi       Qt = Q - id
    Phi(X, Y) = g(X, fY)    h = (1/2) L_xi f

A `PointState` is the only object that holds data for a chart point, and
all of it as plain arrays: the component arrays of g, f, xi and an explicit
Q (values, gradients and Hessians: its point's slice of one run of the
structure's compiled `StructureDef.tape` over a block of points), the
g-orthonormal frame, the connection and curvature, and what all check
suites share there: the test-direction matrix of the state's seed, the
adapted f-basis B and the contact volume eta ^ (d eta)^n on it, which is
n! Pf([[0, eta], [-eta, d eta]]) det B.  Each is computed once, when first
read.  `WeakACM.at` runs the tape at one point and builds a new state on
every call, so a state lives only as long as its caller holds it.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from . import geometry
from .exprdsl import Fields, StructureDef, eval_tape
from .geometry import bilinear


class PointState:
    """All tensor data of a weak a.c.m. structure at one chart point; `seed`
    picks the test directions.  `fields` are the arrays of `eval_tape` over a
    block of points, and the point is the block's point `lane`."""

    def __init__(self, sdef: StructureDef, point, seed: int, fields: Fields, lane: int):
        self.sdef = sdef
        self.point = np.asarray(point, dtype=float)
        self.seed = seed
        self.dim = self.sdef.dim
        self.n = self.sdef.n
        # dg[k, i, j] = d_k g_ij, ddg[k, l, i, j] = d_k d_l g_ij
        self.g, self.dg, self.ddg = (a[lane] for a in fields["metric"])
        self.frame = geometry.orthonormal_frame(self.g)
        self.g_inv = np.linalg.inv(self.g)
        self.f, self.df, self.ddf = (a[lane] for a in fields["f"])
        self.xi, self.dxi, self.ddxi = (a[lane] for a in fields["xi"])
        # explicit Q from the file, if any (cross-check only)
        self.q_explicit = fields["q"][0][lane] if "q" in fields else None

    # -- derived fields -----------------------------------------------------

    @cached_property
    def eta(self):
        return self.g @ self.xi

    @cached_property
    def deta(self):
        """deta[k, i] = d_k eta_i."""
        return np.einsum("kij,j->ki", self.dg, self.xi) + np.einsum(
            "ij,kj->ki", self.g, self.dxi
        )

    @cached_property
    def Q(self):
        return -self.f @ self.f + np.outer(self.xi, self.eta)

    @cached_property
    def dQ(self):
        """dQ[k, i, j] = d_k Q^i_j."""
        return (
            -np.einsum("kim,mj->kij", self.df, self.f)
            - np.einsum("im,kmj->kij", self.f, self.df)
            + np.einsum("ki,j->kij", self.dxi, self.eta)
            + np.einsum("i,kj->kij", self.xi, self.deta)
        )

    @cached_property
    def Qt(self):
        return self.Q - np.eye(self.dim)

    @cached_property
    def Q_inv(self):
        return np.linalg.inv(self.Q)

    @cached_property
    def q_spectrum(self):
        """Eigenvalues of Q in a g-orthonormal frame, ascending (Q is g-self-adjoint)."""
        m = _finite(self.frame.T @ self.g @ self.Q @ self.frame, "Q")
        return np.linalg.eigvalsh(0.5 * (m + m.T))

    @cached_property
    def f_singular_values(self):
        """Singular values of f in a g-orthonormal frame, descending."""
        return np.linalg.svd(_finite(self.frame.T @ self.g @ self.f @ self.frame, "f"), compute_uv=False)

    @cached_property
    def Phi(self):
        """Fundamental 2-form, Phi_ij = g(partial_i, f partial_j) = g_im f^m_j."""
        return self.g @ self.f

    @cached_property
    def dPhi(self):
        return np.einsum("kim,mj->kij", self.dg, self.f) + np.einsum(
            "im,kmj->kij", self.g, self.df
        )

    @cached_property
    def deta_form(self):
        """d eta as an antisymmetric matrix, with the 1/2 normalization."""
        return geometry.d_oneform(self.deta)

    @cached_property
    def dPhi_form(self):
        """d Phi as a 3-form array, with the 1/3 normalization."""
        return geometry.d_twoform(self.dPhi)

    @cached_property
    def h(self):
        """h = (1/2) L_xi f."""
        return 0.5 * geometry.lie_derivative_tensor11(self.xi, self.dxi, self.f, self.df)

    @cached_property
    def dh(self):
        """dh[l, i, j] = d_l h^i_j (uses second derivatives of f and xi)."""
        return 0.5 * (
            np.einsum("lk,kij->lij", self.dxi, self.df)
            + np.einsum("k,lkij->lij", self.xi, self.ddf)
            - np.einsum("lkj,ki->lij", self.df, self.dxi)
            - np.einsum("kj,lki->lij", self.f, self.ddxi)
            + np.einsum("lik,jk->lij", self.df, self.dxi)
            + np.einsum("ik,ljk->lij", self.f, self.ddxi)
        )

    @cached_property
    def h_star(self):
        """g-adjoint of h: g(h* X, Y) = g(X, h Y)."""
        return self.g_inv @ self.h.T @ self.g

    # -- connection and curvature -------------------------------------------

    @cached_property
    def gamma(self):
        return geometry.christoffel(self.g_inv, self.dg)

    @cached_property
    def riem(self):
        return geometry.riemann(self.g_inv, self.dg, self.ddg, self.gamma)

    @cached_property
    def nabla_xi(self):
        """(nabla xi)^i_j so that (nabla_X xi)^i = (nabla xi)^i_j X^j."""
        return geometry.cov_vector(self.gamma, self.xi, self.dxi).T

    @cached_property
    def nabla_eta(self):
        """nabla_eta[k, j] = (nabla_k eta)_j."""
        return geometry.cov_oneform(self.gamma, self.eta, self.deta)

    @cached_property
    def nabla_f(self):
        return geometry.cov_tensor11(self.gamma, self.f, self.df)

    @cached_property
    def nabla_Q(self):
        return geometry.cov_tensor11(self.gamma, self.Q, self.dQ)

    @cached_property
    def nabla_h(self):
        return geometry.cov_tensor11(self.gamma, self.h, self.dh)

    @cached_property
    def lie_xi_g(self):
        """(L_xi g)(X, Y) = g(nabla_X xi, Y) + g(X, nabla_Y xi)."""
        m = self.g @ self.nabla_xi
        return m + m.T

    @cached_property
    def lie_xi_Q(self):
        return geometry.lie_derivative_tensor11(self.xi, self.dxi, self.Q, self.dQ)

    def curvature_op(self, x, y, z):
        """R_{X,Y} Z; X and Y may be direction matrices (`geometry.bilinear`)."""
        return geometry.curvature(self.riem, x, y, z)

    def ell(self, x):
        """The curvature operator used by the suites: ell X = R_{xi, X} xi."""
        return self.curvature_op(self.xi, x, self.xi)

    def sectional(self, x, y):
        return geometry.sectional(self.g, x, y, self.riem)

    def ricci(self, x, y) -> float:
        return geometry.ricci(x, y, self.riem)

    # -- inner products -------------------------------------------------------

    def gnorm(self, x):
        """g-norm of a vector, or of each column of a d x ... array."""
        gx = (self.g @ np.reshape(x, (self.dim, -1))).reshape(np.shape(x))
        return np.sqrt(np.maximum(np.sum(x * gx, axis=0), 0.0))

    def g_normalize(self, x):
        """Scale a vector, or each column of a matrix, to g-norm 1."""
        nrm = self.gnorm(x)
        if np.any(nrm < 1e-14):
            raise ValueError("cannot normalize a (near) zero vector")
        return x / nrm

    def project_ker_eta(self, x):
        """g-orthogonal projection onto ker eta = xi-perp (of each column)."""
        return x - np.multiply.outer(self.xi, self.eta @ x)

    # -- what the check suites share ------------------------------------------

    @cached_property
    def directions(self) -> tuple[np.ndarray, np.ndarray]:
        """The direction matrix D (d x m, m = d + 8) and f D.  The columns
        of D are the coordinate frame plus random g-unit vectors drawn from
        the seed and the point.  Identities are multilinear, so the frame
        alone decides them; the random vectors guard against implementation
        errors."""
        key = hash(tuple(round(float(c), 12) for c in self.point)) % 1_000_003
        rng = np.random.default_rng(self.seed * 1_000_003 + key)
        d = np.hstack([np.eye(self.dim), self.g_normalize(rng.standard_normal((8, self.dim)).T)])
        return d, self.f @ d

    @cached_property
    def fbasis(self) -> tuple[np.ndarray, np.ndarray]:
        """The adapted basis of Q-eigenvectors: the (d, d) matrix with columns
        xi, e_1, f e_1, ..., e_n, f e_n, and the n eigenvalues lambda_i of the
        unit vectors e_i.  p is the g-orthogonal projector onto what is left
        of ker eta.  Step i takes a g-orthonormal basis of range p (the top
        2(n - i + 1) eigenvectors of p in the frame), the smallest eigenvalue
        of Q there, and as e_i the g-unit projection onto its eigenspace of
        the coordinate vector whose projection is largest (the lowest index
        on a tie); lambda_i = g(e_i, Q e_i), and p loses e_i and f e_i."""
        xi, q = _finite(self.xi, "xi"), _finite(self.Q, "Q")
        p = np.eye(self.dim) - np.outer(xi, self.eta)
        columns, lams = [xi], []
        for k in range(2 * self.n, 0, -2):
            w = self.frame @ np.linalg.eigh(self.frame.T @ self.g @ p @ self.frame)[1][:, -k:]
            vals, vecs = np.linalg.eigh(w.T @ self.g @ q @ w)
            rest = w @ vecs[:, vals - vals[0] > 1e-9 * max(1.0, abs(vals[0]))]
            proj = p - rest @ (rest.T @ self.g)  # g-orthogonal projector onto the eigenspace
            size = self.gnorm(proj)
            j = int(np.argmax(size >= (1.0 - 1e-9) * np.max(size)))
            e = proj[:, j] / size[j]
            fe = self.f @ e
            lam = float(e @ self.g @ q @ e)
            if lam <= 0.0:
                raise ValueError("Q is not positive definite on ker eta")
            columns += [e, fe]
            lams.append(lam)
            p = p - np.outer(e, self.g @ e) - np.outer(fe, self.g @ fe) / (fe @ self.g @ fe)
        return np.column_stack(columns), np.array(lams)

    @cached_property
    def contact_volume(self) -> float:
        """eta ^ (d eta)^n evaluated on the f-basis B: n! Pf(M) det B, with M
        the antisymmetric matrix [[0, eta], [-eta, d eta]]."""
        m = np.zeros((self.dim + 1, self.dim + 1))
        m[0, 1:], m[1:, 0], m[1:, 1:] = self.eta, -self.eta, self.deta_form
        return math.factorial(self.n) * _pfaffian(m) * float(np.linalg.det(self.fbasis[0]))

    # -- defects and N-tensors ----------------------------------------------------

    def quasi_defect(self, x, y):
        """LHS - RHS of the quasi-contact defining identity at every column pair
        of the direction matrices x (d x a) and y (d x b): [i, a, b]."""
        lhs = bilinear(self.nabla_f, x, y) + bilinear(self.nabla_f, self.f @ x, self.f @ y)
        rhs = 2.0 * np.multiply.outer(self.xi, x.T @ self.g @ y) - (
            x + self.h @ x + np.outer(self.xi, self.eta @ x)
        )[:, :, None] * (self.eta @ y)
        return lhs - rhs

    def sasakian_defect(self, x, y):
        """(nabla_X f) Y - g(X, Y) xi + eta(Y) X over column pairs, as `quasi_defect`."""
        lhs = bilinear(self.nabla_f, x, y)
        return lhs - np.multiply.outer(self.xi, x.T @ self.g @ y) + x[:, :, None] * (self.eta @ y)

    def n1(self, x, y):
        return self._nijenhuis(x, y) + 2.0 * np.multiply.outer(self.xi, self.deta2(x, y))

    def _nijenhuis(self, x, y):
        """[f,f]^i_{jk} x^j y^k = (f^m_j d_m f^i_k - f^m_k d_m f^i_j
                                   + f^i_m d_k f^m_j - f^i_m d_j f^m_k) x^j y^k,
        for vectors or direction matrices as in `geometry.bilinear`."""
        shape = (self.dim,) + np.shape(x)[1:] + np.shape(y)[1:]
        x, y = np.reshape(x, (self.dim, -1)), np.reshape(y, (self.dim, -1))

        def half(u, v):  # (f^m_j d_m f^i_k - f^i_m d_j f^m_k) u^j v^k
            return bilinear(self.df, self.f @ u, v) - np.tensordot(
                self.f, bilinear(self.df, u, v), axes=1
            )

        return (half(x, y) - half(y, x).transpose(0, 2, 1)).reshape(shape)

    def deta2(self, x, y):
        """d eta(X, Y) with the 1/2 normalization (over column pairs for matrices)."""
        return x.T @ self.deta_form @ y

    def n2(self, x, y):
        return 2.0 * self.deta2(self.f @ x, y) - 2.0 * self.deta2(self.f @ y, x).T

    def n3(self, x):
        """N^(3)(X) = (L_xi f) X = 2 h X."""
        return 2.0 * self.h @ x


# -- f-basis and contact volume --------------------------------------------------


def _finite(m: np.ndarray, name: str) -> np.ndarray:
    """`m`, checked before LAPACK sees it: NaN or inf entries of the tensor
    `name` are a ValueError, not a LinAlgError."""
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} is not finite")
    return m


def _pfaffian(a: np.ndarray) -> float:
    """Pfaffian of an antisymmetric matrix (0 for an odd size) by Parlett-Reid
    elimination: move the largest entry of row k right of the diagonal to
    (k, k + 1), flipping the sign on a swap, and take the Schur complement of
    the leading 2 x 2 block.  A NaN entry gives NaN."""
    a = np.array(a, dtype=float)
    d = len(a)
    if d % 2:
        return 0.0
    pf = 1.0
    for k in range(0, d, 2):
        p = k + 1 + int(np.argmax(np.abs(a[k, k + 1 :])))
        if p != k + 1:
            a[[k + 1, p]] = a[[p, k + 1]]
            a[:, [k + 1, p]] = a[:, [p, k + 1]]
            pf = -pf
        if a[k, k + 1] == 0.0:
            return 0.0
        pf *= a[k, k + 1]
        b, c = a[k, k + 2 :] / a[k, k + 1], a[k + 1, k + 2 :]
        a[k + 2 :, k + 2 :] += np.outer(c, b) - np.outer(b, c)
    return float(pf)


class WeakACM:
    """A structure definition; `at` evaluates it at a chart point."""

    def __init__(self, sdef: StructureDef):
        self.sdef = sdef
        self.name, self.n, self.dim = sdef.name, sdef.n, sdef.dim

    def at(self, point, seed: int = 7) -> PointState:
        """A new state at `point` whose test directions come from `seed`;
        nothing is kept here.  Raises the error of the tape at the point."""
        point = np.asarray(point, dtype=float)
        fields, errors = eval_tape(self.sdef.tape, point[None])
        if errors:
            raise errors[0]
        return PointState(self.sdef, point, seed, fields, 0)

