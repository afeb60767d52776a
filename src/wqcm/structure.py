"""Weak almost-contact metric structures and their derived tensors.

The structure file supplies g, f and the Reeb field xi; everything else is
derived here:

    eta = g(xi, .)          Q = -f^2 + eta (x) xi       Qt = Q - id
    Phi(X, Y) = g(X, fY)    h = (1/2) L_xi f

A `PointState` is the only object that holds data for chart points: a block
of P points, and all of it as plain arrays with the point axis first.  It
holds the component arrays of g, f, xi and an explicit Q (values, gradients
and, from jets of order 2, Hessians: the block's part of one run of the
structure's compiled `StructureDef.tape` over a chunk of points; from jets
of order 1 the Hessians `ddg`, `ddf` and `ddxi` are None, so that what reads
them, `dh` and `curvature_xi`, raises), the g-orthonormal frame, the
connection, the curvature R_{., .} xi and the Ricci tensor, and what all
check suites share there: the test-direction matrices of the state's seed,
the adapted f-basis B and the absolute contact volume |eta ^ (d eta)^n| on
it, n! sqrt|det W| with W the matrix of d eta on the columns of B after xi
(the sign is not computed).  Vectors are columns: xi is (P, d, 1), eta is
the row (P, 1, d), a direction matrix is (P, d, m).  Each tensor is computed
once for the whole block, when first read.
`PointState.take` gives the state of a subset of the points, built anew from
their part of the block's tape arrays.  `WeakACM.at` runs the tape at one
point and builds a new state of P = 1 on every call, so a state lives only
as long as its caller holds it.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from . import geometry
from .exprdsl import Fields, StructureDef, eval_tape
from .geometry import bilinear, contract, mT


class PointState:
    """All tensor data of a weak a.c.m. structure at a block of chart points
    (`points`, P x d); `seed` picks the test directions.  `fields` are the
    arrays of `eval_tape` over `points`.  Given `lanes` (an index array, a
    slice or a boolean mask), the state is that of those points only."""

    def __init__(self, sdef: StructureDef, points, seed: int, fields: Fields, lanes=None):
        self.points = np.asarray(points, dtype=float)
        if lanes is not None:
            self.points = self.points[lanes]
            fields = {name: tuple(a if a is None else a[lanes] for a in jets) for name, jets in fields.items()}
        self.sdef, self.seed, self.fields = sdef, seed, fields
        self.dim, self.n = sdef.dim, sdef.n
        # dg[k, i, j] = d_k g_ij, ddg[k, l, i, j] = d_k d_l g_ij (None from jets of order 1)
        self.g, self.dg, self.ddg = fields["metric"]
        self.frame = geometry.orthonormal_frame(self.g)  # validates g at every point
        self.f, self.df, self.ddf = fields["f"]
        xi, self.dxi, self.ddxi = fields["xi"]
        self.xi = xi[..., None]  # columns (P, d, 1)
        # explicit Q from the file, if any (cross-check only)
        self.q_explicit = fields["q"][0] if "q" in fields else None

    def take(self, mask) -> PointState:
        """The state of the points where the boolean `mask` holds."""
        return PointState(self.sdef, self.points, self.seed, self.fields, mask)

    @cached_property
    def g_inv(self):
        return np.linalg.inv(self.g)

    # -- derived fields -----------------------------------------------------

    @cached_property
    def eta(self):
        return mT(self.g @ self.xi)

    @cached_property
    def deta(self):
        """deta[k, i] = d_k eta_i."""
        return (self.dg @ self.xi[:, None])[..., 0] + self.dxi @ mT(self.g)

    @cached_property
    def Q(self):
        return -self.f @ self.f + self.xi @ self.eta

    @cached_property
    def dQ(self):
        """dQ[k, i, j] = d_k Q^i_j."""
        return (
            -(self.df @ self.f[:, None])
            - self.f[:, None] @ self.df
            + self.dxi[..., None] * self.eta[:, None]
            + self.xi[:, None] * self.deta[:, :, None, :]
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
        m = _finite(mT(self.frame) @ self.g @ self.Q @ self.frame, "Q")
        return np.linalg.eigvalsh(0.5 * (m + mT(m)))

    @cached_property
    def f_singular_values(self):
        """Singular values of f in a g-orthonormal frame, descending."""
        return np.linalg.svd(_finite(mT(self.frame) @ self.g @ self.f @ self.frame, "f"), compute_uv=False)

    @cached_property
    def Phi(self):
        """Fundamental 2-form, Phi_ij = g(partial_i, f partial_j) = g_im f^m_j."""
        return self.g @ self.f

    @cached_property
    def dPhi(self):
        return self.dg @ self.f[:, None] + self.g[:, None] @ self.df

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
        return 0.5 * geometry.lie_derivative_tensor11(self.xi[..., 0], self.dxi, self.f, self.df)

    @cached_property
    def dh(self):
        """dh[l, i, j] = d_l h^i_j (uses second derivatives of f and xi)."""
        dxi, ddxi, df, f = self.dxi, self.ddxi, self.df, self.f[:, None]
        return 0.5 * (
            contract(dxi, df)  # d_l xi^k d_k f^i_j
            + contract(mT(self.xi)[:, None], self.ddf)[:, :, 0]  # xi^k d_l d_k f^i_j: the Hessian is symmetric
            - mT(dxi)[:, None] @ df  # d_l f^k_j d_k xi^i
            - mT(ddxi) @ f  # f^k_j d_l d_k xi^i
            + df @ mT(dxi)[:, None]  # d_l f^i_k d_j xi^k
            + f @ mT(ddxi)  # f^i_k d_l d_j xi^k
        )

    @cached_property
    def h_star(self):
        """g-adjoint of h: g(h* X, Y) = g(X, h Y)."""
        return self.g_inv @ mT(self.h) @ self.g

    # -- connection and curvature -------------------------------------------

    @cached_property
    def gamma(self):
        return geometry.christoffel(self.g_inv, self.dg)

    @cached_property
    def curvature_xi(self):
        """R_{., .} xi (`geometry.curvature_z`) and the Ricci tensor: the checks
        read the curvature only through these, so the full tensor, d times
        larger, is dropped once they are built."""
        r = geometry.riemann(self.g_inv, self.dg, self.ddg, self.gamma)
        return geometry.curvature_z(r, self.xi), geometry.ricci(r)

    @cached_property
    def nabla_xi(self):
        """(nabla xi)^i_j so that (nabla_X xi)^i = (nabla xi)^i_j X^j."""
        return mT(geometry.cov_vector(self.gamma, self.xi[..., 0], self.dxi))

    @cached_property
    def nabla_eta(self):
        """nabla_eta[k, j] = (nabla_k eta)_j."""
        return geometry.cov_oneform(self.gamma, self.eta[:, 0], self.deta)

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
        return m + mT(m)

    @cached_property
    def lie_xi_Q(self):
        return geometry.lie_derivative_tensor11(self.xi[..., 0], self.dxi, self.Q, self.dQ)

    def along_xi(self, t):
        """xi^k t[k, ...] for a tensor t[k, ...] at each point."""
        return contract(mT(self.xi), t)[:, 0]

    def curvature_op(self, x, y):
        """R_{X,Y} xi at every column pair of the direction matrices x and y:
        [i, a, b]."""
        return geometry.curvature(self.curvature_xi[0], x, y)

    def ell(self, x):
        """The curvature operator used by the suites: ell X = R_{xi, X} xi,
        for each column of x."""
        return self.curvature_op(self.xi, x)[:, :, 0]

    def sectional(self, y):
        """K(xi, Y) for each column of y."""
        return geometry.sectional(self.g, self.xi, y, self.curvature_xi[0])

    def ricci(self, x, y):
        """Ric(X, Y) at every column pair of x and y: [b, a]."""
        return mT(y) @ self.curvature_xi[1] @ x

    # -- inner products -------------------------------------------------------

    def gnorm(self, x):
        """g-norm of each column of a (P, d, ...) array: (P, ...)."""
        xgx = (self.g @ x.reshape(x.shape[:2] + (-1,))).reshape(x.shape)
        xgx *= x
        return np.sqrt(np.maximum(np.sum(xgx, axis=1), 0.0))

    def g_normalize(self, x):
        """Scale each column of a (P, d, m) matrix to g-norm 1."""
        nrm = self.gnorm(x)
        if np.any(nrm < 1e-14):
            raise ValueError("cannot normalize a (near) zero vector")
        return x / nrm[:, None]

    def project_ker_eta(self, x):
        """g-orthogonal projection onto ker eta = xi-perp (of each column)."""
        return x - self.xi @ (self.eta @ x)

    # -- what the check suites share ------------------------------------------

    @cached_property
    def directions(self) -> tuple[np.ndarray, np.ndarray]:
        """The direction matrices D (P x d x m, m = d + 8) and f D.  The
        columns of D are the coordinate frame plus random g-unit vectors
        drawn from the seed and the point.  Identities are multilinear, so the
        frame alone decides them; the random vectors guard against
        implementation errors."""
        drawn = []
        for point in self.points:
            key = hash(tuple(round(float(c), 12) for c in point)) % 1_000_003
            drawn.append(np.random.default_rng(self.seed * 1_000_003 + key).standard_normal((8, self.dim)).T)
        frame = np.broadcast_to(np.eye(self.dim), (len(self.points), self.dim, self.dim))
        d = np.concatenate([frame, self.g_normalize(np.array(drawn))], axis=2)
        return d, self.f @ d

    @cached_property
    def fbasis(self) -> tuple[np.ndarray, np.ndarray]:
        """The adapted bases of Q-eigenvectors: the (P, d, d) matrices with
        columns xi, e_1, f e_1, ..., e_n, f e_n, and the (P, n) eigenvalues
        lambda_i of the unit vectors e_i.  p is the g-orthogonal projector
        onto what is left of ker eta.  Step i takes a g-orthonormal basis of
        range p (the top 2(n - i + 1) eigenvectors of p in the frame), the
        smallest eigenvalue of Q there, and as e_i the g-unit projection onto
        its eigenspace of the coordinate vector whose projection is largest
        (the lowest index on a tie); lambda_i = g(e_i, Q e_i), and p loses
        e_i and f e_i.  The eigenspace has its own size at each point: the
        other eigenvectors are kept as columns, and the eigenspace's as zero
        columns."""
        xi, q, g, f, frame = _finite(self.xi, "xi"), _finite(self.Q, "Q"), self.g, self.f, self.frame
        p = np.eye(self.dim) - xi @ self.eta
        columns, lams = [xi], []
        for k in range(2 * self.n, 0, -2):
            w = frame @ np.linalg.eigh(mT(frame) @ g @ p @ frame)[1][..., -k:]
            vals, vecs = np.linalg.eigh(mT(w) @ g @ q @ w)
            rest = w @ (vecs * (vals - vals[:, :1] > 1e-9 * np.maximum(1.0, np.abs(vals[:, :1])))[:, None, :])
            proj = p - rest @ (mT(rest) @ g)  # g-orthogonal projector onto the eigenspace
            size = self.gnorm(proj)
            j = np.argmax(size >= (1.0 - 1e-9) * np.max(size, axis=1, keepdims=True), axis=1)
            e = np.take_along_axis(proj, j[:, None, None], axis=2) / np.take_along_axis(size, j[:, None], 1)[:, None]
            fe = f @ e
            lam = (mT(e) @ g @ q @ e)[:, 0, 0]
            if np.any(lam <= 0.0):
                raise ValueError("Q is not positive definite on ker eta")
            columns += [e, fe]
            lams.append(lam)
            p = p - e @ mT(g @ e) - fe @ mT(g @ fe) / (mT(fe) @ g @ fe)
        return np.concatenate(columns, axis=2), np.stack(lams, axis=1)

    @cached_property
    def contact_volume(self) -> np.ndarray:
        """|eta ^ (d eta)^n| on the g-orthonormal frame (xi, e_i, f e_i /
        sqrt(lambda_i)), so it does not scale with Q.  With eta(xi) = 1 and eta = 0
        on e = (e_1, f e_1, ..., e_n, f e_n) it is n! sqrt(|det W| / prod lambda_i),
        W = e^T (d eta) e (Pf(W)^2 = det W).  Unsigned; a NaN entry gives NaN."""
        e, lams = self.fbasis[0][:, :, 1:], self.fbasis[1]
        det = np.abs(np.linalg.det(mT(e) @ self.deta_form @ e))
        return math.factorial(self.n) * np.sqrt(det / np.prod(lams, axis=1))

    # -- defects and N-tensors ----------------------------------------------------

    def quasi_defect(self, x, y):
        """LHS - RHS of the quasi-contact defining identity at every column pair
        of the direction matrices x (d x a) and y (d x b): [i, a, b]."""
        nf, eta = self.nabla_f, self.eta
        # (nabla_{fX} f) fY: f^m_j (nabla_m f)^i_n f^n_k X^j Y^k
        t = contract(mT(self.f), nf @ self.f[:, None])
        t += nf
        t -= 2.0 * self.xi[:, None] * self.g[:, :, None, :]  # 2 g(X, Y) xi
        t += mT(np.eye(self.dim) + self.h + self.xi @ eta)[..., None] * eta[:, None]  # (X + hX + eta(X) xi) eta(Y)
        return bilinear(t, x, y)

    def sasakian_defect(self, x, y):
        """(nabla_X f) Y - g(X, Y) xi + eta(Y) X over column pairs, as `quasi_defect`."""
        t = self.nabla_f - self.xi[:, None] * self.g[:, :, None, :]
        t += np.eye(self.dim)[:, :, None] * self.eta[:, None]
        return bilinear(t, x, y)

    @cached_property
    def nijenhuis(self):
        """[f, f] as t[j, i, k] = f^m_j d_m f^i_k - f^m_k d_m f^i_j
        + f^i_m d_k f^m_j - f^i_m d_j f^m_k, so that [f, f](X, Y)^i = t[j, i, k] X^j Y^k."""
        half = contract(mT(self.f), self.df)  # f^m_j d_m f^i_k
        half -= self.f[:, None] @ self.df  # f^i_m d_j f^m_k
        return half - half.swapaxes(1, 3)

    def n1(self, x, y):
        """N^(1) = [f, f] + 2 d eta (x) xi at every column pair: [i, a, b]."""
        return bilinear(self.nijenhuis + 2.0 * self.xi[:, None] * self.deta_form[:, :, None, :], x, y)

    def deta2(self, x, y):
        """d eta(X, Y) with the 1/2 normalization, at every column pair: [a, b]."""
        return mT(x) @ self.deta_form @ y

    def n2(self, x, y):
        return 2.0 * self.deta2(self.f @ x, y) - 2.0 * mT(self.deta2(self.f @ y, x))

    def n3(self, x):
        """N^(3)(X) = (L_xi f) X = 2 h X."""
        return 2.0 * self.h @ x


def _finite(m: np.ndarray, name: str) -> np.ndarray:
    """`m`, checked before LAPACK sees it: NaN or inf entries of the tensor
    `name` are a ValueError, not a LinAlgError."""
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} is not finite")
    return m


class WeakACM:
    """A structure definition; `at` evaluates it at a chart point."""

    def __init__(self, sdef: StructureDef):
        self.sdef = sdef
        self.name, self.dim = sdef.name, sdef.dim

    def at(self, point, seed: int = 7) -> PointState:
        """A new state of P = 1 at `point`, from jets of order 2, whose test
        directions come from `seed`; nothing is kept here.  Raises the error
        of the tape at the point."""
        points = np.asarray(point, dtype=float)[None]
        return PointState(self.sdef, points, seed, eval_tape(self.sdef.tape, points, 2))

