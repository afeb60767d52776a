"""Executable residual checks for every numbered identity and theorem, and
the one evaluator that asserts them.

Each check is declared once, as a `Check` in `CHECKS`.  Its residual is a
function of a `PointState`, the tensors of a block of P sample points, and
gives one residual per point, a (P,) array.  The identities are multilinear
in the directions, so each is evaluated at every direction pair of every
point at once: contracting a defect with the direction matrices D
(`PointState.directions`) gives an array over the points and pairs, reduced
with one max per point.  Residuals
of derivative identities are normalized by (1 + magnitude of the largest
participating term), and those of the axioms that multiply tensors by
(1 + the product of the factors' largest entries).

`evaluate` runs a suite at the sample points of a count and seed, which it
draws itself, and is the only loop over sample points.  It runs the structure's
tape once per chunk of points and builds one `PointState` for each block of
the chunk, so each check runs once per block.  The highest tier of the
checks a run needs picks, in `JETS`, each field's jet order and the sizes
of chunks and blocks: second derivatives (a chunk of one 32-point block)
only when a curvature-tier check runs, first derivatives (a chunk of eight
blocks) when a derivative-tier check does, and for the algebraic rows of
`validate` the metric's values alone and f and xi to first order, with
one block of the whole 256-point chunk.  A hypothesis (`gate`) is a mask
over the block: a check is asserted only at the points where its hypothesis
passes, on the state of just those points, and reported as "skipped", never
as a failure, when that holds at no point.  When anything fails in a chunk, its halves are evaluated
in sample order, each split again while it fails, so that the error names the
first point in sample order where anything fails, with that point's own
message.  A residual is read as a size, in `_residuals` only: a negative one
reads 0 (an inequality that holds with room, as Prop 3.4's contact volume),
and NaN, +inf and -inf fail, as do the checks a non-finite hypothesis gates.
The suites select from the registry: `identity`, `curvature` and `validate`
report checks directly, `theorems` and `classify` report the rows of
`THEOREMS` and `CLASSES` over the largest residuals (a class row reads the
same check as the theorem rows that decide that class), and `all` is
identity, curvature and theorems in one pass.  Reports are deterministic
and serialize to a stable JSON schema:

    { "suite": str, "structure": str, "seed": int, "tol": {tiers},
      "checks": [ { "id", "paper", "max_residual", "tol", "verdict",
                    "points" } ] }

A non-finite max_residual is written as the string "nan" or "inf", so the
JSON is strict (RFC 8259 has no NaN or Infinity).  Evaluation reads no
clock: a caller may set `CheckReport.timestamp`, which `emit_report` writes last.
"""

from __future__ import annotations

import functools
import json
import math
from typing import Callable, NamedTuple

import numpy as np

from .exprdsl import StructureDef, eval_tape, slot_orders
from .geometry import bilinear, mT
from .structure import PointState


class Tolerances(NamedTuple):
    """Default tolerance tiers by derivative depth of the identity."""

    algebraic: float = 1e-10
    deriv: float = 1e-9
    curv: float = 1e-8


# -- sampling -------------------------------------------------------------------


def _radical_inverse(index: int, base: int) -> float:
    result, frac = 0.0, 1.0 / base
    while index > 0:
        result += (index % base) * frac
        index //= base
        frac /= base
    return result


def _primes(count: int) -> list[int]:
    """The first `count` primes: the Halton bases, one per coordinate."""
    primes, k = [], 2
    while len(primes) < count:
        if all(k % p for p in primes):
            primes.append(k)
        k += 1
    return primes


def sample_points(count: int, seed: int, domain) -> np.ndarray:
    """The Halton points of indices seed + 1 .. seed + count, one prime base
    per coordinate, in a loaded (finite, lo < hi) domain box with a 5% margin,
    as the rows of one (count, d) array."""
    lo, hi = np.array(domain, dtype=float).T
    width = hi - lo
    lo_m = lo + 0.025 * width
    hi_m = hi - 0.025 * width
    indices = range(seed + 1, seed + count + 1)
    points = np.empty((count, len(domain)))
    for k, base in enumerate(_primes(len(domain))):
        points[:, k] = np.fromiter((_radical_inverse(i, base) for i in indices), float, count)
    points *= hi_m - lo_m  # in place: the affine map makes no temporaries of the array's size
    points += lo_m
    return points


# -- report types -----------------------------------------------------------------


class CheckRecord(NamedTuple):
    id: str
    paper: str  # equation/theorem label, or "class"
    max_residual: float
    tol: float
    verdict: str  # pass | fail | skipped
    points: int


class CheckReport:
    """The rows of one suite run; a caller may set `timestamp`."""

    def __init__(self, suite: str, structure: str, seed: int, tol: dict):
        self.suite, self.structure, self.seed, self.tol = suite, structure, seed, tol
        self.checks: list[CheckRecord] = []
        self.timestamp: str | None = None

    @property
    def failed(self) -> bool:
        return any(c.verdict == "fail" for c in self.checks)


def emit_report(report: CheckReport, format: str = "text") -> bytes:
    if format == "json":
        checks = [c._asdict() for c in report.checks]
        for c in checks:
            if not math.isfinite(c["max_residual"]):
                c["max_residual"] = repr(float(c["max_residual"]))
        doc = {"suite": report.suite, "structure": report.structure, "seed": report.seed,
               "tol": report.tol, "checks": checks}
        if report.timestamp is not None:
            doc["timestamp"] = report.timestamp
        return (json.dumps(doc, indent=2, allow_nan=False) + "\n").encode()
    if format != "text":
        raise ValueError(f"unknown format {format!r}")
    lines = [f"suite: {report.suite}   structure: {report.structure}   seed: {report.seed}"]
    if report.timestamp is not None:
        lines.append(f"timestamp: {report.timestamp}")
    lines.append(f"{'check':<28} {'paper':<14} {'max residual':>14} {'tol':>10} {'verdict':>8}")
    lines.append("-" * 78)
    for c in report.checks:
        lines.append(f"{c.id:<28} {c.paper:<14} {c.max_residual:>14.3e} {c.tol:>10.1e} {c.verdict:>8}")
    return ("\n".join(lines) + "\n").encode()


# -- residual helpers ---------------------------------------------------------------

# Every residual takes a state of P points and gives a (P,) array.


def _rel(size, *terms):
    """Largest size / (1 + largest term size) at each point; sizes and term
    sizes are arrays with the point axis first (over the direction pairs
    after it) that broadcast together."""
    scale = 1.0 + functools.reduce(np.maximum, terms, 0.0)
    r = size / scale
    return r.reshape(len(r), -1).max(axis=1)


def _amax(m):
    """The largest |entry| of each point's array."""
    return np.abs(m).reshape(len(m), -1).max(axis=1)


def _mat_residual(m, *terms):
    return _rel(_amax(m), *(_amax(t) for t in terms))


def _product_residual(m, *factors):
    """|m| relative to 1 + the product of the largest entries of the factors
    of its products: rounding in a product grows with its factors."""
    return _amax(m) / (1.0 + math.prod(_amax(f) for f in factors))


def _trace(m):
    return np.trace(m, axis1=1, axis2=2)


def _ker_eta_dirs(st):
    """The test directions projected onto ker eta, and the mask of the
    columns kept at each point: a (near) zero projection is dropped, and its
    column is NaN, which no normalization rejects."""
    p = st.project_ker_eta(st.directions[0])
    keep = st.gnorm(p) > 1e-8
    return np.where(keep[:, None], p, np.nan), keep


def _quasi(st):
    """Largest g-norm of the quasi-contact defect over the direction pairs."""
    d, _ = st.directions
    return _amax(st.gnorm(st.quasi_defect(d, d)))


def _sasakian_norms(st):
    d, _ = st.directions
    return st.gnorm(st.sasakian_defect(d, d))


def _f_rank(st):
    """0 when rank f = 2n (exactly one singular value near zero), else 1."""
    sv = np.sort(st.f_singular_values, axis=1)
    scale = 1.0 + sv[:, -1:]
    full = (sv[:, 0] < 1e-6 * scale[:, 0]) & np.all(sv[:, 1:] > 1e-4 * scale, axis=1)
    return np.where(full, 0.0, 1.0)


def _n2_nabla_eta(st):
    """N^(2) via covariant derivatives of eta (holds on any weak a.c.m.), with
    a[x, y] = (nabla_{fX} eta) Y and b[x, y] = (nabla_X eta) fY."""
    d, fd = st.directions
    a, b = mT(fd) @ st.nabla_eta @ d, mT(d) @ st.nabla_eta @ fd
    rhs = a - mT(b) - mT(a) + b
    n2 = st.n2(d, d)
    return _rel(np.abs(n2 - rhs), np.abs(n2), np.abs(rhs))


def _lemma21_5(st):
    d, fd = st.directions
    two_phi = 2.0 * (mT(fd) @ st.g @ d)
    lhs = mT(d) @ st.nabla_eta @ (st.Q @ d) + mT(fd) @ st.nabla_eta @ fd + two_phi
    return _rel(np.abs(lhs), np.abs(two_phi))


def _nabla_xi_f(st):
    return _mat_residual(st.along_xi(st.nabla_f), st.f)


def _eq16(st):
    d, _ = st.directions
    gh = st.g @ st.h
    lhs = mT(d) @ (gh - mT(gh)) @ d
    rhs = -0.5 * st.n2(d, d)
    return _rel(np.abs(lhs - rhs), np.abs(lhs), np.abs(rhs))


def _eq14(st):
    d, fd = st.directions
    h2 = st.h @ st.h
    t1 = st.Q_inv @ (fd - h2 @ fd)
    t2 = st.f @ (st.ell @ d)  # -f R_{X,xi} xi
    defect = st.nabla_xi_h @ d - t1 - t2
    return _rel(st.gnorm(defect), st.gnorm(t1), st.gnorm(t2))


def _eq15(st):
    d, fd = st.directions
    lhs = st.Q @ (st.ell @ d) - st.f @ (st.ell @ fd)
    rhs = 2.0 * (st.h @ st.h) @ d + (st.Q + st.Q_inv) @ (st.f @ fd)
    return _rel(st.gnorm(lhs - rhs), st.gnorm(lhs), st.gnorm(rhs))


def _eq22(st):
    basis, lam = st.fbasis
    e, fe = basis[:, :, 1::2], basis[:, :, 2::2]
    ksum = np.sum(lam * (st.sectional(e) + st.sectional(fe)), axis=1)
    rhs = st.n - _trace(st.h @ st.h) + np.sum(lam**2, axis=1)
    return _rel(np.abs(ksum - rhs), np.abs(ksum), np.abs(rhs))


def _eq21_hypothesis(st):
    """Hypothesis of (21): K(xi, X) + K(xi, fX) >= 0; a K not finite in a kept direction gives NaN."""
    p, keep = _ker_eta_dirs(st)
    k = st.sectional(st.g_normalize(p)) + st.sectional(st.g_normalize(st.f @ p))
    return np.max(np.where(keep, np.where(np.isfinite(k), -k, np.nan), 0.0), axis=1)


def _eq21(st):
    lhs = np.max(st.fbasis[1], axis=1) * st.ric_xi_xi
    rhs = st.n - _trace(st.h @ st.h) + (_trace(st.Q) - 1.0) ** 2 / (4.0 * st.n)
    return _rel(rhs - lhs, np.abs(lhs), np.abs(rhs))


def _ric_xi_xi(st):
    """Ric(xi, xi) + tr((nabla xi)^2) + xi(div xi) = div(nabla_xi xi) (Yano), 0 where d eta = Phi."""
    ric, tr2, xdx = st.ric_xi_xi, _trace(st.nabla_xi @ st.nabla_xi), st.xi_div_xi
    return _rel(np.abs(ric + tr2 + xdx), np.abs(ric), np.abs(tr2), np.abs(xdx))


def _eq17(st):
    gd = st.gnorm(st.directions[0])
    return _rel(_sasakian_norms(st), gd[:, :, None], st.gnorm(st.xi)[:, :, None])


def _eq23(st):
    d, _ = st.directions
    gd, eta_d = st.gnorm(d), st.eta @ d
    defect = bilinear(st.curvature_xi, d, d)
    defect -= d[..., None] * eta_d[:, None]
    defect += eta_d[..., None] * d[:, :, None]
    return _rel(st.gnorm(defect), gd[:, :, None], gd[:, None])


def _eq20(st):
    p, keep = _ker_eta_dirs(st)
    u = st.g_normalize(p)
    return _rel(np.where(keep, st.gnorm(st.ell @ u + u), 0.0), np.where(keep, st.gnorm(u), 0.0))


def _eq20_as_written(st):
    p, keep = _ker_eta_dirs(st)
    u = st.g_normalize(p)
    defect = u - st.ell @ u + st.xi @ (st.eta @ u)  # R_{u,xi} xi = -ell u
    return _rel(np.where(keep, st.gnorm(defect), 0.0), np.where(keep, st.gnorm(u), 0.0))


def _eq19(st):
    """(nabla_X Q) Y = 0 for X, Y in ker eta."""
    p = st.project_ker_eta(st.directions[0])
    return _rel(st.gnorm(bilinear(st.nabla_Q, p, p)), _amax(st.Q)[:, None, None])


def _normal(st):
    d, _ = st.directions
    gd = st.gnorm(d)
    return _rel(st.gnorm(st.n1(d, d)), gd[:, :, None], gd[:, None])


def _deta_qt_phi(st):
    """d eta(X + (1/2) Qt X, Y) = Phi(X, Y)."""
    d = st.directions[0]
    lhs, rhs = st.deta2(d + 0.5 * st.Qt @ d, d), mT(d) @ st.Phi @ d
    return _rel(np.abs(lhs - rhs), np.abs(lhs), np.abs(rhs))


def _quasi_canonical(st):
    """The quasi-contact defect at X = Y = e_1, the first f-basis vector: the
    quantity with a closed-form oracle on the scaled fixtures."""
    e1 = st.fbasis[0][:, :, 1:2].copy()  # contiguous: a strided column rounds differently
    return _amax(st.gnorm(st.quasi_defect(e1, e1)))


# -- the registry ------------------------------------------------------------------------


class Check(NamedTuple):
    """One residual check.  `residual(st)` is its residual at each point of
    the state, a (P,) array read as a size (a negative residual reads 0; NaN,
    +inf and -inf fail), or None where it does not apply; it is evaluated only
    where its hypothesis `gate` passes.  `suites` names the suites that report
    it; the others are hypotheses and inputs of theorem and class rows.  Its
    id is its key in `CHECKS`."""

    paper: str
    tier: str  # algebraic | deriv | curv
    residual: Callable
    gate: str | None
    suites: tuple[str, ...]


# (suites, hypothesis, checks as (id, paper label, tier, residual)), in report order
_SECTIONS = (
    (("identity", "validate"), None, (
        ("axiom-eta-normalization", "(2)", "algebraic", lambda st: _amax(st.eta @ st.xi - 1.0)),
        ("axiom-f-square", "(2)", "algebraic",
         lambda st: _product_residual(st.f @ st.f + st.Q - st.xi @ st.eta, st.f, st.f)),
        ("axiom-metric-compatibility", "(2)", "algebraic",
         lambda st: _product_residual(mT(st.f) @ st.g @ st.f - st.g @ st.Q + mT(st.eta) @ st.eta, st.f, st.g, st.f)),
        ("axiom-f-xi", "(3)", "algebraic", lambda st: _amax(st.f @ st.xi)),
        ("axiom-eta-f", "(3)", "algebraic", lambda st: _amax(st.eta @ st.f)),
        ("axiom-eta-Q", "(3)", "algebraic", lambda st: _product_residual(st.eta @ st.Q - st.eta, st.eta, st.Q)),
        ("axiom-Qf-commutator", "(3)", "algebraic",
         lambda st: _product_residual(st.Q @ st.f - st.f @ st.Q, st.Q, st.f)),
        ("axiom-Qt-xi", "(3)", "algebraic", lambda st: _product_residual(st.Qt @ st.xi, st.Qt, st.xi)),
        ("axiom-eta-Qt", "(3)", "algebraic", lambda st: _product_residual(st.eta @ st.Qt, st.eta, st.Qt)),
    )),
    (("validate",), None, (
        ("f-skew-symmetry", "(2)/(3)", "algebraic", lambda st: _amax(st.Phi + mT(st.Phi))),
        ("Q-self-adjoint", "(2)/(3)", "algebraic",
         lambda st: _product_residual(st.g @ st.Q - mT(st.g @ st.Q), st.g, st.Q)),
        ("Q-consistency", "(2)/(3)", "algebraic",
         lambda st: None if st.q_explicit is None else _amax(st.q_explicit - st.Q)),
        ("h-xi", "(2)/(3)", "algebraic", lambda st: _amax(st.h @ st.xi)),
        ("n3-xi", "(2)/(3)", "algebraic", lambda st: _amax(2.0 * st.h @ st.xi)),  # N^(3) = L_xi f = 2 h
        # 0 while the smallest eigenvalue q of Q is positive, else 1 - q: a singular Q fails too
        ("Q-positive-definite", "(2)", "algebraic",
         lambda st: np.where(st.q_spectrum[:, 0] > 0.0, 0.0, 1.0 - st.q_spectrum[:, 0])),
        ("f-rank", "rank f = 2n", "algebraic", _f_rank),
    )),
    (("identity",), None, (("n2-nabla-eta", "(4)", "deriv", _n2_nabla_eta),)),
    (("identity",), "quasi", (
        ("lemma21-5", "(5)", "deriv", _lemma21_5),
        ("lemma21-6", "(6)", "deriv", _nabla_xi_f),
        ("lemma21-7-xi", "(7)", "deriv", lambda st: _rel(st.gnorm(st.nabla_xi @ st.xi), st.gnorm(st.xi))),
        ("lemma21-7-eta", "(7)", "deriv", lambda st: _rel(st.gnorm(mT(st.nabla_eta) @ st.xi), st.gnorm(mT(st.eta)))),
        ("lemma21-8-left", "(8)", "deriv",
         lambda st: _mat_residual(st.Q @ st.nabla_xi + st.f + st.f @ st.h, st.f, st.f @ st.h)),
        ("lemma21-8-right", "(8)", "deriv",
         lambda st: _mat_residual(st.nabla_xi @ st.Q + st.f + st.f @ st.h, st.f, st.f @ st.h)),
        ("lemma21-9-lie", "(9)", "deriv", lambda st: _mat_residual(st.lie_xi_Q, st.Q)),
        ("lemma21-9-nabla", "(9)", "deriv",
         lambda st: _mat_residual(st.along_xi(st.nabla_Q), st.Q)),
        ("lemma21-10", "(10)", "deriv", lambda st: _mat_residual(st.h @ st.f + st.f @ st.h, st.h, st.f)),
        ("lemma21-11", "(11)", "deriv", lambda st: _mat_residual(st.h @ st.Q - st.Q @ st.h, st.h, st.Q)),
        ("eq13-h", "(13)", "deriv",
         lambda st: _mat_residual(2.0 * st.h - st.f @ st.nabla_xi + st.nabla_xi @ st.f, st.h, st.f)),
    )),
    (("identity",), "nabla-xi-f", (("eq16-h-n2", "(16)", "deriv", _eq16),)),
    (("curvature",), "quasi", (
        ("eq14", "(14)", "curv", _eq14),
        ("eq15", "(15)", "curv", _eq15),
        ("eq22", "(22)", "curv", _eq22),
    )),
    (("curvature",), "eq21-hypothesis", (("eq21", "(21)", "curv", _eq21),)),
    (("curvature",), "contact-metric", (("ric-xi-xi", "Ric(xi,xi)", "curv", _ric_xi_xi),)),
    # hypotheses, and the inputs of the theorem and class rows
    ((), None, (
        ("quasi", "quasi-contact", "deriv", _quasi),
        ("contact-metric", "d eta = Phi", "deriv", lambda st: _amax(st.deta_form - st.Phi)),
        ("nabla-xi-f", "nabla_xi f = 0", "deriv", _nabla_xi_f),
        ("killing-xi", "L_xi g = 0", "deriv", lambda st: _rel(_amax(st.lie_xi_g), _amax(st.g))),
        ("nabla-xi-eq18", "(18)", "deriv", lambda st: _mat_residual(st.nabla_xi + st.f, st.f)),
        ("sasakian-eq17", "(17)", "deriv", _eq17),
        ("curvature-eq23", "(23)", "curv", _eq23),
        ("curvature-eq20", "(20)", "curv", _eq20),
        ("eq20-written", "(20)", "curv", _eq20_as_written),
        ("nabla-Q-eq19", "(19)", "deriv", _eq19),
        ("h-self-adjoint", "h = h*", "deriv", lambda st: _mat_residual(st.h - st.h_star, st.h)),
        ("h-skew-symmetric", "h = -h*", "deriv", lambda st: _mat_residual(st.h + st.h_star, st.h)),
        ("Qt-zero", "Qt = 0", "deriv", lambda st: _amax(st.Qt)),
        ("normal", "N^(1) = 0", "deriv", _normal),
        ("dPhi-zero", "d Phi = 0", "deriv", lambda st: _rel(_amax(st.dPhi_form), _amax(st.Phi))),
        ("2h2-eq-Qt2", "2 h^2 = Qt^2", "curv",
         lambda st: _mat_residual(2.0 * (st.h @ st.h) - st.Qt @ st.Qt, st.h @ st.h, st.Qt)),
        ("trh2-nonpositive", "tr h^2 <= 0", "curv", lambda st: _trace(st.h @ st.h)),
        ("contact-volume", "eta ^ (d eta)^n", "deriv", lambda st: 1e-6 - st.contact_volume),
        ("deta-Qt-Phi", "d eta(X + Qt X/2, Y) = Phi", "deriv", _deta_qt_phi),
        # the nearly-Sasakian defect is the Sasakian one (17) at X = Y
        ("nearly-sasakian", "(17), X = Y", "deriv", lambda st: _rel(
            np.diagonal(_sasakian_norms(st), axis1=1, axis2=2), st.gnorm(st.directions[0]), st.gnorm(st.xi))),
        ("quasi-canonical", "quasi-contact at e_1", "deriv", _quasi_canonical),
    )),
    ((), "quasi", (("eq21-hypothesis", "(21)", "curv", _eq21_hypothesis),)),
)
CHECKS = {
    cid: Check(paper, tier, fn, gate, suites)
    for suites, gate, rows in _SECTIONS
    for cid, paper, tier, fn in rows
}

VALIDATE = tuple(cid for cid, c in CHECKS.items() if "validate" in c.suites)

# (prefix, paper label, hypotheses, conclusions, readings).  A term is a
# (row name, check id) pair, written as the check id alone where the two agree.
# Conclusions are held to CONCLUSION_FACTOR times their tier; readings are
# recorded for transparency and always skipped (Thm 3.4: both sign readings of
# its curvature hypothesis).
CONCLUSION_FACTOR = 10.0
THEOREMS = tuple(
    (prefix, label, *(tuple((t, t) if isinstance(t, str) else t for t in terms) for terms in groups))
    for prefix, label, *groups in (
        ("t31", "Thm 3.1", ("quasi", "nabla-xi-eq18"), ("Qt-zero", "contact-metric", "killing-xi"), ()),
        ("t33", "Thm 3.3", ("quasi", "sasakian-eq17"), ("Qt-zero", "contact-metric", "normal"), ()),
        ("t34", "Thm 3.4", ("quasi", "curvature-eq20", "killing-xi"), ("Qt-zero", "contact-metric", "2h2-eq-Qt2"),
         (("eq20-reading-ell", "curvature-eq20"), ("eq20-reading-as-written", "eq20-written"))),
        ("t35", "Thm 3.5", ("quasi", "curvature-eq23", "trh2-nonpositive"),
         ("Qt-zero", ("sasakian", "sasakian-eq17"), "2h2-eq-Qt2"), ()),
        ("p33", "Prop 3.3", ("quasi", "killing-xi"), ("h-skew-symmetric",), ()),
        ("p34", "Prop 3.4", ("quasi", "nabla-Q-eq19", "h-self-adjoint"),
         ("dPhi-zero", "contact-volume", "deta-Qt-Phi"), ()),
    )
)

# (row id, checks whose largest residual the row reports, checks that must pass for its verdict)
CLASSES = (
    ("weak-acm-axioms", VALIDATE, VALIDATE),
    ("contact-metric", ("contact-metric",), ("contact-metric",)),
    ("quasi", ("quasi",), ("quasi",)),
    ("quasi-canonical-direction", ("quasi-canonical",), ("quasi",)),
    ("normal", ("normal",), ("normal",)),
    ("sasakian", ("sasakian-eq17",), ("sasakian-eq17",)),
    ("nearly-sasakian", ("nearly-sasakian",), ("nearly-sasakian",)),
    ("killing-xi", ("killing-xi",), ("killing-xi",)),
    ("k-contact", ("contact-metric", "killing-xi"), ("contact-metric", "killing-xi")),
)

# the parts of each suite, in report order
SUITES = {"all": ("identity", "curvature", "theorems")} | {
    s: (s,) for s in ("identity", "curvature", "theorems", "validate", "classify")
}


def _inputs(part: str) -> list[str]:
    """Ids of the checks whose largest residuals the rows of `part` report."""
    if part == "theorems":
        return [cid for row in THEOREMS for terms in row[2:] for _, cid in terms]
    if part == "classify":
        return [cid for _, ids, verdict_ids in CLASSES for cid in ids + verdict_ids]
    return [cid for cid, c in CHECKS.items() if part in c.suites]


# -- the evaluator -----------------------------------------------------------------------


class EvaluationError(ValueError):
    """Evaluating the structure failed at a sample point."""


# Sample points per `PointState` where checks build arrays over direction
# pairs.  A state of 32 points on a 7-dimensional chart takes about 1.4 MB of
# field arrays at jet order 2, and about as much again of derived tensors;
# states of 32 keep the per-call overhead of the checks small against their
# array work.
BLOCK = 32

# The highest tier of the checks a run needs -> (the jet order of each field,
# points per chunk of the tape, points per state).
#   curv: every field at order 2, over chunks of one block.
#   deriv: order 1.  A jet of order 1 holds 1 + d numbers per point against
#     1 + d + d^2 at order 2, so the tape runs over chunks of eight blocks: a
#     chunk's arrays, (1 + 7) * 256 numbers per cell at d = 7, are about one
#     order-2 block's, (1 + 7 + 49) * 32, and the tape's per-instruction
#     overhead is spread over eight times the points.  The states stay at one
#     block each: one state per 256-point chunk raised the peak RSS of
#     `classify` on sasakian-r7 at 1,000 points from 34 to 47 MB.
#   algebraic (`validate`): the axioms are pointwise algebraic in g, f and xi,
#     and h = (1/2) L_xi f reads derivatives of f and xi only, so the metric is
#     at order 0 and f and xi at order 1.  These rows build only (P, d, d)
#     arrays, so one state spans the whole chunk.
# The explicit Q is at order 0 in every run: only `Q-consistency` reads it,
# and only its value.
JETS = {
    "curv": ({"metric": 2, "f": 2, "xi": 2, "q": 0}, BLOCK, BLOCK),
    "deriv": ({"metric": 1, "f": 1, "xi": 1, "q": 0}, 8 * BLOCK, BLOCK),
    "algebraic": ({"metric": 0, "f": 1, "xi": 1, "q": 0}, 8 * BLOCK, 8 * BLOCK),
}


def _record(cid, paper, residual, tol, points) -> CheckRecord:
    """A row asserted at `points` points, or skipped at none; `residual` is a size: NaN or inf fails."""
    verdict = "skipped" if not points else "pass" if residual <= tol else "fail"
    return CheckRecord(cid, paper, float(residual), tol, verdict, points)


def _with_hypotheses(cids) -> list[str]:
    """The checks `cids` and the hypotheses they need, each hypothesis before
    what it gates, in the order a point-by-point evaluation meets them."""
    order = {}
    for cid in cids:
        chain = [cid]
        while CHECKS[chain[-1]].gate is not None:
            chain.append(CHECKS[chain[-1]].gate)
        order.update(dict.fromkeys(reversed(chain)))
    return list(order)


def _residuals(st: PointState, order, tol) -> dict:
    """{check id: (sizes, applies)} at the P points of `st`, two (P,) arrays per
    check of `order` (each hypothesis before what it gates).  Only here does a
    residual become a size: a negative one reads 0, -inf reads +inf, NaN and +inf
    stay.  A gated check runs on the sub-state of the points where its hypothesis
    passes; a non-finite hypothesis is the size of what it gates, so that fails."""
    out, subs = {}, {}
    everywhere = np.ones(len(st.points), dtype=bool)
    for cid in order:
        c, value = CHECKS[cid], np.zeros(len(st.points))
        run, broken = everywhere, ~everywhere
        if c.gate is not None:
            hyp, on = out[c.gate]
            run, broken = on & (hyp <= tol(c.gate)), on & ~np.isfinite(hyp)
            value[broken] = hyp[broken]
        r = None
        if run.all():
            r = c.residual(st)
        elif run.any():
            if c.gate not in subs:
                subs[c.gate] = st.take(run)
            r = c.residual(subs[c.gate])
        if r is None:  # computed nowhere, or the check does not apply
            run = ~everywhere
        else:
            value[run] = np.where(r == -np.inf, np.inf, np.maximum(r, 0.0))
        out[cid] = value, run | broken
    return out


def _rows(part, r, asserted, npts, tol) -> list[CheckRecord]:
    """The report rows of `part` from the largest residuals `r` and the counts of points asserted."""
    if part == "classify":
        return [
            CheckRecord(
                name, "class", float(np.max([r[i] for i in ids])), tol(ids[0]),
                "pass" if all(r[i] <= tol(i) for i in verdict_ids) else "fail", npts,
            )
            for name, ids, verdict_ids in CLASSES
        ]
    rows = []
    if part == "theorems":
        for prefix, label, hyps, concls, readings in THEOREMS:
            met = all(r[i] <= tol(i) for _, i in hyps)
            # a non-finite hypothesis fails itself and every conclusion
            broken = next((r[i] for _, i in hyps if not math.isfinite(r[i])), None)
            for name, i in hyps:
                asserted = r[i] <= tol(i) or not math.isfinite(r[i])
                rows.append(_record(f"{prefix}-hyp-{name}", label, r[i], tol(i), npts if asserted else 0))
            for name, i in concls:
                res, asserted = (r[i], met) if broken is None else (broken, True)
                rows.append(_record(f"{prefix}-{name}", label, res, CONCLUSION_FACTOR * tol(i), npts if asserted else 0))
            rows += [_record(f"{prefix}-{name}", label, r[i], tol(i), 0) for name, i in readings]
        return rows
    for cid in _inputs(part):
        c = CHECKS[cid]
        if asserted[cid] or c.gate:  # an ungated check that applies nowhere is left out
            name, paper = cid, c.paper
            if part == "validate" and cid.startswith("axiom-"):
                name, paper = cid.removeprefix("axiom-"), "(2)/(3)"
            rows.append(_record(name, paper, r[cid], tol(cid), asserted[cid]))
    return rows


def evaluate(sdef: StructureDef, suite: str, count: int, seed: int,
             tolerances: Tolerances = Tolerances()) -> CheckReport:
    """The report of `suite` at the `count` sample points of `seed`
    (`sample_points`), so the seed a report names is that of its points.

    Raises `EvaluationError`, naming the point, when evaluating the structure
    at a point fails (a singular metric, the square root of a negative, an
    overflow, a non-finite Q)."""
    parts = SUITES[suite]
    needed = list(dict.fromkeys(cid for part in parts for cid in _inputs(part)))
    order = _with_hypotheses(needed)

    def tol(cid):
        return getattr(tolerances, CHECKS[cid].tier)

    top = max((CHECKS[cid].tier for cid in order), key=Tolerances._fields.index)  # the tiers by derivative depth
    field_orders, chunk_size, block = JETS[top]
    slot_order = slot_orders(sdef.tape, field_orders)  # once: the halving search re-runs the tape

    def run(chunk) -> list[dict]:
        """The residuals of each `block`-point state of `chunk`; raises what fails first."""
        fields = eval_tape(sdef.tape, chunk, field_orders, slot_order)
        return [_residuals(PointState(chunk, fields, slice(lo, lo + block)), order, tol)
                for lo in range(0, len(chunk), block)]

    def split(chunk) -> list[dict]:
        """`run(chunk)`; when that raises, the halves of the chunk in sample
        order, so that the error names the first failing point, with that
        point's own message.  The error is unbound when its clause ends, and
        with its frames the chunk's arrays are freed before the halves run."""
        try:
            return run(chunk)
        except (ValueError, ArithmeticError) as exc:
            if len(chunk) == 1:
                raise EvaluationError(f"at sample point {chunk[0].tolist()}: {exc}") from exc
        half = len(chunk) // 2
        return split(chunk[:half]) + split(chunk[half:])

    points = sample_points(count, seed, sdef.domain)
    worst, asserted = dict.fromkeys(needed, 0.0), dict.fromkeys(needed, 0)
    for start in range(0, len(points), chunk_size):
        for result in split(points[start : start + chunk_size]):
            for cid in needed:
                value, on = result[cid]  # sizes, 0 where not asserted
                worst[cid] = float(np.maximum(worst[cid], value.max()))  # keeps NaN
                asserted[cid] += int(np.count_nonzero(on))

    report = CheckReport(suite, sdef.name, seed, tolerances._asdict())
    for part in parts:
        report.checks += _rows(part, worst, asserted, count, tol)
    return report
