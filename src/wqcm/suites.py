"""Executable residual checks for every numbered identity and theorem.

Checks are hypothesis-gated: an identity that only holds under a hypothesis
(e.g. the quasi-contact condition) is asserted only at sample points where
the hypothesis residual itself passes; otherwise the check is reported as
"skipped", never as a failure.  Residuals of derivative identities are
normalized by (1 + magnitude of the largest participating term).  A NaN or
infinite residual fails its check, and a non-finite hypothesis residual
fails the checks it gates instead of skipping them.

The identities are multilinear in the test directions, so each is evaluated
at every direction pair of a point at once: the directions are the columns
of one matrix D (`PointState.directions`), and contracting a defect with D
gives an array over the pairs that is reduced with one max.

Reports are deterministic for a fixed (structure, plan, tolerances) and
serialize to a stable JSON schema:

    { "suite": str, "structure": str, "seed": int, "tol": {tiers},
      "checks": [ { "id", "paper", "max_residual", "tol", "verdict",
                    "points" } ] }
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field
from datetime import datetime, timezone

import numpy as np

from .classify import (
    ClassReport,
    Tolerances,
    Worst,
    axiom_residuals,
    contact_volume,
    sasakian_defect,
    validate_axioms,
)
from .geometry import bilinear
from .structure import WeakACM

_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)


# -- sampling -------------------------------------------------------------------


@dataclass(frozen=True)
class SamplePlan:
    count: int = 32
    seed: int = 7
    strategy: str = "halton"  # halton | grid


def _radical_inverse(index: int, base: int) -> float:
    result, frac = 0.0, 1.0 / base
    while index > 0:
        result += (index % base) * frac
        index //= base
        frac /= base
    return result


def sample_points(plan: SamplePlan, domain) -> list[np.ndarray]:
    """Deterministic points strictly inside the domain box (5% margin)."""
    lo = np.array([b[0] for b in domain], dtype=float)
    hi = np.array([b[1] for b in domain], dtype=float)
    if np.any(hi <= lo):
        raise ValueError("degenerate domain box")
    width = hi - lo
    lo_m = lo + 0.025 * width
    hi_m = hi - 0.025 * width
    d = len(domain)
    if plan.strategy == "grid":
        k = max(1, int(np.ceil(plan.count ** (1.0 / d))))
        points = []
        for idx in np.ndindex(*([k] * d)):
            u = (np.array(idx, dtype=float) + 0.5) / k
            points.append(lo_m + u * (hi_m - lo_m))
            if len(points) == plan.count:
                break
        return points
    if plan.strategy == "halton":
        points = []
        for i in range(plan.count):
            u = np.array(
                [_radical_inverse(plan.seed + i + 1, _PRIMES[a]) for a in range(d)]
            )
            points.append(lo_m + u * (hi_m - lo_m))
        return points
    raise ValueError(f"unknown sampling strategy {plan.strategy!r}")


# -- report types -----------------------------------------------------------------


@dataclass
class CheckRecord:
    id: str
    paper: str  # equation/theorem label, or "plumbing"
    max_residual: float
    tol: float
    verdict: str  # pass | fail | skipped
    points: int


@dataclass
class CheckReport:
    suite: str
    structure: str
    seed: int
    tol: dict
    checks: list[CheckRecord] = field(default_factory=list)
    timestamp: str | None = None

    @property
    def failed(self) -> bool:
        return any(c.verdict == "fail" for c in self.checks)

    def add(self, id: str, paper: str, residual: float, tol: float, points: int) -> None:
        verdict = "pass" if residual <= tol else "fail"
        self.checks.append(CheckRecord(id, paper, float(residual), tol, verdict, points))

    def add_skipped(self, id: str, paper: str, residual: float, tol: float) -> None:
        self.checks.append(CheckRecord(id, paper, float(residual), tol, "skipped", 0))


def now_timestamp() -> str:
    return datetime.now(timezone.utc).isoformat()


def emit_report(report: CheckReport, format: str = "text") -> bytes:
    if format == "json":
        doc = {
            "suite": report.suite,
            "structure": report.structure,
            "seed": report.seed,
            "tol": report.tol,
            "checks": [
                {
                    "id": c.id,
                    "paper": c.paper,
                    "max_residual": c.max_residual,
                    "tol": c.tol,
                    "verdict": c.verdict,
                    "points": c.points,
                }
                for c in report.checks
            ],
        }
        if report.timestamp is not None:
            doc["timestamp"] = report.timestamp
        return (json.dumps(doc, indent=2) + "\n").encode()
    if format != "text":
        raise ValueError(f"unknown format {format!r}")
    lines = [
        f"suite: {report.suite}   structure: {report.structure}   seed: {report.seed}"
    ]
    if report.timestamp is not None:
        lines.append(f"timestamp: {report.timestamp}")
    lines.append(f"{'check':<28} {'paper':<14} {'max residual':>14} {'tol':>10} {'verdict':>8}")
    lines.append("-" * 78)
    for c in report.checks:
        lines.append(
            f"{c.id:<28} {c.paper:<14} {c.max_residual:>14.3e} {c.tol:>10.1e} {c.verdict:>8}"
        )
    return ("\n".join(lines) + "\n").encode()


# -- residual helpers ---------------------------------------------------------------


def _rel(size, *terms) -> float:
    """Largest size / (1 + largest term size); sizes and term sizes are arrays
    over the direction pairs that broadcast together, or scalars."""
    scale = 1.0 + functools.reduce(np.maximum, terms, 0.0)
    return float(np.max(size / scale, initial=0.0))


def _mat_residual(m, *terms) -> float:
    return _rel(np.max(np.abs(m)), *(np.max(np.abs(t)) for t in terms))


def _base_report(suite, structure: str, plan, tolerances, timestamp):
    return CheckReport(
        suite=suite,
        structure=structure,
        seed=plan.seed,
        tol=tolerances.as_dict(),
        timestamp=now_timestamp() if timestamp else None,
    )


def _emit(report: CheckReport, worst: Worst, checks, tolerances: Tolerances) -> None:
    """Add each (id, paper label, tolerance tier) check, skipped if no point
    asserted it."""
    for cid, label, tier in checks:
        tol = getattr(tolerances, tier)
        if worst.points[cid]:
            report.add(cid, label, worst.value[cid], tol, worst.points[cid])
        else:
            report.add_skipped(cid, label, 0.0, tol)


# -- identity suite ------------------------------------------------------------------

_UNGATED = (
    ("axiom-eta-normalization", "(2)", "algebraic"),
    ("axiom-f-square", "(2)", "algebraic"),
    ("axiom-metric-compatibility", "(2)", "algebraic"),
    ("axiom-f-xi", "(3)", "algebraic"),
    ("axiom-eta-f", "(3)", "algebraic"),
    ("axiom-eta-Q", "(3)", "algebraic"),
    ("axiom-Qf-commutator", "(3)", "algebraic"),
    ("axiom-Qt-xi", "(3)", "algebraic"),
    ("axiom-eta-Qt", "(3)", "algebraic"),
    ("n2-nabla-eta", "(4)", "deriv"),
)
_QUASI_GATED = (
    ("lemma21-5", "(5)", "deriv"),
    ("lemma21-6", "(6)", "deriv"),
    ("lemma21-7-xi", "(7)", "deriv"),
    ("lemma21-7-eta", "(7)", "deriv"),
    ("lemma21-8-left", "(8)", "deriv"),
    ("lemma21-8-right", "(8)", "deriv"),
    ("lemma21-9-lie", "(9)", "deriv"),
    ("lemma21-9-nabla", "(9)", "deriv"),
    ("lemma21-10", "(10)", "deriv"),
    ("lemma21-11", "(11)", "deriv"),
    ("eq13-h", "(13)", "deriv"),
)
IDENTITY_CHECKS = _UNGATED + _QUASI_GATED + (("eq16-h-n2", "(16)", "deriv"),)


def run_identity_suite(
    s: WeakACM,
    plan: SamplePlan = SamplePlan(),
    tolerances: Tolerances = Tolerances(),
    timestamp: bool = False,
) -> CheckReport:
    report = _base_report("identity", s.name, plan, tolerances, timestamp)
    td = tolerances.deriv
    worst = Worst()

    for point in sample_points(plan, s.sdef.domain):
        st = s.at(point)
        d, fd = st.directions(plan.seed)
        worst.admit(c[0] for c in _UNGATED)
        for name, value in axiom_residuals(st).items():
            worst.update(f"axiom-{name}", value)

        # N^(2) via covariant derivatives of eta (holds on any weak a.c.m.):
        # with a[x, y] = (nabla_{fX} eta) Y and b[x, y] = (nabla_X eta) fY
        ne = st.nabla_eta
        a, b = fd.T @ ne @ d, d.T @ ne @ fd
        rhs = a - b.T - a.T + b
        n2 = st.n2(d, d)
        worst.update("n2-nabla-eta", _rel(np.abs(n2 - rhs), np.abs(n2), np.abs(rhs)))

        c3 = np.tensordot(st.xi, st.nabla_f, axes=1)  # nabla_xi f
        if worst.admit((c[0] for c in _QUASI_GATED), st.quasi_residual(plan.seed), td):
            two_phi = 2.0 * (fd.T @ st.g @ d)
            lhs = d.T @ ne @ (st.Q @ d) + fd.T @ ne @ fd + two_phi
            fh = st.f @ st.h
            for cid, value in (
                ("lemma21-5", _rel(np.abs(lhs), np.abs(two_phi))),
                ("lemma21-6", _mat_residual(c3, st.f)),
                ("lemma21-7-xi", _rel(st.gnorm(st.nabla_xi @ st.xi), st.gnorm(st.xi))),
                ("lemma21-7-eta", _rel(st.gnorm(st.xi @ st.nabla_eta), st.gnorm(st.eta))),
                ("lemma21-8-left", _mat_residual(st.Q @ st.nabla_xi + st.f + fh, st.f, fh)),
                ("lemma21-8-right", _mat_residual(st.nabla_xi @ st.Q + st.f + fh, st.f, fh)),
                ("lemma21-9-lie", _mat_residual(st.lie_xi_Q, st.Q)),
                ("lemma21-9-nabla", _mat_residual(np.tensordot(st.xi, st.nabla_Q, axes=1), st.Q)),
                ("lemma21-10", _mat_residual(st.h @ st.f + st.f @ st.h, st.h, st.f)),
                ("lemma21-11", _mat_residual(st.h @ st.Q - st.Q @ st.h, st.h, st.Q)),
                (
                    "eq13-h",
                    _mat_residual(2.0 * st.h - st.f @ st.nabla_xi + st.nabla_xi @ st.f, st.h, st.f),
                ),
            ):
                worst.update(cid, value)
        if worst.admit(("eq16-h-n2",), _mat_residual(c3, st.f), td):
            gh = st.g @ st.h
            lhs = d.T @ (gh - gh.T) @ d
            rhs = -0.5 * n2
            worst.update("eq16-h-n2", _rel(np.abs(lhs - rhs), np.abs(lhs), np.abs(rhs)))

    _emit(report, worst, IDENTITY_CHECKS, tolerances)
    return report


# -- curvature suite ------------------------------------------------------------------

CURVATURE_CHECKS = (
    ("eq14", "(14)", "curv"),
    ("eq15", "(15)", "curv"),
    ("eq22", "(22)", "curv"),
    ("eq21", "(21)", "curv"),
    ("ric-xi-xi", "Ric(xi,xi)", "curv"),
)


def run_curvature_suite(
    s: WeakACM,
    plan: SamplePlan = SamplePlan(),
    tolerances: Tolerances = Tolerances(),
    timestamp: bool = False,
) -> CheckReport:
    report = _base_report("curvature", s.name, plan, tolerances, timestamp)
    td, tc = tolerances.deriv, tolerances.curv
    worst = Worst()

    for point in sample_points(plan, s.sdef.domain):
        st = s.at(point)
        d, fd = st.directions(plan.seed)
        h2 = st.h @ st.h
        trh2 = float(np.trace(h2))

        if worst.admit(("eq14", "eq15", "eq22"), st.quasi_residual(plan.seed), td):
            fb = st.fbasis
            lam = np.array(fb.lam)
            nabla_xi_h = np.tensordot(st.xi, st.nabla_h, axes=1)
            t1 = st.Q_inv @ (fd - h2 @ fd)
            t2 = st.f @ st.curvature_op(d, st.xi, st.xi)
            defect = nabla_xi_h @ d - t1 + t2
            worst.update("eq14", _rel(st.gnorm(defect), st.gnorm(t1), st.gnorm(t2)))
            lhs = st.Q @ st.ell(d) - st.f @ st.ell(fd)
            rhs = 2.0 * h2 @ d + (st.Q + st.Q_inv) @ (st.f @ fd)
            worst.update("eq15", _rel(st.gnorm(lhs - rhs), st.gnorm(lhs), st.gnorm(rhs)))
            e, fe = np.column_stack(fb.e), np.column_stack(fb.fe)
            ksum = float(np.sum(lam * (st.sectional(st.xi, e) + st.sectional(st.xi, fe))))
            rhs22 = st.n - trh2 + float(np.sum(lam**2))
            worst.update("eq22", _rel(abs(ksum - rhs22), abs(ksum), abs(rhs22)))

            # hypothesis of the Ricci inequality: K(xi,X) + K(xi,fX) >= 0
            p = st.project_ker_eta(d)
            p = p[:, st.gnorm(p) > 1e-8]
            k = st.sectional(st.xi, st.g_normalize(p)) + st.sectional(
                st.xi, st.g_normalize(st.f @ p)
            )
            if worst.admit(("eq21",), float(np.max(-k, initial=0.0)), tc):
                lhs21 = float(np.max(lam)) * st.ricci(st.xi, st.xi)
                rhs21 = st.n - trh2 + (np.trace(st.Q) - 1.0) ** 2 / (4.0 * st.n)
                worst.update(
                    "eq21", _rel(np.maximum(0.0, rhs21 - lhs21), abs(lhs21), abs(rhs21))
                )
        if worst.admit(("ric-xi-xi",), st.contact_residual, td):
            ric = st.ricci(st.xi, st.xi)
            worst.update("ric-xi-xi", _rel(abs(ric - (2.0 * st.n - trh2)), abs(ric)))

    _emit(report, worst, CURVATURE_CHECKS, tolerances)
    return report


# -- theorem suite ---------------------------------------------------------------------


def run_theorem_suite(
    s: WeakACM,
    plan: SamplePlan = SamplePlan(),
    tolerances: Tolerances = Tolerances(),
    timestamp: bool = False,
) -> CheckReport:
    report = _base_report("theorems", s.name, plan, tolerances, timestamp)
    points = sample_points(plan, s.sdef.domain)
    td, tc = tolerances.deriv, tolerances.curv

    # global hypothesis and conclusion residuals: the max over points and pairs
    worst = Worst()
    for point in points:
        st = s.at(point)
        d, fd = st.directions(plan.seed)
        gd = st.gnorm(d)
        eta_d = st.eta @ d
        p = st.project_ker_eta(d)
        u = st.g_normalize(p[:, st.gnorm(p) > 1e-8])
        d23 = st.curvature_op(d, d, st.xi) - d[:, :, None] * eta_d + eta_d[:, None] * d[:, None, :]
        d20 = st.curvature_op(u, st.xi, st.xi) + u + np.outer(st.xi, st.eta @ u)
        h2 = st.h @ st.h
        # d eta(X + (1/2) Qt X, Y) = Phi(X, Y)
        lhs = st.deta2(d + 0.5 * st.Qt @ d, d)
        rhs = d.T @ st.g @ fd
        for cid, value in (
            ("quasi", st.quasi_residual(plan.seed)),
            ("contact", st.contact_residual),
            ("killing", _rel(st.killing_residual, np.max(np.abs(st.g)))),
            ("eq18", _mat_residual(st.nabla_xi + st.f, st.f)),
            ("eq17", _rel(st.gnorm(sasakian_defect(st, d, d)), gd[:, None], st.gnorm(st.xi))),
            ("eq23", _rel(st.gnorm(d23), gd[:, None], gd)),
            ("eq20", _rel(st.gnorm(st.ell(u) + u), st.gnorm(u))),
            ("eq20-written", _rel(st.gnorm(d20), st.gnorm(u))),
            # Eq (19): (nabla_X Q) Y = 0 for X, Y in ker eta
            ("eq19", _rel(st.gnorm(bilinear(st.nabla_Q, p, p)), np.max(np.abs(st.Q)))),
            ("h-self-adjoint", _mat_residual(st.h - st.h_star, st.h)),
            ("h-skew", _mat_residual(st.h + st.h_star, st.h)),
            ("Qt-zero", np.max(np.abs(st.Qt))),
            ("normal", _rel(st.gnorm(st.n1(d, d)), gd[:, None], gd)),
            ("dPhi-zero", _rel(np.max(np.abs(st.dPhi_form)), np.max(np.abs(st.Phi)))),
            ("2h2-eq-Qt2", _mat_residual(2.0 * h2 - st.Qt @ st.Qt, h2, st.Qt)),
            ("trh2-nonpositive", np.trace(h2)),
            ("contact-volume", 1e-6 - abs(contact_volume(s, point))),
            ("deta-Qt-Phi", _rel(np.abs(lhs - rhs), np.abs(lhs), np.abs(rhs))),
        ):
            worst.update(cid, value)

    npts = len(points)
    r = worst.value
    quasi, contact, killing = r["quasi"], r["contact"], r["killing"]
    qt_norm, eq17, two_h2 = r["Qt-zero"], r["eq17"], r["2h2-eq-Qt2"]

    def theorem(prefix, label, hyps, concls):
        """hyps: list of (name, residual, tol); concls: list of (name, residual, tol).
        A non-finite hypothesis residual fails the hypothesis and every conclusion."""
        met = all(res <= t for _, res, t in hyps)
        broken = next((res for _, res, _ in hyps if not math.isfinite(res)), None)
        for name, res, t in hyps:
            if res <= t or not math.isfinite(res):
                report.add(f"{prefix}-hyp-{name}", label, res, t, npts)
            else:
                report.add_skipped(f"{prefix}-hyp-{name}", label, res, t)
        for name, res, t in concls:
            if met or broken is not None:
                report.add(f"{prefix}-{name}", label, res if met else broken, 10.0 * t, npts)
            else:
                report.add_skipped(f"{prefix}-{name}", label, res, 10.0 * t)

    theorem(
        "t31",
        "Thm 3.1",
        [("quasi", quasi, td), ("nabla-xi-eq18", r["eq18"], td)],
        [("Qt-zero", qt_norm, td), ("contact-metric", contact, td), ("killing-xi", killing, td)],
    )
    theorem(
        "t33",
        "Thm 3.3",
        [("quasi", quasi, td), ("sasakian-eq17", eq17, td)],
        [("Qt-zero", qt_norm, td), ("contact-metric", contact, td), ("normal", r["normal"], td)],
    )
    theorem(
        "t34",
        "Thm 3.4",
        [("quasi", quasi, td), ("curvature-eq20", r["eq20"], tc), ("killing-xi", killing, td)],
        [("Qt-zero", qt_norm, td), ("contact-metric", contact, td), ("2h2-eq-Qt2", two_h2, tc)],
    )
    # both sign readings of the curvature hypothesis, recorded for transparency
    report.add_skipped("t34-eq20-reading-ell", "Thm 3.4", r["eq20"], tc)
    report.add_skipped("t34-eq20-reading-as-written", "Thm 3.4", r["eq20-written"], tc)
    theorem(
        "t35",
        "Thm 3.5",
        [
            ("quasi", quasi, td),
            ("curvature-eq23", r["eq23"], tc),
            ("trh2-nonpositive", r["trh2-nonpositive"], tc),
        ],
        [("Qt-zero", qt_norm, td), ("sasakian", eq17, td), ("2h2-eq-Qt2", two_h2, tc)],
    )
    theorem(
        "p33",
        "Prop 3.3",
        [("quasi", quasi, td), ("killing-xi", killing, td)],
        [("h-skew-symmetric", r["h-skew"], td)],
    )
    theorem(
        "p34",
        "Prop 3.4",
        [
            ("quasi", quasi, td),
            ("nabla-Q-eq19", r["eq19"], td),
            ("h-self-adjoint", r["h-self-adjoint"], td),
        ],
        [
            ("dPhi-zero", r["dPhi-zero"], td),
            ("contact-volume", r["contact-volume"], td),
            ("deta-Qt-Phi", r["deta-Qt-Phi"], td),
        ],
    )
    return report


def run_all(
    s: WeakACM,
    plan: SamplePlan = SamplePlan(),
    tolerances: Tolerances = Tolerances(),
    timestamp: bool = False,
) -> CheckReport:
    report = _base_report("all", s.name, plan, tolerances, timestamp)
    for sub in (run_identity_suite, run_curvature_suite, run_theorem_suite):
        report.checks.extend(sub(s, plan, tolerances).checks)
    return report


# -- reports for validate / classify ----------------------------------------------------


def report_from_axioms(s: WeakACM, plan: SamplePlan, tolerances: Tolerances, timestamp=False) -> CheckReport:
    report = _base_report("validate", s.name, plan, tolerances, timestamp)
    points = sample_points(plan, s.sdef.domain)
    ax = validate_axioms(s, points, tol=tolerances.algebraic)
    for name, value in ax.residuals.items():
        report.add(name, "(2)/(3)", value, tolerances.algebraic, len(points))
    report.add(
        "Q-positive-definite",
        "(2)",
        max(0.0, -ax.q_min_eigenvalue),
        tolerances.algebraic,
        len(points),
    )
    rank_res = 0.0 if "f-rank" not in ax.failures else 1.0
    report.add("f-rank", "rank f = 2n", rank_res, tolerances.algebraic, len(points))
    return report


def report_from_classification(cr: ClassReport, plan: SamplePlan, tolerances: Tolerances, timestamp=False) -> CheckReport:
    report = _base_report("classify", cr.structure, plan, tolerances, timestamp)
    for name, result in cr.classes.items():
        verdict = "pass" if result.verdict else "fail"
        rows = [(name, result.residual)]
        if result.canonical_residual is not None:
            rows.append((f"{name}-canonical-direction", result.canonical_residual))
        for cid, residual in rows:
            record = CheckRecord(cid, "class", residual, result.tol, verdict, plan.count)
            report.checks.append(record)
    return report
