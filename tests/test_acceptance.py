"""Acceptance gate: one test per release criterion, each printing a single
pass/fail line.  Tolerances here are pinned; loosening them is a release
decision, not a refactor."""

import io
import json
import math
import re

import numpy as np
import pytest

from conftest import eval_at, state_at
from wqcm.catalog import catalog, document
from wqcm.cli import EXIT_OK, run_cli
from wqcm.exprdsl import compile_tape
from wqcm.geometry import christoffel
from wqcm.suites import evaluate, sample_points


@pytest.fixture
def announce(capsys, request):
    def _announce(ok: bool, detail: str = ""):
        name = request.node.name.removeprefix("test_")
        line = f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}"
        if detail:
            line += f"  ({detail})"
        with capsys.disabled():
            print(line)
        assert ok, line

    return _announce


def all_catalog_structures():
    return [
        catalog("sasakian-r3"),
        catalog("sasakian-r5"),
        catalog("sasakian-r7"),
        catalog("scaled", n=1, s=2.0),
        catalog("flat-const"),
    ]


# -- criterion 1: AD kernel vs central finite differences -------------------------


_FNS = {"sin": math.sin, "cos": math.cos, "exp": math.exp, "sqrt": math.sqrt}


def eval_float(text, coords, point):
    """Plain-float value of expression text, independent of the jet tape: Python
    reads the text with `^` as `**`.  The grammars differ only on chained `^`
    (Python's `**` groups to the right), which the cells checked here avoid."""
    names = {**_FNS, **{name: float(x) for name, x in zip(coords, point)}}
    return float(eval(text.replace("^", "**"), {"__builtins__": {}}, names))


def test_1_ad_kernel_matches_finite_differences(announce):
    cases = []  # (text, coords, domain)
    for key in ("sasakian-r3", "sasakian-r5", "flat-const"):
        doc = document(key)
        dim = len(doc["coords"])
        cells = [doc["metric"][i][j] for i in range(dim) for j in range(i, dim)]
        cells += [c for row in doc["f"] for c in row] + doc["xi"]
        cases += [(c, doc["coords"], doc["domain"]) for c in cells]
    assert len(cases) >= 50
    assert not any(re.search(r"\^[\s-]*\d+\s*\^", text) for text, _, _ in cases)

    hg, hh = 1e-5, 1e-4
    worst_g = worst_h = 0.0
    ok = True
    for text, coords, domain in cases:
        tape = compile_tape({"e": text}, coords)
        for point in sample_points(32, 7, domain):
            d = len(point)
            _, grad, hess = eval_at(tape, point)["e"]

            def fd(delta):
                return eval_float(text, coords, point + delta)

            f0 = eval_float(text, coords, point)
            for i in range(d):
                ei = np.eye(d)[i]
                g_fd = (fd(hg * ei) - fd(-hg * ei)) / (2 * hg)
                err = abs(grad[i] - g_fd) / (1.0 + abs(g_fd))
                worst_g = max(worst_g, err)
                hii = (fd(hh * ei) - 2 * f0 + fd(-hh * ei)) / (hh * hh)
                herr = abs(hess[i, i] - hii) / (1.0 + abs(hii))
                worst_h = max(worst_h, herr)
                for k in range(i + 1, d):
                    ek = np.eye(d)[k]
                    hik = (
                        fd(hh * (ei + ek))
                        - fd(hh * (ei - ek))
                        - fd(-hh * (ei - ek))
                        + fd(-hh * (ei + ek))
                    ) / (4 * hh * hh)
                    herr = abs(hess[i, k] - hik) / (1.0 + abs(hik))
                    worst_h = max(worst_h, herr)
    ok = worst_g < 1e-6 and worst_h < 1e-4
    announce(ok, f"{len(cases)} exprs, grad err {worst_g:.1e}, hess err {worst_h:.1e}")


# -- criterion 2: Levi-Civita contract ---------------------------------------------


def test_2_levi_civita_contract(announce):
    worst = 0.0
    for sdef in all_catalog_structures():
        for point in sample_points(32, 7, sdef.domain):
            m = state_at(sdef, point)
            (g,), (dg,), (g_inv,) = m.g, m.dg, m.g_inv
            gamma = christoffel(g_inv, dg)
            worst = max(worst, float(np.max(np.abs(gamma - gamma.transpose(0, 2, 1)))))
            nabla_g = (
                dg
                - np.einsum("mki,mj->kij", gamma, g)
                - np.einsum("mkj,im->kij", gamma, g)
            )
            worst = max(worst, float(np.max(np.abs(nabla_g))))
    announce(worst < 1e-10, f"max residual {worst:.1e}")


# -- criterion 3: Sasakian fixture axioms and classification -----------------------


def test_3_sasakian_axioms_and_classes(announce):
    ok = True
    detail = []
    for key in ("sasakian-r3", "sasakian-r5"):
        sdef = catalog(key)
        rep = evaluate(sdef, "validate", 32, 7)
        worst = max(c.max_residual for c in rep.checks)
        ok = ok and not rep.failed and worst < 1e-12
        cls = {c.id: c for c in evaluate(sdef, "classify", 32, 7).checks}
        for name in (
            "contact-metric",
            "quasi",
            "normal",
            "sasakian",
            "nearly-sasakian",
            "killing-xi",
        ):
            ok = ok and cls[name].verdict == "pass"
        detail.append(f"{key} axioms {worst:.1e}")
    announce(ok, "; ".join(detail))


# -- criterion 4: exact values on the Sasakian fixture -----------------------------


def test_4_sasakian_exact_values(announce):
    ok = True
    rng = np.random.default_rng(42)
    for key, n in (("sasakian-r3", 1), ("sasakian-r5", 2)):
        sdef = catalog(key)
        for point in sample_points(8, 7, sdef.domain):
            st = state_at(sdef, point)
            ok = ok and np.max(np.abs(st.h)) < 1e-9
            ok = ok and np.max(np.abs(st.nabla_xi + st.f)) < 1e-9
            ok = ok and abs(st.ric_xi_xi.item() - 2.0 * n) < 1e-7
        st = state_at(sdef, np.zeros(sdef.dim) + 0.1)
        for _ in range(20):
            x = st.project_ker_eta(rng.standard_normal((sdef.dim, 1)))
            x = st.g_normalize(x)
            ok = ok and abs(st.sectional(x).item() - 1.0) < 1e-7
        basis, (lam,) = st.fbasis
        lhs = sum(
            lam[i] * (st.sectional(basis[:, :, 2 * i + 1 : 2 * i + 2])
                      + st.sectional(basis[:, :, 2 * i + 2 : 2 * i + 3])).item()
            for i in range(n)
        )
        (h,), (q,) = st.h, st.Q
        rhs = n - float(np.trace(h @ h)) + float(np.sum(lam**2))
        ok = ok and abs(lhs - 2.0 * n) < 1e-7 and abs(rhs - 2.0 * n) < 1e-7
        if n == 1:
            left = float(np.max(lam)) * st.ric_xi_xi.item()
            right = n - float(np.trace(h @ h)) + (np.trace(q) - 1.0) ** 2 / (4.0 * n)
            ok = ok and abs(left - right) < 1e-7
    announce(ok)


# -- criterion 5: gated identity suite ----------------------------------------------


LEMMA_IDS = (
    "lemma21-5",
    "lemma21-6",
    "lemma21-7-xi",
    "lemma21-7-eta",
    "lemma21-8-left",
    "lemma21-8-right",
    "lemma21-9-lie",
    "lemma21-9-nabla",
    "lemma21-10",
    "lemma21-11",
    "eq13-h",
    "eq16-h-n2",
)


def test_5_identity_suite_gating(announce):
    ok = True
    worst = 0.0
    for key in ("sasakian-r3", "sasakian-r5"):
        report = evaluate(catalog(key), "identity", 32, 7)
        by_id = {c.id: c for c in report.checks}
        for cid in LEMMA_IDS:
            ok = ok and by_id[cid].verdict == "pass" and by_id[cid].max_residual < 1e-8
            worst = max(worst, by_id[cid].max_residual)
    scaled = evaluate(catalog("scaled", n=1, s=2.0), "identity", 32, 7)
    by_id = {c.id: c for c in scaled.checks}
    for cid in LEMMA_IDS[:-1]:  # all quasi-gated checks
        ok = ok and by_id[cid].verdict == "skipped"
    announce(ok, f"max residual {worst:.1e}")


# -- criterion 6: curvature identities ----------------------------------------------


def test_6_curvature_identities(announce):
    ok = True
    worst = 0.0
    for key in ("sasakian-r3", "sasakian-r5"):
        report = evaluate(catalog(key), "curvature", 32, 7)
        by_id = {c.id: c for c in report.checks}
        for cid in ("eq14", "eq15"):
            ok = ok and by_id[cid].verdict == "pass" and by_id[cid].max_residual < 1e-8
            worst = max(worst, by_id[cid].max_residual)
    announce(ok, f"max residual {worst:.1e}")


# -- criterion 7: the scaled fixture ------------------------------------------------


def test_7_scaled_fixture(announce):
    sdef = catalog("scaled", n=1, s=2.0)
    ok = not evaluate(sdef, "validate", 32, 7).failed  # algebraic tier 1e-10

    cls = {c.id: c for c in evaluate(sdef, "classify", 32, 7).checks}
    canonical = cls["quasi-canonical-direction"].max_residual
    ok = ok and abs(canonical - 8.0) < 1e-6
    for name in ("contact-metric", "normal"):
        ok = ok and cls[name].verdict == "fail" and cls[name].max_residual > 0.0

    theorems = evaluate(sdef, "theorems", 32, 7)
    by_id = {c.id: c for c in theorems.checks}
    for cid in ("t31-Qt-zero", "t33-Qt-zero", "t34-Qt-zero", "t35-Qt-zero", "p33-h-skew-symmetric"):
        ok = ok and by_id[cid].verdict == "skipped"
    ok = ok and not theorems.failed

    out = io.StringIO()
    ok = ok and run_cli(
        ["classify", "builtin:scaled?s=2", "--no-timestamp"], stdout=out
    ) == EXIT_OK
    ok = ok and run_cli(
        ["check", "all", "builtin:scaled?s=2", "--no-timestamp"], stdout=io.StringIO()
    ) == EXIT_OK
    announce(ok, f"canonical quasi residual {canonical:.9f}")


# -- criterion 8: f-basis invariants -------------------------------------------------


def test_8_f_basis_invariants(announce):
    ok = True
    worst = 0.0
    for sdef in all_catalog_structures():
        for point in sample_points(8, 7, sdef.domain):
            st = state_at(sdef, point)
            (basis,), (lams,), (g,), (q,) = st.fbasis[0], st.fbasis[1], st.g, st.Q

            def gnorm(v):
                return st.gnorm(v[None, :, None]).item()

            vecs = list(basis.T)
            res = max(
                abs(u @ g @ v) for a, u in enumerate(vecs) for v in vecs[a + 1 :]
            )
            for e, fe, lam in zip(vecs[1::2], vecs[2::2], lams):
                res = max(res, abs(gnorm(e) - 1.0))
                res = max(res, gnorm(q @ e - lam * e))
                res = max(res, abs(fe @ g @ fe - lam))
            res = max(res, abs(float(np.trace(q)) - (1.0 + 2.0 * sum(lams))))
            worst = max(worst, res)
    ok = worst < 1e-9
    announce(ok, f"max defect {worst:.1e}")


# -- criterion 10: contact volume ----------------------------------------------------


def test_10_contact_volume(announce):
    ok = True
    smallest = math.inf
    for key in ("sasakian-r3", "sasakian-r5", "sasakian-r7"):
        sdef = catalog(key)
        for point in sample_points(4, 7, sdef.domain):
            smallest = min(smallest, abs(state_at(sdef, point).contact_volume.item()))
    ok = smallest > 1e-6
    flat = catalog("flat-const")
    degenerate = max(
        abs(state_at(flat, p).contact_volume.item())
        for p in sample_points(4, 7, flat.domain)
    )
    ok = ok and degenerate < 1e-12
    announce(ok, f"min |vol| {smallest:.1e}, flat {degenerate:.1e}")


# -- criterion 11: determinism --------------------------------------------------------


def test_11_deterministic_reports(announce):
    argv = ["check", "all", "builtin:sasakian-r3", "--format", "json", "--no-timestamp"]
    outs = []
    for _ in range(2):
        buf = io.StringIO()
        assert run_cli(argv, stdout=buf) == EXIT_OK
        outs.append(buf.getvalue())
    ok = outs[0] == outs[1] and len(outs[0]) > 0
    json.loads(outs[0])
    announce(ok, f"{len(outs[0])} bytes")
