import math
import re
from dataclasses import asdict
from itertools import permutations
from pathlib import Path

import numpy as np
import pytest

from wqcm.catalog import catalog, document, keys
from wqcm.exprdsl import load_structure_def
from wqcm.structure import WeakACM
from wqcm.suites import Tolerances, _record, _residuals, evaluate
from conftest import points_for

DATA = Path(__file__).parent / "data"


def residuals(report):
    return {c.id: c.max_residual for c in report.checks}


def classes(acm, points):
    return {c.id: c for c in evaluate(acm, "classify", points).checks}


def test_axioms_pass_on_all_fixtures(sasakian_r3, sasakian_r5, scaled2, flat_const):
    for acm in (sasakian_r3, sasakian_r5, scaled2, flat_const):
        points = points_for(acm)
        rep = evaluate(acm, "validate", points)
        assert not rep.failed, (acm.name, residuals(rep))
        assert min(acm.at(p).q_spectrum[0, 0] for p in points) > 0.0
        assert max(residuals(rep).values()) < 1e-12
        sv = np.sort(acm.at(points[-1]).f_singular_values[0])
        assert sv[0] < 1e-6 and all(v > 1e-4 for v in sv[1:])


def test_axioms_are_scale_relative():
    """`scaled` is exactly a weak structure for every s: the product rows
    measure rounding relative to their factors, so no s fails them."""
    for s in (0.01, 100.0, 1000.0):
        acm = WeakACM(catalog("scaled", n=3, s=s))
        rep = evaluate(acm, "validate", points_for(acm, count=32))
        assert not rep.failed, (s, residuals(rep))


def test_axioms_reject_point_outside_domain(sasakian_r3):
    with pytest.raises(ValueError, match="outside"):
        evaluate(sasakian_r3, "validate", [np.array([5.0, 0.0, 0.0])])


def _perturbed_q_doc(eps=0.1):
    return {
        "name": "perturbed-q",
        "n": 1,
        "coords": ["x", "y", "z"],
        "domain": [[-1, 1]] * 3,
        "metric": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
        "f": [["0", "1", "0"], ["-1", "0", "0"], ["0", "0", "0"]],
        "xi": ["0", "0", "1"],
        "Q": [[repr(1.0 + eps), "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
    }


def test_perturbed_explicit_q_is_flagged():
    acm = WeakACM(load_structure_def(_perturbed_q_doc()))
    rep = evaluate(acm, "validate", [np.zeros(3)])
    assert rep.failed
    assert "Q-consistency" in [c.id for c in rep.checks if c.verdict == "fail"]
    assert residuals(rep)["Q-consistency"] == pytest.approx(0.1, abs=1e-12)


def test_class_verdicts_sasakian(sasakian_r3):
    c = classes(sasakian_r3, points_for(sasakian_r3))
    for name in (
        "weak-acm-axioms",
        "contact-metric",
        "quasi",
        "normal",
        "sasakian",
        "nearly-sasakian",
        "killing-xi",
        "k-contact",
    ):
        assert c[name].verdict == "pass", (name, c[name].max_residual)


def test_class_verdicts_scaled(scaled2):
    c = classes(scaled2, points_for(scaled2))
    assert c["weak-acm-axioms"].verdict == "pass"
    assert c["killing-xi"].verdict == "pass"
    for name in ("contact-metric", "quasi", "normal", "sasakian", "nearly-sasakian", "k-contact"):
        assert c[name].verdict == "fail", name
        assert c[name].max_residual > 1e-3, name
    # |s + s^3 - 2| at s = 2 on the canonical unit direction
    assert c["quasi-canonical-direction"].max_residual == pytest.approx(8.0, abs=1e-6)


def test_class_verdicts_flat_const(flat_const):
    c = classes(flat_const, points_for(flat_const))
    assert c["weak-acm-axioms"].verdict == "pass"
    assert c["killing-xi"].verdict == "pass"
    assert c["normal"].verdict == "pass"  # constant f, d eta = 0
    assert c["contact-metric"].verdict == "fail"
    assert c["sasakian"].verdict == "fail"
    assert c["k-contact"].verdict == "fail"


def _case_id(key, params):
    return "-".join([key, *(f"{a}{v:g}" for a, v in params.items())])


# every built-in, and the scaled family at small and large s
AGREEMENT_CASES = [(key, {}) for key in keys() if key != "scaled"] + [
    ("scaled", {"n": n, "s": s}) for n in (1, 3) for s in (0.01, 0.5, 2.0, 100.0)
]
AGREEMENT_IDS = [_case_id(k, p) for k, p in AGREEMENT_CASES]


@pytest.mark.parametrize("key, params", AGREEMENT_CASES, ids=AGREEMENT_IDS)
def test_class_rows_read_the_checks_of_the_theorem_rows(key, params):
    """The normal, Sasakian and Killing rows of `classify` are the residuals
    of the checks that Thms 3.3, 3.5 and 3.1 conclude, bit for bit, with the
    verdict of that check; the theorem rows record them even when skipped."""
    acm = WeakACM(catalog(key, **params))
    points = points_for(acm)
    c = classes(acm, points)
    theorems = {row.id: row for row in evaluate(acm, "theorems", points).checks}
    for name, row in (("normal", "t33-normal"), ("sasakian", "t35-sasakian"), ("killing-xi", "t31-killing-xi")):
        residual = theorems[row].max_residual
        assert c[name].max_residual == residual, (name, c[name].max_residual, residual)
        assert c[name].verdict == ("pass" if residual <= Tolerances().deriv else "fail"), name
    assert c["nearly-sasakian"].max_residual <= c["sasakian"].max_residual


def check_f_basis_invariants(acm, point, tol=1e-9):
    """The eigenvalues of the f-basis at `point`, after checking its invariants."""
    st = acm.at(point)
    assert st.fbasis[0].shape == (1, acm.dim, acm.dim) and st.fbasis[1].shape == (1, acm.sdef.n)
    (basis,), (lam,) = st.fbasis
    (g,), (q,), (f,), (eta,) = st.g, st.Q, st.f, st.eta[:, 0]

    def gnorm(v):
        return st.gnorm(v[None, :, None]).item()

    assert np.array_equal(basis[:, 0], st.xi[0, :, 0])
    for e, fe, lam_i in zip(basis[:, 1::2].T, basis[:, 2::2].T, lam):
        assert lam_i > 0.0
        assert gnorm(e) == pytest.approx(1.0, abs=tol)
        assert gnorm(q @ e - lam_i * e) < tol  # eigenvector
        assert gnorm(fe - f @ e) < tol
        assert fe @ g @ fe == pytest.approx(lam_i, abs=tol)
        assert abs(eta @ e) < tol and abs(eta @ fe) < tol
    gram = basis.T @ g @ basis
    assert np.max(np.abs(gram - np.diag(np.diag(gram)))) < tol  # pairwise g-orthogonal
    assert np.trace(q) == pytest.approx(1.0 + 2.0 * sum(lam), abs=tol)
    return lam


def test_f_basis_on_fixtures(sasakian_r3, sasakian_r5, scaled2, flat_const):
    for acm in (sasakian_r3, sasakian_r5, scaled2, flat_const):
        for point in points_for(acm, count=4):
            check_f_basis_invariants(acm, point)
    assert check_f_basis_invariants(scaled2, np.zeros(3)) == pytest.approx([4.0], abs=1e-12)


def _block_scaled_doc():
    """Dimension 5, f with blocks scaled by 1 and 2 => Q eigenvalues {1, 4}."""
    dim = 5
    f = [["0"] * dim for _ in range(dim)]
    f[0][1], f[1][0] = "1", "-1"
    f[2][3], f[3][2] = "2", "-2"
    metric = [["0"] * dim for _ in range(dim)]
    for i in range(dim):
        metric[i][i] = "1"
    return {
        "name": "block-scaled",
        "n": 2,
        "coords": ["x1", "x2", "y1", "y2", "z"],
        "domain": [[-1, 1]] * dim,
        "metric": metric,
        "f": f,
        "xi": ["0", "0", "0", "0", "1"],
    }


def test_f_basis_distinct_eigenvalues():
    acm = WeakACM(load_structure_def(_block_scaled_doc()))
    lam = check_f_basis_invariants(acm, np.zeros(5))
    assert lam == pytest.approx([1.0, 4.0], abs=1e-12)
    # smallest eigenvalue comes first
    assert lam[0] < lam[1]


def test_f_basis_deterministic(sasakian_r5):
    point = np.array([0.2, -0.3, 0.4, 0.1, -0.2])
    a, lam_a = sasakian_r5.at(point).fbasis
    b, lam_b = sasakian_r5.at(point).fbasis  # a fresh state
    assert np.array_equal(a, b) and np.array_equal(lam_a, lam_b)


def test_f_basis_is_orthonormal_on_a_dense_chart():
    """The constant cells of the sasakian-r13 chart (n = 6, built with
    `catalog._sasakian_doc(6)`) at u = a v, v = (0.3, ..., 0.3), in the
    coordinates v: g' = a^T g a, f' = a^-1 f a, xi' = a^-1 xi with
    a = I + 0.4 N, N = default_rng(3).standard_normal((13, 13)).  A drop
    threshold on the deflated subspace kept a rounding residue here, and
    the basis was 0.71 away from g-orthogonal."""
    acm = WeakACM(load_structure_def((DATA / "dense-r13-const.json").read_bytes()))
    lam = check_f_basis_invariants(acm, np.full(13, 0.3), tol=1e-12)
    assert lam == pytest.approx([1.0] * 6, abs=1e-12)


@pytest.mark.parametrize("key, params", [("sasakian-r7", {}), ("scaled", {"n": 3, "s": 2.0})])
def test_f_basis_tie_break_is_geometric(key, params):
    """Q = lambda id on ker eta, so every unit vector there ties: e_i is the
    normalized projection 2 d/dx_i + 2 y_i d/dz of the first coordinate
    vector left after each deflation."""
    acm = WeakACM(catalog(key, **params))
    for k, point in enumerate(points_for(acm, count=32)):
        e = acm.at(point).fbasis[0][0, :, 1::2]
        expected = np.zeros((7, 3))
        expected[:3], expected[6] = 2.0 * np.eye(3), 2.0 * point[3:6]
        assert np.max(np.abs(e - expected)) <= 1e-12, k


VOLUME_CASES = [("scaled", {"n": n, "s": s}, math.factorial(n) * s**n) for n in (1, 2, 3) for s in (0.01, 0.5, 2.0, 100.0)]
VOLUME_CASES += [(f"sasakian-r{2 * n + 1}", {}, math.factorial(n)) for n in (1, 2, 3)] + [("flat-const", {}, 0.0)]


@pytest.mark.parametrize("key, params, expected", VOLUME_CASES, ids=[_case_id(k, p) for k, p, _ in VOLUME_CASES])
def test_contact_volume_values(key, params, expected):
    """|eta ^ (d eta)^n| = n! s^n on scaled (the f-basis vectors f e_i have
    g-norm s), n! on the Sasakian charts and exactly 0 on flat-const."""
    acm = WeakACM(catalog(key, **params))
    for point in points_for(acm):
        vol = acm.at(point).contact_volume.item()
        assert abs(vol - expected) <= 1e-12 * expected, (acm.name, point, vol)


def _sign(perm) -> float:
    d = len(perm)
    return (-1.0) ** sum(perm[a] > perm[b] for a in range(d) for b in range(a + 1, d))


def _alternating_sum(eta, deta, v):
    """eta ^ (d eta)^n on the columns of v, by its definition: 2^-n times the
    sum over all permutations s of sgn(s) eta(v_s0) prod_k d eta(v_s(2k-1), v_s(2k)),
    with d eta(x, y) = x^T deta y."""
    d = v.shape[1]
    total = 0.0
    for perm in permutations(range(d)):
        term = _sign(perm) * (eta @ v[:, perm[0]])
        for k in range(1, d, 2):
            term *= v[:, perm[k]] @ deta @ v[:, perm[k + 1]]
        total += term
    return total / 2.0 ** (d // 2)


DEFINITION_CASES = [(k, {}) for k in ("sasakian-r3", "sasakian-r5", "sasakian-r7", "flat-const")] + [
    ("scaled", {"n": 1, "s": 2.0}), ("scaled", {"n": 3, "s": 2.0}),
]


@pytest.mark.parametrize("key, params", DEFINITION_CASES, ids=[_case_id(k, p) for k, p in DEFINITION_CASES])
def test_contact_volume_matches_its_definition(key, params):
    acm = WeakACM(catalog(key, **params))
    for point in points_for(acm, count=4):
        st = acm.at(point)
        expected = abs(_alternating_sum(st.eta[0, 0], st.deta_form[0], st.fbasis[0][0]))
        assert abs(st.contact_volume.item() - expected) <= 1e-12 * expected, (acm.name, point)


def test_a_nan_in_d_eta_gives_a_nan_volume_that_fails(sasakian_r3):
    st = sasakian_r3.at(np.array([0.15, -0.4, 0.3]))
    deta = st.deta_form.copy()
    deta[0, 1, 2], deta[0, 2, 1] = math.nan, -math.nan
    st.deta_form = deta  # in place of the cached d eta
    with np.errstate(invalid="ignore"):  # as in the CLI, the verdict judges NaN
        assert math.isnan(st.contact_volume.item())
        (residual,), applies = _residuals(st, ["contact-volume"], lambda cid: 1e-9)["contact-volume"]
    assert applies.all() and math.isnan(residual)
    assert _record("contact-volume", "Prop 3.4", residual, 1e-9, 1).verdict == "fail"


def _linear_chart(doc, a):
    """The structure of `doc` in the coordinates v with u = a v: the cells of
    g' = a^T g a, f' = a^-1 f a and xi' = a^-1 xi, with each u_i written as
    (a v)_i.  Every component of eta and d eta is then nonzero."""
    d, a_inv = len(a), np.linalg.inv(a)
    coords = [f"v{i + 1}" for i in range(d)]
    linear = {u: "(" + " + ".join(f"({float(a[i, j])!r})*{coords[j]}" for j in range(d)) + ")"
              for i, u in enumerate(doc["coords"])}
    name = re.compile(r"\b(" + "|".join(doc["coords"]) + r")\b")

    def combo(terms):
        """The sum of c * (cell) over the terms (c, cell) whose cell is not "0"."""
        out = [f"({float(c)!r})*({name.sub(lambda m: linear[m[0]], t)})" for c, t in terms if t != "0"]
        return " + ".join(out) or "0"

    g, f, xi = doc["metric"], doc["f"], doc["xi"]
    pairs = [(p, q) for p in range(d) for q in range(d)]
    return {
        **doc,
        "name": doc["name"] + "-linear",
        "coords": coords,
        "metric": [["" if j < i else combo([(a[p, i] * a[q, j], g[p][q]) for p, q in pairs]) for j in range(d)]
                   for i in range(d)],
        "f": [[combo([(a_inv[i, p] * a[q, j], f[p][q]) for p, q in pairs]) for j in range(d)] for i in range(d)],
        "xi": [combo([(a_inv[i, p], xi[p]) for p in range(d)]) for i in range(d)],
    }


def test_dense_chart_gives_the_same_verdicts():
    """sasakian-r5 after a fixed linear change of coordinates: a dense d eta,
    so W = e^T (d eta) e is dense too, and the same checks pass, fail or skip."""
    a = np.eye(5) + 0.4 * np.random.default_rng(3).standard_normal((5, 5))
    dense = WeakACM(load_structure_def(_linear_chart(document("sasakian-r5"), a)))
    plain = WeakACM(catalog("sasakian-r5"))
    st = dense.at(np.full(5, 0.3))
    assert np.all(st.deta_form[0][np.triu_indices(5, 1)] != 0.0)
    assert abs(st.contact_volume) == pytest.approx(abs(plain.at(a @ st.points[0]).contact_volume), rel=1e-10)
    a_rep, b_rep = (evaluate(s, "all", points_for(s, count=6)) for s in (dense, plain))
    assert [(c.id, c.verdict) for c in a_rep.checks] == [(c.id, c.verdict) for c in b_rep.checks]


def test_direction_set_deterministic(sasakian_r3):
    point = np.array([0.3, 0.3, 0.3])
    a, fa = sasakian_r3.at(point, seed=7).directions
    b, fb = sasakian_r3.at(point, seed=7).directions  # a fresh state
    assert a.shape == (1, 3, 3 + 8)
    assert np.array_equal(a, b) and np.array_equal(fa, fb)
    c, _ = sasakian_r3.at(point, seed=8).directions
    assert not np.array_equal(a, c)


def test_tolerances_as_dict():
    # the tiers in field order: the --tol-* options and the report's "tol"
    assert asdict(Tolerances()) == {"algebraic": 1e-10, "deriv": 1e-9, "curv": 1e-8}
    assert list(asdict(Tolerances())) == ["algebraic", "deriv", "curv"]
