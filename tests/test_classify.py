from dataclasses import asdict
from itertools import permutations

import numpy as np
import pytest

from wqcm.catalog import catalog
from wqcm.exprdsl import load_structure_def
from wqcm.structure import WeakACM
from wqcm.suites import Tolerances, evaluate
from conftest import points_for


def residuals(report):
    return {c.id: c.max_residual for c in report.checks}


def classes(acm, points):
    return {c.id: c for c in evaluate(acm, "classify", points).checks}


def test_axioms_pass_on_all_fixtures(sasakian_r3, sasakian_r5, scaled2, flat_const):
    for acm in (sasakian_r3, sasakian_r5, scaled2, flat_const):
        points = points_for(acm)
        rep = evaluate(acm, "validate", points)
        assert not rep.failed, (acm.name, residuals(rep))
        assert min(acm.at(p).q_spectrum[0] for p in points) > 0.0
        assert max(residuals(rep).values()) < 1e-12
        sv = np.sort(acm.at(points[-1]).f_singular_values)
        assert sv[0] < 1e-6 and all(v > 1e-4 for v in sv[1:])


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


def check_f_basis_invariants(acm, point, tol=1e-9):
    """The eigenvalues of the f-basis at `point`, after checking its invariants."""
    st = acm.at(point)
    basis, lam = st.fbasis
    assert basis.shape == (acm.dim, acm.dim) and lam.shape == (acm.n,)
    assert np.array_equal(basis[:, 0], st.xi)
    for e, fe, lam_i in zip(basis[:, 1::2].T, basis[:, 2::2].T, lam):
        assert lam_i > 0.0
        assert st.gnorm(e) == pytest.approx(1.0, abs=tol)
        assert st.gnorm(st.Q @ e - lam_i * e) < tol  # eigenvector
        assert st.gnorm(fe - st.f @ e) < tol
        assert fe @ st.g @ fe == pytest.approx(lam_i, abs=tol)
        assert abs(st.eta @ e) < tol and abs(st.eta @ fe) < tol
    gram = basis.T @ st.g @ basis
    assert np.max(np.abs(gram - np.diag(np.diag(gram)))) < tol  # pairwise g-orthogonal
    assert np.trace(st.Q) == pytest.approx(1.0 + 2.0 * sum(lam), abs=tol)
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


def test_contact_volume_values(sasakian_r3, sasakian_r5, scaled2, flat_const):
    p3 = np.array([0.15, -0.4, 0.3])
    base = sasakian_r3.at(p3).contact_volume
    assert abs(base) > 1e-6
    assert abs(sasakian_r5.at(np.array([0.1, 0.2, -0.1, 0.3, 0.0])).contact_volume) > 1e-6
    assert abs(flat_const.at(p3).contact_volume) < 1e-12
    # f-basis vectors rescale with s, so the volume scales by s^n
    assert scaled2.at(p3).contact_volume == pytest.approx(2.0 * base, abs=1e-9)


def _alternating_sum(eta, deta, v):
    """eta ^ (d eta)^n on the columns of v, by its definition: 2^-n times the
    sum over all permutations s of sgn(s) eta(v_s0) prod_k d eta(v_s(2k-1), v_s(2k)),
    with d eta(x, y) = x^T deta y."""
    d = v.shape[1]
    total = 0.0
    for perm in permutations(range(d)):
        sign = (-1.0) ** sum(perm[a] > perm[b] for a in range(d) for b in range(a + 1, d))
        term = sign * (eta @ v[:, perm[0]])
        for k in range(1, d, 2):
            term *= v[:, perm[k]] @ deta @ v[:, perm[k + 1]]
        total += term
    return total / 2.0 ** (d // 2)


def test_contact_volume_matches_its_definition():
    for key, params in [(k, {}) for k in ("sasakian-r3", "sasakian-r5", "sasakian-r7", "flat-const")] + [
        ("scaled", {"n": 1, "s": 2.0}), ("scaled", {"n": 3, "s": 2.0}),
    ]:
        acm = WeakACM(catalog(key, **params))
        for point in points_for(acm, count=4):
            st = acm.at(point)
            expected = _alternating_sum(st.eta, st.deta_form, st.fbasis[0])
            assert abs(st.contact_volume - expected) <= 1e-12 * abs(expected), (acm.name, point)


def test_direction_set_deterministic(sasakian_r3):
    point = np.array([0.3, 0.3, 0.3])
    a, fa = sasakian_r3.at(point, seed=7).directions
    b, fb = sasakian_r3.at(point, seed=7).directions  # a fresh state
    assert a.shape == (3, 3 + 8)
    assert np.array_equal(a, b) and np.array_equal(fa, fb)
    c, _ = sasakian_r3.at(point, seed=8).directions
    assert not np.array_equal(a, c)


def test_tolerances_as_dict():
    # the tiers in field order: the --tol-* options and the report's "tol"
    assert asdict(Tolerances()) == {"algebraic": 1e-10, "deriv": 1e-9, "curv": 1e-8}
    assert list(asdict(Tolerances())) == ["algebraic", "deriv", "curv"]
