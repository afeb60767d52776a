import numpy as np
import pytest

from wqcm.exprdsl import load_structure_def
from wqcm.structure import WeakACM, contact_volume, f_basis
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
    st = acm.at(point)
    fb = f_basis(st)
    assert len(fb.e) == acm.n
    for e, fe, lam in zip(fb.e, fb.fe, fb.lam):
        assert lam > 0.0
        assert st.gnorm(e) == pytest.approx(1.0, abs=tol)
        assert st.gnorm(st.Q @ e - lam * e) < tol  # eigenvector
        assert st.gdot(fe, fe) == pytest.approx(lam, abs=tol)
        assert abs(st.eta @ e) < tol and abs(st.eta @ fe) < tol
    vecs = fb.vectors()
    for a in range(len(vecs)):
        for b in range(a + 1, len(vecs)):
            assert abs(st.gdot(vecs[a], vecs[b])) < tol
    assert np.trace(st.Q) == pytest.approx(1.0 + 2.0 * sum(fb.lam), abs=tol)
    return fb


def test_f_basis_on_fixtures(sasakian_r3, sasakian_r5, scaled2, flat_const):
    for acm in (sasakian_r3, sasakian_r5, scaled2, flat_const):
        for point in points_for(acm, count=4):
            fb = check_f_basis_invariants(acm, point)
    fb = check_f_basis_invariants(scaled2, np.zeros(3))
    assert fb.lam == pytest.approx((4.0,), abs=1e-12)


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
    fb = check_f_basis_invariants(acm, np.zeros(5))
    assert fb.lam == pytest.approx((1.0, 4.0), abs=1e-12)
    # smallest eigenvalue comes first
    assert fb.lam[0] < fb.lam[1]


def test_f_basis_deterministic(sasakian_r5):
    point = np.array([0.2, -0.3, 0.4, 0.1, -0.2])
    a = f_basis(sasakian_r5.at(point))
    b = f_basis(sasakian_r5.at(point))
    for u, v in zip(a.vectors(), b.vectors()):
        assert np.array_equal(u, v)


def test_contact_volume_values(sasakian_r3, sasakian_r5, scaled2, flat_const):
    p3 = np.array([0.15, -0.4, 0.3])
    base = contact_volume(sasakian_r3.at(p3))
    assert abs(base) > 1e-6
    assert abs(contact_volume(sasakian_r5.at(np.array([0.1, 0.2, -0.1, 0.3, 0.0])))) > 1e-6
    assert abs(contact_volume(flat_const.at(p3))) < 1e-12
    # f-basis vectors rescale with s, so the volume scales by s^n
    assert scaled2.at(p3).contact_volume == pytest.approx(2.0 * base, abs=1e-9)


def test_direction_set_deterministic(sasakian_r3):
    point = np.array([0.3, 0.3, 0.3])
    a, fa = sasakian_r3.at(point, seed=7).directions
    b, fb = sasakian_r3.at(point, seed=7).directions  # a fresh state
    assert a.shape == (3, 3 + 8)
    assert np.array_equal(a, b) and np.array_equal(fa, fb)
    c, _ = sasakian_r3.at(point, seed=8).directions
    assert not np.array_equal(a, c)


def test_tolerances_as_dict():
    t = Tolerances()
    assert t.as_dict() == {"algebraic": 1e-10, "deriv": 1e-9, "curv": 1e-8}
