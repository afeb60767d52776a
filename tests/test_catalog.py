import inspect
from collections import Counter

import numpy as np
import pytest

import wqcm.catalog as cat
from wqcm.catalog import PARAMETERS, catalog, keys
from wqcm.exprdsl import StructureDef, compile_tape, eval_tape, load_structure_def
from wqcm.suites import evaluate
from conftest import points_for, state_at


def test_keys_listing():
    assert keys() == ["sasakian-r3", "sasakian-r5", "sasakian-r7", "scaled", "flat-const"]
    for key in keys():
        sdef = catalog(key, s=2.0) if key == "scaled" else catalog(key)
        assert sdef.dim == 2 * sdef.n + 1


@pytest.mark.parametrize("s", [0.5, 2.0, 3.0])
def test_scaled_family_satisfies_axioms(s):
    sdef = catalog("scaled", n=1, s=s)
    rep = evaluate(sdef, "validate", 6, 7)
    assert not rep.failed, [c.id for c in rep.checks if c.verdict == "fail"]


@pytest.mark.parametrize("s", [0.5, 2.0, 3.0])
def test_scaled_canonical_quasi_residual(s):
    sdef = catalog("scaled", n=1, s=s)
    rep = {c.id: c for c in evaluate(sdef, "classify", 4, 7).checks}
    expected = abs(s + s**3 - 2.0)
    assert rep["quasi-canonical-direction"].max_residual == pytest.approx(expected, abs=1e-6)


def test_scaled_s1_matches_sasakian(sasakian_r3):
    scaled1 = catalog("scaled", n=1, s=1.0)
    a = evaluate(scaled1, "classify", 6, 7)
    b = evaluate(sasakian_r3, "classify", 6, 7)
    assert [c.id for c in a.checks] == [c.id for c in b.checks]
    for u, v in zip(a.checks, b.checks):
        assert u.verdict == v.verdict, u.id


def test_sasakian_higher_dimensions():
    for key, dim in (("sasakian-r5", 5), ("sasakian-r7", 7)):
        sdef = catalog(key)
        assert sdef.dim == dim
        st = state_at(sdef, np.zeros(dim))
        assert np.allclose(st.Q, np.eye(dim), atol=1e-12)
        assert np.allclose(st.deta_form, st.Phi, atol=1e-12)


def test_flat_const_is_not_contact():
    sdef = catalog("flat-const")
    st = state_at(sdef, np.array([0.3, -0.2, 0.5]))
    assert np.max(np.abs(st.deta_form)) == 0.0
    assert np.max(np.abs(st.Phi)) == 1.0


@pytest.mark.parametrize(
    "call",
    [
        lambda: catalog("nope"),
        lambda: catalog("sasakian-r4"),
        lambda: catalog("sasakian-r2"),
        # only the canonical decimal spelling names a dimension
        lambda: catalog("sasakian-rx"),
        lambda: catalog("sasakian-r"),
        lambda: catalog("sasakian-r03"),
        # past the catalog cap
        lambda: catalog("sasakian-r99"),
    ],
)
def test_unknown_keys(call):
    with pytest.raises(ValueError, match="unknown catalog key"):
        call()


def test_parameter_validation():
    with pytest.raises(ValueError):
        catalog("scaled")  # s is required
    with pytest.raises(ValueError):
        catalog("scaled", s=-1.0)
    for s in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="s must be a finite positive number"):
            catalog("scaled", s=s)
    with pytest.raises(ValueError):
        catalog("scaled", n=9, s=2.0)


def test_keys_without_parameters_reject_them():
    for key in (k for k in keys() if k not in PARAMETERS):
        for params in ({"n": 3}, {"s": 2.0}, {"n": 1, "s": 1.0}):
            with pytest.raises(ValueError, match="takes no parameters"):
                catalog(key, **params)
        assert catalog(key, n=1, s=None).name == key


# -- frame data ------------------------------------------------------------------

FRAME_CASES = [pytest.param(key, {}, id=key) for key in ("sasakian-r3", "sasakian-r5", "sasakian-r7", "flat-const")]
FRAME_CASES += [pytest.param("scaled", {"n": n, "s": 2.0}, id=f"scaled-n{n}") for n in (1, 2, 3)]


def frame_data(monkeypatch, key: str, params: dict) -> dict:
    """The arguments with which `document` calls the frame builder."""
    calls, build = [], cat._frame_doc

    def spy(*args, **kwargs):
        calls.append(inspect.signature(build).bind(*args, **kwargs).arguments)
        return build(*args, **kwargs)

    monkeypatch.setattr(cat, "_frame_doc", spy)
    cat.document(key, **params)
    (data,) = calls
    return data


def inverse_defect(coords, coframe, frame, points) -> float:
    """max |theta E - id| over the points, the cells run through a tape."""
    fields = eval_tape(compile_tape({"coframe": coframe, "frame": frame}, coords), points, 1)
    return float(np.max(np.abs(fields["coframe"][0] @ fields["frame"][0] - np.eye(len(coords)))))


@pytest.mark.parametrize("key, params", FRAME_CASES)
def test_frame_is_the_inverse_of_the_coframe(monkeypatch, key, params):
    points = points_for(catalog(key, **params))
    data = frame_data(monkeypatch, key, params)
    assert inverse_defect(data["coords"], data["coframe"], data["frame"], points) <= 1e-12
    # a wrong inverse fails: the first nonzero cell of the frame's last row with its sign flipped
    wrong = [list(row) for row in data["frame"]]
    j = next(j for j, cell in enumerate(wrong[-1]) if cell != "0")
    wrong[-1][j] = f"-({wrong[-1][j]})"
    assert inverse_defect(data["coords"], data["coframe"], wrong, points) > 0.1


# Two left-invariant contact metric structures in the chart (x, y, t), built
# by the same frame builder as the catalog: E(2), whose h is not 0, and the
# Heisenberg group, its Sasakian control.  Each is (coords, coframe, frame, G,
# F, xi), with xi = 2 E_1.


def e2_frame(a: float) -> tuple:
    """The coframe rotated by t, G = diag(1/4, a, 1/(16 a)), F^2_3 = -1/(4 a)
    and F^3_2 = 4 a; flat at a = 1/4."""
    rot = [["cos(t)", "sin(t)", "0"], ["-sin(t)", "cos(t)", "0"], ["0", "0", "1"]]
    G = [[repr(0.25), "0", "0"], ["0", repr(a), "0"], ["0", "0", repr(1 / (16 * a))]]
    F = [["0", "0", "0"], ["0", "0", repr(-1 / (4 * a))], ["0", repr(4 * a), "0"]]
    return ["x", "y", "t"], rot, [list(col) for col in zip(*rot)], G, F, ["2", "0", "0"]


def heisenberg_frame() -> tuple:
    """The coframe dx - t dy, dy, dt, G = id/4, F^2_3 = 1 and F^3_2 = -1."""
    coframe = [["1", "-t", "0"], ["0", "1", "0"], ["0", "0", "1"]]
    frame = [["1", "t", "0"], ["0", "1", "0"], ["0", "0", "1"]]
    G = [["1/4", "0", "0"], ["0", "1/4", "0"], ["0", "0", "1/4"]]
    return ["x", "y", "t"], coframe, frame, G, [["0", "0", "0"], ["0", "0", "1"], ["0", "-1", "0"]], ["2", "0", "0"]


def frame_structure(name: str, data: tuple) -> StructureDef:
    sdef = load_structure_def(cat._frame_doc(name, *data))
    assert inverse_defect(*data[:3], points_for(sdef)) <= 1e-12
    return sdef


@pytest.mark.parametrize("a, h_max", [(0.25, 1.0), (0.125, 0.5)])
def test_e2_is_contact_metric_but_not_k_contact(a, h_max):
    sdef = frame_structure(f"e2-a{a}", e2_frame(a))
    report = evaluate(sdef, "all", 32, 7)
    # the skipped rows are the hypotheses of Theorems 3.1 and 3.3-3.5 and of Prop 3.3, and what they gate
    assert not report.failed and Counter(c.verdict for c in report.checks) == {"pass": 38, "skipped": 22}
    failed = [c.id for c in evaluate(sdef, "classify", 32, 7).checks if c.verdict == "fail"]
    assert failed == ["normal", "sasakian", "nearly-sasakian", "killing-xi", "k-contact"]
    for point in points_for(sdef, count=32):
        st = state_at(sdef, point)
        assert np.max(np.abs(st.h)) == pytest.approx(h_max, abs=1e-12)
        assert np.max(np.abs(st.Q - np.eye(3))) <= 4.5e-16


def test_heisenberg_frame_is_sasakian():
    sdef = frame_structure("heisenberg", heisenberg_frame())
    report = evaluate(sdef, "all", 32, 7)
    assert not report.failed and Counter(c.verdict for c in report.checks) == {"pass": 58, "skipped": 2}
    classes = evaluate(sdef, "classify", 32, 7).checks
    assert len(classes) == 9 and all(c.verdict == "pass" for c in classes)


# D-homothety by a > 0: g' = a g + a(a - 1) eta (x) eta, xi' = xi / a and f
# unchanged keep a structure Sasakian.  In the Heisenberg frame of the
# catalog eta = theta^z / 2, so G' = diag(a/4, ..., a/4, a^2/4) and xi' = (2/a) E_z.


def d_homothetic(monkeypatch, key: str, a: float, xi_z: float) -> StructureDef:
    """The built-in `key` with G' = diag(a/4, ..., a/4, a^2/4), F unchanged and xi' = xi_z E_z."""
    data = frame_data(monkeypatch, key, {})
    dim = len(data["coords"])
    G = [[repr(a / 4) if i == j else "0" for j in range(dim)] for i in range(dim)]
    G[-1][-1] = repr(a * a / 4)
    xi = ["0"] * (dim - 1) + [repr(xi_z)]
    return load_structure_def(cat._frame_doc(**{**data, "name": f"{key}-a{a}", "G": G, "xi": xi}))


@pytest.mark.parametrize("a", [3.0, 0.25])
@pytest.mark.parametrize("key", ["sasakian-r3", "sasakian-r5"])
def test_d_homothety_keeps_sasakian_verdicts(monkeypatch, key, a):
    sdef = d_homothetic(monkeypatch, key, a, 2 / a)
    report = evaluate(sdef, "all", 16, 7)
    assert not report.failed and Counter(c.verdict for c in report.checks) == {"pass": 58, "skipped": 2}
    classes = evaluate(sdef, "classify", 16, 7).checks
    assert len(classes) == 9 and all(c.verdict == "pass" for c in classes)


def test_d_homothety_without_rescaled_xi_fails_eta_normalization(monkeypatch):
    """With xi' left at 2 E_z, eta'(xi') = a^2."""
    sdef = d_homothetic(monkeypatch, "sasakian-r3", 3.0, 2.0)
    rows = {c.id: c for c in evaluate(sdef, "validate", 16, 7).checks}
    assert rows["eta-normalization"].verdict == "fail"
