import numpy as np
import pytest

from wqcm.catalog import PARAMETERS, catalog, keys
from wqcm.structure import WeakACM
from wqcm.suites import evaluate
from conftest import points_for


def test_keys_listing():
    assert keys() == ["sasakian-r3", "sasakian-r5", "sasakian-r7", "scaled", "flat-const"]
    for key in keys():
        sdef = catalog(key, s=2.0) if key == "scaled" else catalog(key)
        assert sdef.dim == 2 * sdef.n + 1


@pytest.mark.parametrize("s", [0.5, 2.0, 3.0])
def test_scaled_family_satisfies_axioms(s):
    acm = WeakACM(catalog("scaled", n=1, s=s))
    rep = evaluate(acm, "validate", points_for(acm, count=6))
    assert not rep.failed, [c.id for c in rep.checks if c.verdict == "fail"]


@pytest.mark.parametrize("s", [0.5, 2.0, 3.0])
def test_scaled_canonical_quasi_residual(s):
    acm = WeakACM(catalog("scaled", n=1, s=s))
    rep = {c.id: c for c in evaluate(acm, "classify", points_for(acm, count=4)).checks}
    expected = abs(s + s**3 - 2.0)
    assert rep["quasi-canonical-direction"].max_residual == pytest.approx(expected, abs=1e-6)


def test_scaled_s1_matches_sasakian(sasakian_r3):
    scaled1 = WeakACM(catalog("scaled", n=1, s=1.0))
    a = evaluate(scaled1, "classify", points_for(scaled1, count=6))
    b = evaluate(sasakian_r3, "classify", points_for(sasakian_r3, count=6))
    assert [c.id for c in a.checks] == [c.id for c in b.checks]
    for u, v in zip(a.checks, b.checks):
        assert u.verdict == v.verdict, u.id


def test_sasakian_higher_dimensions():
    for key, dim in (("sasakian-r5", 5), ("sasakian-r7", 7)):
        acm = WeakACM(catalog(key))
        assert acm.dim == dim
        st = acm.at(np.zeros(dim))
        assert np.allclose(st.Q, np.eye(dim), atol=1e-12)
        assert np.allclose(st.deta_form, st.Phi, atol=1e-12)


def test_flat_const_is_not_contact():
    acm = WeakACM(catalog("flat-const"))
    st = acm.at(np.array([0.3, -0.2, 0.5]))
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
