import numpy as np
import pytest

from wqcm.catalog import catalog
from wqcm.exprdsl import compile_tape, eval_tape
from wqcm.structure import WeakACM
from wqcm.suites import SamplePlan, sample_points


@pytest.fixture(scope="session")
def sasakian_r3():
    return WeakACM(catalog("sasakian-r3"))


@pytest.fixture(scope="session")
def sasakian_r5():
    return WeakACM(catalog("sasakian-r5"))


@pytest.fixture(scope="session")
def scaled2():
    return WeakACM(catalog("scaled", n=1, s=2.0))


@pytest.fixture(scope="session")
def flat_const():
    return WeakACM(catalog("flat-const"))


def points_for(acm: WeakACM, count: int = 8, seed: int = 7):
    return sample_points(SamplePlan(count=count, seed=seed), acm.sdef.domain)


def eval_at(tape, point):
    """{field: (v, dv, ddv)} of a tape at one point (a chunk of one); raises
    the tape's error there."""
    fields = eval_tape(tape, np.asarray(point, dtype=float)[None], 2)
    return {name: tuple(a[0] for a in arrays) for name, arrays in fields.items()}


def jet_at(text, point, coords=("x", "y", "z")):
    """(value, gradient, Hessian) of one expression at a point, through a tape."""
    return eval_at(compile_tape({"e": text}, coords), point)["e"]


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
