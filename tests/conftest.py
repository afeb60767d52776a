import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from wqcm.catalog import catalog, document
from wqcm.exprdsl import compile_tape, eval_tape
from wqcm.structure import PointState
from wqcm.suites import sample_points


@pytest.fixture(scope="session")
def sasakian_r3():
    return catalog("sasakian-r3")


@pytest.fixture(scope="session")
def sasakian_r5():
    return catalog("sasakian-r5")


@pytest.fixture(scope="session")
def scaled2():
    return catalog("scaled", n=1, s=2.0)


@pytest.fixture(scope="session")
def flat_const():
    return catalog("flat-const")


def points_for(sdef, count: int = 8, seed: int = 7):
    return sample_points(count, seed, sdef.domain)


def sasakian_r3_edited():
    """The curved sasakian-r3 metric with a xi and an f that vary from point
    to point: every term of L_xi g and of h contributes."""
    doc = document("sasakian-r3")
    doc["xi"] = ["y1 * z", "x1 + z^2", "2 + sin(x1)"]
    doc["f"] = [["x1 * y1", "1 + z", "y1"], ["-1 - z", "0", "cos(z)"], ["x1^2", "-y1", "z * x1"]]
    return doc


def state_at(sdef, point) -> PointState:
    """The state of P = 1 at `point`, from jets of order 2; raises the tape's error there."""
    points = np.asarray(point, dtype=float)[None]
    return PointState(points, eval_tape(sdef.tape, points, 2))


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


def load_script(path: Path):
    """The script at `path`, executed as a module named after its file, read-only:
    no bytecode is written next to it.  The module is in `sys.modules` only
    while it runs, where the dataclasses of a module look it up."""
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
        del sys.modules[spec.name]
    return module
