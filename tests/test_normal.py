"""`wqcm._normal.standard_normal` is numpy's `default_rng(seed).standard_normal`,
bit for bit: the guard directions of the checks come from it, and the
pinned reports of `tests/data` were written with numpy's own generator."""

import math
import random
import types

import numpy as np
import pytest

from wqcm import _normal

# entropy of 1 (0 and 2**32 - 1), 2, 3, 4, 5 and 6 32-bit words
EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 + 5, 10**30, 2**128 + 1, 2**160 + 3, 10**50]


def numpy_bytes(seed, count):
    return np.random.default_rng(seed).standard_normal(count).tobytes()


def our_bytes(seed, count):
    return np.array(_normal.standard_normal(seed, count), dtype=float).tobytes()


@pytest.mark.parametrize("seed", EDGE_SEEDS)
@pytest.mark.parametrize("count", [0, 1, 56, 1000])
def test_edge_seeds_match_numpy(seed, count):
    assert our_bytes(seed, count) == numpy_bytes(seed, count)


def test_many_seeds_match_numpy():
    """56 draws (one point of a 7-dimensional chart) at 2,000 seeds of every
    size up to 4 words, and at seeds of the form `PointState.directions` uses."""
    rnd = random.Random(20261020)
    seeds = [rnd.getrandbits(rnd.choice([8, 31, 32, 33, 64, 96, 128])) for _ in range(2000)]
    seeds += [7 * 1_000_003 + rnd.randrange(1_000_003) for _ in range(100)]
    assert [s for s in seeds if our_bytes(s, 56) != numpy_bytes(s, 56)] == []


def test_a_negative_seed_is_refused_as_numpy_refuses_it():
    with pytest.raises(ValueError):
        np.random.default_rng(-1)
    with pytest.raises(ValueError, match="seed must be at least 0, got -1"):
        _normal.standard_normal(-1, 1)


def recording_math(monkeypatch):
    """Replaces the `math` the generator calls by one that records the
    arguments of `log1p` (the tail) and `exp` (the wedge)."""
    calls = {"log1p": [], "exp": []}

    def recorded(name):
        def call(x):
            calls[name].append(x)
            return getattr(math, name)(x)

        return call

    monkeypatch.setattr(_normal, "math", types.SimpleNamespace(log1p=recorded("log1p"), exp=recorded("exp")))
    return calls


# Seeds whose first 56 draws reach each slow path of the ziggurat
BRANCH_SEEDS = {"wedge-accept": 1, "wedge-reject": 4, "tail": 187, "tail-retry": 1121}


@pytest.mark.parametrize("branch", sorted(BRANCH_SEEDS))
def test_each_slow_path_is_reached_and_matches_numpy(monkeypatch, branch):
    seed = BRANCH_SEEDS[branch]
    calls = recording_math(monkeypatch)
    out = _normal.standard_normal(seed, 56)
    assert np.array(out).tobytes() == numpy_bytes(seed, 56)
    # a tail sample lies beyond r, and every other one below it; each try
    # at the tail takes two logarithms
    tails = sum(abs(x) > _normal._R for x in out)
    # a wedge test exponentiates -x^2 / 2 of the x it accepts or rejects
    wedge = {-0.5 * x * x for x in out}
    reached = {
        "tail": tails > 0 and len(calls["log1p"]) == 2 * tails,
        "tail-retry": len(calls["log1p"]) > 2 * tails > 0,
        "wedge-accept": any(a in wedge for a in calls["exp"]),
        "wedge-reject": any(a not in wedge for a in calls["exp"]),
    }
    assert reached[branch], (branch, calls, tails)
