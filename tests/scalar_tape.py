"""The scalar jet tape: a reference for `wqcm.exprdsl.eval_tape`.

It runs a tape at one point with the value of each slot as a Python float,
so a zero division, a `sqrt` domain error or an overflow raises where
scalar float arithmetic raises.  `eval_tape` runs the same instructions
over a block of points; `test_exprdsl.py` checks that both raise at the same
points with the same error and agree everywhere else.
"""

import math

import numpy as np

from wqcm.exprdsl import Tape


def _chain(g, h, f0: float, f1: float, f2: float):
    """Compose a jet (g, h) with a scalar function given its value and derivatives."""
    return f0, f1 * g, f1 * h + f2 * np.multiply.outer(g, g)


def _mul(va, ga, ha, vb, gb, hb):
    cross = np.multiply.outer(ga, gb)
    return va * vb, va * gb + vb * ga, va * hb + vb * ha + (cross + cross.T)


def scalar_eval_tape(tape: Tape, point) -> dict[str, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Run the tape once at a point -> {field: (v, dv, ddv)} with
    dv[k, ...] = d_k v and ddv[k, l, ...] = d_k d_l v."""
    point = np.asarray(point, dtype=float)
    d = point.shape[0]
    zero_g, zero_h = np.zeros(d), np.zeros((d, d))
    val: list[float] = []
    grad: list[np.ndarray] = []
    hess: list[np.ndarray] = []
    for op, a, b in tape.code:
        if op == "num":
            jet = float(a), zero_g, zero_h
        elif op == "var":
            g = np.zeros(d)
            g[a] = 1.0
            jet = float(point[a]), g, zero_h
        elif op == "neg":
            jet = -val[a], -grad[a], -hess[a]
        elif op == "+":
            jet = val[a] + val[b], grad[a] + grad[b], hess[a] + hess[b]
        elif op == "-":
            jet = val[a] - val[b], grad[a] - grad[b], hess[a] - hess[b]
        elif op == "*":
            jet = _mul(val[a], grad[a], hess[a], val[b], grad[b], hess[b])
        elif op == "/":  # a times the reciprocal of b
            v = val[b]
            if v == 0.0:
                raise ZeroDivisionError("jet division by zero value")
            inv = _chain(grad[b], hess[b], 1.0 / v, -1.0 / (v * v), 2.0 / (v * v * v))
            jet = _mul(val[a], grad[a], hess[a], *inv)
        elif op == "^":
            v, k = val[a], b
            if k == 0:
                jet = 1.0, zero_g, zero_h
            elif k < 0 and v == 0.0:
                raise ZeroDivisionError("negative power of zero jet value")
            else:
                f2 = 0.0 if k == 1 else k * (k - 1) * v ** (k - 2)
                jet = _chain(grad[a], hess[a], v**k, k * v ** (k - 1), f2)
        elif op == "sqrt":
            v = val[a]
            if v <= 0.0:
                raise ValueError(f"sqrt of non-positive jet value {v}")
            r = math.sqrt(v)
            jet = _chain(grad[a], hess[a], r, 0.5 / r, -0.25 / (r * v))
        elif op == "exp":
            e = math.exp(val[a])
            jet = _chain(grad[a], hess[a], e, e, e)
        elif op == "sin":
            s, c = math.sin(val[a]), math.cos(val[a])
            jet = _chain(grad[a], hess[a], s, c, -s)
        else:  # cos
            s, c = math.sin(val[a]), math.cos(val[a])
            jet = _chain(grad[a], hess[a], c, -s, -c)
        val.append(jet[0])
        grad.append(jet[1])
        hess.append(jet[2])

    out = {}
    for name, (slots, shape) in tape.fields.items():
        v = np.array([val[i] for i in slots]).reshape(shape)
        dv = np.stack([grad[i] for i in slots], axis=-1).reshape((d,) + shape)
        ddv = np.stack([hess[i] for i in slots], axis=-1).reshape((d, d) + shape)
        out[name] = v, dv, ddv
    return out
