"""Shared test helpers.

They live outside ``conftest.py`` because ``perfbench/tests`` has a
``conftest.py`` of its own: with both on the test path, ``import conftest``
would resolve to whichever pytest loaded last.
"""
import math

import numpy as np


def random_type(rng, reg_dims, max_depth=4, max_systems=10):
    """Seeded random type over fresh labels; returns (TypeExpr, registry).

    reg_dims is the pool of dimensions to draw from (e.g. (2, 3)).
    """
    from hoq import Arrow, BistochElem, SystemString, SystemRegistry

    counter = [0]
    dims = {}

    def fresh(dim):
        counter[0] += 1
        lab = f"S{counter[0]}"
        dims[lab] = dim
        return lab

    def build(depth):
        budget = max_systems - counter[0]
        if depth >= max_depth or budget <= 2 or rng.random() < 0.35:
            if budget < 2 or rng.random() < 0.5:
                n = 1 + (rng.random() < 0.3 and budget >= 2)
                return SystemString(tuple(fresh(int(rng.choice(reg_dims))) for _ in range(n)))
            d = int(rng.choice(reg_dims))
            in_tail = (fresh(int(rng.choice(reg_dims))),) if budget >= 4 and rng.random() < 0.3 else ()
            out_tail = (fresh(int(rng.choice(reg_dims))),) if budget >= 4 and rng.random() < 0.3 else ()
            return BistochElem(fresh(d), in_tail, fresh(d), out_tail)
        return Arrow(build(depth + 1), build(depth + 1))

    t = build(0)
    return t, SystemRegistry.from_dict(dims)


# (row, column, value) of the one bad entry in a 4-dim identity event; only
# "nan_imaginary" has a non-zero imaginary part, so the others are checked in
# real arithmetic
NON_FINITE = {"nan_off_diagonal": (0, 1, np.nan), "inf_on_diagonal": (2, 2, np.inf),
              "nan_on_diagonal": (3, 3, np.nan), "minus_inf_off_diagonal": (1, 3, -np.inf),
              "nan_imaginary": (0, 1, complex(0.0, np.nan))}


def non_finite_operator(where):
    """Identity event of (^A -> ^B) over A = B = 2 with one non-finite entry."""
    from hoq import LabeledOperator

    row, col, value = NON_FINITE[where]
    data = np.eye(4, dtype=complex) / 2
    data[row, col] = value
    return LabeledOperator((("A", 2), ("B", 2)), data)


def _identity_average(tens, dims, i):
    """Replace factor ``i`` of a (rows+cols)-indexed tensor by Tr/d (x) 1."""
    d = dims[i]
    left = math.prod(dims[:i])
    right = math.prod(dims[i + 1:])
    t = tens.reshape(left, d, right, left, d, right)
    partial = t[:, 0, :, :, 0, :].copy()
    for a in range(1, d):
        partial += t[:, a, :, :, a, :]
    partial /= d
    out = np.zeros_like(t)
    for a in range(d):
        out[:, a, :, :, a, :] = partial
    return out.reshape(tens.shape)


def reference_component(op, marks):
    """Matrix of the component of ``op`` on the sector pattern ``marks``.

    An oracle independent of ``hoq.sectors``: factor by factor, the identity
    average Tr/d (x) 1 is kept for an "I" mark and subtracted for a "T" mark,
    each on a full-size array.
    """
    data = op.data
    for i, mark in enumerate(marks):
        avg = _identity_average(data, op.dims, i)
        data = avg if mark == "I" else data - avg
    return data
