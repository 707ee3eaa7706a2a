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


def reference_partial_trace(data, dims, traced):
    """Partial trace of a row-major matrix over the factor positions ``traced``.

    An oracle independent of ``hoq.linalg``: one ``np.einsum`` over the
    2k-axis tensor that gives each traced factor the same row and column
    index.
    """
    k = len(dims)
    rows = "abcdefghijklm"[:k]
    cols = "".join(rows[i] if i in traced else "nopqrstuvwxyz"[i] for i in range(k))
    kept = [i for i in range(k) if i not in traced]
    out = "".join(rows[i] for i in kept) + "".join(cols[i] for i in kept)
    size = math.prod(dims[i] for i in kept)
    return np.einsum(f"{rows}{cols}->{out}", data.reshape(tuple(dims) * 2)).reshape(size, size)


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


def mask_of(marks):
    """Bitmask of a pattern given as "I"/"T" marks: bit ``i`` set for a "T"."""
    return sum(1 << i for i, mark in enumerate(marks) if mark == "T")


def marks_of(mask, k):
    """The "I"/"T" marks of a pattern bitmask over ``k`` factors."""
    return tuple("T" if mask >> i & 1 else "I" for i in range(k))


def converted(payload):
    """Factors and matrix bytes of an operator payload as ``json.loads`` gives
    it, the matrix converted whole by numpy: the reference for the reader."""
    matrix = np.array(payload["matrix"], dtype=np.float64).view(np.complex128)[..., 0]
    return tuple((lab, d) for lab, d in payload["factors"]), matrix.tobytes()


def max_entangled(label_a, label_b, d):
    """The unnormalized maximally entangled projector between two factors."""
    from hoq import LabeledOperator

    v = np.eye(d).reshape(-1)
    return LabeledOperator(((label_a, d), (label_b, d)), np.outer(v, v))


def apply_choi(m, in_labels, state):
    """Apply the map with Choi operator ``m`` to ``state`` on ``in_labels``."""
    from hoq.linalg import link_product, relabel

    return link_product(relabel(state, dict(zip(state.labels, in_labels))), m)


def bistoch_type_of(op, in_tail=(), out_tail=()):
    """The bidirectional elementary type on a Choi's factors: the two factors
    outside the named tails are the exchangeable pair, in factor order."""
    from hoq import BistochElem

    hats = [lab for lab in op.labels if lab not in set(in_tail) | set(out_tail)]
    assert len(hats) == 2, hats
    return BistochElem(hats[0], tuple(in_tail), hats[1], tuple(out_tail))


def reference_time_flip(d):
    """The direction flip from its defining index loop, on ``Pt, Pc, A, B, Ft, Fc``."""
    from hoq import LabeledOperator

    v = np.zeros((d, 2, d, d, d, 2), dtype=complex)
    for m in range(d):
        for n in range(d):
            v[m, 0, m, n, n, 0] += 1.0  # forward branch
            v[m, 1, n, m, n, 1] += 1.0  # transposed branch
    vec = v.reshape(-1)
    factors = (("Pt", d), ("Pc", 2), ("A", d), ("B", d), ("Ft", d), ("Fc", 2))
    return LabeledOperator(factors, np.outer(vec, vec.conj()))


def reference_n_time_flip(n, d):
    """The n-fold sequential flip as a chain of link products.

    An oracle independent of ``hoq.processes``: slot ``s`` is a copy of
    :func:`reference_time_flip` from target wire ``s - 1`` to ``s``, with
    the other slots' controls passed through on identity wires; the
    controls are then fused in slot order into ``Pc`` and ``Fc``.
    """
    from hoq.linalg import link_all, merge_factors, permute_systems, relabel, tensor_op

    def target(stage):
        return "Pt" if stage == 0 else ("Ft" if stage == n else f"T{stage}")

    def control(k, stage):
        return f"c{k}s{stage}"

    flip = reference_time_flip(d)
    blocks = []
    for s in range(1, n + 1):
        block = relabel(flip, {"Pt": target(s - 1), "Pc": control(s, s - 1),
                               "A": f"A{s}", "B": f"B{s}",
                               "Ft": target(s), "Fc": control(s, s)})
        for k in range(1, n + 1):
            if k != s:
                block = tensor_op(block, max_entangled(control(k, s - 1), control(k, s), 2))
        blocks.append(block)
    slots = [lab for s in range(1, n + 1) for lab in (f"A{s}", f"B{s}")]
    out = permute_systems(link_all(blocks),
                          ["Pt"] + [control(k, 0) for k in range(1, n + 1)] + slots
                          + ["Ft"] + [control(k, n) for k in range(1, n + 1)])
    out = merge_factors(out, tuple(control(k, 0) for k in range(1, n + 1)), "Pc")
    return merge_factors(out, tuple(control(k, n) for k in range(1, n + 1)), "Fc")


def reference_admissible(op, t, reg, tol=1e-7, max_iter=5000, psd_tol=1e-9, herm_tol=1e-10):
    """Admissibility by the bidirectional hierarchy, as a self-contained oracle.

    Its own hermiticity and positivity gates, the trace test for elementary
    states, and Dykstra's alternating projections with the affine offset
    formed as ``a - P_V(a)`` from ``a = coeff*1 - op`` and every projection
    made through ``sector_project`` on a ``LabeledOperator``.
    """
    from hoq import LabeledOperator, SystemString, sector_project
    from hoq.linalg import _psd_status, hermitian_part, permute_systems
    from hoq.membership import AdmissibilityResult, characterization_of, check_operator

    def project_psd(mat):
        vals, vecs = np.linalg.eigh((mat + mat.conj().T) / 2)
        return (vecs * np.clip(vals, 0.0, None)) @ vecs.conj().T

    coeff, sectors = characterization_of(t, reg)
    aligned = permute_systems(op, sectors.labels)
    sym, herm_defect = hermitian_part(aligned)
    if herm_defect > herm_tol:
        return AdmissibilityResult(
            "NOT_ADMISSIBLE", reason=f"operator not Hermitian (defect {herm_defect:.3e})")
    min_eig, psd_ok, _ = _psd_status(sym, psd_tol)
    if not psd_ok:
        return AdmissibilityResult("NOT_ADMISSIBLE",
                                   reason=f"operator not PSD (min eigenvalue {min_eig:.3e})")
    if isinstance(t, SystemString):
        trace = float(np.trace(sym).real)
        if trace <= 1.0 + tol:
            witness = LabeledOperator(
                aligned.factors, sym + max(1.0 - trace, 0.0) * np.eye(aligned.dim) / aligned.dim)
            return AdmissibilityResult("FEASIBLE", witness=witness,
                                       reason="trace test for elementary states")
        return AdmissibilityResult(
            "NOT_ADMISSIBLE",
            reason=f"trace {trace:.6g} exceeds 1: no deterministic state dominates")

    affine = LabeledOperator(aligned.factors, float(coeff) * np.eye(aligned.dim) - sym)
    offset = affine.data - sector_project(affine, sectors).data
    x = np.zeros_like(sym)
    p = np.zeros_like(sym)
    gap = np.inf
    iterations = 0
    for iterations in range(1, max_iter + 1):
        y = project_psd(x + p)
        p = x + p - y
        x = offset + sector_project(LabeledOperator(aligned.factors, y), sectors).data
        gap = float(np.linalg.norm(y - x))
        if gap < tol:
            break
    if gap < tol:
        witness = LabeledOperator(aligned.factors, sym + project_psd(x))
        if check_operator(witness, coeff, sectors, tol=max(tol * 10, 1e-8)).passed:
            return AdmissibilityResult("FEASIBLE", witness=witness,
                                       residual=gap, iterations=iterations)
    return AdmissibilityResult("UNDECIDED", residual=gap, iterations=iterations,
                               reason="alternating projections did not certify feasibility")
