"""Shared test helpers.

They live outside ``conftest.py`` because ``perfbench/tests`` has a
``conftest.py`` of its own: with both on the test path, ``import conftest``
would resolve to whichever pytest loaded last.
"""
import math
import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np

SRC = str(Path(__file__).resolve().parents[1] / "src")
CAPPED_BYTES = 1 << 30


def run_capped(code, *args):
    """Run ``python -c code args`` with hoq on the path, in 1 GB of address
    space and at most 60 s, so that a runaway allocation fails the test
    instead of exhausting the machine."""
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (CAPPED_BYTES, CAPPED_BYTES))
    env = dict(os.environ, PYTHONPATH=SRC, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    return subprocess.run([sys.executable, "-c", code, *args], preexec_fn=cap,
                          capture_output=True, text=True, timeout=60, env=env)


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


def rename_type(t, mapping):
    """``t`` with each label renamed by ``mapping``; unmapped labels stay."""
    from hoq.typesys import Arrow, BistochElem, SystemString

    if isinstance(t, SystemString):
        return SystemString(tuple(mapping.get(lab, lab) for lab in t.labels))
    if isinstance(t, BistochElem):
        return BistochElem(mapping.get(t.hat_in, t.hat_in),
                           tuple(mapping.get(x, x) for x in t.in_tail),
                           mapping.get(t.hat_out, t.hat_out),
                           tuple(mapping.get(x, x) for x in t.out_tail))
    return Arrow(rename_type(t.lhs, mapping), rename_type(t.rhs, mapping))


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
    it, the matrix converted whole by numpy: the reference for the reader.
    Rows of plain numbers stay float64; rows of pairs become complex128, and
    then float64 when every imaginary part is 0."""
    matrix = np.array(payload["matrix"], dtype=np.float64)
    if matrix.ndim == 3:
        matrix = matrix.view(np.complex128)[..., 0]
        if not matrix.imag.any():
            matrix = matrix.real
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

    Its own hermiticity and positivity gates, the latter LAPACK's Cholesky
    factorization of the whole shifted Hermitian part and otherwise
    ``eigvalsh``, the trace test for elementary states, and Dykstra's
    alternating projections with the affine offset formed as
    ``a - P_V(a)`` from ``a = coeff*1 - op`` and every projection made
    through ``sector_project`` on a ``LabeledOperator``.
    """
    from hoq import LabeledOperator, SystemString, sector_project
    from hoq.linalg import hermitian_part, permute_systems
    from hoq.membership import AdmissibilityResult, characterization_of, check_operator

    def project_psd(mat):
        vals, vecs = np.linalg.eigh((mat + mat.conj().T) / 2)
        return (vecs * np.clip(vals, 0.0, None)) @ vecs.conj().T

    coeff, sectors = characterization_of(t, reg)
    aligned = permute_systems(op, sectors.labels)
    herm_defect = aligned.herm_defect()
    if herm_defect > herm_tol:
        return AdmissibilityResult(
            "NOT_ADMISSIBLE", reason=f"operator not Hermitian (defect {herm_defect:.3e})")
    sym = hermitian_part(aligned)
    try:
        np.linalg.cholesky(sym + psd_tol * np.eye(aligned.dim))
        psd_ok = True
    except np.linalg.LinAlgError:
        min_eig = float(np.linalg.eigvalsh(sym)[0])
        psd_ok = min_eig >= -psd_tol
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


def assert_gap_certificate(res, op, t, reg, tol=1e-7):
    """Verify anew the Farkas certificate of an admissibility result
    that stopped on its gap bound: Z is PSD by ``eigvalsh``, its projection
    onto the allowed sectors V vanishes, and ``-<Z, a> / ||Z||_F >= tol`` for
    ``a = coeff*1 - R``, all in the type's factor order.  Then every PSD Y
    and every X in ``a + V`` lie at least that far apart, so no iterate can
    come within ``tol``.  Returns that recomputed bound."""
    from hoq import LabeledOperator, sector_project
    from hoq.linalg import permute_systems
    from hoq.membership import characterization_of

    coeff, sectors = characterization_of(t, reg)
    z = res.certificate
    assert res.status == "UNDECIDED" and res.gap_bound >= 2 * tol
    assert z.shape == (op.dim, op.dim)
    norm = float(np.linalg.norm(z))
    assert norm > 0
    assert float(np.linalg.eigvalsh(z)[0]) >= -1e-12 * norm
    in_v = sector_project(LabeledOperator(sectors.systems, z), sectors).data
    assert float(np.linalg.norm(in_v)) <= 1e-12 * norm
    a = float(coeff) * np.eye(op.dim) - permute_systems(op, sectors.labels).data
    bound = -float(np.vdot(z, a).real) / norm
    assert bound >= tol
    return bound


def unpruned_project(data, dims, masks):
    """Projection of ``data`` onto the sector ``masks`` by the recursion of
    ``hoq.sectors._project`` without its stops at exactly zero arrays: every
    partial trace is subtracted and recursed on, zero or not.  The reference
    that the pruned recursion must equal entry for entry."""
    from hoq.linalg import _combine_identity, _trace_factor

    def recurse(data, dims, pos, masks, owned=False):
        k = len(dims)
        if not masks:
            return None
        if len(masks) == 1 << (k - pos):
            return data
        marked = 0
        for m in masks:
            marked |= m
        idle = ~marked & ((1 << (k - pos)) - 1)
        if idle:
            i = idle.bit_length() - 1
            below = (1 << i) - 1
            traced, high = pos + i, ()
            low = {m & below | m >> 1 & ~below for m in masks}
        else:
            traced, high = pos, {m >> 1 for m in masks if m & 1}
            low = {m >> 1 for m in masks if not m & 1}
        small = _trace_factor(data, dims, traced)
        small /= dims[traced]
        out = None
        if high:
            out = data if owned else data.copy()
            _combine_identity(np.subtract, out, small, dims, pos)
            out = recurse(out, dims, pos + 1, high, owned=True)
        low_small = recurse(small, dims[:traced] + dims[traced + 1:], pos, low, owned=True)
        if low_small is None:
            return out
        if out is None:
            out = data if owned else np.empty_like(data)
            out.fill(0)
        _combine_identity(np.add, out, low_small, dims, traced)
        return out

    masks = frozenset(masks)
    complement = frozenset(range(1 << len(dims))) - masks
    if len(complement) < len(masks):
        out = recurse(data, dims, 0, complement)
        return data.copy() if out is None else data - out
    out = recurse(data, dims, 0, masks)
    return np.zeros_like(data) if out is None else out


def unpruned_pattern_norms(op):
    """``hoq.sectors.pattern_norms`` without its stop at exactly zero
    matrices: the partial-trace walk visits every factor subset."""
    from hoq.linalg import _trace_factor

    dims = op.dims
    k = len(dims)
    weights = np.empty(1 << k)

    def explore(mat, live_dims, live, divisor, start):
        flat = mat.reshape(-1)
        weights[live] = float(np.vdot(flat, flat).real) / divisor
        for j in range(start, k):
            pos = (live & ((1 << j) - 1)).bit_count()
            explore(_trace_factor(mat, live_dims, pos), live_dims[:pos] + live_dims[pos + 1:],
                    live & ~(1 << j), divisor * dims[j], j + 1)

    explore(op.data, dims, (1 << k) - 1, 1.0, 0)
    resolution = (1 << k) * np.finfo(float).eps * weights[-1]
    cube = weights.reshape((2,) * k)
    for axis in range(k):
        by_mark = np.moveaxis(cube, axis, 0)
        by_mark[1] -= by_mark[0]
    weights[weights <= resolution] = 0.0
    return weights


def reference_idle_traced(op, plan, live=None):
    """``hoq.sectors._idle_traced`` with every average over Z taken by
    ``_trace_factor`` on the whole matrix, whatever rows ``live`` names: the
    path that the live-block average must equal."""
    from hoq import LabeledOperator
    from hoq.linalg import _trace_factor

    if not plan.idle:
        return op
    data, dims = op.data, op.dims
    for pos in plan.idle:
        data = _trace_factor(data, dims, pos)
        data /= dims[pos]
        dims = dims[:pos] + dims[pos + 1:]
    return LabeledOperator(plan.factors, data)


def sparse_hermitian(rng, dim, n_live, complex_entries, share):
    """A Hermitian matrix whose entries lie in ``n_live`` random rows and their
    columns, each entry of that block drawn with probability ``share``; the
    entries left out are 0 times a normal draw, so some zeros are -0."""
    data = np.zeros((dim, dim), dtype=complex if complex_entries else float)
    live = rng.choice(dim, n_live, replace=False)
    drawn = rng.random((n_live, n_live)) < share
    block = rng.normal(size=drawn.shape) * drawn
    if complex_entries:
        block = block + 1j * rng.normal(size=drawn.shape) * drawn
    data[np.ix_(live, live)] = block + block.conj().T
    return data


def disjoint_gram(rng, dim, share):
    """A 0/1 Gram operator ``sum_c |v_c><v_c|`` whose 0/1 vectors have disjoint
    supports, as the paper's canonical processes are: each row joins one of a
    few vectors with probability ``share``, else stays zero."""
    which = rng.integers(0, 1 + rng.integers(0, 4), size=dim)
    which[rng.random(dim) >= share] = -1
    v = (which[:, None] == np.arange(max(which.max() + 1, 0))[None, :]).astype(float)
    return v @ v.T


def planted_traceless(rng, dims, complex_entries):
    """An integer Hermitian matrix over ``dims``, a sum of a few tensor products
    of small integer factors, in which a random set of factors is traceless
    in every term: its partial traces over those factors are exactly 0."""
    forced = rng.random(len(dims)) < 0.5
    dim = math.prod(dims)
    out = np.zeros((dim, dim), dtype=complex if complex_entries else float)
    for _ in range(rng.integers(1, 4)):
        term = np.ones((1, 1))
        for d, traceless in zip(dims, forced):
            f = rng.integers(-1, 2, size=(d, d)) * (rng.random((d, d)) < 0.5)
            if complex_entries:
                f = f + 1j * rng.integers(-1, 2, size=(d, d)) * (rng.random((d, d)) < 0.5)
            f = f + f.conj().T
            if traceless:
                f[-1, -1] -= np.trace(f)
            term = np.kron(term, f)
        out += term
    return out


def hoq_caches():
    """Every ``lru_cache`` of hoq's modules, each once."""
    import hoq
    from hoq import linalg, membership, network, processes, sectors, serialize, typesys

    found = {}
    for module in (hoq, linalg, membership, network, processes, sectors, serialize, typesys):
        for value in vars(module).values():
            if callable(getattr(value, "cache_clear", None)):
                found[id(value)] = value
    return list(found.values())


def clear_plan_caches():
    """Empty every cache, so that the next check works out its level's
    characterization and plan again."""
    for cached in hoq_caches():
        cached.cache_clear()


def reference_decompose(r, spec, reg):
    """The causally ordered decomposition of ``r`` by its dense-lift loop:
    after each step, what is left is the whole matrix ``|w><w|`` of the lift
    vector w, and the next marginal is its partial trace.  Blocks, spec and
    registry as :func:`hoq.network.decompose_network` returns them, but for
    the gauge; the blocks are not checked.  The reference that the vector
    chain must recompose like."""
    from hoq.linalg import LabeledOperator, partial_trace, permute_systems
    from hoq.network import RANK_TOL, _fresh_memory_labels
    from hoq.sectors import identity_coeff
    from hoq.typesys import NetworkSpec, systems_of

    current = permute_systems(r, [lab for lab, _ in spec.system_order(reg)])
    fresh = _fresh_memory_labels(spec.n - 1, {lab for lab, _ in reg.entries} | set(r.labels))
    new_spec = NetworkSpec(spec.slot_types, (spec.memories[0], *fresh, spec.memories[-1]))
    new_reg = reg
    blocks = []
    for i in range(spec.n, 1, -1):
        x_i = spec.slot_types[i - 1]
        slot_systems = systems_of(x_i, new_reg)
        out_mem = systems_of(new_spec.memory(i), new_reg)
        traced = [lab for lab, _ in slot_systems + out_mem]
        dim_i = math.prod(d for _, d in slot_systems)
        marginal = partial_trace(current, traced)
        s_data = marginal.data / (float(identity_coeff(x_i, new_reg)) * dim_i)
        vals, vecs = np.linalg.eigh((s_data + s_data.conj().T) / 2)
        keep = vals > RANK_TOL * max(float(vals[-1]), 1.0)
        rank = int(np.count_nonzero(keep))
        basis, roots = vecs[:, keep], np.sqrt(vals[keep])
        new_mem = new_spec.memories[i - 1]
        new_reg = new_reg.with_entries(**{new_mem: rank})
        scaled = basis / roots
        old_dim = marginal.dim
        dims = (old_dim, dim_i, current.dim // old_dim // dim_i)
        compressed = np.einsum("pa,asobtu,bq->spotqu", scaled.conj().T,
                               current.data.reshape(dims * 2), scaled)
        size = rank * current.dim // old_dim
        blocks.append(LabeledOperator((*slot_systems, (new_mem, rank), *out_mem),
                                      compressed.reshape(size, size)))
        vec = (basis * roots).reshape(-1)
        head = current.factors[:len(current.factors) - len(traced)]
        current = LabeledOperator(head + ((new_mem, rank),), np.outer(vec, vec.conj()))
    blocks.append(current)
    return blocks[::-1], new_spec, new_reg
