"""Dense operator algebra on labeled tensor factors.

Operators carry an ordered list of ``(label, dim)`` factors; the matrix is
stored row-major with the first factor most significant, as float64 when no
entry has a non-zero imaginary part and as complex128 otherwise.  Choi
operators use the input-factor-first convention: the Choi matrix of a map
from A to B lives on ``A (x) B`` and a channel satisfies ``Tr_B[M] = 1_A``.
All transposes are taken in the fixed computational basis of each factor.
"""
from __future__ import annotations

import itertools
import math
import numbers
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    BadPermutation,
    DimMismatch,
    LabelCollision,
    NonFiniteOperator,
    NotHermitian,
    ShapeMismatch,
    UnknownLabel,
)

TOL_HERM = 1e-10
TOL_PSD = 1e-9
# rows per block of _cholesky_lower's factorization
_BLOCK = 256
# rows and columns per tile of hermitian_part and LabeledOperator.herm_defect's
# scan: narrow tiles keep the transposed reads of a large operator from
# contending for the same cache sets
_TILE = (256, 64)
# the cost of one pair of live rows in _trace_live, in entries that
# _trace_factor reads: 20-100 ns against 1-8 ns at D = 1024 and 4096 on one
# x86 core; the kernels took equal time near 16, and 32 keeps _trace_live
# only where it is clearly ahead
_PAIR_COST = 32
# the list that :meth:`LabeledOperator.herm_defect` appends its live rows to,
# set by :func:`_defect_and_support` around the one call it makes; a context
# variable, so a check in another thread or task never sees it
_FOUND_SUPPORT: ContextVar[list | None] = ContextVar("_FOUND_SUPPORT", default=None)


def check_tol(name: str, value: float) -> None:
    """Raise ValueError unless ``value`` is finite and ``>= 0``; NaN fails both tests."""
    if not 0 <= value < math.inf:
        raise ValueError(f"{name} must be finite and >= 0, got {value!r}")


def _is_count(x) -> bool:
    """True for an integer >= 1: Python and numpy integers qualify; booleans,
    floats and strings do not."""
    return not isinstance(x, bool) and isinstance(x, numbers.Integral) and x >= 1


def factor_entry(label, dim) -> tuple[str, int]:
    """A ``(label, dim)`` factor; :class:`ShapeMismatch` unless ``dim`` is an integer >= 1."""
    if not _is_count(dim):
        raise ShapeMismatch(f"factor {label!r} has dimension {dim!r}, not an integer >= 1")
    return str(label), int(dim)


@dataclass(frozen=True, eq=False)
class LabeledOperator:
    """A square matrix over named tensor factors, real when its entries are.

    The one realness rule: the matrix is stored as float64 when no entry has
    a non-zero imaginary part (any real dtype, or complex with every
    imaginary part 0, whose sign is then lost), and as complex128 otherwise.
    A NaN imaginary part counts as non-zero.  As with ``np.asarray``, an
    operator built from a C-contiguous float64 or complex128 array that needs
    no conversion shares the caller's memory; its own ``data`` is a
    read-only view of it.

    ``vector`` is None unless :func:`rank_one` formed the operator as
    ``np.outer(v, v.conj())``; then it is that v, read-only and stored by
    the same rule.  It is no argument, so it cannot disagree with ``data``.
    :func:`permute_systems`, :func:`relabel`, :func:`merge_factors` and
    :func:`drop_trivial` carry it; every other operation drops it, and no
    check reads it.
    """

    factors: tuple[tuple[str, int], ...]
    data: np.ndarray
    vector: np.ndarray | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        factors = tuple(factor_entry(lab, d) for lab, d in self.factors)
        object.__setattr__(self, "factors", factors)
        total = math.prod(d for _, d in factors)
        arr = _stored(self.data)
        if arr.shape != (total, total):
            raise ShapeMismatch(
                f"matrix shape {arr.shape} does not match factor dimensions (product {total})")
        labels = [lab for lab, _ in factors]
        if len(set(labels)) != len(labels):
            raise LabelCollision(f"repeated factor labels in {labels}")
        object.__setattr__(self, "data", arr)

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(lab for lab, _ in self.factors)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(d for _, d in self.factors)

    @property
    def dim(self) -> int:
        return self.data.shape[0]

    def dim_of(self, label: str) -> int:
        for lab, d in self.factors:
            if lab == label:
                return d
        raise UnknownLabel(label)

    def trace(self) -> complex:
        return complex(np.trace(self.data))

    def herm_defect(self) -> float:
        """``max |A - A^H|``, exactly; :class:`NonFiniteOperator` on any NaN
        or infinite entry, and :class:`NotHermitian` when every entry is
        finite but the defect overflows float64.

        The live rows L, those that hold an entry, are found first; a NaN or
        infinite entry is non-zero, so it lies in one.  When at most half the
        rows are live, every entry lies in rows L, so the defect is the larger
        of ``max |B - B^H|`` over the block ``B = A[L, L]`` and
        ``max |A[L, ~L]|``, whose mirrors lie in zero rows: only rows L are
        read, ``A[L, ~L]`` a tile's area of rows at a time.  Otherwise one
        scan over the tiles of :data:`_TILE` rows and columns on and above
        the diagonal compares ``A[I, J]`` with ``conj(A[J, I]^T)``.  Neither
        forms an operator-sized temporary, and each difference is the
        negated conjugate of its mirror's, so the maximum is that of the
        whole matrix, bit for bit.  The first part whose largest difference
        is not finite ends the scan, and one pass over the operator tells a
        non-finite entry from an overflowing defect.
        """
        data = self.data
        live = _sparse_support(data)
        found = _FOUND_SUPPORT.get()
        if found is not None:
            found.append(live)
        defect = 0.0
        with np.errstate(invalid="ignore", over="ignore"):
            if live is None:
                parts = (data[i, j] - data[j, i].T.conj()
                         for i, j in _tiles(self.dim, upper=True))
            else:
                block = data[np.ix_(live, live)]
                # the mirrors of A[L, ~L] are 0, so its differences are its entries
                parts = itertools.chain((block - block.T.conj(),), _live_strips(data, live))
            for diff in parts:
                # a real difference takes its moduli in place; a complex one's are real
                peak = float(np.abs(diff, out=diff if diff.dtype.kind == "f" else None)
                             .max(initial=0.0))
                if not math.isfinite(peak):
                    if np.isfinite(data).all():
                        raise NotHermitian("hermiticity defect overflows float64")
                    raise NonFiniteOperator(
                        f"operator has non-finite entries (hermiticity defect {peak})")
                defect = max(defect, peak)
        return defect

    def __repr__(self):
        spec = ",".join(f"{lab}:{d}" for lab, d in self.factors)
        return f"LabeledOperator([{spec}], dim={self.dim})"


def _stored(a) -> np.ndarray:
    """``a`` under the realness rule, as a read-only C-contiguous view: float64
    when no entry has a non-zero imaginary part, else complex128."""
    arr = np.asarray(a)
    if arr.dtype.kind in "biuf":
        arr = arr.astype(np.float64, copy=False)
    else:
        arr = arr.astype(complex, copy=False)
        if not arr.imag.any():
            arr = arr.real
    # a view, so that the caller's array stays writeable
    arr = np.ascontiguousarray(arr).view()
    arr.flags.writeable = False
    return arr


def _carrying(op: LabeledOperator, vector: np.ndarray | None) -> LabeledOperator:
    """``op`` with ``vector``, a stored v with ``op.data == |v><v|``, as its vector."""
    if vector is not None:
        object.__setattr__(op, "vector", vector)
    return op


def rank_one(factors: Iterable[tuple[str, int]], v) -> LabeledOperator:
    """``|v><v|`` over ``factors``, formed as ``np.outer(v, v.conj())``, with v
    as its :attr:`~LabeledOperator.vector`; :class:`ShapeMismatch` before
    anything is allocated unless v has the factors' product of entries."""
    factors = tuple(factors)
    v = _stored(np.asarray(v).reshape(-1))
    total = math.prod(factor_entry(lab, d)[1] for lab, d in factors)
    if len(v) != total:
        raise ShapeMismatch(
            f"vector of {len(v)} entries does not match factor dimensions (product {total})")
    return _carrying(LabeledOperator(factors, np.outer(v, v.conj())), v)


def _tiles(n: int, upper: bool):
    """Row and column slices of the tiles of an ``n x n`` matrix, :data:`_TILE`
    in size; with ``upper``, only those of the row tiles' diagonal blocks and
    right of them, which hold every pair ``(i, j)`` with ``i <= j``."""
    height, width = _TILE
    for i0 in range(0, n, height):
        for j0 in range(i0 if upper else 0, n, width):
            yield slice(i0, i0 + height), slice(j0, j0 + width)


def _live_strips(data: np.ndarray, live: np.ndarray):
    """The rows ``live`` of ``data`` with the columns ``live`` set to 0, that
    is ``A[L, ~L]`` padded with zeros, as many rows at a time as fit in one
    :data:`_TILE` area, and at least one; each chunk is written into the
    same buffer, so it is valid until the next is read."""
    rows = max(1, min(len(live), _TILE[0] * _TILE[1] // len(data)))
    buf = np.empty((rows, len(data)), data.dtype)
    for i in range(0, len(live), rows):
        index = live[i:i + rows]
        # "clip" takes without a buffered copy; every index is in range
        strip = np.take(data, index, axis=0, out=buf[:len(index)], mode="clip")
        strip[:, live] = 0
        yield strip


def _sparse_support(m: np.ndarray) -> np.ndarray | None:
    """The indices of the rows of ``m`` that hold an entry when at most half
    of them do, else None; a NaN or infinite entry counts as an entry."""
    live = np.flatnonzero(m.any(axis=1))
    return live if 2 * len(live) <= len(m) else None


def _defect_and_support(a: LabeledOperator) -> tuple[float, np.ndarray | None]:
    """``a.herm_defect()`` and the live rows its scan found, as
    :func:`_sparse_support` gives them.

    The rows are handed on for this one call only: ``a`` may share the
    caller's memory, so rows kept for a later check could be stale.
    """
    found = []
    token = _FOUND_SUPPORT.set(found)
    try:
        defect = a.herm_defect()
    finally:
        _FOUND_SUPPORT.reset(token)
    return defect, found[0]


def identity(factors: Iterable[tuple[str, int]]) -> LabeledOperator:
    factors = tuple(factors)
    total = math.prod(d for _, d in factors)
    return LabeledOperator(factors, np.eye(total))


def tensor_op(a: LabeledOperator, b: LabeledOperator) -> LabeledOperator:
    """Kronecker product; factor list is a's factors followed by b's."""
    if set(a.labels) & set(b.labels):
        raise LabelCollision(f"shared labels {sorted(set(a.labels) & set(b.labels))}")
    return LabeledOperator(a.factors + b.factors, np.kron(a.data, b.data))


def permute_systems(a: LabeledOperator, order: Sequence[str]) -> LabeledOperator:
    """Reorder tensor factors; the matrix is conjugated by the permutation,
    and a rank-one operator's vector is permuted and its matrix formed anew."""
    order = tuple(order)
    if sorted(order) != sorted(a.labels):
        raise BadPermutation(f"{order} is not a permutation of {a.labels}")
    if order == a.labels:
        return a
    perm = [a.labels.index(lab) for lab in order]
    factors = tuple(a.factors[p] for p in perm)
    if a.vector is not None:
        return rank_one(factors, a.vector.reshape(a.dims).transpose(perm))
    return LabeledOperator(factors, _permuted(a.data, a.dims, perm))


def _permuted(data: np.ndarray, dims: tuple, perm: Sequence[int]) -> np.ndarray:
    """The matrix ``data`` over ``dims`` with its factors in the order ``perm``
    (factor ``j`` of the result is factor ``perm[j]`` of ``data``)."""
    k = len(perm)
    tens = data.reshape(dims + dims).transpose(tuple(perm) + tuple(k + p for p in perm))
    return tens.reshape(data.shape)


def relabel(a: LabeledOperator, mapping: dict[str, str]) -> LabeledOperator:
    """Rename factor labels without touching the matrix."""
    new_factors = tuple((mapping.get(lab, lab), d) for lab, d in a.factors)
    return _carrying(LabeledOperator(new_factors, a.data), a.vector)


def merge_factors(a: LabeledOperator, group: Sequence[str], new_label: str) -> LabeledOperator:
    """Fuse a run of factors into one factor of the product dimension.

    The factors in ``group`` must be contiguous in the operator's current
    order (permute first if they are not); their order inside the group is
    preserved, which fixes the basis of the merged factor.
    """
    labels = a.labels
    group = tuple(group)
    if not group:
        raise BadPermutation("no factors to merge")
    for lab in group:
        if lab not in labels:
            raise UnknownLabel(lab)
    start = labels.index(group[0])
    if labels[start:start + len(group)] != group:
        raise BadPermutation(f"factors {group} are not contiguous in {labels}")
    merged_dim = math.prod(a.dim_of(lab) for lab in group)
    new_factors = (a.factors[:start]
                   + ((new_label, merged_dim),)
                   + a.factors[start + len(group):])
    return _carrying(LabeledOperator(new_factors, a.data), a.vector)


def drop_trivial(a: LabeledOperator) -> LabeledOperator:
    """Remove dimension-1 factors (they carry no matrix content)."""
    kept = tuple(f for f in a.factors if f[1] > 1)
    if kept == a.factors:
        return a
    return _carrying(LabeledOperator(kept, a.data), a.vector)


def partial_trace(a: LabeledOperator, subset: Iterable[str]) -> LabeledOperator:
    """Trace out the given factors; the remaining factor order is preserved."""
    subset = set(subset)
    for lab in subset:
        if lab not in a.labels:
            raise UnknownLabel(lab)
    if not subset:
        return a
    data, dims = a.data, a.dims
    # highest position first, so the lower positions stay valid
    for pos in reversed([i for i, lab in enumerate(a.labels) if lab in subset]):
        data = _trace_factor(data, dims, pos)
        dims = dims[:pos] + dims[pos + 1:]
    return LabeledOperator(tuple(f for f in a.factors if f[0] not in subset), data)


def _factor_view(data: np.ndarray, dims, pos: int) -> np.ndarray:
    """``data`` as a (left, d, right, left, d, right) view around factor ``pos``.

    ``data`` is a C-contiguous row-major matrix over ``dims``, so the
    reshape is a view and writes to it land in ``data``.
    """
    d = dims[pos]
    left = math.prod(dims[:pos])
    right = math.prod(dims[pos + 1:])
    return data.reshape(left, d, right, left, d, right)


def _trace_factor(data: np.ndarray, dims, pos: int) -> np.ndarray:
    """Partial trace over factor ``pos``: the sum of its d diagonal blocks, as
    a new C-contiguous matrix over the other factors."""
    t = _factor_view(data, dims, pos)
    blocks = t.diagonal(axis1=1, axis2=4)  # block a is blocks[..., a]
    d = blocks.shape[-1]
    out = np.add(blocks[..., 0], blocks[..., 1]) if d > 1 else blocks[..., 0].copy()
    for a in range(2, d):
        out += blocks[..., a]
    lr = t.shape[0] * t.shape[2]
    return out.reshape(lr, lr)


def _trace_live(data: np.ndarray, dims, pos: int, live: np.ndarray) -> np.ndarray:
    """:func:`_trace_factor` of a matrix whose entries all lie in the rows
    and columns ``live``, ascending, read from those only.

    Each live index splits into its kept part and its part z at factor
    ``pos``.  Every entry ``data[a, b]`` with ``z_a == z_b`` is added into
    the kept entry by ``np.add.at``, which adds in index order.  The pairs
    come in row-major order, a :data:`_TILE` area of them at a time, so each
    output entry sums its terms in ascending z, as :func:`_trace_factor`
    does; the terms left out are zeros, so the result is the same, bit for
    bit, but for the sign of a zero.
    """
    d = dims[pos]
    right = math.prod(dims[pos + 1:])
    n = len(data) // d
    high, rest = np.divmod(live, d * right)
    z, low = np.divmod(rest, right)
    kept = high * right + low
    out = np.zeros(n * n, data.dtype)
    step = max(1, _TILE[0] * _TILE[1] // max(len(live), 1))
    for i in range(0, len(live), step):
        rows, cols = np.nonzero(z[i:i + step, None] == z)
        rows += i
        np.add.at(out, kept[rows] * n + kept[cols], data[live[rows], live[cols]])
    return out.reshape(n, n)


def _few_live_pairs(dims, pos: int, live: np.ndarray) -> bool:
    """Whether :func:`_trace_live` over factor ``pos`` costs less than
    :func:`_trace_factor` on a matrix over ``dims`` whose entries lie in the
    rows and columns ``live``.

    :func:`_trace_live` adds one term per pair of live rows with equal index
    z at the factor, ``sum_z n_z^2`` of them by one ``np.bincount`` of z, at
    about 20 to 100 ns a pair (the pair mask, the gather and ``np.add.at``);
    :func:`_trace_factor` reads the ``D^2 / d`` entries of the d diagonal
    blocks, at about 1 to 8 ns each.  So the live rows pay when the pairs are
    fewer than a :data:`_PAIR_COST`-th of those entries.
    """
    d = dims[pos]
    counts = np.bincount(live // math.prod(dims[pos + 1:]) % d, minlength=d)
    return _PAIR_COST * int(counts @ counts) < math.prod(dims) ** 2 // d


def _combine_identity(ufunc, data: np.ndarray, small: np.ndarray, dims, pos: int) -> None:
    """In place, ``data = ufunc(data, small (x) 1)`` with the identity at factor ``pos``.

    The adjoint of :func:`_trace_factor`: only the d diagonal blocks of
    factor ``pos`` change, and the embedding itself is never formed.
    """
    t = _factor_view(data, dims, pos)
    s = small.reshape(t.shape[0], t.shape[2], t.shape[0], t.shape[2])
    for a in range(t.shape[1]):
        block = t[:, a, :, :, a, :]
        ufunc(block, s, out=block)


def transpose(a: LabeledOperator) -> LabeledOperator:
    return LabeledOperator(a.factors, a.data.T)


def link_product(n: LabeledOperator, m: LabeledOperator) -> LabeledOperator:
    """Contract two operators over their shared factor labels.

    Disjoint labels reduce to the tensor product, identical label sets to the
    scalar ``Tr[n^T m]``.  Output factors are n's unshared factors followed by
    m's unshared factors.  Only the result is reordered, once.
    """
    shared = [lab for lab in n.labels if lab in m.labels]
    for lab in shared:
        if n.dim_of(lab) != m.dim_of(lab):
            raise DimMismatch(
                f"shared factor {lab!r} has dims {n.dim_of(lab)} and {m.dim_of(lab)}")
    k, l = len(n.factors), len(m.factors)
    ns = [n.labels.index(lab) for lab in shared]
    ms = [m.labels.index(lab) for lab in shared]
    # out[(a,c),(b,d)] = sum_{s,t} n[(a,s),(b,t)] m[(s,c),(t,d)]: the shared row
    # axes contract with each other, and so do the shared column axes
    out = np.tensordot(n.data.reshape(n.dims * 2), m.data.reshape(m.dims * 2),
                       axes=(ns + [k + i for i in ns], ms + [l + i for i in ms]))
    # out's axes are a, b, c, d: m's unshared rows c move ahead of n's columns b
    a, c = k - len(shared), l - len(shared)
    out = np.moveaxis(out, range(2 * a, 2 * a + c), range(a, a + c))
    factors = tuple(f for f in n.factors + m.factors if f[0] not in shared)
    total = math.prod(d for _, d in factors)
    return LabeledOperator(factors, out.reshape(total, total))


def link_all(ops: Sequence[LabeledOperator]) -> LabeledOperator:
    out = ops[0]
    for op in ops[1:]:
        out = link_product(out, op)
    return out


# ---------------------------------------------------------------------------
# Choi maps
# ---------------------------------------------------------------------------

def choi_of_kraus(kraus: Sequence[np.ndarray], in_label: str,
                  out_label: str) -> LabeledOperator:
    """Choi operator of the map with the given Kraus operators.

    Input factor first: the result lives on ``in (x) out``.
    """
    kraus = [np.asarray(k, dtype=complex) for k in kraus]
    if not kraus:
        raise ShapeMismatch("at least one Kraus operator required")
    d_out, d_in = kraus[0].shape
    mat = np.zeros((d_in * d_out, d_in * d_out), dtype=complex)
    for k in kraus:
        if k.shape != (d_out, d_in):
            raise ShapeMismatch(f"inconsistent Kraus shapes {k.shape} vs {(d_out, d_in)}")
        # |K>> = sum_j |j> (x) K|j>
        vec = k.T.reshape(-1)
        mat += np.outer(vec, vec.conj())
    return LabeledOperator(((in_label, d_in), (out_label, d_out)), mat)


# ---------------------------------------------------------------------------
# Spectral helpers
# ---------------------------------------------------------------------------

def hermitian_part(a: LabeledOperator, out: np.ndarray | None = None) -> np.ndarray:
    """``(A + A^H) / 2``, in ``out`` when given, else in a new array.

    The Hermitian part has ``A``'s dtype, so for a real operator it is the
    float64 ``(A + A^T) / 2`` and every check on it (Cholesky, sector
    projections, norms) runs in real arithmetic.  It is formed in tiles of
    :data:`_TILE` rows and columns, each ``(conj(A[J, I]^T) + A[I, J]) / 2``,
    so the transposed reads stay in cache; the bytes are those of the
    whole-matrix formula, and the same each time it is formed.  ``A`` is
    taken to be finite, as :meth:`LabeledOperator.herm_defect` has found it.
    """
    data = a.data
    sym = np.empty_like(data) if out is None else out
    for rows, cols in _tiles(a.dim, upper=False):
        # formed in a contiguous tile and then stored: writing the transposed
        # read straight into ``sym`` walks it column by column
        tile = np.conjugate(data[cols, rows].T, order="C")
        tile += data[rows, cols]
        tile *= 0.5
        sym[rows, cols] = tile
    return sym


def _positivity(a: LabeledOperator, defect: float, live: np.ndarray | None,
                psd_tol: float) -> tuple[np.ndarray, np.ndarray | None, float, float, bool, str]:
    """The Hermitian part of ``a``, its live rows as :func:`_sparse_support`
    gives them, its squared Frobenius norm, its minimum eigenvalue, the
    positivity verdict and the method that decided.

    ``defect`` is ``a``'s hermiticity defect and ``live`` the live rows of
    ``a.data``, both from :func:`_defect_and_support`.  The Hermitian part
    is ``a.data`` when the defect is 0, with those rows, and else
    :func:`hermitian_part` of ``a``, whose rows are found anew.  Its zero
    rows are zero columns, so after a permutation ``sym + psd_tol * 1`` is
    the live block (the rows that hold an entry) plus ``psd_tol * 1``,
    beside ``psd_tol * 1``: positive definite exactly when that block is.
    When at most half the rows are live, the block is a copy of them, at
    most a quarter of the operator.  Otherwise it is the whole part: the
    part itself when it is an array of its own, formed again with the same
    bytes after the factorization, and else a copy.  The norm is read from
    the block, which holds every entry, before :func:`_cholesky_lower`
    factors it in place.  A successful factorization certifies positivity
    and reports the lower bound ``-psd_tol``; only when it fails does
    ``eigvalsh`` find the exact minimum, from the unfactored part.
    """
    if defect == 0:
        sym = a.data
    else:
        sym = hermitian_part(a)
        live = _sparse_support(sym)
    if live is not None:
        block = sym[np.ix_(live, live)]
    else:
        block = sym if sym.flags.writeable else sym.copy()
    norm_sq = float(np.vdot(block, block).real)
    block.reshape(-1)[::block.shape[0] + 1] += psd_tol
    try:
        _cholesky_lower(block)
        factored = True
    except np.linalg.LinAlgError:
        factored = False
    if block is sym:
        hermitian_part(a, out=sym)
    if factored:
        return sym, live, norm_sq, -psd_tol, True, "cholesky"
    min_eig = float(np.linalg.eigvalsh(sym)[0])
    return sym, live, norm_sq, min_eig, min_eig >= -psd_tol, "eigvalsh"


def _cholesky_lower(sym: np.ndarray) -> None:
    """Blocked, right-looking Cholesky factorization of the Hermitian matrix
    whose lower triangle ``sym`` holds; LinAlgError unless it is positive definite.

    Each diagonal block goes through ``np.linalg.cholesky``, which reads only
    its lower triangle.  Each panel ``L21 = A21 Lkk^-H`` is solved with
    ``np.linalg.solve`` (numpy has no triangular solve) into an array of its
    own, since only the verdict is kept, and :func:`_subtract_panel` updates
    the trailing block.  So ``sym`` changes only on and below the diagonal,
    from row and column ``_BLOCK`` on, and its strict upper triangle never does.
    """
    n = sym.shape[0]
    for k0 in range(0, n, _BLOCK):
        k1 = k0 + _BLOCK
        lkk = np.linalg.cholesky(sym[k0:k1, k0:k1])
        if k1 >= n:
            return
        _subtract_panel(sym, k1, np.linalg.solve(lkk, sym[k1:, k0:k1].conj().T))


def _subtract_panel(sym: np.ndarray, k1: int, panel_h: np.ndarray) -> None:
    """``A22 -= L21 L21^H`` on and below the diagonal of ``sym[k1:, k1:]``,
    from ``panel_h = L21^H``, one block row at a time."""
    n = sym.shape[0]
    for i0 in range(k1, n, _BLOCK):
        i1 = min(i0 + _BLOCK, n)
        row = panel_h[:, i0 - k1:i1 - k1].conj().T
        sym[i0:i1, k1:i0] -= row @ panel_h[:, :i0 - k1]
        sym[i0:i1, i0:i1] -= np.tril(row @ panel_h[:, i0 - k1:i1 - k1])


def _require_hermitian(a: LabeledOperator, tol: float) -> tuple[float, np.ndarray | None]:
    """:func:`_defect_and_support` of ``a``; :class:`NotHermitian` when the
    defect exceeds ``tol``, which :func:`check_tol` tests first."""
    check_tol("herm_tol", tol)
    defect, live = _defect_and_support(a)
    if not defect <= tol:
        raise NotHermitian(f"hermiticity defect {defect:.3e} exceeds {tol:.1e}")
    return defect, live


def is_psd(a: LabeledOperator, psd_tol: float = TOL_PSD,
           herm_tol: float = TOL_HERM) -> bool:
    check_tol("psd_tol", psd_tol)
    return _positivity(a, *_require_hermitian(a, herm_tol), psd_tol)[4]
