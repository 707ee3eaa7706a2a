"""Dense operator algebra on labeled tensor factors.

Operators carry an ordered list of ``(label, dim)`` factors; the matrix,
complex or real float64, is stored row-major with the first factor most
significant.  Choi operators use the input-factor-first convention: the Choi
matrix of a map from A to B lives on ``A (x) B`` and a channel satisfies
``Tr_B[M] = 1_A``.  All transposes are taken in the fixed computational basis
of each factor.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
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
DEFAULT_DIM_CAP = 4096
# entries per block of rows in LabeledOperator.herm_defect
_DEFECT_BLOCK = 1 << 16


def check_tol(name: str, value: float) -> None:
    """Raise ValueError unless ``value`` is finite and ``>= 0``; NaN fails both tests."""
    if not 0 <= value < math.inf:
        raise ValueError(f"{name} must be finite and >= 0, got {value!r}")


def factor_entry(label, dim) -> tuple[str, int]:
    """A ``(label, dim)`` factor; :class:`ShapeMismatch` unless ``dim`` is an integer >= 1.

    Python and numpy integers qualify; booleans, floats and strings do not.
    """
    if isinstance(dim, bool) or not isinstance(dim, numbers.Integral) or dim < 1:
        raise ShapeMismatch(f"factor {label!r} has dimension {dim!r}, not an integer >= 1")
    return str(label), int(dim)


@dataclass(frozen=True, eq=False)
class LabeledOperator:
    """A complex or real float64 square matrix over named tensor factors.

    A float64 array is kept real; any other array is stored as complex128.
    """

    factors: tuple[tuple[str, int], ...]
    data: np.ndarray

    def __post_init__(self):
        factors = tuple(factor_entry(lab, d) for lab, d in self.factors)
        object.__setattr__(self, "factors", factors)
        total = math.prod(d for _, d in factors)
        arr = np.asarray(self.data)
        if arr.dtype != np.float64:
            arr = arr.astype(complex, copy=False)
        if arr.shape != (total, total):
            raise ShapeMismatch(
                f"matrix shape {arr.shape} does not match factor dimensions (product {total})")
        labels = [lab for lab, _ in factors]
        if len(set(labels)) != len(labels):
            raise LabelCollision(f"repeated factor labels in {labels}")
        arr = np.ascontiguousarray(arr)
        arr.flags.writeable = False
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

    def herm_defect(self, sym: np.ndarray) -> float:
        """``max |A - A^H|``, from the Hermitian part ``sym = (A + A^H) / 2``.

        The defect is taken as ``2 max |A - sym|``, without another transposed
        pass; a real ``sym`` is compared with the real part of ``A``.  The
        maximum is taken over blocks of rows, so no full-size temporary is
        formed; a NaN anywhere makes the result NaN.
        """
        data = self.data.real if np.isrealobj(sym) else self.data
        n = data.shape[0]
        step = max(1, _DEFECT_BLOCK // n)
        defect = 0.0
        for r0 in range(0, n, step):
            peak = float(np.abs(data[r0:r0 + step] - sym[r0:r0 + step]).max())
            if not peak <= defect:
                defect = peak
                if math.isnan(peak):  # no later block may replace it
                    break
        return 2.0 * defect

    def __repr__(self):
        spec = ",".join(f"{lab}:{d}" for lab, d in self.factors)
        return f"LabeledOperator([{spec}], dim={self.dim})"


def identity(factors: Iterable[tuple[str, int]]) -> LabeledOperator:
    factors = tuple(factors)
    total = math.prod(d for _, d in factors)
    return LabeledOperator(factors, np.eye(total, dtype=complex))


def tensor_op(a: LabeledOperator, b: LabeledOperator) -> LabeledOperator:
    """Kronecker product; factor list is a's factors followed by b's."""
    if set(a.labels) & set(b.labels):
        raise LabelCollision(f"shared labels {sorted(set(a.labels) & set(b.labels))}")
    return LabeledOperator(a.factors + b.factors, np.kron(a.data, b.data))


def permute_systems(a: LabeledOperator, order: Sequence[str]) -> LabeledOperator:
    """Reorder tensor factors; the matrix is conjugated by the permutation."""
    order = tuple(order)
    if sorted(order) != sorted(a.labels):
        raise BadPermutation(f"{order} is not a permutation of {a.labels}")
    if order == a.labels:
        return a
    perm = [a.labels.index(lab) for lab in order]
    k = len(perm)
    tens = a.data.reshape(a.dims + a.dims).transpose(tuple(perm) + tuple(k + p for p in perm))
    new_factors = tuple(a.factors[p] for p in perm)
    total = a.dim
    return LabeledOperator(new_factors, tens.reshape(total, total))


def relabel(a: LabeledOperator, mapping: dict[str, str]) -> LabeledOperator:
    """Rename factor labels without touching the matrix."""
    new_factors = tuple((mapping.get(lab, lab), d) for lab, d in a.factors)
    return LabeledOperator(new_factors, a.data)


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
    return LabeledOperator(new_factors, a.data)


def drop_trivial(a: LabeledOperator) -> LabeledOperator:
    """Remove dimension-1 factors (they carry no matrix content)."""
    kept = tuple(f for f in a.factors if f[1] > 1)
    if kept == a.factors:
        return a
    return LabeledOperator(kept, a.data)


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
    m's unshared factors.
    """
    shared = [lab for lab in n.labels if lab in m.labels]
    for lab in shared:
        if n.dim_of(lab) != m.dim_of(lab):
            raise DimMismatch(
                f"shared factor {lab!r} has dims {n.dim_of(lab)} and {m.dim_of(lab)}")
    n_only = [lab for lab in n.labels if lab not in shared]
    m_only = [lab for lab in m.labels if lab not in shared]

    np_ = permute_systems(n, n_only + shared)
    mp = permute_systems(m, shared + m_only)
    dn = math.prod(np_.dim_of(lab) for lab in n_only)
    ds = math.prod(np_.dim_of(lab) for lab in shared)
    dm = math.prod(mp.dim_of(lab) for lab in m_only)

    # out[(a,c),(b,d)] = sum_{s,t} n[(a,s),(b,t)] m[(s,c),(t,d)]
    # grouped as a matrix product over the doubled shared index (s,t)
    n2 = np_.data.reshape(dn, ds, dn, ds).transpose(0, 2, 1, 3).reshape(dn * dn, ds * ds)
    m2 = mp.data.reshape(ds, dm, ds, dm).transpose(0, 2, 1, 3).reshape(ds * ds, dm * dm)
    out = (n2 @ m2).reshape(dn, dn, dm, dm).transpose(0, 2, 1, 3)
    factors = tuple((lab, np_.dim_of(lab)) for lab in n_only) + \
        tuple((lab, mp.dim_of(lab)) for lab in m_only)
    return LabeledOperator(factors, out.reshape(dn * dm, dn * dm))


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

def hermitian_part(a: LabeledOperator) -> tuple[np.ndarray, float]:
    """``(A + A^H) / 2`` as a new array, and the hermiticity defect of ``A``.

    When no entry of ``A`` has a non-zero imaginary part, the Hermitian part
    is the real float64 ``(A + A^T) / 2``, and every check on it (Cholesky,
    sector projections, norms) runs in real arithmetic.  The defect is
    measured once, from the Hermitian part.  Raises
    :class:`NonFiniteOperator` when it is not finite, which any NaN or
    infinite entry makes it.
    """
    data = a.data
    if np.iscomplexobj(data) and not data.imag.any():
        data = data.real
    sym = np.empty_like(data)
    np.conjugate(data.T, out=sym)
    # non-finite entries make NaNs here, which the defect then reports
    with np.errstate(invalid="ignore"):
        sym += data
        sym *= 0.5
        defect = a.herm_defect(sym)
    if not math.isfinite(defect):
        raise NonFiniteOperator(f"operator has non-finite entries (hermiticity defect {defect})")
    return sym, defect


def _psd_status(sym: np.ndarray, psd_tol: float) -> tuple[float, bool, str]:
    """Minimum eigenvalue, positivity verdict and the method that decided.

    A Cholesky factorization of ``sym + psd_tol * 1`` certifies positivity
    and reports the lower bound ``-psd_tol``; only when it fails does
    ``eigvalsh`` find the exact minimum.  The shift is applied to the
    diagonal of ``sym`` in place and undone exactly before returning.
    """
    check_tol("psd_tol", psd_tol)
    diag = sym.reshape(-1)[::sym.shape[0] + 1]
    saved = diag.copy()
    diag += psd_tol
    try:
        np.linalg.cholesky(sym)
        return -psd_tol, True, "cholesky"
    except np.linalg.LinAlgError:
        pass
    finally:
        diag[:] = saved
    min_eig = float(np.linalg.eigvalsh(sym)[0])
    return min_eig, min_eig >= -psd_tol, "eigvalsh"


def _require_hermitian(a: LabeledOperator, tol: float) -> np.ndarray:
    sym, defect = hermitian_part(a)
    if not defect <= tol:
        raise NotHermitian(f"hermiticity defect {defect:.3e} exceeds {tol:.1e}")
    return sym


def eigh(a: LabeledOperator, herm_tol: float = TOL_HERM):
    """Eigendecomposition of a Hermitian operator, eigenvalues ascending."""
    sym = _require_hermitian(a, herm_tol)
    return np.linalg.eigh(sym)


def is_psd(a: LabeledOperator, psd_tol: float = TOL_PSD,
           herm_tol: float = TOL_HERM) -> bool:
    return _psd_status(_require_hermitian(a, herm_tol), psd_tol)[1]
