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
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import (
    BadPermutation,
    DimMismatch,
    FactorMismatch,
    LabelCollision,
    NonFiniteOperator,
    NotHermitian,
    ShapeMismatch,
    UnknownLabel,
)

TOL_HERM = 1e-10
TOL_PSD = 1e-9
DEFAULT_DIM_CAP = 4096


def check_tol(name: str, value: float) -> None:
    """Raise ValueError unless ``value`` is finite and ``>= 0``; NaN fails both tests."""
    if not 0 <= value < math.inf:
        raise ValueError(f"{name} must be finite and >= 0, got {value!r}")


def factor_entry(label, dim) -> tuple[str, int]:
    """A ``(label, dim)`` factor; :class:`ShapeMismatch` unless ``dim`` is an integer.

    Python and numpy integers qualify; booleans, floats and strings do not.
    """
    if isinstance(dim, bool) or not isinstance(dim, numbers.Integral):
        raise ShapeMismatch(f"factor {label!r} has dimension {dim!r}, not an integer")
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

    def herm_defect(self, sym: Optional[np.ndarray] = None) -> float:
        """``max |A - A^H|``.

        A caller that has formed the Hermitian part ``sym = (A + A^H) / 2``
        passes it, and the defect is taken from it as ``2 max |A - sym|``,
        without another transposed pass.  A real ``sym`` is compared with the
        real part of ``A``.
        """
        if sym is None:
            return float(np.abs(self.data - self.data.conj().T).max())
        data = self.data.real if np.isrealobj(sym) else self.data
        return 2.0 * float(np.abs(data - sym).max())

    def __repr__(self):
        spec = ",".join(f"{lab}:{d}" for lab, d in self.factors)
        return f"LabeledOperator([{spec}], dim={self.dim})"


def identity(factors: Iterable[tuple[str, int]]) -> LabeledOperator:
    factors = tuple(factors)
    total = math.prod(d for _, d in factors)
    return LabeledOperator(factors, np.eye(total, dtype=complex))


def scalar(value: complex = 1.0) -> LabeledOperator:
    """The trivial (zero-factor) operator: a 1x1 matrix."""
    return LabeledOperator((), np.array([[value]], dtype=complex))


def _as_tensor(a: LabeledOperator) -> np.ndarray:
    return a.data.reshape(a.dims + a.dims)


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
    tens = _as_tensor(a).transpose(tuple(perm) + tuple(k + p for p in perm))
    new_factors = tuple(a.factors[p] for p in perm)
    total = a.dim
    return LabeledOperator(new_factors, tens.reshape(total, total))


def align_factors(a: LabeledOperator, systems: Sequence[tuple[str, int]]
                  ) -> tuple[LabeledOperator, Optional[tuple[str, ...]]]:
    """Permute ``a`` into the factor order of ``systems``.

    Returns the aligned operator and the new label order, or ``None`` in
    its place when ``a`` was already in that order.  Raises
    :class:`FactorMismatch` when the labels, or their dimensions, differ.
    """
    systems = tuple(systems)
    labels = tuple(lab for lab, _ in systems)
    if sorted(a.labels) != sorted(labels):
        raise FactorMismatch(f"operator factors {a.labels} do not match systems {labels}")
    if dict(a.factors) != dict(systems):
        raise FactorMismatch(
            f"factor dimensions {a.factors} disagree with systems {systems}")
    if a.labels == labels:
        return a, None
    return permute_systems(a, labels), labels


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
    tens = _as_tensor(a)
    k = len(a.factors)
    keep = [i for i, (lab, _) in enumerate(a.factors) if lab not in subset]
    out = tens
    # trace highest axis pairs first so earlier indices stay valid
    for i in sorted((i for i in range(k) if i not in keep), reverse=True):
        out = np.trace(out, axis1=i, axis2=i + out.ndim // 2)
    new_factors = tuple(a.factors[i] for i in keep)
    total = math.prod(d for _, d in new_factors)
    return LabeledOperator(new_factors, out.reshape(total, total))


def partial_transpose(a: LabeledOperator, subset: Iterable[str]) -> LabeledOperator:
    """Transpose the given factors in the computational basis."""
    subset = set(subset)
    for lab in subset:
        if lab not in a.labels:
            raise UnknownLabel(lab)
    k = len(a.factors)
    axes = list(range(2 * k))
    for i, (lab, _) in enumerate(a.factors):
        if lab in subset:
            axes[i], axes[k + i] = axes[k + i], axes[i]
    tens = _as_tensor(a).transpose(axes)
    return LabeledOperator(a.factors, tens.reshape(a.dim, a.dim))


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

def max_entangled(label_a: str, label_b: str, d: int) -> LabeledOperator:
    """The unnormalized maximally entangled projector between two factors."""
    v = np.eye(d, dtype=complex).reshape(-1)
    return LabeledOperator(((label_a, d), (label_b, d)), np.outer(v, v.conj()))


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


def apply_choi(m: LabeledOperator, in_labels: Sequence[str],
               state: LabeledOperator) -> LabeledOperator:
    """Apply the map with Choi operator ``m`` to ``state`` on ``in_labels``."""
    in_labels = list(in_labels)
    if len(state.factors) != len(in_labels):
        raise ShapeMismatch("state factor count does not match in_labels")
    renamed = relabel(state, dict(zip(state.labels, in_labels)))
    for lab in in_labels:
        if renamed.dim_of(lab) != m.dim_of(lab):
            raise DimMismatch(f"state and Choi disagree on dim of {lab!r}")
    return link_product(renamed, m)


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


def psd_sqrt_pinv(a: LabeledOperator, tol: float = TOL_PSD,
                  herm_tol: float = TOL_HERM):
    """Square root, pseudo-inverse square root and support projector.

    Eigenvalues below ``tol * max(largest eigenvalue, 1)`` are treated as
    zero and excluded from the support.
    """
    vals, vecs = eigh(a, herm_tol)
    cutoff = tol * max(float(vals[-1]) if len(vals) else 0.0, 1.0)
    keep = vals > cutoff
    vp = vecs[:, keep]
    sq = (vp * np.sqrt(vals[keep])) @ vp.conj().T
    pinv = (vp / np.sqrt(vals[keep])) @ vp.conj().T
    supp = vp @ vp.conj().T
    return (LabeledOperator(a.factors, sq),
            LabeledOperator(a.factors, pinv),
            LabeledOperator(a.factors, supp))
