"""Exact characterization of deterministic events: identity coefficient and
traceless sector set of every type in the hierarchy.

Deterministic events of a type are exactly the positive operators
``coeff * identity + X`` where ``X`` lives in a fixed subspace of traceless
Hermitian operators.  Every such subspace arising here is a direct sum of
*sector patterns*: per-factor choices between the span of the identity (I)
and the traceless Hermitian operators (T).  Subspace arithmetic therefore
reduces to exact finite set algebra on patterns; no numerical rank decisions
are involved.  Numerical projections onto patterns live at the bottom of this
module and are used by the membership checks.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import FactorMismatch
from .linalg import TOL_HERM, LabeledOperator, _require_hermitian, align_factors, permute_systems
from .typesys import (
    BistochElem,
    SystemRegistry,
    SystemString,
    TypeExpr,
    systems_of,
    type_dim,
)

IDN = "I"
TRL = "T"


class Hierarchy(Enum):
    """Which hierarchy :func:`hoq.network.check_bsp` reads its type in.

    BISTOCH admits bidirectional pairs as elementary types; STANDARD is the
    ordinary hierarchy of hat-free types, which means "dehat first".
    """

    BISTOCH = "bistoch"
    STANDARD = "standard"


@dataclass(frozen=True)
class Pattern:
    """Per-factor assignment of identity-span (I) or traceless (T)."""

    marks: tuple[str, ...]

    def __post_init__(self):
        for m in self.marks:
            if m != IDN and m != TRL:
                raise ValueError(f"pattern marks must be '{IDN}' or '{TRL}': {self.marks}")

    @property
    def all_identity(self) -> bool:
        return TRL not in self.marks

    def text(self, systems: Sequence[tuple[str, int]]) -> str:
        return " ".join(f"{lab}:{m}" for (lab, _), m in zip(systems, self.marks))


def _mask_of(marks: tuple[str, ...]) -> int:
    mask = 0
    for i, m in enumerate(marks):
        if m == TRL:
            mask |= 1 << i
    return mask


def _marks_of(mask: int, k: int) -> tuple[str, ...]:
    return tuple(TRL if mask >> i & 1 else IDN for i in range(k))


class SectorSet:
    """A union of mutually orthogonal sector patterns over named systems.

    Internally each pattern is a bitmask (bit ``i`` set when factor ``i`` is
    traceless), which keeps the subspace arithmetic exact and cheap; the
    ``patterns`` view materializes :class:`Pattern` objects on demand.
    """

    __slots__ = ("systems", "masks", "_patterns")

    def __init__(self, systems, patterns):
        self.systems = tuple(systems)
        k = len(self.systems)
        masks = set()
        for p in patterns:
            if isinstance(p, Pattern):
                if len(p.marks) != k:
                    raise ValueError("pattern length does not match system count")
                masks.add(_mask_of(p.marks))
            else:
                masks.add(int(p))
        if any(m >> k for m in masks):
            raise ValueError("pattern mask out of range for system count")
        self.masks = frozenset(masks)
        self._patterns = None

    @property
    def patterns(self) -> frozenset[Pattern]:
        if self._patterns is None:
            k = len(self.systems)
            self._patterns = frozenset(Pattern(_marks_of(m, k)) for m in self.masks)
        return self._patterns

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(lab for lab, _ in self.systems)

    def __contains__(self, p) -> bool:
        if isinstance(p, Pattern):
            return _mask_of(p.marks) in self.masks
        return int(p) in self.masks

    def __len__(self) -> int:
        return len(self.masks)

    def __eq__(self, other) -> bool:
        return (isinstance(other, SectorSet) and self.systems == other.systems
                and self.masks == other.masks)

    def __hash__(self):
        return hash((self.systems, self.masks))

    def __repr__(self):
        return f"SectorSet({self.systems}, {len(self.masks)} patterns)"

    def same_subspace(self, other: "SectorSet") -> bool:
        """Equality as subspaces, insensitive to factor ordering."""
        return (dict(self.systems) == dict(other.systems)
                and self.masks == other.reorder(self.labels).masks)

    def reorder(self, labels: Sequence[str]) -> "SectorSet":
        labs = self.labels
        perm = [labs.index(lab) for lab in labels]
        systems = tuple(self.systems[i] for i in perm)
        masks = {sum(((m >> p) & 1) << j for j, p in enumerate(perm))
                 for m in self.masks}
        return SectorSet(systems, masks)

    def texts(self) -> list[str]:
        """Deterministic rendering, traceless marks sorting first."""
        order = {TRL: 0, IDN: 1}
        pats = sorted(self.patterns, key=lambda p: tuple(order[m] for m in p.marks))
        return [p.text(self.systems) for p in pats]


def full_space(systems) -> SectorSet:
    """All Hermitian operators: every pattern."""
    systems = tuple(systems)
    return SectorSet(systems, range(1 << len(systems)))


def traceless_space(systems) -> SectorSet:
    """All traceless Hermitian operators: every pattern except all-identity."""
    systems = tuple(systems)
    return SectorSet(systems, range(1, 1 << len(systems)))


def identity_span(systems) -> SectorSet:
    return SectorSet(tuple(systems), (0,))


def sector_product(*sets: SectorSet) -> SectorSet:
    """Tensor product: concatenated systems, cartesian product of patterns."""
    systems = tuple(itertools.chain.from_iterable(s.systems for s in sets))
    combined = {0}
    shift = 0
    for s in sets:
        combined = {c | (m << shift) for c in combined for m in s.masks}
        shift += len(s.systems)
    return SectorSet(systems, combined)


def sector_union(*sets: SectorSet) -> SectorSet:
    systems = sets[0].systems
    for s in sets[1:]:
        if s.systems != systems:
            raise ValueError("union requires identical system lists")
    return SectorSet(systems, frozenset().union(*(s.masks for s in sets)))


def _complement_in(sub: SectorSet, whole: SectorSet) -> SectorSet:
    return SectorSet(whole.systems, whole.masks - sub.masks)


# ---------------------------------------------------------------------------
# The recursion
# ---------------------------------------------------------------------------

def identity_coeff(t: TypeExpr, reg: SystemRegistry) -> Fraction:
    """Exact identity coefficient of deterministic events of type ``t``."""
    return _coeff_cached(t, reg)


@lru_cache(maxsize=4096)
def _coeff_cached(t: TypeExpr, reg: SystemRegistry) -> Fraction:
    if isinstance(t, SystemString):
        return Fraction(1, type_dim(t, reg))
    if isinstance(t, BistochElem):
        d_out_tail = math.prod(reg.dim(lab) for lab in t.out_tail)
        return Fraction(1, reg.dim(t.hat_out) * d_out_tail)
    return arrow_coeff(_coeff_cached(t.lhs, reg), type_dim(t.lhs, reg),
                       _coeff_cached(t.rhs, reg))


def deviation_sectors(t: TypeExpr, reg: SystemRegistry) -> SectorSet:
    """The traceless subspace of allowed deviations for type ``t``.

    The result never contains the all-identity pattern; membership checks
    treat the identity component separately through the coefficient.
    """
    return _deviation_cached(t, reg)


@lru_cache(maxsize=4096)
def _deviation_cached(t: TypeExpr, reg: SystemRegistry) -> SectorSet:
    if isinstance(t, SystemString):
        return traceless_space(systems_of(t, reg))
    if isinstance(t, BistochElem):
        hat_in = [(t.hat_in, reg.dim(t.hat_in))]
        in_tail = [(lab, reg.dim(lab)) for lab in t.in_tail]
        hat_out = [(t.hat_out, reg.dim(t.hat_out))]
        out_tail = [(lab, reg.dim(lab)) for lab in t.out_tail]
        # any pattern on the hatted systems and the input tail with a traceless
        # output tail, plus the purely bidirectional sector: traceless on both
        # hatted systems, identity on the output tail
        fam1 = sector_product(full_space(hat_in + in_tail + hat_out), traceless_space(out_tail))
        fam2 = sector_product(traceless_space(hat_in), full_space(in_tail),
                              traceless_space(hat_out), identity_span(out_tail))
        out = sector_union(fam1, fam2)
        assert 0 not in out.masks
        return out
    dev_x = _deviation_cached(t.lhs, reg)
    dev_y = _deviation_cached(t.rhs, reg)
    return arrow_sectors(dev_x, dev_y)


def arrow_sectors(dev_x: SectorSet, dev_y: SectorSet) -> SectorSet:
    """Deviation subspace of an arrow type from those of its two sides."""
    hrm_x = full_space(dev_x.systems)
    bar_x = _complement_in(dev_x, traceless_space(dev_x.systems))
    perp_y = _complement_in(dev_y, full_space(dev_y.systems))
    out = sector_union(sector_product(hrm_x, dev_y),
                       sector_product(bar_x, perp_y))
    assert 0 not in out.masks
    return out


def arrow_coeff(coeff_x: Fraction, dim_x: int, coeff_y: Fraction) -> Fraction:
    return coeff_y / (dim_x * coeff_x)


def dual_deviation_direct(t: TypeExpr, reg: SystemRegistry) -> SectorSet:
    """Deviation subspace of the functional type, by the direct formula.

    Must agree with running the arrow recursion on ``dual(t)``; used as a
    cross-check of the recursion.
    """
    dev = deviation_sectors(t, reg)
    return _complement_in(dev, traceless_space(dev.systems))


def dual_coeff_direct(t: TypeExpr, reg: SystemRegistry) -> Fraction:
    return 1 / (identity_coeff(t, reg) * type_dim(t, reg))


def tensor_deviation_direct(a: TypeExpr, b: TypeExpr, reg: SystemRegistry) -> SectorSet:
    """Deviation subspace of a parallel composition, by the direct formula."""
    da = deviation_sectors(a, reg)
    db = deviation_sectors(b, reg)
    ia = identity_span(da.systems)
    ib = identity_span(db.systems)
    return sector_union(sector_product(da, ib),
                        sector_product(da, db),
                        sector_product(ia, db))


def tensor_coeff_direct(a: TypeExpr, b: TypeExpr, reg: SystemRegistry) -> Fraction:
    return identity_coeff(a, reg) * identity_coeff(b, reg)


# ---------------------------------------------------------------------------
# Causally ordered networks
# ---------------------------------------------------------------------------

def network_characterization(slot_types: Sequence[TypeExpr], e0: str, en: str,
                             reg: SystemRegistry) -> tuple[Fraction, SectorSet]:
    """Coefficient and sector set of causally ordered networks.

    ``slot_types`` are the per-slot types; ``e0`` and ``en`` the global input
    and output memories (label ``I`` for trivial).  Operators live on
    ``e0, slot systems..., en`` in that order.
    """
    if not slot_types:
        raise ValueError("a network needs at least one slot")
    mem0 = systems_of(SystemString((e0,)), reg)
    memn = systems_of(SystemString((en,)), reg)
    slot_devs = [deviation_sectors(x, reg) for x in slot_types]

    coeff = Fraction(1, reg.dim(en))
    for x in slot_types:
        coeff *= identity_coeff(x, reg)

    free0 = full_space(mem0)
    families = [sector_product(free0,
                               *(full_space(d.systems) for d in slot_devs),
                               traceless_space(memn))]
    for i, dev_i in enumerate(slot_devs):
        parts = [free0]
        parts += [full_space(d.systems) for d in slot_devs[:i]]
        parts.append(dev_i)
        parts += [identity_span(d.systems) for d in slot_devs[i + 1:]]
        parts.append(identity_span(memn))
        families.append(sector_product(*parts))
    out = sector_union(*families)
    assert 0 not in out.masks
    return coeff, out


# ---------------------------------------------------------------------------
# Numerical sector projections
# ---------------------------------------------------------------------------

def _check_hermitian(op: LabeledOperator, herm_tol: float) -> None:
    """Raise NotHermitian beyond ``herm_tol`` and NonFiniteOperator on NaN or
    infinite entries; ``np.inf`` skips the measurement."""
    if herm_tol != np.inf:
        _require_hermitian(op, herm_tol)


def _factor_view(data: np.ndarray, dims, pos: int) -> np.ndarray:
    """``data`` as a (left, d, right, left, d, right) view around factor ``pos``.

    ``data`` is C-contiguous here, so the reshape is a view and writes to
    it land in ``data``.
    """
    d = dims[pos]
    left = math.prod(dims[:pos])
    right = math.prod(dims[pos + 1:])
    return data.reshape(left, d, right, left, d, right)


def _traced_average(data: np.ndarray, dims, pos: int) -> np.ndarray:
    """Tr over factor ``pos`` divided by its dimension; factor removed."""
    t = _factor_view(data, dims, pos)
    d = t.shape[1]
    out = t[:, 0, :, :, 0, :].copy()
    for a in range(1, d):
        out += t[:, a, :, :, a, :]
    out /= d
    lr = t.shape[0] * t.shape[2]
    return out.reshape(lr, lr)


def _combine_identity(ufunc, data: np.ndarray, small: np.ndarray, dims, pos: int) -> None:
    """In place, ``data = ufunc(data, small (x) 1)`` with the identity at factor ``pos``.

    Only the d diagonal blocks of factor ``pos`` change; the embedding
    itself is never formed.
    """
    t = _factor_view(data, dims, pos)
    s = small.reshape(t.shape[0], t.shape[2], t.shape[0], t.shape[2])
    for a in range(t.shape[1]):
        block = t[:, a, :, :, a, :]
        ufunc(block, s, out=block)


def _project_masks(data: np.ndarray, dims: tuple, pos: int, masks, owned=False):
    """Project onto the union of sector masks over factors pos..k-1.

    Splits the factor at ``pos`` into its identity average and the traceless
    complement.  The identity branch recurses on the traced-out matrix, so
    full-size arithmetic happens only along runs of traceless factors; empty
    branches return None and full branches return their input unchanged.
    The traceless branch is formed in ``data`` itself when the call
    ``owned`` it, else in one copy, and the identity branch is added into it
    block by block, so a projection costs at most one full-size array.
    """
    k = len(dims)
    if not masks:
        return None
    if len(masks) == 1 << (k - pos):
        return data
    avg_small = _traced_average(data, dims, pos)
    low = {m >> 1 for m in masks if not m & 1}
    high = {m >> 1 for m in masks if m & 1}

    out = None
    if high:
        out = data if owned else data.copy()
        _combine_identity(np.subtract, out, avg_small, dims, pos)
        out = _project_masks(out, dims, pos + 1, high, owned=True)

    reduced_dims = dims[:pos] + dims[pos + 1:]
    low_small = _project_masks(avg_small, reduced_dims, pos, low, owned=True)
    if low_small is None:
        return out
    if out is None:
        out = data if owned else np.empty_like(data)
        out.fill(0)
    _combine_identity(np.add, out, low_small, dims, pos)
    return out


def _project(data: np.ndarray, dims: tuple, masks) -> np.ndarray:
    """Projection onto ``masks``, through the complement when that set is smaller."""
    complement = frozenset(range(1 << len(dims))) - masks
    if len(complement) < len(masks):
        # the complement is a proper subset, so ``rest`` is a new array
        rest = _project_masks(data, dims, 0, complement)
        return data if rest is None else np.subtract(data, rest, out=rest)
    out = _project_masks(data, dims, 0, masks)
    return np.zeros_like(data) if out is None else out


def _projected(op: LabeledOperator, systems, masks, herm_tol: float) -> LabeledOperator:
    """Projection of ``op`` onto ``masks`` over ``systems``, in ``op``'s factor order."""
    aligned, _ = align_factors(op, systems)
    _check_hermitian(aligned, herm_tol)
    out = LabeledOperator(aligned.factors, _project(aligned.data, aligned.dims, masks))
    return permute_systems(out, op.labels)


def sector_component(op: LabeledOperator, pattern: Pattern,
                     herm_tol: float = TOL_HERM) -> LabeledOperator:
    """Orthogonal component of a Hermitian operator on one sector pattern."""
    if len(pattern.marks) != len(op.factors):
        raise FactorMismatch("pattern length does not match operator factors")
    return _projected(op, op.factors, {_mask_of(pattern.marks)}, herm_tol)


def sector_project(op: LabeledOperator, s: SectorSet,
                   herm_tol: float = TOL_HERM) -> LabeledOperator:
    """Orthogonal projection of a Hermitian operator onto a sector set."""
    return _projected(op, s.systems, s.masks, herm_tol)


def outside_component(op: LabeledOperator, s: SectorSet,
                      herm_tol: float = TOL_HERM) -> LabeledOperator:
    """Component of a Hermitian operator outside the sectors and the identity.

    Equals ``op`` minus its all-identity component minus its projection onto
    ``s``; computed through whichever of the two complementary mask sets is
    smaller.
    """
    forbidden = frozenset(range(1 << len(s.systems))) - s.masks - {0}
    return _projected(op, s.systems, forbidden, herm_tol)


def pattern_norms(op: LabeledOperator, herm_tol: float = TOL_HERM) -> dict[Pattern, float]:
    """Squared Frobenius norm of every sector component of ``op``.

    Computed from partial-trace norms over all factor subsets and inclusion-
    exclusion, avoiding the explicit construction of each component.  The
    values sum to ``||op||_F^2`` (Parseval).
    """
    _check_hermitian(op, herm_tol)
    dims = op.dims
    k = len(dims)
    full = (1 << k) - 1
    # weights[live]: squared norm of the average over the factors not in ``live``
    weights = np.empty(1 << k)

    def explore(tens: np.ndarray, live: int, divisor: float, start: int) -> None:
        flat = tens.reshape(-1)
        weights[live] = float(np.vdot(flat, flat).real) / divisor
        for j in range(start, k):
            # only factors below ``start`` are traced out, so factor j sits
            # at the axis counting the live factors before it
            pos = (live & ((1 << j) - 1)).bit_count()
            traced = np.trace(tens, axis1=pos, axis2=pos + tens.ndim // 2)
            explore(traced, live & ~(1 << j), divisor * dims[j], j + 1)

    explore(op.data.reshape(dims + dims), full, 1.0, 0)
    # each weight is exact to about eps * ||op||^2 and a pattern sums up to
    # 2^k of them: values at or below that resolution are reported as 0
    resolution = (1 << k) * np.finfo(float).eps * weights[full]
    # inclusion-exclusion over live subsets, one factor per axis
    cube = weights.reshape((2,) * k)
    for axis in range(k):
        by_mark = np.moveaxis(cube, axis, 0)
        by_mark[1] -= by_mark[0]
    weights[weights <= resolution] = 0.0
    # axis i of the transposed cube is factor i, traceless at index 1
    by_factor = cube.T
    return {Pattern(tuple(TRL if bit else IDN for bit in idx)): float(by_factor[idx])
            for idx in np.ndindex(by_factor.shape)}
