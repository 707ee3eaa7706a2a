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
from enum import Enum
from fractions import Fraction
from functools import lru_cache, reduce
from operator import or_
from typing import NamedTuple, Sequence

import numpy as np

from .errors import FactorMismatch
from .linalg import TOL_HERM, LabeledOperator, _combine_identity, _require_hermitian, _trace_factor
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


def _permute_mask(mask: int, perm) -> int:
    """The mask whose bit ``j`` is bit ``perm[j]`` of ``mask``."""
    return sum((mask >> p & 1) << j for j, p in enumerate(perm))


def _mask_text(mask: int, systems) -> str:
    """A pattern as text, ``label:T`` or ``label:I`` per factor."""
    return " ".join(f"{lab}:{TRL if mask >> i & 1 else IDN}" for i, (lab, _) in enumerate(systems))


class SectorSet:
    """A union of mutually orthogonal sector patterns over named systems.

    Each pattern is a bitmask, bit ``i`` set when factor ``i`` is traceless,
    which keeps the subspace arithmetic exact and cheap.
    """

    __slots__ = ("systems", "masks")

    def __init__(self, systems, masks):
        self.systems = tuple(systems)
        self.masks = frozenset(masks)
        if any(m >> len(self.systems) for m in self.masks):
            raise ValueError("pattern mask out of range for system count")

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(lab for lab, _ in self.systems)

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

    def reorder(self, order: Sequence) -> "SectorSet":
        """The same subspace over ``order``: labels, or ``(label, dim)`` factors
        such as an operator's, whose dimensions must then agree.  Raises
        :class:`FactorMismatch` unless ``order`` is a permutation of the
        factors; returns this set for its own order."""
        return _reordered(self, tuple(f if isinstance(f, str) else tuple(f) for f in order))

    def texts(self) -> list[str]:
        """Deterministic rendering, traceless marks sorting first."""
        k = len(self.systems)
        masks = sorted(self.masks, key=lambda m: tuple(~m >> i & 1 for i in range(k)))
        return [_mask_text(m, self.systems) for m in masks]


@lru_cache(maxsize=256)
def _reordered(s: SectorSet, order: tuple) -> SectorSet:
    """:meth:`SectorSet.reorder`, cached: every check matches its type's set
    to the operator's order, and a type's set comes from a cache itself."""
    labels = tuple(f if isinstance(f, str) else f[0] for f in order)
    if sorted(labels) != sorted(s.labels):
        raise FactorMismatch(f"operator factors {labels} do not match systems {s.labels}")
    # ``labels == order`` exactly when ``order`` names no dimensions
    if labels != order and dict(order) != dict(s.systems):
        raise FactorMismatch(f"factor dimensions {order} disagree with systems {s.systems}")
    if labels == s.labels:
        return s
    perm = [s.labels.index(lab) for lab in labels]
    return SectorSet(tuple(s.systems[i] for i in perm), {_permute_mask(m, perm) for m in s.masks})


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
    return _network_cached(tuple(slot_types), e0, en, reg)


@lru_cache(maxsize=256)
def _network_cached(slot_types: tuple, e0: str, en: str,
                    reg: SystemRegistry) -> tuple[Fraction, SectorSet]:
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
    infinite entries; ``np.inf`` skips the measurement, and any other
    tolerance that is not finite and ``>= 0`` raises ValueError."""
    if herm_tol != np.inf:
        _require_hermitian(op, herm_tol)


def _is_zero(a: np.ndarray) -> bool:
    """True when every entry of the matrix ``a`` is exactly 0 (NaN is not).

    The first row is read first: in a dense matrix it already holds an
    entry, and the rest is not read.
    """
    return not a[0].any() and not a.any()


@lru_cache(maxsize=4096)
def _split(width: int, masks: frozenset) -> tuple[int, frozenset, frozenset]:
    """One step of :func:`_project_masks` on ``masks`` over ``width`` factors:
    the factor it traces out, counted from the first, and the mask sets of
    its high (traceless) and low (identity) branches.

    The factor is the highest one that every mask marks identity, else the
    first, whose traceless masks form the high branch; with an idle factor
    the high branch is empty.  A level's mask sets are fixed, so each step is
    worked out once.
    """
    marked = 0
    for m in masks:
        marked |= m
    idle = ~marked & ((1 << width) - 1)
    i = max(idle.bit_length() - 1, 0)
    below = (1 << i) - 1
    high = frozenset() if idle else frozenset(m >> 1 for m in masks if m & 1)
    low = frozenset(m & below | m >> 1 & ~below for m in masks if not m >> i & 1)
    return i, high, low


def _project_masks(data: np.ndarray, dims: tuple, pos: int, masks: frozenset, owned=False):
    """Project onto the union of sector masks over factors pos..k-1.

    A factor that every mask marks identity is traced out, the recursion
    runs on the matrix d^2 times smaller, and its result is embedded back as
    ``(x) 1``; the highest such factor goes first, at every level.  With
    none, the factor at ``pos`` splits into its identity average and the
    traceless complement, and the identity branch recurses on the
    traced-out matrix (:func:`_split`).  So full-size arithmetic happens only
    along runs of traceless factors; empty branches return None and full
    branches return their input unchanged.  Results are formed in ``data``
    itself when the call ``owned`` it, else in one new array, and identity
    branches are added into them block by block, so a projection costs at
    most one full-size array.  The recursion stops at exactly zero arrays,
    since every projection of 0 is 0: a zero identity average is neither
    subtracted nor recursed on, and a zero traceless branch returns None.
    """
    k = len(dims)
    if not masks:
        return None
    if len(masks) == 1 << (k - pos):
        return data
    i, high, low = _split(k - pos, masks)
    traced = pos + i
    small = _trace_factor(data, dims, traced)
    small /= dims[traced]
    no_identity = _is_zero(small)

    out = None
    if high:
        out = data if owned else data.copy()
        if not no_identity:
            _combine_identity(np.subtract, out, small, dims, pos)
        out = None if _is_zero(out) else _project_masks(out, dims, pos + 1, high, owned=True)

    if no_identity:
        return out
    low_small = _project_masks(small, dims[:traced] + dims[traced + 1:], pos, low, owned=True)
    if low_small is None:
        return out
    if out is None:
        out = data if owned else np.empty_like(data)
        out.fill(0)
    _combine_identity(np.add, out, low_small, dims, traced)
    return out


class _LevelPlan(NamedTuple):
    """What a check of one level in one factor order needs besides the
    operator; see :func:`_level_plan`."""

    idle: tuple[int, ...]
    factors: tuple[tuple[str, int], ...]
    allowed: SectorSet
    idle_dim: int
    forbidden: tuple[tuple[int, str], ...]
    permutation: tuple[str, ...] | None


@lru_cache(maxsize=256)
def _level_plan(s: SectorSet, order: tuple) -> _LevelPlan:
    """The sector test's plan for the level ``s``, a type's set, on an
    operator with factors ``order``.

    Z, the factors that every pattern outside ``s`` and the identity marks
    identity, are ``idle``, by position in ``order`` and highest first; the
    other factors are ``factors``, and ``allowed`` is ``s`` over them (the
    patterns that mark a factor of Z traceless drop out), with ``d_Z`` as
    ``idle_dim``.  ``forbidden`` pairs each other pattern over ``factors``
    but the identity, by mask, with its text in ``s``' order, and
    ``permutation`` is ``s``' labels when ``order``'s differ, else None.  The
    plan depends on the two exact arguments only, so a level's bookkeeping
    is done once.  Raises :class:`FactorMismatch` unless ``order`` is an
    order of ``s``' factors.
    """
    in_order = s.reorder(order)
    k = len(order)
    marked = reduce(or_, _forbidden(in_order), 0)
    kept = [i for i in range(k) if marked >> i & 1]
    idle = tuple(i for i in reversed(range(k)) if not marked >> i & 1)
    factors = tuple(in_order.systems[i] for i in kept)
    allowed = SectorSet(factors, {_permute_mask(m, kept) for m in in_order.masks
                                  if m & marked == m})
    idle_dim = math.prod(in_order.systems[i][1] for i in idle)
    # bit len(factors) of a mask is 0: identity at every factor of Z
    labels = [lab for lab, _ in factors]
    where = [labels.index(lab) if lab in labels else len(labels) for lab in s.labels]
    forbidden = tuple((mask, _mask_text(_permute_mask(mask, where), s.systems))
                      for mask in sorted(_forbidden(allowed)))
    permutation = None if in_order.labels == s.labels else s.labels
    return _LevelPlan(idle, factors, allowed, idle_dim, forbidden, permutation)


def _idle_traced(op: LabeledOperator, plan: _LevelPlan) -> LabeledOperator:
    """``op`` averaged over the factors Z of ``plan``, highest first as in
    :func:`_project_masks`; ``op`` itself when Z is empty.

    A matrix is averaged by :func:`hoq.linalg._trace_factor`, one factor of
    Z at a time, each on the matrix the last one left.

    An operator that carries its vector v is ``|v><v|``, so its average is
    ``M M^H / d_Z``, with M the ``(D/d_Z) x d_Z`` matrix of v's entries, Z's
    axes moved last: one small product, and no read of the matrix.  For a
    0/1 vector every sum is exact, and the bytes are those of the matrix's
    average.
    """
    if not plan.idle:
        return op
    if op.vector is not None:
        k = len(op.dims)
        tens = np.moveaxis(op.vector.reshape(op.dims), plan.idle,
                           range(k - len(plan.idle), k))
        m = tens.reshape(-1, plan.idle_dim)
        data = m @ m.conj().T
        data /= plan.idle_dim
        return LabeledOperator(plan.factors, data)
    data, dims = op.data, op.dims
    for pos in plan.idle:
        data = _trace_factor(data, dims, pos)
        data /= dims[pos]
        dims = dims[:pos] + dims[pos + 1:]
    return LabeledOperator(plan.factors, data)


@lru_cache(maxsize=1024)
def _complement(k: int, masks: frozenset) -> frozenset:
    """The masks over ``k`` factors that are not in ``masks``."""
    return frozenset(range(1 << k)) - masks


@lru_cache(maxsize=256)
def _forbidden(s: SectorSet) -> frozenset:
    """The masks outside ``s`` and the identity."""
    return _complement(len(s.systems), s.masks) - {0}


def _project(data: np.ndarray, dims: tuple, masks) -> np.ndarray:
    """Projection onto ``masks``, through the complement when that set is smaller.

    The projection allocates one full-size array besides ``data``, and
    ``data`` is never written.
    """
    masks = frozenset(masks)
    complement = _complement(len(dims), masks)
    through_complement = len(complement) < len(masks)
    out = _project_masks(data, dims, 0, complement if through_complement else masks)
    if through_complement:
        # the complement is a proper subset, so ``out`` is a new array, or None
        # when the complement's component is exactly 0
        return data if out is None else np.subtract(data, out, out=out)
    return np.zeros_like(data) if out is None else out


def _projected(op: LabeledOperator, masks, herm_tol: float) -> LabeledOperator:
    """Projection of ``op`` onto ``masks`` over its own factors, in their order."""
    _check_hermitian(op, herm_tol)
    return LabeledOperator(op.factors, _project(op.data, op.dims, masks))


def sector_project(op: LabeledOperator, s: SectorSet,
                   herm_tol: float = TOL_HERM) -> LabeledOperator:
    """Orthogonal projection of a Hermitian operator onto a sector set.

    The set is matched to ``op``'s factor order, so ``op`` is never permuted.
    """
    return _projected(op, s.reorder(op.factors).masks, herm_tol)


def outside_component(op: LabeledOperator, s: SectorSet,
                      herm_tol: float = TOL_HERM) -> LabeledOperator:
    """Component of a Hermitian operator outside the sectors and the identity.

    Equals ``op`` minus its all-identity component minus its projection onto
    ``s``; computed through whichever of the two complementary mask sets is
    smaller, in ``op``'s factor order as :func:`sector_project` is.
    """
    return _projected(op, _forbidden(s.reorder(op.factors)), herm_tol)


def pattern_norms(op: LabeledOperator, herm_tol: float = TOL_HERM) -> np.ndarray:
    """Squared Frobenius norm of every sector component of ``op``, indexed by
    the component's mask in ``op``'s factor order.

    Computed from partial-trace norms over all factor subsets and inclusion-
    exclusion, avoiding the explicit construction of each component.  The
    values sum to ``||op||_F^2`` (Parseval).
    """
    _check_hermitian(op, herm_tol)
    dims = op.dims
    k = len(dims)
    full = (1 << k) - 1
    # weights[live]: squared norm of the average over the factors not in ``live``;
    # the walk stops at an exactly zero matrix, whose partial traces are all 0
    weights = np.zeros(1 << k)

    def explore(mat: np.ndarray, live_dims: tuple, live: int, divisor: float,
                start: int) -> None:
        flat = mat.reshape(-1)
        weights[live] = float(np.vdot(flat, flat).real) / divisor
        if weights[live] == 0.0 and _is_zero(mat):
            return
        for j in range(start, k):
            # only factors below ``start`` are traced out, so factor j sits
            # at the position counting the live factors before it
            pos = (live & ((1 << j) - 1)).bit_count()
            explore(_trace_factor(mat, live_dims, pos), live_dims[:pos] + live_dims[pos + 1:],
                    live & ~(1 << j), divisor * dims[j], j + 1)

    explore(op.data, dims, full, 1.0, 0)
    # each weight is exact to about eps * ||op||^2 and a pattern sums up to
    # 2^k of them: values at or below that resolution are reported as 0
    resolution = (1 << k) * np.finfo(float).eps * weights[full]
    # inclusion-exclusion over live subsets, one factor per axis
    cube = weights.reshape((2,) * k)
    for axis in range(k):
        by_mark = np.moveaxis(cube, axis, 0)
        by_mark[1] -= by_mark[0]
    weights[weights <= resolution] = 0.0
    # weights[m] is now the component traceless on the factors set in m
    return weights
