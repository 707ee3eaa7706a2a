"""Membership oracles: deterministic-event checks, admissibility via
alternating projections, and the bidirectional-vs-ordinary classifier."""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Optional

import numpy as np

from .errors import NoHattedSystems
from .linalg import (TOL_HERM, TOL_PSD, LabeledOperator, _defect_and_support, _is_count,
                     _permuted, _positivity, check_tol, permute_systems)
from .sectors import (
    SectorSet,
    _complement,
    _idle_traced,
    _level_plan,
    _LevelPlan,
    _project,
    deviation_sectors,
    identity_coeff,
    network_characterization,
    outside_component,
    pattern_norms,
    sector_project,
)
from .typesys import NetworkSpec, SystemRegistry, SystemString, TypeExpr, dehat, has_hats

_NOISE_FLOOR = 1e-12


@dataclass
class CheckReport:
    """Structured verdict of a deterministic-membership test.

    ``sector_residual`` is the Frobenius norm of the part of ``R - coeff*1``
    lying outside the allowed sectors (the identity mismatch is reported
    through the lambda fields instead of being double counted here).
    ``forbidden_components`` lists the out-of-sector patterns carrying weight,
    largest first, and equal weights in the order of the pattern text.  It
    names patterns in the type's factor order, which ``permutation`` gives
    when the operator's order differs.
    ``psd_method`` names the positivity test that decided: with
    ``"cholesky"`` a factorization of ``R + psd_tol * 1`` on the rows of R
    that hold an entry (the other rows are ``psd_tol * 1``) succeeded and
    ``min_eigenvalue`` is the certified lower bound ``-psd_tol``; with
    ``"eigvalsh"`` it is the computed minimum eigenvalue.  ``herm_defect`` is
    exactly ``max |R - R^H|``, and beyond ``herm_tol`` it fails ``psd_ok`` and
    ``lambda_ok``.
    """

    verdict: str
    psd_ok: bool
    min_eigenvalue: float
    psd_method: str
    lambda_ok: bool
    lambda_expected: Fraction
    lambda_measured: float
    sector_residual: float
    forbidden_components: list[tuple[str, float]] = field(default_factory=list)
    permutation: Optional[tuple[str, ...]] = None
    herm_defect: float = 0.0

    @property
    def passed(self) -> bool:
        return self.verdict == "PASS"

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "psd_ok": self.psd_ok,
            "min_eigenvalue": self.min_eigenvalue,
            "psd_method": self.psd_method,
            "herm_defect": self.herm_defect,
            "lambda_ok": self.lambda_ok,
            "lambda_expected": str(self.lambda_expected),
            "lambda_measured": self.lambda_measured,
            "sector_residual": self.sector_residual,
            "forbidden_components": [[p, n] for p, n in self.forbidden_components],
            "permutation": list(self.permutation) if self.permutation else None,
        }

    def psd_text(self) -> str:
        """The positivity verdict and what decided it, in words."""
        if not self.psd_ok and self.psd_method == "cholesky":
            # the spectrum is certified, so only the hermiticity gate failed
            return f"FAILED, not Hermitian (defect {self.herm_defect:.3e})"
        if self.psd_method == "cholesky":
            bound = f"min eigenvalue ≥ {self.min_eigenvalue:.3e} (Cholesky certificate)"
        else:
            bound = f"min eigenvalue {self.min_eigenvalue:.3e}"
        return f"{'ok' if self.psd_ok else 'FAILED'}, {bound}"

    def to_text(self) -> str:
        lines = [
            f"verdict:          {self.verdict}",
            f"psd:              {self.psd_text()}",
            f"identity coeff:   {'ok' if self.lambda_ok else 'FAILED'} "
            f"(expected {self.lambda_expected} = {float(self.lambda_expected):.9g}, "
            f"measured {self.lambda_measured:.9g})",
            f"sector residual:  {self.sector_residual:.3e}",
        ]
        if self.forbidden_components:
            lines.append("out-of-sector components:")
            for pat, norm in self.forbidden_components:
                lines.append(f"  {pat}   norm {norm:.6e}")
        if self.permutation:
            lines.append(f"factors permuted to: {' '.join(self.permutation)}")
        return "\n".join(lines)


@dataclass
class AdmissibilityResult:
    """Verdict of :func:`is_admissible`.

    ``residual`` is the gap ``||y - x||_F`` between the last PSD iterate and
    the last affine one, after ``iterations`` iterations.  When the iteration
    stopped on a Farkas bound, ``gap_bound`` is that bound, at least twice the
    tolerance, below which no later gap can fall, and ``certificate`` the
    matrix Z that proves it: PSD and orthogonal to the allowed sectors, over
    the type's factors in the type's order, as a FEASIBLE ``witness`` is.
    Both are None otherwise.
    """

    status: str  # FEASIBLE / NOT_ADMISSIBLE / UNDECIDED
    witness: Optional[LabeledOperator] = None
    reason: str = ""
    residual: float = 0.0
    iterations: int = 0
    gap_bound: Optional[float] = None
    certificate: Optional[np.ndarray] = None

    @property
    def feasible(self) -> bool:
        return self.status == "FEASIBLE"

    def to_dict(self) -> dict:
        return {"status": self.status, "residual": self.residual,
                "iterations": self.iterations, "gap_bound": self.gap_bound,
                "reason": self.reason}

    def to_text(self) -> str:
        bound = "" if self.gap_bound is None else f", gap bound {self.gap_bound:.3e}"
        return (f"{self.status} (residual {self.residual:.3e}, {self.iterations} iterations"
                f"{bound}) {self.reason}")


@dataclass
class Classification:
    verdict: str  # BOTH / BISTOCH_ONLY / NEITHER
    forbidden: list[tuple[str, float]]
    bistoch_report: CheckReport
    standard_report: CheckReport


def check_operator(op: LabeledOperator, coeff: Fraction, sectors: SectorSet,
                   tol: float = 1e-9, psd_tol: float = TOL_PSD,
                   herm_tol: float = TOL_HERM) -> CheckReport:
    """Core deterministic-event test against a known characterization.

    Runs in ``op``'s factor order, which may be any order of the sector
    set's; other labels or dimensions raise :class:`FactorMismatch` before
    any arithmetic.  Checks positivity, the identity coefficient (relatively,
    so one tolerance serves all dimensions), and that the traceless part lies
    in the allowed sectors.  Raises :class:`NonFiniteOperator` on NaN or
    infinite entries.
    """
    plan = _level_plan(sectors, op.factors)  # FactorMismatch here, not after the front half
    r, live, fields, scale = _front_half(op, coeff, tol, psd_tol, herm_tol)
    return _back_half(_idle_traced(r, plan, live), fields, scale, plan, tol)


def _front_half(op: LabeledOperator, coeff: Fraction, tol: float, psd_tol: float,
                herm_tol: float) -> tuple[LabeledOperator, np.ndarray | None, dict, float]:
    """The operator the sector test measures, in ``op``'s own factor order,
    its live rows, the fields hermiticity, positivity and the identity
    coefficient decide, and the scale ``1 + ||R - coeff*1||_F`` of the
    sector test's noise floor.

    The operator is ``op`` itself when its hermiticity defect is 0, since
    ``op`` then equals its Hermitian part; otherwise it is the Hermitian
    part.  The live rows are those :func:`hoq.linalg._sparse_support` gives,
    found once: the hermiticity scan's rows serve ``op``, for this check
    only.  One call of :func:`hoq.linalg._positivity` gives that part, its
    rows, its positivity and ``||R||_F^2``, and with ``tr R``, read for the
    coefficient, ``||R - coeff*1||_F^2`` follows: the deviation is never
    formed.  So the front half holds no operator-sized array besides ``op``
    for an exactly Hermitian operator with at most half its rows live, and
    one otherwise; the back half then holds none, or one when
    :func:`_back_half`'s Z is empty.  Every tolerance is checked before any
    of that.
    """
    check_tol("tol", tol)
    check_tol("herm_tol", herm_tol)
    check_tol("psd_tol", psd_tol)
    herm_defect, live = _defect_and_support(op)
    sym, live, norm_sq, min_eig, spectrum_ok, psd_method = _positivity(op, herm_defect, live,
                                                                       psd_tol)
    herm_ok = herm_defect <= herm_tol
    expected = float(coeff)
    trace = float(np.trace(op.data).real)
    # ||R - c*1||^2 = ||R||^2 - 2c tr R + c^2 D; where the terms cancel, the 1
    # dominates the scale
    scale = 1.0 + math.sqrt(max(norm_sq - 2 * expected * trace + expected ** 2 * op.dim, 0.0))

    measured = trace / op.dim
    lambda_ok = herm_ok and abs(measured - expected) <= tol * expected
    fields = dict(psd_ok=herm_ok and spectrum_ok, min_eigenvalue=min_eig,
                  psd_method=psd_method, herm_defect=herm_defect, lambda_ok=lambda_ok,
                  lambda_expected=coeff, lambda_measured=measured)
    measured_op = op if herm_defect == 0 else LabeledOperator(op.factors, sym)
    return measured_op, live, fields, scale


def _back_half(averaged: LabeledOperator, fields: dict, scale: float, plan: _LevelPlan,
               tol: float) -> CheckReport:
    """Sector residual and out-of-sector breakdown of an operator R against
    the level ``plan``, :func:`hoq.sectors._level_plan` of its sector set in
    R's factor order, and the verdict; patterns are named in the set's
    order, which the report's ``permutation`` gives when it differs.

    The identity pattern is never forbidden, so ``R`` and ``R - coeff*1`` have
    the same outside component.  Every forbidden pattern marks the factors Z
    identity (the global future, in every level that has one), so it is
    ``Y (x) 1_Z``: ``Y`` is taken on ``averaged``, R averaged over Z by
    :func:`hoq.sectors._idle_traced`, d_Z^2 times smaller, and its squared
    norm and pattern weights times d_Z are those of the component.  Z, the
    allowed set over the other factors and the texts of the forbidden
    patterns come from the plan, worked out once per level and factor
    order.  ``scale`` is the front half's ``1 + ||R - coeff*1||_F``.
    """
    outside = outside_component(averaged, plan.allowed, herm_tol=np.inf)
    residual = math.sqrt(plan.idle_dim * float(np.vdot(outside.data, outside.data).real))

    forbidden = []
    if residual > _NOISE_FLOOR * scale:
        norms = (pattern_norms(outside, herm_tol=np.inf) * plan.idle_dim).tolist()
        for mask, text in plan.forbidden:
            norm = math.sqrt(norms[mask])
            if norm > _NOISE_FLOOR * scale:
                forbidden.append((text, norm))
        # norms equal to 12 digits tie and the pattern text orders them, so
        # last-bit rounding does not decide the order
        forbidden.sort(key=lambda item: (-float(f"{item[1]:.12g}"), item[0]))

    ok = fields["psd_ok"] and fields["lambda_ok"] and residual <= tol
    return CheckReport(verdict="PASS" if ok else "FAIL", sector_residual=residual,
                       forbidden_components=forbidden, permutation=plan.permutation,
                       **fields)


def characterization_of(t, reg: SystemRegistry):
    """(coefficient, sectors) for a type or a network specification."""
    if isinstance(t, NetworkSpec):
        return network_characterization(t.slot_types, t.memories[0], t.memories[-1], reg)
    return identity_coeff(t, reg), deviation_sectors(t, reg)


def is_deterministic(op: LabeledOperator, t, reg: SystemRegistry,
                     tol: float = 1e-9, psd_tol: float = TOL_PSD,
                     herm_tol: float = TOL_HERM) -> CheckReport:
    """Test whether ``op`` is a deterministic event of type ``t``.

    ``t`` may also be a network specification.  The operator's factors may
    come in any order of the type's; the check runs in that order, as
    :func:`check_operator` does, and the report records the type's order.
    """
    coeff, sectors = characterization_of(t, reg)
    return check_operator(op, coeff, sectors, tol=tol, psd_tol=psd_tol, herm_tol=herm_tol)


def classify(op: LabeledOperator, t: TypeExpr, reg: SystemRegistry,
             tol: float = 1e-9, psd_tol: float = TOL_PSD,
             herm_tol: float = TOL_HERM) -> Classification:
    """Locate an operator relative to the two hierarchies.

    Checks ``t`` in the bidirectional hierarchy and the dehatted type in the
    ordinary one.  Dehatting keeps the factor order and the coefficient, so
    only the sector test runs twice, on one average over Z when the two
    levels have the same Z.  BISTOCH_ONLY verdicts come with the
    sector patterns (with weights) that are allowed for bidirectional events
    but forbidden for ordinary ones.
    """
    coeff, bi_sectors, std_sectors, gap_texts = _classification_plan(t, reg)
    # FactorMismatch before the front half
    bi_plan, std_plan = (_level_plan(s, op.factors) for s in (bi_sectors, std_sectors))
    r, live, fields, scale = _front_half(op, coeff, tol, psd_tol, herm_tol)
    bi_averaged = _idle_traced(r, bi_plan, live)
    std_averaged = (bi_averaged if std_plan.idle == bi_plan.idle
                    else _idle_traced(r, std_plan, live))
    bi = _back_half(bi_averaged, fields, scale, bi_plan, tol)
    std = _back_half(std_averaged, fields, scale, std_plan, tol)
    if not bi.passed or std.passed:
        return Classification("BOTH" if bi.passed else "NEITHER", [], bi, std)
    forbidden = [(pat, norm) for pat, norm in std.forbidden_components if pat in gap_texts]
    return Classification("BISTOCH_ONLY", forbidden, bi, std)


@lru_cache(maxsize=256)
def _classification_plan(t: TypeExpr, reg: SystemRegistry):
    """The coefficient, the sector sets of ``t`` and of its dehatted type, and
    the texts of the patterns only the first allows: fixed by the type, so
    worked out once.  Raises :class:`NoHattedSystems` for a type without hats."""
    if not has_hats(t):
        raise NoHattedSystems("classification requires at least one hatted pair")
    coeff, bi_sectors = characterization_of(t, reg)
    std_coeff, std_sectors = characterization_of(dehat(t), reg)
    assert std_coeff == coeff and std_sectors.systems == bi_sectors.systems
    gap = SectorSet(bi_sectors.systems, bi_sectors.masks - std_sectors.masks)
    return coeff, bi_sectors, std_sectors, frozenset(gap.texts())


# ---------------------------------------------------------------------------
# Admissibility
# ---------------------------------------------------------------------------

def _project_psd(mat: np.ndarray) -> np.ndarray:
    # eigh reads one triangle, so a rounding-level skew in ``mat`` drops out
    vals, vecs = np.linalg.eigh(mat)
    clipped = np.clip(vals, 0.0, None)
    return (vecs * clipped) @ vecs.conj().T


def _gap_bound(displacement: np.ndarray, offset: np.ndarray) -> tuple[float, np.ndarray]:
    """A lower bound on ``||y - x||_F`` over every PSD ``y`` and every ``x``
    in ``offset + V``, and the matrix Z that proves it.

    ``displacement`` is the loop's ``y - x``, with ``x = offset + P_V(y)``:
    it equals ``P_V-perp(y) - offset`` and so lies in V-perp already, as
    ``offset`` does.  Z is its Hermitian part, raised by its lowest
    eigenvalue when that is negative: the identity lies in V-perp, so Z is
    PSD and orthogonal to V.  Then ``<Z, y - x> = <Z, y> - <Z, offset> >=
    -<Z, offset>``, and by Cauchy-Schwarz the gap is at least
    ``-<Z, offset> / ||Z||_F``; the bound is -inf when Z is 0.
    """
    z = (displacement + displacement.conj().T) / 2
    low = float(np.linalg.eigvalsh(z)[0])
    if low < 0:
        z.reshape(-1)[::len(z) + 1] -= low
    norm = float(np.linalg.norm(z))
    return (-float(np.vdot(z, offset).real) / norm if norm else -np.inf), z


def is_admissible(op: LabeledOperator, t: TypeExpr, reg: SystemRegistry,
                  tol: float = 1e-7, max_iter: int = 5000,
                  psd_tol: float = TOL_PSD,
                  herm_tol: float = TOL_HERM) -> AdmissibilityResult:
    """Decide whether some deterministic event of type ``t`` dominates ``op``.

    Operators that fail the check's hermiticity (``herm_tol``) or positivity
    (``psd_tol``) gate are rejected outright.  Elementary system strings
    admit the exact trace test.  Otherwise the feasibility problem is solved
    by Dykstra's alternating projections on ``Y = D - op`` between the PSD
    cone and the affine set ``coeff*1 - op + allowed deviations``; FEASIBLE
    verdicts return the witness ``D`` in the type's factor order, once
    :func:`check_operator` confirms it at ``max(10 * tol, 1e-8)``, and
    UNDECIDED is an honest outcome when the iteration does not settle.  At
    iterations 1, 2, 4, 8, ... the displacement ``y - x`` gives a Farkas
    bound (:func:`_gap_bound`) that every later gap is at least; once it is
    ``2 * tol`` or more, the gap can never fall below ``tol``, and the
    iteration stops there with UNDECIDED, the bound and its certificate.  The
    work runs in ``op``'s factor order; only the witness and the certificate
    are permuted.  Raises
    :class:`NonFiniteOperator` on NaN or infinite entries, ValueError unless
    ``max_iter`` is an integer >= 1 (not a boolean), and on a bad tolerance.
    """
    if not _is_count(max_iter):
        raise ValueError(f"max_iter must be an integer >= 1, got {max_iter!r}")
    coeff, sectors = characterization_of(t, reg)
    masks = sectors.reorder(op.factors).masks
    r, _, fields, _ = _front_half(op, coeff, tol, psd_tol, herm_tol)
    if not fields["psd_ok"]:
        if not fields["herm_defect"] <= herm_tol:
            reason = f"operator not Hermitian (defect {fields['herm_defect']:.3e})"
        else:
            reason = f"operator not PSD (min eigenvalue {fields['min_eigenvalue']:.3e})"
        return AdmissibilityResult("NOT_ADMISSIBLE", reason=reason)

    if isinstance(t, SystemString):
        trace = fields["lambda_measured"] * op.dim
        if trace <= 1.0 + tol:
            data = r.data.copy()
            data.reshape(-1)[::op.dim + 1] += max(1 - trace, 0) / op.dim
            witness = permute_systems(LabeledOperator(op.factors, data), sectors.labels)
            return AdmissibilityResult("FEASIBLE", witness=witness,
                                       reason="trace test for elementary states")
        return AdmissibilityResult(
            "NOT_ADMISSIBLE",
            reason=f"trace {trace:.6g} exceeds 1: no deterministic state dominates")

    # the affine set is a + V (a = coeff*1 - op, V the allowed sectors): its projection
    # is P_V-perp(a) + P_V, and Dykstra's correction for it lies in V-perp; the
    # identity pattern lies in V-perp, so P_V-perp(a) = coeff*1 - P_V-perp(op)
    dims = op.dims
    outside = _complement(len(dims), masks)
    offset = -_project(r.data, dims, outside)
    offset.reshape(-1)[::op.dim + 1] += float(coeff)

    x = np.zeros_like(offset)
    p = np.zeros_like(offset)
    gap = np.inf
    iterations = 0
    for iterations in range(1, max_iter + 1):
        y = _project_psd(x + p)
        p = x + p - y
        x = offset + _project(y, dims, masks)
        displacement = y - x
        gap = float(np.linalg.norm(displacement))
        if gap < tol:
            break
        if iterations & (iterations - 1) == 0:
            # the factor 2 leaves room for the rounding of the bound itself
            bound, z = _gap_bound(displacement, offset)
            if bound >= 2 * tol:
                certificate = _permuted(z, dims, [op.labels.index(lab) for lab in sectors.labels])
                return AdmissibilityResult(
                    "UNDECIDED", residual=gap, iterations=iterations, gap_bound=bound,
                    certificate=certificate,
                    reason="a Farkas bound shows that the gap cannot fall below tol")
    if gap < tol:
        # witness = op + PSD part of x, so domination holds by construction
        # and only the membership of the witness needs confirming
        witness = LabeledOperator(op.factors, r.data + _project_psd(x))
        report = check_operator(witness, coeff, sectors, tol=max(tol * 10, 1e-8))
        if report.passed:
            return AdmissibilityResult("FEASIBLE", witness=permute_systems(witness, sectors.labels),
                                       residual=gap, iterations=iterations)
    return AdmissibilityResult("UNDECIDED", residual=gap, iterations=iterations,
                               reason="alternating projections did not certify feasibility")


# ---------------------------------------------------------------------------
# Test-input generation
# ---------------------------------------------------------------------------

def random_hermitian(dim: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (g + g.conj().T) / 2


def sample_deterministic(t, reg: SystemRegistry,
                         eps: float = 0.5, seed: int = 0) -> LabeledOperator:
    """Seeded random deterministic event of type ``t``.

    Starts from ``coeff * identity``, adds a random deviation projected onto
    the allowed sectors, and scales it so the minimum eigenvalue stays at
    least ``(1 - eps) * coeff``.  ``eps = 0`` returns the exact identity
    event; every output passes :func:`is_deterministic`.
    """
    if not 0.0 <= eps < 1.0:
        raise ValueError("eps must lie in [0, 1)")
    coeff, sectors = characterization_of(t, reg)
    dim = math.prod(d for _, d in sectors.systems)
    base = float(coeff) * np.eye(dim)
    op = LabeledOperator(sectors.systems, base)
    if eps == 0.0 or not sectors.masks:
        return op
    rng = np.random.default_rng(seed)
    noise = LabeledOperator(sectors.systems, random_hermitian(dim, rng))
    # the projection of exactly Hermitian noise is exactly Hermitian
    dev = sector_project(noise, sectors).data
    low = float(np.linalg.eigvalsh(dev)[0])
    if low >= -1e-15:
        scale = 1.0
    else:
        scale = eps * float(coeff) / abs(low)
    return LabeledOperator(sectors.systems, base + scale * dev)
