"""Membership oracles: deterministic-event checks, admissibility via
alternating projections, and the bidirectional-vs-ordinary classifier."""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import numpy as np

from .errors import NoHattedSystems
from .linalg import TOL_HERM, TOL_PSD, LabeledOperator, align_factors, hermitian_part
from .sectors import (
    Hierarchy,
    SectorSet,
    deviation_sectors,
    identity_coeff,
    network_characterization,
    outside_component,
    pattern_norms,
    sector_project,
)
from .typesys import SystemRegistry, SystemString, TypeExpr, dehat, has_hats

_NOISE_FLOOR = 1e-12


@dataclass
class CheckReport:
    """Structured verdict of a deterministic-membership test.

    ``sector_residual`` is the Frobenius norm of the part of ``R - coeff*1``
    lying outside the allowed sectors (the identity mismatch is reported
    through the lambda fields instead of being double counted here).
    ``forbidden_components`` lists the out-of-sector patterns carrying weight,
    largest first.  ``psd_method`` names the positivity test that decided:
    with ``"cholesky"`` a factorization of ``R + psd_tol * 1`` succeeded and
    ``min_eigenvalue`` is the certified lower bound ``-psd_tol``; with
    ``"eigvalsh"`` it is the computed minimum eigenvalue.
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

    @property
    def passed(self) -> bool:
        return self.verdict == "PASS"

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "psd_ok": self.psd_ok,
            "min_eigenvalue": self.min_eigenvalue,
            "psd_method": self.psd_method,
            "lambda_ok": self.lambda_ok,
            "lambda_expected": str(self.lambda_expected),
            "lambda_measured": self.lambda_measured,
            "sector_residual": self.sector_residual,
            "forbidden_components": [[p, n] for p, n in self.forbidden_components],
            "permutation": list(self.permutation) if self.permutation else None,
        }

    def min_eigenvalue_text(self) -> str:
        if self.psd_method == "cholesky":
            return f"min eigenvalue ≥ {self.min_eigenvalue:.3e} (Cholesky certificate)"
        return f"min eigenvalue {self.min_eigenvalue:.3e}"

    def to_text(self) -> str:
        lines = [
            f"verdict:          {self.verdict}",
            f"psd:              {'ok' if self.psd_ok else 'FAILED'}, {self.min_eigenvalue_text()}",
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
    status: str  # FEASIBLE / NOT_ADMISSIBLE / UNDECIDED
    witness: Optional[LabeledOperator] = None
    reason: str = ""
    residual: float = 0.0
    iterations: int = 0

    @property
    def feasible(self) -> bool:
        return self.status == "FEASIBLE"


@dataclass
class Classification:
    verdict: str  # BOTH / BISTOCH_ONLY / NEITHER
    forbidden: list[tuple[str, float]]
    bistoch_report: CheckReport
    standard_report: CheckReport


def _psd_status(sym: np.ndarray, psd_tol: float) -> tuple[float, bool, str]:
    """Minimum eigenvalue, positivity verdict and the method that decided.

    A Cholesky factorization of ``sym + psd_tol * 1`` certifies positivity
    and reports the lower bound ``-psd_tol``; only when it fails does
    ``eigvalsh`` find the exact minimum.  The shift is applied to the
    diagonal of ``sym`` in place and undone exactly before returning.
    """
    diag = sym.reshape(-1)[::sym.shape[0] + 1]
    saved = diag.copy()
    diag += psd_tol
    try:
        np.linalg.cholesky(sym)
        certified = True
    except np.linalg.LinAlgError:
        certified = False
    finally:
        diag[:] = saved
    if certified:
        return -psd_tol, True, "cholesky"
    min_eig = float(np.linalg.eigvalsh(sym)[0])
    return min_eig, min_eig >= -psd_tol, "eigvalsh"


def check_operator(op: LabeledOperator, coeff: Fraction, sectors: SectorSet,
                   tol: float = 1e-9, psd_tol: float = TOL_PSD,
                   herm_tol: float = TOL_HERM,
                   permutation: Optional[tuple[str, ...]] = None) -> CheckReport:
    """Core deterministic-event test against a known characterization.

    The operator must already be in the sector set's factor order.  Checks
    positivity, the identity coefficient (relatively, so one tolerance serves
    all dimensions), and that the traceless part lies in the allowed sectors.
    Raises :class:`NonFiniteOperator` on NaN or infinite entries.
    """
    sym, herm_defect = hermitian_part(op)
    min_eig, spectrum_ok, psd_method = _psd_status(sym, psd_tol)
    psd_ok = herm_defect <= herm_tol and spectrum_ok

    expected = float(coeff)
    measured = float(np.trace(op.data).real) / op.dim
    lambda_ok = herm_defect <= herm_tol and abs(measured - expected) <= tol * expected

    # sym becomes the deviation R - coeff * 1
    sym.reshape(-1)[::op.dim + 1] -= expected
    deviation = LabeledOperator(op.factors, sym)
    outside = outside_component(deviation, sectors, tol_herm=np.inf)
    residual = float(np.linalg.norm(outside.data))
    scale = 1.0 + float(np.linalg.norm(deviation.data))

    forbidden = []
    if residual > _NOISE_FLOOR * scale:
        norms = pattern_norms(outside, tol_herm=np.inf)
        for pattern, sq in norms.items():
            if pattern.all_identity or pattern in sectors:
                continue
            norm = math.sqrt(sq)
            if norm > _NOISE_FLOOR * scale:
                forbidden.append((pattern.text(sectors.systems), norm))
        forbidden.sort(key=lambda item: -item[1])

    ok = psd_ok and lambda_ok and residual <= tol
    return CheckReport(
        verdict="PASS" if ok else "FAIL",
        psd_ok=psd_ok,
        min_eigenvalue=min_eig,
        psd_method=psd_method,
        lambda_ok=lambda_ok,
        lambda_expected=coeff,
        lambda_measured=measured,
        sector_residual=residual,
        forbidden_components=forbidden,
        permutation=permutation,
    )


def characterization_of(t, reg: SystemRegistry,
                        hierarchy: Hierarchy = Hierarchy.BISTOCH):
    """(coefficient, sectors) for a type or a network specification."""
    if hasattr(t, "slot_types"):  # network spec, duck-typed to avoid an import cycle
        return network_characterization(tuple(t.slot_types), t.memories[0],
                                        t.memories[-1], reg, hierarchy)
    return identity_coeff(t, reg, hierarchy), deviation_sectors(t, reg, hierarchy)


def is_deterministic(op: LabeledOperator, t, reg: SystemRegistry,
                     hierarchy: Hierarchy = Hierarchy.BISTOCH,
                     tol: float = 1e-9, psd_tol: float = TOL_PSD,
                     herm_tol: float = TOL_HERM) -> CheckReport:
    """Test whether ``op`` is a deterministic event of type ``t``.

    ``t`` may also be a network specification.  Factors are auto-permuted to
    the canonical order of the type; the report records the permutation.
    """
    coeff, sectors = characterization_of(t, reg, hierarchy)
    aligned, perm = align_factors(op, sectors.systems)
    return check_operator(aligned, coeff, sectors, tol=tol, psd_tol=psd_tol,
                          herm_tol=herm_tol, permutation=perm)


def classify(op: LabeledOperator, t: TypeExpr, reg: SystemRegistry,
             tol: float = 1e-9) -> Classification:
    """Locate an operator relative to the two hierarchies.

    Runs the bidirectional check on ``t`` and the ordinary check on the
    dehatted type.  BISTOCH_ONLY verdicts come with the list of sector
    patterns (with weights) that are allowed for bidirectional events but
    forbidden for ordinary ones.
    """
    if not has_hats(t):
        raise NoHattedSystems("classification requires at least one hatted pair")
    bi = is_deterministic(op, t, reg, Hierarchy.BISTOCH, tol=tol)
    std = is_deterministic(op, dehat(t), reg, Hierarchy.STANDARD, tol=tol)
    if not bi.passed:
        verdict = "NEITHER"
        forbidden = []
    elif std.passed:
        verdict = "BOTH"
        forbidden = []
    else:
        verdict = "BISTOCH_ONLY"
        bi_sectors = deviation_sectors(t, reg, Hierarchy.BISTOCH)
        std_sectors = deviation_sectors(dehat(t), reg, Hierarchy.STANDARD)
        gap = bi_sectors.patterns - std_sectors.patterns
        gap_texts = {p.text(bi_sectors.systems) for p in gap}
        forbidden = [(pat, norm) for pat, norm in std.forbidden_components
                     if pat in gap_texts]
    return Classification(verdict, forbidden, bi, std)


# ---------------------------------------------------------------------------
# Admissibility
# ---------------------------------------------------------------------------

def _project_psd(mat: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh((mat + mat.conj().T) / 2)
    clipped = np.clip(vals, 0.0, None)
    return (vecs * clipped) @ vecs.conj().T


def is_admissible(op: LabeledOperator, t: TypeExpr, reg: SystemRegistry,
                  hierarchy: Hierarchy = Hierarchy.BISTOCH,
                  tol: float = 1e-7, max_iter: int = 5000,
                  psd_tol: float = TOL_PSD,
                  fast_path: bool = True) -> AdmissibilityResult:
    """Decide whether some deterministic event of type ``t`` dominates ``op``.

    Non-positive operators are rejected outright.  Elementary system strings
    admit the exact trace test.  Otherwise the feasibility problem is solved
    by Dykstra's alternating projections on ``Y = D - op`` between the PSD
    cone and the affine set ``coeff*1 - op + allowed deviations``; FEASIBLE
    verdicts return the witness ``D``, and UNDECIDED is an honest outcome
    when the iteration does not settle.  Raises :class:`NonFiniteOperator`
    on NaN or infinite entries.
    """
    coeff, sectors = characterization_of(t, reg, hierarchy)
    aligned, _ = align_factors(op, sectors.systems)

    sym, herm_defect = hermitian_part(aligned)
    min_eig = float(np.linalg.eigvalsh(sym)[0])
    if herm_defect > TOL_HERM or min_eig < -psd_tol:
        return AdmissibilityResult("NOT_ADMISSIBLE",
                                   reason=f"operator not PSD (min eigenvalue {min_eig:.3e})")

    if fast_path and isinstance(t, SystemString):
        trace = float(np.trace(sym).real)
        if trace <= 1.0 + tol:
            top = 1.0 - trace
            witness = LabeledOperator(
                aligned.factors, sym + max(top, 0.0) * np.eye(aligned.dim) / aligned.dim)
            return AdmissibilityResult("FEASIBLE", witness=witness,
                                       reason="trace test for elementary states")
        return AdmissibilityResult(
            "NOT_ADMISSIBLE",
            reason=f"trace {trace:.6g} exceeds 1: no deterministic state dominates")

    target = float(coeff) * np.eye(aligned.dim) - sym

    def project_affine(mat: np.ndarray) -> np.ndarray:
        shifted = LabeledOperator(aligned.factors, mat - target)
        return target + sector_project(shifted, sectors).data

    x = np.zeros_like(sym)
    p = np.zeros_like(sym)
    q = np.zeros_like(sym)
    gap = np.inf
    iterations = 0
    for iterations in range(1, max_iter + 1):
        y = _project_psd(x + p)
        p = x + p - y
        x = project_affine(y + q)
        q = y + q - x
        gap = float(np.linalg.norm(y - x))
        if gap < tol:
            break
    if gap < tol:
        # witness = op + PSD part of x, so domination holds by construction
        # and only the membership of the witness needs confirming
        witness = LabeledOperator(aligned.factors, sym + _project_psd(x))
        report = check_operator(witness, coeff, sectors, tol=max(tol * 10, 1e-8))
        if report.passed:
            return AdmissibilityResult("FEASIBLE", witness=witness,
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
                         hierarchy: Hierarchy = Hierarchy.BISTOCH,
                         eps: float = 0.5, seed: int = 0) -> LabeledOperator:
    """Seeded random deterministic event of type ``t``.

    Starts from ``coeff * identity``, adds a random deviation projected onto
    the allowed sectors, and scales it so the minimum eigenvalue stays at
    least ``(1 - eps) * coeff``.  ``eps = 0`` returns the exact identity
    event; every output passes :func:`is_deterministic`.
    """
    if not 0.0 <= eps < 1.0:
        raise ValueError("eps must lie in [0, 1)")
    coeff, sectors = characterization_of(t, reg, hierarchy)
    dim = math.prod(d for _, d in sectors.systems)
    base = float(coeff) * np.eye(dim)
    op = LabeledOperator(sectors.systems, base)
    if eps == 0.0 or not sectors.masks:
        return op
    rng = np.random.default_rng(seed)
    noise = LabeledOperator(sectors.systems, random_hermitian(dim, rng))
    dev = sector_project(noise, sectors).data
    dev = (dev + dev.conj().T) / 2
    low = float(np.linalg.eigvalsh(dev)[0])
    if low >= -1e-15:
        scale = 1.0
    else:
        scale = eps * float(coeff) / abs(low)
    return LabeledOperator(sectors.systems, base + scale * dev)
