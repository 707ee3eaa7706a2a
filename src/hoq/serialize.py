"""File formats: operator JSON, network bundles, and the key-value config.

Operator schema: ``{"factors": [["A", 2], ...], "matrix": [[[re, im], ...]]}``
with the matrix row-major and the first factor most significant.  Files whose
name ends in ``.gz`` are gzip containers of the same JSON.
"""
from __future__ import annotations

import gzip
import json
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ConfigError, ShapeMismatch, SizeLimit
from .linalg import TOL_HERM, TOL_PSD, LabeledOperator, factor_entry
from .network import NetworkSpec
from .processes import DEFAULT_DIM_CAP
from .typesys import DEFAULT_RECURSION_LIMIT, SystemRegistry, parse_type, print_type


def _pairs(a: np.ndarray) -> np.ndarray:
    """``a`` with a last axis of ``(re, im)`` float pairs.

    A view of a complex array; a real array is converted to complex first.
    """
    return a.astype(complex, copy=False).view(np.float64).reshape(a.shape + (2,))


def operator_to_dict(op: LabeledOperator) -> dict:
    return {"factors": [[lab, d] for lab, d in op.factors], "matrix": _pairs(op.data).tolist()}


def _operator_chunks(op: LabeledOperator):
    """The text of ``json.dumps(operator_to_dict(op))``, one matrix row per piece.

    Each row goes through ``json.dumps`` whole, which takes json's C encoder
    (``json.dump`` to a file never does), and the full nested matrix never
    exists as Python objects.
    """
    yield '{"factors": ' + json.dumps([[lab, d] for lab, d in op.factors]) + ', "matrix": ['
    for i, row in enumerate(op.data):
        yield (", " if i else "") + json.dumps(_pairs(row).tolist())
    yield "]}"


def operator_from_dict(payload: dict, *, max_dim: Optional[int] = None) -> LabeledOperator:
    """Operator of a parsed payload; :class:`ShapeMismatch` when it is malformed.

    With ``max_dim``, a declared dimension above it raises :class:`SizeLimit`
    before the matrix is converted.
    """
    try:
        factors = tuple(factor_entry(lab, d) for lab, d in payload["factors"])
        rows = payload["matrix"]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ShapeMismatch(f"malformed operator payload: {exc}") from None
    dim = math.prod(d for _, d in factors)
    if max_dim is not None and dim > max_dim:
        raise SizeLimit(f"operator dimension {dim} exceeds limits.max_dim = {max_dim}")
    try:
        pairs = np.array(rows)
    except (ValueError, TypeError, OverflowError) as exc:
        raise ShapeMismatch(f"malformed operator payload: {exc}") from None
    # integers beyond float range, strings and nulls leave a non-numeric dtype
    if pairs.ndim != 3 or pairs.shape[-1] != 2 or pairs.dtype.kind not in "iuf":
        raise ShapeMismatch("malformed operator payload: the matrix must be rows of "
                            f"[re, im] number pairs, got shape {pairs.shape} of {pairs.dtype}")
    pairs = np.ascontiguousarray(pairs, dtype=np.float64)
    return LabeledOperator(factors, pairs.view(np.complex128)[..., 0])


def _open(path: str, mode: str):
    if str(path).endswith(".gz"):
        return gzip.open(path, mode + "t", encoding="utf-8")
    return open(path, mode, encoding="utf-8")


def write_operator(op: LabeledOperator, path: str) -> None:
    with _open(path, "w") as fh:
        fh.writelines(_operator_chunks(op))
        fh.write("\n")


def read_operator(path: str, *, max_dim: Optional[int] = None) -> LabeledOperator:
    with _open(path, "r") as fh:
        return operator_from_dict(json.load(fh), max_dim=max_dim)


def _spec_to_dict(spec: NetworkSpec) -> dict:
    return {"slot_types": [print_type(t) for t in spec.slot_types],
            "memories": list(spec.memories)}


def bundle_to_dict(blocks, spec: NetworkSpec) -> dict:
    return {"blocks": [operator_to_dict(b) for b in blocks], "spec": _spec_to_dict(spec)}


def bundle_from_dict(payload: dict, reg: SystemRegistry, *, max_dim: Optional[int] = None):
    try:
        blocks = [operator_from_dict(b, max_dim=max_dim) for b in payload["blocks"]]
        spec_part = payload["spec"]
        memories = tuple(str(m) for m in spec_part["memories"])
    except (KeyError, TypeError) as exc:
        raise ShapeMismatch(f"malformed bundle payload: {exc}") from None
    # memory labels may be synthetic (from a decomposition); pick their
    # dimensions up from the block factors
    extra = {}
    for mem in memories:
        if mem == "I" or mem in reg:
            continue
        for b in blocks:
            if mem in b.labels:
                extra[mem] = b.dim_of(mem)
                break
        else:
            raise ShapeMismatch(f"memory {mem!r} not registered and absent from blocks")
    full_reg = reg.with_entries(**extra) if extra else reg
    return blocks, spec_from_dict(spec_part, full_reg), full_reg


def write_bundle(blocks, spec: NetworkSpec, path: str) -> None:
    with _open(path, "w") as fh:
        fh.write('{"blocks": [')
        for k, block in enumerate(blocks):
            fh.write(", " if k else "")
            fh.writelines(_operator_chunks(block))
        fh.write('], "spec": ' + json.dumps(_spec_to_dict(spec)) + "}\n")


def read_bundle(path: str, reg: SystemRegistry, *, max_dim: Optional[int] = None):
    with _open(path, "r") as fh:
        return bundle_from_dict(json.load(fh), reg, max_dim=max_dim)


def spec_from_dict(payload: dict, reg: SystemRegistry) -> NetworkSpec:
    try:
        memories = tuple(str(m) for m in payload["memories"])
        slot_types = tuple(parse_type(s, reg) for s in payload["slot_types"])
    except (KeyError, TypeError) as exc:
        raise ShapeMismatch(f"malformed network spec: {exc}") from None
    return NetworkSpec(slot_types, memories)


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

@dataclass
class Config:
    """Registry plus tolerances and limits, from a key-value text file.

    Recognized keys: ``registry.<LABEL>``, ``tol.{herm,psd,sector,feas}``,
    ``limits.{max_dim,max_iter,recursion}``.  Unknown keys, tolerances that are
    not finite and ``>= 0``, and limits below 1 (``recursion`` below 0) are rejected.
    """

    registry: SystemRegistry = field(default_factory=lambda: SystemRegistry.from_dict({}))
    tol_herm: float = TOL_HERM
    tol_psd: float = TOL_PSD
    tol_sector: float = 1e-9
    tol_feas: float = 1e-7
    max_dim: int = DEFAULT_DIM_CAP
    max_iter: int = 5000
    recursion: int = DEFAULT_RECURSION_LIMIT


# key -> (Config field, type, least value)
_KEYS = {"tol.herm": ("tol_herm", float, 0), "tol.psd": ("tol_psd", float, 0),
         "tol.sector": ("tol_sector", float, 0), "tol.feas": ("tol_feas", float, 0),
         "limits.max_dim": ("max_dim", int, 1), "limits.max_iter": ("max_iter", int, 1),
         "limits.recursion": ("recursion", int, 0)}


def parse_config(text: str) -> Config:
    cfg = Config()
    registry: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        try:
            if key.startswith("registry."):
                registry[key[len("registry."):]] = int(value)
            elif key in _KEYS:
                attr, kind, low = _KEYS[key]
                number = kind(value)
                # NaN fails both comparisons
                if not low <= number < math.inf:
                    raise ConfigError(f"line {lineno}: {key} must be finite and >= {low}, "
                                      f"got {value!r}")
                setattr(cfg, attr, number)
            else:
                raise ConfigError(f"line {lineno}: unknown key {key!r}")
        except ValueError:
            raise ConfigError(f"line {lineno}: bad value {value!r} for {key!r}") from None
    if registry:
        cfg.registry = SystemRegistry.from_dict(registry)
    return cfg


def load_config(path: str) -> Config:
    with open(path, encoding="utf-8") as fh:
        return parse_config(fh.read())


def parse_inline_registry(text: str) -> dict[str, int]:
    """Parse ``A=2,B=2,P=4`` into a label-to-dimension mapping."""
    out: dict[str, int] = {}
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "=" not in chunk:
            raise ConfigError(f"bad registry entry {chunk!r}, expected LABEL=DIM")
        label, dim = chunk.split("=", 1)
        try:
            out[label.strip()] = int(dim)
        except ValueError:
            raise ConfigError(f"bad dimension in registry entry {chunk!r}") from None
    return out
