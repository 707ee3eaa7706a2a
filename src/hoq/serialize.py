"""File formats: operator JSON, network specs and bundles, and the key-value config.

Operator schema: ``{"factors": [["A", 2], ...], "matrix": [[[re, im], ...]]}``
with the matrix row-major and the first factor most significant.  Files whose
name ends in ``.gz`` are gzip containers of the same JSON.

Files are streamed one matrix row at a time both ways.  A write encodes each
row with json's C encoder.  A read steps through the document's objects and
arrays and decodes each ``"matrix"`` row with json's own scanner into a float64
array, preallocated when ``"factors"`` comes first, as hoq writes it; so the
Python objects of at most one row are alive at once.  Each row is checked as it
arrives: a malformed row raises :class:`ShapeMismatch` and a NaN or infinite
entry :class:`NonFiniteOperator`.
"""
from __future__ import annotations

import gzip
import json
import math
import zlib
from dataclasses import dataclass, field
from json.decoder import WHITESPACE, scanstring
from typing import Optional

import numpy as np

from .errors import ConfigError, HoqError, NonFiniteOperator, ShapeMismatch, SizeLimit
from .linalg import DEFAULT_DIM_CAP, TOL_HERM, TOL_PSD, LabeledOperator, factor_entry
from .typesys import (DEFAULT_RECURSION_LIMIT, MAX_RECURSION_LIMIT, NetworkSpec, SystemRegistry,
                      parse_type, print_type)


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


def _factors(entries, max_dim: Optional[int]) -> tuple[tuple[str, int], ...]:
    """Factors of a payload's ``factors`` list; :class:`SizeLimit` above ``max_dim``."""
    try:
        factors = tuple(factor_entry(lab, d) for lab, d in entries)
    except (TypeError, ValueError) as exc:
        raise ShapeMismatch(f"malformed operator payload: {exc}") from None
    dim = math.prod(d for _, d in factors)
    if max_dim is not None and dim > max_dim:
        raise SizeLimit(f"operator dimension {dim} exceeds limits.max_dim = {max_dim}")
    return factors


def _pair_row(row, i: int) -> np.ndarray:
    """Row ``i`` of a matrix as a float64 array of ``[re, im]`` pairs."""
    try:
        pairs = np.array(row)
    except (ValueError, TypeError, OverflowError) as exc:
        raise ShapeMismatch(f"malformed operator payload: row {i}: {exc}") from None
    # integers beyond float range, strings and nulls leave a non-numeric dtype
    if pairs.ndim != 2 or pairs.shape[-1] != 2 or pairs.dtype.kind not in "iuf":
        raise ShapeMismatch("malformed operator payload: the matrix must be rows of "
                            f"[re, im] number pairs, got row {i} of shape {pairs.shape} "
                            f"of {pairs.dtype}")
    pairs = pairs.astype(np.float64, copy=False)
    if not np.isfinite(pairs).all():
        raise NonFiniteOperator(f"operator matrix has a non-finite entry in row {i}")
    return pairs


def _matrix(rows, factors, max_dim: Optional[int], room: int) -> np.ndarray:
    """Complex matrix of an iterable of rows, each converted and checked as it comes.

    ``factors`` is None when the matrix comes before them; more than
    ``max_dim`` rows then raise :class:`SizeLimit`.  The matrix is filled in
    place when the factors are known and ``room`` says the source can still
    hold that many entries, so a header that claims more than its file holds
    reserves no memory.
    """
    n = None if factors is None else math.prod(d for _, d in factors)
    out = np.empty((n, n, 2)) if n is not None and n * n <= room else None
    kept = []
    count = 0
    for count, row in enumerate(rows, start=1):
        if n is None and max_dim is not None and count > max_dim:
            raise SizeLimit(f"operator matrix rows exceed limits.max_dim = {max_dim}")
        pairs = _pair_row(row, count - 1)
        if n is not None and (count > n or len(pairs) != n):
            raise ShapeMismatch(f"malformed operator payload: row {count - 1} of {len(pairs)} "
                                f"entries for factor dimensions of product {n}")
        if out is None:
            kept.append(pairs)
        else:
            out[count - 1] = pairs
    if n is not None and count != n:
        raise ShapeMismatch(f"malformed operator payload: {count} rows for factor "
                            f"dimensions of product {n}")
    if out is None:
        try:
            out = np.array(kept) if kept else np.empty((0, 0, 2))
        except ValueError as exc:
            raise ShapeMismatch(f"malformed operator payload: {exc}") from None
    return out.view(np.complex128)[..., 0]


_DECODER = json.JSONDecoder()


class _Cursor:
    """A position in JSON text that steps through objects and arrays.

    Every value it does not step into, and every key, goes through json's own
    scanner, so the grammar and the errors are json's.
    """

    def __init__(self, text: str):
        self.text, self.pos = text, 0

    def peek(self) -> str:
        """The next character after whitespace, or "" at the end."""
        self.pos = WHITESPACE.match(self.text, self.pos).end()
        return self.text[self.pos:self.pos + 1]

    def value(self):
        self.peek()
        try:
            value, self.pos = _DECODER.raw_decode(self.text, self.pos)
        except RecursionError:
            raise HoqError(f"JSON nested too deeply at character {self.pos}") from None
        return value

    def _more(self, close: str) -> bool:
        """Step over a ``,`` (True) or the closing bracket (False)."""
        char = self.peek()
        if char not in (",", close):
            raise json.JSONDecodeError("Expecting ',' delimiter", self.text, self.pos)
        self.pos += 1
        return char == ","

    def elements(self):
        """Step into the array whose ``[`` comes next; the caller reads one element per step."""
        self.peek()
        self.pos += 1
        if self.peek() == "]":
            self.pos += 1
            return
        yield
        while self._more("]"):
            yield

    def keys(self):
        """Step into the object whose ``{`` comes next; the caller reads each key's value."""
        self.peek()
        self.pos += 1
        if self.peek() == "}":
            self.pos += 1
            return
        while True:
            if self.peek() != '"':
                raise json.JSONDecodeError("Expecting property name enclosed in double quotes",
                                           self.text, self.pos)
            key, self.pos = scanstring(self.text, self.pos + 1)
            if self.peek() != ":":
                raise json.JSONDecodeError("Expecting ':' delimiter", self.text, self.pos)
            self.pos += 1
            yield key
            if not self._more("}"):
                return

    def end(self) -> None:
        if self.peek():
            raise json.JSONDecodeError("Extra data", self.text, self.pos)


def _operator_at(cur: _Cursor, max_dim: Optional[int]) -> LabeledOperator:
    """The operator object at the cursor, its matrix decoded one row at a time."""
    if cur.peek() != "{":
        raise ShapeMismatch(f"malformed operator payload: not a JSON object at character {cur.pos}")
    found = {}
    for key in cur.keys():
        if key == "factors":
            found[key] = _factors(cur.value(), max_dim)
        elif key == "matrix":
            if cur.peek() != "[":
                raise ShapeMismatch("malformed operator payload: the matrix must be a list of rows")
            # each entry takes 5 characters at least: [0,0]
            room = (len(cur.text) - cur.pos) // 5
            rows = (cur.value() for _ in cur.elements())
            found[key] = _matrix(rows, found.get("factors"), max_dim, room)
        else:
            cur.value()
    try:
        factors, matrix = found["factors"], found["matrix"]
    except KeyError as exc:
        raise ShapeMismatch(f"malformed operator payload: {exc}") from None
    return LabeledOperator(factors, matrix)


def _read_text(path: str) -> str:
    """The text of ``path``; a truncated or corrupt gzip stream raises :class:`HoqError`."""
    try:
        with _open(path, "r") as fh:
            return fh.read()
    except (EOFError, zlib.error) as exc:
        raise HoqError(f"unreadable gzip file {path}: {exc}") from None


def _open(path: str, mode: str):
    if str(path).endswith(".gz"):
        return gzip.open(path, mode + "t", encoding="utf-8")
    return open(path, mode, encoding="utf-8")


def write_operator(op: LabeledOperator, path: str) -> None:
    with _open(path, "w") as fh:
        fh.writelines(_operator_chunks(op))
        fh.write("\n")


def read_operator(path: str, *, max_dim: Optional[int] = None) -> LabeledOperator:
    cur = _Cursor(_read_text(path))
    op = _operator_at(cur, max_dim)
    cur.end()
    return op


def _spec_to_dict(spec: NetworkSpec) -> dict:
    return {"slot_types": [print_type(t) for t in spec.slot_types],
            "memories": list(spec.memories)}


def bundle_to_dict(blocks, spec: NetworkSpec) -> dict:
    return {"blocks": [operator_to_dict(b) for b in blocks], "spec": _spec_to_dict(spec)}


def write_bundle(blocks, spec: NetworkSpec, path: str) -> None:
    with _open(path, "w") as fh:
        fh.write('{"blocks": [')
        for k, block in enumerate(blocks):
            fh.write(", " if k else "")
            fh.writelines(_operator_chunks(block))
        fh.write('], "spec": ' + json.dumps(_spec_to_dict(spec)) + "}\n")


def read_bundle(path: str, reg: SystemRegistry, *, max_dim: Optional[int] = None,
                limit: int = DEFAULT_RECURSION_LIMIT):
    """Blocks, spec and registry of a bundle file."""
    cur = _Cursor(_read_text(path))
    if cur.peek() != "{":
        raise ShapeMismatch(f"malformed bundle payload: not a JSON object at character {cur.pos}")
    payload = {}
    for key in cur.keys():
        if key != "blocks":
            payload[key] = cur.value()
        elif cur.peek() == "[":
            payload[key] = [_operator_at(cur, max_dim) for _ in cur.elements()]
        else:
            raise ShapeMismatch("malformed bundle payload: the blocks must be a list")
    cur.end()
    try:
        blocks, spec_part = payload["blocks"], payload["spec"]
        memories = tuple(str(m) for m in spec_part["memories"])
    except (KeyError, TypeError) as exc:
        raise ShapeMismatch(f"malformed bundle payload: {exc}") from None
    # memory labels may be synthetic (from a decomposition); pick their
    # dimensions up from the block factors
    extra = {}
    for mem in memories:
        if mem in reg:  # the trivial label always is
            continue
        for b in blocks:
            if mem in b.labels:
                extra[mem] = b.dim_of(mem)
                break
        else:
            raise ShapeMismatch(f"memory {mem!r} not registered and absent from blocks")
    full_reg = reg.with_entries(**extra) if extra else reg
    return blocks, spec_from_dict(spec_part, full_reg, limit=limit), full_reg


def spec_from_dict(payload: dict, reg: SystemRegistry, *,
                   limit: int = DEFAULT_RECURSION_LIMIT) -> NetworkSpec:
    """Network spec of a parsed payload; slot types nest at most ``limit`` deep."""
    try:
        memories = tuple(str(m) for m in payload["memories"])
        slot_types = tuple(parse_type(s, reg, limit=limit) for s in payload["slot_types"])
    except (KeyError, TypeError) as exc:
        raise ShapeMismatch(f"malformed network spec: {exc}") from None
    return NetworkSpec(slot_types, memories)


def read_spec(path: str, reg: SystemRegistry, *,
              limit: int = DEFAULT_RECURSION_LIMIT) -> NetworkSpec:
    cur = _Cursor(_read_text(path))
    payload = cur.value()
    cur.end()
    return spec_from_dict(payload, reg, limit=limit)


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

@dataclass
class Config:
    """Registry plus tolerances and limits, from a key-value text file.

    Recognized keys: ``registry.<LABEL>``, ``tol.{herm,psd,sector,feas}``,
    ``limits.{max_dim,max_iter,recursion}``.  Unknown keys, tolerances that are
    not finite and ``>= 0``, limits below 1 and a ``recursion`` outside [0, 256] are rejected.
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
_GREATEST = {"limits.recursion": MAX_RECURSION_LIMIT}


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
                _register(registry, key[len("registry."):], int(value), f"line {lineno}: ")
            elif key in _KEYS:
                attr, kind, low = _KEYS[key]
                number = kind(value)
                # NaN fails both comparisons
                if not low <= number < math.inf:
                    raise ConfigError(f"line {lineno}: {key} must be finite and >= {low}, "
                                      f"got {value!r}")
                if number > _GREATEST.get(key, math.inf):
                    raise ConfigError(f"line {lineno}: {key} must be <= {_GREATEST[key]}, "
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
            dim = int(dim)
        except ValueError:
            raise ConfigError(f"bad dimension in registry entry {chunk!r}") from None
        _register(out, label.strip(), dim)
    return out


def _register(registry: dict[str, int], label: str, dim: int, where: str = "") -> None:
    """Add ``label`` to a registry being parsed; :class:`ConfigError` if it is
    already there with another dimension."""
    if registry.setdefault(label, dim) != dim:
        raise ConfigError(f"{where}registry label {label!r} given as {registry[label]} "
                          f"and as {dim}")
