"""File formats: operator JSON, network specs and bundles, and the key-value config.

Operator schema: ``{"factors": [["A", 2], ...], "matrix": [[[re, im], ...]]}``
with the matrix row-major and the first factor most significant.  A real
operator's rows are plain numbers instead, ``"matrix": [[x, ...]]``: the writer
spells a float64 operator, which is what :class:`~hoq.linalg.LabeledOperator`
stores when no entry has a non-zero imaginary part, in that form, and a bundle
does so block by block.  An operator that carries a vector v
(:func:`~hoq.linalg.rank_one`) is written as ``{"factors": [...], "vector":
[...]}`` instead, its n entries by the same rule: plain numbers for a float64
v, ``[re, im]`` pairs otherwise.  An operator object holds exactly one of
``"matrix"`` and ``"vector"``.  Files whose name ends in ``.gz`` are gzip
containers of the same JSON.

Files are streamed one matrix row at a time both ways.  A write encodes each
row with json's C encoder.  A read steps through the document's objects and
arrays and decodes each ``"matrix"`` row with json's own scanner, integers as
floats, into one array sized by the ``"factors"`` or the first row, so the
Python objects of at most one row are alive at once.  The first decoded row
decides the array: one of numbers makes it real float64, one of lists (as in
every pair file, old ones too) complex128, which the operator then stores
as float64 when every imaginary part is 0.  The text must hold the claimed
entries at 2 characters each for the real form (``0,``) and 5 for pairs
(``[0,0]``) before anything is allocated.  Each row is checked as it arrives:
a malformed row, or one in the other form, raises :class:`ShapeMismatch` and a
NaN or infinite entry :class:`NonFiniteOperator`.  A vector is decoded once,
with the same scanner, and checked as a row; its length must be the
factors' product and fit ``max_dim`` before the ``n x n`` matrix is formed,
and the operator read carries it, so writing it again keeps the vector form.
Every object of a document, an operator, a bundle or a network spec, must be
a JSON object with its keys, or :class:`ShapeMismatch` names what it is not
or the first key it lacks.
"""
from __future__ import annotations

import gzip
import io
import json
import math
import zlib
from dataclasses import dataclass, field
from json.decoder import WHITESPACE, scanstring
from typing import Optional

import numpy as np

from .errors import ConfigError, HoqError, NonFiniteOperator, ShapeMismatch, SizeLimit
from .linalg import TOL_HERM, TOL_PSD, LabeledOperator, factor_entry, rank_one
from .typesys import (DEFAULT_RECURSION_LIMIT, MAX_RECURSION_LIMIT, NetworkSpec, SystemRegistry,
                      parse_type, print_type)

DEFAULT_DIM_CAP = 4096


def _entries(a: np.ndarray) -> np.ndarray:
    """``a`` as a file spells it: a float64 array as it is, a complex128 one as
    a view with a last axis of ``(re, im)`` pairs."""
    if a.dtype == np.float64:
        return a
    return a.view(np.float64).reshape(a.shape + (2,))


def _body(op: LabeledOperator) -> tuple[str, np.ndarray]:
    """The key and the entries a file holds for ``op``: its vector when it
    carries one, else its matrix."""
    if op.vector is not None:
        return "vector", op.vector
    return "matrix", op.data


def operator_to_dict(op: LabeledOperator) -> dict:
    key, entries = _body(op)
    return {"factors": [[lab, d] for lab, d in op.factors], key: _entries(entries).tolist()}


def _operator_chunks(op: LabeledOperator):
    """The text of ``json.dumps(operator_to_dict(op))``, one matrix row per piece.

    Each row, or the vector, goes through ``json.dumps`` whole, which takes
    json's C encoder (``json.dump`` to a file never does), and the full
    nested matrix never exists as Python objects.
    """
    key, entries = _body(op)
    head = '{"factors": ' + json.dumps([[lab, d] for lab, d in op.factors]) + f', "{key}": '
    if key == "vector":
        yield head + json.dumps(_entries(entries).tolist()) + "}"
        return
    yield head + "["
    for i, row in enumerate(entries):
        yield (", " if i else "") + json.dumps(_entries(row).tolist())
    yield "]}"


def check_max_dim(dim: int, max_dim: Optional[int]) -> None:
    """:class:`SizeLimit` unless dimension ``dim`` fits ``max_dim``; reads and writes alike."""
    if max_dim is not None and dim > max_dim:
        raise SizeLimit(f"operator dimension {dim} exceeds limits.max_dim = {max_dim}")


def _factors(entries, max_dim: Optional[int]) -> tuple[tuple[str, int], ...]:
    """Factors of a payload's ``factors`` list; :class:`SizeLimit` above ``max_dim``."""
    if not isinstance(entries, list) or any(not isinstance(e, list) or len(e) != 2
                                            for e in entries):
        raise ShapeMismatch("malformed operator payload: the factors must be "
                            "[label, dimension] pairs")
    factors = tuple(factor_entry(lab, d) for lab, d in entries)
    check_max_dim(math.prod(d for _, d in factors), max_dim)
    return factors


def _row(row, i: Optional[int], real: bool) -> np.ndarray:
    """Row ``i`` of a matrix, or the vector when ``i`` is None, as a float64
    array: of numbers when ``real``, else of ``[re, im]`` pairs."""
    where = "the vector" if i is None else f"row {i}"
    form = "plain numbers" if real else "[re, im] pairs"
    if isinstance(row, list) and row and isinstance(row[0], list) == real:
        raise ShapeMismatch(f"malformed operator payload: {where} does not hold {form} "
                            "as row 0 does")
    try:
        entries = np.array(row)
    except (ValueError, TypeError):
        # a ragged row, or a list where a number belongs
        raise ShapeMismatch(f"malformed operator payload: {where} does not hold {form}") from None
    entry = () if real else (2,)
    # strings, nulls and booleans alone leave a dtype other than float64
    if entries.ndim != 1 + len(entry) or entries.shape[1:] != entry \
            or entries.dtype != np.float64:
        whole = "the vector must be a list" if i is None else "the matrix must be rows"
        raise ShapeMismatch(f"malformed operator payload: {whole} of "
                            f"{'numbers' if real else '[re, im] number pairs'}, got {where} "
                            f"of shape {entries.shape} of {entries.dtype}")
    if not np.isfinite(entries).all():
        raise NonFiniteOperator("operator vector has a non-finite entry" if i is None
                                else f"operator matrix has a non-finite entry in row {i}")
    return entries


def _has_boolean(text: str, start: int, end: int) -> bool:
    """Whether ``text[start:end]`` spells a JSON boolean; numpy coerces one
    beside a number, so the text is searched."""
    return text.find("true", start, end) >= 0 or text.find("false", start, end) >= 0


def _fits(n: int, max_dim: Optional[int], left: int, width: int) -> None:
    """:class:`SizeLimit` unless ``n`` fits ``max_dim``, :class:`ShapeMismatch`
    unless ``left`` characters of text hold ``n * n`` entries of ``width`` each."""
    check_max_dim(n, max_dim)
    room = left // width
    if n * n > room:
        raise ShapeMismatch(f"malformed operator payload: dimension {n} needs {n * n} "
                            f"entries, more than the {room} that the rest of the text holds")


def _matrix(cur: "_Cursor", n: Optional[int], max_dim: Optional[int]) -> np.ndarray:
    """The matrix at the cursor, each row converted and checked as it comes.

    The first row decides the form: one of numbers makes a real float64
    matrix and one of lists (or no entry) a complex one of ``[re, im]``
    pairs.  ``n`` is the factors' product when they came first, else None
    for the first row's length.  The text must hold ``n * n`` entries: the
    factors' ``n`` is held to the shortest of either form, ``0,``, before any
    row is decoded, and every ``n`` to its form's, ``0,`` or ``[0,0],``,
    before the one array is allocated, so a header that claims more entries
    than its text holds reserves no memory.
    """
    if cur.peek() != "[":
        raise ShapeMismatch("malformed operator payload: the matrix must be a list of rows")
    start = cur.pos
    left = len(cur.text) - start
    if n is not None:
        _fits(n, max_dim, left, 2)
    size = "a matrix of at least one row" if n is None else f"factor dimensions of product {n}"
    count = 0
    for count, _ in enumerate(cur.elements(), start=1):
        row = cur.value(_ROW_DECODER)
        if count == 1:
            real = isinstance(row, list) and bool(row) and not isinstance(row[0], list)
        row = _row(row, count - 1, real)
        if count == 1:
            if n is None:
                n = len(row)
                size = f"a matrix whose first row has {n} entries"
            _fits(n, max_dim, left, 2 if real else 5)
            out = np.empty((n, n) if real else (n, n, 2))
        if count > n or len(row) != n:
            raise ShapeMismatch(f"malformed operator payload: row {count - 1} of {len(row)} "
                                f"entries for {size}")
        out[count - 1] = row
    if count != n:
        raise ShapeMismatch(f"malformed operator payload: {count} rows for {size}")
    if _has_boolean(cur.text, start, cur.pos):
        raise ShapeMismatch("malformed operator payload: the matrix holds a boolean")
    return out if real else out.view(np.complex128)[..., 0]


def _vector(cur: "_Cursor") -> np.ndarray:
    """The vector at the cursor, decoded once: float64 when its first entry is
    a number (or it has none), complex128 when it is a ``[re, im]`` pair.

    Only its own entries are allocated: the factors' product, which must
    equal its length, has met ``max_dim`` in :func:`_factors`.
    """
    cur.peek()
    start = cur.pos
    raw = cur.value(_ROW_DECODER)
    if _has_boolean(cur.text, start, cur.pos):
        raise ShapeMismatch("malformed operator payload: the vector holds a boolean")
    real = not (isinstance(raw, list) and raw and isinstance(raw[0], list))
    v = _row(raw, None, real)
    return v if real else v.view(np.complex128)[:, 0]


_DECODER = json.JSONDecoder()
# matrix rows read integers as floats, so that no integer outgrows float64
_ROW_DECODER = json.JSONDecoder(parse_int=float)


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

    def value(self, decoder: json.JSONDecoder = _DECODER):
        self.peek()
        try:
            value, self.pos = decoder.raw_decode(self.text, self.pos)
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

    def keys(self, what: str):
        """Step into the object that comes next, a ``what``; the caller reads each key's value."""
        if self.peek() != "{":
            raise ShapeMismatch(f"malformed {what}: not a JSON object at character {self.pos}")
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
    """The operator object at the cursor: its matrix decoded one row at a
    time, or the rank-one operator of its vector."""
    found = {}
    for key in cur.keys("operator payload"):
        if key == "factors":
            found[key] = _factors(cur.value(), max_dim)
        elif key in ("matrix", "vector"):
            if ("vector" if key == "matrix" else "matrix") in found:
                raise ShapeMismatch("malformed operator payload: both 'matrix' and 'vector' keys")
            if key == "vector":
                found[key] = _vector(cur)
            else:
                n = math.prod(d for _, d in found["factors"]) if "factors" in found else None
                found[key] = _matrix(cur, n, max_dim)
        else:
            cur.value()
    if "vector" in found:
        # rank_one refuses a length other than the factors' product before np.outer
        return rank_one(*_required(found, "operator payload", ("factors", "vector")))
    return LabeledOperator(*_required(found, "operator payload", ("factors", "matrix")))


def _required(found, what: str, keys: tuple[str, ...]) -> list:
    """The values of ``keys`` in ``found``, which must be a JSON object that has each."""
    if not isinstance(found, dict):
        raise ShapeMismatch(f"malformed {what}: not a JSON object")
    for key in keys:
        if key not in found:
            raise ShapeMismatch(f"malformed {what}: no {key!r} key")
    return [found[key] for key in keys]


def _read_text(path: str) -> str:
    """The text of ``path``; a truncated or corrupt gzip stream raises :class:`HoqError`."""
    try:
        with _open(path, "r") as fh:
            return fh.read()
    except (EOFError, zlib.error) as exc:
        raise HoqError(f"unreadable gzip file {path}: {exc}") from None


def _open(path: str, mode: str):
    """``path`` as text; a ``.gz`` file is written with header time 0, so its bytes repeat."""
    if str(path).endswith(".gz"):
        if mode == "w":
            return io.TextIOWrapper(gzip.GzipFile(path, "wb", mtime=0), encoding="utf-8")
        return gzip.open(path, "rt", encoding="utf-8")
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
    payload = {}
    for key in cur.keys("bundle payload"):
        if key != "blocks":
            payload[key] = cur.value()
        elif cur.peek() == "[":
            payload[key] = [_operator_at(cur, max_dim) for _ in cur.elements()]
        else:
            raise ShapeMismatch("malformed bundle payload: the blocks must be a list")
    cur.end()
    blocks, spec_part = _required(payload, "bundle payload", ("blocks", "spec"))
    # memory labels may be synthetic (from a decomposition); their dimensions
    # come from the first block that names them (the trivial label is registered)
    named = {lab: d for b in reversed(blocks) for lab, d in b.factors}
    extra = {mem: named.get(mem) for mem in _spec_fields(spec_part)[0] if mem not in reg}
    for mem, dim in extra.items():
        if dim is None:
            raise ShapeMismatch(f"memory {mem!r} not registered and absent from blocks")
    full_reg = reg.with_entries(**extra) if extra else reg
    return blocks, spec_from_dict(spec_part, full_reg, limit=limit), full_reg


def _spec_fields(payload) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Memories and slot-type texts of a spec payload, each a JSON array of strings."""
    fields = _required(payload, "network spec", ("memories", "slot_types"))
    for key, value in zip(("memories", "slot_types"), fields):
        if not isinstance(value, list) or not all(isinstance(s, str) for s in value):
            raise ShapeMismatch(f"malformed network spec: {key} must be an array of strings")
    return tuple(fields[0]), tuple(fields[1])


def spec_from_dict(payload: dict, reg: SystemRegistry, *,
                   limit: int = DEFAULT_RECURSION_LIMIT) -> NetworkSpec:
    """Network spec of a parsed payload; slot types nest at most ``limit`` deep."""
    memories, slot_texts = _spec_fields(payload)
    return NetworkSpec(tuple(parse_type(s, reg, limit=limit) for s in slot_texts), memories)


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
