"""Grammar, parser and algebra of the higher-order type hierarchy.

Types are built from two kinds of elementary type -- plain system strings
(``A``, ``A B C``) and bidirectional pairs (``(^A -> ^B)``, ``(^A U -> ^B V)``)
-- closed under the arrow constructor ``(x -> y)``.  The concrete syntax:

* labels are identifiers matching ``[A-Za-z][A-Za-z0-9_]*``, case sensitive;
* ``I`` denotes the trivial (one-dimensional) system;
* a hatted system is written ``^A``; arrows are ``->``;
* parentheses are mandatory around every arrow and every hatted pair;
* system strings are whitespace-separated labels.

Every non-trivial label may occur at most once per type; ``I`` may repeat
freely (derived forms such as duals introduce several of them).
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from functools import reduce
from typing import Iterator, Union

from .errors import (
    DuplicateSystem,
    HatDimMismatch,
    RecursionLimit,
    TypeSyntaxError,
    UnknownSystem,
)

TRIVIAL_LABEL = "I"

_LABEL_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")

DEFAULT_RECURSION_LIMIT = 64
MAX_RECURSION_LIMIT = 256  # deeper types run the type algebra into Python's recursion limit


@dataclass(frozen=True)
class SystemRegistry:
    """Mapping from system labels to finite dimensions.

    The trivial label ``I`` is always present with dimension 1.
    """

    entries: tuple[tuple[str, int], ...]

    def __post_init__(self):
        seen = {}
        for label, dim in self.entries:
            if not _LABEL_RE.fullmatch(label):
                raise ValueError(f"invalid system label {label!r}")
            if not isinstance(dim, int) or dim < 1:
                raise ValueError(f"dimension of {label!r} must be an integer >= 1, got {dim!r}")
            if label in seen and seen[label] != dim:
                raise ValueError(f"label {label!r} registered twice with different dimensions")
            seen[label] = dim
        if seen.get(TRIVIAL_LABEL, 1) != 1:
            raise ValueError("the trivial system 'I' must have dimension 1")

    @classmethod
    def of(cls, **dims: int) -> SystemRegistry:
        return cls.from_dict(dims)

    @classmethod
    def from_dict(cls, dims) -> SystemRegistry:
        items = dict(dims)
        items.setdefault(TRIVIAL_LABEL, 1)
        return cls(tuple(sorted(items.items())))

    @property
    def _map(self) -> dict[str, int]:
        try:
            return self.__dict__["_map_cache"]
        except KeyError:
            m = dict(self.entries)
            m.setdefault(TRIVIAL_LABEL, 1)
            self.__dict__["_map_cache"] = m
            return m

    def __contains__(self, label: str) -> bool:
        return label in self._map

    def dim(self, label: str) -> int:
        try:
            return self._map[label]
        except KeyError:
            raise UnknownSystem(label) from None

    def with_entries(self, **dims: int) -> SystemRegistry:
        merged = dict(self._map)
        for label, d in dims.items():
            if label in merged and merged[label] != d:
                raise ValueError(f"label {label!r} already registered with dimension {merged[label]}")
            merged[label] = d
        return SystemRegistry.from_dict(merged)


@dataclass(frozen=True)
class SystemString:
    """A parallel composition of systems; the string ``I`` is the trivial type."""

    labels: tuple[str, ...]

    def __post_init__(self):
        if not self.labels:
            raise ValueError("system string must contain at least one label")
        if TRIVIAL_LABEL in self.labels and self.labels != (TRIVIAL_LABEL,):
            raise ValueError("'I' may only appear as the lone label of a string")

    @property
    def is_trivial(self) -> bool:
        return self.labels == (TRIVIAL_LABEL,)


@dataclass(frozen=True)
class BistochElem:
    """Elementary bidirectional type ``(^X u -> ^Y v)``.

    The hatted systems ``X`` and ``Y`` are the direction-exchangeable pair and
    must be isomorphic; ``u`` and ``v`` are ordinary tails.
    """

    hat_in: str
    in_tail: tuple[str, ...]
    hat_out: str
    out_tail: tuple[str, ...]

    def __post_init__(self):
        if TRIVIAL_LABEL in (self.hat_in, self.hat_out):
            raise ValueError("the trivial system cannot be hatted")
        if TRIVIAL_LABEL in self.in_tail or TRIVIAL_LABEL in self.out_tail:
            raise ValueError("'I' cannot appear in a tail")


@dataclass(frozen=True)
class Arrow:
    lhs: "TypeExpr"
    rhs: "TypeExpr"


TypeExpr = Union[SystemString, BistochElem, Arrow]

TRIVIAL = SystemString((TRIVIAL_LABEL,))


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(r"\s*(->|\^|\(|\)|[A-Za-z][A-Za-z0-9_]*)")


def _lex(text: str) -> list[tuple[str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            at = len(text) - len(stripped)
            raise TypeSyntaxError(f"unexpected character {stripped[0]!r}", at)
        tokens.append((m.group(1), m.start(1)))
        pos = m.end()
    tokens.append(("", len(text)))
    return tokens


class _Parser:
    def __init__(self, tokens, limit):
        self.tokens = tokens
        self.i = 0
        self.limit = limit

    @property
    def tok(self):
        return self.tokens[self.i][0]

    @property
    def pos(self):
        return self.tokens[self.i][1]

    def advance(self):
        self.i += 1

    def expect(self, token):
        if self.tok != token:
            raise TypeSyntaxError(f"found {self.tok or 'end of input'!r}", self.pos, (token,))
        self.advance()

    def label(self):
        if not _LABEL_RE.fullmatch(self.tok or ""):
            raise TypeSyntaxError(f"found {self.tok or 'end of input'!r}", self.pos, ("label",))
        out = self.tok
        self.advance()
        return out

    def type_expr(self, depth=0) -> TypeExpr:
        if depth > self.limit:
            raise RecursionLimit(f"type nesting exceeds limit {self.limit}")
        if self.tok == "(":
            return self.paren(depth)
        labels = [self.label()]
        while _LABEL_RE.fullmatch(self.tok or ""):
            labels.append(self.label())
        try:
            return SystemString(tuple(labels))
        except ValueError as exc:
            raise TypeSyntaxError(str(exc), self.pos) from None

    def paren(self, depth) -> TypeExpr:
        self.expect("(")
        if self.tok == "^":
            node = self.hatted()
        else:
            lhs = self.type_expr(depth + 1)
            self.expect("->")
            rhs = self.type_expr(depth + 1)
            node = Arrow(lhs, rhs)
        self.expect(")")
        return node

    def hatted(self) -> BistochElem:
        self.expect("^")
        hat_in = self.label()
        in_tail = []
        while _LABEL_RE.fullmatch(self.tok or ""):
            in_tail.append(self.label())
        self.expect("->")
        self.expect("^")
        hat_out = self.label()
        out_tail = []
        while _LABEL_RE.fullmatch(self.tok or ""):
            out_tail.append(self.label())
        try:
            return BistochElem(hat_in, tuple(in_tail), hat_out, tuple(out_tail))
        except ValueError as exc:
            raise TypeSyntaxError(str(exc), self.pos) from None


def parse_type(text: str, reg: SystemRegistry,
               limit: int = DEFAULT_RECURSION_LIMIT) -> TypeExpr:
    """Parse a type string and validate it against the registry."""
    parser = _Parser(_lex(text), limit)
    node = parser.type_expr()
    if parser.tok != "":
        raise TypeSyntaxError(f"trailing input {parser.tok!r}", parser.pos, ("end of input",))
    validate(node, reg)
    return node


def validate(t: TypeExpr, reg: SystemRegistry) -> None:
    """Check labels are registered, hatted pairs isomorphic, non-I labels unique."""
    seen: set[str] = set()

    def visit(label: str) -> None:
        if label not in reg:
            raise UnknownSystem(label)
        if label == TRIVIAL_LABEL:
            return
        if label in seen:
            raise DuplicateSystem(f"label {label!r} occurs more than once in the type")
        seen.add(label)

    for node in walk(t):
        if isinstance(node, SystemString):
            for lab in node.labels:
                visit(lab)
        elif isinstance(node, BistochElem):
            for lab in (node.hat_in, *node.in_tail, node.hat_out, *node.out_tail):
                visit(lab)
            if reg.dim(node.hat_in) != reg.dim(node.hat_out):
                raise HatDimMismatch(node.hat_in, node.hat_out,
                                     reg.dim(node.hat_in), reg.dim(node.hat_out))


def walk(t: TypeExpr) -> Iterator[TypeExpr]:
    """Yield every node of the tree, parents before children, left to right."""
    stack = [t]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, Arrow):
            stack.append(node.rhs)
            stack.append(node.lhs)


def print_type(t: TypeExpr) -> str:
    """Render a type in the concrete syntax; inverse of :func:`parse_type`."""
    if isinstance(t, SystemString):
        return " ".join(t.labels)
    if isinstance(t, BistochElem):
        left = " ".join((f"^{t.hat_in}", *t.in_tail))
        right = " ".join((f"^{t.hat_out}", *t.out_tail))
        return f"({left} -> {right})"
    return f"({print_type(t.lhs)} -> {print_type(t.rhs)})"


# ---------------------------------------------------------------------------
# Type algebra
# ---------------------------------------------------------------------------

def systems_of(t: TypeExpr, reg: SystemRegistry | None = None):
    """All non-trivial systems of ``t`` in order of first occurrence.

    This is the canonical tensor-factor ordering used for every operator of
    type ``t``.  With a registry the result is a list of ``(label, dim)``
    pairs, otherwise a list of labels.
    """
    labels: list[str] = []
    seen: set[str] = set()

    def add(lab: str) -> None:
        if lab != TRIVIAL_LABEL and lab not in seen:
            seen.add(lab)
            labels.append(lab)

    def go(node: TypeExpr) -> None:
        if isinstance(node, SystemString):
            for lab in node.labels:
                add(lab)
        elif isinstance(node, BistochElem):
            add(node.hat_in)
            for lab in node.in_tail:
                add(lab)
            add(node.hat_out)
            for lab in node.out_tail:
                add(lab)
        else:
            go(node.lhs)
            go(node.rhs)

    go(t)
    if reg is None:
        return labels
    return [(lab, reg.dim(lab)) for lab in labels]


def type_dim(t: TypeExpr, reg: SystemRegistry) -> int:
    out = 1
    for _, d in systems_of(t, reg):
        out *= d
    return out


def extend(t: TypeExpr, e: str, reg: SystemRegistry) -> TypeExpr:
    """Append an elementary system to a type.

    Appends to a system string, to the output tail of a bidirectional pair,
    or recurses into the right-hand side of an arrow.  Extending by ``I`` is
    a no-op.
    """
    if e not in reg:
        raise UnknownSystem(e)
    if e == TRIVIAL_LABEL:
        return t
    if isinstance(t, SystemString):
        if t.is_trivial:
            return SystemString((e,))
        return SystemString(t.labels + (e,))
    if isinstance(t, BistochElem):
        return BistochElem(t.hat_in, t.in_tail, t.hat_out, t.out_tail + (e,))
    return Arrow(t.lhs, extend(t.rhs, e, reg))


def dual(t: TypeExpr) -> TypeExpr:
    """The functional type on events of ``t``."""
    return Arrow(t, TRIVIAL)


def tensor(a: TypeExpr, b: TypeExpr) -> TypeExpr:
    """Parallel composition of two types, as a derived arrow form."""
    return dual(Arrow(a, dual(b)))


def tensor_all(types) -> TypeExpr:
    """Left fold of :func:`tensor` over a non-empty sequence of types."""
    return reduce(tensor, types)


def precedes(a: TypeExpr, b: TypeExpr) -> bool:
    """Strict partial order: ``a`` is reachable from ``b`` by peeling arrows."""
    if not isinstance(b, Arrow):
        return False
    for side in (b.lhs, b.rhs):
        if side == a or precedes(a, side):
            return True
    return False


def dehat(t: TypeExpr | NetworkSpec) -> TypeExpr | NetworkSpec:
    """Replace every bidirectional pair, also in a spec's slots, with the one-way arrow."""
    if isinstance(t, NetworkSpec):
        return NetworkSpec(tuple(dehat(x) for x in t.slot_types), t.memories)
    if isinstance(t, SystemString):
        return t
    if isinstance(t, BistochElem):
        return Arrow(SystemString((t.hat_in, *t.in_tail)),
                     SystemString((t.hat_out, *t.out_tail)))
    return Arrow(dehat(t.lhs), dehat(t.rhs))


def has_hats(t: TypeExpr) -> bool:
    return any(isinstance(node, BistochElem) for node in walk(t))


# ---------------------------------------------------------------------------
# Causally ordered networks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NetworkSpec:
    """Slot types plus the chain of memory labels ``E0..En`` (``I`` trivial).

    A deterministic network is a chained contraction of blocks, block ``i``
    being a deterministic event of type ``dual(slot_i) -> (E_{i-1} -> E_i)``.
    Its operator lives on ``E0``, the slot systems, then ``En``; a trivial
    memory carries no factor.
    """

    slot_types: tuple[TypeExpr, ...]
    memories: tuple[str, ...]

    def __post_init__(self):
        if len(self.memories) != len(self.slot_types) + 1:
            raise ValueError("need exactly n+1 memory labels for n slots")
        if not self.slot_types:
            raise ValueError("a network needs at least one slot")

    @property
    def n(self) -> int:
        return len(self.slot_types)

    def memory(self, i: int) -> SystemString:
        """Memory ``E_i`` as a system string; negative ``i`` counts from ``En``."""
        return SystemString((self.memories[i],))

    def block_type(self, i: int) -> TypeExpr:
        """Type of the i-th block (0-based)."""
        return Arrow(dual(self.slot_types[i]), Arrow(self.memory(i), self.memory(i + 1)))

    def system_order(self, reg: SystemRegistry) -> list[tuple[str, int]]:
        """Canonical factor order of the composed network operator."""
        parts = (self.memory(0), *self.slot_types, self.memory(-1))
        return [s for x in parts for s in systems_of(x, reg)]
