"""Composition and decomposition of causally ordered networks of higher-order
maps, with convenience checks for the comb and process-matrix families."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BlockCheckFailed,
    FactorMismatch,
    MemoryDimMismatch,
    NotANetwork,
    RankInstability,
)
from .linalg import TOL_HERM, TOL_PSD, LabeledOperator, link_all, partial_trace, permute_systems
from .membership import CheckReport, check_operator, is_deterministic  # noqa: F401 (re-exported)
from .sectors import Hierarchy, identity_coeff
from .typesys import (
    Arrow,
    BistochElem,
    SystemRegistry,
    SystemString,
    TypeExpr,
    dehat,
    dual,
    systems_of,
    tensor_all,
)

TRIVIAL = "I"


@dataclass(frozen=True)
class NetworkSpec:
    """Slot types plus the chain of memory labels ``E0..En`` (``I`` trivial).

    A deterministic network is a chained contraction of blocks, block ``i``
    being a deterministic event of type ``dual(slot_i) -> (E_{i-1} -> E_i)``.
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

    def block_type(self, i: int) -> TypeExpr:
        """Type of the i-th block (0-based)."""
        e_in = SystemString((self.memories[i],))
        e_out = SystemString((self.memories[i + 1],))
        return Arrow(dual(self.slot_types[i]), Arrow(e_in, e_out))

    def system_order(self, reg: SystemRegistry) -> list[tuple[str, int]]:
        """Canonical factor order of the composed network operator."""
        out = []
        if self.memories[0] != TRIVIAL:
            out.append((self.memories[0], reg.dim(self.memories[0])))
        for x in self.slot_types:
            out.extend(systems_of(x, reg))
        if self.memories[-1] != TRIVIAL:
            out.append((self.memories[-1], reg.dim(self.memories[-1])))
        return out


def compose_network(blocks, spec: NetworkSpec, reg: SystemRegistry,
                    tol: float = 1e-9, validate: bool = True, psd_tol: float = TOL_PSD,
                    herm_tol: float = TOL_HERM) -> LabeledOperator:
    """Chain the blocks over their shared memory labels.

    Each block must be a deterministic event of its slot's block type; the
    result is permuted to the canonical network order and is guaranteed to
    pass :func:`check_network`.
    """
    if len(blocks) != spec.n:
        raise MemoryDimMismatch(f"expected {spec.n} blocks, got {len(blocks)}")
    for i in range(spec.n - 1):
        mem = spec.memories[i + 1]
        if mem == TRIVIAL:
            continue
        da = blocks[i].dim_of(mem) if mem in blocks[i].labels else None
        db = blocks[i + 1].dim_of(mem) if mem in blocks[i + 1].labels else None
        if da is None or db is None or da != db:
            raise MemoryDimMismatch(
                f"blocks {i} and {i + 1} disagree on memory {mem!r}: {da} vs {db}")
    if validate:
        for i, block in enumerate(blocks):
            report = is_deterministic(block, spec.block_type(i), reg, tol=tol,
                                      psd_tol=psd_tol, herm_tol=herm_tol)
            if not report.passed:
                raise BlockCheckFailed(i, report)
    out = link_all(list(blocks))
    order = [lab for lab, _ in spec.system_order(reg)]
    return permute_systems(out, order)


def check_network(r: LabeledOperator, spec: NetworkSpec, reg: SystemRegistry,
                  tol: float = 1e-9,
                  hierarchy: Hierarchy = Hierarchy.BISTOCH, psd_tol: float = TOL_PSD,
                  herm_tol: float = TOL_HERM) -> CheckReport:
    """Test an operator against the causally ordered network characterization."""
    return is_deterministic(r, spec, reg, hierarchy, tol=tol, psd_tol=psd_tol,
                            herm_tol=herm_tol)


def _fresh_memory_labels(n: int, taken) -> list[str]:
    labels = []
    base = "M"
    suffix = ""
    while any(f"{base}{i}{suffix}" in taken for i in range(1, n + 1)):
        suffix += "x"
    for i in range(1, n + 1):
        labels.append(f"{base}{i}{suffix}")
    return labels


def decompose_network(r: LabeledOperator, spec: NetworkSpec, reg: SystemRegistry,
                      tol: float = 1e-8, rank_tol: float = 1e-9, psd_tol: float = TOL_PSD,
                      herm_tol: float = TOL_HERM):
    """Peel a network operator into a causally ordered chain of blocks.

    Returns ``(blocks, new_spec, new_reg)``: the intermediate memories are
    fresh labels whose dimensions are the discovered support ranks (one
    representative of a gauge class; no minimality is claimed).  Recomposing
    the blocks reproduces ``r`` and every block passes its slot-type check.
    """
    report = check_network(r, spec, reg, tol=max(tol, 1e-8), psd_tol=psd_tol,
                           herm_tol=herm_tol)
    if not report.passed:
        raise NotANetwork(f"operator fails the network characterization:\n{report.to_text()}")

    order = [lab for lab, _ in spec.system_order(reg)]
    current = permute_systems(r, order)

    n = spec.n
    taken = {lab for lab, _ in reg.entries} | set(r.labels)
    fresh = _fresh_memory_labels(n - 1, taken)
    mem_labels = [spec.memories[0]] + fresh + [spec.memories[-1]]
    new_reg = reg
    blocks: list[LabeledOperator] = []

    for i in range(n, 1, -1):
        x_i = spec.slot_types[i - 1]
        slot_systems = systems_of(x_i, new_reg)
        slot_labels = [lab for lab, _ in slot_systems]
        out_mem = mem_labels[i]
        traced = slot_labels + ([out_mem] if out_mem != TRIVIAL else [])

        coeff_i = identity_coeff(x_i, new_reg, Hierarchy.BISTOCH)
        dim_i = math.prod(d for _, d in slot_systems)
        marginal = partial_trace(current, traced)
        s_data = marginal.data / (float(coeff_i) * dim_i)

        vals, vecs = np.linalg.eigh((s_data + s_data.conj().T) / 2)
        top = float(vals[-1])
        threshold = rank_tol * max(top, 1.0)
        unstable = (vals > threshold / 10) & (vals < threshold * 10)
        if np.any(unstable):
            raise RankInstability(
                f"eigenvalues {vals[unstable]} lie within a factor 10 of the "
                f"rank threshold {threshold:.3e}")
        keep = vals > threshold
        rank = int(np.count_nonzero(keep))
        basis = vecs[:, keep]          # old-space support basis, columns phi_k
        roots = np.sqrt(vals[keep])

        new_mem = mem_labels[i - 1]
        new_reg = new_reg.with_entries(**{new_mem: rank})

        # block i: conjugate by the inverse square root and compress onto the
        # support, which becomes the fresh memory factor
        # basis^H S^-1/2 = (basis / roots)^H and S^-1/2 basis = basis / roots
        scaled = basis / roots
        old_dim = marginal.dim
        rest_dim = current.dim // old_dim
        cur = current.data.reshape(old_dim, rest_dim, old_dim, rest_dim)
        compressed = np.einsum("pa,abcd,cq->pbqd", scaled.conj().T, cur, scaled,
                               optimize=True)
        block_factors = ((new_mem, rank),) \
            + tuple((lab, d) for lab, d in slot_systems) \
            + (((out_mem, new_reg.dim(out_mem)),) if out_mem != TRIVIAL else ())
        block = LabeledOperator(block_factors,
                                compressed.reshape(rank * rest_dim, rank * rest_dim))
        block = permute_systems(block, slot_labels
                                + [new_mem]
                                + ([out_mem] if out_mem != TRIVIAL else []))
        blocks.append(block)

        # purification-style lift of the marginal onto the fresh memory
        lift = (basis * roots)  # columns sqrt(S) phi_k
        vec = lift.reshape(-1)  # (old_dim, rank) row-major = sum_k (S^1/2 phi_k) (x) |k>
        lifted = np.outer(vec, vec.conj())
        head_factors = current.factors[:len(current.factors) - len(traced)]
        current = LabeledOperator(tuple(head_factors) + ((new_mem, rank),), lifted)

    blocks.append(current)
    blocks.reverse()
    new_spec = NetworkSpec(spec.slot_types, tuple(mem_labels))

    for i, block in enumerate(blocks):
        rep = is_deterministic(block, new_spec.block_type(i), new_reg, tol=max(tol, 1e-8),
                               psd_tol=psd_tol, herm_tol=herm_tol)
        if not rep.passed:
            raise NotANetwork(
                f"decomposed block {i} fails its slot-type check:\n{rep.to_text()}")
    return blocks, new_spec, new_reg


# ---------------------------------------------------------------------------
# Comb and process-matrix families
# ---------------------------------------------------------------------------

def _pair_specs(r: LabeledOperator, dims, offset: int):
    labels = r.labels[offset:]
    pairs = []
    for idx, (da, db) in enumerate(dims):
        la, lb = labels[2 * idx], labels[2 * idx + 1]
        if r.dim_of(la) != da or r.dim_of(lb) != db:
            raise FactorMismatch(
                f"slot {idx}: expected dims {(da, db)}, found "
                f"{(r.dim_of(la), r.dim_of(lb))}")
        pairs.append(BistochElem(la, (), lb, ()))
    return pairs


def check_bitooth(r: LabeledOperator, dims, tol: float = 1e-9) -> CheckReport:
    """Check a comb whose teeth are bidirectional channels.

    ``dims`` lists per-slot ``(d_in, d_out)``; the operator's factors are
    taken pairwise in their current order.
    """
    if len(r.factors) != 2 * len(dims):
        raise FactorMismatch("expected two factors per slot")
    pairs = _pair_specs(r, dims, 0)
    reg = SystemRegistry.from_dict(dict(r.factors))
    spec = NetworkSpec(tuple(pairs), (TRIVIAL,) * (len(dims) + 1))
    return check_network(r, spec, reg, tol=tol)


def _global_ports(r: LabeledOperator, dims, dP: int, dF: int):
    """Global port labels, slot pairs and registry of a ``P, slot pairs, F`` operator."""
    if len(r.factors) != 2 * len(dims) + 2:
        raise FactorMismatch("expected P, slot pairs, F")
    p_lab, f_lab = r.labels[0], r.labels[-1]
    if r.dim_of(p_lab) != dP or r.dim_of(f_lab) != dF:
        raise FactorMismatch(f"global ports: expected dims {(dP, dF)}, found "
                             f"{(r.dim_of(p_lab), r.dim_of(f_lab))}")
    return p_lab, f_lab, _pair_specs(r, dims, 1), SystemRegistry.from_dict(dict(r.factors))


def check_bislot(r: LabeledOperator, dims, dP: int, dF: int,
                 tol: float = 1e-9) -> CheckReport:
    """Check a comb whose slots accept bidirectional channels.

    The operator's first factor is the global input, the last the global
    output, with slot pairs in between.
    """
    p_lab, f_lab, pairs, reg = _global_ports(r, dims, dP, dF)
    spec = NetworkSpec(tuple(dual(p) for p in pairs),
                       (p_lab,) + (TRIVIAL,) * (len(dims) - 1) + (f_lab,))
    return check_network(r, spec, reg, tol=tol)


def check_bsp(r: LabeledOperator, dims, dP: int, dF: int,
              tol: float = 1e-9,
              hierarchy: Hierarchy = Hierarchy.BISTOCH) -> CheckReport:
    """Check a process-matrix-style operator (no global causal order assumed).

    Factor convention matches :func:`check_bislot`.  With the STANDARD
    hierarchy the slots are checked as one-way channels instead.
    """
    p_lab, f_lab, pairs, reg = _global_ports(r, dims, dP, dF)
    slot_part = tensor_all(pairs)
    proc_type = Arrow(slot_part, Arrow(SystemString((p_lab,)), SystemString((f_lab,))))
    if hierarchy is Hierarchy.STANDARD:
        proc_type = dehat(proc_type)
    return is_deterministic(r, proc_type, reg, hierarchy, tol=tol)
