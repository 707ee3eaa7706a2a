"""Composition and decomposition of causally ordered networks of higher-order
maps, with convenience checks for the comb and process-matrix families."""
from __future__ import annotations

import itertools
import math

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
    TRIVIAL_LABEL,
    Arrow,
    BistochElem,
    NetworkSpec,
    SystemRegistry,
    SystemString,
    dehat,
    dual,
    systems_of,
    tensor_all,
)

# relative eigenvalue threshold for the support rank of a peeled marginal
RANK_TOL = 1e-9


def _check_blocks(blocks, spec: NetworkSpec, reg: SystemRegistry, tol: float,
                  psd_tol: float, herm_tol: float) -> None:
    """Raise BlockCheckFailed on the first block that is no deterministic event of
    its block type."""
    for i, block in enumerate(blocks):
        report = is_deterministic(block, spec.block_type(i), reg, tol=tol,
                                  psd_tol=psd_tol, herm_tol=herm_tol)
        if not report.passed:
            raise BlockCheckFailed(i, report)


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
        for mem in systems_of(spec.memory(i + 1)):
            da, db = (dict(b.factors).get(mem) for b in blocks[i:i + 2])
            if da is None or da != db:
                raise MemoryDimMismatch(
                    f"blocks {i} and {i + 1} disagree on memory {mem!r}: {da} vs {db}")
    if validate:
        _check_blocks(blocks, spec, reg, tol, psd_tol, herm_tol)
    out = link_all(list(blocks))
    order = [lab for lab, _ in spec.system_order(reg)]
    return permute_systems(out, order)


def check_network(r: LabeledOperator, spec: NetworkSpec, reg: SystemRegistry,
                  tol: float = 1e-9, psd_tol: float = TOL_PSD,
                  herm_tol: float = TOL_HERM) -> CheckReport:
    """Test an operator against the causally ordered network characterization."""
    return is_deterministic(r, spec, reg, tol=tol, psd_tol=psd_tol, herm_tol=herm_tol)


def _fresh_memory_labels(n: int, taken: set) -> list[str]:
    """``M1..Mn``, each suffixed with the fewest ``x`` that avoid ``taken``."""
    return next(labels for j in itertools.count()
                for labels in [[f"M{i}{'x' * j}" for i in range(1, n + 1)]]
                if taken.isdisjoint(labels))


def decompose_network(r: LabeledOperator, spec: NetworkSpec, reg: SystemRegistry,
                      tol: float = 1e-8, psd_tol: float = TOL_PSD,
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
    new_spec = NetworkSpec(spec.slot_types, (spec.memories[0], *fresh, spec.memories[-1]))
    new_reg = reg
    blocks: list[LabeledOperator] = []

    for i in range(n, 1, -1):
        x_i = spec.slot_types[i - 1]
        slot_systems = systems_of(x_i, new_reg)
        slot_labels = [lab for lab, _ in slot_systems]
        # the out-memory is registered: it is En or the previous step's fresh label
        out_mem = systems_of(new_spec.memory(i), new_reg)
        out_labels = [lab for lab, _ in out_mem]
        traced = slot_labels + out_labels

        coeff_i = identity_coeff(x_i, new_reg)
        dim_i = math.prod(d for _, d in slot_systems)
        marginal = partial_trace(current, traced)
        s_data = marginal.data / (float(coeff_i) * dim_i)

        vals, vecs = np.linalg.eigh((s_data + s_data.conj().T) / 2)
        top = float(vals[-1])
        threshold = RANK_TOL * max(top, 1.0)
        unstable = (vals > threshold / 10) & (vals < threshold * 10)
        if np.any(unstable):
            raise RankInstability(
                f"eigenvalues {vals[unstable]} lie within a factor 10 of the "
                f"rank threshold {threshold:.3e}")
        keep = vals > threshold
        rank = int(np.count_nonzero(keep))
        basis = vecs[:, keep]          # old-space support basis, columns phi_k
        roots = np.sqrt(vals[keep])

        new_mem = new_spec.memories[i - 1]
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
        block = LabeledOperator(((new_mem, rank), *slot_systems, *out_mem),
                                compressed.reshape(rank * rest_dim, rank * rest_dim))
        blocks.append(permute_systems(block, slot_labels + [new_mem] + out_labels))

        # purification-style lift of the marginal onto the fresh memory
        lift = (basis * roots)  # columns sqrt(S) phi_k
        vec = lift.reshape(-1)  # (old_dim, rank) row-major = sum_k (S^1/2 phi_k) (x) |k>
        lifted = np.outer(vec, vec.conj())
        head_factors = current.factors[:len(current.factors) - len(traced)]
        current = LabeledOperator(tuple(head_factors) + ((new_mem, rank),), lifted)

    blocks.append(current)
    blocks.reverse()
    _check_blocks(blocks, new_spec, new_reg, max(tol, 1e-8), psd_tol, herm_tol)
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
    spec = NetworkSpec(tuple(pairs), (TRIVIAL_LABEL,) * (len(dims) + 1))
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
                       (p_lab,) + (TRIVIAL_LABEL,) * (len(dims) - 1) + (f_lab,))
    return check_network(r, spec, reg, tol=tol)


def check_bsp(r: LabeledOperator, dims, dP: int, dF: int,
              tol: float = 1e-9,
              hierarchy: Hierarchy = Hierarchy.BISTOCH) -> CheckReport:
    """Check a process-matrix-style operator (no global causal order assumed).

    Factor convention matches :func:`check_bislot`.  With the STANDARD
    hierarchy the type is dehatted, so the slots are checked as one-way
    channels instead.
    """
    p_lab, f_lab, pairs, reg = _global_ports(r, dims, dP, dF)
    slot_part = tensor_all(pairs)
    proc_type = Arrow(slot_part, Arrow(SystemString((p_lab,)), SystemString((f_lab,))))
    if hierarchy is Hierarchy.STANDARD:
        proc_type = dehat(proc_type)
    return is_deterministic(r, proc_type, reg, tol=tol)
