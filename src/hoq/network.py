"""Composition and decomposition of causally ordered networks of higher-order
maps, with convenience checks for the comb and process-matrix families."""
from __future__ import annotations

import itertools
import math
from typing import Optional

import numpy as np

from .errors import (
    BlockCheckFailed,
    FactorMismatch,
    MemoryDimMismatch,
    NotANetwork,
    RankInstability,
)
from .linalg import (TOL_HERM, TOL_PSD, LabeledOperator, link_all, partial_trace,
                     permute_systems, rank_one)
from .membership import CheckReport, check_operator, is_deterministic  # noqa: F401 (re-exported)
from .sectors import Hierarchy, identity_coeff
from .serialize import check_max_dim
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
                      herm_tol: float = TOL_HERM, max_dim: Optional[int] = None):
    """Peel a network operator into a causally ordered chain of blocks.

    Returns ``(blocks, new_spec, new_reg)``: the intermediate memories are
    fresh labels whose dimensions are the discovered support ranks (one
    representative of a gauge class; no minimality is claimed).  Recomposing
    the blocks reproduces ``r`` and every block passes its slot-type check.
    Both checks, of ``r`` and of the blocks, run at ``max(tol, 1e-8)``.

    The slots are peeled from the last.  Each step takes the marginal S of
    what is left on the factors before slot i, compresses that onto the
    support of S, conjugated by ``S^-1/2``, as block i, and lifts
    ``S^1/2`` onto the fresh memory as the purification ``|w><w|``, with
    w the columns ``S^1/2 phi_k`` of S's support.  So only the first step
    reads the dense ``r``, and the last slot's block is the one dense block:
    after it, what is left is the vector w, each marginal is ``M M^H`` of w
    reshaped to (old, rest), and each later block is the rank-one
    operator of the vector ``einsum("pa,aso->spo", S^-1/2 phi, w)``, a chain
    of isometries as in Chiribella, D'Ariano and Perinotti (PRA 80, 022339,
    2009).  The first slot's block is the last w itself.  These blocks carry
    their vectors (:func:`~hoq.linalg.rank_one`).  :class:`SizeLimit` when a
    block's dimension, known once the step's ``eigh`` gives its rank,
    exceeds ``max_dim``, before the block is formed.
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
    # what is left to peel: the dense ``current`` until the first step, then |vec><vec|
    factors, vec = current.factors, None

    for i in range(n, 1, -1):
        x_i = spec.slot_types[i - 1]
        slot_systems = systems_of(x_i, new_reg)
        # the out-memory is registered: it is En or the previous step's fresh label
        out_mem = systems_of(new_spec.memory(i), new_reg)
        traced = [lab for lab, _ in slot_systems + out_mem]
        head = factors[:len(factors) - len(traced)]

        coeff_i = identity_coeff(x_i, new_reg)
        dim_i = math.prod(d for _, d in slot_systems)
        old_dim = math.prod(d for _, d in head)
        rest_dim = math.prod(d for _, d in factors) // old_dim
        if vec is None:
            marginal = partial_trace(current, traced).data
        else:
            lifted = vec.reshape(old_dim, rest_dim)
            marginal = lifted @ lifted.conj().T
        s_data = marginal / (float(coeff_i) * dim_i)

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
        check_max_dim(rank * rest_dim, max_dim)

        # block i: conjugate by the inverse square root and compress onto the
        # support, which becomes the fresh memory factor; the einsum writes it
        # between the slot (s, t) and out-memory (o, u) factors
        # basis^H S^-1/2 = (basis / roots)^H and S^-1/2 basis = basis / roots
        scaled = basis / roots
        dims = (old_dim, dim_i, rest_dim // dim_i)
        block_factors = (*slot_systems, (new_mem, rank), *out_mem)
        if vec is None:
            compressed = np.einsum("pa,asobtu,bq->spotqu", scaled.conj().T,
                                   current.data.reshape(dims * 2), scaled, optimize=True)
            blocks.append(LabeledOperator(block_factors,
                                          compressed.reshape(rank * rest_dim, rank * rest_dim)))
        else:
            blocks.append(rank_one(block_factors, np.einsum("pa,aso->spo", scaled.conj().T,
                                                            vec.reshape(dims))))

        # purification-style lift of the marginal onto the fresh memory:
        # (old_dim, rank) row-major = sum_k (S^1/2 phi_k) (x) |k>
        vec = (basis * roots).reshape(-1)
        factors = head + ((new_mem, rank),)

    check_max_dim(math.prod(d for _, d in factors), max_dim)
    blocks.append(current if vec is None else rank_one(factors, vec))
    blocks.reverse()
    _check_blocks(blocks, new_spec, new_reg, max(tol, 1e-8), psd_tol, herm_tol)
    return blocks, new_spec, new_reg


# ---------------------------------------------------------------------------
# Comb and process-matrix families
# ---------------------------------------------------------------------------

def _comb_layout(r: LabeledOperator, dims, ports=()):
    """Registry and slot pairs of an operator laid out ``[P,] A1 B1 … An Bn [, F]``.

    ``dims`` lists per-slot ``(d_in, d_out)`` and ``ports`` is ``(dP, dF)``
    when the operator has global ports; :class:`FactorMismatch` unless the
    operator's factor dimensions are exactly that list.
    """
    expected = [d for da, db in dims for d in (da, db)]
    if ports:
        expected = [ports[0], *expected, ports[1]]
    if list(r.dims) != expected:
        raise FactorMismatch(f"expected factor dimensions {expected}, found {list(r.dims)}")
    slots = r.labels[1:-1] if ports else r.labels
    pairs = [BistochElem(la, (), lb, ()) for la, lb in zip(slots[::2], slots[1::2])]
    return SystemRegistry.from_dict(dict(r.factors)), pairs


def check_bitooth(r: LabeledOperator, dims, tol: float = 1e-9) -> CheckReport:
    """Check a comb whose teeth are bidirectional channels.

    ``dims`` lists per-slot ``(d_in, d_out)``; the operator's factors are
    taken pairwise in their current order.
    """
    reg, pairs = _comb_layout(r, dims)
    spec = NetworkSpec(tuple(pairs), (TRIVIAL_LABEL,) * (len(dims) + 1))
    return check_network(r, spec, reg, tol=tol)


def check_bislot(r: LabeledOperator, dims, dP: int, dF: int,
                 tol: float = 1e-9) -> CheckReport:
    """Check a comb whose slots accept bidirectional channels.

    The operator's first factor is the global input, the last the global
    output, with slot pairs in between.
    """
    reg, pairs = _comb_layout(r, dims, (dP, dF))
    spec = NetworkSpec(tuple(dual(p) for p in pairs),
                       (r.labels[0],) + (TRIVIAL_LABEL,) * (len(dims) - 1) + (r.labels[-1],))
    return check_network(r, spec, reg, tol=tol)


def check_bsp(r: LabeledOperator, dims, dP: int, dF: int,
              tol: float = 1e-9,
              hierarchy: Hierarchy = Hierarchy.BISTOCH) -> CheckReport:
    """Check a process-matrix-style operator (no global causal order assumed).

    Factor convention matches :func:`check_bislot`.  With the STANDARD
    hierarchy (``Hierarchy.STANDARD`` or ``"standard"``) the type is
    dehatted, so the slots are checked as one-way channels instead; any
    other value than the two hierarchies raises ValueError.
    """
    reg, pairs = _comb_layout(r, dims, (dP, dF))
    ports = Arrow(SystemString(r.labels[:1]), SystemString(r.labels[-1:]))
    proc_type = Arrow(tensor_all(pairs), ports)
    if Hierarchy(hierarchy) is Hierarchy.STANDARD:
        proc_type = dehat(proc_type)
    return is_deterministic(r, proc_type, reg, tol=tol)
