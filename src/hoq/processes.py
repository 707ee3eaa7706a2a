"""Canonical process constructors: coherent input-output-direction control,
order-and-direction control, two-way signaling processes, random bidirectional
channels, and the functional split/recombine algorithms."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    BadLevels,
    BadProbability,
    DimMismatch,
    NotAFunctional,
    NotDensity,
    SizeLimit,
)
from .linalg import (
    DEFAULT_DIM_CAP,
    LabeledOperator,
    _psd_status,
    choi_of_kraus,
    drop_trivial,
    hermitian_part,
    link_all,
    merge_factors,
    partial_trace,
    permute_systems,
    relabel,
    tensor_op,
)
from .membership import is_deterministic
from .typesys import BistochElem, SystemRegistry, dual


# ---------------------------------------------------------------------------
# Random generators
# ---------------------------------------------------------------------------

def haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary: the one Kraus operator of a random unitary channel."""
    return random_kraus(d, d, 1, rng)[0]


def random_kraus(d_in: int, d_out: int, n_kraus: int,
                 rng: np.random.Generator) -> list[np.ndarray]:
    """Kraus operators of a random channel via a Haar random isometry."""
    n_kraus = max(n_kraus, -(-d_in // d_out))  # isometry needs d_out*n >= d_in
    rows = d_out * n_kraus
    g = rng.normal(size=(rows, d_in)) + 1j * rng.normal(size=(rows, d_in))
    q, r = np.linalg.qr(g)
    q = q * (np.diag(r) / np.abs(np.diag(r)))
    iso = q[:, :d_in].reshape(n_kraus, d_out, d_in)
    return [iso[e] for e in range(n_kraus)]


def random_state(d: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_bistochastic_channel(d: int, tail_in_dim: int = 1, tail_out_dim: int = 1,
                                k: int = 3, seed: int = 0,
                                labels: tuple[str, str, str, str] = ("A", "U", "B", "V"),
                                ) -> LabeledOperator:
    """Choi operator of a random channel usable in both directions.

    A convex mixture of Haar-random unitary channels and their transposes on
    the exchangeable pair, each term tensored with an independent random
    channel on the tails.  Mixtures of unitaries do not exhaust bidirectional
    channels for d >= 3; this generator trades coverage for guaranteed
    validity and seed reproducibility.

    Factors: hatted input, input tail, hatted output, output tail (trivial
    tails omitted).
    """
    if k < 1:
        raise ValueError("need at least one mixture term")
    if min(d, tail_in_dim, tail_out_dim) < 1:
        raise ValueError(f"dimensions must be at least 1: d = {d}, tails {tail_in_dim} "
                         f"and {tail_out_dim}")
    hat_in, t_in, hat_out, t_out = labels
    with_tails = tail_in_dim > 1 or tail_out_dim > 1
    rng = np.random.default_rng(seed)
    weights = rng.dirichlet(np.ones(k))
    total = None
    for i in range(k):
        u = haar_unitary(d, rng)
        if rng.integers(2):
            u = u.T
        term = choi_of_kraus([u], hat_in, hat_out)
        if with_tails:
            kraus = random_kraus(tail_in_dim, tail_out_dim, 2, rng)
            tails = drop_trivial(choi_of_kraus(kraus, t_in, t_out))
            term = tensor_op(term, tails)
        data = weights[i] * term.data
        total = data if total is None else total + data
    op = LabeledOperator(term.factors, total)
    return permute_systems(op, [lab for lab in labels if lab in op.labels])


# ---------------------------------------------------------------------------
# Coherent direction control
# ---------------------------------------------------------------------------

def _routed(d: int, slots, routes) -> LabeledOperator:
    """Rank-one ``|v><v|`` of a target routed through slots by a control.

    ``slots`` lists each slot's ``(input, output)`` labels.  Control value
    ``c`` passes unchanged from ``Pc`` to ``Fc`` and sends the target from
    ``Pt`` through the hops of ``routes[c]`` to ``Ft``; a hop is a
    ``(slot, backwards)`` pair, entering the slot's input and leaving its
    output, or the reverse when ``backwards`` is 1.  Consecutive ports are
    joined by identity wires, so ``v`` is a 0/1 vector.  Factors: ``Pt, Pc``,
    the slot pairs in order, ``Ft, Fc``.
    """
    n, controls = len(slots), len(routes)
    v = np.zeros((d, controls) + (d,) * (2 * n) + (d, controls), dtype=complex)
    for c, route in enumerate(routes):
        wires = np.indices((d,) * (len(route) + 1))  # the target's value on each wire
        index = [wires[0], c] + [None] * (2 * n) + [wires[-1], c]
        for k, (slot, backwards) in enumerate(route):
            index[2 + 2 * slot + backwards] = wires[k]
            index[3 + 2 * slot - backwards] = wires[k + 1]
        v[tuple(index)] = 1.0
    vec = v.reshape(-1)
    factors = ((("Pt", d), ("Pc", controls))
               + tuple((lab, d) for pair in slots for lab in pair)
               + (("Ft", d), ("Fc", controls)))
    return LabeledOperator(factors, np.outer(vec, vec.conj()))


def time_flip_choi(d: int) -> LabeledOperator:
    """Choi operator of the coherent input-output-direction flip.

    Rank one on factors ``Pt, Pc, A, B, Ft, Fc`` with dimensions
    ``(d, 2, d, d, d, 2)``: the control qubit selects whether the inserted
    bidirectional channel is traversed forwards or in the transposed
    direction.
    """
    if d < 2:
        raise ValueError("target dimension must be at least 2")
    return _routed(d, [("A", "B")], [((0, 0),), ((0, 1),)])


def merge_ports(op: LabeledOperator, groups: dict[str, tuple[str, ...]]) -> LabeledOperator:
    """Fuse port groups (e.g. target+control) into single named factors."""
    out = op
    for new_label, members in groups.items():
        order = []
        consumed = set()
        for lab in out.labels:
            if lab in members:
                if lab == members[0]:
                    order.extend(members)
                consumed.add(lab)
            elif lab not in consumed:
                order.append(lab)
        out = permute_systems(out, order)
        out = merge_factors(out, members, new_label)
    return out


def canonical_ports(op: LabeledOperator) -> LabeledOperator:
    """Fuse ``Pt, Pc`` into ``P`` and ``Ft, Fc`` into ``F``, then order the
    factors as the process type does: slot factors first, then ``P, F``."""
    merged = merge_ports(op, {"P": ("Pt", "Pc"), "F": ("Ft", "Fc")})
    slots = [lab for lab in merged.labels if lab not in ("P", "F")]
    return permute_systems(merged, slots + ["P", "F"])


def time_flip_merged(d: int) -> LabeledOperator:
    """Direction flip with ports fused to P, F; factors A, B, P, F."""
    return canonical_ports(time_flip_choi(d))


def time_flip_apply(channel_choi: LabeledOperator, rho: LabeledOperator,
                    omega: LabeledOperator) -> LabeledOperator:
    """Act with the direction flip on a channel and input states.

    ``channel_choi`` lives on two equal-dimension factors (input first),
    ``rho`` on the target, ``omega`` on the control qubit; the output state
    lives on ``Ft, Fc``.
    """
    if len(channel_choi.factors) != 2:
        raise DimMismatch("channel Choi must have exactly two factors")
    (_, da), (_, db) = channel_choi.factors
    if da != db:
        raise DimMismatch("direction flip needs equal input and output dimensions")
    if rho.dim != da or omega.dim != 2:
        raise DimMismatch("state/control dimensions do not match the flip ports")
    flip = time_flip_choi(da)
    rho_p = relabel(rho, {rho.labels[0]: "Pt"})
    omega_p = relabel(omega, {omega.labels[0]: "Pc"})
    chan = relabel(channel_choi, {channel_choi.labels[0]: "A", channel_choi.labels[1]: "B"})
    return link_all([flip, rho_p, omega_p, chan])


def n_time_flip_choi(n: int, d: int, dim_cap: int = DEFAULT_DIM_CAP) -> LabeledOperator:
    """Sequential composition of ``n`` direction flips with per-slot controls.

    The target wire threads all slots; each slot owns one control qubit that
    travels untouched through the other slots.  Controls are fused in slot
    order into ``Pc`` and ``Fc`` of dimension ``2^n`` (slot 1 most
    significant).  Factors: ``Pt, Pc, A1, B1, ..., An, Bn, Ft, Fc``.
    """
    if n < 1 or d < 2:
        raise ValueError("need n >= 1 and d >= 2")
    total = (d * 2 ** n) ** 2 * d ** (2 * n)
    if total > dim_cap:
        raise SizeLimit(f"total dimension {total} exceeds cap {dim_cap}")
    slots = [(f"A{s}", f"B{s}") for s in range(1, n + 1)]
    routes = [tuple((s, c >> (n - 1 - s) & 1) for s in range(n)) for c in range(2 ** n)]
    return _routed(d, slots, routes)


def flippable_switch_choi(d: int) -> LabeledOperator:
    """Choi operator of the order-and-direction control process.

    Rank one on ``Pt, Pc, A1, B1, A2, B2, Ft, Fc``: branch 0 runs the two
    inserted channels in one causal order, branch 1 runs them in the opposite
    order with both used in the transposed direction.
    """
    if d < 2:
        raise ValueError("target dimension must be at least 2")
    return _routed(d, [("A1", "B1"), ("A2", "B2")], [((0, 0), (1, 0)), ((1, 1), (0, 1))])


# ---------------------------------------------------------------------------
# Two-way signaling processes
# ---------------------------------------------------------------------------

def lc_23_process(n: int) -> LabeledOperator:
    """Diagonal two-party process with perfect two-way signaling.

    Unit weight on the computational tuples (i, j, k, l) with
    ``i = j + l (mod n)`` and ``k = j - l (mod n)``; factors
    ``A1, B1, A2, B2`` of dimension ``n`` each.
    """
    if n not in (2, 3):
        raise BadLevels("supported local dimensions are 2 and 3")
    diag = np.zeros((n, n, n, n))
    for j in range(n):
        for l in range(n):
            diag[(j + l) % n, j, (j - l) % n, l] = 1.0
    factors = (("A1", n), ("B1", n), ("A2", n), ("B2", n))
    return LabeledOperator(factors, np.diag(diag.reshape(-1)).astype(complex))


def lc_22_process(d: int, x: int, y: int) -> LabeledOperator:
    """Five-term diagonal two-party process on two basis levels.

    ``x`` and ``y`` are distinct basis levels of the ``d``-dimensional local
    systems; at ``d = 2`` the fifth term vanishes identically.
    """
    if d < 2 or x == y or not (0 <= x < d) or not (0 <= y < d):
        raise BadLevels(f"need distinct levels in range(0, {d})")

    def proj(*levels):
        p = np.zeros(d)
        for lv in levels:
            p[lv] = 1.0
        return p

    one = np.ones(d)
    px, py = proj(x), proj(y)
    rest = one - px - py
    terms = [
        (one - py, px, px, px),
        (one - py, py, px, py),
        (py, px, one - px, py),
        (py, py, one - px, px),
        (py, rest, px, rest),
    ]
    diag = np.zeros((d, d, d, d))
    for a1, b1, a2, b2 in terms:
        diag += np.einsum("i,j,k,l->ijkl", a1, b1, a2, b2)
    factors = (("A1", d), ("B1", d), ("A2", d), ("B2", d))
    return LabeledOperator(factors, np.diag(diag.reshape(-1)).astype(complex))


# ---------------------------------------------------------------------------
# Functionals on bidirectional channels
# ---------------------------------------------------------------------------

@dataclass
class FunctionalDecomposition:
    """Convex split of a deterministic functional on a bidirectional pair.

    ``p`` is the probability of using the forward direction with input state
    ``rho_fwd``; with probability ``1 - p`` the backward direction is used
    with input ``sigma_bwd``.  The split is not unique; recombining always
    reproduces the original operator.
    """

    p: float
    rho_fwd: LabeledOperator
    sigma_bwd: LabeledOperator


def functional_compose(p: float, rho: LabeledOperator,
                       sigma: LabeledOperator) -> LabeledOperator:
    """``p * rho (x) 1  +  (1 - p) * 1 (x) sigma`` on the pair's two factors."""
    if not 0.0 <= p <= 1.0:
        raise BadProbability(f"p = {p} outside [0, 1]")
    for state in (rho, sigma):
        if len(state.factors) != 1:
            raise NotDensity("expected single-factor states")
        sym, defect = hermitian_part(state)  # raises NonFiniteOperator on NaN or inf
        if abs(np.trace(state.data) - 1.0) > 1e-9 or defect > 1e-9:
            raise NotDensity("states must be unit-trace Hermitian")
        if not _psd_status(sym, 1e-9)[1]:
            raise NotDensity("states must be positive")
    if rho.labels == sigma.labels:
        raise NotDensity("the two states must live on distinct labels")
    da, db = rho.dim, sigma.dim
    fwd = np.kron(rho.data, np.eye(db))
    bwd = np.kron(np.eye(da), sigma.data)
    return LabeledOperator((rho.factors[0], sigma.factors[0]), p * fwd + (1 - p) * bwd)


def functional_decompose(r: LabeledOperator, tol: float = 1e-9) -> FunctionalDecomposition:
    """Split a deterministic functional into direction choice plus states.

    Extracts the two local traceless parts, takes the smallest eigenvalue of
    the forward branch to fix the direction probability, and normalizes each
    branch into a density operator; degenerate splits (p in {0, 1}) put the
    maximally mixed state on the unused side.
    """
    if len(r.factors) != 2 or r.factors[0][1] != r.factors[1][1]:
        raise NotAFunctional("expected two factors of equal dimension")
    d = r.factors[0][1]
    lab_a, lab_b = r.labels

    reg = SystemRegistry.from_dict({lab_a: d, lab_b: d})
    pair_type = dual(BistochElem(lab_a, (), lab_b, ()))
    report = is_deterministic(r, pair_type, reg, tol=max(tol, 1e-9))
    if not report.passed:
        raise NotAFunctional(f"operator fails the functional check:\n{report.to_text()}")

    part_a = (partial_trace(r, [lab_b]).data - np.eye(d)) / d
    part_b = (partial_trace(r, [lab_a]).data - np.eye(d)) / d
    mu_min = 1.0 / d + float(np.linalg.eigvalsh((part_a + part_a.conj().T) / 2)[0])
    p = min(max(1.0 - d * mu_min, 0.0), 1.0)

    mixed = np.eye(d) / d
    if p > tol:
        rho = mixed + part_a / p
    else:
        p = 0.0
        rho = mixed
    if 1.0 - p > tol:
        sigma = mixed + part_b / (1.0 - p)
    else:
        p = 1.0
        sigma = mixed
    return FunctionalDecomposition(
        p=p,
        rho_fwd=LabeledOperator((r.factors[0],), rho),
        sigma_bwd=LabeledOperator((r.factors[1],), sigma),
    )
