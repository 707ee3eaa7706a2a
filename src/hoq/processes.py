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
    LabeledOperator,
    choi_of_kraus,
    drop_trivial,
    link_all,
    max_entangled,
    merge_factors,
    partial_trace,
    permute_systems,
    relabel,
    tensor_op,
)
from .membership import is_deterministic
from .typesys import BistochElem, SystemRegistry, dual

DEFAULT_DIM_CAP = 4096


# ---------------------------------------------------------------------------
# Random generators
# ---------------------------------------------------------------------------

def haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a Ginibre matrix with phase fix."""
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(g)
    phases = np.diag(r).copy()
    phases /= np.abs(phases)
    return q * phases


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
    mix_factors = [(hat_in, d), (hat_out, d)]
    if tail_in_dim > 1:
        mix_factors.append((t_in, tail_in_dim))
    if tail_out_dim > 1:
        mix_factors.append((t_out, tail_out_dim))
    op = LabeledOperator(tuple(mix_factors), total)
    want = [hat_in] + ([t_in] if tail_in_dim > 1 else []) \
        + [hat_out] + ([t_out] if tail_out_dim > 1 else [])
    return permute_systems(op, want)


def bistoch_type_of(op: LabeledOperator, in_tail=(), out_tail=()) -> BistochElem:
    """The bidirectional elementary type matching a Choi's factor labels.

    Tail labels must be named explicitly; the remaining two factors are the
    exchangeable pair, in factor order.
    """
    tails = set(in_tail) | set(out_tail)
    hats = [lab for lab in op.labels if lab not in tails]
    if len(hats) != 2:
        raise DimMismatch(f"expected two non-tail factors, found {hats}")
    return BistochElem(hats[0], tuple(in_tail), hats[1], tuple(out_tail))


# ---------------------------------------------------------------------------
# Coherent direction control
# ---------------------------------------------------------------------------

def time_flip_choi(d: int) -> LabeledOperator:
    """Choi operator of the coherent input-output-direction flip.

    Rank one on factors ``Pt, Pc, A, B, Ft, Fc`` with dimensions
    ``(d, 2, d, d, d, 2)``: the control qubit selects whether the inserted
    bidirectional channel is traversed forwards or in the transposed
    direction.
    """
    if d < 2:
        raise ValueError("target dimension must be at least 2")
    v = np.zeros((d, 2, d, d, d, 2), dtype=complex)
    for m in range(d):
        for n in range(d):
            v[m, 0, m, n, n, 0] += 1.0  # forward branch
            v[m, 1, n, m, n, 1] += 1.0  # transposed branch
    vec = v.reshape(-1)
    factors = (("Pt", d), ("Pc", 2), ("A", d), ("B", d), ("Ft", d), ("Fc", 2))
    return LabeledOperator(factors, np.outer(vec, vec.conj()))


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


def time_flip_merged(d: int) -> LabeledOperator:
    """Direction flip with ports fused to P, F; factors A, B, P, F."""
    op = merge_ports(time_flip_choi(d), {"P": ("Pt", "Pc"), "F": ("Ft", "Fc")})
    return permute_systems(op, ["A", "B", "P", "F"])


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
    order into ``Pc`` and ``Fc`` of dimension ``2^n``.  Factors:
    ``Pt, Pc, A1, B1, ..., An, Bn, Ft, Fc``.
    """
    if n < 1 or d < 2:
        raise ValueError("need n >= 1 and d >= 2")
    total = (d * 2 ** n) ** 2 * d ** (2 * n)
    if total > dim_cap:
        raise SizeLimit(f"total dimension {total} exceeds cap {dim_cap}")

    def target(stage: int) -> str:
        return "Pt" if stage == 0 else ("Ft" if stage == n else f"T{stage}")

    def control(k: int, stage: int) -> str:
        return f"c{k}s{stage}"

    flip = time_flip_choi(d)
    blocks = []
    for s in range(1, n + 1):
        block = relabel(flip, {"Pt": target(s - 1), "Pc": control(s, s - 1),
                               "A": f"A{s}", "B": f"B{s}",
                               "Ft": target(s), "Fc": control(s, s)})
        # the other slots' controls pass through on identity wires
        for kk in range(1, n + 1):
            if kk != s:
                block = tensor_op(block, max_entangled(control(kk, s - 1), control(kk, s), 2))
        blocks.append(block)

    out = link_all(blocks)
    order = ["Pt"] + [control(kk, 0) for kk in range(1, n + 1)]
    for s in range(1, n + 1):
        order += [f"A{s}", f"B{s}"]
    order += ["Ft"] + [control(kk, n) for kk in range(1, n + 1)]
    out = permute_systems(out, order)
    out = merge_factors(out, tuple(control(kk, 0) for kk in range(1, n + 1)), "Pc")
    out = merge_factors(out, tuple(control(kk, n) for kk in range(1, n + 1)), "Fc")
    final = ["Pt", "Pc"]
    for s in range(1, n + 1):
        final += [f"A{s}", f"B{s}"]
    final += ["Ft", "Fc"]
    return permute_systems(out, final)


def flippable_switch_choi(d: int) -> LabeledOperator:
    """Choi operator of the order-and-direction control process.

    Rank one on ``Pt, Pc, A1, B1, A2, B2, Ft, Fc``: branch 0 runs the two
    inserted channels in one causal order, branch 1 runs them in the opposite
    order with both used in the transposed direction.
    """
    if d < 2:
        raise ValueError("target dimension must be at least 2")
    v = np.zeros((d, 2, d, d, d, d, d, 2), dtype=complex)
    for m in range(d):
        for nn in range(d):
            for p in range(d):
                v[m, 0, m, nn, nn, p, p, 0] += 1.0
                v[m, 1, p, nn, nn, m, p, 1] += 1.0
    vec = v.reshape(-1)
    factors = (("Pt", d), ("Pc", 2), ("A1", d), ("B1", d),
               ("A2", d), ("B2", d), ("Ft", d), ("Fc", 2))
    return LabeledOperator(factors, np.outer(vec, vec.conj()))


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
        if abs(np.trace(state.data) - 1.0) > 1e-9 or state.herm_defect() > 1e-9:
            raise NotDensity("states must be unit-trace Hermitian")
        if float(np.linalg.eigvalsh((state.data + state.data.conj().T) / 2)[0]) < -1e-9:
            raise NotDensity("states must be positive")
    if rho.labels == sigma.labels:
        raise NotDensity("the two states must live on distinct labels")
    da, db = rho.dim, sigma.dim
    fwd = np.kron(rho.data, np.eye(db))
    bwd = np.kron(np.eye(da), sigma.data)
    return LabeledOperator((rho.factors[0], sigma.factors[0]), p * fwd + (1 - p) * bwd)


def functional_decompose(r: LabeledOperator, d: int | None = None,
                         tol: float = 1e-9) -> FunctionalDecomposition:
    """Split a deterministic functional into direction choice plus states.

    Extracts the two local traceless parts, takes the smallest eigenvalue of
    the forward branch to fix the direction probability, and normalizes each
    branch into a density operator; degenerate splits (p in {0, 1}) put the
    maximally mixed state on the unused side.
    """
    if len(r.factors) != 2 or r.factors[0][1] != r.factors[1][1]:
        raise NotAFunctional("expected two factors of equal dimension")
    if d is not None and r.factors[0][1] != d:
        raise NotAFunctional(f"factor dimension {r.factors[0][1]} != declared {d}")
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
