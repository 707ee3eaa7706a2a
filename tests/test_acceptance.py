"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""
import time
from fractions import Fraction

import numpy as np
import pytest

from hoq import (
    BistochElem,
    LabeledOperator,
    NetworkSpec,
    SystemRegistry,
    SystemString,
    check_bislot,
    check_bitooth,
    check_bsp,
    check_network,
    classify,
    compose_network,
    decompose_network,
    deviation_sectors,
    dual,
    dual_deviation_direct,
    identity_coeff,
    is_admissible,
    is_deterministic,
    network_characterization,
    parse_type,
    partial_trace,
    pattern_norms,
    sample_deterministic,
    sector_project,
    tensor,
    tensor_deviation_direct,
)
from hoq.linalg import link_product, permute_systems, tensor_op, transpose
from hoq.membership import random_hermitian
from hoq.processes import (
    flippable_switch_choi,
    functional_compose,
    functional_decompose,
    lc_22_process,
    lc_23_process,
    merge_ports,
    n_time_flip_choi,
    random_bistochastic_channel,
    random_state,
    time_flip_choi,
    time_flip_merged,
)
from hoq.sectors import (SectorSet, arrow_coeff, arrow_sectors, dual_coeff_direct,
                         tensor_coeff_direct)
from hoq.typesys import Arrow, extend, systems_of

from helpers import mask_of, random_type, rename_type


def report(number, description, started, budget):
    elapsed = time.time() - started
    print(f"\n[criterion {number:2d}] PASS  ({elapsed:6.2f}s)  {description}")
    assert elapsed < budget, f"criterion {number} exceeded its {budget}s budget"


def bsp_type(reg, n, p="P", f="F"):
    pairs = [BistochElem(f"A{i}", (), f"B{i}", ()) for i in range(1, n + 1)]
    slot = pairs[0]
    for q in pairs[1:]:
        slot = tensor(slot, q)
    return Arrow(slot, Arrow(SystemString((p,)), SystemString((f,))))


def test_criterion_01_lambda_oracle():
    started = time.time()

    # hatted elementary: 1 / (d_out * d_out_tail), exact and numeric
    reg = SystemRegistry.of(A=2, U=3, B=2, V=3)
    elem = parse_type("(^A U -> ^B V)", reg)
    assert identity_coeff(elem, reg) == Fraction(1, 6)
    chan = random_bistochastic_channel(2, 3, 3, k=2, seed=0)
    assert abs(chan.trace().real / chan.dim - 1 / 6) < 1e-12

    # direction flip: 1 / (2 d^2)
    for d in (2, 3):
        regf = SystemRegistry.of(A=d, B=d, P=2 * d, F=2 * d)
        flip_t = parse_type("((^A -> ^B) -> (P -> F))", regf)
        assert identity_coeff(flip_t, regf) == Fraction(1, 2 * d * d)
    flip = time_flip_choi(2)
    assert abs(flip.trace().real / flip.dim - 1 / 8) < 1e-12

    # order-and-direction switch: 1 / (2 d^3), equals the BSP2 coefficient
    regs = SystemRegistry.of(A1=2, B1=2, A2=2, B2=2, P=4, F=4)
    assert identity_coeff(bsp_type(regs, 2), regs) == Fraction(1, 16)
    switch = flippable_switch_choi(2)
    assert abs(switch.trace().real / switch.dim - 1 / 16) < 1e-12

    # bi-tooth: 1 / prod d_out
    regt = SystemRegistry.of(A1=2, B1=2, A2=2, B2=2, E1=3)
    pairs = [BistochElem("A1", (), "B1", ()), BistochElem("A2", (), "B2", ())]
    coeff_t, _ = network_characterization(pairs, "I", "I", regt)
    assert coeff_t == Fraction(1, 4)
    b1 = random_bistochastic_channel(2, 1, 3, k=2, seed=1,
                                     labels=("A1", "_", "B1", "E1"))
    b2 = random_bistochastic_channel(2, 3, 1, k=2, seed=2,
                                     labels=("A2", "E1", "B2", "_"))
    tooth = link_product(b1, b2)
    assert abs(tooth.trace().real / tooth.dim - 1 / 4) < 1e-12

    # bi-slot and BSP: 1 / (d_F prod d_in)
    regb = SystemRegistry.of(A1=2, B1=2, A2=2, B2=2, P=8, F=8)
    slots = [dual(p) for p in pairs]
    coeff_s, _ = network_characterization(slots, "P", "F", regb)
    assert coeff_s == Fraction(1, 32)
    nflip = n_time_flip_choi(2, 2)
    assert abs(nflip.trace().real / nflip.dim - 1 / 32) < 1e-12

    # two-way signaling processes: 1/n^2 and 1/d^2
    for n in (2, 3):
        r = lc_23_process(n)
        regl = SystemRegistry.of(A1=n, B1=n, A2=n, B2=n)
        assert identity_coeff(dual(tensor(*[BistochElem(f"A{i}", (), f"B{i}", ())
                                            for i in (1, 2)])), regl) == Fraction(1, n * n)
        assert abs(r.trace().real / r.dim - 1 / n ** 2) < 1e-12
    for d in (2, 3):
        r = lc_22_process(d, 0, 1)
        assert abs(r.trace().real / r.dim - 1 / d ** 2) < 1e-12

    report(1, "identity coefficients exact and matched by constructions", started, 1.0)


def test_criterion_02_direction_flip_reproduction():
    started = time.time()
    reg = SystemRegistry.of(A=2, B=2, P=4, F=4)
    t = parse_type("((^A -> ^B) -> (P -> F))", reg)
    flip = time_flip_merged(2)

    bi = is_deterministic(flip, t, reg, tol=1e-9)
    assert bi.passed

    from hoq.typesys import dehat
    std = is_deterministic(flip, dehat(t), reg, tol=1e-9)
    assert not std.passed
    allowed = {"A:I B:T P:I F:I", "A:I B:T P:T F:I"}
    inside_sq = sum(norm ** 2 for pat, norm in std.forbidden_components
                    if pat in allowed)
    total_sq = std.sector_residual ** 2
    assert np.sqrt(inside_sq) >= 0.9999 * np.sqrt(total_sq)

    report(2, "direction flip: bidirectional PASS, ordinary FAIL localized",
           started, 1.0)


def test_criterion_03_process_matrix_reproduction():
    started = time.time()

    # order-and-direction switch
    switch = merge_ports(flippable_switch_choi(2), {"P": ("Pt", "Pc"), "F": ("Ft", "Fc")})
    regs = SystemRegistry.of(A1=2, B1=2, A2=2, B2=2, P=4, F=4)
    res = classify(switch, bsp_type(regs, 2), regs)
    assert res.bistoch_report.passed and res.verdict == "BISTOCH_ONLY"

    # diagonal signaling processes
    for n in (2, 3):
        r = lc_23_process(n)
        regl = SystemRegistry.of(A1=n, B1=n, A2=n, B2=n)
        t = dual(tensor(BistochElem("A1", (), "B1", ()), BistochElem("A2", (), "B2", ())))
        out = classify(r, t, regl)
        assert out.bistoch_report.passed and out.verdict == "BISTOCH_ONLY"
    for d in (2, 3):
        r = lc_22_process(d, 0, 1)
        regl = SystemRegistry.of(A1=d, B1=d, A2=d, B2=d)
        t = dual(tensor(BistochElem("A1", (), "B1", ()), BistochElem("A2", (), "B2", ())))
        out = classify(r, t, regl)
        assert out.bistoch_report.passed and out.verdict == "BISTOCH_ONLY"
    # at d = 3 the two top patterns weigh sqrt(20/9) each, equal up to rounding
    # that depends on the factor labels: the pattern text orders them
    swap = {"A1": "A2", "B1": "B2", "A2": "A1", "B2": "B1"}
    for names in ({}, swap):
        op = LabeledOperator(tuple((names.get(lab, lab), d) for lab, d in r.factors), r.data)
        top = classify(op, t, regl).forbidden[:2]
        assert [p for p, _ in top] == ["A1:I B1:T A2:T B2:T", "A1:T B1:T A2:I B2:T"]
        assert np.allclose([n for _, n in top], np.sqrt(20 / 9), rtol=1e-12, atol=0)

    # extracted forbidden component of the n=2 signaling process
    r2 = lc_23_process(2)
    dev = LabeledOperator(r2.factors, r2.data - np.eye(16) / 4)
    comp = sector_project(dev, SectorSet(dev.factors, [mask_of(("T", "T", "I", "T"))]))
    sz = np.diag([1.0, -1.0])
    target = np.kron(np.kron(np.kron(sz, sz), np.eye(2)), sz) / 4
    assert np.abs(comp.data - target).max() < 1e-10

    # the two-level process leaks on the last output port at d = 3
    d = 3
    r22 = lc_22_process(d, 0, 1)
    dev = LabeledOperator(r22.factors, r22.data - np.eye(d ** 4) / d ** 2)
    comp = sector_project(dev, SectorSet(dev.factors, [mask_of(("I", "I", "I", "T"))]))
    x_plus_y = np.diag([1.0, 1.0, 0.0]) - 2 * np.eye(3) / 3
    assert np.abs(comp.data - np.kron(np.eye(27), x_plus_y) / 9).max() < 1e-10

    report(3, "switch and signaling processes: checks, classes, components",
           started, 5.0)


def test_criterion_04_network_composition_both_directions():
    started = time.time()
    rng = np.random.default_rng(42)
    n_pass = 0
    for case in range(50):
        n = int(rng.integers(1, 4))
        dims = {}
        slots = []
        for i in range(1, n + 1):
            if rng.random() < 0.35:
                dims[f"C{i}"] = int(rng.integers(2, 4))
                slots.append(SystemString((f"C{i}",)))
            else:
                dims[f"A{i}"] = 2
                dims[f"B{i}"] = 2
                slots.append(dual(BistochElem(f"A{i}", (), f"B{i}", ())))
        memories = []
        for j in range(n + 1):
            # the peeled memories grow to the full upstream dimension, so a
            # small global input keeps every emitted block at checkable size
            dmem = int(rng.integers(1, 3)) if j == 0 else int(rng.integers(1, 5))
            if dmem == 1:
                memories.append("I")
            else:
                dims[f"E{j}"] = dmem
                memories.append(f"E{j}")
        reg = SystemRegistry.from_dict(dims)
        spec = NetworkSpec(tuple(slots), tuple(memories))

        blocks = [sample_deterministic(spec.block_type(i), reg, eps=0.5,
                                       seed=1000 * case + i)
                  for i in range(n)]
        r = compose_network(blocks, spec, reg, tol=1e-9)
        rep = check_network(r, spec, reg, tol=1e-9)
        assert rep.passed, (case, rep.to_text())

        # decompose_network verifies every emitted block against its slot
        # type (it raises otherwise), so the round trip below only needs the
        # contraction itself
        out_blocks, spec2, reg2 = decompose_network(r, spec, reg, tol=1e-8)
        back = compose_network(out_blocks, spec2, reg2, validate=False)
        err = np.linalg.norm(back.data - permute_systems(r, back.labels).data)
        assert err < 1e-8, (case, err)
        n_pass += 1
    assert n_pass == 50

    report(4, "50 seeded networks compose, verify, peel and recompose", started, 120.0)


def test_criterion_05_characterization_consistency():
    started = time.time()
    rng = np.random.default_rng(4242)
    for trial in range(200):
        t, reg = random_type(rng, (2, 3), max_depth=5, max_systems=7)
        # functional formula against the arrow recursion
        assert dual_deviation_direct(t, reg).same_subspace(
            deviation_sectors(dual(t), reg))
        assert dual_coeff_direct(t, reg) == identity_coeff(dual(t), reg)
        # parallel-composition formula against the arrow recursion
        u, reg_u = random_type(rng, (2, 3), max_depth=3, max_systems=3)
        ren = {lab: f"{lab}q" for lab in systems_of(u)}
        u = rename_type(u, ren)
        reg2 = reg.with_entries(**{ren[lab]: reg_u.dim(lab) for lab in ren})
        assert tensor_deviation_direct(t, u, reg2).same_subspace(
            deviation_sectors(tensor(t, u), reg2))
        assert tensor_coeff_direct(t, u, reg2) == identity_coeff(tensor(t, u), reg2)
        # double dual
        assert deviation_sectors(dual(dual(t)), reg).same_subspace(
            deviation_sectors(t, reg))
        assert identity_coeff(dual(dual(t)), reg) == identity_coeff(t, reg)

    # sector decomposition is Parseval on random Hermitian operators
    for trial in range(20):
        t, reg = random_type(rng, (2, 3), max_depth=3, max_systems=4)
        systems = tuple(systems_of(t, reg))
        dim = int(np.prod([d for _, d in systems])) if systems else 1
        if dim > 128 or not systems:
            continue
        h = LabeledOperator(systems, random_hermitian(dim, rng))
        norms = pattern_norms(h)
        assert abs(sum(norms) - np.linalg.norm(h.data) ** 2) < 1e-10

    report(5, "200 random types: direct formulas, double dual, Parseval",
           started, 60.0)


def test_criterion_06_invariance_properties():
    started = time.time()
    rng = np.random.default_rng(99)

    # transpose invariance of the deterministic check
    for trial in range(15):
        t, reg = random_type(rng, (2, 3), max_depth=3, max_systems=4)
        good = sample_deterministic(t, reg, eps=0.6, seed=trial)
        assert is_deterministic(good, t, reg, tol=1e-9).passed
        assert is_deterministic(transpose(good), t, reg, tol=1e-9).passed
        bad_data = np.array(good.data)
        bad_data[0, -1] += 0.1
        bad_data[-1, 0] += 0.1
        bad = LabeledOperator(good.factors, bad_data)
        assert (is_deterministic(bad, t, reg).passed
                == is_deterministic(transpose(bad), t, reg).passed)

    # extension / partial-trace equivalence on product extensions
    for trial in range(15):
        t, reg = random_type(rng, (2,), max_depth=3, max_systems=4)
        reg = reg.with_entries(Ze=2, Zf=2)
        base = extend(t, "Zf", reg)
        ext = extend(base, "Ze", reg)
        d_op = sample_deterministic(base, reg, eps=0.5, seed=trial)
        rho = LabeledOperator((("Ze", 2),), random_state(2, rng))
        joint = permute_systems(tensor_op(d_op, rho), systems_of(ext))
        assert is_deterministic(joint, ext, reg, tol=1e-9).passed
        back = partial_trace(joint, ["Ze"])
        assert is_deterministic(back, base, reg, tol=1e-9).passed

    # composition closure on 50 sampled pairs
    for trial in range(50):
        x, reg_x = random_type(rng, (2,), max_depth=2, max_systems=2)
        y, reg_y = random_type(rng, (2,), max_depth=2, max_systems=2)
        ren = {lab: f"{lab}y" for lab in systems_of(y)}
        y = rename_type(y, ren)
        dims = dict(reg_x.entries) | {ren[k]: reg_y.dim(k) for k in ren}
        dims |= {"Ain": 2, "Bmid": 2, "Cout": 2}
        reg = SystemRegistry.from_dict(dims)
        tx = Arrow(x, Arrow(SystemString(("Ain",)), SystemString(("Bmid",))))
        ty = Arrow(y, Arrow(SystemString(("Bmid",)), SystemString(("Cout",))))
        r = sample_deterministic(tx, reg, eps=0.5, seed=trial)
        s = sample_deterministic(ty, reg, eps=0.5, seed=1000 + trial)
        rs = link_product(r, s)
        target = Arrow(tensor(x, y), Arrow(SystemString(("Ain",)), SystemString(("Cout",))))
        assert is_deterministic(rs, target, reg, tol=1e-9).passed, trial

    report(6, "transpose, extension and composition properties hold", started, 90.0)


def test_criterion_07_functional_split_algorithm():
    started = time.time()
    rng = np.random.default_rng(7)
    for trial in range(100):
        d = 2 if trial % 3 else 3
        p = float(rng.uniform())
        rho = LabeledOperator((("A", d),), random_state(d, rng))
        sigma = LabeledOperator((("B", d),), random_state(d, rng))
        r = functional_compose(p, rho, sigma)
        dec = functional_decompose(r)
        back = functional_compose(dec.p, dec.rho_fwd, dec.sigma_bwd)
        assert np.abs(back.data - r.data).max() < 1e-10, trial

    # edge splits
    d = 2
    rho = LabeledOperator((("A", d),), np.diag([1.0, 0.0]))
    sigma = LabeledOperator((("B", d),), random_state(d, rng))
    for p_edge in (0.0, 1.0):
        r = functional_compose(p_edge, rho, sigma)
        dec = functional_decompose(r)
        back = functional_compose(dec.p, dec.rho_fwd, dec.sigma_bwd)
        assert np.abs(back.data - r.data).max() < 1e-10

    report(7, "100 functional splits recombine to the input", started, 30.0)


def test_criterion_08_admissibility_oracle():
    started = time.time()
    rng = np.random.default_rng(88)

    for trial in range(20):
        t, reg = random_type(rng, (2,), max_depth=2, max_systems=3)
        coeff, _ = identity_coeff(t, reg), None
        dim = int(np.prod([d for _, d in systems_of(t, reg)])) if systems_of(t) else 1
        systems = tuple(systems_of(t, reg)) or ()
        zero = LabeledOperator(systems, np.zeros((dim, dim)))
        assert is_admissible(zero, t, reg).feasible, trial
        ident = LabeledOperator(systems, float(coeff) * np.eye(dim))
        assert is_admissible(ident, t, reg).feasible, trial
        spoiled = LabeledOperator(systems, ident.data - 2 * float(coeff) * np.eye(dim))
        assert is_admissible(spoiled, t, reg).status == "NOT_ADMISSIBLE"

    reg = SystemRegistry.of(A=2)
    t = parse_type("A", reg)
    # (I -> A) has the characterization of A, but is no elementary string,
    # so it takes the iteration instead of the trace test
    iterated = parse_type("(I -> A)", reg)
    agree = 0
    for trial in range(50):
        scale = float(rng.uniform(0.1, 1.4))
        op = LabeledOperator((("A", 2),), scale * random_state(2, rng))
        fast = is_admissible(op, t, reg)
        slow = is_admissible(op, iterated, reg, max_iter=2000)
        if fast.feasible:
            assert slow.feasible, trial
        else:
            assert fast.status == "NOT_ADMISSIBLE"
            assert not slow.feasible, trial
        agree += 1
    assert agree == 50

    report(8, "admissibility: sanity verdicts and fast path vs iteration",
           started, 60.0)


def test_criterion_09_slot_comb_structural_identity():
    started = time.time()
    for n in (1, 2, 3):
        dims = {}
        for i in range(1, n + 1):
            dims[f"A{i}"] = 2
            dims[f"B{i}"] = 2
        dims |= {"P": 2, "F": 2}
        reg = SystemRegistry.from_dict(dims)
        pairs = [BistochElem(f"A{i}", (), f"B{i}", ()) for i in range(1, n + 1)]
        tooth_coeff, tooth_dev = network_characterization(pairs, "I", "I", reg)
        slot_coeff, slot_dev = network_characterization(
            [dual(p) for p in pairs], "P", "F", reg)
        pf = parse_type("(P -> F)", reg)
        combined = arrow_sectors(tooth_dev, deviation_sectors(pf, reg))
        combined_coeff = arrow_coeff(tooth_coeff, 4 ** n, identity_coeff(pf, reg))
        assert combined_coeff == slot_coeff
        assert combined.same_subspace(slot_dev)
    report(9, "slot combs are exactly tooth combs into a channel (n = 1, 2, 3)",
           started, 10.0)


def test_criterion_10_sequential_flip_family():
    started = time.time()
    f2 = merge_ports(n_time_flip_choi(2, 2), {"P": ("Pt", "Pc"), "F": ("Ft", "Fc")})
    f2 = permute_systems(f2, ["P", "A1", "B1", "A2", "B2", "F"])
    rep = check_bislot(f2, [(2, 2), (2, 2)], 8, 8, tol=1e-9)
    assert rep.passed

    f1 = permute_systems(n_time_flip_choi(1, 2),
                         ["Pt", "Pc", "A1", "B1", "Ft", "Fc"])
    assert np.array_equal(f1.data, time_flip_choi(2).data)

    report(10, "sequential two-flip passes the slot-comb check; n=1 is the flip",
           started, 30.0)
