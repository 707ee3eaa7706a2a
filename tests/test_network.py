import tracemalloc

import numpy as np
import pytest

from hoq import (
    Arrow,
    BistochElem,
    Hierarchy,
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
    dehat,
    dual,
    is_deterministic,
    sample_deterministic,
    tensor_all,
)
from hoq.errors import BlockCheckFailed, FactorMismatch, MemoryDimMismatch, NotANetwork
from hoq.linalg import link_all, permute_systems, relabel
from hoq.membership import characterization_of, check_operator
from hoq.network import _fresh_memory_labels
from hoq.processes import (
    flippable_switch_choi,
    functional_compose,
    merge_ports,
    n_time_flip_choi,
    random_bistochastic_channel,
    random_state,
    time_flip_choi,
)


def pair(i):
    return BistochElem(f"A{i}", (), f"B{i}", ())


def bitooth_blocks_and_spec(n, d, mem_dims, seed=0):
    """Random bidirectional channels with memory tails, chained."""
    labels = {}
    blocks = []
    slot_types = []
    memories = ["I"] + [f"E{i}" for i in range(1, n)] + ["I"]
    for i in range(1, n + 1):
        d_in = mem_dims[i - 1] if i > 1 else 1
        d_out = mem_dims[i] if i < n else 1
        c = random_bistochastic_channel(d, d_in, d_out, k=2, seed=seed * 97 + i,
                                        labels=(f"A{i}", f"E{i-1}", f"B{i}", f"E{i}"))
        blocks.append(c)
        slot_types.append(pair(i))
        labels[f"A{i}"] = d
        labels[f"B{i}"] = d
        if i > 1:
            labels[f"E{i-1}"] = mem_dims[i - 1]
    reg = SystemRegistry.from_dict(labels)
    return blocks, NetworkSpec(tuple(slot_types), tuple(memories)), reg


class TestCompose:
    def test_single_block_is_returned(self):
        reg = SystemRegistry.of(A1=2, B1=2, P=2, F=2)
        spec = NetworkSpec((dual(pair(1)),), ("P", "F"))
        block = sample_deterministic(spec.block_type(0), reg, eps=0.5, seed=1)
        r = compose_network([block], spec, reg)
        aligned = permute_systems(block, r.labels)
        assert np.abs(r.data - aligned.data).max() < 1e-14

    def test_two_channel_chain_passes_bitooth(self):
        # chained bidirectional channels realize a two-tooth comb
        blocks, spec, reg = bitooth_blocks_and_spec(2, 2, {1: 3}, seed=5)
        # blocks share the memory label E1: plain link then bi-tooth check
        r = compose_network(blocks, spec, reg)
        assert r.labels == ("A1", "B1", "A2", "B2")
        rep = check_bitooth(r, [(2, 2), (2, 2)])
        assert rep.passed and str(rep.lambda_expected) == "1/4"

    def test_two_flips_with_trivial_memory(self):
        # two direction flips side by side form a two-slot network once the
        # port wiring is threaded through a memory; with no memory wire they
        # compose in parallel against (P1,F1), (P2,F2)
        reg = SystemRegistry.of(A1=2, B1=2, A2=2, B2=2, P1=4, F1=4, P2=4, F2=4)
        f1 = relabel(merge_ports(time_flip_choi(2), {"P1": ("Pt", "Pc"), "F1": ("Ft", "Fc")}),
                     {"A": "A1", "B": "B1"})
        spec = NetworkSpec((dual(pair(1)),), ("P1", "F1"))
        rep = check_network(permute_systems(f1, ["P1", "A1", "B1", "F1"]), spec, reg)
        assert rep.passed

    def test_block_validation_failure(self):
        reg = SystemRegistry.of(A1=2, B1=2, P=2, F=2)
        spec = NetworkSpec((dual(pair(1)),), ("P", "F"))
        spectrum = np.diag(np.arange(16.0))
        skewed = sample_deterministic(spec.block_type(0), reg, eps=0.5, seed=1).data.copy()
        skewed[0, 1] += 1e-6j
        for data, message in (
                (spectrum, r"psd ok, min eigenvalue ≥ -1.000e-09 \(Cholesky certificate\)"),
                (skewed, r"psd FAILED, not Hermitian \(defect 1.000e-06\)")):
            junk = LabeledOperator((("A1", 2), ("B1", 2), ("P", 2), ("F", 2)), data)
            with pytest.raises(BlockCheckFailed, match=message):
                compose_network([junk], spec, reg)

    def test_memory_dim_mismatch(self):
        reg = SystemRegistry.of(A1=2, B1=2, A2=2, B2=2, E1=3)
        spec = NetworkSpec((pair(1), pair(2)), ("I", "E1", "I"))
        b1 = sample_deterministic(spec.block_type(0), reg, eps=0.3, seed=1)
        bad = LabeledOperator((("A2", 2), ("B2", 2), ("E1", 2)), np.eye(8))
        with pytest.raises(MemoryDimMismatch):
            compose_network([b1, bad], spec, reg)


class TestCheck:
    def test_identity_event_passes(self):
        reg = SystemRegistry.of(A1=2, B1=2, A2=2, B2=2, P=3, F=3)
        spec = NetworkSpec((dual(pair(1)), dual(pair(2))), ("P", "I", "F"))
        op = sample_deterministic(spec, reg, eps=0.0)
        rep = check_network(op, spec, reg)
        assert rep.passed and str(rep.lambda_expected) == "1/12"

    def test_sampled_networks_pass(self):
        reg = SystemRegistry.of(A1=2, B1=2, A2=3, B2=3, P=2, F=2)
        spec = NetworkSpec((pair(1), dual(pair(2))), ("P", "I", "F"))
        for seed in range(5):
            op = sample_deterministic(spec, reg, eps=0.6, seed=seed)
            assert check_network(op, spec, reg).passed

    @pytest.mark.parametrize("factors, reason", [
        ((("A1", 2), ("C1", 2), ("P", 3), ("F", 3)), "do not match"),
        ((("A1", 2), ("B1", 3), ("P", 3), ("F", 2)), "dimensions")])
    def test_factor_mismatch(self, factors, reason):
        reg = SystemRegistry.of(A1=2, B1=2, P=3, F=3)
        spec = NetworkSpec((dual(pair(1)),), ("P", "F"))
        dim = int(np.prod([d for _, d in factors]))
        with pytest.raises(FactorMismatch, match=reason):
            check_network(LabeledOperator(factors, np.eye(dim) / dim), spec, reg)

    def test_compose_outputs_always_pass(self):
        rng = np.random.default_rng(13)
        for seed in range(10):
            n = int(rng.integers(1, 4))
            mems = {i: int(rng.integers(2, 4)) for i in range(1, n)}
            blocks, spec, reg = bitooth_blocks_and_spec(n, 2, mems, seed=seed)
            r = compose_network(blocks, spec, reg)
            assert check_network(r, spec, reg).passed


def test_fresh_memory_labels_avoid_taken_ones():
    assert _fresh_memory_labels(2, set()) == ["M1", "M2"]
    assert _fresh_memory_labels(2, {"M2", "A"}) == ["M1x", "M2x"]
    assert _fresh_memory_labels(1, {"M1", "M1x"}) == ["M1xx"]
    assert _fresh_memory_labels(0, {"M1"}) == []


class TestDecompose:
    def test_single_slot_returns_input(self):
        reg = SystemRegistry.of(A1=2, B1=2, P=2, F=2)
        spec = NetworkSpec((dual(pair(1)),), ("P", "F"))
        op = sample_deterministic(spec, reg, eps=0.5, seed=3)
        blocks, spec2, reg2 = decompose_network(op, spec, reg)
        assert len(blocks) == 1
        aligned = permute_systems(blocks[0], op.labels)
        assert np.abs(aligned.data - op.data).max() < 1e-12

    def test_roundtrip_two_channels(self):
        blocks, spec, reg = bitooth_blocks_and_spec(2, 2, {1: 3}, seed=8)
        r = compose_network(blocks, spec, reg)
        out_blocks, spec2, reg2 = decompose_network(r, spec, reg)
        assert [b.labels for b in out_blocks] == [
            ("A1", "B1", "M1"), ("A2", "B2", "M1")]
        back = compose_network(out_blocks, spec2, reg2)
        assert np.abs(back.data - permute_systems(r, back.labels).data).max() < 1e-8

    def test_roundtrip_sampled_networks(self):
        rng = np.random.default_rng(14)
        for seed in range(6):
            n = int(rng.integers(2, 4))
            dims = {}
            slots = []
            for i in range(1, n + 1):
                if rng.random() < 0.4:
                    slots.append(SystemString((f"C{i}",)))
                    dims[f"C{i}"] = 2
                else:
                    slots.append(dual(pair(i)))
                    dims[f"A{i}"] = 2
                    dims[f"B{i}"] = 2
            memories = ["P"] + [f"E{i}" for i in range(1, n)] + ["F"]
            dims.update({m: 2 for m in memories if m != "I"})
            reg = SystemRegistry.from_dict(dims)
            spec = NetworkSpec(tuple(slots), tuple(memories))
            r = sample_deterministic(spec, reg, eps=0.5, seed=seed)
            out_blocks, spec2, reg2 = decompose_network(r, spec, reg)
            for i, b in enumerate(out_blocks):
                assert is_deterministic(b, spec2.block_type(i), reg2).passed
            back = compose_network(out_blocks, spec2, reg2)
            err = np.abs(back.data - permute_systems(r, back.labels).data).max()
            assert err < 1e-8, (seed, err)

    def test_rejects_non_networks(self):
        reg = SystemRegistry.of(A1=2, B1=2, P=2, F=2)
        spec = NetworkSpec((dual(pair(1)),), ("P", "F"))
        junk = LabeledOperator((("P", 2), ("A1", 2), ("B1", 2), ("F", 2)),
                               np.diag(np.arange(16.0)) / 8)
        with pytest.raises(NotANetwork):
            decompose_network(junk, spec, reg)

    def test_rank_instability_guard(self):
        # a product of states is a two-slot network of state type; putting an
        # eigenvalue of the first marginal right at the rank threshold makes
        # the support dimension ambiguous
        from hoq.errors import RankInstability
        reg = SystemRegistry.of(C1=2, C2=2)
        spec = NetworkSpec((SystemString(("C1",)), SystemString(("C2",))),
                           ("I", "I", "I"))
        a = 3e-9
        r = LabeledOperator((("C1", 2), ("C2", 2)),
                            np.kron(np.diag([1.0 - a, a]), np.eye(2) / 2))
        assert check_network(r, spec, reg).passed
        with pytest.raises(RankInstability):
            decompose_network(r, spec, reg)
        # well-separated spectra decompose fine
        clean = LabeledOperator((("C1", 2), ("C2", 2)),
                                np.kron(np.diag([0.7, 0.3]), np.eye(2) / 2))
        blocks, spec2, reg2 = decompose_network(clean, spec, reg)
        back = compose_network(blocks, spec2, reg2)
        assert np.abs(back.data - clean.data).max() < 1e-10


class TestFamilies:
    def test_identity_events_of_each_family(self):
        lam_tooth = np.eye(16) / 4
        r = LabeledOperator((("A1", 2), ("B1", 2), ("A2", 2), ("B2", 2)), lam_tooth)
        assert check_bitooth(r, [(2, 2), (2, 2)]).passed
        lam_slot = np.eye(64) / 8
        rs = LabeledOperator((("P", 2), ("A1", 2), ("B1", 2),
                              ("A2", 2), ("B2", 2), ("F", 2)), lam_slot)
        assert check_bislot(rs, [(2, 2), (2, 2)], 2, 2).passed
        assert check_bsp(rs, [(2, 2), (2, 2)], 2, 2).passed

    def test_flip_switch_is_bsp_but_not_bislot_or_ordinary(self):
        r = merge_ports(flippable_switch_choi(2), {"P": ("Pt", "Pc"), "F": ("Ft", "Fc")})
        r = permute_systems(r, ["P", "A1", "B1", "A2", "B2", "F"])
        assert check_bsp(r, [(2, 2), (2, 2)], 4, 4).passed
        assert not check_bsp(r, [(2, 2), (2, 2)], 4, 4,
                             hierarchy=Hierarchy.STANDARD).passed
        # order-indefinite: it is not a causally ordered two-slot comb
        assert not check_bislot(r, [(2, 2), (2, 2)], 4, 4).passed

    @pytest.mark.parametrize("process", ["switch", "sampled"])
    def test_standard_bsp_is_the_dehatted_type(self, process):
        # the STANDARD hierarchy of check_bsp means "dehat first"
        reg = SystemRegistry.of(P=4, A1=2, B1=2, A2=2, B2=2, F=4)
        bsp_type = Arrow(tensor_all([pair(1), pair(2)]),
                         Arrow(SystemString(("P",)), SystemString(("F",))))
        r = (merge_ports(flippable_switch_choi(2), {"P": ("Pt", "Pc"), "F": ("Ft", "Fc")})
             if process == "switch" else sample_deterministic(dehat(bsp_type), reg, seed=4))
        r = permute_systems(r, ["P", "A1", "B1", "A2", "B2", "F"])
        std = check_bsp(r, [(2, 2), (2, 2)], 4, 4, hierarchy=Hierarchy.STANDARD)
        assert vars(std) == vars(is_deterministic(r, dehat(bsp_type), reg))
        assert std.passed == (process == "sampled")

    def test_hierarchy_by_name(self):
        # a name selects the same hierarchy as the member; any other value raises
        r = merge_ports(flippable_switch_choi(2), {"P": ("Pt", "Pc"), "F": ("Ft", "Fc")})
        r = permute_systems(r, ["P", "A1", "B1", "A2", "B2", "F"])
        two = [(2, 2), (2, 2)]
        std = check_bsp(r, two, 4, 4, hierarchy="standard")
        assert vars(std) == vars(check_bsp(r, two, 4, 4, hierarchy=Hierarchy.STANDARD))
        assert not std.passed and check_bsp(r, two, 4, 4, hierarchy="bistoch").passed
        with pytest.raises(ValueError):
            check_bsp(r, two, 4, 4, hierarchy="ordinary")

    def test_check_operator_in_any_factor_order(self):
        # the switch in the order P F B2 A1 B1 A2 against the dehatted BSP
        # type: check_operator names the same forbidden patterns, in the
        # type's order, as on the aligned operator
        reg = SystemRegistry.of(P=4, A1=2, B1=2, A2=2, B2=2, F=4)
        std_type = dehat(Arrow(tensor_all([pair(1), pair(2)]),
                               Arrow(SystemString(("P",)), SystemString(("F",)))))
        coeff, sectors = characterization_of(std_type, reg)
        r = merge_ports(flippable_switch_choi(2), {"P": ("Pt", "Pc"), "F": ("Ft", "Fc")})
        want = check_operator(permute_systems(r, sectors.labels), coeff, sectors)
        got = check_operator(permute_systems(r, ["P", "F", "B2", "A1", "B1", "A2"]),
                             coeff, sectors)
        assert want.permutation is None and got.permutation == sectors.labels
        assert got.verdict == want.verdict == "FAIL"
        assert "A1:I B1:T A2:T B2:T P:T F:I" in [p for p, _ in want.forbidden_components]
        assert [p for p, _ in got.forbidden_components] == \
            [p for p, _ in want.forbidden_components]
        assert [n for _, n in got.forbidden_components] == \
            pytest.approx([n for _, n in want.forbidden_components], rel=1e-12)
        assert got.sector_residual == pytest.approx(want.sector_residual, rel=1e-12)

    def test_real_process_is_checked_in_real_arithmetic(self):
        # the switch's entries are real, so it is stored float64 and its
        # check works on float64 arrays: the peak stays below 3.5 float64
        # copies (8 D^2 bytes each), where complex arithmetic takes 5.0
        r = merge_ports(flippable_switch_choi(2), {"P": ("Pt", "Pc"), "F": ("Ft", "Fc")})
        r = permute_systems(r, ["P", "A1", "B1", "A2", "B2", "F"])
        assert r.data.dtype == np.float64 and r.dim == 256
        tracemalloc.start()
        try:
            rep = check_bislot(r, [(2, 2), (2, 2)], 4, 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.verdict == "FAIL" and rep.psd_method == "cholesky"
        assert peak < 3.5 * r.dim ** 2 * 8

    def test_checks_form_no_operator_copy(self):
        # a check keeps no operator-sized array alive besides its input: the
        # certificate factors the 32 live rows, and every forbidden pattern
        # marks the global output F identity, so the sector test and its
        # breakdown run on the operator averaged over F, 64 times smaller.
        # That holds in any factor order: the P-first operator is checked
        # against the BSP type, whose order puts P after the slots, without a
        # permuted copy.  The complex operator (the process conjugated by a
        # diagonal phase on P) is counted in copies of 16 D^2 bytes, and it
        # is Hermitian bit for bit.  Every check peaks at 0.052-0.058 copies;
        # with the outside component formed on the whole operator, they
        # peaked at 1.0-1.35 copies
        r = merge_ports(n_time_flip_choi(2, 2), {"P": ("Pt", "Pc"), "F": ("Ft", "Fc")})
        r = permute_systems(r, ["P", "A1", "B1", "A2", "B2", "F"])
        phase = np.repeat(np.exp(2j * np.pi * np.arange(8) / 7), r.dim // 8)
        tilted = r.data * np.outer(phase, phase.conj())
        rc = LabeledOperator(r.factors, (tilted + tilted.conj().T) * 0.5)
        reg = SystemRegistry.from_dict(dict(r.factors))
        spec = NetworkSpec((dual(pair(1)), dual(pair(2))), ("P", "I", "F"))
        bsp_type = Arrow(tensor_all([pair(1), pair(2)]),
                         Arrow(SystemString(("P",)), SystemString(("F",))))
        assert r.dim == 1024 and r.data.dtype == np.float64
        assert rc.data.dtype == np.complex128
        standard = Hierarchy.STANDARD
        for op, check, passed in [
                (r, lambda: is_deterministic(r, spec, reg), True),
                (r, lambda: check_bsp(r, [(2, 2), (2, 2)], 8, 8), True),
                (r, lambda: classify(r, bsp_type, reg).bistoch_report, True),
                (r, lambda: check_bsp(r, [(2, 2), (2, 2)], 8, 8, hierarchy=standard), False),
                (rc, lambda: check_bsp(rc, [(2, 2), (2, 2)], 8, 8, hierarchy=standard), False)]:
            tracemalloc.start()
            try:
                rep = check()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert rep.passed == passed and rep.psd_method == "cholesky"
            assert passed or rep.forbidden_components
            assert peak <= 0.1 * op.dim ** 2 * op.data.itemsize

    def test_n_time_flip_is_bislot(self):
        f2 = merge_ports(n_time_flip_choi(2, 2), {"P": ("Pt", "Pc"), "F": ("Ft", "Fc")})
        f2 = permute_systems(f2, ["P", "A1", "B1", "A2", "B2", "F"])
        assert check_bislot(f2, [(2, 2), (2, 2)], 8, 8).passed

    def test_parallel_flips_form_two_slot_comb(self):
        # two independent flips with no wire between them (trivial memory)
        # still define a causally ordered two-slot comb on the fused ports
        from hoq.linalg import merge_factors, tensor_op
        f1 = relabel(time_flip_choi(2), {"Pt": "Pt1", "Pc": "Pc1", "A": "A1",
                                         "B": "B1", "Ft": "Ft1", "Fc": "Fc1"})
        f2 = relabel(time_flip_choi(2), {"Pt": "Pt2", "Pc": "Pc2", "A": "A2",
                                         "B": "B2", "Ft": "Ft2", "Fc": "Fc2"})
        both = permute_systems(tensor_op(f1, f2),
                               ["Pt1", "Pc1", "Pt2", "Pc2", "A1", "B1",
                                "A2", "B2", "Ft1", "Fc1", "Ft2", "Fc2"])
        both = merge_factors(both, ("Pt1", "Pc1", "Pt2", "Pc2"), "P")
        both = merge_factors(both, ("Ft1", "Fc1", "Ft2", "Fc2"), "F")
        both = permute_systems(both, ["P", "A1", "B1", "A2", "B2", "F"])
        rep = check_bislot(both, [(2, 2), (2, 2)], 16, 16)
        assert rep.passed and str(rep.lambda_expected) == "1/64"

    def test_tooth_combs_normalize_against_functionals(self, rng):
        # inserting a direction-choice functional into every tooth contracts
        # the comb to the scalar 1
        for seed in range(5):
            blocks, spec, reg = bitooth_blocks_and_spec(2, 2, {1: 2}, seed=seed)
            r = compose_network(blocks, spec, reg)
            funcs = []
            for i in (1, 2):
                rho = LabeledOperator(((f"A{i}", 2),), random_state(2, rng))
                sig = LabeledOperator(((f"B{i}", 2),), random_state(2, rng))
                funcs.append(functional_compose(rng.uniform(), rho, sig))
            total = link_all([r] + funcs)
            assert total.factors == ()
            assert abs(complex(total.data[0, 0]) - 1) < 1e-10


@pytest.fixture
def permute_calls(monkeypatch):
    """The orders of every permute_systems call made through a hoq module."""
    import importlib

    from hoq import linalg

    calls = []
    original = linalg.permute_systems

    def counted(op, order):
        calls.append(tuple(order))
        return original(op, order)

    for name in ("hoq", "hoq.linalg", "hoq.sectors", "hoq.membership", "hoq.processes",
                 "hoq.network", "hoq.serialize", "hoq.cli"):
        module = importlib.import_module(name)
        if getattr(module, "permute_systems", None) is original:
            monkeypatch.setattr(module, "permute_systems", counted)
    return calls


def _merged_group_by_group(op, groups):
    """The port merge as a sequence of one permutation and one merge per group."""
    from hoq.linalg import merge_factors

    for new_label, members in groups.items():
        rest = [lab for lab in op.labels if lab not in members]
        at = sum(lab not in members for lab in op.labels[:op.labels.index(members[0])])
        op = merge_factors(permute_systems(op, rest[:at] + list(members) + rest[at:]),
                           members, new_label)
    return op


class TestOneReorder:
    """Each operator is reordered at most once, by the function that forms it."""

    def test_link_product_permutes_no_operand(self, permute_calls):
        from hoq.linalg import link_product

        n, m = time_flip_choi(2), n_time_flip_choi(1, 2)
        link_product(relabel(n, {"Pt": "X"}), relabel(m, {"Ft": "X"}))
        assert permute_calls == []

    def test_canonical_ports_permutes_once(self, permute_calls):
        from hoq.processes import canonical_ports

        op = canonical_ports(flippable_switch_choi(2))
        assert op.labels == ("A1", "B1", "A2", "B2", "P", "F")
        assert permute_calls == [("A1", "B1", "A2", "B2", "Pt", "Pc", "Ft", "Fc")]

    @pytest.mark.parametrize("groups", [
        {"P": ("Pt", "Pc"), "F": ("Ft", "Fc")},
        {"F": ("Ft", "Fc"), "P": ("Pt", "Pc")},
        {"F": ("Fc", "Ft"), "P": ("Pc", "A1", "Pt")},
    ])
    def test_merge_ports_permutes_once(self, permute_calls, groups):
        op = flippable_switch_choi(2)
        merged = merge_ports(op, groups)
        assert len(permute_calls) == 1
        want = _merged_group_by_group(op, groups)
        assert merged.factors == want.factors
        assert np.array_equal(merged.data, want.data)

    def test_decompose_network_permutes_its_input_only(self, permute_calls):
        blocks, spec, reg = bitooth_blocks_and_spec(3, 2, {1: 2, 2: 2}, seed=4)
        r = compose_network(blocks, spec, reg)
        permute_calls.clear()
        out_blocks, spec2, reg2 = decompose_network(r, spec, reg)
        assert len(permute_calls) == 1
        assert [b.labels for b in out_blocks] == [
            ("A1", "B1", "M1"), ("A2", "B2", "M1", "M2"), ("A3", "B3", "M2")]
        back = compose_network(out_blocks, spec2, reg2, validate=False)
        assert np.abs(back.data - permute_systems(r, back.labels).data).max() < 1e-8
