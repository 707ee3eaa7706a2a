from fractions import Fraction

import numpy as np
import pytest

from hoq import (
    BistochElem,
    LabeledOperator,
    SystemRegistry,
    SystemString,
    check_bislot,
    check_bsp,
    classify,
    deviation_sectors,
    dual,
    dual_deviation_direct,
    identity_coeff,
    is_admissible,
    is_psd,
    network_characterization,
    parse_type,
    pattern_norms,
    permute_systems,
    sample_deterministic,
    sector_project,
    tensor,
    tensor_deviation_direct,
)
from hoq import linalg, sectors
from hoq.errors import FactorMismatch, NonFiniteOperator
from hoq.membership import check_operator
from hoq.processes import flippable_switch_choi, merge_ports, n_time_flip_choi
from hoq.sectors import (
    Hierarchy,
    SectorSet,
    arrow_coeff,
    arrow_sectors,
    dual_coeff_direct,
    outside_component,
    sector_union,
    tensor_coeff_direct,
    traceless_space,
)
from hoq.typesys import dehat

from helpers import (NON_FINITE, clear_plan_caches, hoq_caches, mask_of, marks_of,
                     non_finite_operator, random_type, reference_component, rename_type)

REG = SystemRegistry.of(A=2, B=2, P=4, F=4)
PAIR = parse_type("(^A -> ^B)", REG)
PAIR_AB = parse_type("(^A -> ^B)", SystemRegistry.of(A=2, B=2))
FLIP_TYPE = parse_type("((^A -> ^B) -> (P -> F))", REG)


def as_sets(s):
    return {tuple(zip(s.labels, marks_of(m, len(s.labels)))) for m in s.masks}


class TestCoeff:
    def test_pair(self):
        assert identity_coeff(PAIR, REG) == Fraction(1, 2)

    def test_trivial(self):
        assert identity_coeff(parse_type("I", REG), REG) == 1

    def test_flip_type(self):
        assert identity_coeff(FLIP_TYPE, REG) == Fraction(1, 8)
        reg3 = SystemRegistry.of(A=3, B=3, P=6, F=6)
        t = parse_type("((^A -> ^B) -> (P -> F))", reg3)
        assert identity_coeff(t, reg3) == Fraction(1, 18)  # 1/(2 d^2) at d=3

    def test_standard_base(self):
        t = parse_type("(A -> B)", REG)
        assert identity_coeff(t, REG) == Fraction(1, 2)

    def test_double_dual_preserves_coeff(self):
        rng = np.random.default_rng(1)
        for _ in range(40):
            t, reg = random_type(rng, (2, 3))
            c = identity_coeff(t, reg)
            assert identity_coeff(dual(dual(t)), reg) == c
            assert dual_coeff_direct(t, reg) == identity_coeff(dual(t), reg)


class TestDeviation:
    def test_pair_is_doubly_traceless(self):
        dev = deviation_sectors(PAIR, REG)
        assert as_sets(dev) == {(("A", "T"), ("B", "T"))}

    def test_dual_pair(self):
        dev = deviation_sectors(dual(PAIR), REG)
        assert as_sets(dev) == {(("A", "T"), ("B", "I")), (("A", "I"), ("B", "T"))}

    def test_flip_type_structure(self):
        dev = deviation_sectors(FLIP_TYPE, REG)
        expected = set()
        for a in "IT":
            for b in "IT":
                for p in "IT":
                    expected.add((("A", a), ("B", b), ("P", p), ("F", "T")))
        for p in "IT":
            expected.add((("A", "T"), ("B", "I"), ("P", p), ("F", "I")))
            expected.add((("A", "I"), ("B", "T"), ("P", p), ("F", "I")))
        assert as_sets(dev) == expected

    def test_tails_enter_base_case(self):
        reg = SystemRegistry.of(X=2, U=3, Y=2, V=2)
        t = parse_type("(^X U -> ^Y V)", reg)
        dev = deviation_sectors(t, reg)
        # any pattern with traceless V, or traceless on both hatted systems
        # with identity V
        got = as_sets(dev)
        assert (("X", "I"), ("U", "I"), ("Y", "I"), ("V", "T")) in got
        assert (("X", "T"), ("U", "I"), ("Y", "T"), ("V", "I")) in got
        assert (("X", "T"), ("U", "T"), ("Y", "T"), ("V", "I")) in got
        assert (("X", "I"), ("U", "T"), ("Y", "T"), ("V", "I")) not in got
        assert (("X", "T"), ("U", "T"), ("Y", "I"), ("V", "I")) not in got
        assert len(got) == 8 + 2

    def test_never_contains_all_identity(self):
        rng = np.random.default_rng(2)
        for _ in range(60):
            t, reg = random_type(rng, (2, 3))
            dev = deviation_sectors(t, reg)
            assert 0 not in dev.masks
            assert identity_coeff(t, reg) > 0

    def test_bistoch_strictly_wider_for_negative_hats(self):
        # a hatted pair to the left of an arrow enlarges the allowed sectors
        dev_b = deviation_sectors(FLIP_TYPE, REG)
        dev_s = deviation_sectors(dehat(FLIP_TYPE), REG)
        assert dev_s.masks < dev_b.masks
        gap = dev_b.masks - dev_s.masks
        assert {tuple(zip(dev_b.labels, marks_of(m, 4))) for m in gap} == {
            (("A", "I"), ("B", "T"), ("P", "I"), ("F", "I")),
            (("A", "I"), ("B", "T"), ("P", "T"), ("F", "I")),
        }


    def test_reorder_takes_a_permutation(self):
        sect = traceless_space((("A", 2), ("B", 3)))
        assert sect.reorder(["A", "B"]) is sect
        flipped = sect.reorder((("B", 3), ("A", 2)))
        assert flipped.systems == (("B", 3), ("A", 2)) and flipped.masks == {1, 2, 3}
        assert sect.reorder([["B", 3], ["A", 2]]) == flipped
        for labels in (["B"], ["A", "C"], ["A", "B", "B"]):
            with pytest.raises(FactorMismatch, match="do not match"):
                sect.reorder(labels)
        with pytest.raises(FactorMismatch, match="dimensions"):
            sect.reorder((("B", 2), ("A", 2)))

    def test_same_subspace_ignores_factor_order_only(self):
        dev = deviation_sectors(FLIP_TYPE, REG)
        flipped = dev.reorder(dev.labels[::-1])
        assert flipped != dev and flipped.same_subspace(dev) and dev.same_subspace(flipped)
        fewer = SectorSet(flipped.systems, sorted(flipped.masks)[1:])
        assert not fewer.same_subspace(dev) and not dev.same_subspace(fewer)
        other_dims = SectorSet(tuple((lab, 3) for lab, _ in dev.systems), dev.masks)
        assert not other_dims.same_subspace(dev)


class TestDirectFormulas:
    def test_dual_direct_examples(self):
        a = parse_type("A", REG)
        assert len(dual_deviation_direct(a, REG)) == 0  # complement of full traceless
        assert dual_deviation_direct(PAIR, REG).same_subspace(
            deviation_sectors(dual(PAIR), REG))

    def test_tensor_direct_example(self):
        a = parse_type("A", REG)
        b = parse_type("B", REG)
        direct = tensor_deviation_direct(a, b, REG)
        assert as_sets(direct) == {
            (("A", "T"), ("B", "I")),
            (("A", "T"), ("B", "T")),
            (("A", "I"), ("B", "T")),
        }

    def test_agreement_with_recursion_on_corpus(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            t, reg = random_type(rng, (2, 3), max_depth=4, max_systems=6)
            assert dual_deviation_direct(t, reg).same_subspace(
                deviation_sectors(dual(t), reg))
            assert dual_coeff_direct(t, reg) == identity_coeff(dual(t), reg)
            # disjoint second type for the tensor case
            u, reg_u = random_type(rng, (2, 3), max_depth=3, max_systems=4)
            from hoq.typesys import systems_of
            ren = {lab: f"{lab}q" for lab in systems_of(u)}
            u = rename_type(u, ren)
            reg2 = reg.with_entries(**{ren[lab]: reg_u.dim(lab) for lab in ren})
            assert tensor_deviation_direct(t, u, reg2).same_subspace(
                deviation_sectors(tensor(t, u), reg2))
            assert tensor_coeff_direct(t, u, reg2) == identity_coeff(tensor(t, u), reg2)

    def test_double_dual_idempotent_on_corpus(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            t, reg = random_type(rng, (2, 3), max_depth=4, max_systems=6)
            assert deviation_sectors(dual(dual(t)), reg).same_subspace(
                deviation_sectors(t, reg))


class TestSectorSetGates:
    def test_a_mask_beyond_the_systems(self):
        with pytest.raises(ValueError, match="out of range"):
            SectorSet((("A", 2), ("B", 2)), {0b100})

    def test_union_of_different_systems(self):
        a = SectorSet((("A", 2),), {1})
        with pytest.raises(ValueError, match="identical system lists"):
            sector_union(a, SectorSet((("B", 2),), {1}))

    def test_repr(self):
        s = SectorSet((("A", 2), ("B", 3)), {1, 3})
        assert repr(s) == "SectorSet((('A', 2), ('B', 3)), 2 patterns)"

    def test_a_network_without_slots(self):
        with pytest.raises(ValueError, match="at least one slot"):
            network_characterization([], "P", "F", REG)


class TestNetworkCharacterization:
    def test_single_slot_reduces_to_supermap_type(self):
        coeff, sect = network_characterization([dual(PAIR)], "P", "F", REG)
        assert coeff == identity_coeff(FLIP_TYPE, REG)
        assert sect.same_subspace(deviation_sectors(FLIP_TYPE, REG))

    def test_bitooth_coeff(self):
        reg = SystemRegistry.of(A1=2, B1=2, A2=2, B2=2)
        pairs = [BistochElem("A1", (), "B1", ()), BistochElem("A2", (), "B2", ())]
        coeff, _ = network_characterization(pairs, "I", "I", reg)
        assert coeff == Fraction(1, 4)

    def test_bislot_coeff(self):
        reg = SystemRegistry.of(A1=2, B1=2, A2=2, B2=2, P=8, F=8)
        slots = [dual(BistochElem("A1", (), "B1", ())),
                 dual(BistochElem("A2", (), "B2", ()))]
        coeff, _ = network_characterization(slots, "P", "F", reg)
        assert coeff == Fraction(1, 32)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_bislot_equals_teeth_into_channel(self, n):
        # the slot family is exactly "tooth family -> (P -> F)"
        dims = {f"A{i}": 2 for i in range(1, n + 1)}
        dims.update({f"B{i}": 2 for i in range(1, n + 1)})
        dims.update(P=2, F=2)
        reg = SystemRegistry.from_dict(dims)
        pairs = [BistochElem(f"A{i}", (), f"B{i}", ()) for i in range(1, n + 1)]
        tooth_coeff, tooth_dev = network_characterization(pairs, "I", "I", reg)
        slot_coeff, slot_dev = network_characterization(
            [dual(p) for p in pairs], "P", "F", reg)

        pf_dev = deviation_sectors(parse_type("(P -> F)", reg), reg)
        combined = arrow_sectors(tooth_dev, pf_dev)
        tooth_dim = 4 ** n
        combined_coeff = arrow_coeff(tooth_coeff, tooth_dim,
                                     identity_coeff(parse_type("(P -> F)", reg), reg))
        assert combined_coeff == slot_coeff
        assert combined.same_subspace(slot_dev)

    def test_bsp_is_wider_than_bislot_for_two_slots(self):
        reg = SystemRegistry.of(A1=2, B1=2, A2=2, B2=2, P=2, F=2)
        pairs = [BistochElem("A1", (), "B1", ()), BistochElem("A2", (), "B2", ())]
        _, slot_dev = network_characterization([dual(p) for p in pairs], "P", "F", reg)
        bsp_type = parse_type(
            "((((^A1 -> ^B1) -> ((^A2 -> ^B2) -> I)) -> I) -> (P -> F))", reg)
        bsp_dev = deviation_sectors(bsp_type, reg)
        slot_aligned = slot_dev.reorder(bsp_dev.labels)
        assert slot_aligned.masks < bsp_dev.masks


class TestNumericalSectors:
    def test_identity_components(self):
        one = LabeledOperator((("A", 2), ("B", 2)), np.eye(4))
        idn = sector_project(one, SectorSet(one.factors, [mask_of(("I", "I"))]))
        assert np.allclose(idn.data, np.eye(4))
        for marks in [("T", "I"), ("I", "T"), ("T", "T")]:
            comp = sector_project(one, SectorSet(one.factors, [mask_of(marks)]))
            assert np.abs(comp.data).max() < 1e-14

    def test_pauli_component(self):
        sz = np.diag([1.0, -1.0])
        opz = LabeledOperator((("A", 2), ("B", 2)), np.kron(sz, np.eye(2)))
        hit = sector_project(opz, SectorSet(opz.factors, [mask_of(("T", "I"))]))
        assert np.allclose(hit.data, opz.data)
        for marks in [("I", "I"), ("I", "T"), ("T", "T")]:
            comp = sector_project(opz, SectorSet(opz.factors, [mask_of(marks)]))
            assert np.abs(comp.data).max() < 1e-14

    def test_parseval(self, rng):
        for _ in range(10):
            g = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
            h = (g + g.conj().T) / 2
            oph = LabeledOperator((("A", 2), ("B", 3), ("C", 2)), h)
            norms = pattern_norms(oph)
            assert abs(sum(norms) - np.linalg.norm(h) ** 2) < 1e-10
            # inclusion-exclusion agrees with direct projection
            for mask, sq in enumerate(norms):
                direct = np.linalg.norm(reference_component(oph, marks_of(mask, 3))) ** 2
                assert abs(sq - direct) < 1e-10

    def test_project_idempotent_and_orthogonal(self, rng):
        systems = (("A", 2), ("B", 2))
        sect = SectorSet(systems, frozenset({mask_of(("T", "I")), mask_of(("T", "T"))}))
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        h = LabeledOperator(systems, (g + g.conj().T) / 2)
        p1 = sector_project(h, sect)
        p2 = sector_project(p1, sect)
        assert np.abs(p1.data - p2.data).max() < 1e-12
        rest = h.data - p1.data
        assert abs(np.trace(p1.data.conj().T @ rest)) < 1e-10

    @pytest.mark.parametrize("where", sorted(NON_FINITE))
    @pytest.mark.parametrize("func", ["sector_project", "sector_component",
                                      "outside_component", "pattern_norms"])
    def test_non_finite_entries_raise(self, func, where):
        op = non_finite_operator(where)
        sect = traceless_space(op.factors)
        # "sector_component": the component on one pattern
        one = SectorSet(op.factors, [mask_of(("T", "I"))])
        calls = {"sector_project": lambda: sector_project(op, sect),
                 "sector_component": lambda: sector_project(op, one),
                 "outside_component": lambda: outside_component(op, sect),
                 "pattern_norms": lambda: pattern_norms(op)}
        with pytest.raises(NonFiniteOperator, match="non-finite"):
            calls[func]()

    def test_project_factor_mismatch(self):
        sect = traceless_space((("A", 2), ("B", 2)))
        with pytest.raises(FactorMismatch, match="do not match"):
            sector_project(LabeledOperator((("A", 2), ("C", 2)), np.eye(4)), sect)
        with pytest.raises(FactorMismatch, match="dimensions"):
            outside_component(LabeledOperator((("B", 3), ("A", 2)), np.eye(6)), sect)

    def test_project_complement_branch(self, rng):
        # a sector set with more than half the patterns goes through the
        # complement route; both routes must agree
        systems = (("A", 2), ("B", 2))
        big = traceless_space(systems)
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        h = LabeledOperator(systems, (g + g.conj().T) / 2)
        via_complement = sector_project(h, big)
        direct = sum(reference_component(h, marks_of(m, 2)) for m in big.masks)
        assert np.abs(via_complement.data - direct).max() < 1e-12


class TestZeroPruning:
    """The projection recursion and the pattern-norm walk stop at exactly
    zero arrays.  The canonical processes are 0/1 Gram operators, so most of
    their partial traces and sector components are exactly 0; the counts of
    partial traces below are those of the pruned recursions (the recursions
    without the stops take 84, 90, 103, 84 and 4).  A check first traces
    out the factors that every forbidden pattern marks identity, and both
    recursions run on what is left (on the whole operator, the checks took
    40, 27, 52 and 47).  The first of those traces reads the live rows
    (``_trace_live``), not ``_trace_factor``, and ``classify`` takes it once
    for both of its levels, which share their idle factors: the counts were
    27, 25, 39 and 33 while every average went through ``_trace_factor``."""

    ORDER = ["P", "A1", "B1", "A2", "B2", "F"]
    BSP = "((((^A1 -> ^B1) -> ((^A2 -> ^B2) -> I)) -> I) -> (P -> F))"

    @pytest.fixture
    def traces(self, monkeypatch):
        calls = []
        original = sectors._trace_factor

        def counted(*args):
            calls.append(args[2])
            return original(*args)

        monkeypatch.setattr(sectors, "_trace_factor", counted)
        return calls

    @classmethod
    def _fused(cls, op):
        ports = {"P": ("Pt", "Pc"), "F": ("Ft", "Fc")}
        return permute_systems(merge_ports(op, ports), cls.ORDER)

    def test_switch_checks_at_d256(self, traces):
        r = self._fused(flippable_switch_choi(2))
        two = [(2, 2), (2, 2)]
        rep = check_bsp(r, two, 4, 4, hierarchy=Hierarchy.STANDARD)
        assert not rep.passed and rep.forbidden_components and len(traces) == 26
        traces.clear()
        rep = check_bislot(r, two, 4, 4)
        assert not rep.passed and rep.forbidden_components and len(traces) == 24
        traces.clear()
        reg = SystemRegistry.of(A1=2, B1=2, A2=2, B2=2, P=4, F=4)
        assert classify(r, parse_type(self.BSP, reg), reg).verdict == "BISTOCH_ONLY"
        assert len(traces) == 37

    def test_n_flip_standard_check_at_d1024(self, traces):
        r = self._fused(n_time_flip_choi(2, 2))
        rep = check_bsp(r, [(2, 2), (2, 2)], 8, 8, hierarchy=Hierarchy.STANDARD)
        assert not rep.passed and rep.forbidden_components and len(traces) == 32

    def test_undecided_admissibility(self, traces):
        # 2 % above a deterministic event: the PSD step of the first
        # iteration is exactly 0, so its projection takes one partial trace,
        # and its displacement, -offset, is the certificate of a gap bound
        # that stops the iteration there; the offset's projection takes two,
        # and the certificate, which lies in V-perp already, none
        reg = SystemRegistry.of(A=2, B=2)
        event = sample_deterministic(PAIR_AB, reg, seed=1009)
        op = LabeledOperator(event.factors, 1.02 * event.data)
        traces.clear()
        res = is_admissible(op, PAIR_AB, reg, max_iter=500)
        assert (res.status, res.iterations) == ("UNDECIDED", 1)
        assert res.residual.hex() == "0x1.47ae147ae1480p-6"
        assert len(traces) == 3

    def test_a_repeated_check_repeats_only_its_numerics(self, traces, monkeypatch):
        # each level's bookkeeping is worked out once: from emptied caches
        # the first run of each check renders and permutes masks, the second
        # does neither, and both take the partial traces counted above
        bookkeeping = []
        for name in ("_permute_mask", "_mask_text"):
            original = getattr(sectors, name)
            monkeypatch.setattr(sectors, name,
                                lambda *args, f=original, n=name: bookkeeping.append(n) or f(*args))
        sw = self._fused(flippable_switch_choi(2))
        nf = self._fused(n_time_flip_choi(2, 2))
        two = [(2, 2), (2, 2)]
        standard = Hierarchy.STANDARD
        reg = SystemRegistry.of(A1=2, B1=2, A2=2, B2=2, P=4, F=4)
        pair_reg = SystemRegistry.of(A=2, B=2)
        event = sample_deterministic(PAIR_AB, pair_reg, seed=1009)
        above = LabeledOperator(event.factors, 1.02 * event.data)
        checks = [
            (lambda: check_bsp(sw, two, 4, 4, hierarchy=standard).to_dict(), 26),
            (lambda: check_bislot(sw, two, 4, 4).to_dict(), 24),
            (lambda: classify(sw, parse_type(self.BSP, reg), reg).forbidden, 37),
            (lambda: check_bsp(nf, two, 8, 8, hierarchy=standard).to_dict(), 32),
            (lambda: is_admissible(above, PAIR_AB, pair_reg, max_iter=500).residual, 3)]
        cold_calls = []
        for check, count in checks:
            clear_plan_caches()
            runs = []
            for _ in range(2):
                bookkeeping.clear()
                traces.clear()
                runs.append((check(), len(traces), len(bookkeeping)))
            (first, cold_traces, cold), (second, warm_traces, warm) = runs
            assert first == second and cold_traces == warm_traces == count
            assert warm == 0
            cold_calls.append(cold)
        # the four checks of the processes name forbidden patterns
        assert all(cold_calls[:4])


class TestOneSupport:
    """A check finds the live rows of a sparse operator once, in its
    hermiticity scan, and hands them to the positivity test and to the
    average over Z; ``classify`` averages once for its two levels."""

    BSP = TestZeroPruning.BSP

    @pytest.fixture
    def counts(self, monkeypatch):
        calls = {"_sparse_support": 0, "_trace_live": 0}
        for module, name in ((linalg, "_sparse_support"), (sectors, "_trace_live")):
            original = getattr(module, name)

            def counted(*args, f=original, n=name):
                calls[n] += 1
                return f(*args)
            monkeypatch.setattr(module, name, counted)
        return calls

    @pytest.fixture
    def switch(self):
        return TestZeroPruning._fused(flippable_switch_choi(2))

    def test_a_sparse_check_scans_once(self, counts, switch):
        two = [(2, 2), (2, 2)]
        for check in (lambda: check_bislot(switch, two, 4, 4),
                      lambda: check_bsp(switch, two, 4, 4, hierarchy=Hierarchy.STANDARD)):
            counts.update(_sparse_support=0, _trace_live=0)
            assert check().forbidden_components
            assert counts == {"_sparse_support": 1, "_trace_live": 1}

    def test_classify_scans_and_averages_once(self, counts, switch):
        reg = SystemRegistry.of(A1=2, B1=2, A2=2, B2=2, P=4, F=4)
        t = parse_type(self.BSP, reg)
        assert classify(switch, t, reg).verdict == "BISTOCH_ONLY"
        assert counts == {"_sparse_support": 1, "_trace_live": 1}

    def test_many_live_pairs_average_the_whole_matrix(self, counts, monkeypatch):
        # half the rows live, split between the two values of an idle qubit:
        # 2 * 128^2 same-z pairs against the 512^2 / 2 entries of the whole
        # matrix's average, too many to pay, so the check averages through
        # _trace_factor, with the bytes of the live-block average
        rng = np.random.default_rng(7)
        live = np.sort(rng.choice(512, 256, replace=False))
        g = np.zeros((512, 8))
        g[live] = rng.integers(0, 2, (256, 8))
        systems = (("X", 256), ("Y", 2))
        op = LabeledOperator(systems, g @ g.T)
        allowed = SectorSet(systems, {2, 3})
        plan = sectors._level_plan(allowed, op.factors)
        assert plan.idle == (1,)
        found = linalg._sparse_support(op.data)
        assert not linalg._few_live_pairs(op.dims, 1, found)
        whole = []
        original = sectors._trace_factor
        monkeypatch.setattr(sectors, "_trace_factor",
                            lambda *args: whole.append(args[2]) or original(*args))
        counts.update(_sparse_support=0, _trace_live=0)
        report = check_operator(op, Fraction(1, 512), allowed)
        assert report.forbidden_components
        assert counts == {"_sparse_support": 1, "_trace_live": 0} and whole[0] == 1
        averaged = sectors._idle_traced(op, plan, found).data + 0.0
        by_live_rows = linalg._trace_live(op.data, op.dims, 1, found) / 2 + 0.0
        assert averaged.tobytes() == by_live_rows.tobytes()

    def test_is_psd_scans_once(self, counts, switch):
        assert is_psd(switch)
        assert counts == {"_sparse_support": 1, "_trace_live": 0}

    def test_a_write_between_two_checks_is_seen(self, switch):
        # the operator shares the caller's array, so rows that the caller
        # makes live after one check are read by the next
        data = switch.data.copy()
        op = LabeledOperator(switch.factors, data)
        two = [(2, 2), (2, 2)]
        first = check_bislot(op, two, 4, 4).to_dict()
        i, j = np.flatnonzero(~data.any(axis=1))[[0, 5]]
        data[np.ix_([i, j], [i, j])] = 0.5
        second = check_bislot(op, two, 4, 4).to_dict()
        fresh = check_bislot(LabeledOperator(switch.factors, data.copy()), two, 4, 4).to_dict()
        assert second == fresh
        assert second["sector_residual"] != first["sector_residual"]

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_no_live_rows_average_to_zeros_of_the_dtype(self, dtype):
        data = np.zeros((12, 12), dtype)
        out = linalg._trace_live(data, (3, 4), 1, linalg._sparse_support(data))
        assert out.dtype == dtype and out.shape == (3, 3) and not out.any()

    def test_a_zero_operator_checks(self, switch):
        zero = LabeledOperator(switch.factors, np.zeros_like(switch.data))
        rep = check_bislot(zero, [(2, 2), (2, 2)], 4, 4)
        assert (rep.verdict, rep.lambda_measured, rep.sector_residual) == ("FAIL", 0.0, 0.0)


def test_every_cache_is_bounded():
    # the caches hold exact objects of the levels checked, never operator
    # data, and each keeps a bounded number of them
    caches = {c.__name__: c for c in hoq_caches()}
    assert {"_level_plan", "_split", "_complement", "_forbidden", "_network_cached",
            "_classification_plan"} <= caches.keys()
    assert all(c.cache_parameters()["maxsize"] is not None for c in caches.values())
