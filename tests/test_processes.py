import numpy as np
import pytest

from hoq import (
    LabeledOperator,
    SystemRegistry,
    classify,
    dual,
    is_deterministic,
    parse_type,
    partial_trace,
    permute_systems,
    sector_project,
)
from hoq.errors import (
    BadLevels,
    BadProbability,
    DimMismatch,
    NonFiniteOperator,
    NotAFunctional,
    NotDensity,
)
from hoq.processes import (
    flippable_switch_choi,
    functional_compose,
    functional_decompose,
    haar_unitary,
    lc_22_process,
    lc_23_process,
    merge_ports,
    n_time_flip_choi,
    random_bistochastic_channel,
    random_kraus,
    random_state,
    time_flip_apply,
    time_flip_choi,
    time_flip_merged,
)
from hoq.sectors import SectorSet
from hoq.serialize import DEFAULT_DIM_CAP
from hoq.linalg import choi_of_kraus, link_all, relabel

from helpers import (NON_FINITE, bistoch_type_of, mask_of, reference_n_time_flip,
                     reference_time_flip, run_capped)

REG = SystemRegistry.of(A=2, B=2, P=4, F=4)
FLIP_TYPE = parse_type("((^A -> ^B) -> (P -> F))", REG)


def branch_output(process, unitaries, control, rho):
    """Output on ``Ft, Fc`` of ``process`` with unitary channels in its slots.

    ``unitaries`` fill the slots in factor order, the target enters in the
    state ``rho`` and the control in the basis state ``|control>``.
    """
    d, n_ctrl = process.dim_of("Pt"), process.dim_of("Pc")
    ctrl = np.zeros((n_ctrl, n_ctrl))
    ctrl[control, control] = 1.0
    slots = process.labels[2:-2]
    channels = [relabel(choi_of_kraus([u], "in", "out"), {"in": a, "out": b})
                for u, a, b in zip(unitaries, slots[::2], slots[1::2])]
    out = link_all([process, LabeledOperator((("Pt", d),), rho),
                    LabeledOperator((("Pc", n_ctrl),), ctrl)] + channels)
    return permute_systems(out, ["Ft", "Fc"]).data, ctrl


def assert_branch(process, unitaries, control, w, rng):
    """The control passes unchanged and the target leaves as ``w rho w^H``."""
    rho = random_state(process.dim_of("Pt"), rng)
    got, ctrl = branch_output(process, unitaries, control, rho)
    assert np.abs(got - np.kron(w @ rho @ w.conj().T, ctrl)).max() < 1e-10


class TestRandomBistoch:
    def test_single_unitary_is_unitary_choi(self):
        c = random_bistochastic_channel(2, k=1, seed=4)
        assert abs(c.trace() - 2) < 1e-12
        vals = np.linalg.eigvalsh(c.data)
        assert abs(vals[-1] - 2) < 1e-9 and np.abs(vals[:-1]).max() < 1e-9

    def test_outputs_pass_membership(self):
        for seed in range(50):
            c = random_bistochastic_channel(2, k=3, seed=seed)
            reg = SystemRegistry.from_dict(dict(c.factors))
            assert is_deterministic(c, bistoch_type_of(c), reg).passed
        c = random_bistochastic_channel(2, 3, 2, k=2, seed=1)
        reg = SystemRegistry.from_dict(dict(c.factors))
        t = bistoch_type_of(c, in_tail=('U',), out_tail=('V',))
        assert is_deterministic(c, t, reg).passed

    @pytest.mark.parametrize("dims", [(0, 1, 1), (-2, 1, 1), (2, 0, 1), (2, -3, 1), (2, 1, 0)])
    def test_dimensions_below_one_raise(self, dims):
        with pytest.raises(ValueError, match="dimensions must be at least 1"):
            random_bistochastic_channel(*dims)

    @pytest.mark.parametrize("k", [0, -1])
    def test_needs_a_mixture_term(self, k):
        with pytest.raises(ValueError, match="at least one mixture term"):
            random_bistochastic_channel(2, k=k)

    @pytest.mark.parametrize("d,tail_in,tail_out,want", [
        (1, 1, 1, ["A", "B"]), (2, 1, 1, ["A", "B"]), (2, 3, 1, ["A", "U", "B"]),
        (3, 1, 2, ["A", "B", "V"]), (2, 2, 2, ["A", "U", "B", "V"]),
    ])
    def test_matches_the_mixture_in_port_order(self, d, tail_in, tail_out, want):
        # the mixture rebuilt from the same random stream over A B U V,
        # trivial tails left out, and permuted to the ports' order
        rng = np.random.default_rng(5)
        weights = rng.dirichlet(np.ones(3))
        total = None
        for w in weights:
            u = haar_unitary(d, rng)
            data = choi_of_kraus([u.T if rng.integers(2) else u], "A", "B").data
            if tail_in > 1 or tail_out > 1:
                tail = choi_of_kraus(random_kraus(tail_in, tail_out, 2, rng), "U", "V").data
                data = np.kron(data, tail)
            total = w * data if total is None else total + w * data
        tails = [f for f in (("U", tail_in), ("V", tail_out)) if f[1] > 1]
        factors = [("A", d), ("B", d)] + tails
        ref = permute_systems(LabeledOperator(tuple(factors), total), want)
        c = random_bistochastic_channel(d, tail_in, tail_out, k=3, seed=5)
        assert c.factors == ref.factors
        assert c.data.tobytes() == ref.data.tobytes()

    def test_marginal_identities(self):
        for seed in range(5):
            c = random_bistochastic_channel(3, 2, 2, k=2, seed=seed)
            # trace over outputs = identity on inputs; trace over the hatted
            # input and the output tail = identity on the other two
            m1 = partial_trace(c, ["B", "V"])
            assert np.abs(m1.data - np.eye(m1.dim)).max() < 1e-12
            m2 = partial_trace(c, ["A", "V"])
            assert np.abs(m2.data - np.eye(m2.dim)).max() < 1e-12


class TestTimeFlip:
    def test_trace_and_coefficient(self):
        for d in (2, 3):
            r = time_flip_choi(d)
            assert abs(r.trace() - 2 * d * d) < 1e-12
            assert abs(np.trace(r.data).real / r.dim - 1 / (2 * d * d)) < 1e-15

    @pytest.mark.parametrize("d", range(2, 7))
    def test_matches_index_loop(self, d):
        r = time_flip_choi(d)
        ref = reference_time_flip(d)
        assert r.factors == ref.factors and r.data.dtype == np.float64
        assert np.array_equal(r.data, ref.data)

    @pytest.mark.parametrize("d", [2, 3])
    def test_branches(self, d, rng):
        # control 0 runs the channel forwards, control 1 as its transpose
        u = haar_unitary(d, rng)
        assert_branch(time_flip_choi(d), [u], 0, u, rng)
        assert_branch(time_flip_choi(d), [u], 1, u.T, rng)

    def test_rank_one_psd(self):
        r = time_flip_choi(2)
        vals = np.linalg.eigvalsh(r.data)
        assert vals[0] > -1e-12
        assert np.sum(vals > 1e-9) == 1

    def test_deterministic_for_supermap_type(self):
        merged = time_flip_merged(2)
        assert is_deterministic(merged, FLIP_TYPE, REG).passed

    def test_fails_ordinary_supermap_with_localized_residual(self):
        merged = time_flip_merged(2)
        res = classify(merged, FLIP_TYPE, REG)
        assert res.verdict == "BISTOCH_ONLY"
        std = res.standard_report
        assert not std.passed
        total = std.sector_residual
        inside = np.sqrt(sum(
            norm ** 2 for pat, norm in std.forbidden_components
            if "A:I" in pat and "B:T" in pat and "F:I" in pat))
        assert inside >= 0.9999 * total


class TestTimeFlipApply:
    def test_forward_branch_unitary(self, rng):
        u = haar_unitary(2, rng)
        chan = choi_of_kraus([u], "A", "B")
        rho = LabeledOperator((("R", 2),), random_state(2, rng))
        omega = LabeledOperator((("W", 2),), np.diag([1.0, 0.0]))
        out = time_flip_apply(chan, rho, omega)
        expect = np.kron(u @ rho.data @ u.conj().T, np.diag([1.0, 0.0]))
        assert np.abs(permute_systems(out, ["Ft", "Fc"]).data - expect).max() < 1e-12

    def test_identity_channel_any_diagonal_control(self, rng):
        chan = choi_of_kraus([np.eye(2)], "A", "B")
        rho = LabeledOperator((("R", 2),), random_state(2, rng))
        omega = LabeledOperator((("W", 2),), np.diag([0.3, 0.7]))
        out = time_flip_apply(chan, rho, omega)
        expect = np.kron(rho.data, omega.data)
        assert np.abs(out.data - expect).max() < 1e-12

    def test_symmetric_unitary_keeps_control_coherent(self, rng):
        # U = U^T makes the two branches identical, so a |+> control stays |+>
        theta = 0.7
        u = np.array([[np.cos(theta), 1j * np.sin(theta)],
                      [1j * np.sin(theta), np.cos(theta)]])
        assert np.abs(u - u.T).max() < 1e-12
        chan = choi_of_kraus([u], "A", "B")
        rho = LabeledOperator((("R", 2),), random_state(2, rng))
        plus = np.full((2, 2), 0.5)
        omega = LabeledOperator((("W", 2),), plus)
        out = time_flip_apply(chan, rho, omega)
        ctrl = partial_trace(out, ["Ft"])
        assert np.abs(ctrl.data - plus).max() < 1e-10

    def test_trace_preserving_on_bidirectional_channels(self, rng):
        # flipping a bidirectional channel yields a channel: states in,
        # unit-trace states out, and the Choi marginal condition holds
        for seed in range(5):
            chan = random_bistochastic_channel(2, k=2, seed=seed)
            rho = LabeledOperator((("R", 2),), random_state(2, rng))
            omega = LabeledOperator((("W", 2),), random_state(2, rng))
            out = time_flip_apply(chan, rho, omega)
            assert abs(out.trace() - 1) < 1e-12
        # Choi of the flipped operation: link the flip with the channel only
        from hoq.linalg import link_product, relabel
        chan = random_bistochastic_channel(2, k=3, seed=99)
        flipped = link_product(time_flip_choi(2), chan)
        marg = partial_trace(flipped, ["Ft", "Fc"])
        assert np.abs(marg.data - np.eye(4)).max() < 1e-10


class TestTimeFlipApplyDimensions:
    """Each of time_flip_apply's three dimension gates."""

    CHAN = choi_of_kraus([np.eye(2)], "A", "B")
    RHO = LabeledOperator((("R", 2),), np.eye(2) / 2)
    OMEGA = LabeledOperator((("W", 2),), np.eye(2) / 2)

    def test_channel_with_three_factors(self):
        chan = LabeledOperator((("A", 2), ("B", 2), ("C", 1)), self.CHAN.data)
        with pytest.raises(DimMismatch, match="exactly two factors"):
            time_flip_apply(chan, self.RHO, self.OMEGA)

    def test_channel_between_unequal_dimensions(self):
        chan = choi_of_kraus([np.eye(3, 2)], "A", "B")
        with pytest.raises(DimMismatch, match="equal input and output dimensions"):
            time_flip_apply(chan, self.RHO, self.OMEGA)

    @pytest.mark.parametrize("which", ["rho", "omega"])
    def test_state_or_control_of_the_wrong_dimension(self, which):
        states = {"rho": self.RHO, "omega": self.OMEGA}
        states[which] = LabeledOperator((("X", 3),), np.eye(3) / 3)
        with pytest.raises(DimMismatch, match="state/control dimensions"):
            time_flip_apply(self.CHAN, states["rho"], states["omega"])


class TestNTimeFlip:
    def test_single_slot_matches_flip(self):
        f1 = n_time_flip_choi(1, 2)
        assert np.array_equal(
            permute_systems(f1, ["Pt", "Pc", "A1", "B1", "Ft", "Fc"]).data,
            time_flip_choi(2).data)

    def test_two_slots_sequential_structure(self):
        f2 = n_time_flip_choi(2, 2)
        assert f2.labels == ("Pt", "Pc", "A1", "B1", "A2", "B2", "Ft", "Fc")
        assert f2.dim_of("Pc") == 4 and f2.dim == 1024
        assert abs(f2.trace() - 32) < 1e-12

    @pytest.mark.parametrize("control", range(4))
    def test_two_slot_branches(self, control, rng):
        # bit s of the control (slot 1 most significant) transposes slot s,
        # and the target meets slot 1 first: W = W2 W1
        us = [haar_unitary(2, rng), haar_unitary(2, rng)]
        w1, w2 = (u.T if control >> (1 - s) & 1 else u for s, u in enumerate(us))
        assert_branch(n_time_flip_choi(2, 2), us, control, w2 @ w1, rng)

    @pytest.mark.parametrize("n, d", [(n, d) for n in range(1, 4) for d in range(2, 7)
                                      if (d * 2 ** n) ** 2 * d ** (2 * n) <= DEFAULT_DIM_CAP])
    def test_matches_link_chain(self, n, d):
        r = n_time_flip_choi(n, d)
        ref = reference_n_time_flip(n, d)
        assert r.factors == ref.factors and r.data.dtype == np.float64
        assert np.array_equal(r.data, ref.data)

    @pytest.mark.parametrize("build", [time_flip_choi, flippable_switch_choi,
                                       lambda d: n_time_flip_choi(2, d)],
                             ids=["time_flip", "flippable_switch", "n_time_flip"])
    @pytest.mark.parametrize("d", [1, 0, -2])
    def test_flips_need_a_target_of_dimension_two(self, build, d):
        with pytest.raises(ValueError, match="^target dimension must be at least 2$"):
            build(d)

    def test_a_bad_target_is_refused_before_the_routes_are_built(self):
        # 2^64 routes fit in no memory: the target check must come first
        res = run_capped("from hoq.processes import n_time_flip_choi; n_time_flip_choi(64, 0)")
        assert res.returncode == 1
        assert res.stderr.rstrip().endswith("ValueError: target dimension must be at least 2")

    def test_n_time_flip_needs_a_slot(self):
        with pytest.raises(ValueError, match="^need n >= 1$"):
            n_time_flip_choi(0, 2)


class TestFlippableSwitch:
    def test_trace_and_rank(self):
        r = flippable_switch_choi(2)
        assert abs(r.trace() - 16) < 1e-12
        assert abs(np.trace(r.data).real / r.dim - 1 / 16) < 1e-15
        vals = np.linalg.eigvalsh(r.data)
        assert vals[0] > -1e-12 and np.sum(vals > 1e-9) == 1

    @pytest.mark.parametrize("d", [2, 3])
    def test_branches(self, d, rng):
        # control 0 runs U then V; control 1 runs V then U, both transposed
        u, v = haar_unitary(d, rng), haar_unitary(d, rng)
        assert_branch(flippable_switch_choi(d), [u, v], 0, v @ u, rng)
        assert_branch(flippable_switch_choi(d), [u, v], 1, u.T @ v.T, rng)

    def test_classifies_bistoch_only(self):
        r = merge_ports(flippable_switch_choi(2),
                        {"P": ("Pt", "Pc"), "F": ("Ft", "Fc")})
        reg = SystemRegistry.of(A1=2, B1=2, A2=2, B2=2, P=4, F=4)
        t = parse_type(
            "((((^A1 -> ^B1) -> ((^A2 -> ^B2) -> I)) -> I) -> (P -> F))", reg)
        res = classify(r, t, reg)
        assert res.verdict == "BISTOCH_ONLY"
        assert any("A1:I" in p and "B1:I" in p and "A2:I" in p and "B2:T" in p
                   for p, _ in res.forbidden)


class TestLC:
    def test_lc23_traces(self):
        for n in (2, 3):
            r = lc_23_process(n)
            assert abs(r.trace() - n * n) < 1e-12
            assert abs(np.trace(r.data).real / r.dim - 1 / n ** 2) < 1e-15

    @pytest.mark.parametrize("n", [2, 3])
    def test_lc23_classification(self, n):
        r = lc_23_process(n)
        reg = SystemRegistry.of(A1=n, B1=n, A2=n, B2=n)
        t = parse_type(
            "((((^A1 -> ^B1) -> ((^A2 -> ^B2) -> I)) -> I) -> I)", reg)
        res = classify(r, t, reg)
        assert res.bistoch_report.passed
        assert res.verdict == "BISTOCH_ONLY"

    def test_lc23_forbidden_component_matrix(self):
        r = lc_23_process(2)
        lam = 1 / 4
        dev = LabeledOperator(r.factors, r.data - lam * np.eye(16))
        comp = sector_project(dev, SectorSet(dev.factors, [mask_of(("T", "T", "I", "T"))]))
        sz = np.diag([1.0, -1.0])
        expect = np.kron(np.kron(np.kron(sz, sz), np.eye(2)), sz) / 4
        assert np.abs(comp.data - expect).max() < 1e-12
        assert abs(np.linalg.norm(comp.data) - 1.0) < 1e-12

    def test_lc23_bad_levels(self):
        with pytest.raises(BadLevels):
            lc_23_process(4)

    def test_lc22_traces(self):
        for d, expected in ((2, 4), (3, 9), (4, 16)):
            r = lc_22_process(d, 0, 1)
            assert abs(r.trace() - expected) < 1e-12
            assert abs(np.trace(r.data).real / r.dim - 1 / d ** 2) < 1e-15

    def test_lc22_fifth_term_vanishes_at_d2(self):
        r = lc_22_process(2, 0, 1)
        # only four diagonal entries survive
        assert np.count_nonzero(np.abs(np.diag(r.data)) > 1e-12) == 4

    @pytest.mark.parametrize("d", [2, 3])
    def test_lc22_classification(self, d):
        r = lc_22_process(d, 0, 1)
        reg = SystemRegistry.of(A1=d, B1=d, A2=d, B2=d)
        t = parse_type(
            "((((^A1 -> ^B1) -> ((^A2 -> ^B2) -> I)) -> I) -> I)", reg)
        res = classify(r, t, reg)
        assert res.verdict == "BISTOCH_ONLY"

    def test_lc22_forbidden_component_on_last_output(self):
        d = 3
        r = lc_22_process(d, 0, 1)
        lam = 1 / d ** 2
        dev = LabeledOperator(r.factors, r.data - lam * np.eye(d ** 4))
        comp = sector_project(dev, SectorSet(dev.factors, [mask_of(("I", "I", "I", "T"))]))
        x_plus_y = np.diag([1.0, 1.0, 0.0]) - 2 * np.eye(d) / d
        expect = np.kron(np.eye(d ** 3), x_plus_y) / d ** 2
        assert np.abs(comp.data - expect).max() < 1e-12

    def test_lc22_bad_levels(self):
        with pytest.raises(BadLevels):
            lc_22_process(3, 1, 1)
        with pytest.raises(BadLevels):
            lc_22_process(2, 0, 5)


class TestFunctionals:
    def test_compose_edges(self, rng):
        rho = LabeledOperator((("A", 2),), random_state(2, rng))
        sigma = LabeledOperator((("B", 2),), random_state(2, rng))
        full_fwd = functional_compose(1.0, rho, sigma)
        assert np.abs(full_fwd.data - np.kron(rho.data, np.eye(2))).max() < 1e-12
        full_bwd = functional_compose(0.0, rho, sigma)
        assert np.abs(full_bwd.data - np.kron(np.eye(2), sigma.data)).max() < 1e-12

    def test_compose_passes_functional_check(self, rng):
        reg = SystemRegistry.of(A=2, B=2)
        t = dual(parse_type("(^A -> ^B)", reg))
        for _ in range(20):
            p = rng.uniform()
            rho = LabeledOperator((("A", 2),), random_state(2, rng))
            sigma = LabeledOperator((("B", 2),), random_state(2, rng))
            r = functional_compose(p, rho, sigma)
            assert is_deterministic(r, t, reg).passed

    def test_compose_validation(self, rng):
        rho = LabeledOperator((("A", 2),), random_state(2, rng))
        sigma = LabeledOperator((("B", 2),), random_state(2, rng))
        with pytest.raises(BadProbability):
            functional_compose(1.5, rho, sigma)
        with pytest.raises(NotDensity):
            functional_compose(0.5, LabeledOperator((("A", 2),), np.eye(2)), sigma)
        with pytest.raises(NotDensity, match="positive"):
            functional_compose(0.5, LabeledOperator((("A", 2),), np.diag([1.5, -0.5])), sigma)

    @pytest.mark.parametrize("where", sorted(NON_FINITE))
    @pytest.mark.parametrize("bad", ["rho", "sigma"])
    def test_compose_rejects_non_finite_states(self, bad, where):
        row, col, value = NON_FINITE[where]
        data = np.eye(4, dtype=complex) / 4
        data[row, col] = value
        states = {"rho": LabeledOperator((("A", 4),), np.eye(4) / 4),
                  "sigma": LabeledOperator((("B", 4),), np.eye(4) / 4)}
        states[bad] = LabeledOperator(states[bad].factors, data)
        with pytest.raises(NonFiniteOperator):
            functional_compose(0.5, states["rho"], states["sigma"])

    def test_decompose_pure_forward(self):
        ket0 = np.diag([1.0, 0.0])
        rho = LabeledOperator((("A", 2),), ket0)
        r = functional_compose(1.0, rho, LabeledOperator((("B", 2),), np.eye(2) / 2))
        dec = functional_decompose(r)
        assert abs(dec.p - 1.0) < 1e-12
        assert np.abs(dec.rho_fwd.data - ket0).max() < 1e-12

    def test_decompose_maximally_mixed(self):
        r = LabeledOperator((("A", 2), ("B", 2)), np.eye(4) / 2)
        dec = functional_decompose(r)
        assert dec.p == 0.0
        assert np.abs(dec.sigma_bwd.data - np.eye(2) / 2).max() < 1e-12

    def test_roundtrip_recomposition(self, rng):
        for trial in range(30):
            d = 2 if trial % 2 == 0 else 3
            p = rng.uniform()
            rho = LabeledOperator((("A", d),), random_state(d, rng))
            sigma = LabeledOperator((("B", d),), random_state(d, rng))
            r = functional_compose(p, rho, sigma)
            dec = functional_decompose(r)
            back = functional_compose(dec.p, dec.rho_fwd, dec.sigma_bwd)
            assert np.abs(back.data - r.data).max() < 1e-10

    def test_decompose_rejects_non_functionals(self):
        bad = LabeledOperator((("A", 2), ("B", 2)), np.diag([1.0, 0, 0, 0]))
        with pytest.raises(NotAFunctional):
            functional_decompose(bad)

    def test_decompose_needs_two_factors_of_one_dimension(self):
        with pytest.raises(NotAFunctional, match="equal dimension"):
            functional_decompose(LabeledOperator((("A", 2), ("B", 3)), np.eye(6) / 3))

    def test_compose_needs_one_factor_states_on_distinct_labels(self, rng):
        rho = LabeledOperator((("A", 2),), random_state(2, rng))
        pair = LabeledOperator((("B", 2), ("C", 2)), np.eye(4) / 4)
        with pytest.raises(NotDensity, match="single-factor"):
            functional_compose(0.5, rho, pair)
        with pytest.raises(NotDensity, match="distinct labels"):
            functional_compose(0.5, rho, rho)
