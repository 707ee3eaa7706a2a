import numpy as np
import pytest

from hoq import (
    LabeledOperator,
    Pattern,
    SystemRegistry,
    classify,
    dual,
    is_admissible,
    is_deterministic,
    is_psd,
    parse_type,
    partial_trace,
    sample_deterministic,
    sector_component,
    tensor,
)
from hoq.errors import FactorMismatch, NoHattedSystems, NonFiniteOperator
from hoq.linalg import TOL_PSD, link_product, permute_systems, tensor_op, transpose
from hoq.membership import random_hermitian
from hoq.processes import random_state
from hoq.typesys import extend, systems_of

from helpers import NON_FINITE, non_finite_operator, random_type, reference_admissible

REG = SystemRegistry.of(A=2, B=2, P=4, F=4)


def test_maximally_mixed_state_passes():
    t = parse_type("A", REG)
    op = LabeledOperator((("A", 2),), np.eye(2) / 2)
    assert is_deterministic(op, t, REG).passed


def test_unnormalized_state_fails_lambda():
    t = parse_type("A", REG)
    op = LabeledOperator((("A", 2),), np.eye(2))
    rep = is_deterministic(op, t, REG)
    assert not rep.passed and not rep.lambda_ok and rep.psd_ok


def test_non_psd_fails():
    t = parse_type("A", REG)
    op = LabeledOperator((("A", 2),), np.diag([1.2, -0.2]))
    rep = is_deterministic(op, t, REG)
    assert not rep.passed and not rep.psd_ok and rep.min_eigenvalue < -1e-3


@pytest.mark.parametrize("shift, method", [(2.0, "eigvalsh"), (0.5, "cholesky")])
def test_psd_gate_at_the_tolerance(shift, method):
    # minimum eigenvalue -shift * psd_tol, everything else a valid state on A
    reg = SystemRegistry.of(A=4)
    low = -shift * TOL_PSD
    vals = np.array([low, 0.2, 0.3, 0.5 - low])
    rng = np.random.default_rng(7)
    q, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    op = LabeledOperator((("A", 4),), (q * vals) @ q.conj().T)
    rep = is_deterministic(op, parse_type("A", reg), reg)
    assert rep.psd_method == method and rep.to_dict()["psd_method"] == method
    if method == "eigvalsh":
        assert not rep.passed and not rep.psd_ok
        assert rep.min_eigenvalue == pytest.approx(low, abs=1e-15)
        assert "Cholesky" not in rep.to_text()
    else:
        assert rep.passed and rep.min_eigenvalue == -TOL_PSD
        assert "min eigenvalue ≥ -1.000e-09 (Cholesky certificate)" in rep.to_text()


def test_breakdown_lists_only_patterns_with_weight():
    # one forbidden pattern added to a process of the slot type: rounding in
    # the inclusion-exclusion must not list a second, empty pattern
    reg = SystemRegistry.of(A1=2, B1=2, A2=2, B2=2, P=4, F=4)
    t = parse_type("((((^A1 -> ^B1) -> ((^A2 -> ^B2) -> I)) -> I) -> (P -> F))", reg)
    base = sample_deterministic(t, reg, eps=0.5, seed=1)
    noise = LabeledOperator(base.factors, random_hermitian(256, np.random.default_rng(1)))
    comp = sector_component(noise, Pattern(("I", "I", "T", "T", "I", "I"))).data
    op = LabeledOperator(base.factors, base.data + 1e-3 * comp / np.linalg.norm(comp))
    rep = is_deterministic(op, t, reg)
    assert [pat for pat, _ in rep.forbidden_components] == ["A1:I B1:I A2:T B2:T P:I F:I"]
    assert rep.forbidden_components[0][1] == pytest.approx(1e-3, rel=1e-9)


@pytest.mark.parametrize("where", sorted(NON_FINITE))
def test_non_finite_entries_rejected(where):
    t = parse_type("(^A -> ^B)", REG)
    op = non_finite_operator(where)
    with pytest.raises(NonFiniteOperator):
        is_deterministic(op, t, REG)
    with pytest.raises(NonFiniteOperator):
        is_admissible(op, t, REG)


# a state with eigenvalue -0.5: a NaN or infinite psd_tol used to let it pass
_NOT_PSD = LabeledOperator((("A", 2),), np.diag([1.5, -0.5]))
_PAIR = LabeledOperator((("A", 2), ("B", 2)), np.eye(4) / 2)
_TOL_CASES = [(func, op, type_text, keyword)
              for func, op, type_text in [(is_deterministic, _NOT_PSD, "A"),
                                          (classify, _PAIR, "(^A -> ^B)"),
                                          (is_admissible, _PAIR, "(^A -> ^B)")]
              for keyword in ("tol", "psd_tol", "herm_tol")]


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1e-9])
@pytest.mark.parametrize("func, op, type_text, keyword", _TOL_CASES,
                         ids=[f"{c[0].__name__}.{c[3]}" for c in _TOL_CASES])
def test_tolerances_must_be_finite_and_non_negative(func, op, type_text, keyword, bad):
    with pytest.raises(ValueError, match=f"^{keyword} must be finite and >= 0"):
        func(op, parse_type(type_text, REG), REG, **{keyword: bad})


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1e-9])
def test_is_psd_tolerance_validated(bad):
    with pytest.raises(ValueError, match="psd_tol must be finite and >= 0"):
        is_psd(_NOT_PSD, psd_tol=bad)


@pytest.mark.parametrize("max_iter", [0, -3])
def test_admissibility_needs_an_iteration(max_iter):
    t = parse_type("(^A -> ^B)", REG)
    op = LabeledOperator((("A", 2), ("B", 2)), np.eye(4) / 4)
    with pytest.raises(ValueError, match="max_iter must be >= 1"):
        is_admissible(op, t, REG, max_iter=max_iter)
    assert is_admissible(op, t, REG, max_iter=1).status in ("FEASIBLE", "UNDECIDED")


def test_factor_dimension_mismatch():
    t = parse_type("(^A -> ^B)", REG)
    op = LabeledOperator((("B", 3), ("A", 2)), np.eye(6) / 3)
    with pytest.raises(FactorMismatch, match="dimensions"):
        is_deterministic(op, t, REG)
    with pytest.raises(FactorMismatch, match="dimensions"):
        is_admissible(op, t, REG)


def test_auto_permutation_recorded():
    t = parse_type("(^A -> ^B)", REG)
    op = sample_deterministic(t, REG, eps=0.4, seed=3)
    swapped = permute_systems(op, ["B", "A"])
    rep = is_deterministic(swapped, t, REG)
    assert rep.passed and rep.permutation == ("A", "B")
    with pytest.raises(FactorMismatch):
        is_deterministic(LabeledOperator((("A", 2), ("C", 2)), np.eye(4) / 2), t, REG)


class TestSamples:
    def test_eps_zero_is_exact_identity_event(self):
        t = parse_type("(^A -> ^B)", REG)
        op = sample_deterministic(t, REG, eps=0.0, seed=1)
        assert np.allclose(op.data, np.eye(4) / 2)

    def test_samples_pass_their_own_check(self):
        rng = np.random.default_rng(6)
        for trial in range(20):
            t, reg = random_type(rng, (2, 3), max_depth=3, max_systems=4)
            for seed in range(5):
                op = sample_deterministic(t, reg, eps=0.7, seed=seed)
                rep = is_deterministic(op, t, reg)
                assert rep.passed, (trial, seed, rep.to_text())

    def test_transpose_of_sample_passes(self):
        rng = np.random.default_rng(7)
        for trial in range(10):
            t, reg = random_type(rng, (2, 3), max_depth=3, max_systems=4)
            op = sample_deterministic(t, reg, eps=0.6, seed=trial)
            assert is_deterministic(transpose(op), t, reg).passed


class TestInvariances:
    def test_transpose_equivalence_both_verdicts(self):
        rng = np.random.default_rng(8)
        for trial in range(10):
            t, reg = random_type(rng, (2,), max_depth=3, max_systems=4)
            good = sample_deterministic(t, reg, eps=0.5, seed=trial)
            assert (is_deterministic(transpose(good), t, reg).passed
                    == is_deterministic(good, t, reg).passed)
            # break the sector structure and recheck both orientations
            bad_data = np.array(good.data)
            bad_data[0, -1] += 0.2
            bad_data[-1, 0] += 0.2
            bad = LabeledOperator(good.factors, bad_data)
            assert (is_deterministic(bad, t, reg).passed
                    == is_deterministic(transpose(bad), t, reg).passed)

    def test_extension_partial_trace_equivalence(self):
        rng = np.random.default_rng(9)
        for trial in range(10):
            t, reg = random_type(rng, (2,), max_depth=3, max_systems=4)
            reg = reg.with_entries(Ze=2, Zf=3)
            base = extend(t, "Zf", reg)      # x || E'
            extended = extend(base, "Ze", reg)  # x || E' E... appended after
            d = sample_deterministic(base, reg, eps=0.5, seed=trial)
            rho = LabeledOperator((("Ze", 2),), random_state(2, rng))
            joint = tensor_op(d, rho)
            joint = permute_systems(joint, [lab for lab in systems_of(extended)])
            assert is_deterministic(joint, extended, reg).passed
            back = partial_trace(joint, ["Ze"])
            assert is_deterministic(back, base, reg).passed
            assert np.abs(back.data - d.data).max() < 1e-12

    def test_composition_closure(self):
        rng = np.random.default_rng(10)
        for trial in range(10):
            x, reg_x = random_type(rng, (2,), max_depth=2, max_systems=2)
            y, reg_y = random_type(rng, (2,), max_depth=2, max_systems=2)
            from hoq.typesys import Arrow, SystemString

            ren_y = {lab: f"{lab}y" for lab in systems_of(y)}
            y = _rename(y, ren_y)
            dims = dict(reg_x.entries) | {ren_y[k]: reg_y.dim(k) for k in ren_y}
            dims |= {"Ain": 2, "Bmid": 2, "Cout": 3}
            reg = SystemRegistry.from_dict(dims)
            tx = Arrow(x, Arrow(SystemString(("Ain",)), SystemString(("Bmid",))))
            ty = Arrow(y, Arrow(SystemString(("Bmid",)), SystemString(("Cout",))))
            r = sample_deterministic(tx, reg, eps=0.5, seed=100 + trial)
            s = sample_deterministic(ty, reg, eps=0.5, seed=200 + trial)
            rs = link_product(r, s)
            target = Arrow(tensor(x, y),
                           Arrow(SystemString(("Ain",)), SystemString(("Cout",))))
            assert is_deterministic(rs, target, reg, tol=1e-9).passed


def _rename(t, mapping):
    from hoq.typesys import Arrow, BistochElem, SystemString

    if isinstance(t, SystemString):
        return SystemString(tuple(mapping.get(lab, lab) for lab in t.labels))
    if isinstance(t, BistochElem):
        return BistochElem(mapping.get(t.hat_in, t.hat_in),
                           tuple(mapping.get(x, x) for x in t.in_tail),
                           mapping.get(t.hat_out, t.hat_out),
                           tuple(mapping.get(x, x) for x in t.out_tail))
    return Arrow(_rename(t.lhs, mapping), _rename(t.rhs, mapping))


class TestAdmissibility:
    def test_zero_operator_feasible(self):
        t = parse_type("(^A -> ^B)", REG)
        op = LabeledOperator((("A", 2), ("B", 2)), np.zeros((4, 4)))
        res = is_admissible(op, t, REG)
        assert res.feasible and res.witness is not None

    def test_identity_event_feasible_as_own_witness(self):
        t = parse_type("(^A -> ^B)", REG)
        op = LabeledOperator((("A", 2), ("B", 2)), np.eye(4) / 2)
        res = is_admissible(op, t, REG)
        assert res.feasible
        assert np.abs(res.witness.data - op.data).max() < 1e-6

    def test_trace_fast_path(self):
        t = parse_type("A", REG)
        ok = LabeledOperator((("A", 2),), np.diag([0.4, 0.3]))
        assert is_admissible(ok, t, REG).feasible
        too_big = LabeledOperator((("A", 2),), np.eye(2))  # trace 2
        res = is_admissible(too_big, t, REG)
        assert res.status == "NOT_ADMISSIBLE"
        # the iteration, through (I -> A) with A's characterization, cannot
        # certify; it must not claim feasibility
        raw = is_admissible(too_big, parse_type("(I -> A)", REG), REG, max_iter=300)
        assert raw.status == "UNDECIDED"

    def test_fast_path_matches_iteration_on_feasible_states(self):
        rng = np.random.default_rng(11)
        t = parse_type("A", REG)
        iterated = parse_type("(I -> A)", REG)
        for trial in range(10):
            rho = random_state(2, rng) * rng.uniform(0.2, 1.0)
            op = LabeledOperator((("A", 2),), rho)
            fast = is_admissible(op, t, REG)
            slow = is_admissible(op, iterated, REG)
            assert fast.feasible and slow.feasible

    def test_non_psd_rejected(self):
        t = parse_type("(^A -> ^B)", REG)
        op = LabeledOperator((("A", 2), ("B", 2)), np.diag([1, 1, 1, -0.5]) / 2)
        assert is_admissible(op, t, REG).status == "NOT_ADMISSIBLE"

    def test_hermiticity_gate_uses_herm_tol(self):
        t = parse_type("(^A -> ^B)", REG)
        data = np.eye(4, dtype=complex) / 2
        data[0, 1] = 1e-8j
        op = LabeledOperator((("A", 2), ("B", 2)), data)
        res = is_admissible(op, t, REG)
        assert res.status == "NOT_ADMISSIBLE"
        assert res.reason == "operator not Hermitian (defect 1.000e-08)"
        assert is_admissible(op, t, REG, herm_tol=1e-6).feasible

    def test_scaled_samples_feasible(self):
        rng = np.random.default_rng(12)
        for trial in range(5):
            t, reg = random_type(rng, (2,), max_depth=2, max_systems=4)
            d = sample_deterministic(t, reg, eps=0.5, seed=trial)
            res = is_admissible(d, t, reg)
            assert res.feasible
            shrunk = LabeledOperator(d.factors, 0.37 * d.data)
            assert is_admissible(shrunk, t, reg).feasible

    @pytest.mark.parametrize("scale", [0.5, 1.0, 1.01])
    def test_matches_the_reference(self, scale):
        # below, on and just above the deterministic events: FEASIBLE by the
        # trace test or by iteration, NOT_ADMISSIBLE and UNDECIDED, in a
        # shuffled factor order
        rng = np.random.default_rng(5)
        iterated = 0
        for trial in range(10):
            t, reg = random_type(rng, (2,), max_depth=3, max_systems=4)
            event = sample_deterministic(t, reg, seed=trial)
            order = list(event.labels)
            rng.shuffle(order)
            op = permute_systems(LabeledOperator(event.factors, scale * event.data), order)
            new = is_admissible(op, t, reg, max_iter=300)
            ref = reference_admissible(op, t, reg, max_iter=300)
            iterated += ref.iterations > 0
            assert (new.status, new.iterations, new.reason) == \
                (ref.status, ref.iterations, ref.reason), trial
            assert abs(new.residual - ref.residual) <= 1e-12, trial
            assert (new.witness is None) == (ref.witness is None), trial
            if ref.witness is not None:
                assert new.witness.factors == ref.witness.factors
                scale_w = np.abs(ref.witness.data).max()
                assert np.abs(new.witness.data - ref.witness.data).max() <= 1e-12 * scale_w
        assert iterated >= 3

    def test_iteration_measures_hermiticity_once(self, monkeypatch):
        # 2 % above a deterministic event: the iteration runs to its limit,
        # on bare arrays, after the one hermiticity measurement of the gate
        t = parse_type("(^A -> ^B)", REG)
        event = sample_deterministic(t, REG, seed=1)
        op = LabeledOperator(event.factors, 1.02 * event.data)
        counts = {"herm_defect": 0, "__post_init__": 0}

        def spy(name):
            method = getattr(LabeledOperator, name)

            def counted(*args, **kwargs):
                counts[name] += 1
                return method(*args, **kwargs)
            monkeypatch.setattr(LabeledOperator, name, counted)

        spy("herm_defect")
        spy("__post_init__")
        res = is_admissible(op, t, REG, max_iter=500)
        assert (res.status, res.iterations) == ("UNDECIDED", 500)
        # the one operator is the deviation the gate forms
        assert counts == {"herm_defect": 1, "__post_init__": 1}


class TestClassify:
    def test_requires_hats(self):
        with pytest.raises(NoHattedSystems):
            classify(LabeledOperator((("A", 2), ("B", 2)), np.eye(4) / 2),
                     parse_type("(A -> B)", REG), REG)

    def test_one_hermitian_part_and_positivity_gate(self, monkeypatch):
        from hoq import membership

        calls = []

        def spy(name, fn):
            def wrapped(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            monkeypatch.setattr(membership, name, wrapped)

        spy("hermitian_part", membership.hermitian_part)
        spy("_psd_status", membership._psd_status)
        t = parse_type("((^A -> ^B) -> (P -> F))", REG)
        res = classify(sample_deterministic(t, REG, seed=3), t, REG)
        assert res.verdict in ("BOTH", "BISTOCH_ONLY")
        assert sorted(calls) == ["_psd_status", "hermitian_part"]

    def test_identity_event_is_both(self):
        t = parse_type("((^A -> ^B) -> (P -> F))", REG)
        op = sample_deterministic(t, REG, eps=0.0)
        res = classify(op, t, REG)
        assert res.verdict == "BOTH" and res.forbidden == []

    def test_garbage_is_neither(self):
        t = parse_type("(^A -> ^B)", REG)
        op = LabeledOperator((("A", 2), ("B", 2)), np.diag([1, 0, 0, 0.5]))
        assert classify(op, t, REG).verdict == "NEITHER"

    def test_ordinary_channel_on_pair_type(self):
        # a non-bistochastic channel is an ordinary deterministic event but
        # not a bidirectional one: the hatted check must fail
        ket0 = np.zeros((2, 2))
        ket0[0, 0] = 1
        # replace-with-|0> channel: Choi = 1_A (x) |0><0|_B
        choi = np.kron(np.eye(2), ket0)
        op = LabeledOperator((("A", 2), ("B", 2)), choi)
        t = parse_type("(^A -> ^B)", REG)
        res = classify(op, t, REG)
        assert res.verdict == "NEITHER"
        assert not res.bistoch_report.passed
        assert res.standard_report.passed
