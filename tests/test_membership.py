import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from hoq import (
    LabeledOperator,
    NetworkSpec,
    SystemRegistry,
    classify,
    dehat,
    dual,
    is_admissible,
    is_deterministic,
    is_psd,
    parse_type,
    partial_trace,
    sample_deterministic,
    sector_project,
    tensor,
)
from hoq.errors import FactorMismatch, NoHattedSystems, NonFiniteOperator, NotHermitian
from hoq.linalg import TOL_PSD, link_product, permute_systems, tensor_op, transpose
from hoq.membership import characterization_of, check_operator, random_hermitian
from hoq.network import check_bislot
from hoq.sectors import SectorSet, full_space, outside_component, pattern_norms
from hoq.processes import merge_ports, n_time_flip_choi, random_state
from hoq.typesys import extend, systems_of

from helpers import (NON_FINITE, assert_gap_certificate, mask_of, non_finite_operator,
                     random_type, reference_admissible, rename_type)

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
    pattern = mask_of(("I", "I", "T", "T", "I", "I"))
    comp = sector_project(noise, SectorSet(noise.factors, [pattern])).data
    op = LabeledOperator(base.factors, base.data + 1e-3 * comp / np.linalg.norm(comp))
    rep = is_deterministic(op, t, reg)
    assert [pat for pat, _ in rep.forbidden_components] == ["A1:I B1:I A2:T B2:T P:I F:I"]
    assert rep.forbidden_components[0][1] == pytest.approx(1e-3, rel=1e-9)


@pytest.mark.parametrize("skew", [0.0, 1e-12], ids=["hermitian", "skewed"])
def test_breakdown_is_the_deviations_outside_component(skew):
    # the sector test projects the operator itself, or its Hermitian part
    # when it is skewed within herm_tol; the identity pattern is never
    # forbidden, so the residual and the breakdown are those of R - coeff*1
    reg = SystemRegistry.of(A1=2, B1=2, A2=2, B2=2, P=4, F=4)
    t = parse_type("((((^A1 -> ^B1) -> ((^A2 -> ^B2) -> I)) -> I) -> (P -> F))", reg)
    base = sample_deterministic(t, reg, eps=0.5, seed=1)
    rng = np.random.default_rng(2)
    g = rng.uniform(-1.0, 1.0, size=(256, 256))
    data = base.data + 1e-2 * random_hermitian(256, rng) + skew * (g - g.T)
    op = LabeledOperator(base.factors, data)
    rep = is_deterministic(op, t, reg)
    assert rep.verdict == "FAIL" and rep.forbidden_components
    assert (0.0 < rep.herm_defect <= 1e-10) if skew else rep.herm_defect == 0.0

    coeff, sectors = characterization_of(t, reg)
    deviation = (data + data.conj().T) / 2 - float(coeff) * np.eye(256)
    outside = outside_component(LabeledOperator(op.factors, deviation), sectors)
    assert rep.sector_residual == pytest.approx(np.linalg.norm(outside.data), rel=1e-12)
    floor = 1e-12 * (1.0 + np.linalg.norm(deviation))
    norms = np.sqrt(pattern_norms(outside))
    expected = sorted(float(norm) for norm in norms if norm > floor)
    reported = sorted(norm for _, norm in rep.forbidden_components)
    assert reported == pytest.approx(expected, rel=1e-12)


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


# every function that takes herm_tol alone; the sector functions take np.inf
# to skip the measurement, as the check's back half does for the Hermitian part
_HERM_TOL_FUNCS = {
    "is_psd": lambda op, tol: is_psd(op, herm_tol=tol),
    "sector_project": lambda op, tol: sector_project(op, full_space(op.factors), herm_tol=tol),
    "outside_component": lambda op, tol: outside_component(op, full_space(op.factors),
                                                           herm_tol=tol),
    "pattern_norms": lambda op, tol: pattern_norms(op, herm_tol=tol),
}


@pytest.mark.parametrize("name, bad", [(name, bad) for name in _HERM_TOL_FUNCS
                                       for bad in (float("nan"), -1e-9)]
                         + [("is_psd", float("inf"))])
def test_herm_tol_must_be_finite_and_non_negative(name, bad):
    with pytest.raises(ValueError, match="^herm_tol must be finite and >= 0"):
        _HERM_TOL_FUNCS[name](_PAIR, bad)


@pytest.mark.parametrize("name", list(_HERM_TOL_FUNCS))
def test_herm_tol_gate_refuses_a_larger_defect(name):
    skewed = LabeledOperator(_PAIR.factors, _PAIR.data + 1e-6j * np.triu(np.ones((4, 4)), 1))
    with pytest.raises(NotHermitian, match=r"^hermiticity defect \S+ exceeds 1\.0e-08$"):
        _HERM_TOL_FUNCS[name](skewed, 1e-8)


@pytest.mark.parametrize("name", ["sector_project", "outside_component", "pattern_norms"])
def test_infinite_herm_tol_skips_the_sector_functions_measurement(name):
    skewed = LabeledOperator(_PAIR.factors, _PAIR.data + np.triu(np.ones((4, 4)), 1))
    _HERM_TOL_FUNCS[name](skewed, np.inf)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1e-9])
def test_is_psd_tolerance_validated(bad):
    with pytest.raises(ValueError, match="psd_tol must be finite and >= 0"):
        is_psd(_NOT_PSD, psd_tol=bad)


def test_psd_tol_is_validated_before_any_operator_sized_work():
    # a NaN psd_tol used to raise only after the Hermitian part was formed
    r = merge_ports(n_time_flip_choi(2, 2), {"P": ("Pt", "Pc"), "F": ("Ft", "Fc")})
    assert r.dim == 1024
    for check in (lambda: check_operator(r, Fraction(1, 16), full_space(r.factors),
                                         psd_tol=float("nan")),
                  lambda: is_psd(r, psd_tol=float("nan"))):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="psd_tol must be finite and >= 0"):
                check()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.1 * r.data.nbytes


# factor_entry's integer rule: an integral number >= 1, and not a boolean
@pytest.mark.parametrize("max_iter", [0, -3, 2.5, True, "3"])
def test_admissibility_needs_an_iteration(max_iter):
    t = parse_type("(^A -> ^B)", REG)
    op = LabeledOperator((("A", 2), ("B", 2)), np.eye(4) / 4)
    with pytest.raises(ValueError, match="max_iter must be an integer >= 1"):
        is_admissible(op, t, REG, max_iter=max_iter)
    assert is_admissible(op, t, REG, max_iter=1).status in ("FEASIBLE", "UNDECIDED")


def test_factor_dimension_mismatch():
    t = parse_type("(^A -> ^B)", REG)
    op = LabeledOperator((("B", 3), ("A", 2)), np.eye(6) / 3)
    with pytest.raises(FactorMismatch, match="dimensions"):
        is_deterministic(op, t, REG)
    with pytest.raises(FactorMismatch, match="dimensions"):
        is_admissible(op, t, REG)


@pytest.mark.parametrize("wrong", ["label", "dimension"])
@pytest.mark.parametrize("check", ["is_deterministic", "classify", "check_bislot"])
def test_factor_mismatch_comes_before_any_arithmetic(monkeypatch, check, wrong):
    # the sector set is matched to the operator before its hermiticity scan.
    # check_bislot names the comb's systems after the operator's factors, so
    # for it either operator is out of the P-first layout its dimensions give
    factors = {"label": (("A", 2), ("C", 2), ("P", 4), ("F", 4)),
               "dimension": (("A", 2), ("B", 3), ("P", 4), ("F", 4))}[wrong]
    op = LabeledOperator(factors, np.eye(math.prod(d for _, d in factors)))
    t = parse_type("((^A -> ^B) -> (P -> F))", REG)
    run = {"is_deterministic": lambda: is_deterministic(op, t, REG),
           "classify": lambda: classify(op, t, REG),
           "check_bislot": lambda: check_bislot(op, [(2, 2)], 4, 4)}[check]
    scans = []
    monkeypatch.setattr(LabeledOperator, "herm_defect", lambda self: scans.append(self))
    with pytest.raises(FactorMismatch):
        run()
    assert scans == []


def test_auto_permutation_recorded():
    t = parse_type("(^A -> ^B)", REG)
    op = sample_deterministic(t, REG, eps=0.4, seed=3)
    swapped = permute_systems(op, ["B", "A"])
    rep = is_deterministic(swapped, t, REG)
    assert rep.passed and rep.permutation == ("A", "B")
    with pytest.raises(FactorMismatch):
        is_deterministic(LabeledOperator((("A", 2), ("C", 2)), np.eye(4) / 2), t, REG)


def test_misaligned_check_permutes_nothing(monkeypatch):
    # the check runs in the operator's factor order; only an admissibility
    # witness is permuted, back to the type's order
    import sys

    t = parse_type("((^A -> ^B) -> (P -> F))", REG)
    op = permute_systems(sample_deterministic(t, REG, eps=0.4, seed=3), ["F", "B", "P", "A"])
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[1])
        return permute_systems(*args, **kwargs)
    hoq_modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "hoq"]
    for module in hoq_modules:
        if getattr(module, "permute_systems", None) is permute_systems:
            monkeypatch.setattr(module, "permute_systems", counted)
    rep = is_deterministic(op, t, REG)
    assert rep.passed and rep.permutation == ("A", "B", "P", "F") and calls == []
    res = is_admissible(op, t, REG)
    assert res.feasible and res.witness.labels == ("A", "B", "P", "F")
    assert calls == [("A", "B", "P", "F")]


class TestSamples:
    def test_eps_zero_is_exact_identity_event(self):
        t = parse_type("(^A -> ^B)", REG)
        op = sample_deterministic(t, REG, eps=0.0, seed=1)
        assert np.allclose(op.data, np.eye(4) / 2)

    @pytest.mark.parametrize("eps", [1.0, -0.1, float("nan")])
    def test_eps_must_lie_below_one(self, eps):
        with pytest.raises(ValueError, match=r"eps must lie in \[0, 1\)"):
            sample_deterministic(parse_type("(^A -> ^B)", REG), REG, eps=eps)

    def test_a_one_dimensional_system_samples_the_identity_event(self):
        # its traceless part is 0, so the projected noise is already positive
        reg = SystemRegistry.of(Q=1)
        t = parse_type("Q", reg)
        op = sample_deterministic(t, reg, eps=0.5, seed=0)
        assert np.array_equal(op.data, np.eye(1))
        assert is_deterministic(op, t, reg).passed

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
            y = rename_type(y, ren_y)
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
        iterated = stopped = 0
        for trial in range(10):
            t, reg = random_type(rng, (2,), max_depth=3, max_systems=4)
            event = sample_deterministic(t, reg, seed=trial)
            order = list(event.labels)
            rng.shuffle(order)
            op = permute_systems(LabeledOperator(event.factors, scale * event.data), order)
            new = is_admissible(op, t, reg, max_iter=300)
            ref = reference_admissible(op, t, reg, max_iter=300)
            iterated += ref.iterations > 0
            assert new.status == ref.status, trial
            assert (new.witness is None) == (ref.witness is None), trial
            if new.gap_bound is None:
                assert (new.iterations, new.reason) == (ref.iterations, ref.reason), trial
                assert abs(new.residual - ref.residual) <= 1e-12, trial
            else:
                # the reference, without the stop, runs on to max_iter
                stopped += 1
                assert new.iterations <= ref.iterations, trial
                assert_gap_certificate(new, op, t, reg)
            if ref.witness is not None:
                assert new.witness.factors == ref.witness.factors
                scale_w = np.abs(ref.witness.data).max()
                assert np.abs(new.witness.data - ref.witness.data).max() <= 1e-12 * scale_w
        assert iterated >= 3
        # above the events every iterated input stops on its bound, below none
        assert stopped == (iterated if scale > 1 else 0)

    def test_certificate_comes_in_the_types_factor_order(self):
        # Tr_B R = diag(1.2, 0.3) exceeds 1_A, so no channel dominates R; the
        # certificate, |0><0|_A (x) 0.3 * 1_B, is not a multiple of 1, and it
        # verifies only in the type's order (A, B), not in the operator's
        reg = SystemRegistry.of(A=2, B=3)
        t = parse_type("(A -> B)", reg)
        r = np.kron(np.diag([1.2, 0.3]), np.eye(3) / 3)
        op = permute_systems(LabeledOperator((("A", 2), ("B", 3)), r), ["B", "A"])
        res = is_admissible(op, t, reg)
        assert (res.status, res.iterations) == ("UNDECIDED", 1)
        assert np.allclose(res.certificate, np.kron(np.diag([0.3, 0.0]), np.eye(3)),
                           atol=1e-12)
        assert abs(assert_gap_certificate(res, op, t, reg) - res.gap_bound) <= 1e-12

    def test_iteration_measures_hermiticity_once(self, monkeypatch):
        # 2 % above a deterministic event: the iteration runs on bare arrays,
        # after the one hermiticity measurement of the gate, and stops at its
        # first gap bound
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
        assert (res.status, res.iterations) == ("UNDECIDED", 1)
        # no operator is formed: the event equals its Hermitian part, so the
        # gate hands ``op`` itself on, and the deviation and the certificate
        # are bare arrays
        assert counts == {"herm_defect": 1, "__post_init__": 0}


class TestClassify:
    def test_requires_hats(self):
        with pytest.raises(NoHattedSystems):
            classify(LabeledOperator((("A", 2), ("B", 2)), np.eye(4) / 2),
                     parse_type("(A -> B)", REG), REG)

    def test_a_bidirectional_network_spec(self):
        reg = SystemRegistry.of(A=2, B=2, C=2, D=2, P=2, F=2)
        slots = tuple(parse_type(x, reg) for x in ("((^A -> ^B) -> I)", "((^C -> ^D) -> I)"))
        spec = NetworkSpec(slots, ("P", "I", "F"))
        op = sample_deterministic(spec, reg, seed=0)
        assert classify(op, spec, reg).verdict == "BISTOCH_ONLY"
        with pytest.raises(NoHattedSystems):
            classify(op, dehat(spec), reg)

    def test_one_hermiticity_scan_and_positivity_gate(self, monkeypatch):
        from hoq import membership

        calls = []

        def spy(owner, name):
            fn = getattr(owner, name)

            def wrapped(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            monkeypatch.setattr(owner, name, wrapped)

        t = parse_type("((^A -> ^B) -> (P -> F))", REG)
        op = sample_deterministic(t, REG, seed=3)
        spy(LabeledOperator, "herm_defect")
        spy(membership, "_positivity")
        res = classify(op, t, REG)
        assert res.verdict in ("BOTH", "BISTOCH_ONLY")
        assert sorted(calls) == ["_positivity", "herm_defect"]

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
