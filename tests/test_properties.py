"""Property-based tests of the numerical sector projection and pattern norms,
of the invariants that let ``classify`` and ``is_admissible`` share the
check's front half, of real arithmetic against complex arithmetic in the
check, and of the factor order of network characterizations."""
import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st

from hoq import (
    LabeledOperator,
    NetworkSpec,
    Pattern,
    SystemRegistry,
    classify,
    identity_coeff,
    is_admissible,
    is_deterministic,
    parse_type,
    pattern_norms,
    permute_systems,
    sample_deterministic,
    sector_component,
    sector_project,
)
from hoq.linalg import hermitian_part
from hoq.membership import characterization_of, random_hermitian
from hoq.sectors import SectorSet, _marks_of, _project_masks, deviation_sectors
from hoq.typesys import dehat, has_hats, systems_of

from helpers import random_type, reference_component


@st.composite
def operator_and_masks(draw):
    dims = tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=4)))
    k = len(dims)
    masks = frozenset(draw(st.sets(st.integers(0, (1 << k) - 1))))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    dim = int(np.prod(dims))
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    systems = tuple((f"S{i}", d) for i, d in enumerate(dims))
    return systems, masks, (g + g.conj().T) / 2


@settings(max_examples=150, deadline=None)
@given(operator_and_masks())
def test_projection_in_place_complementary_idempotent(case):
    systems, masks, h = case
    k = len(systems)
    dims = tuple(d for _, d in systems)
    sectors = SectorSet(systems, masks)
    complement = SectorSet(systems, frozenset(range(1 << k)) - masks)
    op = LabeledOperator(systems, h)

    # the projection leaves a writable input it does not own untouched
    work = h.copy()
    direct = _project_masks(work, dims, 0, masks)
    assert np.array_equal(work, h)

    proj = sector_project(op, sectors)
    assert np.array_equal(op.data, h)
    assert np.allclose(proj.data, np.zeros_like(h) if direct is None else direct,
                       atol=1e-12)
    # the sum of single-pattern components is the reference projection
    reference = sum((reference_component(op, _marks_of(m, k)) for m in masks),
                    np.zeros_like(h))
    assert np.allclose(proj.data, reference, atol=1e-12)

    rest = sector_project(op, complement)
    assert np.allclose(proj.data + rest.data, h, atol=1e-12)
    assert np.allclose(sector_project(proj, sectors).data, proj.data, atol=1e-12)


@settings(max_examples=150, deadline=None)
@given(operator_and_masks(), st.randoms(use_true_random=False))
def test_pattern_norms_against_the_reference(case, random):
    systems, _, h = case
    k = len(systems)
    op = LabeledOperator(systems, h)
    total = np.linalg.norm(h) ** 2
    # pattern_norms reports values at or below its resolution as 0; it and
    # each value it is compared with are exact to within that resolution
    resolution = (1 << k) * np.finfo(float).eps * total
    tolerance = 2 * resolution

    norms = pattern_norms(op)
    assert len(norms) == 1 << k
    assert all(value >= 0.0 for value in norms.values())
    assert abs(sum(norms.values()) - total) <= 1e-10 * total
    for pattern, value in norms.items():
        direct = np.linalg.norm(reference_component(op, pattern.marks)) ** 2
        assert abs(value - direct) <= tolerance

    # permuting the factors permutes the pattern marks to match
    order = list(range(k))
    random.shuffle(order)
    permuted = pattern_norms(permute_systems(op, [systems[i][0] for i in order]))
    for pattern, value in norms.items():
        moved = Pattern(tuple(pattern.marks[i] for i in order))
        assert abs(permuted[moved] - value) <= tolerance


@st.composite
def hatted_type(draw, reg_dims=(2, 3), max_systems=10):
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    t, reg = random_type(rng, reg_dims, max_systems=max_systems)
    assume(has_hats(t))
    return t, reg


@settings(max_examples=200, deadline=None)
@given(hatted_type())
def test_dehat_keeps_factor_order_and_coefficient(case):
    t, reg = case
    assert systems_of(dehat(t), reg) == systems_of(t, reg)
    assert identity_coeff(dehat(t), reg) == identity_coeff(t, reg)


@settings(max_examples=60, deadline=None)
@given(hatted_type(reg_dims=(2,), max_systems=5), st.booleans(),
       st.randoms(use_true_random=False))
def test_classify_reports_equal_the_two_checks(case, add_forbidden, random):
    t, reg = case
    op = sample_deterministic(t, reg, eps=0.5, seed=random.randrange(1 << 16))
    if add_forbidden:
        # weight on a pattern the ordinary hierarchy forbids
        std_masks = deviation_sectors(dehat(t), reg).masks
        k = len(op.factors)
        outside = [m for m in range(1, 1 << k) if m not in std_masks]
        assume(outside)
        noise = LabeledOperator(op.factors, random_hermitian(op.dim, np.random.default_rng(
            random.randrange(1 << 16))))
        term = sector_component(noise, Pattern(_marks_of(random.choice(outside), k)))
        op = LabeledOperator(op.factors, op.data + 0.05 * term.data)
    order = list(op.labels)
    random.shuffle(order)
    op = permute_systems(op, order)

    res = classify(op, t, reg)
    assert vars(res.bistoch_report) == vars(is_deterministic(op, t, reg))
    assert vars(res.standard_report) == vars(
        is_deterministic(op, dehat(t), reg))


@st.composite
def sampled_type(draw, reg_dims=(2, 3), max_systems=4):
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return random_type(rng, reg_dims, max_systems=max_systems)


@settings(max_examples=60, deadline=None)
@given(sampled_type(), st.booleans(), st.randoms(use_true_random=False))
def test_local_phases_keep_the_verdict_and_the_pattern_norms(case, add_forbidden, random):
    t, reg = case
    sample = sample_deterministic(t, reg, eps=0.5, seed=random.randrange(1 << 16))
    factors, k = sample.factors, len(sample.factors)
    # (H + H^T) / 2 is again a deterministic event of t, and real
    real = ((sample.data + sample.data.T) / 2).real
    if add_forbidden:
        allowed = deviation_sectors(t, reg).masks
        outside = [m for m in range(1, 1 << k) if m not in allowed]
        assume(outside)
        noise = LabeledOperator(factors, random_hermitian(
            sample.dim, np.random.default_rng(random.randrange(1 << 16))).real)
        term = sector_component(noise, Pattern(_marks_of(random.choice(outside), k)))
        real = real + 0.05 * term.data
    op = LabeledOperator(factors, real)
    # a tensor product of diagonal phase unitaries: U R U^H is R * u u^H
    rng = np.random.default_rng(random.randrange(1 << 16))
    u = np.ones(1)
    for _, d in factors:
        u = np.kron(u, np.exp(2j * np.pi * rng.random(d)))
    phased = LabeledOperator(factors, real * np.outer(u, u.conj()))
    assert hermitian_part(op)[0].dtype == np.float64
    assert hermitian_part(phased)[0].dtype == np.complex128

    a, b = is_deterministic(op, t, reg), is_deterministic(phased, t, reg)
    assert a.verdict == b.verdict == ("FAIL" if add_forbidden else "PASS")
    assert a.psd_method == b.psd_method
    assert a.lambda_expected == b.lambda_expected
    assert abs(a.lambda_measured - b.lambda_measured) <= 1e-12 * a.lambda_measured
    assert abs(a.sector_residual - b.sector_residual) <= 1e-12 * np.linalg.norm(real)
    norms_a, norms_b = dict(a.forbidden_components), dict(b.forbidden_components)
    assert norms_a.keys() == norms_b.keys()
    for pattern, norm in norms_a.items():
        assert abs(norm - norms_b[pattern]) <= 1e-12 * norm


@settings(max_examples=80, deadline=None)
@given(sampled_type(reg_dims=(2,), max_systems=4),
       st.sampled_from(["hermitian_defect", "negative_shift", "forbidden_sector"]),
       st.floats(-3.0, 3.0), st.randoms(use_true_random=False))
def test_admissibility_gate_is_the_check_gate(case, kind, size, random):
    t, reg = case
    sample = sample_deterministic(t, reg, eps=0.5, seed=random.randrange(1 << 16))
    data = sample.data.copy()
    if kind == "hermitian_defect":
        # an anti-Hermitian pair of defect 2 * 10^(size - 10), around herm_tol
        data[0, 1] += 1j * 10.0 ** (size - 10)
        data[1, 0] += 1j * 10.0 ** (size - 10)
    elif kind == "negative_shift":
        # the lowest eigenvalue moved to -size * 1e-9, around -psd_tol
        low = float(np.linalg.eigvalsh(data)[0])
        data -= (low + size * 1e-9) * np.eye(sample.dim)
    else:
        k = len(sample.factors)
        allowed = deviation_sectors(t, reg).masks
        outside = [m for m in range(1, 1 << k) if m not in allowed]
        assume(outside)
        noise = LabeledOperator(sample.factors, random_hermitian(
            sample.dim, np.random.default_rng(random.randrange(1 << 16))))
        term = sector_component(noise, Pattern(_marks_of(random.choice(outside), k)))
        data += 10.0 ** (size - 2) * term.data
    order = list(sample.labels)
    random.shuffle(order)
    op = permute_systems(LabeledOperator(sample.factors, data), order)

    report = is_deterministic(op, t, reg)
    res = is_admissible(op, t, reg, max_iter=20)
    gated = res.status == "NOT_ADMISSIBLE" and res.reason.startswith("operator not")
    assert gated == (not report.psd_ok)
    if gated and report.herm_defect > 1e-10:
        assert res.reason == f"operator not Hermitian (defect {report.herm_defect:.3e})"
    elif gated:
        assert res.reason == f"operator not PSD (min eigenvalue {report.min_eigenvalue:.3e})"


_SLOT_TEMPLATES = ["(^A{i} -> ^B{i})", "((^A{i} -> ^B{i}) -> I)", "(A{i} -> B{i})", "A{i}",
                   "(^A{i} U{i} -> ^B{i})", "((A{i} B{i} -> I) -> U{i})", "I"]


@st.composite
def network_spec(draw):
    """A spec of 1-3 slots whose global memories E0 and En are trivial or not."""
    n = draw(st.integers(1, 3))
    dims = {"P": draw(st.integers(1, 3)), "F": draw(st.integers(1, 3))}
    slots = []
    for i in range(n):
        d = draw(st.integers(1, 3))
        dims.update({f"A{i}": d, f"B{i}": d, f"U{i}": draw(st.integers(1, 2))})
        slots.append(draw(st.sampled_from(_SLOT_TEMPLATES)).format(i=i))
    reg = SystemRegistry.from_dict(dims)
    memories = (draw(st.sampled_from(["I", "P"])),
                *(draw(st.sampled_from(["I", f"M{i}"])) for i in range(1, n)),
                draw(st.sampled_from(["I", "F"])))
    return NetworkSpec(tuple(parse_type(s, reg) for s in slots), memories), reg


@settings(max_examples=150, deadline=None)
@given(network_spec())
def test_network_characterization_lives_on_the_system_order(case):
    spec, reg = case
    coeff, sectors = characterization_of(spec, reg)
    assert sectors.systems == tuple(spec.system_order(reg))
    # dehatting a spec keeps its factor order and its coefficient
    flat = dehat(spec)
    assert flat.memories == spec.memories and not any(map(has_hats, flat.slot_types))
    std_coeff, std_sectors = characterization_of(flat, reg)
    assert std_coeff == coeff and std_sectors.systems == sectors.systems
