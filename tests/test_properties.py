"""Property-based tests of the partial trace, of the numerical sector
projection and pattern norms on dense and exact sparse inputs and against
their recursions without stops at zero arrays, of the invariants that let
``classify`` and ``is_admissible`` share the check's front half, of real
arithmetic against complex arithmetic in the check, of checks that run in
the operator's own factor order, of the check's sector test against the
outside component formed on the whole operator, of the factor order of
network characterizations, and of the operator and bundle file reader against a whole-document conversion, across
the two key orders of an operator document and across its two row forms, of
the realness rule by which an operator stores its matrix, of the blocked
in-place positivity test against planted spectra, of the check's
positivity fields against a whole-matrix reference, of the hermiticity
defect against the whole-matrix maximum on random supports, and of the
hierarchy's exact laws and its time symmetry on random types."""
import gzip
import json
import math
import re
import tempfile
from fractions import Fraction
from pathlib import Path
from random import Random

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings, strategies as st

from hoq import (
    LabeledOperator,
    NetworkSpec,
    SystemRegistry,
    classify,
    identity_coeff,
    is_admissible,
    is_deterministic,
    is_psd,
    parse_type,
    partial_trace,
    pattern_norms,
    permute_systems,
    sample_deterministic,
    sector_project,
)
from hoq.errors import HoqError, NonFiniteOperator, NotHermitian, ShapeMismatch, SizeLimit
from hoq.linalg import TOL_HERM, TOL_PSD, _certificate_block, _psd_status, hermitian_part
from hoq.serialize import (operator_to_dict, read_bundle, read_operator, write_bundle,
                           write_operator)
from hoq.membership import characterization_of, check_operator, random_hermitian
from hoq.sectors import (SectorSet, _project_masks, deviation_sectors, full_space,
                         outside_component)
from hoq.typesys import (TRIVIAL, Arrow, BistochElem, dehat, dual, has_hats, systems_of,
                         tensor)

from helpers import (converted, disjoint_gram, mask_of, marks_of, planted_traceless, random_type,
                     reference_component, reference_partial_trace, rename_type,
                     unpruned_pattern_norms, unpruned_project)


def drawn_hermitian(draw, dims):
    """A Hermitian matrix over ``dims``: dense complex Gaussian, an exact
    0/1 Gram operator with disjoint column supports, or an integer matrix
    with planted zero partial traces.  The exact kinds send the projection
    and the pattern-norm walk through their stops at zero arrays."""
    kind = draw(st.sampled_from(["dense", "gram", "planted"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    dim = math.prod(dims)
    if kind == "gram":
        return disjoint_gram(rng, dim, draw(st.sampled_from([0.0, 0.1, 0.3, 1.0])))
    if kind == "planted":
        return planted_traceless(rng, dims, draw(st.booleans()))
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (g + g.conj().T) / 2


@st.composite
def operator_and_masks(draw):
    dims = tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=4)))
    k = len(dims)
    masks = frozenset(draw(st.sets(st.integers(0, (1 << k) - 1))))
    systems = tuple((f"S{i}", d) for i, d in enumerate(dims))
    return systems, masks, drawn_hermitian(draw, dims)


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
    reference = sum((reference_component(op, marks_of(m, k)) for m in masks),
                    np.zeros_like(h))
    assert np.allclose(proj.data, reference, atol=1e-12)

    rest = sector_project(op, complement)
    assert np.allclose(proj.data + rest.data, h, atol=1e-12)
    assert np.allclose(sector_project(proj, sectors).data, proj.data, atol=1e-12)


@st.composite
def operator_and_traced_labels(draw):
    """An operator on up to 5 factors of dimension 1 to 3, real or complex, and
    a random subset of its labels in a random order."""
    dims = draw(st.lists(st.integers(1, 3), min_size=1, max_size=5))
    systems = tuple((f"S{i}", d) for i, d in enumerate(dims))
    traced = draw(st.lists(st.sampled_from([lab for lab, _ in systems]), unique=True))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    dim = math.prod(dims)
    data = rng.normal(size=(dim, dim))
    if draw(st.booleans()):
        data = data + 1j * rng.normal(size=(dim, dim))
    return LabeledOperator(systems, data), traced


@settings(max_examples=150, deadline=None)
@given(operator_and_traced_labels())
def test_partial_trace_against_einsum(case):
    op, traced = case
    out = partial_trace(op, traced)
    assert out.factors == tuple(f for f in op.factors if f[0] not in traced)
    assert out.data.dtype == op.data.dtype
    positions = {op.labels.index(lab) for lab in traced}
    reference = reference_partial_trace(op.data, op.dims, positions)
    assert np.abs(out.data - reference).max() <= 1e-12


@st.composite
def operator_and_shared_identity(draw):
    """A Hermitian operator on up to 6 factors, d = 1 included, and a mask set
    ``wanted`` drawn so that the factors in ``shared`` are identity in every
    mask of the set the projection runs on: in ``wanted`` itself, or, with
    ``flip``, in its complement, the smaller side then."""
    dims = tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=6)))
    assume(np.prod(dims) <= 243)
    k = len(dims)
    shared = draw(st.sets(st.integers(0, k - 1), min_size=1))
    free = [j for j in range(k) if j not in shared]
    subsets = st.integers(0, (1 << len(free)) - 1)
    target = {sum((s >> i & 1) << j for i, j in enumerate(free))
              for s in draw(st.sets(subsets, min_size=1))}
    flip = draw(st.booleans())
    # on a tie _project runs on ``wanted`` itself
    assume(not flip or 2 * len(target) < 1 << k)
    wanted = frozenset(range(1 << k)) - target if flip else frozenset(target)
    systems = tuple((f"S{i}", d) for i, d in enumerate(dims))
    return systems, shared, wanted, drawn_hermitian(draw, dims)


@settings(max_examples=150, deadline=None)
@given(operator_and_shared_identity())
def test_projection_traces_out_shared_identity_factors(case):
    systems, shared, wanted, h = case
    k = len(systems)
    op = LabeledOperator(systems, h)
    everything = frozenset(range(1 << k))
    # the side _project runs on marks every shared factor identity
    side = min(wanted, everything - wanted, key=len)
    assert side and all(not m >> j & 1 for m in side for j in shared)

    reference = {m: reference_component(op, marks_of(m, k)) for m in wanted}
    proj = sector_project(op, SectorSet(systems, wanted))
    expected = sum((reference[m] for m in wanted), np.zeros_like(h))
    assert np.abs(proj.data - expected).max() <= 1e-12
    # outside the allowed sectors everything - wanted and the identity: wanted - {0}
    outside = outside_component(op, SectorSet(systems, everything - wanted))
    expected = sum((reference[m] for m in wanted - {0}), np.zeros_like(h))
    assert np.abs(outside.data - expected).max() <= 1e-12


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
    assert all(value >= 0.0 for value in norms)
    assert abs(sum(norms) - total) <= 1e-10 * total
    for mask, value in enumerate(norms):
        direct = np.linalg.norm(reference_component(op, marks_of(mask, k))) ** 2
        assert abs(value - direct) <= tolerance

    # permuting the factors permutes the pattern marks to match
    order = list(range(k))
    random.shuffle(order)
    permuted = pattern_norms(permute_systems(op, [systems[i][0] for i in order]))
    for mask, value in enumerate(norms):
        moved = mask_of(tuple(marks_of(mask, k)[i] for i in order))
        assert abs(permuted[moved] - value) <= tolerance


@settings(max_examples=200, deadline=None)
@given(operator_and_masks())
def test_pruned_recursions_equal_the_unpruned_ones(case):
    systems, masks, h = case
    k = len(systems)
    dims = tuple(d for _, d in systems)
    op = LabeledOperator(systems, h)
    sectors = SectorSet(systems, masks)
    assert np.array_equal(sector_project(op, sectors).data, unpruned_project(h, dims, masks))
    forbidden = frozenset(range(1 << k)) - masks - {0}
    outside = outside_component(op, sectors)
    assert np.array_equal(outside.data, unpruned_project(h, dims, forbidden))
    assert pattern_norms(op).tobytes() == unpruned_pattern_norms(op).tobytes()
    assert pattern_norms(outside).tobytes() == unpruned_pattern_norms(outside).tobytes()


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


def _equal_types(a, b, reg) -> bool:
    """Whether ``a`` and ``b`` have one coefficient and one deviation subspace."""
    return (identity_coeff(a, reg) == identity_coeff(b, reg)
            and deviation_sectors(a, reg).same_subspace(deviation_sectors(b, reg)))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_hierarchy_laws_hold_exactly(seed):
    # three random types over disjoint labels
    rng = np.random.default_rng(seed)
    types, dims = [], {}
    for tag in "xyz":
        t, reg = random_type(rng, (2, 3), max_depth=3, max_systems=4)
        renamed = {lab: lab + tag for lab in systems_of(t)}
        types.append(rename_type(t, renamed))
        dims |= {renamed[lab]: reg.dim(lab) for lab in renamed}
    x, y, z = types
    reg = SystemRegistry.from_dict(dims)
    assert _equal_types(Arrow(tensor(x, y), z), Arrow(x, Arrow(y, z)), reg)
    assert _equal_types(tensor(x, y), tensor(y, x), reg)
    assert _equal_types(tensor(tensor(x, y), z), tensor(x, tensor(y, z)), reg)
    assert _equal_types(Arrow(x, y), Arrow(dual(y), dual(x)), reg)
    assert _equal_types(dual(dual(x)), x, reg)
    # x ⊗ y within x ⅋ y = (x* -> y)
    par = Arrow(dual(x), y)
    assert identity_coeff(tensor(x, y), reg) == identity_coeff(par, reg)
    inner = deviation_sectors(tensor(x, y), reg)
    assert inner.masks <= deviation_sectors(par, reg).reorder(inner.labels).masks


@st.composite
def pair_type(draw):
    """A type of one to three tail-free hatted pairs ``^Ai -> ^Bi`` and ``I``
    leaves, with its registry."""
    n = draw(st.integers(1, 3))
    dims = draw(st.lists(st.sampled_from([2, 3]), min_size=n, max_size=n))
    leaves = draw(st.permutations([BistochElem(f"A{i}", (), f"B{i}", ()) for i in range(n)]
                                  + [TRIVIAL] * draw(st.integers(0, 2))))

    def tree(leaves):
        if len(leaves) == 1:
            return leaves[0]
        k = draw(st.integers(1, len(leaves) - 1))
        return Arrow(tree(leaves[:k]), tree(leaves[k:]))

    reg = SystemRegistry.from_dict({f"{side}{i}": d for i, d in enumerate(dims) for side in "AB"})
    return tree(leaves), reg


@settings(max_examples=150, deadline=None)
@given(pair_type())
def test_exchanging_each_pair_keeps_the_deviation_sectors(case):
    # time symmetry: ^Ai -> ^Bi and ^Bi -> ^Ai allow the same deviations, so
    # exchanging every pair keeps the set; the one-way arrows of the dehatted
    # type do not
    t, reg = case
    swapped = rename_type(t, {lab: ("B" if lab[0] == "A" else "A") + lab[1:]
                              for lab in systems_of(t)})
    assert deviation_sectors(swapped, reg).same_subspace(deviation_sectors(t, reg))
    assert not deviation_sectors(dehat(swapped), reg).same_subspace(
        deviation_sectors(dehat(t), reg))


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
        term = sector_project(noise, SectorSet(noise.factors, [random.choice(outside)]))
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
        term = sector_project(noise, SectorSet(noise.factors, [random.choice(outside)]))
        real = real + 0.05 * term.data
    op = LabeledOperator(factors, real)
    # a tensor product of diagonal phase unitaries: U R U^H is R * u u^H
    rng = np.random.default_rng(random.randrange(1 << 16))
    u = np.ones(1)
    for _, d in factors:
        u = np.kron(u, np.exp(2j * np.pi * rng.random(d)))
    phased = LabeledOperator(factors, real * np.outer(u, u.conj()))
    assert hermitian_part(op).dtype == np.float64
    assert hermitian_part(phased).dtype == np.complex128

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
        term = sector_project(noise, SectorSet(noise.factors, [random.choice(outside)]))
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



def _assert_same_report(got, want, permutation, scale):
    """``got`` (an operator in another factor order) says what ``want`` (the
    aligned operator) says: exact fields equal, floats to 1e-12 * scale."""
    for name in ("verdict", "psd_ok", "psd_method", "lambda_ok", "lambda_expected"):
        assert getattr(got, name) == getattr(want, name), name
    assert want.permutation is None and got.permutation == permutation
    for name in ("min_eigenvalue", "herm_defect", "lambda_measured", "sector_residual"):
        assert abs(getattr(got, name) - getattr(want, name)) <= 1e-12 * scale, name
    assert [p for p, _ in got.forbidden_components] == [p for p, _ in want.forbidden_components]
    for (_, a), (_, b) in zip(got.forbidden_components, want.forbidden_components):
        assert abs(a - b) <= 1e-12 * scale


@settings(max_examples=60, deadline=None)
@given(sampled_type(), st.booleans(), st.sampled_from([0.5, 1.0, 1.01]),
       st.randoms(use_true_random=False))
def test_checks_run_in_any_factor_order(case, add_forbidden, size, random):
    # every check on a shuffled operator gives the aligned operator's report,
    # with patterns named in the type's order
    t, reg = case
    coeff, sectors = characterization_of(t, reg)
    assume(math.prod(d for _, d in sectors.systems) <= 64)
    op = sample_deterministic(t, reg, eps=0.5, seed=random.randrange(1 << 16))
    data = size * op.data
    k = len(op.factors)
    outside = [m for m in range(1, 1 << k) if m not in sectors.masks]
    if add_forbidden and outside:
        noise = LabeledOperator(op.factors, random_hermitian(
            op.dim, np.random.default_rng(random.randrange(1 << 16))))
        data = data + 0.05 * sector_project(noise, SectorSet(op.factors, outside)).data
    op = LabeledOperator(op.factors, data)
    order = list(op.labels)
    random.shuffle(order)
    moved = permute_systems(op, order)
    permutation = None if moved.labels == sectors.labels else sectors.labels
    scale = 1.0 + float(np.linalg.norm(data - float(coeff) * np.eye(op.dim)))

    _assert_same_report(check_operator(moved, coeff, sectors),
                        check_operator(op, coeff, sectors), permutation, scale)
    _assert_same_report(is_deterministic(moved, t, reg), is_deterministic(op, t, reg),
                        permutation, scale)
    if has_hats(t):
        got, want = classify(moved, t, reg), classify(op, t, reg)
        assert got.verdict == want.verdict
        assert [p for p, _ in got.forbidden] == [p for p, _ in want.forbidden]
        _assert_same_report(got.bistoch_report, want.bistoch_report, permutation, scale)
        _assert_same_report(got.standard_report, want.standard_report, permutation, scale)
    got, want = is_admissible(moved, t, reg, max_iter=100), is_admissible(op, t, reg, max_iter=100)
    assert (got.status, got.iterations) == (want.status, want.iterations)
    assert (got.witness is None) == (want.witness is None)
    if want.witness is not None:
        assert got.witness.factors == want.witness.factors == sectors.systems


def _full_space_breakdown(op, sectors, scale):
    """The sector residual of ``op`` and its forbidden patterns with their
    norms, from the outside component formed on the whole operator: the
    reference for the check, which forms it on ``op`` averaged over the
    factors that every forbidden pattern marks identity."""
    outside = outside_component(op, sectors)
    residual = float(np.linalg.norm(outside.data))
    allowed = sectors.reorder(op.factors).masks
    found = {}
    for mask, sq in enumerate(pattern_norms(outside)):
        if mask and mask not in allowed and math.sqrt(sq) > 1e-12 * scale:
            marks = ("T" if mask >> op.labels.index(lab) & 1 else "I" for lab in sectors.labels)
            found[" ".join(f"{lab}:{m}" for lab, m in zip(sectors.labels, marks))] = math.sqrt(sq)
    return residual, found if residual > 1e-12 * scale else {}


def _assert_check_is_the_full_space_breakdown(t, reg, real, tol, random):
    # a dense deterministic event plus noise of about a tenth of it, in a
    # shuffled factor order
    coeff, sectors = characterization_of(t, reg)
    sample = sample_deterministic(t, reg, eps=0.5, seed=random.randrange(1 << 16))
    rng = np.random.default_rng(random.randrange(1 << 16))
    noise = random_hermitian(sample.dim, rng) * (0.1 * float(coeff) / math.sqrt(sample.dim))
    data = sample.data + noise
    if real:
        data = ((data + data.T) / 2).real
    order = list(sample.labels)
    random.shuffle(order)
    op = permute_systems(LabeledOperator(sample.factors, data), order)
    assert op.data.dtype == (np.float64 if real else np.complex128)

    rep = check_operator(op, coeff, sectors, tol=tol)
    scale = 1.0 + float(np.linalg.norm(op.data - float(coeff) * np.eye(op.dim)))
    residual, found = _full_space_breakdown(op, sectors, scale)
    assert rep.verdict == ("PASS" if rep.psd_ok and rep.lambda_ok and residual <= tol
                           else "FAIL")
    assert rep.sector_residual == pytest.approx(residual, rel=1e-12, abs=0.0)
    reported = dict(rep.forbidden_components)
    assert len(reported) == len(rep.forbidden_components) and reported.keys() == found.keys()
    for pattern, norm in found.items():
        assert reported[pattern] == pytest.approx(norm, rel=1e-12, abs=0.0)
    return rep


@settings(max_examples=80, deadline=None)
@given(sampled_type(max_systems=6), st.booleans(), st.sampled_from([1e-9, 1.0]),
       st.randoms(use_true_random=False))
def test_check_equals_the_full_space_breakdown(case, real, tol, random):
    t, reg = case
    assume(math.prod(reg.dim(lab) for lab in systems_of(t)) <= 400)
    _assert_check_is_the_full_space_breakdown(t, reg, real, tol, random)


@pytest.mark.parametrize("text,idle", [
    # the lc23 level: no global future, and no factor idle in its check
    ("((((^A1 -> ^B1) -> ((^A2 -> ^B2) -> I)) -> I) -> I)", ""),
    # the BSP level: the global future F is idle
    ("((((^A1 -> ^B1) -> ((^A2 -> ^B2) -> I)) -> I) -> (P -> F))", "F"),
    # a state of two systems forbids nothing: every factor is idle
    ("A1 B1", "A1 B1"),
])
@pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
def test_check_equals_the_full_space_breakdown_on_named_levels(text, idle, real):
    reg = SystemRegistry.of(A1=2, B1=2, A2=3, B2=3, P=3, F=2)
    t = parse_type(text, reg)
    sectors = deviation_sectors(t, reg)
    k = len(sectors.systems)
    forbidden = frozenset(range(1, 1 << k)) - sectors.masks
    assert [lab for i, lab in enumerate(sectors.labels)
            if not any(m >> i & 1 for m in forbidden)] == idle.split()
    for seed in range(3):
        rep = _assert_check_is_the_full_space_breakdown(t, reg, real, 1e-9, Random(seed))
        assert bool(rep.forbidden_components) == bool(forbidden)


# the parts of a matrix entry: floats, -0.0, integers, and 0.0 for a real entry
ENTRY_PART = st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.just(-0.0),
                       st.integers(-2 ** 200, 2 ** 200), st.just(0.0))


@st.composite
def operator_payload(draw):
    """An operator document as ``json.loads`` returns it, in one of the key
    orders, with or without an unknown key."""
    dims = draw(st.lists(st.integers(1, 3), max_size=3).filter(lambda ds: math.prod(ds) <= 8))
    n = math.prod(dims)
    matrix = [[[draw(ENTRY_PART), draw(ENTRY_PART)] for _ in range(n)] for _ in range(n)]
    items = [("factors", [[f"S{i}", d] for i, d in enumerate(dims)]), ("matrix", matrix)]
    if draw(st.booleans()):
        items.reverse()
    if draw(st.booleans()):
        items.insert(draw(st.integers(0, 2)), ("note", {"made by": ["hand", 1]}))
    return dict(items)


@settings(max_examples=150, deadline=None)
@given(st.lists(operator_payload(), min_size=1, max_size=2), st.sampled_from([None, 2]),
       st.sampled_from(["doc.json", "doc.json.gz"]))
def test_reader_matches_the_whole_document_conversion(payloads, indent, name):
    bundle = {"blocks": payloads, "spec": {"slot_types": ["(A -> B)"], "memories": ["I", "I"]}}
    opener = gzip.open if name.endswith(".gz") else open
    reg = SystemRegistry.of(A=2, B=2)
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / name)
        for doc, blocks in ((payloads[0], payloads[:1]), (bundle, payloads)):
            with opener(path, "wt", encoding="utf-8") as fh:
                fh.write(json.dumps(doc, indent=indent))
            got = read_bundle(path, reg)[0] if doc is bundle else [read_operator(path)]
            assert [(x.factors, x.data.tobytes()) for x in got] == [converted(p) for p in blocks]


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(1, 4), max_size=3).filter(lambda ds: math.prod(ds) <= 16),
       st.integers(0, 2 ** 16), st.floats(0, 1), st.sampled_from(["doc.json", "doc.json.gz"]),
       st.booleans(), st.booleans())
def test_key_order_never_changes_the_read(dims, seed, share, name, as_block, real):
    # one size rule in either key order: the factors' product when they come
    # first, the first row's length when the matrix does; a real operator is
    # written as plain numbers and reads back as float64
    rng = np.random.default_rng(seed)
    n = math.prod(dims)
    data = rng.normal(size=(n, n))
    op = LabeledOperator(tuple((f"S{i}", d) for i, d in enumerate(dims)),
                         data if real else data + 1j * rng.normal(size=(n, n)))
    max_dim = 1 + int(share * (2 * n - 1))
    opener = gzip.open if name.endswith(".gz") else open
    payload = operator_to_dict(op)
    outcomes = []
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / name)
        for keys in (["factors", "matrix"], ["matrix", "factors"]):
            doc = {key: payload[key] for key in keys}
            if as_block:
                doc = {"blocks": [doc], "spec": {"slot_types": ["(A -> B)"],
                                                 "memories": ["I", "I"]}}
            with opener(path, "wt", encoding="utf-8") as fh:
                fh.write(json.dumps(doc))
            try:
                got = (read_bundle(path, SystemRegistry.of(A=2, B=2), max_dim=max_dim)[0]
                       if as_block
                       else [read_operator(path, max_dim=max_dim)])
            except HoqError as exc:
                outcomes.append((type(exc), str(exc)))
            else:
                outcomes.append([(x.factors, x.data.dtype, x.data.tobytes()) for x in got])
    assert outcomes[0] == outcomes[1]
    if n <= max_dim:
        assert outcomes[0] == [(op.factors, op.data.dtype, op.data.tobytes())]
        assert op.data.dtype == (np.float64 if real else np.complex128)
    else:
        assert outcomes[0] == (SizeLimit, f"operator dimension {n} exceeds limits.max_dim = "
                                          f"{max_dim}")


def _read_text_as(text: str, name: str, as_block: bool):
    """The operators of ``text``, written to a file ``name`` as an operator
    document or as the one block of a bundle."""
    if as_block:
        text = ('{"blocks": [' + text + '], "spec": {"slot_types": ["(A -> B)"], '
                '"memories": ["I", "I"]}}')
    opener = gzip.open if name.endswith(".gz") else open
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / name)
        with opener(path, "wt", encoding="utf-8") as fh:
            fh.write(text)
        return (read_bundle(path, SystemRegistry.of(A=2, B=2))[0] if as_block
                else [read_operator(path)])


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 6), st.data(), st.booleans(), st.booleans(), st.booleans())
def test_mixed_row_forms_name_the_row(n, data, real_first, matrix_first, as_block):
    # the first row fixes the form; the first row in the other form is named
    switch = data.draw(st.integers(1, n - 1))
    rows = [[float(i == j) for j in range(n)] for i in range(n)]
    pairs = [[[x, 0.0] for x in row] for row in rows]
    first, second = (rows, pairs) if real_first else (pairs, rows)
    items = [("factors", [["S0", n]]), ("matrix", first[:switch] + second[switch:])]
    if matrix_first:
        items.reverse()
    form = "plain numbers" if real_first else "[re, im] pairs"
    with pytest.raises(ShapeMismatch, match=re.escape(f"row {switch} does not hold {form} "
                                                      "as row 0 does")):
        _read_text_as(json.dumps(dict(items)), "doc.json", as_block)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(1, 4), min_size=1, max_size=3).filter(lambda ds: math.prod(ds) <= 24),
       st.integers(0, 2 ** 16), st.booleans(), st.sampled_from(["doc.json", "doc.json.gz"]),
       st.booleans())
def test_compact_real_file_fits_the_room_guard(dims, seed, matrix_first, name, as_block):
    # one-digit entries with no spaces, "[[1,0],[0,1]]": two characters an
    # entry, fewer than the five of the shortest pair
    n = math.prod(dims)
    factors = tuple((f"S{i}", d) for i, d in enumerate(dims))
    matrix = np.random.default_rng(seed).integers(0, 2, size=(n, n))
    items = [("factors", factors), ("matrix", matrix.tolist())]
    if matrix_first:
        items.reverse()
    got = _read_text_as(json.dumps(dict(items), separators=(",", ":")), name, as_block)
    assert [(x.factors, x.data.dtype, x.data.tobytes()) for x in got] == \
        [(factors, np.float64, matrix.astype(float).tobytes())]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 16), st.sampled_from(["doc.json", "doc.json.gz"]), st.booleans())
def test_bundle_of_a_real_and_a_complex_block(seed, name, real_first):
    # each block of a bundle takes its own form
    rng = np.random.default_rng(seed)
    real = LabeledOperator((("A", 2), ("B", 2)), rng.normal(size=(4, 4)))
    phased = LabeledOperator((("A", 2), ("B", 2)),
                             rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    blocks = [real, phased] if real_first else [phased, real]
    spec = NetworkSpec((parse_type("(A -> B)", SystemRegistry.of(A=2, B=2)),), ("I", "I"))
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / name)
        write_bundle(blocks, spec, path)
        got, spec_back, _ = read_bundle(path, SystemRegistry.of(A=2, B=2))
    assert spec_back == spec
    assert real.data.dtype == np.float64 and phased.data.dtype == np.complex128
    assert [(x.factors, x.data.dtype, x.data.tobytes()) for x in got] == \
        [(x.factors, x.data.dtype, x.data.tobytes()) for x in blocks]


@st.composite
def matrix_of_any_dtype(draw):
    """A square matrix of dtype bool, int, float32, float64 or complex128, and
    the kind of its imaginary parts: None for a real dtype, else all 0, all
    -0.0, or all 0 but one, which is non-zero or NaN."""
    n = draw(st.integers(1, 4))
    dtype = draw(st.sampled_from([np.bool_, np.int64, np.float32, np.float64, np.complex128]))
    entries = {np.bool_: st.booleans(), np.int64: st.integers(-2 ** 53, 2 ** 53),
               np.float32: st.floats(allow_nan=False, allow_infinity=False, width=32)}.get(
        dtype, st.floats(allow_nan=False, allow_infinity=False))
    data = np.array(draw(st.lists(entries, min_size=n * n, max_size=n * n)), dtype=dtype)
    data = data.reshape(n, n)
    if dtype is not np.complex128:
        return data, None
    imag = draw(st.sampled_from(["zero", "minus_zero", "non_zero", "nan"]))
    data.imag = -0.0 if imag == "minus_zero" else 0.0
    if imag in ("non_zero", "nan"):
        row, col = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        data.imag[row, col] = np.nan if imag == "nan" else draw(
            st.floats(allow_nan=False, allow_infinity=False).filter(bool))
    return data, imag


@settings(max_examples=200, deadline=None)
@given(matrix_of_any_dtype())
def test_operator_is_float64_exactly_when_its_entries_are_real(case):
    data, imag = case
    op = LabeledOperator((("A", data.shape[0]),), data)
    if imag in ("non_zero", "nan"):
        assert op.data.dtype == np.complex128 and op.data.tobytes() == data.tobytes()
    else:
        # a zero imaginary part's sign is the one thing not kept
        assert op.data.dtype == np.float64
        assert op.data.tobytes() == np.real(data).astype(np.float64).tobytes()
    if imag == "nan":
        return  # a file holds no NaN
    with tempfile.TemporaryDirectory() as tmp:
        for name in ("op.json", "op.json.gz"):
            path = str(Path(tmp) / name)
            write_operator(op, path)
            back = read_operator(path)
            assert back.factors == op.factors and back.data.dtype == op.data.dtype
            assert back.data.tobytes() == op.data.tobytes()


@st.composite
def supported_operator(draw):
    """A matrix whose entries lie in a random set of live rows, and what was
    planted in it: ``None``, ``"non_finite"``, ``"overflow"`` (a pair in the
    live block whose skew overflows) or ``"both"``.

    The live share crosses one half in both directions, and the sizes cross
    the hermiticity scan's tile edges of 64 and 256.  The live block is
    Hermitian or not; a live row may hold an entry whose mirror column is
    empty, and the matrix may be a lone off-diagonal entry or zero.
    """
    n = draw(st.one_of(st.sampled_from([1, 2, 63, 64, 65, 255, 256, 257, 600]),
                       st.integers(1, 600)))
    complex_entries = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    data = np.zeros((n, n), dtype=complex if complex_entries else float)
    live = rng.choice(n, draw(st.integers(0, n)), replace=False)
    block = rng.normal(size=(len(live), len(live)))
    if complex_entries:
        block = block + 1j * rng.normal(size=block.shape)
    if draw(st.booleans()):
        block = block + block.conj().T
    data[np.ix_(live, live)] = block
    dead = np.setdiff1d(np.arange(n), live)
    if len(live) and len(dead) and draw(st.booleans()):
        # a live row with an entry whose mirror column is empty
        data[rng.choice(live), rng.choice(dead)] = rng.normal()
    if n > 1 and not len(live) and draw(st.booleans()):
        i, j = rng.choice(n, 2, replace=False)
        data[i, j] = rng.normal()
    planted = draw(st.sampled_from([None, "non_finite", "overflow", "both"]))
    if planted in ("overflow", "both"):
        if len(live) < 2:
            planted = None if planted == "overflow" else "non_finite"
        else:
            i, j = rng.choice(live, 2, replace=False)
            data[i, j], data[j, i] = 1e308, -1e308
    if planted in ("non_finite", "both"):
        data[rng.integers(n), rng.integers(n)] = draw(st.sampled_from(
            [np.nan, np.inf, -np.inf] + ([complex(0.0, np.nan)] if complex_entries else [])))
    return data, planted


@settings(max_examples=150, deadline=None)
@given(supported_operator())
def test_hermiticity_defect_is_the_whole_matrix_maximum(case):
    data, planted = case
    a = LabeledOperator((("A", len(data)),), data)
    if planted is None:
        assert a.herm_defect() == np.abs(a.data - a.data.conj().T).max()
    else:
        error = NotHermitian if planted == "overflow" else NonFiniteOperator
        with pytest.raises(error):
            a.herm_defect()


@st.composite
def planted_spectrum(draw, sizes=(1, 255, 256, 257, 513, 700)):
    """``Q diag Q^H`` as a product, Hermitian up to rounding, with its minimum
    eigenvalue planted at ``+edge`` or ``-edge`` for an ``edge >= 1e-6``, and
    whether it is positive; the sizes straddle the factorization's blocks of
    256 rows."""
    n = draw(st.sampled_from(sizes))
    complex_entries = draw(st.booleans())
    positive = draw(st.booleans())
    edge = draw(st.floats(1e-6, 1.0))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return _planted(rng, n, complex_entries, positive, edge), positive


def _planted(rng, n, complex_entries, positive, edge):
    """``Q diag Q^H`` for a random unitary Q, its spectrum in ``[edge, 1]``
    when positive and otherwise in ``[1e-6, 1]`` with one ``-edge``."""
    g = rng.normal(size=(n, n))
    if complex_entries:
        g = g + 1j * rng.normal(size=(n, n))
    q, _ = np.linalg.qr(g)
    spectrum = rng.uniform(edge if positive else 1e-6, 1.0, n)
    spectrum[rng.integers(n)] = edge if positive else -edge
    return (q * spectrum) @ q.conj().T


@settings(max_examples=30, deadline=None)
@given(planted_spectrum())
def test_positivity_test_decides_and_leaves_its_input_unchanged(case):
    data, positive = case
    factors = (("S", len(data)),)
    sym = hermitian_part(LabeledOperator(factors, data))
    a = LabeledOperator(factors, sym)
    before = a.data.tobytes()
    assert a.herm_defect() == 0
    min_eig, psd_ok, method = _psd_status(a, a.data, _certificate_block(a.data), TOL_PSD)
    assert a.data.tobytes() == before
    if positive:
        assert (method, psd_ok, min_eig) == ("cholesky", True, -TOL_PSD)
    else:
        exact = float(np.linalg.eigvalsh(sym)[0])
        assert method == "eigvalsh" and not psd_ok
        assert abs(min_eig - exact) <= 1e-12 * abs(exact)


def _signed_zero_operator(shift):
    """A complex Hermitian matrix of three 256-row blocks whose zero imaginary
    parts below the diagonal are -0 where the entry above them is +0;
    positive definite for ``shift = 0`` and not for ``shift = -2``."""
    n = 2 * 256 + 100
    data = np.eye(n, dtype=complex) + shift * np.eye(n)[::-1]
    data[0, 1], data[1, 0] = 0.01j, -0.01j
    for row, col in [(300, 290), (600, 257), (611, 610), (400, 300)]:
        data[row, col] = complex(-0.001, -0.0)
        data[col, row] = complex(-0.001, 0.0)
    return data


@st.composite
def front_half_input(draw):
    """A planted spectrum, real or complex, PSD or not, made exactly
    Hermitian or left skewed within ``herm_tol``."""
    data, _ = draw(planted_spectrum(sizes=(1, 255, 256, 257, 513)))
    data = data + draw(st.sampled_from([0.0, 1e-13])) * np.tri(len(data))
    if draw(st.booleans()):
        data = (data + data.conj().T) / 2
    return data


@settings(max_examples=40, deadline=None)
@given(front_half_input())
@example(_signed_zero_operator(0.0))
@example(_signed_zero_operator(-2.0))
def test_check_decides_positivity_as_the_whole_matrix_reference(data):
    # the check's copy factored in blocks, and eigvalsh of an unfactored
    # matrix, against the whole-matrix reference
    a = LabeledOperator((("S", data.shape[0]),), data)
    assert a.herm_defect() <= TOL_HERM
    before = a.data.tobytes()
    rep = check_operator(a, Fraction(1, a.dim), full_space(a.factors))
    assert a.data.tobytes() == before
    assert (rep.psd_method, rep.psd_ok, rep.min_eigenvalue) == whole_matrix_positivity(a)


def whole_matrix_positivity(a):
    """``(psd_method, psd_ok, min_eigenvalue)`` from the whole-matrix
    Hermitian part: LAPACK's Cholesky of a shifted copy, and otherwise
    ``eigvalsh``."""
    sym = (a.data + a.data.conj().T) / 2
    try:
        np.linalg.cholesky(sym + TOL_PSD * np.eye(a.dim))
        return "cholesky", True, -TOL_PSD
    except np.linalg.LinAlgError:
        min_eig = float(np.linalg.eigvalsh(sym)[0])
        return "eigvalsh", min_eig >= -TOL_PSD, min_eig


def planted_support(n, m, complex_entries=False, positive=True, edge=1e-3, skew=0.0,
                    bridge=None, seed=0):
    """An ``n``-row zero matrix with an ``m``-row planted spectrum on random
    rows, its minimum eigenvalue at ``+edge`` or ``-edge``, exactly Hermitian
    for ``skew = 0`` and otherwise skewed by ``skew`` on and below the
    diagonal.  A ``bridge`` of ``(eps, sign)`` joins one free row, whose
    diagonal is 0, to the block by the Hermitian pair ``sign * eps`` alone.
    Against a block with eigenvalues in ``[1e-6, 1]``, a pair of 1e-4 fails
    the certificate (``eps**2 > psd_tol``) and a pair of 1e-12 does not."""
    rng = np.random.default_rng(seed)
    data = np.zeros((n, n), dtype=complex if complex_entries else float)
    rows = rng.choice(n, m, replace=False)
    if m:
        block = _planted(rng, m, complex_entries, positive, edge)
        # a product is Hermitian only up to rounding: made exact, or skewed
        block = (block + block.conj().T) / 2 if skew == 0 else block + skew * np.tri(m)
        data[np.ix_(rows, rows)] = block
    if bridge is not None and 0 < m < n:
        eps, sign = bridge
        free = rng.choice(np.setdiff1d(np.arange(n), rows))
        data[free, rows[0]] = data[rows[0], free] = sign * eps
    return data


@st.composite
def support_case(draw):
    """A planted support, real or complex, PSD or not, exactly Hermitian or
    skewed within ``herm_tol``, possibly bridged to a zero-diagonal row, or
    the zero operator; n crosses the factorization's 256-row blocks."""
    n = draw(st.integers(1, 300))
    m = 0 if draw(st.integers(0, 9)) == 0 else draw(st.integers(1, min(40, n)))
    bridge = draw(st.sampled_from([None, 1e-12, 1e-4]))
    return planted_support(
        n, m, complex_entries=draw(st.booleans()), positive=draw(st.booleans()),
        edge=draw(st.floats(1e-6, 1.0)), skew=draw(st.sampled_from([0.0, 1e-13])),
        bridge=bridge and (bridge, draw(st.sampled_from([-1.0, 1.0]))),
        seed=draw(st.integers(0, 2 ** 32 - 1)))


@settings(max_examples=60, deadline=None)
@given(support_case())
@example(planted_support(300, 0))
@example(planted_support(1, 0))
@example(planted_support(300, 30, bridge=(1e-4, 1.0)))
@example(planted_support(300, 30, bridge=(1e-12, -1.0)))
@example(planted_support(300, 200, complex_entries=True, skew=1e-13))
def test_support_certificate_decides_as_the_whole_matrix_reference(data):
    # the certificate factors only the rows that hold an entry; a row whose
    # diagonal is 0 but which holds a bridge pair stays in the support
    a = LabeledOperator((("S", data.shape[0]),), data)
    assert a.herm_defect() <= TOL_HERM
    before = a.data.tobytes()
    want = whole_matrix_positivity(a)
    rep = check_operator(a, Fraction(1, a.dim), full_space(a.factors))
    assert (rep.psd_method, rep.psd_ok, rep.min_eigenvalue) == want
    assert is_psd(a) == want[1]
    assert a.data.tobytes() == before
