"""Property-based tests of the partial trace, of the numerical sector
projection and pattern norms, of the invariants that let ``classify`` and
``is_admissible`` share the check's front half, of real arithmetic against
complex arithmetic in the check, of checks that run in the operator's own
factor order, of the factor order of network characterizations, and of the
operator and bundle file reader against a whole-document conversion."""
import gzip
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st

from hoq import (
    LabeledOperator,
    NetworkSpec,
    SystemRegistry,
    classify,
    identity_coeff,
    is_admissible,
    is_deterministic,
    parse_type,
    partial_trace,
    pattern_norms,
    permute_systems,
    sample_deterministic,
    sector_project,
)
from hoq.linalg import hermitian_part
from hoq.serialize import read_bundle, read_operator
from hoq.membership import characterization_of, check_operator, random_hermitian
from hoq.sectors import (SectorSet, _project_masks, deviation_sectors,
                         outside_component)
from hoq.typesys import dehat, has_hats, systems_of

from helpers import (converted, mask_of, marks_of, random_type, reference_component,
                     reference_partial_trace)


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
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    systems = tuple((f"S{i}", d) for i, d in enumerate(dims))
    return systems, shared, wanted, random_hermitian(int(np.prod(dims)), rng)


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


# the parts of a matrix entry: floats, -0.0, integers, and 0.0 for a real entry
ENTRY_PART = st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.just(-0.0),
                       st.integers(-2 ** 63, 2 ** 63), st.just(0.0))


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
