"""Property-based tests of the numerical sector projection."""
import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from hoq import LabeledOperator, Pattern, sector_component, sector_project
from hoq.sectors import SectorSet, _marks_of, _project_masks


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
    reference = sum((sector_component(op, Pattern(_marks_of(m, k))).data for m in masks),
                    np.zeros_like(h))
    assert np.allclose(proj.data, reference, atol=1e-12)

    rest = sector_project(op, complement)
    assert np.allclose(proj.data + rest.data, h, atol=1e-12)
    assert np.allclose(sector_project(proj, sectors).data, proj.data, atol=1e-12)
