import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from hoq import (
    LabeledOperator,
    Hierarchy,
    SystemRegistry,
    check_bislot,
    check_bsp,
    choi_of_kraus,
    is_psd,
    link_product,
    merge_factors,
    parse_type,
    partial_trace,
    permute_systems,
    tensor_op,
)
from hoq.errors import (
    BadPermutation,
    DimMismatch,
    LabelCollision,
    NonFiniteOperator,
    NotHermitian,
    ShapeMismatch,
    UnknownLabel,
)
from hoq import linalg
from hoq.linalg import (TOL_HERM, TOL_PSD, _TILE, drop_trivial, hermitian_part, identity,
                        rank_one, relabel, transpose)
from hoq.membership import characterization_of, check_operator
from hoq.processes import haar_unitary, merge_ports, n_time_flip_choi, random_state
from hoq.sectors import SectorSet, full_space, pattern_norms, sector_project

from helpers import NON_FINITE, apply_choi, max_entangled, non_finite_operator


def op(labels_dims, data):
    return LabeledOperator(tuple(labels_dims), np.asarray(data, dtype=complex))


def rand_op(rng, labels_dims):
    d = int(np.prod([dd for _, dd in labels_dims]))
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return op(labels_dims, g)


def rand_herm(rng, labels_dims):
    a = rand_op(rng, labels_dims)
    return op(labels_dims, (a.data + a.data.conj().T) / 2)


class TestTensorAndPermute:
    def test_identity_tensor(self):
        one = tensor_op(identity([("A", 2)]), identity([("B", 3)]))
        assert one.factors == (("A", 2), ("B", 3))
        assert np.array_equal(one.data, np.eye(6))

    def test_rank_one_projector(self):
        p0 = op([("A", 2)], [[1, 0], [0, 0]])
        p1 = op([("B", 2)], [[0, 0], [0, 1]])
        both = tensor_op(p0, p1)
        expected = np.zeros((4, 4))
        expected[1, 1] = 1  # |01>
        assert np.allclose(both.data, expected)

    def test_trace_multiplicative(self, rng):
        for _ in range(10):
            a = rand_op(rng, [("A", 2), ("B", 3)])
            b = rand_op(rng, [("C", 2)])
            ab = tensor_op(a, b)
            assert abs(ab.trace() - a.trace() * b.trace()) < 1e-10

    def test_label_collision(self):
        with pytest.raises(LabelCollision):
            tensor_op(identity([("A", 2)]), identity([("A", 2)]))

    def test_permute_identity_and_swap(self):
        p = tensor_op(op([("A", 2)], [[1, 0], [0, 0]]),
                      op([("B", 2)], [[0, 0], [0, 1]]))
        assert permute_systems(p, ["A", "B"]) is p
        sw = permute_systems(p, ["B", "A"])
        expected = np.zeros((4, 4))
        expected[2, 2] = 1  # |10> in BA order
        assert np.allclose(sw.data, expected)
        assert sw.factors == (("B", 2), ("A", 2))

    def test_permute_preserves_spectrum(self, rng):
        a = rand_herm(rng, [("A", 2), ("B", 3), ("C", 2)])
        b = permute_systems(a, ["C", "A", "B"])
        assert np.allclose(np.linalg.eigvalsh(a.data), np.linalg.eigvalsh(b.data))

    def test_bad_permutation(self):
        a = identity([("A", 2), ("B", 2)])
        with pytest.raises(BadPermutation):
            permute_systems(a, ["A", "C"])


class TestPartialTraceTranspose:
    def test_trace_of_identity(self):
        one = identity([("A", 2), ("B", 3)])
        ta = partial_trace(one, ["B"])
        assert np.allclose(ta.data, 3 * np.eye(2))
        assert ta.factors == (("A", 2),)

    def test_trace_of_max_entangled(self):
        me = max_entangled("A", "B", 3)
        tb = partial_trace(me, ["A"])
        assert np.allclose(tb.data, np.eye(3))

    def test_full_trace(self, rng):
        a = rand_op(rng, [("A", 2), ("B", 2)])
        full = partial_trace(a, ["A", "B"])
        assert full.factors == ()
        assert abs(complex(full.data[0, 0]) - a.trace()) < 1e-12

    def test_unknown_label(self):
        with pytest.raises(UnknownLabel):
            partial_trace(identity([("A", 2)]), ["B"])

    def test_full_transpose_of_hermitian_is_conjugate(self, rng):
        a = rand_herm(rng, [("A", 2), ("B", 2)])
        assert np.allclose(transpose(a).data, a.data.conj())


class TestLinkProduct:
    def test_disjoint_is_tensor(self, rng):
        a = rand_op(rng, [("A", 2)])
        b = rand_op(rng, [("B", 3)])
        lk = link_product(a, b)
        assert np.allclose(lk.data, np.kron(a.data, b.data))
        assert lk.factors == (("A", 2), ("B", 3))

    def test_identical_labels_full_pairing(self, rng):
        one = identity([("A", 2)])
        assert abs(complex(link_product(one, one).data[0, 0]) - 2) < 1e-12
        a = rand_op(rng, [("A", 2), ("B", 2)])
        b = rand_op(rng, [("A", 2), ("B", 2)])
        val = complex(link_product(a, b).data[0, 0])
        assert abs(val - np.trace(a.data.T @ b.data)) < 1e-10

    def test_choi_identity_chain(self):
        lk = link_product(max_entangled("A", "B", 2), max_entangled("B", "C", 2))
        assert lk.factors == (("A", 2), ("C", 2))
        assert np.allclose(lk.data, max_entangled("A", "C", 2).data)

    def test_dim_mismatch(self):
        with pytest.raises(DimMismatch):
            link_product(identity([("A", 2)]), identity([("A", 3)]))

    def test_associative_on_chains(self, rng):
        for _ in range(10):
            a = rand_op(rng, [("A", 2), ("B", 2)])
            b = rand_op(rng, [("B", 2), ("C", 3)])
            c = rand_op(rng, [("C", 3), ("D", 2)])
            left = link_product(link_product(a, b), c)
            right = link_product(a, link_product(b, c))
            right = permute_systems(right, left.labels)
            assert np.abs(left.data - right.data).max() < 1e-10

    def test_link_of_psd_is_psd(self, rng):
        for _ in range(10):
            a = rand_op(rng, [("A", 2), ("B", 2)])
            b = rand_op(rng, [("B", 2), ("C", 2)])
            pa = op(a.factors, a.data @ a.data.conj().T)
            pb = op(b.factors, b.data @ b.data.conj().T)
            lk = link_product(pa, pb)
            assert is_psd(lk, psd_tol=1e-9)


class TestChoi:
    def test_identity_channel(self):
        c = choi_of_kraus([np.eye(2)], "A", "B")
        assert abs(c.trace() - 2) < 1e-12
        assert np.allclose(c.data, max_entangled("A", "B", 2).data)

    def test_unitary_action(self, rng):
        for _ in range(5):
            u = haar_unitary(2, rng)
            c = choi_of_kraus([u], "A", "B")
            rho = op([("A", 2)], random_state(2, rng))
            out = apply_choi(c, ["A"], rho)
            assert out.factors == (("B", 2),)
            assert np.abs(out.data - u @ rho.data @ u.conj().T).max() < 1e-12

    def test_kraus_action_matches_sum(self, rng):
        from hoq.processes import random_kraus
        ks = random_kraus(2, 3, 4, rng)
        c = choi_of_kraus(ks, "A", "B")
        rho = op([("A", 2)], random_state(2, rng))
        out = apply_choi(c, ["A"], rho)
        direct = sum(k @ rho.data @ k.conj().T for k in ks)
        assert np.abs(out.data - direct).max() < 1e-12

    def test_depolarizing_choi_marginal(self):
        c = op([("A", 2), ("B", 2)], np.eye(4) / 2)
        marg = partial_trace(c, ["B"])
        assert np.allclose(marg.data, np.eye(2))

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            choi_of_kraus([np.eye(2), np.eye(3)], "A", "B")

    def test_no_kraus_operators(self):
        with pytest.raises(ShapeMismatch, match="at least one Kraus operator"):
            choi_of_kraus([], "A", "B")


class TestSpectral:
    def test_tolerance_semantics(self):
        assert is_psd(identity([("A", 2)]))
        a = op([("A", 2)], np.diag([1, -1e-12]))
        assert is_psd(a, psd_tol=1e-9)
        assert not is_psd(a, psd_tol=1e-15)


class TestRealArithmetic:
    FACTORS = (("A", 2), ("B", 3))

    def test_hermitian_part_is_real_when_the_imaginary_part_is_zero(self, rng):
        g = rng.normal(size=(6, 6))
        minus_zero = g.astype(complex)
        minus_zero.imag[:] = -0.0
        assert np.signbit(minus_zero.imag).all()
        skew = g + 1e-300j * rng.normal(size=(6, 6))
        for data, dtype in [(g, np.float64), (g.astype(complex), np.float64),
                            (minus_zero, np.float64), (skew, np.complex128)]:
            a = LabeledOperator(self.FACTORS, data)
            sym = hermitian_part(a)
            assert sym.dtype == dtype and sym.flags.c_contiguous
            assert np.array_equal(sym, (a.data + a.data.conj().T) / 2)
            assert a.herm_defect() == np.abs(a.data - a.data.conj().T).max()

    def test_real_entries_are_stored_float64(self, rng):
        g = rng.normal(size=(6, 6))
        for data in (g, g.astype(np.float32), g.astype(int), g.astype(complex)):
            assert LabeledOperator(self.FACTORS, data).data.dtype == np.float64
        skew = g + 1e-300j * rng.normal(size=(6, 6))
        assert LabeledOperator(self.FACTORS, skew).data.dtype == np.complex128

    @pytest.mark.parametrize("where", sorted(NON_FINITE))
    def test_non_finite_entries_on_both_paths(self, where):
        a = non_finite_operator(where)
        # only a NaN imaginary part sends the operator down the complex path
        assert a.data.imag.any() == (where == "nan_imaginary")
        with pytest.raises(NonFiniteOperator):
            a.herm_defect()


HEIGHT, WIDTH = _TILE
# one row; either side of a tile's width; one tile short of full height;
# exactly one tile high; one row over; three tiles high with a partial last one
DEFECT_SIZES = [1, WIDTH - 1, WIDTH + 1, HEIGHT - 1, HEIGHT, HEIGHT + 1, 2 * HEIGHT + 44]


class TestTileScanDefect:
    @pytest.mark.parametrize("n", DEFECT_SIZES)
    @pytest.mark.parametrize("kind", ["real", "complex", "zero_imaginary", "non_hermitian"])
    def test_equals_the_whole_matrix_maximum(self, rng, n, kind):
        g = rng.normal(size=(n, n))
        data = {"real": g + g.T + 1e-12 * rng.normal(size=(n, n)),
                "complex": g + g.T + 1e-9j * rng.normal(size=(n, n)),
                "zero_imaginary": (g + g.T).astype(complex),
                "non_hermitian": g + 1j * rng.normal(size=(n, n))}[kind]
        a = LabeledOperator((("A", n),), data)
        assert a.herm_defect() == np.abs(a.data - a.data.conj().T).max()

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)],
                             ids=["nan", "inf", "minus_inf", "nan_imaginary"])
    @pytest.mark.parametrize("where", [(-1, -1), (-1, -2)], ids=["diagonal", "below"])
    def test_non_finite_in_the_last_partial_tile_only(self, value, where):
        n = DEFECT_SIZES[-1]
        data = np.eye(n, dtype=complex) / n
        data[where] = value
        # the entry lies in the last tile, which is partial, and so does its
        # transposed partner
        assert n % HEIGHT and n % WIDTH and n + min(where) >= n - n % WIDTH
        a = LabeledOperator((("A", n),), data)
        reg = SystemRegistry.of(A=n)
        coeff, sectors = characterization_of(parse_type("A", reg), reg)
        for call in (a.herm_defect, lambda: check_operator(a, coeff, sectors),
                     lambda: sector_project(a, sectors), lambda: is_psd(a)):
            with pytest.raises(NonFiniteOperator):
                call()

    def test_overflowing_skew_is_not_a_non_finite_entry(self):
        # every entry is finite; only the difference 2e308 is not
        a = LabeledOperator((("A", 2),), np.array([[1.0, 1e308], [-1e308, 1.0]]))
        for call in (a.herm_defect, lambda: is_psd(a),
                     lambda: check_operator(a, 0.5, full_space(a.factors))):
            with pytest.raises(NotHermitian, match="overflows float64"):
                call()

    def test_a_non_finite_entry_after_an_overflow_still_raises(self):
        # the overflowing pair sits in the first tile and the NaN in the last,
        # partial one: the scan records the overflow and goes on to the NaN
        n = 2 * HEIGHT + 1
        data = np.eye(n)
        data[0, 1], data[1, 0] = 1e308, -1e308
        data[-1, -1] = np.nan
        with pytest.raises(NonFiniteOperator):
            LabeledOperator((("A", n),), data).herm_defect()

    def test_a_sparse_scan_reads_its_strip_a_tile_at_a_time(self):
        # the 32 live rows' entries right and left of their block, A[L, ~L],
        # are read into one buffer of 16 rows, a tile's area: the scan peaks
        # at 0.018 operator copies; copying the whole strip at once, it
        # peaked at 0.048
        r = _sparse_flip()
        defect, peak = _traced_peak(r.herm_defect)
        assert defect == 0
        assert peak <= 2 * _TILE[0] * _TILE[1] * r.data.itemsize

    def test_pattern_norms_gate_forms_no_operator_copy(self):
        # the hermiticity gate is the tile scan, so only the walk's partial
        # traces remain; it peaked at 1.13 float64 copies when the gate
        # formed the Hermitian part
        r = merge_ports(n_time_flip_choi(2, 2), {"P": ("Pt", "Pc"), "F": ("Ft", "Fc")})
        assert r.dim == 1024 and r.data.dtype == np.float64
        tracemalloc.start()
        try:
            pattern_norms(r)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.5 * r.dim ** 2 * 8


class TestBlockedCholesky:
    @pytest.mark.parametrize("n", [1, WIDTH + 1, HEIGHT, HEIGHT + 1, 2 * HEIGHT + 188])
    @pytest.mark.parametrize("kind", ["real", "complex", "non_hermitian"])
    def test_tiled_hermitian_part_is_the_whole_matrix_formula(self, rng, n, kind):
        g = rng.normal(size=(n, n))
        data = {"real": g,
                "complex": g + g.T + 1e-9j * rng.normal(size=(n, n)),
                "non_hermitian": g + 1j * rng.normal(size=(n, n))}[kind]
        a = LabeledOperator((("A", n),), data)
        whole = np.conjugate(a.data.T)
        whole += a.data
        whole *= 0.5
        assert hermitian_part(a).tobytes() == whole.tobytes()
        # formed again over a factored copy, it has the same bytes
        out = a.data.copy()
        out[np.tril_indices(n)] = 7.0
        assert hermitian_part(a, out=out) is out
        assert out.tobytes() == whole.tobytes()


def _sparse_flip():
    """The D = 1024 n-time flip, whose 32 non-zero rows are its support."""
    r = merge_ports(n_time_flip_choi(2, 2), {"P": ("Pt", "Pc"), "F": ("Ft", "Fc")})
    r = permute_systems(r, ["P", "A1", "B1", "A2", "B2", "F"])
    assert r.dim == 1024 and r.data.dtype == np.float64
    assert np.count_nonzero(r.data.any(axis=1)) == 32
    return r


class TestSupportCholesky:
    """The positivity certificate factors only the rows that hold an entry."""

    @pytest.fixture
    def factored(self, monkeypatch):
        shapes = []
        inner = linalg._cholesky_lower

        def spy(block):
            shapes.append(block.shape)
            inner(block)
        monkeypatch.setattr(linalg, "_cholesky_lower", spy)
        return shapes

    def test_a_sparse_operator_factors_its_support(self, factored):
        assert is_psd(_sparse_flip())
        assert factored == [(32, 32)]

    def test_a_dense_operator_is_factored_whole(self, rng, factored):
        g = rng.normal(size=(1024, 1024))
        assert is_psd(LabeledOperator((("A", 1024),), g @ g.T / 1024))
        assert factored == [(1024, 1024)]

    @pytest.fixture
    def formed(self, monkeypatch):
        # every call of hermitian_part: only hoq.linalg forms it
        calls = []
        inner = linalg.hermitian_part

        def spy(*args, **kwargs):
            calls.append(1)
            return inner(*args, **kwargs)
        monkeypatch.setattr(linalg, "hermitian_part", spy)
        return calls

    @pytest.mark.parametrize("live,forms", [(40, 1), (600, 2)])
    def test_a_factored_copy_leaves_the_hermitian_part_in_place(
            self, rng, formed, live, forms):
        # a skewed operator's Hermitian part is formed once; only when it is
        # factored whole, on a support of more than half the rows, is it
        # formed again for the back half
        n = 600
        g = rng.normal(size=(live, live))
        data = np.zeros((n, n))
        rows = rng.choice(n, live, replace=False)
        data[np.ix_(rows, rows)] = g @ g.T / live + np.eye(live) + 1e-13 * np.tri(live)
        a = LabeledOperator((("A", n),), data)
        assert 0 < a.herm_defect() <= 1e-12
        rep = check_operator(a, 1.0 / n, full_space(a.factors))
        assert (rep.psd_method, rep.psd_ok) == ("cholesky", True)
        assert len(formed) == forms

    def test_an_exactly_hermitian_operator_forms_no_hermitian_part(self, rng, formed):
        g = rng.normal(size=(300, 300))
        dense = LabeledOperator((("A", 300),), g @ g.T / 300)
        not_psd = LabeledOperator((("A", 300),), g + g.T)
        for a in (_sparse_flip(), dense, not_psd):
            assert a.herm_defect() == 0
            is_psd(a)
            check_operator(a, Fraction(1, a.dim), full_space(a.factors))
        assert formed == []

    @pytest.mark.parametrize("front", ["is_psd", "_front_half"])
    def test_a_sparse_front_half_forms_no_operator_copy(self, front):
        # the support's 32 rows hold every entry: the hermiticity scan, the
        # noise floor and the certificate read them, not the operator; with a
        # copy of the operator to factor, both peaked at 1.003-1.005 copies
        from hoq.membership import _front_half

        r = _sparse_flip()
        run = {"is_psd": lambda: is_psd(r),
               "_front_half": lambda: _front_half(r, Fraction(1, 32), 1e-9, TOL_PSD,
                                                  TOL_HERM)[2]["psd_ok"]}
        tracemalloc.start()
        try:
            assert run[front]()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.1 * r.data.nbytes

    @pytest.mark.parametrize("level", ["bislot", "standard"])
    def test_a_sparse_check_forms_no_operator_copy(self, level):
        # every forbidden pattern marks the output F identity, so the sector
        # test measures the flip averaged over F, 64 times smaller: the PASS
        # two-slot comb check peaks at 0.058 copies and the FAIL standard
        # check, with its breakdown, at 0.054; they peaked at 1.002 and 1.346
        # with the outside component formed on the whole operator
        r = _sparse_flip()
        run = {"bislot": lambda: check_bislot(r, [(2, 2), (2, 2)], 8, 8),
               "standard": lambda: check_bsp(r, [(2, 2), (2, 2)], 8, 8,
                                             hierarchy=Hierarchy.STANDARD)}
        rep, peak = _traced_peak(run[level])
        assert rep.passed == (level == "bislot") and rep.psd_method == "cholesky"
        assert rep.passed or rep.forbidden_components
        assert peak <= 0.1 * r.data.nbytes


def _traced_peak(call):
    """``call()`` and the peak of the memory it allocated, in bytes."""
    tracemalloc.start()
    try:
        out = call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, peak


class TestDensePositivityMemory:
    """A dense operator is factored whole, in blocks of 256 rows, in one copy:
    of the operator when its defect is 0, else of its Hermitian part, formed
    again into the factored array for the sector test."""

    FACTORS = (("A", 4), ("B", 16), ("C", 16))

    @pytest.fixture(scope="class")
    def dense(self):
        n = 1024
        g = np.random.default_rng(7).normal(size=(n, n))
        h = g @ g.T / n + np.eye(n)
        h = (h + h.T) / 2
        return {"hermitian": LabeledOperator(self.FACTORS, h),
                "skewed": LabeledOperator(self.FACTORS, h + 1e-13 * np.tri(n))}

    @pytest.mark.parametrize("kind", ["hermitian", "skewed"])
    def test_is_psd_factors_one_copy(self, dense, kind):
        # 1.391 copies: the factored copy plus the panels of the blocked
        # Cholesky; a private copy of the Hermitian part to factor read 2.39
        a = dense[kind]
        assert (a.herm_defect() == 0) == (kind == "hermitian")
        ok, peak = _traced_peak(lambda: is_psd(a))
        assert ok
        assert peak <= 1.5 * a.data.nbytes

    def test_a_failing_skewed_check_holds_one_copy(self, dense):
        # the Hermitian part, factored and formed again in place, with the
        # panels: 1.391 copies, as in is_psd.  Every forbidden pattern marks
        # A identity, so the sector test runs on the Hermitian part averaged
        # over A, 16 times smaller; with the outside component formed on the
        # whole operator the check held 2.079 copies, and 2.39 with a private
        # copy to factor
        a = dense["skewed"]
        first_traceless = SectorSet(self.FACTORS, [m for m in range(8) if m & 1])
        rep, peak = _traced_peak(lambda: check_operator(a, Fraction(1, a.dim), first_traceless))
        assert (rep.verdict, rep.psd_method, rep.psd_ok) == ("FAIL", "cholesky", True)
        assert peak <= 1.5 * a.data.nbytes


class TestStructure:
    def test_shape_mismatch_on_build(self):
        with pytest.raises(ShapeMismatch):
            op([("A", 2)], np.eye(3))

    @pytest.mark.parametrize("dim", [2.0, 2.7, "2", True], ids=repr)
    def test_factor_dimensions_must_be_integers(self, dim):
        with pytest.raises(ShapeMismatch, match="not an integer"):
            LabeledOperator((("A", dim),), np.eye(2))
        assert LabeledOperator((("A", np.int64(2)),), np.eye(2)).factors == (("A", 2),)

    @pytest.mark.parametrize("factors,data", [
        ((("A", -2), ("B", -2)), np.eye(4) / 4),
        ((("A", 0),), np.zeros((0, 0))),
        ((("A", 2), ("B", 0)), np.zeros((0, 0))),
    ], ids=["negative", "zero", "zero-product"])
    def test_factor_dimensions_are_at_least_one(self, factors, data):
        # a product that fits the matrix is not enough
        with pytest.raises(ShapeMismatch, match="not an integer >= 1"):
            LabeledOperator(factors, data)

    def test_repr(self):
        assert repr(op([("A", 2), ("B", 3)], np.eye(6))) == "LabeledOperator([A:2,B:3], dim=6)"

    def test_data_immutable(self):
        a = identity([("A", 2)])
        with pytest.raises(ValueError):
            a.data[0, 0] = 5

    def test_caller_array_stays_writeable(self):
        # the operator shares the caller's memory, as np.asarray does, and
        # only its own view of it is read-only
        x = np.eye(2)
        a = LabeledOperator((("A", 2),), x)
        assert x.flags.writeable and not a.data.flags.writeable
        assert np.shares_memory(x, a.data)

    def test_merge_factors(self, rng):
        a = rand_op(rng, [("A", 2), ("B", 3), ("C", 2)])
        m = merge_factors(a, ("A", "B"), "AB")
        assert m.factors == (("AB", 6), ("C", 2))
        assert np.array_equal(m.data, a.data)
        with pytest.raises(BadPermutation):
            merge_factors(a, ("A", "C"), "AC")
        with pytest.raises(BadPermutation, match="no factors to merge"):
            merge_factors(identity([("A", 2)]), (), "X")
        with pytest.raises(UnknownLabel):
            merge_factors(a, ("B", "D"), "BD")

    def test_dim_of(self):
        a = identity([("A", 2), ("B", 3)])
        assert (a.dim_of("A"), a.dim_of("B")) == (2, 3)
        with pytest.raises(UnknownLabel):
            a.dim_of("C")

    def test_marginals_of_product(self, rng):
        a = rand_herm(rng, [("A", 2)])
        b = rand_herm(rng, [("B", 3)])
        joint = tensor_op(a, b)
        ma = partial_trace(joint, ["B"])
        assert np.abs(ma.data - a.data * b.trace()).max() < 1e-12

    def test_scalar_and_transpose(self, rng):
        s = LabeledOperator((), np.array([[2.5]]))
        assert s.dim == 1 and s.factors == () and s.trace() == 2.5
        a = rand_op(rng, [("A", 2)])
        assert np.allclose(transpose(a).data, a.data.T)


class TestRankOne:
    """:func:`rank_one` forms ``|v><v|`` and keeps v; the operations that
    only rename, reorder or fuse factors carry v, every other drops it."""

    FACTORS = (("A", 2), ("B", 3), ("C", 1))

    def _vector(self, rng, complex_entries):
        v = rng.normal(size=6)
        return v + 1j * rng.normal(size=6) if complex_entries else v

    @pytest.mark.parametrize("complex_entries", [False, True], ids=["real", "complex"])
    def test_the_vector_forms_the_matrix(self, rng, complex_entries):
        v = self._vector(rng, complex_entries)
        a = rank_one(self.FACTORS, v)
        assert a.vector.dtype == (np.complex128 if complex_entries else np.float64)
        assert np.array_equal(a.data, np.outer(v, v.conj())) and np.array_equal(a.vector, v)
        assert not a.vector.flags.writeable and not a.data.flags.writeable
        # the realness rule of the matrix: zero imaginary parts leave float64
        assert rank_one(self.FACTORS, v.real.astype(complex)).vector.dtype == np.float64
        assert LabeledOperator(a.factors, a.data).vector is None
        with pytest.raises(TypeError):
            LabeledOperator(a.factors, a.data, vector=v)
        with pytest.raises(AttributeError):
            a.vector = v

    def test_a_wrong_length_is_refused_before_the_matrix_exists(self):
        n = 4000
        tracemalloc.start()
        try:
            with pytest.raises(ShapeMismatch, match="vector of 3999 entries does not match "
                                                    "factor dimensions"):
                rank_one((("A", n),), np.ones(n - 1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * n * n / 100

    @pytest.mark.parametrize("complex_entries", [False, True], ids=["real", "complex"])
    def test_carried(self, rng, complex_entries):
        a = rank_one(self.FACTORS, self._vector(rng, complex_entries))
        carried = [permute_systems(a, ["C", "B", "A"]), relabel(a, {"A": "X"}),
                   merge_factors(a, ("A", "B"), "AB"), drop_trivial(a)]
        for b in carried:
            assert b.vector is not None
            assert np.array_equal(b.data, np.outer(b.vector, b.vector.conj()))
        # the permutation moves v's entries as it moves the matrix's
        plain = LabeledOperator(a.factors, a.data)
        assert np.array_equal(carried[0].data, permute_systems(plain, ["C", "B", "A"]).data)
        assert all(np.array_equal(b.data, a.data) for b in carried[1:])

    def test_dropped(self, rng):
        a = rank_one(self.FACTORS, self._vector(rng, True))
        b = rank_one((("D", 2),), np.array([1.0, 1j]))
        dropped = [tensor_op(a, b), partial_trace(a, ["B"]), link_product(a, b),
                   link_product(relabel(b, {"D": "A"}), a), transpose(a)]
        assert all(x.vector is None for x in dropped)
