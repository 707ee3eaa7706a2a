import math

import numpy as np
import pytest

from hoq import (
    LabeledOperator,
    SystemRegistry,
    choi_of_kraus,
    eigh,
    is_deterministic,
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
from hoq.linalg import _DEFECT_BLOCK, hermitian_part, identity, transpose
from hoq.processes import haar_unitary, random_state

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


class TestSpectral:
    def test_tolerance_semantics(self):
        assert is_psd(identity([("A", 2)]))
        a = op([("A", 2)], np.diag([1, -1e-12]))
        assert is_psd(a, psd_tol=1e-9)
        assert not is_psd(a, psd_tol=1e-15)

    def test_eigh_requires_hermitian(self):
        a = op([("A", 2)], [[0, 1], [0, 0]])
        with pytest.raises(NotHermitian):
            eigh(a)

    def test_eigh_ascending(self, rng):
        a = rand_herm(rng, [("A", 2), ("B", 2)])
        vals, vecs = eigh(a)
        assert np.all(np.diff(vals) >= -1e-12)
        recon = (vecs * vals) @ vecs.conj().T
        assert np.abs(recon - (a.data + a.data.conj().T) / 2).max() < 1e-10


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
            sym, defect = hermitian_part(a)
            assert sym.dtype == dtype and sym.flags.c_contiguous
            assert np.array_equal(sym, (a.data + a.data.conj().T) / 2)
            assert np.isclose(defect, np.abs(a.data - a.data.conj().T).max(), rtol=1e-12, atol=0)

    def test_only_float64_stays_real(self, rng):
        g = rng.normal(size=(6, 6))
        assert LabeledOperator(self.FACTORS, g).data.dtype == np.float64
        for data in (g.astype(np.float32), g.astype(int), g.astype(complex)):
            assert LabeledOperator(self.FACTORS, data).data.dtype == np.complex128

    @pytest.mark.parametrize("where", sorted(NON_FINITE))
    def test_non_finite_entries_on_both_paths(self, where):
        a = non_finite_operator(where)
        # only a NaN imaginary part sends the operator down the complex path
        assert a.data.imag.any() == (where == "nan_imaginary")
        with pytest.raises(NonFiniteOperator):
            hermitian_part(a)

    def test_real_eigenbasis_reconstructs(self, rng):
        g = rng.normal(size=(6, 6))
        a = op(self.FACTORS, g @ g.T)
        vals, vecs = eigh(a)
        assert vecs.dtype == np.float64
        assert np.abs((vecs * vals) @ vecs.T - a.data).max() < 1e-10


ONE_BLOCK = math.isqrt(_DEFECT_BLOCK)  # a square matrix of exactly one block
# one row; exactly one block; several blocks with a partial last one
DEFECT_SIZES = [1, ONE_BLOCK, 2 * ONE_BLOCK + 44]


class TestBlockedDefect:
    def test_sizes_cover_the_block_layouts(self):
        assert ONE_BLOCK ** 2 == _DEFECT_BLOCK
        n = DEFECT_SIZES[-1]
        step = _DEFECT_BLOCK // n
        assert n // step >= 2 and n % step

    @pytest.mark.parametrize("n", DEFECT_SIZES)
    @pytest.mark.parametrize("kind", ["real", "complex", "zero_imaginary", "non_hermitian"])
    def test_equals_the_whole_matrix_maximum(self, rng, n, kind):
        g = rng.normal(size=(n, n))
        data = {"real": g + g.T,
                "complex": g + g.T + 1e-9j * rng.normal(size=(n, n)),
                "zero_imaginary": (g + g.T).astype(complex),
                "non_hermitian": g + 1j * rng.normal(size=(n, n))}[kind]
        a = LabeledOperator((("A", n),), data)
        sym, defect = hermitian_part(a)
        assert sym.dtype == (np.float64 if kind in ("real", "zero_imaginary") else np.complex128)
        compared = a.data.real if np.isrealobj(sym) else a.data
        assert defect == 2.0 * float(np.abs(compared - sym).max())
        assert np.isclose(defect, np.abs(a.data - a.data.conj().T).max(), rtol=1e-12, atol=0)

    @pytest.mark.parametrize("entry", [(-1, -1, np.nan), (-1, -1, np.inf),
                                       (-2, -1, np.nan), (-1, -2, -np.inf),
                                       (-2, -1, complex(0.0, np.nan))],
                             ids=["nan_diagonal", "inf_diagonal", "nan_off_diagonal",
                                  "minus_inf_off_diagonal", "nan_imaginary"])
    def test_non_finite_in_the_last_block_only(self, entry):
        n = DEFECT_SIZES[-1]
        row, col, value = entry
        data = np.eye(n, dtype=complex) / n
        data[row, col] = value
        # the entry and its transpose both lie in the rows of the last block
        assert n + min(row, col) >= n - n % (_DEFECT_BLOCK // n)
        a = LabeledOperator((("A", n),), data)
        with np.errstate(invalid="ignore"):
            assert not math.isfinite(np.abs(a.data - a.data.conj().T).max())
        with pytest.raises(NonFiniteOperator):
            hermitian_part(a)
        reg = SystemRegistry.of(A=n)
        with pytest.raises(NonFiniteOperator):
            is_deterministic(a, parse_type("A", reg), reg)


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

    def test_data_immutable(self):
        a = identity([("A", 2)])
        with pytest.raises(ValueError):
            a.data[0, 0] = 5

    def test_merge_factors(self, rng):
        a = rand_op(rng, [("A", 2), ("B", 3), ("C", 2)])
        m = merge_factors(a, ("A", "B"), "AB")
        assert m.factors == (("AB", 6), ("C", 2))
        assert np.array_equal(m.data, a.data)
        with pytest.raises(BadPermutation):
            merge_factors(a, ("A", "C"), "AC")
        with pytest.raises(BadPermutation, match="no factors to merge"):
            merge_factors(identity([("A", 2)]), (), "X")

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
