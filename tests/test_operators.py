import time

import numpy as np
import pytest

from pgmclassifier.errors import DenseBlowup, InvalidOperator, NotPositiveSemidefinite
from pgmclassifier.operators import (
    DENSE_DIM_LIMIT,
    eig_sym,
    lifted_dimension,
    pinv_sqrt,
    symmetrize,
    tensor_power,
)


class TestSymmetrize:
    def test_averages_with_transpose(self):
        a = np.array([[1.0, 2.0], [0.0, 3.0]])
        np.testing.assert_allclose(symmetrize(a), [[1.0, 1.0], [1.0, 3.0]])

    def test_symmetric_input_unchanged(self, rng):
        a = rng.normal(size=(4, 4))
        s = a + a.T
        np.testing.assert_array_equal(symmetrize(s), s)

    def test_rejects_non_square(self):
        with pytest.raises(InvalidOperator):
            symmetrize(np.zeros((2, 3)))

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidOperator):
            symmetrize(np.array([[1.0, np.nan], [0.0, 1.0]]))


class TestEigSym:
    def test_reconstructs_input(self, rng):
        a = symmetrize(rng.normal(size=(6, 6)))
        dec = eig_sym(a)
        rebuilt = (dec.eigenvectors * dec.eigenvalues) @ dec.eigenvectors.T
        assert np.abs(rebuilt - a).max() <= 1e-10

    def test_eigenvalues_ascending_vectors_orthonormal(self, rng):
        a = symmetrize(rng.normal(size=(5, 5)))
        dec = eig_sym(a)
        assert np.all(np.diff(dec.eigenvalues) >= 0)
        gram = dec.eigenvectors.T @ dec.eigenvectors
        assert np.abs(gram - np.eye(5)).max() <= 1e-12


class TestPinvSqrt:
    def test_identity(self):
        dec = pinv_sqrt(np.eye(3))
        np.testing.assert_allclose(dec.inv_sqrt, np.eye(3))
        np.testing.assert_allclose(dec.ker, np.zeros((3, 3)))

    def test_zero_matrix(self):
        dec = pinv_sqrt(np.zeros((3, 3)))
        np.testing.assert_allclose(dec.inv_sqrt, np.zeros((3, 3)))
        np.testing.assert_allclose(dec.ker, np.eye(3))

    def test_rank_deficient_random(self, rng):
        b = rng.normal(size=(6, 3))
        a = b @ b.T
        dec = pinv_sqrt(a)
        image = dec.inv_sqrt @ a @ dec.inv_sqrt
        assert np.abs(image + dec.ker - np.eye(6)).max() <= 1e-8
        assert np.abs(dec.ker @ dec.ker - dec.ker).max() <= 1e-10
        assert np.abs(a @ dec.ker).max() <= 1e-10
        assert abs(np.trace(dec.ker) - 3.0) <= 1e-8

    def test_acts_as_inverse_sqrt_on_image(self):
        dec = pinv_sqrt(np.diag([4.0, 0.0]))
        np.testing.assert_allclose(dec.inv_sqrt, np.diag([0.5, 0.0]))

    def test_rejects_indefinite(self):
        with pytest.raises(NotPositiveSemidefinite):
            pinv_sqrt(np.diag([1.0, -1.0]))


class TestTensorPower:
    def test_single_copy_is_identity(self, rng):
        v = rng.normal(size=4)
        np.testing.assert_array_equal(tensor_power(v, 1), v)

    def test_basis_vector(self):
        e0 = np.array([1.0, 0.0])
        out = tensor_power(e0, 3)
        expected = np.zeros(8)
        expected[0] = 1.0
        np.testing.assert_array_equal(out, expected)

    def test_multi_index_products(self):
        v = np.array([2.0, 3.0])
        out = tensor_power(v, 2)
        np.testing.assert_allclose(out, [4.0, 6.0, 6.0, 9.0])

    def test_unit_norm_preserved(self, rng):
        v = rng.normal(size=5)
        v /= np.linalg.norm(v)
        assert abs(np.linalg.norm(tensor_power(v, 3)) - 1.0) <= 1e-12

    def test_dense_blowup(self):
        with pytest.raises(DenseBlowup):
            tensor_power(np.ones(10), 5)
        assert 10**4 > DENSE_DIM_LIMIT

    def test_rejects_non_positive_copies(self):
        with pytest.raises(ValueError):
            tensor_power(np.ones(2), 0)

    def test_huge_copy_count_refused_at_once(self):
        start = time.perf_counter()
        with pytest.raises(DenseBlowup):
            tensor_power(np.full(5, 5**-0.5), 10**6)
        assert time.perf_counter() - start < 0.01


class TestLiftedDimension:
    @pytest.mark.parametrize(
        "dim, copies, expected",
        [
            (5, 1, 5),
            (5, 5, 3125),
            (5, 6, None),
            (2, 12, DENSE_DIM_LIMIT),
            (2, 13, None),
            (5, 442, None),
            (5, 10**6, None),
            (1, 10**6, 1),
        ],
    )
    def test_power_within_the_dense_limit_else_none(self, dim, copies, expected):
        assert lifted_dimension(dim, copies) == expected

