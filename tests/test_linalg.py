import numpy as np
import pytest
import scipy.sparse as sp

from contactnewton.errors import DimensionMismatchError, NotSPDError
from contactnewton.linalg import Factorization, SparseSym


def random_spd(dim, seed, shift=10.0):
    rng = np.random.default_rng(seed)
    L = np.tril(rng.standard_normal((dim, dim)))
    return L @ L.T + shift * np.eye(dim)


def dense_gaussian_elimination(A, b):
    """Independent oracle: plain Gaussian elimination with back substitution."""
    A = A.astype(np.float64).copy()
    b = b.astype(np.float64).copy()
    n = len(b)
    for k in range(n):
        for i in range(k + 1, n):
            f = A[i, k] / A[k, k]
            A[i, k:] -= f * A[k, k:]
            b[i] -= f * b[k]
    x = np.zeros(n)
    for i in range(n - 1, -1, -1):
        x[i] = (b[i] - A[i, i + 1 :] @ x[i + 1 :]) / A[i, i]
    return x


class TestSparseSym:
    def test_rejects_rectangular(self):
        with pytest.raises(DimensionMismatchError):
            SparseSym(np.ones((2, 3)))

    def test_rejects_asymmetric(self):
        with pytest.raises(DimensionMismatchError):
            SparseSym(np.array([[1.0, 2.0], [0.5, 1.0]]))

    def test_accepts_symmetric(self):
        A = SparseSym(random_spd(5, 0))
        assert A.dim == 5


class TestFactorizeSolve:
    def test_identity(self):
        F = Factorization(SparseSym(sp.eye(3)))
        assert np.allclose(F.solve(np.array([1.0, 2.0, 3.0])), [1.0, 2.0, 3.0])

    def test_diagonal(self):
        F = Factorization(SparseSym(sp.diags([2.0, 4.0])))
        assert np.allclose(F.solve(np.array([2.0, 8.0])), [1.0, 2.0])

    def test_zero_rhs(self):
        F = Factorization(SparseSym(sp.eye(4)))
        assert np.array_equal(F.solve(np.zeros(4)), np.zeros(4))

    def test_scalar_diag(self):
        F = Factorization(SparseSym(sp.diags([4.0])))
        assert np.allclose(F.solve(np.array([2.0])), [0.5])

    def test_residual_random_spd(self):
        A = random_spd(10, 42)
        F = Factorization(SparseSym(A))
        b = np.random.default_rng(7).standard_normal(10)
        x = F.solve(b)
        assert np.linalg.norm(A @ x - b) / np.linalg.norm(b) <= 1e-10

    def test_matches_dense_elimination_oracle(self):
        A = random_spd(6, 3)
        b = np.random.default_rng(11).standard_normal(6)
        x = Factorization(SparseSym(A)).solve(b)
        assert np.linalg.norm(x - dense_gaussian_elimination(A, b)) <= 1e-10

    def test_not_spd_detected(self):
        A = random_spd(6, 5)
        A[2, 2] = -50.0
        with pytest.raises(NotSPDError):
            Factorization(SparseSym(A))

    def test_singular_detected(self):
        A = np.zeros((3, 3))
        A[0, 0] = 1.0
        with pytest.raises(NotSPDError):
            Factorization(SparseSym(A))

    def test_dimension_mismatch(self):
        F = Factorization(SparseSym(sp.eye(3)))
        with pytest.raises(DimensionMismatchError):
            F.solve(np.zeros(4))

    def test_deterministic_bit_identical(self):
        A = random_spd(20, 9)
        b = np.random.default_rng(1).standard_normal(20)
        x1 = Factorization(SparseSym(A)).solve(b)
        x2 = Factorization(SparseSym(A)).solve(b)
        assert np.array_equal(x1, x2)

    def test_solve_count(self):
        F = Factorization(SparseSym(sp.eye(3)))
        assert F.solve_count == 0
        F.solve(np.zeros(3))
        F.solve_multi(np.zeros((3, 4)))
        assert F.solve_count == 5


class TestSolveMulti:
    def test_identity_rhs_gives_inverse(self):
        A = random_spd(6, 21)
        F = Factorization(SparseSym(A))
        X = F.solve_multi(np.eye(6))
        for j in range(6):
            assert np.array_equal(X[:, j], Factorization(SparseSym(A)).solve(np.eye(6)[:, j]))
        assert np.allclose(A @ X, np.eye(6), atol=1e-10)

    def test_duplicate_columns(self):
        F = Factorization(SparseSym(random_spd(5, 2)))
        b = np.random.default_rng(3).standard_normal(5)
        X = F.solve_multi(np.column_stack([b, b]))
        assert np.array_equal(X[:, 0], X[:, 1])

    def test_columnwise_matches_solve(self):
        A = random_spd(10, 17)
        F = Factorization(SparseSym(A))
        B = np.random.default_rng(5).standard_normal((10, 3))
        X = F.solve_multi(B)
        for j in range(3):
            assert np.linalg.norm(X[:, j] - F.solve(B[:, j])) <= 1e-12

    def test_shape_check(self):
        F = Factorization(SparseSym(sp.eye(4)))
        with pytest.raises(DimensionMismatchError):
            F.solve_multi(np.zeros((3, 2)))

    def test_residual_property_many_dims(self):
        # ||A F.solve_multi(B) - B||_inf <= 1e-9 ||B||_inf over seeded SPD systems
        for dim in (2, 7, 23, 50):
            A = random_spd(dim, dim)
            F = Factorization(SparseSym(A))
            B = np.random.default_rng(dim + 1).standard_normal((dim, 4))
            X = F.solve_multi(B)
            assert np.abs(A @ X - B).max() <= 1e-9 * np.abs(B).max()



class TestInverseBlock:
    def test_matches_dense_inverse(self):
        A = random_spd(15, 41)
        F = Factorization(SparseSym(A))
        inv = np.linalg.inv(A)
        for dofs in ([3, 0, 11], [14, 3, 7, 0, 9]):
            block = F.inverse_block(dofs)
            oracle = inv[np.ix_(dofs, dofs)]
            assert np.abs(block - oracle).max() <= 1e-12 * np.abs(oracle).max()

    def test_solves_only_new_columns(self):
        F = Factorization(SparseSym(random_spd(12, 5)))
        F.inverse_block([4, 1, 9])
        assert F.solve_count == 3
        first = F.inverse_block([4, 1, 9])
        assert F.solve_count == 3  # a repeated call solves nothing
        block = F.inverse_block([9, 2, 4, 7, 1])
        assert F.solve_count == 5  # only 2 and 7 were new
        assert np.array_equal(block[np.ix_([2, 4, 0], [2, 4, 0])], first)

    def test_rejects_bad_dofs(self):
        F = Factorization(SparseSym(sp.eye(4)))
        for dofs in ([0, 4], [-1], [[0, 1]]):
            with pytest.raises(DimensionMismatchError):
                F.inverse_block(dofs)
        assert F.solve_count == 0
