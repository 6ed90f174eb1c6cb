import math

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

from sadmm.errors import (
    ConvergenceError,
    DimensionError,
    MatrixFormatError,
    RankDeficiencyError,
)
from sadmm.harness import GraphSpec, graph_matrix
from sadmm.linalg import (
    SparseMatrixCSR,
    compute_spectral_constants,
    solve_aat,
    spmv,
    spmv_t,
)

from helpers import RANK_DEFICIENT_TALL, RANK_DEFICIENT_WIDE


def random_sparse(rows, cols, seed, density=0.5, ensure_nonzero=True):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((rows, cols))
    X[rng.random((rows, cols)) > density] = 0.0
    if ensure_nonzero and not X.any():
        X[0, 0] = 1.0
    return SparseMatrixCSR.from_dense(X)


class TestCSRInvariants:
    def test_row_offsets_length(self):
        with pytest.raises(MatrixFormatError):
            SparseMatrixCSR(2, 2, [0, 1], [0], [1.0])

    def test_decreasing_offsets(self):
        with pytest.raises(MatrixFormatError):
            SparseMatrixCSR(2, 2, [0, 2, 1], [0, 1], [1.0, 2.0])

    def test_column_out_of_range(self):
        with pytest.raises(MatrixFormatError):
            SparseMatrixCSR(1, 2, [0, 1], [2], [1.0])

    def test_columns_strictly_increasing_within_row(self):
        with pytest.raises(MatrixFormatError):
            SparseMatrixCSR(1, 3, [0, 2], [1, 1], [1.0, 2.0])
        # decreasing across a row boundary is fine
        SparseMatrixCSR(2, 3, [0, 2, 3], [0, 2, 0], [1.0, 2.0, 3.0])

    def test_no_stored_zeros(self):
        with pytest.raises(MatrixFormatError):
            SparseMatrixCSR(1, 2, [0, 2], [0, 1], [1.0, 0.0])

    def test_from_scipy_canonicalizes(self):
        coo = scipy.sparse.coo_matrix(([1.0, 2.0, 0.0], ([0, 0, 1], [1, 1, 0])), shape=(2, 2))
        A = SparseMatrixCSR.from_scipy(coo)
        assert A.nnz == 1  # duplicates summed, explicit zero dropped
        assert A.to_dense()[0, 1] == 3.0


class TestSpmv:
    def test_identity(self):
        A = SparseMatrixCSR.identity(2)
        assert np.allclose(spmv(A, [3.0, -1.0]), [3.0, -1.0])

    def test_hand_multiplication(self):
        A = SparseMatrixCSR.from_dense([[1.0, 2.0], [0.0, 3.0]])
        assert np.allclose(spmv(A, [1.0, 1.0]), [3.0, 3.0])
        assert np.allclose(spmv_t(A, [1.0, 1.0]), [1.0, 5.0])

    def test_zero_vector(self):
        A = random_sparse(4, 3, seed=0)
        assert np.all(spmv(A, np.zeros(3)) == 0.0)
        assert np.all(spmv_t(A, np.zeros(4)) == 0.0)

    def test_dimension_mismatch(self):
        A = random_sparse(4, 3, seed=1)
        with pytest.raises(DimensionError):
            spmv(A, np.zeros(4))
        with pytest.raises(DimensionError):
            spmv_t(A, np.zeros(3))

    def test_identity_transpose(self):
        A = SparseMatrixCSR.identity(3)
        y = np.array([1.0, 2.0, 3.0])
        assert np.array_equal(spmv_t(A, y), y)


def assert_equals_scipy(A, x, y):
    """spmv and spmv_t against scipy's CSR products, bit for bit."""
    Ax, Aty = spmv(A, x), spmv_t(A, y)
    assert Ax.dtype == Aty.dtype == np.float64
    assert Ax.tobytes() == (A.csr @ x).tobytes()
    assert Aty.tobytes() == (A.csr_t @ y).tobytes()


def signed_zero_vector(n, rng):
    """Normal entries with about a third each replaced by 0.0 and -0.0."""
    v = rng.standard_normal(n)
    u = rng.random(n)
    v[u < 1 / 3] = 0.0
    v[u > 2 / 3] = -0.0
    return v


class TestSpmvEqualsScipy:
    def test_empty_rows_and_columns(self):
        # rows 0, 3 and the last one and columns 2 and the last one are empty
        rng = np.random.default_rng(11)
        X = rng.standard_normal((7, 6))
        X[[0, 3, 6], :] = 0.0
        X[:, [2, 5]] = 0.0
        A = SparseMatrixCSR.from_dense(X)
        assert A.shape == (7, 6)
        for _ in range(20):
            assert_equals_scipy(A, rng.standard_normal(6), rng.standard_normal(7))

    def test_signed_zeros(self):
        # rows and columns whose products are all -0.0 must sum to +0.0, as scipy's do
        A = SparseMatrixCSR.from_dense([[-1.0, 2.0, 0.0], [0.0, -3.0, 1.0], [4.0, 0.0, -5.0]])
        assert_equals_scipy(A, np.array([0.0, -0.0, 0.0]), np.array([-0.0, 0.0, -0.0]))
        assert_equals_scipy(A, np.array([-0.0, -0.0, -0.0]), np.array([0.0, 0.0, 0.0]))
        rng = np.random.default_rng(12)
        for _ in range(50):
            assert_equals_scipy(A, signed_zero_vector(3, rng), signed_zero_vector(3, rng))

    def test_four_clique_graph(self):
        # A = [G; I] for four 10-cliques over 60 features: 180 edge rows, 240 x 60
        edges = tuple(
            (b + i, b + j, 0.95 if (i + j) % 3 else -0.9)
            for b in range(0, 40, 10)
            for i in range(10)
            for j in range(i + 1, 10)
        )
        A = graph_matrix(GraphSpec(edges), 60)
        assert A.shape == (240, 60)
        rng = np.random.default_rng(13)
        for _ in range(20):
            assert_equals_scipy(A, signed_zero_vector(60, rng), signed_zero_vector(240, rng))
            assert_equals_scipy(A, rng.standard_normal(60), rng.standard_normal(240))

    def test_no_stored_nonzero(self):
        A = SparseMatrixCSR(3, 2, [0, 0, 0, 0], [], [])
        assert_equals_scipy(A, np.ones(2), np.ones(3))


@settings(max_examples=100, deadline=None)
@given(
    rows=st.integers(1, 30),
    cols=st.integers(1, 30),
    density=st.floats(0.0, 1.0),
    seed=st.integers(0, 10_000),
)
def test_spmv_equals_scipy_bitwise(rows, cols, density, seed):
    A = random_sparse(rows, cols, seed, density=density, ensure_nonzero=False)
    rng = np.random.default_rng(seed + 1)
    assert_equals_scipy(A, signed_zero_vector(cols, rng), signed_zero_vector(rows, rng))
    assert_equals_scipy(A, rng.standard_normal(cols), rng.standard_normal(rows))


@settings(max_examples=60, deadline=None)
@given(
    rows=st.integers(1, 8),
    cols=st.integers(1, 8),
    seed=st.integers(0, 10_000),
)
def test_adjoint_identity(rows, cols, seed):
    A = random_sparse(rows, cols, seed)
    rng = np.random.default_rng(seed + 1)
    x = rng.standard_normal(cols)
    y = rng.standard_normal(rows)
    lhs = float(spmv(A, x) @ y)
    rhs = float(x @ spmv_t(A, y))
    frob = np.linalg.norm(A.to_dense())
    bound = 1e-12 * max(np.linalg.norm(x) * np.linalg.norm(y) * frob, 1e-6)
    assert abs(lhs - rhs) <= bound


class TestSpectral:
    def test_identity_norm(self):
        assert compute_spectral_constants(SparseMatrixCSR.identity(5)).ata_norm == pytest.approx(1.0)

    def test_diag_norm(self):
        A = SparseMatrixCSR.from_dense(np.diag([3.0, 1.0]))
        assert compute_spectral_constants(A).ata_norm == pytest.approx(9.0, rel=1e-8)

    def test_zero_row_padded(self):
        A = SparseMatrixCSR.from_dense([[2.0], [0.0]])
        assert compute_spectral_constants(A).ata_norm == pytest.approx(4.0, rel=1e-8)

    def test_min_eig_identity(self):
        assert compute_spectral_constants(SparseMatrixCSR.identity(4)).aat_min_eig == pytest.approx(1.0, rel=1e-6)

    def test_min_eig_diag(self):
        A = SparseMatrixCSR.from_dense(np.diag([3.0, 1.0]))
        assert compute_spectral_constants(A).aat_min_eig == pytest.approx(1.0, rel=1e-6)

    def test_min_eig_wide(self):
        A = SparseMatrixCSR.from_dense([[1.0, 0.0, 0.0], [0.0, 2.0, 0.0]])
        assert compute_spectral_constants(A).aat_min_eig == pytest.approx(1.0, rel=1e-6)

    def test_rank_deficiency_detected(self):
        for A in (
            SparseMatrixCSR.from_dense([[1.0, 2.0], [2.0, 4.0]]),
            SparseMatrixCSR.from_dense(RANK_DEFICIENT_WIDE),
            SparseMatrixCSR.from_dense(RANK_DEFICIENT_TALL),
        ):
            with pytest.raises(RankDeficiencyError):
                compute_spectral_constants(A)

    def test_rayleigh_never_exceeds_truth(self):
        for seed in range(20):
            A = random_sparse(5, 4, seed=seed)
            dense = A.to_dense()
            eigs = np.linalg.eigvalsh(dense.T @ dense)
            if eigs.min() < 1e-8 * eigs.max():
                continue  # rank-deficient draws are covered elsewhere
            est = compute_spectral_constants(A).ata_norm
            assert est <= eigs.max() * (1 + 1e-12)

    def test_matches_dense_oracle(self):
        # smaller-side Gram eigenvalues against a dense decomposition
        for seed in range(25):
            rows = 2 + seed % 19
            cols = 2 + (seed * 7) % 19
            A = random_sparse(rows, cols, seed=seed + 100, density=0.8)
            dense = A.to_dense()
            if rows <= cols:
                gram = dense @ dense.T
            else:
                gram = dense.T @ dense
            eigs = np.linalg.eigvalsh(gram)
            if eigs.min() < 1e-8 * eigs.max():
                continue  # rank-deficient draws are covered elsewhere
            sc = compute_spectral_constants(A)
            bound = 1e-12 * eigs.max()
            assert abs(sc.ata_norm - eigs.max()) <= bound
            assert abs(sc.aat_min_eig - eigs.min()) <= bound

    def test_spectral_constants_ordering(self):
        A = random_sparse(6, 9, seed=42, density=0.9)
        sc = compute_spectral_constants(A)
        assert sc.ata_norm >= sc.aat_min_eig >= 0


class TestSolveAAT:
    def test_identity(self):
        A = SparseMatrixCSR.identity(3)
        v = np.array([1.0, -2.0, 0.5])
        assert np.allclose(solve_aat(A, v), v)

    def test_diag(self):
        A = SparseMatrixCSR.from_dense(np.diag([2.0, 1.0]))
        assert np.allclose(solve_aat(A, [4.0, 1.0]), [1.0, 1.0])

    def test_zero_rhs(self):
        A = random_sparse(4, 5, seed=5)
        assert np.all(solve_aat(A, np.zeros(4)) == 0.0)

    def test_reproduces_v_random_full_rank(self):
        for seed in range(10):
            rows = 3 + (seed * 5) % 48  # up to d = 50
            cols = rows + 2 + seed % 3  # wide, full row rank likely
            rng = np.random.default_rng(seed)
            A = SparseMatrixCSR.from_dense(rng.standard_normal((rows, cols)))
            v = rng.standard_normal(rows)
            u = solve_aat(A, v, tol=1e-12)
            dense = A.to_dense()
            assert np.linalg.norm(dense @ (dense.T @ u) - v) <= 1e-11 * np.linalg.norm(v)

    def test_nan_rhs_raises(self):
        # a NaN residual fails every comparison, so the check must be one it fails
        A = graph_matrix(GraphSpec(((0, 1, 1.0),)), 3)
        with pytest.raises(ConvergenceError):
            solve_aat(A, [1.0, math.nan, 0.0, 1.0])

    def test_tall_consistent_system(self):
        # A A^T singular for tall A, but rhs = A w is in range(A)
        rng = np.random.default_rng(7)
        A = SparseMatrixCSR.from_dense(rng.standard_normal((8, 3)))
        w = rng.standard_normal(3)
        v = spmv(A, w)
        u = solve_aat(A, v, tol=1e-12)
        dense = A.to_dense()
        assert np.linalg.norm(dense @ (dense.T @ u) - v) <= 1e-11 * np.linalg.norm(v)
