import math

import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from sadmm.datasets import make_classification, parse_libsvm, train_test_split, write_libsvm
from sadmm.errors import (
    ConvergenceError,
    DimensionError,
    MatrixFormatError,
    RankDeficiencyError,
)
from sadmm.harness import GraphSpec, build_graph_matrix, graph_matrix
from sadmm.losses import LossKind, LossObjective
from sadmm.linalg import (
    SparseMatrixCSR,
    cg,
    compute_spectral_constants,
    gram,
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

    def test_negative_dimension(self):
        with pytest.raises(MatrixFormatError, match="negative dimension"):
            SparseMatrixCSR(1, -1, [0, 0], [], [])

    def test_column_value_length_mismatch(self):
        with pytest.raises(MatrixFormatError, match="length mismatch"):
            SparseMatrixCSR(1, 2, [0, 1], [0, 1], [1.0])

    def test_decreasing_offsets(self):
        with pytest.raises(MatrixFormatError):
            SparseMatrixCSR(2, 2, [0, 2, 1], [0, 1], [1.0, 2.0])

    def test_column_out_of_range(self):
        with pytest.raises(MatrixFormatError):
            SparseMatrixCSR(1, 2, [0, 1], [2], [1.0])

    def test_columns_strictly_increasing_within_row(self):
        for rows, offsets, cols in (
            (1, [0, 2], [1, 1]),  # a repeated column
            (2, [0, 2, 4], [0, 1, 2, 2]),  # a repeated column at a row's end
            (1, [0, 3], [0, 2, 1]),  # an unsorted single row
            (4, [0, 2, 2, 4, 4], [0, 2, 2, 1]),  # an unsorted row after an empty one
        ):
            with pytest.raises(MatrixFormatError, match="strictly increasing within a row"):
                SparseMatrixCSR(rows, 3, offsets, cols, np.ones(len(cols)))
        for rows, offsets, cols in (
            (2, [0, 2, 3], [0, 2, 0]),  # a decrease across a row boundary
            (5, [0, 2, 2, 2, 3, 3], [0, 2, 1]),  # empty rows between nonempty ones
            (3, [0, 2, 2, 3], [1, 2, 0]),  # a decrease across a boundary after an empty row
        ):
            A = SparseMatrixCSR(rows, 3, offsets, cols, np.ones(len(cols)))
            assert A.to_dense().sum() == len(cols)

    def test_no_stored_zeros(self):
        with pytest.raises(MatrixFormatError):
            SparseMatrixCSR(1, 2, [0, 2], [0, 1], [1.0, 0.0])

    def test_from_scipy_canonicalizes(self):
        coo = scipy.sparse.coo_matrix(([1.0, 2.0, 0.0], ([0, 0, 1], [1, 1, 0])), shape=(2, 2))
        A = SparseMatrixCSR.from_scipy(coo)
        assert A.nnz == 1  # duplicates summed, explicit zero dropped
        assert A.to_dense()[0, 1] == 3.0
        # an unsorted row with no repeats is sorted too
        unsorted = scipy.sparse.csr_matrix(([1.0, 2.0, 3.0], [2, 0, 1], [0, 3]), shape=(1, 3))
        A = SparseMatrixCSR.from_scipy(unsorted)
        assert A.col_indices.tolist() == [0, 1, 2] and A.values.tolist() == [2.0, 3.0, 1.0]

    def test_arrays_and_eigenpairs_are_read_only(self):
        # a write into values would reach A.csr, which shares its memory, and
        # every product, but not the cached ata_eig: [[1, 2], [0, 3], [4, 0]]
        # with values[0] = 0 has ||A^T A|| = 16.0 while the cache kept 17.83,
        # and the matrix would store an explicit zero, which its constructor
        # refuses. Arrays passed in as they are (int32 indices, the type a
        # matrix this small stores) become read-only too
        offsets, cols = np.array([0, 2, 3, 4], dtype=np.int32), np.array([0, 1, 1, 0], dtype=np.int32)
        vals = np.array([1.0, 2, 3, 4])
        A = SparseMatrixCSR(3, 2, offsets, cols, vals)
        assert A.row_offsets is offsets and A.col_indices is cols and A.values is vals
        ata_norm = compute_spectral_constants(A).ata_norm
        assert ata_norm == pytest.approx(17.83, abs=5e-3)
        w, Q = A.ata_eig
        for arr in (A.row_offsets, A.col_indices, A.values, A.csr.data, w, Q):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0
        assert A.to_dense().tolist() == [[1.0, 2.0], [0.0, 3.0], [4.0, 0.0]]
        assert compute_spectral_constants(A).ata_norm == ata_norm
        assert np.array_equal(spmv(A, np.ones(2)), [3.0, 3.0, 4.0])

    def test_scipy_forms_are_read_only(self):
        # csr views the matrix's own arrays, and csr_t is a fresh transpose: a
        # write there would change the losses' full-data products, which read
        # csr and csr_t. Every array of both forms refuses it, for a penalty
        # matrix and a dataset's features, and the library's calls on them
        # still run
        A = SparseMatrixCSR.from_dense([[1.0, 2.0], [0.0, 3.0], [4.0, 0.0]])
        data = make_classification(40, 6, seed=3)
        for M in (A, data.features):
            for form in (M.csr, M.csr_t):
                for arr in (form.data, form.indices, form.indptr):
                    with pytest.raises(ValueError, match="read-only"):
                        arr[0] = arr[0]
        assert np.shares_memory(A.csr.indices, A.col_indices)
        f = LossObjective(LossKind.l2_logistic(0.1), data)
        x = np.linspace(-1.0, 1.0, data.dim)
        assert np.all(np.isfinite(f.full_grad(x))) and np.isfinite(f.value(x))
        assert np.all(np.isfinite(f.hess_vec(x, x))) and np.all(np.isfinite(f.hessian(x)))
        assert np.all(np.isfinite(f.batch_plan([np.array([0, 3])], x).grad(0, x)))
        assert np.array_equal(A.csr[[0, 2]].toarray(), [[1.0, 2.0], [4.0, 0.0]])


def assert_one_array_set(M):
    """Each of M.csr's arrays views the whole of the matrix's own, not a copy
    (by address, which also holds for an empty array, where
    np.shares_memory is False)."""
    m = M.csr
    for got, own in ((m.indptr, M.row_offsets), (m.indices, M.col_indices), (m.data, M.values)):
        assert got.dtype == own.dtype and got.shape == own.shape
        assert got.ctypes.data == own.ctypes.data
        assert got.size == 0 or np.shares_memory(got, own)


class TestOneArraySet:
    def test_every_route(self, tmp_path):
        offsets, cols, vals = [0, 2, 3, 4], [0, 1, 1, 0], [1.0, 2.0, 3.0, 4.0]
        data = make_classification(40, 6, seed=3)
        write_libsvm(tmp_path / "data.libsvm", data)
        coo = scipy.sparse.coo_matrix(([1.0, 2.0, 0.0], ([0, 0, 1], [1, 1, 0])), shape=(2, 2))
        routes = {
            "int32": SparseMatrixCSR(3, 2, np.int32(offsets), np.int32(cols), vals),
            "int64": SparseMatrixCSR(3, 2, np.int64(offsets), np.int64(cols), vals),
            "lists": SparseMatrixCSR(3, 2, offsets, cols, vals),
            "from_scipy": SparseMatrixCSR.from_scipy(coo),
            "from_dense": SparseMatrixCSR.from_dense([[1.0, 2.0], [0.0, 3.0], [4.0, 0.0]]),
            "identity": SparseMatrixCSR.identity(4),
            "graph_matrix": graph_matrix(GraphSpec(((0, 2, 0.7), (1, 2, -0.4))), 3),
            "make_classification": data.features,
            "parse_libsvm": parse_libsvm(tmp_path / "data.libsvm").features,
            "train": train_test_split(data, 0.25, seed=1)[0].features,
            "test": train_test_split(data, 0.25, seed=1)[1].features,
        }
        for name, M in routes.items():
            assert M.row_offsets.dtype == M.col_indices.dtype == np.int32, name
            assert_one_array_set(M)

    def test_index_type_is_the_one_scipy_picks(self):
        # one stored entry past int32's range needs no large array; a shape
        # with a zero side needs no wide index, whatever its other side
        for rows, cols, offsets, col_indices, int_type in (
            (1, 2**31 + 5, [0, 1], [2**31 + 4], np.int64),
            (1, 2**31, [0, 1], [2**31 - 1], np.int64),
            (1, 2**31 - 1, [0, 1], [2**31 - 2], np.int32),
            (0, 2**31 + 5, [0], [], np.int32),
        ):
            M = SparseMatrixCSR(rows, cols, offsets, col_indices, np.ones(len(col_indices)))
            assert M.row_offsets.dtype == M.col_indices.dtype == int_type
            assert_one_array_set(M)
            assert M.csr.indices.tolist() == col_indices
            wide = scipy.sparse.csr_matrix(
                (M.values, np.int64(col_indices), np.int64(offsets)), shape=(rows, cols)
            )
            assert wide.indices.dtype == wide.indptr.dtype == int_type

    def test_an_index_past_int32_is_refused_not_wrapped(self):
        # 2**32 + 1 narrowed to int32 reads 1, which the checks would pass
        with pytest.raises(MatrixFormatError, match="column index out of range"):
            SparseMatrixCSR(1, 3, [0, 1], np.int64([2**32 + 1]), [1.0])
        with pytest.raises(MatrixFormatError, match="non-decreasing from 0 to nnz"):
            SparseMatrixCSR(1, 3, np.int64([0, 2**32 + 1]), [0], [1.0])


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

    def test_matrix_operand_refused(self):
        with pytest.raises(DimensionError, match=r"x must be 1-D, got shape \(2, 1\)"):
            spmv(SparseMatrixCSR.identity(2), np.ones((2, 1)))

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
        A = four_clique_matrix()
        assert A.shape == (240, 60)
        rng = np.random.default_rng(13)
        for _ in range(20):
            assert_equals_scipy(A, signed_zero_vector(60, rng), signed_zero_vector(240, rng))
            assert_equals_scipy(A, rng.standard_normal(60), rng.standard_normal(240))

    def test_no_stored_nonzero(self):
        A = SparseMatrixCSR(3, 2, [0, 0, 0, 0], [], [])
        assert_equals_scipy(A, np.ones(2), np.ones(3))


def assert_gram_equals_scipy(M):
    """gram against scipy's sparse product and dense read-out, bit for bit."""
    G = gram(M)
    assert G.shape == (M.cols, M.cols) and G.dtype == np.float64
    assert G.tobytes() == (M.csr.T @ M.csr).toarray().tobytes()


def with_int64_csr(M):
    """A copy of M whose cached scipy form holds int64 indices (scipy
    narrows the indices of a small matrix to int32, also in its CSC copy)."""
    out = SparseMatrixCSR(M.rows, M.cols, M.row_offsets, M.col_indices, M.values)
    m = M.csr.copy()
    m.indptr, m.indices = m.indptr.astype(np.int64), m.indices.astype(np.int64)
    out.__dict__["csr"] = m  # where cached_property keeps its value
    assert out.csr.indices.dtype == out.csr.indptr.dtype == np.int64
    assert out.csr.tocsc().indices.dtype == np.int32
    return out


def four_clique_matrix():
    # A = [G; I] for four 10-cliques over 60 features: 180 edge rows, 240 x 60
    edges = tuple(
        (b + i, b + j, 0.95 if (i + j) % 3 else -0.9)
        for b in range(0, 40, 10)
        for i in range(10)
        for j in range(i + 1, 10)
    )
    return graph_matrix(GraphSpec(edges), 60)


class TestGramEqualsScipy:
    def test_criterion_07_features(self):
        assert_gram_equals_scipy(make_classification(2000, 60, seed=23, label_noise=0.3).features)

    def test_a9a_density_features(self):
        assert_gram_equals_scipy(make_classification(4000, 123, seed=1, density=0.11).features)

    def test_empty_rows_and_zero_columns(self):
        rng = np.random.default_rng(14)
        X = rng.standard_normal((9, 7)) * (rng.random((9, 7)) < 0.6)
        X[[0, 4, 8]] = 0.0
        X[:, [2, 6]] = 0.0
        X[1, 0] = 1.0
        assert_gram_equals_scipy(SparseMatrixCSR.from_dense(X))

    def test_single_column(self):
        rng = np.random.default_rng(15)
        assert_gram_equals_scipy(random_sparse(40, 1, seed=15))
        assert_gram_equals_scipy(SparseMatrixCSR.from_dense(rng.standard_normal((1, 1))))

    def test_wide(self):
        for seed in range(5):
            assert_gram_equals_scipy(random_sparse(4, 11, seed=seed, density=0.7))

    def test_penalty_matrices(self):
        data = make_classification(2000, 60, seed=23, label_noise=0.3)
        for A in (four_clique_matrix(), build_graph_matrix(data, 0.9), SparseMatrixCSR.identity(5)):
            assert_gram_equals_scipy(A)
            w, Q = np.linalg.eigh((A.csr.T @ A.csr).toarray())
            assert A.ata_eig[0].tobytes() == w.tobytes()
            assert A.ata_eig[1].tobytes() == Q.tobytes()

    def test_no_stored_nonzero(self):
        assert_gram_equals_scipy(SparseMatrixCSR(3, 2, [0, 0, 0, 0], [], []))
        assert not gram(SparseMatrixCSR(3, 2, [0, 0, 0, 0], [], [])).any()

    def test_int64_indices(self):
        assert_gram_equals_scipy(with_int64_csr(random_sparse(30, 8, seed=16, density=0.4)))

    @settings(max_examples=60, deadline=None)
    @given(
        rows=st.integers(1, 25),
        cols=st.integers(1, 25),
        density=st.floats(0.0, 1.0),
        seed=st.integers(0, 10_000),
    )
    def test_random_shapes(self, rows, cols, density, seed):
        assert_gram_equals_scipy(random_sparse(rows, cols, seed, density=density, ensure_nonzero=False))


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

    def test_all_zero_matrix_refused(self):
        with pytest.raises(MatrixFormatError, match="all-zero"):
            compute_spectral_constants(SparseMatrixCSR.from_dense(np.zeros((3, 2))))

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


def scipy_cg(matvec, b, rtol, maxiter):
    """The oracle cg replaces: scipy's CG from zero, no preconditioner, atol = 0."""
    op = scipy.sparse.linalg.LinearOperator((len(b), len(b)), matvec=matvec, dtype=np.float64)
    return scipy.sparse.linalg.cg(op, b, rtol=rtol, atol=0.0, maxiter=maxiter)


def assert_cg_equals_scipy(matvec, b, rtol, maxiter):
    """cg against scipy's cg, bit for bit; returns scipy's info."""
    x, info = scipy_cg(matvec, b, rtol, maxiter)
    got = cg(matvec, b, rtol=rtol, maxiter=maxiter)
    assert got.dtype == np.float64 and got.shape == b.shape
    assert got.tobytes() == x.tobytes()
    return info


def newton_operator(data, A, beta, seed):
    """The batch x-subproblem's Newton system at a random point: the
    operator v -> H(x) v + beta A^T A v, the right-hand side -grad phi(x)
    at y = lambda = 0, and the forcing tolerance the solver gives CG."""
    f = LossObjective(LossKind.logistic(), data)
    x = np.random.default_rng(seed).standard_normal(A.cols)
    g = f.full_grad(x) + beta * spmv_t(A, spmv(A, x))
    matvec = lambda v: f.hess_vec(x, v) + beta * spmv_t(A, spmv(A, v))
    return matvec, -g, min(0.5, math.sqrt(float(np.linalg.norm(g))))


class TestCGEqualsScipy:
    def test_criterion_07_newton_operator(self):
        data = make_classification(2000, 60, seed=23, label_noise=0.3)
        A = build_graph_matrix(data, 0.9)
        for beta, seed in ((1.0, 0), (1e-3, 1), (1e-5, 2)):
            matvec, b, rtol = newton_operator(data, A, beta, seed)
            assert assert_cg_equals_scipy(matvec, b, rtol, 10 * A.cols) == 0
            assert_cg_equals_scipy(matvec, b, 1e-10, 10 * A.cols)

    def test_a9a_shaped_newton_operator(self):
        data = make_classification(4000, 123, seed=1, density=0.11)
        A = SparseMatrixCSR.identity(123)
        for beta, seed in ((1.0, 3), (1e-4, 4)):
            matvec, b, rtol = newton_operator(data, A, beta, seed)
            assert_cg_equals_scipy(matvec, b, rtol, 10 * A.cols)
            assert_cg_equals_scipy(matvec, b, 1e-10, 10 * A.cols)

    def test_diagonal_operator(self):
        # rtol = 1 takes one step: the stop test is strict, ||r|| < rtol ||b||
        rng = np.random.default_rng(17)
        w = np.logspace(0.0, 6.0, 50)
        for rtol in (0.5, 1e-3, 1e-12, 1.0):
            b = rng.standard_normal(50)
            assert assert_cg_equals_scipy(lambda v: w * v, b, rtol, 500) == 0
        assert cg(lambda v: w * v, b, rtol=1.0, maxiter=500).any()

    def test_stops_at_maxiter(self):
        rng = np.random.default_rng(18)
        w = np.logspace(0.0, 8.0, 80)
        for maxiter in (1, 2, 7):
            b = rng.standard_normal(80)
            assert assert_cg_equals_scipy(lambda v: w * v, b, 1e-14, maxiter) == maxiter

    def test_zero_right_hand_side(self):
        b = np.array([0.0, -0.0, 0.0])
        assert_cg_equals_scipy(lambda v: 2.0 * v, b, 1e-8, 30)
        assert cg(lambda v: 2.0 * v, b, rtol=1e-8, maxiter=30) is not b

    def test_solve_aat_operator(self):
        # solve_aat returns cg's iterate on A A^T, here against scipy's
        data = make_classification(2000, 60, seed=23, label_noise=0.3)
        rng = np.random.default_rng(19)
        for A in (four_clique_matrix(), build_graph_matrix(data, 0.9), random_sparse(12, 20, seed=19)):
            aat = lambda w: spmv(A, spmv_t(A, w))
            v = spmv(A, rng.standard_normal(A.cols))  # in the range of A
            x, info = scipy_cg(aat, v, 1e-12, max(20 * A.rows, 1000))
            assert info == 0
            assert solve_aat(A, v, tol=1e-12).tobytes() == x.tobytes()
            assert_cg_equals_scipy(aat, v, 1e-6, max(20 * A.rows, 1000))
