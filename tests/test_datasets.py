import tracemalloc

import numpy as np
import pytest
import scipy.sparse

from sadmm.datasets import (
    _ROW_BLOCK,
    make_classification,
    parse_libsvm,
    train_test_split,
    write_libsvm,
)
from sadmm.errors import DataFormatError, DimensionError
from sadmm.linalg import SparseMatrixCSR


def dense_make_classification(
    n,
    dim,
    seed=0,
    density=0.4,
    n_correlated_pairs=None,
    duplicate_pairs=0,
    label_noise=0.05,
    heavy_row_fraction=0.0,
    heavy_row_factor=10.0,
):
    """Transcription of make_classification on whole dense arrays, with
    scipy's dense-to-CSR conversion."""
    if n_correlated_pairs is None:
        n_correlated_pairs = min(5, dim // 4)
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, dim))
    mask = rng.random((n, dim)) < density
    X = X * mask
    col = 0
    for _ in range(n_correlated_pairs):
        base = X[:, col].copy()
        X[:, col + 1] = 0.97 * base + 0.03 * rng.standard_normal(n)
        col += 2
    for _ in range(duplicate_pairs):
        X[:, col + 1] = X[:, col]
        col += 2
    if heavy_row_fraction > 0.0:
        heavy = rng.random(n) < heavy_row_fraction
        X[heavy] *= heavy_row_factor
    row_norms = np.linalg.norm(X, axis=1)
    X *= 2.0 / max(row_norms.max(), 1e-12)
    w = rng.standard_normal(dim) / np.sqrt(dim)
    margins = X @ w + 0.1 * rng.standard_normal(n)
    labels = np.where(margins >= 0, 1.0, -1.0)
    flip = rng.random(n) < label_noise
    labels[flip] *= -1.0
    return SparseMatrixCSR.from_scipy(scipy.sparse.csr_matrix(X)), labels


class TestParseLibsvm:
    def test_basic_line(self, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text("+1 1:0.5 3:2\n")
        data = parse_libsvm(path)
        assert data.n == 1
        assert data.dim == 3
        assert np.array_equal(data.labels, [1.0])
        assert np.array_equal(data.features.row_offsets, [0, 2])
        assert np.array_equal(data.features.col_indices, [0, 2])
        assert np.allclose(data.features.values, [0.5, 2.0])

    def test_zero_one_labels_normalized(self, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text("0 2:1\n1 1:1\n")
        data = parse_libsvm(path)
        assert data.labels[0] == -1.0
        assert data.labels[1] == 1.0

    def test_dim_override(self, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text("+1 1:1\n")
        assert parse_libsvm(path, dim=10).dim == 10

    def test_index_beyond_dim_rejected(self, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text("+1 1:1\n-1 2:1 4:1\n")
        with pytest.raises(DimensionError, match="index 3 exceeds dim 3"):
            parse_libsvm(path, dim=3)

    def test_malformed_token_reports_line(self, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text("+1 1:0.5\n-1 oops\n")
        with pytest.raises(DataFormatError, match=":2:"):
            parse_libsvm(path)

    def test_bad_label_reports_line(self, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text("3 1:0.5\n")
        with pytest.raises(DataFormatError, match=":1:"):
            parse_libsvm(path)
        path.write_text("+1 1:0.5\nyes 1:0.5\n")
        with pytest.raises(DataFormatError, match=":2: bad label 'yes'"):
            parse_libsvm(path)

    def test_index_below_one_reports_line(self, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text("+1 1:0.5\n-1 0:1.0\n")
        with pytest.raises(DataFormatError, match=":2: feature index 0 must be >= 1"):
            parse_libsvm(path)

    def test_explicit_zeros_dropped(self, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text("+1 1:0.5 2:0\n-1 1:0.0 3:-0.0\n")
        data = parse_libsvm(path)
        assert data.dim == 3
        assert np.array_equal(data.features.row_offsets, [0, 1, 1])
        assert np.array_equal(data.features.col_indices, [0])
        assert np.array_equal(data.features.values, [0.5])

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_value_reports_line(self, tmp_path, value):
        path = tmp_path / "d.txt"
        path.write_text(f"+1 1:0.5\n-1 1:{value}\n")
        with pytest.raises(DataFormatError, match=":2:.*not finite"):
            parse_libsvm(path)

    def test_nonincreasing_indices_rejected(self, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text("+1 2:1 2:2\n")
        with pytest.raises(DataFormatError):
            parse_libsvm(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text("\n\n")
        with pytest.raises(DataFormatError, match="empty"):
            parse_libsvm(path)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text("+1 1:1\n\n-1 2:1\n")
        assert parse_libsvm(path).n == 2


def test_round_trip(tmp_path):
    data = make_classification(30, 8, seed=3)
    path = tmp_path / "rt.txt"
    write_libsvm(path, data)
    back = parse_libsvm(path, dim=data.dim)
    assert back.n == data.n
    assert np.array_equal(back.labels, data.labels)
    assert np.array_equal(back.features.row_offsets, data.features.row_offsets)
    assert np.array_equal(back.features.col_indices, data.features.col_indices)
    assert np.array_equal(back.features.values, data.features.values)


class TestSplit:
    def test_sizes(self):
        data = make_classification(50, 6, seed=1)
        train, test = train_test_split(data, 0.2, seed=0)
        assert train.n == 40 and test.n == 10
        assert train.dim == test.dim == 6

    def test_deterministic(self):
        data = make_classification(50, 6, seed=1)
        t1 = train_test_split(data, 0.2, seed=7)
        t2 = train_test_split(data, 0.2, seed=7)
        assert np.array_equal(t1[0].labels, t2[0].labels)
        assert np.array_equal(t1[1].features.values, t2[1].features.values)

    def test_different_seed_differs(self):
        data = make_classification(50, 6, seed=1)
        a = train_test_split(data, 0.2, seed=1)[1]
        b = train_test_split(data, 0.2, seed=2)[1]
        assert not np.array_equal(a.labels, b.labels) or not np.array_equal(
            a.features.values, b.features.values
        )

    def test_bad_fraction(self):
        data = make_classification(10, 4, seed=0)
        with pytest.raises(ValueError):
            train_test_split(data, 0.0, seed=0)

    @pytest.mark.parametrize("fraction", [0.01, 0.99])
    def test_split_leaving_an_empty_part_refused(self, fraction):
        # 10 rows: 0.01 rounds to no test rows, 0.99 to no training rows
        data = make_classification(10, 4, seed=0)
        with pytest.raises(ValueError, match="empty part"):
            train_test_split(data, fraction, seed=0)


class TestMakeClassification:
    def test_dim_too_small_for_the_pairs_refused(self):
        # 2 correlated and 2 duplicated pairs need 8 features
        with pytest.raises(ValueError, match="dim too small"):
            make_classification(20, 7, n_correlated_pairs=2, duplicate_pairs=2)
        assert make_classification(20, 8, n_correlated_pairs=2, duplicate_pairs=2).dim == 8

    def test_shapes_and_labels(self):
        data = make_classification(100, 20, seed=5)
        assert data.n == 100 and data.dim == 20
        assert set(np.unique(data.labels)) <= {-1.0, 1.0}

    def test_deterministic(self):
        a = make_classification(40, 10, seed=9)
        b = make_classification(40, 10, seed=9)
        assert np.array_equal(a.features.values, b.features.values)

    def test_duplicate_pairs_are_exact(self):
        data = make_classification(60, 12, seed=2, n_correlated_pairs=2, duplicate_pairs=2)
        X = data.features.to_dense()
        assert np.array_equal(X[:, 4], X[:, 5])
        assert np.array_equal(X[:, 6], X[:, 7])

    def test_correlated_pairs_found_by_threshold(self):
        data = make_classification(500, 12, seed=4, n_correlated_pairs=3)
        X = data.features.to_dense()
        for c in (0, 2, 4):
            corr = np.corrcoef(X[:, c], X[:, c + 1])[0, 1]
            assert abs(corr) > 0.9

    def test_row_norm_scale(self):
        data = make_classification(50, 10, seed=6)
        assert data.norms_sq.max() == pytest.approx(4.0)

    @pytest.mark.parametrize(
        "args,kwargs",
        [
            ((100, 20), dict(seed=5)),
            ((2 * _ROW_BLOCK, 15), dict(seed=1)),
            ((2 * _ROW_BLOCK + 1, 15), dict(seed=2)),
            ((32561, 123), dict(seed=1, density=0.11)),
            ((3000, 40), dict(seed=3, density=1.0)),
            ((4500, 50), dict(seed=4, density=0.01, n_correlated_pairs=0)),
            ((5000, 24), dict(seed=8, duplicate_pairs=3, heavy_row_fraction=0.05)),
            ((700, 12), dict(seed=9, n_correlated_pairs=0)),
            ((1, 8), dict(seed=0)),
        ],
        ids=["below-block", "block-multiple", "block-multiple-plus-one", "a9a", "dense",
             "empty-rows", "duplicates-heavy", "no-pairs", "one-row"],
    )
    def test_csr_matches_dense_transcription(self, args, kwargs):
        data = make_classification(*args, **kwargs)
        features, labels = dense_make_classification(*args, **kwargs)
        for name in ("row_offsets", "col_indices", "values"):
            got, want = getattr(data.features, name), getattr(features, name)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
        assert data.labels.tobytes() == labels.tobytes()
        if kwargs.get("density") == 0.01:
            assert (np.diff(data.features.row_offsets) == 0).any()

    def test_peak_memory_is_the_draw_and_its_csr(self):
        # the dense draw is the only n x dim array; everything else is
        # bounded by three copies of the CSR output
        n, dim = 32561, 123
        tracemalloc.start()
        try:
            data = make_classification(n, dim, seed=1, density=0.11)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        csr_bytes = 16 * data.features.nnz + 8 * (n + 1)
        assert peak <= 8 * n * dim + 3 * csr_bytes, peak
