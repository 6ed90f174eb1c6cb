import numpy as np
import pytest

from sadmm.datasets import (
    make_classification,
    parse_libsvm,
    train_test_split,
    write_libsvm,
)
from sadmm.errors import DataFormatError, DimensionError


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


class TestMakeClassification:
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
        data = make_classification(50, 10, seed=6, scale=1.0)
        assert data.norms_sq.max() == pytest.approx(4.0)
