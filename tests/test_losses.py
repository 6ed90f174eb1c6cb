import math
import tracemalloc
import warnings

import numpy as np
import pytest

import sadmm.losses
from sadmm.datasets import make_classification
from sadmm.errors import DataFormatError, DimensionError
from sadmm.linalg import SparseMatrixCSR
from sadmm.losses import (
    LOGISTIC,
    Dataset,
    LossKind,
    LossObjective,
    _d2loss_of_margin,
    _dloss_of_margin,
    _loss_of_margin,
    _margins,
)
from sadmm.problem import ProblemSpec
from sadmm.prox import Regularizer
from sadmm.solvers import RateParams

from helpers import ALL_KINDS, dataset_from_rows, tiny_dataset


class TestTypes:
    def test_norms_cached(self):
        data = dataset_from_rows([{0: 3.0, 2: 4.0}], [1], dim=3)
        assert data.norms_sq[0] == pytest.approx(25.0)

    def test_label_count_must_match_the_rows(self):
        features = SparseMatrixCSR.identity(3)
        with pytest.raises(DimensionError, match="labels length"):
            Dataset(features, [1.0, -1.0])

    def test_labels_are_read_only(self):
        # the loss memo is keyed on x alone: a write into the labels would
        # leave its values stale
        data = Dataset(SparseMatrixCSR.identity(3), np.array([1.0, -1.0, 1.0]))
        f = LossObjective(LossKind.logistic(), data)
        x = np.array([0.5, -1.0, 2.0])
        value = f.value(x)
        with pytest.raises(ValueError, match="read-only"):
            data.labels[0] = -1.0
        assert f.value(x) == value == LossObjective(LossKind.logistic(), data).value(x)

    def test_labels_must_be_plus_or_minus_one(self):
        features = SparseMatrixCSR.identity(3)
        for bad in (0.0, 2.0, np.nan):
            with pytest.raises(DataFormatError, match="labels must be"):
                Dataset(features, [1.0, bad, -1.0])

    def test_problem_refuses_a_penalty_of_another_width(self):
        f = LossObjective(LossKind.logistic(), tiny_dataset(n=5, dim=4, seed=0))
        with pytest.raises(ValueError, match="A has 3 columns but the smooth objective dimension is 4"):
            ProblemSpec(f, Regularizer(0.1), SparseMatrixCSR.identity(3))

    def test_kind_validation(self):
        with pytest.raises(ValueError):
            LossKind("nope")
        with pytest.raises(ValueError):
            LossKind.l2_logistic(-1.0)
        with pytest.raises(ValueError):
            LossKind.huberized_hinge(0.0, 0.0)
        # above the cap the clipped square (2w)^2 of the linear piece overflows
        with pytest.raises(ValueError, match="below 1e150"):
            LossKind.huberized_hinge(0.0, 1e150)


class TestLossValue:
    def test_logistic_at_zero(self):
        data = tiny_dataset(n=7, dim=5, seed=2)
        assert LossObjective(LossKind.logistic(), data).value(np.zeros(5)) == pytest.approx(math.log(2))

    def test_l2_logistic_at_zero(self):
        data = tiny_dataset(n=7, dim=5, seed=2)
        val = LossObjective(LossKind.l2_logistic(0.01), data).value(np.zeros(5))
        assert val == pytest.approx(math.log(2))

    def test_logistic_single_sample_hand_value(self):
        # one sample a=(1), b=+1, x=(-ln 3): margin -ln 3, loss = log(1+3) = ln 4
        data = dataset_from_rows([{0: 1.0}], [1], dim=1)
        val = LossObjective(LossKind.logistic(), data).value(np.array([-math.log(3.0)]))
        assert val == pytest.approx(math.log(4.0), rel=1e-12)

    def test_logistic_overflow_safe(self):
        f = LossObjective(LossKind.logistic(), dataset_from_rows([{0: 1.0}], [1], dim=1))
        assert f.value(np.array([-1000.0])) == pytest.approx(1000.0, rel=1e-9)
        assert f.value(np.array([1000.0])) == pytest.approx(0.0, abs=1e-12)

    def test_dimension_mismatch(self):
        data = tiny_dataset(n=3, dim=4)
        with pytest.raises(DimensionError):
            LossObjective(LossKind.logistic(), data).value(np.zeros(5))

    def test_huber_regions(self):
        w = 0.5
        f = LossObjective(LossKind.huberized_hinge(0.0, w), dataset_from_rows([{0: 1.0}], [1], dim=1))
        # flat above margin 1
        assert f.value(np.array([2.0])) == 0.0
        # linear region below 1 - 2w: value 1 - t - w
        assert f.value(np.array([-1.0])) == pytest.approx(1.0 + 1.0 - w)
        # quadratic region: t = 0.5, value (1-t)^2/(4w)
        assert f.value(np.array([0.5])) == pytest.approx(0.25 / (4 * w))


def masked_huber_pieces(t, w):
    """The huberized hinge's value and two derivatives at the margins t,
    each written into zeros through the masks of its two breakpoints."""
    quad, lin = (t < 1.0) & (t >= 1.0 - 2.0 * w), t < 1.0 - 2.0 * w
    value, d1, d2 = np.zeros_like(t), np.zeros_like(t), np.zeros_like(t)
    value[quad] = (1.0 - t[quad]) ** 2 / (4.0 * w)
    value[lin] = 1.0 - t[lin] - w
    d1[quad] = -(1.0 - t[quad]) / (2.0 * w)
    d1[lin] = -1.0
    d2[quad] = 1.0 / (2.0 * w)
    return value, d1, d2


@pytest.mark.parametrize("w", [1e-3, 0.01, 0.1, 0.25, 0.5, 1.0, 2.0, 9.9e149])
def test_huber_pieces_equal_the_masked_transcription_bitwise(w):
    # both breakpoints and their neighbours, signed zeros, infinities, NaN
    # and margins whose square overflows; no piece may warn
    kind = LossKind.huberized_hinge(0.0, w)
    edges = np.array([1.0 - 2.0 * w, 1.0])
    t = np.concatenate([
        np.random.default_rng(11).normal(1.0 - w, 4.0 * w + 1.0, size=100_000),
        edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf),
        [0.0, -0.0, np.inf, -np.inf, np.nan, 1e300, -1e300],
    ])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = [piece(kind, t) for piece in (_loss_of_margin, _dloss_of_margin, _d2loss_of_margin)]
    for g, want in zip(got, masked_huber_pieces(t, w)):
        assert g.dtype == np.float64 and g.tobytes() == want.tobytes()


LOGISTIC_KINDS = [k for k in ALL_KINDS if k.kind == LOGISTIC]


@pytest.mark.parametrize("kind", LOGISTIC_KINDS, ids=lambda k: f"l2={k.lambda2}")
def test_logistic_memo_pieces_equal_two_logaddexp_passes_bitwise(kind, monkeypatch):
    # the memo forms the losses and their derivatives from one tail
    # log1p(e^-|t|); both must equal the two logaddexp passes byte for byte,
    # at margins of every scale and at signed zeros, subnormals, the
    # overflow and underflow edges of exp and infinities. A NaN margin gives
    # NaN; its sign bit follows numpy's loop for the last elements
    rng = np.random.default_rng(12)
    scales = 10.0 ** rng.uniform(-300.0, 10.0, size=100_000)
    edges = np.array([0.0, 5e-324, 709.8, 745.2, 1e308, np.inf])
    t = np.concatenate([
        np.where(rng.random(100_000) < 0.5, -scales, scales),
        40.0 * rng.standard_normal(20_000), edges, -edges, [np.nan],
    ])
    averaged = []

    class NumpyRecordingMeans:
        # sadmm.losses' numpy, whose mean records the losses it averages
        def __getattr__(self, name):
            return getattr(np, name)

        def mean(self, a):
            averaged.append(a)
            return np.mean(a)

    monkeypatch.setattr(sadmm.losses, "np", NumpyRecordingMeans())
    # so that _at(t) holds the memo of the margins t
    monkeypatch.setattr(sadmm.losses, "_margins", lambda data, x: x.copy())
    memo = LossObjective(kind, tiny_dataset(n=3, dim=2, seed=0))._at(t)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # logaddexp warns on the NaN
        dloss = memo.dloss  # forms the mean loss in the same pass
        want_dloss, want_loss = -np.exp(-np.logaddexp(0.0, t)), np.logaddexp(0.0, -t)
        assert want_dloss.tobytes() == _dloss_of_margin(kind, t).tobytes()
        assert want_loss.tobytes() == _loss_of_margin(kind, t).tobytes()
    assert len(averaged) == 1 and np.isnan(memo.mean_loss)
    nan = np.isnan(t)
    for got, want in ((dloss, want_dloss), (averaged[0], want_loss)):
        assert got.dtype == np.float64 and got[~nan].tobytes() == want[~nan].tobytes()
        assert np.array_equal(np.isnan(got), nan)


class TestGradients:
    def test_logistic_grad_at_zero(self):
        data = dataset_from_rows([{0: 2.0, 1: -1.0}], [1], dim=2)
        g = LossObjective(LossKind.logistic(), data).subset_grad(np.zeros(2), [0])
        assert np.allclose(g, [-1.0, 0.5])  # -(b/2) a

    def test_huber_flat_region_gradient(self):
        kind = LossKind.huberized_hinge(0.3, 0.5)
        data = dataset_from_rows([{0: 1.0}], [1], dim=1)
        x = np.array([1.0 + 0.5])  # margin beyond the flat threshold
        g = LossObjective(kind, data).subset_grad(x, [0])
        assert np.allclose(g, 0.3 * x)

    def test_ridge_only_for_zero_features(self):
        data = dataset_from_rows([{1: 1.0}, {}], [1, -1], dim=2)
        kind = LossKind.l2_logistic(0.05)
        x = np.array([1.0, 0.0])
        g = LossObjective(kind, data).subset_grad(x, [1])
        assert np.allclose(g, 0.05 * x)

    def test_full_grad_is_mean_of_per_sample(self):
        data = tiny_dataset(n=6, dim=4, seed=3)
        x = np.random.default_rng(0).standard_normal(4)
        for kind in ALL_KINDS:
            f = LossObjective(kind, data)
            mean = np.mean([f.subset_grad(x, [i]) for i in range(6)], axis=0)
            assert np.allclose(mean, f.full_grad(x), atol=1e-14)

    def test_full_grad_single_sample(self):
        data = tiny_dataset(n=1, dim=4, seed=4)
        x = np.random.default_rng(1).standard_normal(4)
        for kind in ALL_KINDS:
            f = LossObjective(kind, data)
            assert np.allclose(f.full_grad(x), f.subset_grad(x, [0]))

    def test_symmetric_zero(self):
        # identical features with balanced labels: sum b_i a_i = 0 at x = 0
        data = dataset_from_rows([{0: 1.0, 1: 2.0}, {0: 1.0, 1: 2.0}], [1, -1], dim=2)
        g = LossObjective(LossKind.l2_logistic(0.3), data).full_grad(np.zeros(2))
        assert np.allclose(g, 0.0)

    def test_index_out_of_range(self):
        data = tiny_dataset(n=3, dim=2)
        with pytest.raises(IndexError):
            LossObjective(LossKind.logistic(), data).subset_grad(np.zeros(2), [3])
        with pytest.raises(IndexError):
            # a single negative index must not wrap to the last row
            LossObjective(LossKind.logistic(), data).subset_grad(np.zeros(2), [-1])


@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: f"{k.kind}-l2={k.lambda2}")
def test_subset_grad_matches_dense_transcription(kind):
    # the CSR kernel against X[idx] products on the dense matrix; row 5 is
    # all zero and is in every batch, and the batches repeat rows
    rng = np.random.default_rng(19)
    n, dim = 40, 7
    X = rng.standard_normal((n, dim)) * (rng.random((n, dim)) < 0.5)
    X[5] = 0.0
    data = Dataset(SparseMatrixCSR.from_dense(X), rng.choice([-1.0, 1.0], size=n))
    X = data.features.to_dense()
    f = LossObjective(kind, data)
    for b in (1, 2, 32, 33, n):
        idx = rng.permutation(n) if b == n else rng.integers(0, n, size=b)
        idx[0] = 5
        x = 2.0 * rng.standard_normal(dim)
        t = data.labels[idx] * (X[idx] @ x)
        coef = _dloss_of_margin(kind, t) * data.labels[idx] / b
        expected = X[idx].T @ coef + kind.lambda2 * x
        got = f.subset_grad(x, idx)
        np.testing.assert_allclose(got, expected, rtol=0.0, atol=1e-14)
    with pytest.raises(ValueError):
        f.subset_grad(x, [])
    for bad in (-1, n):
        with pytest.raises(IndexError):
            f.subset_grad(x, [0, bad])


def batch_kernel_grad(f, x, idx, x_ref=None):
    # the mini-batch gradient written out straight, one row slice at a
    # time: the oracle that subset_grad and every plan.grad must equal bit
    # for bit. With x_ref, the difference form, whose derivatives at x_ref
    # come from the batch's own margins (a plan reads them from the memo)
    kind, data = f.kind, f.data
    off, col_indices, values = data.features.row_offsets, data.features.col_indices, data.features.values
    b = len(idx)
    labels = data.labels[idx]
    row = np.concatenate([np.full(off[i + 1] - off[i], r, dtype=np.int64) for r, i in enumerate(idx)])
    pos = np.concatenate([np.arange(off[i], off[i + 1]) for i in idx])
    cols, vals = col_indices[pos], values[pos]

    def dloss_at(point):
        return _dloss_of_margin(kind, labels * np.bincount(row, weights=vals * point[cols], minlength=b))

    coef = dloss_at(x)
    if x_ref is not None:
        coef = coef - dloss_at(x_ref)
    g = np.bincount(cols, weights=(coef * labels / b)[row] * vals, minlength=data.dim).astype(np.float64)
    if kind.lambda2 > 0:
        g = g + kind.lambda2 * (x if x_ref is None else x - x_ref)
    return g


@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: f"{k.kind}-l2={k.lambda2}")
def test_one_row_gradient_equals_batch_kernel_bitwise(kind):
    # every row, empty rows 0 and 57 included; at the largest scale hinge
    # margins pass 1, so the flat region's -0.0 products occur
    rng = np.random.default_rng(31)
    n, dim = 120, 40
    X = rng.standard_normal((n, dim)) * (rng.random((n, dim)) < 0.5)
    X[[0, 57]] = 0.0
    data = Dataset(SparseMatrixCSR.from_dense(X), rng.choice([-1.0, 1.0], size=n))
    f = LossObjective(kind, data)
    for scale in (0.01, 1.0, 10.0):
        x = scale * rng.standard_normal(dim)
        for i in range(n):
            got = f.subset_grad(x, np.array([i]))
            assert got.tobytes() == batch_kernel_grad(f, x, [i]).tobytes(), (scale, i)
    if kind.kind != LOGISTIC:
        assert np.any(f.margins(x) > 1.0)


@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: f"{k.kind}-l2={k.lambda2}")
def test_batch_plan_difference_matches_gradient_differences(kind):
    # a one-batch plan at a reference point against two subset_grad calls and
    # against X[idx] products on the dense matrix; row 5 is all zero and in
    # every batch
    rng = np.random.default_rng(23)
    n, dim = 40, 7
    X = rng.standard_normal((n, dim)) * (rng.random((n, dim)) < 0.5)
    X[5] = 0.0
    data = Dataset(SparseMatrixCSR.from_dense(X), rng.choice([-1.0, 1.0], size=n))
    X = data.features.to_dense()
    f = LossObjective(kind, data)
    for b in (1, 2, 32, 33, n):
        idx = rng.permutation(n) if b == n else rng.integers(0, n, size=b)
        idx[0] = 5
        x, x_ref = 2.0 * rng.standard_normal(dim), 2.0 * rng.standard_normal(dim)
        got = f.batch_plan([idx], x_ref).grad(0, x)
        np.testing.assert_allclose(
            got, f.subset_grad(x, idx) - f.subset_grad(x_ref, idx), rtol=0.0, atol=1e-15
        )
        labels = data.labels[idx]
        coef = (
            _dloss_of_margin(kind, labels * (X[idx] @ x))
            - _dloss_of_margin(kind, labels * (X[idx] @ x_ref))
        ) * labels / b
        expected = X[idx].T @ coef + kind.lambda2 * (x - x_ref)
        np.testing.assert_allclose(got, expected, rtol=0.0, atol=1e-14)
    with pytest.raises(ValueError):
        f.batch_plan([[]], x_ref)
    for bad in (-1, n):
        with pytest.raises(IndexError, match="sample index out of range"):
            f.batch_plan([[0, bad]], x_ref)
    with pytest.raises(DimensionError):
        f.batch_plan([[0, 1]], x_ref[:-1])


@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: f"{k.kind}-l2={k.lambda2}")
def test_batch_plan_equals_batch_kernel_bitwise(kind):
    # one plan over batches of sizes 1, 20 and n, sorted and not, with the
    # empty rows 0 and 57 alone, together and inside larger batches; at the
    # largest scale hinge margins pass 1, so the flat region's -0.0
    # products occur
    rng = np.random.default_rng(37)
    n, dim = 120, 40
    X = rng.standard_normal((n, dim)) * (rng.random((n, dim)) < 0.5)
    X[[0, 57]] = 0.0
    data = Dataset(SparseMatrixCSR.from_dense(X), rng.choice([-1.0, 1.0], size=n))
    f = LossObjective(kind, data)
    batches = [
        np.array([3]),
        np.sort(rng.choice(n, size=20, replace=False)),
        np.array([0]),
        np.arange(n),
        rng.integers(0, n, size=20),
        np.array([0, 57]),
        np.array([57, 119]),
        np.array([n - 1]),
    ]
    for scale in (0.01, 1.0, 10.0):
        x, x_ref = scale * rng.standard_normal((2, dim))
        for ref in (None, x_ref):
            plan = f.batch_plan(batches, ref)
            for k, idx in enumerate(batches):
                got = plan.grad(k, x)
                assert got.dtype == np.float64
                assert got.tobytes() == batch_kernel_grad(f, x, idx, ref).tobytes(), (scale, k)
    if kind.kind != LOGISTIC:
        assert np.any(f.margins(x) > 1.0)


def test_batch_plan_checks_every_index_first():
    data = tiny_dataset(n=5, dim=3)
    f = LossObjective(LossKind.logistic(), data)
    for batches in ([[0, 1], [2, 5]], [[4], [-1]]):
        with pytest.raises(IndexError, match="sample index out of range"):
            f.batch_plan(batches, np.ones(3))
    for batches in ([], [[0], []]):
        with pytest.raises(ValueError, match="empty index subset"):
            f.batch_plan(batches)


def test_batch_plan_takes_a_batch_per_row():
    # a 2-D array, as BatchSampler.draw(epoch, ks) returns it, gives the
    # plan of its list of rows
    f = LossObjective(LossKind.huberized_hinge(0.01), tiny_dataset(n=30, dim=5, seed=4))
    rng = np.random.default_rng(6)
    x, x_ref = rng.standard_normal((2, 5))
    for shape in ((7, 3), (1, 30), (9, 1)):
        rows = rng.integers(30, size=shape)
        for ref in (None, x_ref):
            plan, oracle = f.batch_plan(rows, ref), f.batch_plan(list(rows), ref)
            for k in range(shape[0]):
                assert plan.grad(k, x).tobytes() == oracle.grad(k, x).tobytes()
    for rows in (np.zeros((0, 3), dtype=np.int64), np.zeros((4, 0), dtype=np.int64)):
        with pytest.raises(ValueError, match="empty index subset"):
            f.batch_plan(rows)


def test_batch_plan_refuses_non_integer_indices():
    # float indices used to be truncated (1.9 read row 1) and a bool batch
    # read as rows 0 and 1
    f = LossObjective(LossKind.logistic(), tiny_dataset(n=5, dim=3))
    for batches, dtype in (
        ([np.array([1.9])], "float64"),
        ([[0, 1], [2.5]], "float64"),
        ([[0, 1.5]], "float64"),
        ([np.array([True, False])], "bool"),
        (np.array([[0.0, 1.0], [2.0, 3.0]]), "float64"),
    ):
        for ref in (None, np.ones(3)):
            with pytest.raises(TypeError, match=dtype):
                f.batch_plan(batches, ref)
    for idx in ([0.2, 1.7], [True, False]):
        with pytest.raises(TypeError):
            f.subset_grad(np.ones(3), idx)


def test_plan_grad_checks_the_shape_of_x_first():
    # the compiled loops read x without bounds checks, so a short x must not
    # reach them and a long one must not pass silently. Batch 0 leaves the
    # last column empty: a short x misses no column it reads
    data = dataset_from_rows([{0: 1.0, 1: 2.0}, {1: -1.0}, {0: 0.5, 2: 3.0}], [1, -1, 1], dim=3)
    f = LossObjective(LossKind.logistic(), data)
    for ref in (None, np.ones(3)):
        plan = f.batch_plan([[0, 1], [2]], ref)
        for k in (0, 1):
            for x in (np.ones(2), np.ones(4), np.ones((1, 3))):
                with pytest.raises(DimensionError):
                    plan.grad(k, x)
            assert plan.grad(k, np.ones(3)).shape == (3,)


def test_plan_memory_is_its_gathered_csr():
    # a plan keeps scipy's gathered CSR as it comes (8-byte values, 4-byte
    # column indices) and a few numbers per gathered row; with the memo
    # already filled, building it allocates nothing more per nonzero
    data = make_classification(4000, 100, seed=3, density=0.11)
    f = LossObjective(LossKind.logistic(), data)
    rng = np.random.default_rng(8)
    batches = rng.integers(0, data.n, size=(300, 20))
    x_ref = rng.standard_normal(data.dim)
    f.full_grad(x_ref)
    tracemalloc.start()
    try:
        f.batch_plan(batches, x_ref)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    nnz = int(np.diff(data.features.row_offsets)[batches].sum())
    assert peak <= 16 * nnz + 64 * batches.size, peak


def finite_difference_grad(f, x, step=1e-6):
    d = len(x)
    out = np.zeros(d)
    for j in range(d):
        e = np.zeros(d)
        e[j] = step
        out[j] = (f.value(x + e) - f.value(x - e)) / (2 * step)
    return out


@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: f"{k.kind}-l2={k.lambda2}")
def test_gradient_matches_finite_differences(kind):
    f = LossObjective(kind, tiny_dataset(n=12, dim=6, seed=9))
    rng = np.random.default_rng(11)
    for _ in range(20):
        x = rng.standard_normal(6)
        g = f.full_grad(x)
        fd = finite_difference_grad(f, x)
        denom = max(np.linalg.norm(g), 1.0)
        assert np.linalg.norm(fd - g) / denom <= 1e-5


@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: f"{k.kind}-l2={k.lambda2}")
def test_per_sample_smoothness(kind):
    data = tiny_dataset(n=8, dim=5, seed=13)
    L_per = [
        data.norms_sq[i] / (4.0 if kind.kind == "logistic" else 2.0 * kind.huber_width)
        + kind.lambda2
        for i in range(data.n)
    ]
    f = LossObjective(kind, data)
    rng = np.random.default_rng(14)
    for _ in range(50):
        x = rng.standard_normal(5) * 3
        y = rng.standard_normal(5) * 3
        for i in range(data.n):
            gx = f.subset_grad(x, [i])
            gy = f.subset_grad(y, [i])
            assert np.linalg.norm(gx - gy) <= L_per[i] * np.linalg.norm(x - y) + 1e-10


@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: f"{k.kind}-l2={k.lambda2}")
def test_convexity_lower_bound(kind):
    # f(y) >= f(x) + <grad f(x), y - x> + (mu/2)||y - x||^2 with mu = lambda2
    f = LossObjective(kind, tiny_dataset(n=8, dim=5, seed=15))
    mu = kind.lambda2
    rng = np.random.default_rng(16)
    for _ in range(50):
        x = rng.standard_normal(5)
        y = rng.standard_normal(5)
        fx = f.value(x)
        fy = f.value(y)
        gx = f.full_grad(x)
        lower = fx + float(gx @ (y - x)) + 0.5 * mu * float((y - x) @ (y - x))
        assert fy >= lower - 1e-10


class TestSmoothnessConstant:
    def test_logistic_norm4(self):
        data = dataset_from_rows([{0: 2.0}], [1], dim=1)  # ||a||^2 = 4
        assert LossObjective(LossKind.logistic(), data).smoothness == pytest.approx(1.0)

    def test_l2_logistic_additive(self):
        data = dataset_from_rows([{0: 2.0}], [1], dim=1)
        assert LossObjective(LossKind.l2_logistic(0.01), data).smoothness == pytest.approx(1.01)

    def test_zero_features_only_ridge(self):
        data = dataset_from_rows([{}, {}], [1, -1], dim=2)
        assert LossObjective(LossKind.l2_logistic(0.5), data).smoothness == pytest.approx(0.5)

    def test_huber_constant(self):
        data = dataset_from_rows([{0: 1.0, 1: 1.0}], [1], dim=2)  # ||a||^2 = 2
        kind = LossKind.huberized_hinge(0.1, 0.25)
        assert LossObjective(kind, data).smoothness == pytest.approx(2.0 / 0.5 + 0.1)


def test_smoothness_and_kappa_bitwise():
    # L = max ||a_i||^2 / 4 + lambda2 (logistic) or / (2w) + lambda2
    # (huberized hinge), and kappa = L / mu, to the last bit; for the last
    # kind on this dataset x * (1/(2w)) rounds differently from x / (2w),
    # and L * (1/mu) from L / mu
    data = tiny_dataset(n=8, dim=5, seed=0)
    max_sq = data.norms_sq.max()
    L = max_sq / 0.9 + 0.03
    assert max_sq * (1.0 / 0.9) + 0.03 != L and L * (1.0 / 0.03) != L / 0.03
    for kind in ALL_KINDS + [LossKind.huberized_hinge(0.03, 0.45)]:
        f = LossObjective(kind, data)
        if kind.kind == LOGISTIC:
            assert f.smoothness == max_sq / 4.0 + kind.lambda2
        else:
            assert f.smoothness == max_sq / (2.0 * kind.huber_width) + kind.lambda2
        if kind.lambda2 > 0:
            problem = ProblemSpec(f, Regularizer(0.01), SparseMatrixCSR.identity(5))
            assert RateParams.from_problem(problem).kappa == f.smoothness / kind.lambda2


def test_hess_vec_matches_grad_differences():
    f = LossObjective(LossKind.l2_logistic(0.02), tiny_dataset(n=10, dim=5, seed=21))
    rng = np.random.default_rng(22)
    x = rng.standard_normal(5)
    v = rng.standard_normal(5)
    eps = 1e-6
    hv = f.hess_vec(x, v)
    fd = (f.full_grad(x + eps * v) - f.full_grad(x - eps * v)) / (2 * eps)
    assert np.allclose(hv, fd, atol=1e-6)


@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: f"{k.kind}-l2={k.lambda2}")
def test_hessian_matches_hess_vec_columns(kind):
    # the one-product Hessian against the column-by-column hess_vec oracle,
    # byte for byte; row 3 is all zero
    rng = np.random.default_rng(31)
    n, dim = 50, 8
    X = rng.standard_normal((n, dim)) * (rng.random((n, dim)) < 0.5)
    X[3] = 0.0
    data = Dataset(SparseMatrixCSR.from_dense(X), rng.choice([-1.0, 1.0], size=n))
    f = LossObjective(kind, data)
    eye = np.eye(dim)
    for scale in (0.3, 1.0, 3.0):
        x = scale * rng.standard_normal(dim)
        cols = np.column_stack([f.hess_vec(x, eye[j]) for j in range(dim)])
        expected = 0.5 * (cols + cols.T)
        got = f.hessian(x)
        assert got.shape == (dim, dim)
        assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: f"{k.kind}-l2={k.lambda2}")
def test_full_data_products_equal_scipy_operators_bitwise(kind):
    # the margins, the memo's loss gradient, hess_vec and hessian call the
    # compiled loops directly; each must equal, byte for byte, its form with
    # scipy's `@` on the features' CSR and cached transpose. The small
    # instance has an empty row and an all-zero column
    rng = np.random.default_rng(47)
    X = rng.standard_normal((50, 8)) * (rng.random((50, 8)) < 0.5)
    X[3], X[:, 5] = 0.0, 0.0
    small = Dataset(SparseMatrixCSR.from_dense(X), rng.choice([-1.0, 1.0], size=50))
    for data in (small, make_classification(2000, 60, seed=23, label_noise=0.3)):
        F, Ft, lambda2 = data.features.csr, data.features.csr_t, kind.lambda2
        f = LossObjective(kind, data)
        for scale in (0.3, 3.0):
            x, v = scale * rng.standard_normal((2, data.dim))
            assert _margins(data, x).tobytes() == (data.labels * (F @ x)).tobytes()
            memo = f._at(x)
            grad = Ft @ (memo.dloss * data.labels / data.n)
            assert memo.loss_grad.tobytes() == grad.tobytes()
            hv = Ft @ (memo.curvature * (F @ v))
            H = Ft @ (memo.curvature[:, None] * F.toarray())
            if lambda2:
                hv = hv + lambda2 * v
                H[np.diag_indices_from(H)] += lambda2
            assert f.hess_vec(x, v).tobytes() == hv.tobytes()
            assert f.hessian(x).tobytes() == (0.5 * (H + H.T)).tobytes()


@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: f"{k.kind}-l2={k.lambda2}")
def test_hess_vec_curvature_follows_the_values_of_x(kind):
    # hess_vec keeps the curvature of the last x; x1 is written in place
    # before the third and the fourth call, which must see its new values
    data = tiny_dataset(n=30, dim=6, seed=41)
    f = LossObjective(kind, data)
    rng = np.random.default_rng(42)
    x1, x2, v = rng.standard_normal(6), rng.standard_normal(6), rng.standard_normal(6)
    calls = [(x1.copy(), f.hess_vec(x1, v)), (x2.copy(), f.hess_vec(x2, v))]
    for _ in range(2):
        x1[:] = 2.0 * rng.standard_normal(6)
        calls.append((x1.copy(), f.hess_vec(x1, v)))
    for x, got in calls:
        assert got.tobytes() == LossObjective(kind, data).hess_vec(x, v).tobytes()


@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: f"{k.kind}-l2={k.lambda2}")
def test_curvature_equals_second_derivative_bitwise(kind):
    # the memo derives the logistic curvature from its loss derivatives;
    # it must equal the direct second derivative / n byte for byte, also
    # where large margins saturate the sigmoid
    data = tiny_dataset(n=40, dim=6, seed=45)
    f = LossObjective(kind, data)
    rng = np.random.default_rng(46)
    for scale in (0.3, 3.0, 300.0):
        x = scale * rng.standard_normal(6)
        got = f._at(x).curvature
        want = _d2loss_of_margin(kind, f.margins(x)) / data.n
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: f"{k.kind}-l2={k.lambda2}")
def test_memo_answers_equal_a_fresh_objective(kind):
    # one objective answers interleaved calls at x1, at x2, and at x1 after
    # new values are written into it; each answer must equal, bit for bit,
    # a fresh objective's answer on copies of the inputs. A one-batch plan
    # reads the loss derivatives at its reference point from the memo
    data = tiny_dataset(n=30, dim=6, seed=43)
    f = LossObjective(kind, data)
    rng = np.random.default_rng(44)
    x1, x2, v = rng.standard_normal(6), rng.standard_normal(6), rng.standard_normal(6)
    idx = np.array([1, 4, 5, 17, 29])

    def ask(method, *args):
        got = getattr(f, method)(*args)
        want = getattr(LossObjective(kind, data), method)(*(np.copy(a) for a in args))
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), method
        return got

    def ask_plan(x, x_ref):
        got = f.batch_plan([idx], x_ref).grad(0, x)
        want = LossObjective(kind, data).batch_plan([idx], x_ref.copy()).grad(0, x.copy())
        assert got.tobytes() == want.tobytes(), "batch_plan"

    def sequence(x, other, write_into_grad=False):
        ask("value", x)
        g = ask("full_grad", x)
        if write_into_grad:
            g += 1.0  # callers add to the returned gradient
        ask("hess_vec", x, v)
        ask("full_grad", x)
        ask("margins", x)
        ask("hessian", x)
        ask_plan(other, x)
        ask("value", x)
        ask_plan(x, other)  # leaves the memo at other

    sequence(x1, x2, write_into_grad=True)
    sequence(x2, x1)
    x1[:] = 2.0 * rng.standard_normal(6)
    sequence(x1, x2)
    # the memo follows an array's values, not the array: new values are
    # written into x3 between two calls at it, with no call in between
    x3 = rng.standard_normal(6)
    ask("value", x3)
    ask("full_grad", x3)
    x3[:] = 2.0 * rng.standard_normal(6)
    ask("value", x3)
    ask("full_grad", x3)
    with pytest.raises(ValueError):
        f.margins(x1)[0] = 0.0


def test_objective_adapter():
    f = LossObjective(LossKind.l2_logistic(0.05), tiny_dataset(n=5, dim=3, seed=30))
    assert f.n == 5 and f.dim == 3
    assert f.strong_convexity == 0.05
