import math

import numpy as np
import pytest

from sadmm.errors import DimensionError
from sadmm.linalg import SparseMatrixCSR
from sadmm.losses import (
    Dataset,
    LossKind,
    LossObjective,
    _dloss_of_margin,
    full_grad,
    hess_vec,
    loss_value,
    per_sample_grad,
    smoothness_constant,
    subset_mean_grad,
)

from helpers import ALL_KINDS, dataset_from_rows, tiny_dataset


class TestTypes:
    def test_norms_cached(self):
        data = dataset_from_rows([{0: 3.0, 2: 4.0}], [1], dim=3)
        assert data.norms_sq[0] == pytest.approx(25.0)

    def test_kind_validation(self):
        with pytest.raises(ValueError):
            LossKind("nope")
        with pytest.raises(ValueError):
            LossKind.l2_logistic(-1.0)
        with pytest.raises(ValueError):
            LossKind.huberized_hinge(0.0, 0.0)


class TestLossValue:
    def test_logistic_at_zero(self):
        data = tiny_dataset(n=7, dim=5, seed=2)
        assert loss_value(LossKind.logistic(), data, np.zeros(5)) == pytest.approx(math.log(2))

    def test_l2_logistic_at_zero(self):
        data = tiny_dataset(n=7, dim=5, seed=2)
        val = loss_value(LossKind.l2_logistic(0.01), data, np.zeros(5))
        assert val == pytest.approx(math.log(2))

    def test_logistic_single_sample_hand_value(self):
        # one sample a=(1), b=+1, x=(-ln 3): margin -ln 3, loss = log(1+3) = ln 4
        data = dataset_from_rows([{0: 1.0}], [1], dim=1)
        val = loss_value(LossKind.logistic(), data, np.array([-math.log(3.0)]))
        assert val == pytest.approx(math.log(4.0), rel=1e-12)

    def test_logistic_overflow_safe(self):
        data = dataset_from_rows([{0: 1.0}], [1], dim=1)
        val = loss_value(LossKind.logistic(), data, np.array([-1000.0]))
        assert val == pytest.approx(1000.0, rel=1e-9)
        assert loss_value(LossKind.logistic(), data, np.array([1000.0])) == pytest.approx(0.0, abs=1e-12)

    def test_dimension_mismatch(self):
        data = tiny_dataset(n=3, dim=4)
        with pytest.raises(DimensionError):
            loss_value(LossKind.logistic(), data, np.zeros(5))

    def test_huber_regions(self):
        w = 0.5
        kind = LossKind.huberized_hinge(0.0, w)
        data = dataset_from_rows([{0: 1.0}], [1], dim=1)
        # flat above margin 1
        assert loss_value(kind, data, np.array([2.0])) == 0.0
        # linear region below 1 - 2w: value 1 - t - w
        assert loss_value(kind, data, np.array([-1.0])) == pytest.approx(1.0 + 1.0 - w)
        # quadratic region: t = 0.5, value (1-t)^2/(4w)
        assert loss_value(kind, data, np.array([0.5])) == pytest.approx(0.25 / (4 * w))


class TestGradients:
    def test_logistic_grad_at_zero(self):
        data = dataset_from_rows([{0: 2.0, 1: -1.0}], [1], dim=2)
        g = per_sample_grad(LossKind.logistic(), data, np.zeros(2), 0)
        assert np.allclose(g, [-1.0, 0.5])  # -(b/2) a

    def test_huber_flat_region_gradient(self):
        kind = LossKind.huberized_hinge(0.3, 0.5)
        data = dataset_from_rows([{0: 1.0}], [1], dim=1)
        x = np.array([1.0 + 0.5])  # margin beyond the flat threshold
        g = per_sample_grad(kind, data, x, 0)
        assert np.allclose(g, 0.3 * x)

    def test_ridge_only_for_zero_features(self):
        data = dataset_from_rows([{1: 1.0}, {}], [1, -1], dim=2)
        kind = LossKind.l2_logistic(0.05)
        x = np.array([1.0, 0.0])
        g = per_sample_grad(kind, data, x, 1)
        assert np.allclose(g, 0.05 * x)

    def test_full_grad_is_mean_of_per_sample(self):
        data = tiny_dataset(n=6, dim=4, seed=3)
        x = np.random.default_rng(0).standard_normal(4)
        for kind in ALL_KINDS:
            mean = np.mean([per_sample_grad(kind, data, x, i) for i in range(6)], axis=0)
            assert np.allclose(mean, full_grad(kind, data, x), atol=1e-14)

    def test_full_grad_single_sample(self):
        data = tiny_dataset(n=1, dim=4, seed=4)
        x = np.random.default_rng(1).standard_normal(4)
        for kind in ALL_KINDS:
            assert np.allclose(full_grad(kind, data, x), per_sample_grad(kind, data, x, 0))

    def test_symmetric_zero(self):
        # identical features with balanced labels: sum b_i a_i = 0 at x = 0
        data = dataset_from_rows([{0: 1.0, 1: 2.0}, {0: 1.0, 1: 2.0}], [1, -1], dim=2)
        g = full_grad(LossKind.l2_logistic(0.3), data, np.zeros(2))
        assert np.allclose(g, 0.0)

    def test_index_out_of_range(self):
        data = tiny_dataset(n=3, dim=2)
        with pytest.raises(IndexError):
            per_sample_grad(LossKind.logistic(), data, np.zeros(2), 3)


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
    for b in (1, 2, 32, 33, n):
        idx = rng.permutation(n) if b == n else rng.integers(0, n, size=b)
        idx[0] = 5
        x = 2.0 * rng.standard_normal(dim)
        t = data.labels[idx] * (X[idx] @ x)
        coef = _dloss_of_margin(kind, t) * data.labels[idx] / b
        expected = X[idx].T @ coef + kind.lambda2 * x
        got = subset_mean_grad(kind, data, x, idx)
        np.testing.assert_allclose(got, expected, rtol=0.0, atol=1e-14)
    with pytest.raises(ValueError):
        subset_mean_grad(kind, data, x, [])
    for bad in (-1, n):
        with pytest.raises(IndexError):
            subset_mean_grad(kind, data, x, [0, bad])


def finite_difference_grad(kind, data, x, step=1e-6):
    d = len(x)
    out = np.zeros(d)
    for j in range(d):
        e = np.zeros(d)
        e[j] = step
        out[j] = (loss_value(kind, data, x + e) - loss_value(kind, data, x - e)) / (2 * step)
    return out


@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: f"{k.kind}-l2={k.lambda2}")
def test_gradient_matches_finite_differences(kind):
    data = tiny_dataset(n=12, dim=6, seed=9)
    rng = np.random.default_rng(11)
    for _ in range(20):
        x = rng.standard_normal(6)
        g = full_grad(kind, data, x)
        fd = finite_difference_grad(kind, data, x)
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
    rng = np.random.default_rng(14)
    for _ in range(50):
        x = rng.standard_normal(5) * 3
        y = rng.standard_normal(5) * 3
        for i in range(data.n):
            gx = per_sample_grad(kind, data, x, i)
            gy = per_sample_grad(kind, data, y, i)
            assert np.linalg.norm(gx - gy) <= L_per[i] * np.linalg.norm(x - y) + 1e-10


@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: f"{k.kind}-l2={k.lambda2}")
def test_convexity_lower_bound(kind):
    # f(y) >= f(x) + <grad f(x), y - x> + (mu/2)||y - x||^2 with mu = lambda2
    data = tiny_dataset(n=8, dim=5, seed=15)
    mu = kind.lambda2
    rng = np.random.default_rng(16)
    for _ in range(50):
        x = rng.standard_normal(5)
        y = rng.standard_normal(5)
        fx = loss_value(kind, data, x)
        fy = loss_value(kind, data, y)
        gx = full_grad(kind, data, x)
        lower = fx + float(gx @ (y - x)) + 0.5 * mu * float((y - x) @ (y - x))
        assert fy >= lower - 1e-10


class TestSmoothnessConstant:
    def test_logistic_norm4(self):
        data = dataset_from_rows([{0: 2.0}], [1], dim=1)  # ||a||^2 = 4
        assert smoothness_constant(LossKind.logistic(), data) == pytest.approx(1.0)

    def test_l2_logistic_additive(self):
        data = dataset_from_rows([{0: 2.0}], [1], dim=1)
        assert smoothness_constant(LossKind.l2_logistic(0.01), data) == pytest.approx(1.01)

    def test_zero_features_only_ridge(self):
        data = dataset_from_rows([{}, {}], [1, -1], dim=2)
        assert smoothness_constant(LossKind.l2_logistic(0.5), data) == pytest.approx(0.5)

    def test_huber_constant(self):
        data = dataset_from_rows([{0: 1.0, 1: 1.0}], [1], dim=2)  # ||a||^2 = 2
        kind = LossKind.huberized_hinge(0.1, 0.25)
        assert smoothness_constant(kind, data) == pytest.approx(2.0 / 0.5 + 0.1)


def test_hess_vec_matches_grad_differences():
    data = tiny_dataset(n=10, dim=5, seed=21)
    kind = LossKind.l2_logistic(0.02)
    rng = np.random.default_rng(22)
    x = rng.standard_normal(5)
    v = rng.standard_normal(5)
    eps = 1e-6
    hv = hess_vec(kind, data, x, v)
    fd = (full_grad(kind, data, x + eps * v) - full_grad(kind, data, x - eps * v)) / (2 * eps)
    assert np.allclose(hv, fd, atol=1e-6)


def test_objective_adapter():
    data = tiny_dataset(n=5, dim=3, seed=30)
    kind = LossKind.l2_logistic(0.05)
    f = LossObjective(kind, data)
    x = np.array([0.1, -0.2, 0.3])
    assert f.n == 5 and f.dim == 3
    assert f.value(x) == pytest.approx(loss_value(kind, data, x))
    assert np.allclose(f.full_grad(x), full_grad(kind, data, x))
    assert np.allclose(f.subset_grad(x, [1, 3]), subset_mean_grad(kind, data, x, [1, 3]))
    assert f.strong_convexity == 0.05
    assert f.smoothness_avg == f.smoothness
    assert LossObjective(kind, data, L_f=0.7).smoothness_avg == 0.7
