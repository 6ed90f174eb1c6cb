from itertools import combinations

import numpy as np
import pytest

from sadmm.errors import DimensionError
from sadmm.losses import LossKind, LossObjective
from sadmm.vr import BatchSampler, Snapshot, delta_b, variance_bound_rhs, vr_gradient

from helpers import QuadraticObjective, tiny_dataset


def make_objective(n=6, dim=4, seed=0, kind=None):
    data = tiny_dataset(n=n, dim=dim, seed=seed)
    return LossObjective(kind or LossKind.logistic(), data)


class TestDeltaB:
    def test_single_sample_batch(self):
        assert delta_b(5, 1) == 1.0

    def test_full_batch(self):
        assert delta_b(5, 5) == 0.0

    def test_direct_formula(self):
        assert delta_b(3, 2) == pytest.approx(0.25)

    def test_n_one_convention(self):
        assert delta_b(1, 1) == 0.0

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            delta_b(5, 0)
        with pytest.raises(ValueError):
            delta_b(5, 6)

    def test_monotone_nonincreasing_in_b(self):
        for n in range(2, 12):
            vals = [delta_b(n, b) for b in range(1, n + 1)]
            assert all(a >= b for a, b in zip(vals, vals[1:]))
            assert all(0.0 <= v <= 1.0 for v in vals)


class TestSampler:
    def test_draw_shape_and_distinct(self):
        s = BatchSampler(10, 4, seed=1)
        idx = s.draw(2, 5)
        assert len(idx) == 4 == len(set(idx.tolist()))
        assert np.all(np.diff(idx) > 0)  # sorted

    def test_replayable(self):
        a = BatchSampler(20, 5, seed=7).draw(3, 11)
        b = BatchSampler(20, 5, seed=7).draw(3, 11)
        assert np.array_equal(a, b)

    def test_distinct_draws_differ(self):
        s = BatchSampler(50, 5, seed=7)
        assert not np.array_equal(s.draw(1, 1), s.draw(1, 2))

    def test_full_batch_is_arange(self):
        s = BatchSampler(6, 6, seed=3)
        s._rng = None  # a b = n run draws nothing at any step
        assert np.array_equal(s.draw(1, 1), np.arange(6))
        assert s.draw(1, np.arange(3)).tobytes() == np.tile(np.arange(6), (3, 1)).tobytes()

    def test_bad_batch_size(self):
        with pytest.raises(ValueError):
            BatchSampler(4, 5, seed=0)

    def test_uniform_pairs(self):
        # every 2-subset of 5 within 5 sigma of its expected frequency
        n, b, draws = 5, 2, 100_000
        s = BatchSampler(n, b, seed=123)
        counts = {}
        for k in range(draws):
            idx = tuple(s.draw(0, k))
            counts[idx] = counts.get(idx, 0) + 1
        n_pairs = 10
        p = 1.0 / n_pairs
        sigma = np.sqrt(draws * p * (1 - p))
        assert len(counts) == n_pairs
        for pair, c in counts.items():
            assert abs(c - draws * p) <= 5 * sigma, (pair, c)


def fresh_philox_draw(n, b, seed, epoch, k):
    """Transcription of a draw that builds a fresh Philox at the counter."""
    rng = np.random.Generator(np.random.Philox(key=seed, counter=((epoch << 32) | k) << 128))
    if b == n:
        return np.arange(n)
    if b == 1:
        return rng.integers(n, size=1)
    if b * 16 < n and b * (b - 1) < 4 * n:
        while True:
            idx = rng.integers(n, size=b)
            idx.sort()
            if np.all(np.diff(idx) > 0):
                return idx
    idx = rng.choice(n, size=b, replace=False)
    idx.sort()
    return idx


# one (n, b) per branch of the transcription above: single sample (also at
# n <= 16, where b*16 < n fails), rejection (b*16 < n and b(b-1) < 4n),
# choice (the last two also at b*16 < n), b = n
SAMPLER_BRANCHES = [
    (2000, 1), (16, 1), (2, 1), (2000, 2), (2000, 20), (100, 50), (300, 256), (2000, 100),
    (32561, 1000), (12, 12)
]


class TestSamplerStream:
    @pytest.mark.parametrize("n,b", SAMPLER_BRANCHES)
    def test_matches_fresh_philox_per_draw(self, n, b):
        s = BatchSampler(n, b, seed=41)
        for epoch in (0, 1, 7, 2**32 - 1):
            for k in (0, 1, 2, 3, 199, 2**32 - 1):
                got = s.draw(epoch, k)
                assert got.dtype == np.int64
                assert np.array_equal(got, fresh_philox_draw(n, b, 41, epoch, k)), (epoch, k)

    @pytest.mark.parametrize("n,b", SAMPLER_BRANCHES)
    def test_out_of_order_draws_equal_fresh_samplers(self, n, b):
        one = BatchSampler(n, b, seed=5)
        order = [(epoch, k) for k in range(30, 0, -1) for epoch in (3, 1, 2)]
        for epoch, k in order:
            assert np.array_equal(one.draw(epoch, k), BatchSampler(n, b, seed=5).draw(epoch, k))

    def test_counter_words_do_not_collide(self):
        # (epoch << 32) | k must not let k spill into the epoch bits
        s = BatchSampler(1000, 5, seed=3)
        with pytest.raises(ValueError):
            s.draw(0, 2**32)
        with pytest.raises(ValueError):
            s.draw(2**32, 0)
        assert not np.array_equal(s.draw(0, 2**32 - 1), s.draw(1, 0))


class TestRejectionTries:
    # the scalar rejection branch asks one integers call for several
    # tuples and keeps the first distinct one; it must equal the one-try
    # loop on a fresh stream. At (32561, 256) about a quarter of the rows
    # find no distinct tuple in the first call, and at (2000, 20) the
    # bulk draw hands its retried rows to this path
    @pytest.mark.parametrize("n,b", [(32561, 256), (2000, 20)])
    def test_draws_equal_the_one_try_loop(self, n, b):
        ks = np.arange(60)
        for seed in range(4):
            s = BatchSampler(n, b, seed=seed)
            assert s._tries > 1
            for epoch in (1, 2, 3):
                rows = s.draw(epoch, ks)
                for k in ks.tolist():
                    want = fresh_philox_draw(n, b, seed, epoch, k).tobytes()
                    assert rows[k].tobytes() == want, (seed, epoch, k)
                    assert s.draw(epoch, k).tobytes() == want, (seed, epoch, k)


# the bulk draw's cases: every branch above, and the sizes at which its
# Philox rows must match the scalar stream; at n = 2**31 + 11 numpy's
# bounded step rejects about half the 32-bit values, so those rows are
# drawn again by the scalar path, and at (2000, 20) about one row in ten
# repeats a sample and is retried there
BULK_CASES = SAMPLER_BRANCHES + [
    (n, b)
    for n in (2, 3, 2000, 32561, 2**31 + 11)
    for b in (1, 2, 3, 20, 256)
    if b <= n and (n, b) not in SAMPLER_BRANCHES
]
BULK_KS = np.array([0, 1, 2, 3, 199, 2**32 - 2, 2**32 - 1] + list(range(1000, 1150)) + [7, 7])


class TestBulkDraw:
    @pytest.mark.parametrize("n,b", BULK_CASES)
    def test_rows_equal_scalar_draws(self, n, b):
        for seed in (0, 41):
            s = BatchSampler(n, b, seed=seed)
            for epoch in (0, 1, 2**32 - 1):
                rows = s.draw(epoch, BULK_KS)
                assert rows.dtype == np.int64 and rows.shape == (len(BULK_KS), b)
                for k, row in zip(BULK_KS.tolist(), rows):
                    assert row.tobytes() == s.draw(epoch, k).tobytes(), (seed, epoch, k)
                assert s.draw(epoch, np.arange(0)).shape == (0, b)
                # unsigned counters give the same rows
                assert s.draw(epoch, BULK_KS.astype(np.uint64)).tobytes() == rows.tobytes()

    # at n = 16 numpy's bounded step rejects no value and one sample cannot
    # repeat, so every row is settled in bulk
    @pytest.mark.parametrize(
        "n,b,lo,hi", [(2**31 + 11, 1, 0.3, 0.7), (2000, 20, 0.03, 0.2), (16, 1, 0.0, 0.0)]
    )
    def test_retried_rows_take_the_scalar_path(self, monkeypatch, n, b, lo, hi):
        s = BatchSampler(n, b, seed=41)
        ks = np.arange(1, 1001)
        scalar = [s.draw(3, k) for k in ks.tolist()]
        calls = []
        one = BatchSampler._draw_one

        def counted(self, epoch, k):
            calls.append(k)
            return one(self, epoch, k)

        monkeypatch.setattr(BatchSampler, "_draw_one", counted)
        rows = s.draw(3, ks)
        assert lo * len(ks) <= len(calls) <= hi * len(ks)
        assert rows.tobytes() == np.array(scalar).tobytes()

    def test_counter_and_k_checks(self):
        s = BatchSampler(2000, 20, seed=3)
        for ks in ([5, -1, 6], [2**32, 0], [0, 1, 2**32 + 7]):
            with pytest.raises(ValueError):
                s.draw(1, np.array(ks, dtype=np.int64))
        with pytest.raises(ValueError):
            s.draw(1, np.array([1, 2**32], dtype=np.uint64))
        with pytest.raises(ValueError):
            s.draw(2**32, np.arange(3))
        for ks in (np.array([1.0, 2.0]), np.array([True, False]), np.ones((2, 2), dtype=np.int64)):
            with pytest.raises(TypeError):
                s.draw(1, ks)


class TestVRGradient:
    def test_at_snapshot_returns_full_grad(self):
        f = make_objective()
        x0 = np.full(f.dim, 0.3)
        snap = Snapshot(x0, f.full_grad(x0))
        g = vr_gradient(snap, f, x0, [2, 4])
        assert np.allclose(g, snap.full_grad, atol=1e-15)

    def test_full_batch_telescopes(self):
        f = make_objective()
        snap = Snapshot(np.zeros(f.dim), f.full_grad(np.zeros(f.dim)))
        x = np.random.default_rng(1).standard_normal(f.dim)
        g = vr_gradient(snap, f, x, np.arange(f.n))
        assert np.allclose(g, f.full_grad(x), atol=1e-12)

    def test_unbiased_by_enumeration(self):
        # averaging over all singleton batches reproduces the full gradient
        f = make_objective(n=3, dim=3, seed=5)
        x0 = np.full(3, -0.1)
        snap = Snapshot(x0, f.full_grad(x0))
        x = np.random.default_rng(2).standard_normal(3)
        est = np.mean([vr_gradient(snap, f, x, [i]) for i in range(3)], axis=0)
        true = f.full_grad(x)
        assert np.linalg.norm(est - true) <= 1e-12 * max(1.0, np.linalg.norm(true))

    def test_unbiased_all_sizes(self):
        for n in (4, 6, 8):
            f = make_objective(n=n, dim=4, seed=n)
            x0 = np.random.default_rng(n).standard_normal(4) * 0.5
            snap = Snapshot(x0, f.full_grad(x0))
            x = np.random.default_rng(n + 1).standard_normal(4)
            true = f.full_grad(x)
            for b in range(1, n + 1):
                est = np.mean(
                    [vr_gradient(snap, f, x, list(c)) for c in combinations(range(n), b)],
                    axis=0,
                )
                assert np.linalg.norm(est - true) <= 1e-12 * max(1.0, np.linalg.norm(true))

    def test_rejects_duplicates(self):
        f = make_objective()
        snap = Snapshot(np.zeros(f.dim), f.full_grad(np.zeros(f.dim)))
        for batch in ([1, 1], [2, 0]):
            with pytest.raises(ValueError, match="strictly increasing"):
                vr_gradient(snap, f, np.zeros(f.dim), batch)

    def test_rejects_non_integer_indices(self):
        # a float or bool batch is refused, not truncated to rows 0 and 1,
        # whichever objective serves the batch
        centers = np.random.default_rng(9).standard_normal((6, 4))
        for f in (make_objective(), QuadraticObjective(centers)):
            snap = Snapshot(np.zeros(f.dim), f.full_grad(np.zeros(f.dim)))
            for batch, dtype in (([0.2, 1.7], "float64"), ([0, 1.5], "float64"),
                                 ([False, True], "bool")):
                with pytest.raises(TypeError, match=dtype):
                    vr_gradient(snap, f, np.ones(f.dim), batch)

    def test_empty_batch_refused(self):
        f = make_objective()
        snap = Snapshot(np.zeros(f.dim), f.full_grad(np.zeros(f.dim)))
        with pytest.raises(ValueError, match="empty batch"):
            vr_gradient(snap, f, np.zeros(f.dim), [])

    def test_snapshot_shapes_must_match(self):
        with pytest.raises(DimensionError, match="equal shape"):
            Snapshot(np.zeros(3), np.zeros(4))

    def test_stale_snapshot_dimension(self):
        f = make_objective(dim=4)
        snap = Snapshot(np.zeros(3), np.zeros(3))
        with pytest.raises(Exception):
            vr_gradient(snap, f, np.zeros(4), [0])


def exhaustive_second_moment(snap, f, x, b):
    """E ||g - grad f(x)||^2 over all size-b batches, exactly."""
    true = f.full_grad(x)
    sq = [
        float(np.sum((vr_gradient(snap, f, x, list(c)) - true) ** 2))
        for c in combinations(range(f.n), b)
    ]
    return float(np.mean(sq))


class TestVarianceBound:
    def test_zero_at_snapshot(self):
        f = make_objective()
        x0 = np.full(f.dim, 0.2)
        snap = Snapshot(x0, f.full_grad(x0))
        assert variance_bound_rhs(snap, f, x0, 2) == pytest.approx(0.0, abs=1e-12)

    def test_zero_at_full_batch(self):
        f = make_objective()
        snap = Snapshot(np.zeros(f.dim), f.full_grad(np.zeros(f.dim)))
        x = np.random.default_rng(3).standard_normal(f.dim)
        assert variance_bound_rhs(snap, f, x, f.n) == 0.0

    def test_direct_recomputation(self):
        f = make_objective(n=5, dim=3, seed=8)
        x0 = np.random.default_rng(4).standard_normal(3) * 0.3
        snap = Snapshot(x0, f.full_grad(x0))
        x = np.random.default_rng(5).standard_normal(3)
        L, b = f.smoothness, 2
        expected = (
            2.0
            * L
            * delta_b(5, 2)
            * (f.value(x0) - f.value(x) + float((x - x0) @ f.full_grad(x)))
        )
        assert variance_bound_rhs(snap, f, x, b) == pytest.approx(max(expected, 0.0))

    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_bound_dominates_exact_expectation(self, n):
        f = make_objective(n=n, dim=4, seed=n + 20)
        rng = np.random.default_rng(n)
        for trial in range(25):
            x0 = rng.standard_normal(4)
            x = rng.standard_normal(4)
            snap = Snapshot(x0, f.full_grad(x0))
            for b in {1, 2, n - 1, n}:
                lhs = exhaustive_second_moment(snap, f, x, b)
                rhs = variance_bound_rhs(snap, f, x, b)
                assert lhs <= rhs + 1e-10, (trial, b)

    def test_variance_zero_cases(self):
        f = make_objective(n=5, dim=3, seed=31)
        rng = np.random.default_rng(32)
        x0 = rng.standard_normal(3)
        snap = Snapshot(x0, f.full_grad(x0))
        assert exhaustive_second_moment(snap, f, x0, 2) == pytest.approx(0.0, abs=1e-25)
        x = rng.standard_normal(3)
        assert exhaustive_second_moment(snap, f, x, 5) == pytest.approx(0.0, abs=1e-25)


def test_works_with_quadratic_oracle():
    centers = np.random.default_rng(9).standard_normal((6, 3))
    f = QuadraticObjective(centers, q=2.0)
    x0 = np.zeros(3)
    snap = Snapshot(x0, f.full_grad(x0))
    x = np.array([1.0, -1.0, 0.5])
    est = np.mean([vr_gradient(snap, f, x, [i]) for i in range(6)], axis=0)
    assert np.allclose(est, f.full_grad(x), atol=1e-14)
