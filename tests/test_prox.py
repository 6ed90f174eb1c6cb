import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from sadmm.prox import Regularizer, h_value, soft_threshold, y_update

vectors = hnp.arrays(
    np.float64,
    st.integers(1, 12),
    elements=st.floats(-50, 50, allow_nan=False),
)


class TestSoftThreshold:
    def test_zero_tau_identity(self):
        v = np.array([0.5, -2.0, 0.0])
        assert np.array_equal(soft_threshold(v, 0.0), v)

    def test_hand_values(self):
        assert np.allclose(soft_threshold(np.array([0.5, -2.0]), 1.0), [0.0, -1.0])

    def test_dead_zone(self):
        v = np.array([0.3, -0.9, 0.0])
        assert np.all(soft_threshold(v, 1.0) == 0.0)

    def test_negative_tau(self):
        with pytest.raises(ValueError):
            soft_threshold(np.array([1.0]), -0.1)


class TestYUpdate:
    def test_no_regularizer_exact(self):
        Az = np.array([1.0, -2.0])
        lam = np.array([0.5, 0.5])
        out = y_update(Regularizer(0.0), Az, lam, beta=2.0)
        assert np.array_equal(out, Az + lam)

    def test_no_regularizer_is_the_point_bitwise(self):
        # the soft threshold at tau = 0 returns every nonzero point, the
        # subnormal and infinite ones included, bit for bit; a zero comes
        # back as +0.0 at every lambda1, a -0.0 point included
        Az = np.array([1e-320, -1e-320, 1e300, -3.5, np.inf, -np.inf, 0.0, -0.0, 0.0])
        lam = np.array([0.0, 0.0, 1e300, 1.25, 1.0, 1.0, 0.0, -0.0, -0.0])
        for lam1 in (0.0, 1e-5):
            out = y_update(Regularizer(lam1), Az, lam, beta=1.0)
            if lam1 == 0.0:
                assert out[:6].tobytes() == (Az + lam)[:6].tobytes()
            assert out[6:].tobytes() == np.zeros(3).tobytes()

    def test_hand_case(self):
        # threshold lambda1/beta = 1 applied to (2, 0.5, -3)
        out = y_update(Regularizer(2.0), np.array([2.0, 0.5, -3.0]), np.zeros(3), beta=2.0)
        assert np.allclose(out, [1.0, 0.0, -2.0])

    def test_zero_point(self):
        out = y_update(Regularizer(0.3), np.zeros(4), np.zeros(4), beta=1.0)
        assert np.all(out == 0.0)

    def test_beta_validation(self):
        with pytest.raises(ValueError):
            y_update(Regularizer(1.0), np.zeros(2), np.zeros(2), beta=0.0)

    def test_matches_grid_brute_force(self):
        # scan the scalar subproblem h(y) + beta/2 (p - y)^2 on a fine grid
        rng = np.random.default_rng(5)
        for _ in range(50):
            lam1 = rng.uniform(0.01, 2.0)
            beta = rng.uniform(0.1, 3.0)
            p = rng.uniform(-3, 3)
            grid = np.arange(-4.0, 4.0, 1e-4)
            obj = lam1 * np.abs(grid) + 0.5 * beta * (p - grid) ** 2
            brute = grid[np.argmin(obj)]
            ours = y_update(Regularizer(lam1), np.array([p]), np.zeros(1), beta)[0]
            assert abs(ours - brute) <= 2e-4

    def test_subgradient_optimality(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            d = rng.integers(1, 8)
            lam1 = rng.uniform(0.0, 2.0)
            beta = rng.uniform(0.1, 5.0)
            Az = rng.standard_normal(d) * 2
            lam = rng.standard_normal(d)
            y = y_update(Regularizer(lam1), Az, lam, beta)
            resid = beta * (Az - y + lam)  # must lie in lambda1 * subdiff of |.|
            on = y != 0
            assert np.all(np.abs(resid[on] - lam1 * np.sign(y[on])) <= 1e-10)
            assert np.all(np.abs(resid[~on]) <= lam1 + 1e-10)

    def test_objective_dominance(self):
        rng = np.random.default_rng(7)
        lam1, beta = 0.7, 1.3
        Az = rng.standard_normal(6)
        lam = rng.standard_normal(6)
        reg = Regularizer(lam1)
        y = y_update(reg, Az, lam, beta)

        def sub_obj(yy):
            r = Az - yy + lam
            return h_value(reg, yy) + 0.5 * beta * float(r @ r)

        best = sub_obj(y)
        for _ in range(1000):
            assert best <= sub_obj(y + 0.5 * rng.standard_normal(6)) + 1e-12


@settings(max_examples=100, deadline=None)
@given(u=vectors, seed=st.integers(0, 99), tau=st.floats(0, 10, allow_nan=False))
def test_non_expansiveness(u, seed, tau):
    v = u + np.random.default_rng(seed).standard_normal(len(u))
    du = soft_threshold(u, tau)
    dv = soft_threshold(v, tau)
    assert np.linalg.norm(du - dv) <= np.linalg.norm(u - v) + 1e-12


def test_h_value():
    # lambda1 = 0 gives +0.0 for every finite y, as 0.0 * sum |y| does
    for y in ([1.0, -2.0], [-0.0, 1e300, -1e300], [5e-324]):
        h = h_value(Regularizer(0.0), np.array(y))
        assert h == 0.0 and np.copysign(1.0, h) == 1.0
    assert h_value(Regularizer(0.5), np.array([1.0, -2.0])) == pytest.approx(1.5)
