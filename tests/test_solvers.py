import dataclasses
import math
import warnings

import numpy as np
import pytest

from sadmm.errors import ConfigError, RankDeficiencyError
from sadmm.harness import run_solver
from sadmm.linalg import SparseMatrixCSR, compute_spectral_constants, spmv
from sadmm.losses import LossKind, LossObjective
from sadmm.metrics import compute_reference
from sadmm.problem import ProblemSpec
from sadmm.prox import Regularizer
from sadmm.solvers import (
    ConstantTheta,
    DecayingTheta,
    RateParams,
    SolverConfig,
    batch_admm_epoch,
    beta_star,
    gamma_min,
    init_batch_state,
    init_stoc_state,
    init_vr_state,
    optimal_theta_sc,
    rho_rate,
    stoc_admm_chunk,
    theta_next,
    vr_admm_epoch,
)
from sadmm.vr import delta_b

from helpers import RANK_DEFICIENT_TALL, RANK_DEFICIENT_WIDE, quadratic_problem, tiny_dataset


def logistic_problem(n=40, dim=6, seed=0, lambda1=0.01, lambda2=0.01):
    data = tiny_dataset(n=n, dim=dim, seed=seed)
    kind = LossKind.l2_logistic(lambda2) if lambda2 else LossKind.logistic()
    A = SparseMatrixCSR.identity(dim)
    return ProblemSpec(LossObjective(kind, data), Regularizer(lambda1), A)


# ---------------------------------------------------------------------------
# momentum weight recursion


class TestThetaNext:
    def test_from_one(self):
        assert theta_next(1.0) == pytest.approx((math.sqrt(5) - 1) / 2, abs=1e-15)

    def test_recursion_invariant_100_steps(self):
        theta = 0.9
        for _ in range(100):
            nxt = theta_next(theta)
            assert (1 - nxt) / nxt**2 == pytest.approx(1.0 / theta**2, rel=1e-12)
            assert nxt < theta
            theta = nxt

    @pytest.mark.parametrize("theta0", [0.3, 0.618, 1.0])
    def test_upper_envelope(self, theta0):
        theta = theta0
        for s in range(1, 1001):
            theta = theta_next(theta)
            assert theta <= 2.0 / (s + 2) + 1e-15

    def test_domain(self):
        with pytest.raises(ValueError):
            theta_next(0.0)
        with pytest.raises(ValueError):
            theta_next(1.5)


class TestGammaMin:
    def test_identity_all_ones(self):
        assert gamma_min(1.0, 1.0, 1.0, 1.0) == pytest.approx(2.0)

    def test_beta_zero(self):
        assert gamma_min(0.5, 0.0, 0.7, 3.0) == 1.0

    def test_halving_theta_doubles_first_term(self):
        lo = gamma_min(0.2, 2.0, 0.5, 3.0)
        hi = gamma_min(0.2, 2.0, 0.25, 3.0)
        assert hi - 1.0 == pytest.approx(2 * (lo - 1.0))

    def test_theta_zero(self):
        with pytest.raises(ValueError):
            gamma_min(1.0, 1.0, 0.0, 1.0)

    def test_metric_dominates_identity(self):
        # G = gamma I - (eta beta / theta) A^T A has min eigenvalue 1 at gamma_min
        rng = np.random.default_rng(3)
        for trial in range(15):
            d = rng.integers(2, 20)
            A = SparseMatrixCSR.from_dense(rng.standard_normal((d + 1, d)))
            ata = A.to_dense().T @ A.to_dense()
            ata_norm = float(np.linalg.eigvalsh(ata).max())
            eta, beta, theta = rng.uniform(0.01, 1), rng.uniform(0.1, 2), rng.uniform(0.1, 1)
            g = gamma_min(eta, beta, theta, ata_norm)
            G = g * np.eye(d) - (eta * beta / theta) * ata
            assert np.linalg.eigvalsh(G).min() >= 1.0 - 1e-8


class TestRateFormulas:
    def _params(self, mu=0.01, L=1.0, ata_norm=3.0, aat_min_eig=1.0):
        return RateParams(mu=mu, L=L, ata_norm=ata_norm, aat_min_eig=aat_min_eig)

    def test_rho_theta_zero_is_one(self):
        cfg = SolverConfig(m=100, eta=0.1, beta=1.0)
        assert rho_rate(0.0, self._params(), cfg) == 1.0

    def test_rho_large_m_limit(self):
        p = self._params()
        theta = 0.5
        cfg = SolverConfig(m=10**9, eta=0.1, beta=1.0, gamma="auto")
        assert rho_rate(theta, p, cfg) == pytest.approx(1 - theta, abs=1e-6)

    def test_rho_matches_dense_norm_path(self):
        # ||theta G + eta beta A^T A||_2 evaluated densely equals theta*gamma
        rng = np.random.default_rng(11)
        for _ in range(20):
            d = int(rng.integers(2, 15))
            A = SparseMatrixCSR.from_dense(rng.standard_normal((d + 2, d)))
            sc = compute_spectral_constants(A)
            mu = rng.uniform(0.001, 0.1)
            L = rng.uniform(0.5, 2.0)
            params = RateParams(mu=mu, L=L, ata_norm=sc.ata_norm, aat_min_eig=sc.aat_min_eig)
            theta = rng.uniform(0.05, 1.0)
            eta = rng.uniform(0.01, 0.4) / L
            beta = rng.uniform(0.1, 2.0)
            gamma = gamma_min(eta, beta, theta, sc.ata_norm)
            cfg = SolverConfig(m=int(rng.integers(10, 500)), eta=eta, beta=beta, gamma=gamma)
            ata = A.to_dense().T @ A.to_dense()
            G = gamma * np.eye(d) - (eta * beta / theta) * ata
            dense_norm = float(np.abs(np.linalg.eigvalsh(theta * G + eta * beta * ata)).max())
            first_dense = theta * dense_norm / (eta * cfg.m * mu)
            third = params.L * theta / (beta * cfg.m * sc.aat_min_eig)
            expected = first_dense + (1 - theta) + third
            assert rho_rate(theta, params, cfg) == pytest.approx(expected, abs=1e-10)

    def test_optimal_theta_requires_large_m(self):
        p = self._params()
        with pytest.raises(ConfigError):
            optimal_theta_sc(10, 1, 100, p)

    def test_optimal_theta_full_batch_formula(self):
        p = self._params(mu=0.1, L=1.0, ata_norm=2.0)
        m = 200
        n = 50
        theta, alpha, eta = optimal_theta_sc(m, n, n, p)  # b = n, delta = 0
        s = 2 * math.sqrt(p.kappa * p.omega)
        assert theta == pytest.approx((m - s) / (m - s + 2 * p.kappa))
        assert eta == pytest.approx(1.0 / (p.L * alpha))

    def test_theta_star_respects_batch_bound_and_rate(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            mu = rng.uniform(0.001, 0.2)
            L = rng.uniform(0.5, 3.0)
            omega = rng.uniform(1.0, 10.0)
            p = RateParams(mu=mu, L=L, ata_norm=omega, aat_min_eig=1.0)
            n = int(rng.integers(20, 2000))
            b = int(rng.integers(1, n + 1))
            m = int((2 * p.kappa + 2 * math.sqrt(p.kappa * p.omega)) * rng.uniform(1.2, 5.0)) + 1
            try:
                theta, alpha, eta = optimal_theta_sc(m, b, n, p)
            except ConfigError:
                continue
            delta = delta_b(n, b)
            assert theta <= 1 - delta / (alpha - 1) + 1e-12
            cfg = SolverConfig(m=m, eta=eta, beta=beta_star(p), gamma="auto")
            rho = rho_rate(theta, p, cfg)
            assert rho < 1.0

    def test_theta_star_local_minimality(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            mu = rng.uniform(0.005, 0.1)
            L = 1.0
            omega = rng.uniform(1.0, 5.0)
            p = RateParams(mu=mu, L=L, ata_norm=omega, aat_min_eig=1.0)
            n, b = 500, int(rng.integers(1, 50))
            m = int((2 * p.kappa + 2 * math.sqrt(p.kappa * p.omega)) * 2) + 1
            theta, alpha, eta = optimal_theta_sc(m, b, n, p)
            cfg = SolverConfig(m=m, eta=eta, beta=beta_star(p), gamma="auto")
            rho_mid = rho_rate(theta, p, cfg)
            for d_theta in (-0.05, 0.05):
                t = theta + d_theta
                if 0 < t:
                    assert rho_rate(t, p, cfg) >= rho_mid - 1e-12

    def test_beta_star_values(self):
        p = self._params(mu=1.0, L=1.0, ata_norm=1.0)
        assert beta_star(p) == pytest.approx(1.0)
        p4 = self._params(mu=1.0, L=4.0, ata_norm=1.0)
        assert beta_star(p4) == pytest.approx(2.0)

    def test_beta_star_scaling(self):
        # scaling A by c scales both Gram spectra by c^2 and beta* by 1/c^2
        c2 = 4.0
        p1 = self._params(mu=0.05, L=2.0, ata_norm=3.0, aat_min_eig=1.0)
        p2 = self._params(mu=0.05, L=2.0, ata_norm=3.0 * c2, aat_min_eig=1.0 * c2)
        assert beta_star(p2) == pytest.approx(beta_star(p1) / c2)


# ---------------------------------------------------------------------------
# batch solver


class TestBatchAdmm:
    def test_quadratic_converges_to_kkt(self):
        # 1-D quadratic with no regularizer: x* is the center mean
        centers = np.array([[1.0], [3.0], [2.0]])
        problem = quadratic_problem(centers, q=2.0, lambda1=0.0)
        config = SolverConfig(m=1, eta=1.0, beta=1.0, inner_tol=1e-12)
        state = init_batch_state(problem)
        for _ in range(200):
            batch_admm_epoch(state, problem, config)
        assert state.x[0] == pytest.approx(2.0, abs=1e-8)
        assert np.linalg.norm(spmv(problem.A, state.x) - state.y) <= 1e-8

    def test_fixed_point_is_stationary(self):
        problem = logistic_problem(n=30, dim=5, seed=4)
        config = SolverConfig(m=1, eta=1.0, beta=0.5, inner_tol=1e-13)
        state = init_batch_state(problem)
        for _ in range(3000):
            batch_admm_epoch(state, problem, config)
        x0, y0, l0 = state.x.copy(), state.y.copy(), state.lam.copy()
        batch_admm_epoch(state, problem, config)
        assert np.linalg.norm(state.x - x0) <= 1e-10
        assert np.linalg.norm(state.y - y0) <= 1e-10
        assert np.linalg.norm(state.lam - l0) <= 1e-10

    def test_dual_update_identity(self):
        problem = logistic_problem(n=20, dim=4, seed=6)
        config = SolverConfig(m=1, eta=1.0, beta=0.7)
        state = init_batch_state(problem)
        lam_before = state.lam.copy()
        batch_admm_epoch(state, problem, config)
        expected = lam_before + (spmv(problem.A, state.x) - state.y)
        assert np.array_equal(state.lam, expected)


# ---------------------------------------------------------------------------
# decaying-step stochastic solver


class TestStocAdmm:
    def test_zero_gradient_moves_by_penalty_pull(self):
        centers = np.zeros((4, 2))  # f minimized at 0, gradient 0 at x=0
        problem = quadratic_problem(centers, q=1.0, lambda1=0.0)
        config = SolverConfig(m=1, eta=0.5, beta=0.01, seed=0)
        state = init_stoc_state(problem)
        state.lam = np.array([1.0, -1.0])  # puts a pure penalty pull on x
        stoc_admm_chunk(state, problem, config)
        # y-update absorbs lam exactly, so x stays at the origin
        assert np.allclose(state.x, 0.0, atol=1e-12)
        # the running maximum of |lambda| starts from the entry iterate
        assert state.sup_lambda == 1.0

    def test_zero_gradient_penalty_pull_bounded(self):
        # with an active l1 term the dual is not fully absorbed by the
        # y-update and x moves, but only by the (small-beta) penalty pull
        centers = np.zeros((4, 2))
        problem = quadratic_problem(centers, q=1.0, lambda1=0.5)
        config = SolverConfig(m=1, eta=0.5, beta=0.01, seed=0)
        state = init_stoc_state(problem)
        state.lam = np.array([1.0, -1.0])
        stoc_admm_chunk(state, problem, config)
        assert np.linalg.norm(state.x) > 0.0
        assert np.linalg.norm(state.x) <= config.eta * config.beta * np.linalg.norm([1.0, -1.0])

    def test_deterministic_given_seed(self):
        problem = logistic_problem(n=25, dim=4, seed=8)
        out = []
        for _ in range(2):
            config = SolverConfig(m=40, eta=0.5, beta=0.5, seed=5)
            state = init_stoc_state(problem)
            stoc_admm_chunk(state, problem, config)
            out.append(state.x.copy())
        assert np.array_equal(out[0], out[1])

    def test_quadratic_converges_near_optimum(self):
        rng = np.random.default_rng(17)
        centers = (2.0 + 0.5 * rng.standard_normal((30, 1))).reshape(30, 1)
        problem = quadratic_problem(centers, q=1.0, lambda1=0.0)
        x_star = float(np.mean(centers))
        config = SolverConfig(m=10_000, eta=1.0, beta=0.1, seed=3)
        state = init_stoc_state(problem)
        stoc_admm_chunk(state, problem, config)
        assert abs(state.x[0] - x_star) <= 0.1
        assert abs(state.x_bar[0] - x_star) <= 0.1


class TestStocReplay:
    """stoc_admm_chunk against a straight-line loop that builds a fresh
    single-sample sampler for every draw, compared bitwise."""

    def test_chunks_match_straight_line_loop(self):
        from sadmm.linalg import spmv_t
        from sadmm.prox import y_update
        from sadmm.vr import BatchSampler

        problem = logistic_problem(n=25, dim=4, seed=9)
        config = SolverConfig(m=15, eta=0.5, beta=0.5, seed=12)
        f, A, reg, beta = problem.f, problem.A, problem.reg, config.beta
        w, Q = np.linalg.eigh((A.csr.T @ A.csr).toarray())
        x, lam = np.zeros(problem.d1), np.zeros(problem.d2)
        x_bar, y_bar = np.zeros(problem.d1), np.zeros(problem.d2)
        for k in range(1, 31):
            if k in (1, 16):  # a trace row's sups start from its entry iterates
                sup_x, sup_lam = float(np.max(np.abs(x))), float(np.max(np.abs(lam)))
            eta_k = config.eta / math.sqrt(k)
            i = BatchSampler(f.n, 1, config.seed).draw(0, k)
            y = y_update(reg, spmv(A, x), lam, beta)
            rhs = x / eta_k - f.subset_grad(x, i) - beta * spmv_t(A, lam - y)
            x = Q @ ((Q.T @ rhs) / (1.0 / eta_k + beta * w))
            lam = lam + (spmv(A, x) - y)
            x_bar += (x - x_bar) / k
            y_bar += (y - y_bar) / k
            sup_x = max(sup_x, float(np.max(np.abs(x))))
            sup_lam = max(sup_lam, float(np.max(np.abs(lam))))
        state = init_stoc_state(problem)
        stoc_admm_chunk(state, problem, config)
        stoc_admm_chunk(state, problem, config)
        assert state.grad_evals == 30
        assert np.array_equal(state.x, x)
        assert np.array_equal(state.y, y)
        assert np.array_equal(state.lam, lam)
        assert np.array_equal(state.x_bar, x_bar)
        assert np.array_equal(state.y_bar, y_bar)
        assert state.sup_z == sup_x
        assert state.sup_lambda == sup_lam

    def test_runs_share_the_problems_eigendecomposition(self):
        # two runs on one problem, with a dense A^T A, use its one
        # eigendecomposition and trace, bit for bit, what each run traces on
        # a fresh problem
        def trace(problem, seed):
            config = SolverConfig(m=15, eta=0.5, beta=0.5, epochs=3, seed=seed)
            recs = run_solver(problem, "stoc", config)
            return [dataclasses.replace(r, wall_seconds=0.0).to_row() for r in recs]

        shared = vr_problem(seed=4)
        got = [trace(shared, seed) for seed in (0, 1)]
        assert got == [trace(vr_problem(seed=4), seed) for seed in (0, 1)]
        assert got[0] != got[1]


class TestLayerBoundaries:
    """The hot path reaches its layers through the attributes a tracer
    wraps from outside (vr.BatchSampler.draw, LossObjective.batch_plan,
    losses.BatchPlan.grad)."""

    @staticmethod
    def _count(monkeypatch, owner, attr):
        calls = []
        inner = getattr(owner, attr)

        def counted(*args, **kwargs):
            calls.append(1)
            return inner(*args, **kwargs)

        monkeypatch.setattr(owner, attr, counted)
        return calls

    def test_vr_epoch_draws_and_plans_once(self, monkeypatch):
        # the epoch draws its m batches in one call and gathers them in one
        # plan, then asks it for m gradients
        import sadmm.losses
        import sadmm.vr

        problem = vr_problem(seed=3)
        for cfg in (
            vr_config(problem, b=4, m=9),
            vr_config(problem, theta=0.5, b=1, m=7),
        ):
            state = init_vr_state(problem, cfg)
            plans = self._count(monkeypatch, sadmm.losses.LossObjective, "batch_plan")
            grads = self._count(monkeypatch, sadmm.losses.BatchPlan, "grad")
            draws = self._count(monkeypatch, sadmm.vr.BatchSampler, "draw")
            vr_admm_epoch(state, problem, cfg)
            monkeypatch.undo()
            assert len(plans) == 1
            assert len(grads) == cfg.m
            assert len(draws) == 1

    def test_vr_epoch_takes_snapshot_derivatives_from_the_memo(self, monkeypatch):
        # the loss derivatives at the snapshot come from the memo its full
        # gradient filled: each epoch evaluates them on m batches, not 2m,
        # and once on all n samples at the next snapshot
        import sadmm.losses

        problem = vr_problem(seed=3)
        dloss = sadmm.losses._dloss_of_margin
        for cfg in (
            vr_config(problem, b=4, m=9),
            vr_config(problem, theta=0.5, b=1, m=7),
        ):
            state = init_vr_state(problem, cfg)
            sizes = []

            def counted(kind, t):
                sizes.append(len(t))
                return dloss(kind, t)

            monkeypatch.setattr(sadmm.losses, "_dloss_of_margin", counted)
            for _ in range(2):
                vr_admm_epoch(state, problem, cfg)
            monkeypatch.undo()
            assert sizes.count(cfg.b) == 2 * cfg.m
            assert sizes.count(problem.f.n) == 2
            assert len(sizes) == 2 * cfg.m + 2

    def test_stoc_chunk_draws_once_per_row(self, monkeypatch):
        # the trace row's m = 11 single-sample draws are one call
        import sadmm.vr

        problem = logistic_problem(n=25, dim=4, seed=8)
        config = SolverConfig(m=11, eta=0.5, beta=0.5, seed=2)
        state = init_stoc_state(problem)
        draws = self._count(monkeypatch, sadmm.vr.BatchSampler, "draw")
        stoc_admm_chunk(state, problem, config)
        assert len(draws) == 1

    @pytest.mark.parametrize(
        "solver, init",
        [("batch", "init_batch_state"), ("stoc", "init_stoc_state"), ("svrg", "init_vr_state")],
    )
    def test_run_solver_reaches_harness_attributes(self, monkeypatch, solver, init):
        # run_solver looks these up in sadmm.harness at call time, so a
        # tracer that swaps the module attributes sees every call
        import sadmm.harness

        problem = vr_problem(seed=3)
        cfg = vr_config(problem, b=2, m=3, epochs=2)
        ref = compute_reference(problem, tol=1e-8)
        counts = {
            attr: self._count(monkeypatch, sadmm.harness, attr)
            for attr in (init, "batch_admm_epoch", "p_criterion", "evaluate", "spmv")
        }
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            run_solver(problem, solver, cfg, ref=ref, test=problem.f.data, kind=problem.f.kind)
        rows = cfg.epochs + 1
        assert len(counts[init]) == 1
        assert len(counts["batch_admm_epoch"]) == (cfg.epochs if solver == "batch" else 0)
        assert len(counts["p_criterion"]) == len(counts["evaluate"]) == len(counts["spmv"]) == rows

    def test_compute_reference_reaches_metrics_batch_epoch(self, monkeypatch):
        import sadmm.metrics

        problem = vr_problem(seed=3)
        epochs = self._count(monkeypatch, sadmm.metrics, "batch_admm_epoch")
        compute_reference(problem, tol=1e-8)
        assert len(epochs) > 0

    def test_loss_math_reached_through_loss_objective(self, monkeypatch):
        # the solvers and the test-set metric reach the loss math through
        # the LossObjective class attributes a tracer wraps
        import sadmm.losses
        from sadmm.metrics import evaluate

        oracle = sadmm.losses.LossObjective
        problem = vr_problem(seed=3)
        cfg = vr_config(problem, b=4, m=9)
        state = init_vr_state(problem, cfg)
        plans = self._count(monkeypatch, oracle, "batch_plan")
        grads = self._count(monkeypatch, sadmm.losses.BatchPlan, "grad")
        vr_admm_epoch(state, problem, cfg)
        assert len(plans) == 1
        assert len(grads) == cfg.m

        # a stoc trace row gathers its m single samples in one plan
        stoc_problem = logistic_problem(n=25, dim=4, seed=8)
        stoc_cfg = SolverConfig(m=11, eta=0.5, beta=0.5, seed=2)
        state = init_stoc_state(stoc_problem)
        stoc_admm_chunk(state, stoc_problem, stoc_cfg)
        assert len(plans) == 2
        assert len(grads) == cfg.m + 11

        batch_cfg = SolverConfig(m=1, eta=0.1, beta=0.5)
        state = init_batch_state(problem)
        hvps = self._count(monkeypatch, oracle, "hess_vec")
        batch_admm_epoch(state, problem, batch_cfg)
        assert len(hvps) > 0

        values = self._count(monkeypatch, oracle, "value")
        evaluate(state.x, problem.f)
        assert len(values) == 1


# ---------------------------------------------------------------------------
# variance-reduced solvers


def vr_problem(seed=0, lambda1=0.01, lambda2=0.05, n=30, dim=5):
    data = tiny_dataset(n=n, dim=dim, seed=seed)
    kind = LossKind.l2_logistic(lambda2)
    rng = np.random.default_rng(seed + 1)
    G = rng.standard_normal((3, dim))
    A = SparseMatrixCSR.from_dense(np.vstack([G, np.eye(dim)]))
    return ProblemSpec(LossObjective(kind, data), Regularizer(lambda1), A)


def vr_config(problem, theta=None, b=4, m=12, epochs=3, seed=0, gamma="auto", eta_frac=8.0):
    L = problem.f.smoothness
    schedule = ConstantTheta(1.0 if theta is None else theta)
    return SolverConfig(
        m=m, eta=1.0 / (eta_frac * L), beta=0.5, b=b, gamma=gamma,
        epochs=epochs, seed=seed, schedule=schedule,
    )


class TestVRConfigValidation:
    def test_eta_upper_bound(self):
        problem = vr_problem()
        L = problem.f.smoothness
        cfg = SolverConfig(m=5, eta=1.0 / L, beta=0.5, b=2, schedule=ConstantTheta(1.0))
        with pytest.raises(ConfigError):
            init_vr_state(problem, cfg)

    def test_constant_theta_bound_enforced(self):
        problem = vr_problem()
        L = problem.f.smoothness
        eta = 1.0 / (4.0 * L)
        delta = delta_b(problem.f.n, 1)
        bound = 1.0 - delta / (1.0 / (L * eta) - 1.0)
        bad = SolverConfig(m=5, eta=eta, beta=0.5, b=1, schedule=ConstantTheta(bound + 0.05))
        with pytest.raises(ConfigError):
            init_vr_state(problem, bad)
        ok = SolverConfig(m=5, eta=eta, beta=0.5, b=1, schedule=ConstantTheta(bound - 0.01))
        init_vr_state(problem, ok)

    def test_theta_exactly_one_allowed(self):
        # the degenerate momentum-free mode must run even for b < n
        problem = vr_problem()
        cfg = vr_config(problem, theta=1.0, b=2)
        state = init_vr_state(problem, cfg)
        assert state.theta == 1.0

    def test_gc_needs_decaying_schedule(self):
        problem = vr_problem()
        cfg = vr_config(problem, theta=0.5)
        with pytest.raises(ConfigError):
            run_solver(problem, "asvrg_gc", cfg)

    def test_svrg_rejects_momentum_schedule(self):
        problem = vr_problem()
        cfg = vr_config(problem, theta=0.5)
        with pytest.raises(ConfigError):
            run_solver(problem, "svrg", cfg)

    def test_gc_default_theta0(self):
        problem = vr_problem()
        L = problem.f.smoothness
        eta = 1.0 / (8.0 * L)
        cfg = SolverConfig(m=5, eta=eta, beta=0.5, b=2, schedule=DecayingTheta())
        state = init_vr_state(problem, cfg)
        delta = delta_b(problem.f.n, 2)
        assert state.theta == pytest.approx(1.0 - L * eta * delta / (1.0 - L * eta))


class TestVREpochIdentities:
    def test_dual_update_identity_single_step(self):
        problem = vr_problem(seed=3)
        cfg = vr_config(problem, theta=0.6, m=1, b=3)
        state = init_vr_state(problem, cfg)
        lam0 = state.lambda_tilde.copy()
        vr_admm_epoch(state, problem, cfg)
        expected = lam0 + (spmv(problem.A, state.z) - state.y)
        assert np.array_equal(state.lam, expected)

    def test_interpolation_identity_single_step(self):
        problem = vr_problem(seed=4)
        cfg = vr_config(problem, theta=0.6, m=1, b=3)
        state = init_vr_state(problem, cfg)
        x_snap = state.snapshot.x_tilde.copy()
        theta = state.theta
        vr_admm_epoch(state, problem, cfg)
        assert np.array_equal(state.x, (1.0 - theta) * x_snap + theta * state.z)

    def test_epoch_averages(self):
        problem = vr_problem(seed=5)
        cfg = vr_config(problem, theta=0.7, m=1, b=2)
        state = init_vr_state(problem, cfg)
        y_tilde0 = state.y_tilde.copy()
        theta = state.theta
        vr_admm_epoch(state, problem, cfg)
        # with m = 1 the averages are the single inner iterates
        assert np.array_equal(state.snapshot.x_tilde, state.x)
        assert np.allclose(state.y_tilde, (1 - theta) * y_tilde0 + theta * state.y)

    def test_sc_dual_epoch_variable_from_pseudo_inverse(self):
        problem = vr_problem(seed=6)
        cfg = vr_config(problem, theta=0.7, m=2, b=2)
        state = init_vr_state(problem, cfg)
        vr_admm_epoch(state, problem, cfg)
        # the dual epoch variable solves A A^T (-beta lam) = A grad f(x_tilde)
        g = problem.f.full_grad(state.snapshot.x_tilde)
        u = -cfg.beta * state.lambda_tilde
        r = spmv(problem.A, spmv_t_dense(problem, u)) - spmv(problem.A, g)
        assert np.linalg.norm(r) <= 1e-8 * max(1.0, np.linalg.norm(g))

    def test_gc_carries_z_and_lambda(self):
        problem = vr_problem(seed=7)
        L = problem.f.smoothness
        cfg = SolverConfig(m=2, eta=1.0 / (8 * L), beta=0.5, b=2, schedule=DecayingTheta(), epochs=2)
        state = init_vr_state(problem, cfg)
        vr_admm_epoch(state, problem, cfg)
        assert np.array_equal(state.lambda_tilde, state.lam)

    def test_sup_lambda_counts_the_entry_dual(self):
        # the y-update absorbs most of a large entry dual in the first step,
        # so only a running maximum seeded from the entry iterate keeps it
        problem = vr_problem(seed=7)
        cfg = vr_config(problem, b=2, m=3)
        state = init_vr_state(problem, cfg)
        state.lambda_tilde = state.lambda_tilde + 50.0
        vr_admm_epoch(state, problem, cfg)
        assert state.sup_lambda >= 50.0

    def test_gc_epoch_start_with_theta_one(self):
        # theta0 = 1 collapses the warm start onto the carried z
        problem = vr_problem(seed=8)
        n = problem.f.n
        L = problem.f.smoothness
        cfg = SolverConfig(m=1, eta=1.0 / (8 * L), beta=0.5, b=n, schedule=DecayingTheta(), epochs=1)
        state = init_vr_state(problem, cfg)
        assert state.theta == 1.0  # delta(n) = 0

    def test_theta_schedule_across_epochs(self):
        problem = vr_problem(seed=9)
        L = problem.f.smoothness
        cfg = SolverConfig(m=3, eta=1.0 / (8 * L), beta=0.5, b=2, schedule=DecayingTheta(), epochs=5)
        state = init_vr_state(problem, cfg)
        thetas = [state.theta]
        for _ in range(5):
            vr_admm_epoch(state, problem, cfg)
            thetas.append(state.theta)
        delta = delta_b(problem.f.n, 2)
        alpha = 1.0 / (L * cfg.eta)
        bound = 1.0 - delta / (alpha - 1.0)
        for prev, cur in zip(thetas, thetas[1:]):
            assert (1 - cur) / cur**2 == pytest.approx(1.0 / prev**2, rel=1e-12)
            assert cur < prev
            assert cur <= bound + 1e-12


def spmv_t_dense(problem, v):
    from sadmm.linalg import spmv_t

    return spmv_t(problem.A, v)


class TestDegeneracy:
    def test_full_batch_single_step_seed_independent(self):
        problem = vr_problem(seed=12)
        n = problem.f.n
        L = problem.f.smoothness
        outs = []
        for seed in (1, 999):
            cfg = SolverConfig(m=1, eta=1.0 / (8 * L), beta=0.5, b=n,
                               schedule=DecayingTheta(), epochs=3, seed=seed)
            state = init_vr_state(problem, cfg)
            for _ in range(3):
                vr_admm_epoch(state, problem, cfg)
            outs.append(state.snapshot.x_tilde.copy())
        assert np.array_equal(outs[0], outs[1])

    def test_full_batch_vr_gradient_is_exact(self):
        # b = n, m = 1: the inner gradient is the true full gradient
        problem = vr_problem(seed=13)
        n = problem.f.n
        cfg = vr_config(problem, theta=1.0, b=n, m=1, epochs=1)
        state = init_vr_state(problem, cfg)
        x_snap = state.snapshot.x_tilde.copy()
        g_snap = state.snapshot.full_grad.copy()
        gamma = gamma_min(cfg.eta, cfg.beta, 1.0, problem.spectra.ata_norm)
        # reproduce the single deterministic inner step by hand
        from sadmm.prox import y_update
        from sadmm.linalg import spmv_t

        y1 = y_update(problem.reg, spmv(problem.A, x_snap), state.lambda_tilde, cfg.beta)
        u = spmv(problem.A, x_snap) - y1 + state.lambda_tilde
        z1 = x_snap - cfg.eta * (g_snap + cfg.beta * spmv_t(problem.A, u)) / (gamma * 1.0)
        vr_admm_epoch(state, problem, cfg)
        assert np.allclose(state.z, z1, atol=1e-15)


class TestEpochReplayOracle:
    """Straight-line transcriptions of one epoch, compared bitwise.

    The batch sampler is replayable from (seed, epoch, k), so the exact
    inner trajectory can be reproduced outside the solver."""

    def _replay_inner(self, problem, cfg, theta, gamma, z, x, y, lam, x_snap, snap, epoch):
        from sadmm.prox import y_update
        from sadmm.vr import BatchSampler, vr_gradient
        from sadmm.linalg import spmv, spmv_t

        sampler = BatchSampler(problem.f.n, cfg.b, cfg.seed)
        scale = cfg.eta / (gamma * theta)
        sum_x = np.zeros_like(x)
        sum_y = np.zeros_like(y)
        Az = spmv(problem.A, z)
        sup_z, sup_lam = float(np.max(np.abs(z))), float(np.max(np.abs(lam)))
        for k in range(1, cfg.m + 1):
            batch = sampler.draw(epoch, k)
            y = y_update(problem.reg, Az, lam, cfg.beta)
            g = vr_gradient(snap, problem.f, x, batch)
            z = z - scale * (g + cfg.beta * spmv_t(problem.A, Az - y + lam))
            x = (1.0 - theta) * x_snap + theta * z
            Az = spmv(problem.A, z)
            lam = lam + (Az - y)
            sum_x += x
            sum_y += y
            sup_z = max(sup_z, float(np.max(np.abs(z))))
            sup_lam = max(sup_lam, float(np.max(np.abs(lam))))
        return z, x, y, lam, sum_x, sum_y, sup_z, sup_lam

    def test_constant_weight_epoch_matches_replay(self):
        problem = vr_problem(seed=50)
        cfg = vr_config(problem, theta=0.6, b=3, m=3, seed=4)
        state = init_vr_state(problem, cfg)
        theta = state.theta
        gamma = gamma_min(cfg.eta, cfg.beta, theta, problem.spectra.ata_norm)
        x_snap = state.snapshot.x_tilde.copy()
        snap = state.snapshot
        y_t0 = state.y_tilde.copy()
        z, x, y, lam, sum_x, sum_y, sup_z, sup_lam = self._replay_inner(
            problem, cfg, theta, gamma,
            x_snap.copy(), x_snap.copy(), state.y_tilde.copy(), state.lambda_tilde.copy(),
            x_snap, snap, epoch=1,
        )
        vr_admm_epoch(state, problem, cfg)
        assert np.array_equal(state.z, z)
        assert np.array_equal(state.x, x)
        assert np.array_equal(state.y, y)
        assert np.array_equal(state.lam, lam)
        assert state.sup_z == sup_z
        assert state.sup_lambda == sup_lam
        assert np.array_equal(state.snapshot.x_tilde, sum_x / cfg.m)
        assert np.array_equal(state.y_tilde, (1 - theta) * y_t0 + (theta / cfg.m) * sum_y)

    def test_constant_weight_later_epoch_matches_replay(self):
        # from epoch 2 on the carried y_tilde is nonzero, so its (1 - theta)
        # share shows in the new y_tilde
        problem = vr_problem(seed=52)
        cfg = vr_config(problem, theta=0.6, b=3, m=3, seed=5)
        state = init_vr_state(problem, cfg)
        vr_admm_epoch(state, problem, cfg)  # epoch 1 moves the state
        theta = state.theta
        gamma = gamma_min(cfg.eta, cfg.beta, theta, problem.spectra.ata_norm)
        x_snap = state.snapshot.x_tilde.copy()
        snap = state.snapshot
        y_t_prev = state.y_tilde.copy()
        assert np.any(y_t_prev != 0.0)
        z, x, y, lam, sum_x, sum_y, sup_z, sup_lam = self._replay_inner(
            problem, cfg, theta, gamma,
            x_snap.copy(), x_snap.copy(), state.y_tilde.copy(), state.lambda_tilde.copy(),
            x_snap, snap, epoch=2,
        )
        vr_admm_epoch(state, problem, cfg)
        assert np.array_equal(state.z, z)
        assert np.array_equal(state.x, x)
        assert np.array_equal(state.y, y)
        assert np.array_equal(state.lam, lam)
        assert state.sup_z == sup_z
        assert state.sup_lambda == sup_lam
        assert np.array_equal(state.snapshot.x_tilde, sum_x / cfg.m)
        assert np.array_equal(state.y_tilde, (1 - theta) * y_t_prev + (theta / cfg.m) * sum_y)

    def test_theta_one_epochs_match_svrg_admm_replay(self):
        # SVRG-ADMM, the theta = 1 case, transcribed without the snapshot
        # mix: x = z throughout, and no share of the old y_tilde carries
        from sadmm.prox import y_update
        from sadmm.vr import BatchSampler, vr_gradient
        from sadmm.linalg import spmv_t

        problem = vr_problem(seed=53)
        A = problem.A
        cfg = vr_config(problem, b=3, m=5, seed=8)
        state = init_vr_state(problem, cfg)
        gamma = gamma_min(cfg.eta, cfg.beta, 1.0, problem.spectra.ata_norm)
        for epoch in (1, 2):
            snap = state.snapshot
            x = snap.x_tilde.copy()
            y, lam = state.y_tilde.copy(), state.lambda_tilde.copy()
            sampler = BatchSampler(problem.f.n, cfg.b, cfg.seed)
            sum_x, sum_y = np.zeros_like(x), np.zeros_like(y)
            sup_x, sup_lam = float(np.max(np.abs(x))), float(np.max(np.abs(lam)))
            for k in range(1, cfg.m + 1):
                batch = sampler.draw(epoch, k)
                y = y_update(problem.reg, spmv(A, x), lam, cfg.beta)
                g = vr_gradient(snap, problem.f, x, batch)
                x = x - (cfg.eta / gamma) * (g + cfg.beta * spmv_t(A, spmv(A, x) - y + lam))
                lam = lam + (spmv(A, x) - y)
                sum_x += x
                sum_y += y
                sup_x = max(sup_x, float(np.max(np.abs(x))))
                sup_lam = max(sup_lam, float(np.max(np.abs(lam))))
            vr_admm_epoch(state, problem, cfg)
            assert state.theta == 1.0
            assert np.array_equal(state.z, x)
            assert np.array_equal(state.x, x)
            assert np.array_equal(state.y, y)
            assert np.array_equal(state.lam, lam)
            assert state.sup_z == sup_x
            assert state.sup_lambda == sup_lam
            assert np.array_equal(state.snapshot.x_tilde, sum_x / cfg.m)
            assert np.array_equal(state.y_tilde, (1.0 / cfg.m) * sum_y)

    def _decaying_epoch_matches_replay(self, warm_epochs):
        problem = vr_problem(seed=51)
        L = problem.f.smoothness
        cfg = SolverConfig(m=3, eta=1.0 / (8 * L), beta=0.4, b=2, gamma=2.5,
                           schedule=DecayingTheta(), epochs=2, seed=6)
        state = init_vr_state(problem, cfg)
        for _ in range(warm_epochs):  # move the state before the replayed epoch
            vr_admm_epoch(state, problem, cfg)
        theta = state.theta
        x_snap = state.snapshot.x_tilde.copy()
        snap = state.snapshot
        z0 = state.z.copy()
        x0 = (1.0 - theta) * x_snap + theta * z0
        y_t_prev = state.y_tilde.copy()
        z, x, y, lam, sum_x, sum_y, sup_z, sup_lam = self._replay_inner(
            problem, cfg, theta, 2.5,
            z0, x0, state.y_tilde.copy(), state.lambda_tilde.copy(),
            x_snap, snap, epoch=warm_epochs + 1,
        )
        vr_admm_epoch(state, problem, cfg)
        assert np.array_equal(state.z, z)
        assert np.array_equal(state.lambda_tilde, lam)
        assert state.sup_z == sup_z
        assert state.sup_lambda == sup_lam
        assert np.array_equal(state.snapshot.x_tilde, sum_x / cfg.m)
        assert np.array_equal(state.y_tilde, (1 - theta) * y_t_prev + (theta / cfg.m) * sum_y)
        assert state.theta == theta_next(theta)
        return y_t_prev

    def test_decaying_weight_epoch_matches_replay(self):
        self._decaying_epoch_matches_replay(warm_epochs=1)

    def test_decaying_weight_later_epoch_matches_replay(self):
        # on this instance y_tilde is still zero after epoch 1; after two
        # epochs its (1 - theta) carry shows in the new y_tilde
        y_t_prev = self._decaying_epoch_matches_replay(warm_epochs=2)
        assert np.any(y_t_prev != 0.0)


def _constant_theta_problem(dense_A, beta=0.7):
    """An l2-logistic problem on penalty matrix dense_A, and an svrg config."""
    A = SparseMatrixCSR.from_dense(dense_A)
    data = tiny_dataset(n=30, dim=A.cols, seed=A.rows)
    problem = ProblemSpec(LossObjective(LossKind.l2_logistic(0.05), data), Regularizer(0.01), A)
    cfg = SolverConfig(m=1, eta=1.0 / (4.0 * problem.f.smoothness), beta=beta,
                       schedule=ConstantTheta(1.0))
    return problem, cfg


def test_dual_solve_matches_pseudo_inverse():
    # the dual epoch variable equals -(1/beta) pinv(A^T) grad f, tall or wide
    rng = np.random.default_rng(60)
    for shape in ((9, 4), (4, 9), (25, 20), (20, 25)):
        problem, cfg = _constant_theta_problem(rng.standard_normal(shape))
        g = problem.f.full_grad(np.zeros(problem.d1))
        expected = -(1.0 / cfg.beta) * np.linalg.pinv(problem.A.to_dense().T) @ g
        lam = init_vr_state(problem, cfg).lambda_tilde
        assert np.max(np.abs(lam - expected)) <= 1e-13 * np.max(np.abs(expected))


def test_one_eigendecomposition_serves_spectra_dual_and_stoc(monkeypatch):
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda M: calls.append(M.shape) or eigh(M))
    problem, cfg = _constant_theta_problem(np.random.default_rng(61).standard_normal((7, 5)))
    vr_admm_epoch(init_vr_state(problem, cfg), problem, cfg)
    stoc_admm_chunk(init_stoc_state(problem), problem, dataclasses.replace(cfg, m=3))
    w = problem.A.ata_eig[0]
    assert compute_spectral_constants(problem.A) == problem.spectra
    assert (problem.spectra.ata_norm, problem.spectra.aat_min_eig) == (w[-1], w[0])
    assert calls == [(5, 5)]


def test_constant_theta_dual_refuses_a_rank_deficient_a():
    # (A^T)^+ divides by the top min(rows, cols) eigenvalues of A^T A, so a
    # zero among them must raise before the division
    for dense_A in (RANK_DEFICIENT_WIDE, RANK_DEFICIENT_TALL):
        problem, cfg = _constant_theta_problem(dense_A)
        with pytest.raises(RankDeficiencyError):
            init_vr_state(problem, cfg)


def test_constant_step_vr_decays_geometrically_on_strongly_convex():
    # median ratio of successive optimality gaps stays below one
    from sadmm.metrics import compute_reference, p_criterion

    problem = vr_problem(seed=40, lambda2=0.05, n=60, dim=6)
    ref = compute_reference(problem, tol=1e-10)
    L = problem.f.smoothness
    cfg = SolverConfig(m=24, eta=1.0 / (4 * L), beta=0.3, b=4, gamma="auto",
                       epochs=8, seed=2, schedule=ConstantTheta(1.0))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        recs = run_solver(problem, "svrg", cfg, ref=ref)
    p = [max(r.p_criterion, 1e-16) for r in recs]
    ratios = [b / a for a, b in zip(p, p[1:])]
    assert np.median(ratios) < 1.0


def test_strongly_convex_momentum_gains_nothing_over_theta_one_at_equal_step():
    # criterion 05's instance at equal passes (10 rows, 86.8 passes), median
    # objective gaps over 5 seeds. The paper's constant weight theta* = 0.61
    # does not beat theta = 1 (svrg) at the same (eta, beta*); both beat svrg
    # at the default eta = 1/(8L) by about 10^4 at row 10, so the gain over
    # the default comes from the step size. Measured gaps at rows 5 and 10:
    # asvrg_sc 2.2e-5, 8.8e-9; svrg 1.7e-5, 5.4e-9; svrg at 1/(8L) 2.2e-3,
    # 7.9e-5.
    from sadmm.datasets import make_classification
    from sadmm.harness import build_graph_matrix

    data = make_classification(1000, 50, seed=7)
    A = build_graph_matrix(data, 0.9)
    problem = ProblemSpec(LossObjective(LossKind.l2_logistic(1e-2), data), Regularizer(1e-5), A)
    ref = compute_reference(problem, tol=1e-10)
    params = RateParams.from_problem(problem)
    n, b = problem.f.n, 10
    floor = 2.0 * params.kappa + 2.0 * math.sqrt(params.kappa * params.omega)
    m = max((2 * n) // b, int(1.6 * floor) + 1)
    theta, _alpha, eta = optimal_theta_sc(m, b, n, params)
    assert m == 379 and theta < 1.0
    runs = {
        "asvrg_sc": ("asvrg_sc", theta, eta),
        "svrg": ("svrg", 1.0, eta),
        "svrg_default_eta": ("svrg", 1.0, 1.0 / (8.0 * problem.f.smoothness)),
    }
    gaps = {}
    for name, (solver, th, step) in runs.items():
        per_seed = []
        for seed in range(5):
            cfg = SolverConfig(m=m, eta=step, beta=beta_star(params), b=b,
                               gamma="auto", epochs=10, seed=seed, schedule=ConstantTheta(th))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                recs = run_solver(problem, solver, cfg, ref=ref)
            per_seed.append([r.objective_gap for r in recs])
        gaps[name] = np.median(np.array(per_seed), axis=0)
    sc, sv, slow = gaps["asvrg_sc"], gaps["svrg"], gaps["svrg_default_eta"]
    assert sc[5] >= sv[5] and sc[10] >= sv[10]
    assert slow[10] >= 1e3 * max(sc[10], sv[10])


class TestRateRegimeWarnings:
    def test_rho_warning_emitted_outside_regime(self):
        problem = vr_problem(seed=30)
        cfg = vr_config(problem, theta=None, b=2, m=2, epochs=1)  # tiny m: rho >= 1
        from sadmm.solvers import warn_if_outside_rate_regime

        with pytest.warns(RuntimeWarning, match="rho"):
            rho = warn_if_outside_rate_regime(problem, cfg)
        assert rho >= 1.0

    def test_gamma_below_floor_warns(self):
        problem = vr_problem(seed=31)
        L = problem.f.smoothness
        cfg = SolverConfig(m=500, eta=1.0 / (2.5 * L), beta=2.0, b=2, gamma=1.0,
                           schedule=ConstantTheta(1.0))
        from sadmm.solvers import warn_if_outside_rate_regime

        with pytest.warns(RuntimeWarning, match="gamma"):
            warn_if_outside_rate_regime(problem, cfg)

    def test_general_convex_problem_skips_rate_check(self):
        data = tiny_dataset(n=20, dim=4, seed=32)
        problem = ProblemSpec(
            LossObjective(LossKind.logistic(), data),
            Regularizer(0.01),
            SparseMatrixCSR.identity(4),
        )
        cfg = vr_config(problem, theta=None, b=2, m=2)
        from sadmm.solvers import warn_if_outside_rate_regime

        assert warn_if_outside_rate_regime(problem, cfg) is None

    def test_decaying_schedule_skips_rate_check(self):
        # rho is the constant-theta contraction factor; m = 2 would put it >= 1
        problem = vr_problem(seed=30)
        L = problem.f.smoothness
        cfg = SolverConfig(m=2, eta=1.0 / (8 * L), beta=0.5, b=2, gamma=1.0,
                           schedule=DecayingTheta())
        from sadmm.solvers import warn_if_outside_rate_regime

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert warn_if_outside_rate_regime(problem, cfg) is None


class TestFiniteIterates:
    @pytest.mark.parametrize("solver", ["svrg", "asvrg_sc", "asvrg_gc", "batch", "stoc"])
    def test_all_iterates_finite(self, solver):
        problem = vr_problem(seed=20)
        L = problem.f.smoothness
        sched = {
            "svrg": ConstantTheta(1.0),
            "asvrg_sc": ConstantTheta(0.5),
            "asvrg_gc": DecayingTheta(),
            "batch": ConstantTheta(1.0),
            "stoc": ConstantTheta(1.0),
        }[solver]
        cfg = SolverConfig(m=6, eta=1.0 / (8 * L), beta=0.5, b=2, schedule=sched,
                           epochs=4, seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            recs = run_solver(problem, solver, cfg)
        for r in recs:
            assert math.isfinite(r.objective)
            assert math.isfinite(r.constraint_violation)
