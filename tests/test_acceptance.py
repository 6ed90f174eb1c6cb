"""Acceptance suite: one test per exit criterion, each printing a pass/fail
line. Run with ``pytest -v -s tests/test_acceptance.py``."""

import dataclasses
import math
import os
import warnings
from itertools import combinations

import numpy as np
import pytest

from sadmm.datasets import make_classification, parse_libsvm, train_test_split
from sadmm.harness import (
    build_graph_matrix,
    grid_search_eta_beta,
    run_solver,
)
from sadmm.linalg import SparseMatrixCSR, compute_spectral_constants
from sadmm.losses import LossKind, LossObjective
from sadmm.metrics import compute_reference
from sadmm.problem import ProblemSpec
from sadmm.prox import Regularizer, y_update
from sadmm.solvers import (
    ConstantTheta,
    DecayingTheta,
    RateParams,
    SolverConfig,
    beta_star,
    gamma_min,
    optimal_theta_sc,
    rho_rate,
    theta_next,
)
from sadmm.vr import Snapshot, variance_bound_rhs, vr_gradient

from helpers import tiny_dataset


def report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"\n[acceptance] criterion {num:02d} ({name}): {status}  {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def toy_objectives():
    for n in (4, 6, 8):
        data = tiny_dataset(n=n, dim=4, seed=n)
        yield LossObjective(LossKind.logistic(), data)
        yield LossObjective(LossKind.l2_logistic(0.05), tiny_dataset(n=n, dim=4, seed=n + 70))


def test_criterion_01_estimator_unbiasedness():
    worst = 0.0
    for f in toy_objectives():
        rng = np.random.default_rng(f.n)
        x0 = rng.standard_normal(f.dim) * 0.5
        snap = Snapshot(x0, f.full_grad(x0))
        x = rng.standard_normal(f.dim)
        true = f.full_grad(x)
        scale = max(np.linalg.norm(true), 1.0)
        for b in range(1, f.n + 1):
            est = np.mean(
                [vr_gradient(snap, f, x, list(c)) for c in combinations(range(f.n), b)],
                axis=0,
            )
            worst = max(worst, float(np.linalg.norm(est - true)) / scale)
    report(1, "estimator unbiasedness", worst <= 1e-12, f"worst relative error {worst:.2e}")


def test_criterion_02_variance_bound():
    violations = 0
    pairs = 0
    worst = -np.inf
    for f in toy_objectives():
        n = f.n
        rng = np.random.default_rng(1000 + n)
        for _ in range(40):  # 40 pairs x 6 objectives = 240 >= 100
            x0 = rng.standard_normal(f.dim)
            x = rng.standard_normal(f.dim)
            snap = Snapshot(x0, f.full_grad(x0))
            true = f.full_grad(x)
            pairs += 1
            for b in sorted({1, 2, n - 1, n}):
                lhs = float(
                    np.mean(
                        [
                            np.sum((vr_gradient(snap, f, x, list(c)) - true) ** 2)
                            for c in combinations(range(n), b)
                        ]
                    )
                )
                rhs = variance_bound_rhs(snap, f, x, b)
                worst = max(worst, lhs - rhs)
                if lhs > rhs + 1e-10:
                    violations += 1
    report(
        2,
        "variance bound",
        violations == 0 and pairs >= 100,
        f"{pairs} pairs, worst lhs-rhs = {worst:.2e}",
    )


def test_criterion_03_momentum_schedule():
    # the recursion residual is checked relative to 1/theta_prev^2, which is
    # the only float64-attainable reading once theta ~ 1e-3 (the absolute
    # value 1/theta^2 ~ 1e5 already rounds at ~5e-11)
    worst_rec = 0.0
    ok_envelope = True
    for theta0 in (0.3, 0.618, 1.0):
        theta = theta0
        for s in range(1, 1001):
            nxt = theta_next(theta)
            inv_sq = 1.0 / theta**2
            worst_rec = max(worst_rec, abs((1 - nxt) / nxt**2 - inv_sq) / inv_sq)
            if nxt > 2.0 / (s + 2) + 1e-15:
                ok_envelope = False
            theta = nxt
    report(
        3,
        "momentum schedule",
        worst_rec <= 1e-12 and ok_envelope,
        f"worst relative recursion residual {worst_rec:.2e}",
    )


@pytest.fixture(scope="module")
def degeneracy_problem():
    data = make_classification(300, 20, seed=42)
    A = build_graph_matrix(data, 0.9)
    return ProblemSpec(LossObjective(LossKind.l2_logistic(0.01), data), Regularizer(1e-4), A)


def test_criterion_04_degeneracy_equivalences(degeneracy_problem):
    problem = degeneracy_problem
    L = problem.f.smoothness
    base = dict(m=30, eta=1.0 / (8 * L), beta=0.5, b=5, gamma="auto", epochs=5, seed=7)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        r_svrg = run_solver(problem, "svrg", SolverConfig(schedule=ConstantTheta(1.0), **base))
        r_one = run_solver(problem, "asvrg_sc", SolverConfig(schedule=ConstantTheta(1.0), **base))
    identical = [repr(a.objective) for a in r_svrg] == [repr(b.objective) for b in r_one]
    n = problem.f.n
    outs = []
    for seed in (1, 424242):
        cfg = SolverConfig(
            m=1, eta=1.0 / (8 * L), beta=0.5, b=n, gamma="auto",
            epochs=4, seed=seed, schedule=DecayingTheta(),
        )
        recs = run_solver(problem, "asvrg_gc", cfg)
        outs.append([repr(r.objective) for r in recs])
    seed_free = outs[0] == outs[1]
    report(
        4,
        "degeneracy equivalences",
        identical and seed_free,
        f"traces byte-identical={identical}, full-batch seed-independent={seed_free}",
    )


def test_criterion_05_geometric_rate():
    data = make_classification(1000, 50, seed=7)
    A = build_graph_matrix(data, 0.9)
    problem = ProblemSpec(LossObjective(LossKind.l2_logistic(1e-2), data), Regularizer(1e-5), A)
    ref = compute_reference(problem, tol=1e-10)
    params = RateParams.from_problem(problem)
    n = problem.f.n
    b = 10
    floor = 2.0 * params.kappa + 2.0 * math.sqrt(params.kappa * params.omega)
    m = max((2 * n) // b, int(1.6 * floor) + 1)
    theta, _alpha, eta = optimal_theta_sc(m, b, n, params)
    bstar = beta_star(params)
    config = SolverConfig(
        m=m, eta=eta, beta=bstar, b=b, gamma="auto", epochs=20, seed=0,
        schedule=ConstantTheta(theta),
    )
    rho = rho_rate(theta, params, config)
    assert rho < 1.0
    ratios = []
    for seed in range(10):
        cfg = dataclasses.replace(config, seed=seed)
        recs = run_solver(problem, "asvrg_sc", cfg, ref=ref)
        ratios.append(recs[-1].p_criterion / recs[0].p_criterion)
    med = float(np.median(ratios))
    bound = rho**20 * 1.5
    report(
        5,
        "geometric rate",
        med <= bound,
        f"rho={rho:.4f}, median P20/P0={med:.3e} <= {bound:.3e}",
    )


@pytest.fixture(scope="module")
def general_convex_instance():
    # duplicated columns remove strong convexity; a few heavy rows push the
    # worst-case per-sample smoothness far above the typical curvature, so
    # valid constant steps are small and the order separation is measurable
    data = make_classification(
        1000, 50, seed=11, n_correlated_pairs=4, duplicate_pairs=4,
        heavy_row_fraction=0.05, heavy_row_factor=10.0,
    )
    A = build_graph_matrix(data, 0.9)
    problem = ProblemSpec(LossObjective(LossKind.logistic(), data), Regularizer(1e-5), A)
    ref = compute_reference(problem, tol=1e-10)
    return problem, ref


def _median_error_curve(problem, ref, solver, schedule, eta, beta, b, m, T, seeds):
    curves = []
    for seed in seeds:
        cfg = SolverConfig(
            m=m, eta=eta, beta=beta, b=b, gamma=1.0, epochs=T, seed=seed, schedule=schedule
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            recs = run_solver(problem, solver, cfg, ref=ref)
        curves.append([max(r.p_criterion + r.constraint_violation, 1e-14) for r in recs])
    return np.median(np.array(curves), axis=0)


def test_criterion_06_sublinear_order(general_convex_instance):
    problem, ref = general_convex_instance
    L = problem.f.smoothness
    b, m, T = 10, 200, 64
    eta = 1.0 / (8.0 * L)
    seeds = range(5)
    fit = np.arange(4, T + 1)

    def slope(curve):
        return float(np.polyfit(np.log(fit), np.log(curve[fit]), 1)[0])

    gc = _median_error_curve(problem, ref, "asvrg_gc", DecayingTheta(), eta, 1.0, b, m, T, seeds)
    sv = _median_error_curve(problem, ref, "svrg", ConstantTheta(1.0), eta, 1.0, b, m, T, seeds)
    s_gc, s_sv = slope(gc), slope(sv)
    ok = s_gc <= -1.5 and s_sv >= s_gc + 0.3
    report(
        6,
        "accelerated sublinear order",
        ok,
        f"slope(momentum)={s_gc:.2f} <= -1.5, slope(baseline)={s_sv:.2f} >= {s_gc + 0.3:.2f}",
    )


def _benchmark_instance():
    """Table-2-style presets on a desk-scale dataset; a real libsvm file is
    used when SADMM_A9A_PATH points at one, otherwise a deterministic noisy
    synthetic stand-in."""
    path = os.environ.get("SADMM_A9A_PATH")
    if path:
        full = parse_libsvm(path)
        if full.n > 4000:
            full, _rest = train_test_split(full, 1.0 - 4000.0 / full.n, seed=0)
        data = full
    else:
        data = make_classification(2000, 60, seed=23, label_noise=0.3)
    A = build_graph_matrix(data, 0.9)
    return ProblemSpec(LossObjective(LossKind.logistic(), data), Regularizer(1e-5), A)


def test_criterion_07_solver_ordering_at_equal_passes():
    problem = _benchmark_instance()
    ref = compute_reference(problem, tol=1e-10)
    n = problem.f.n
    L = problem.f.smoothness
    b = 20
    m = (2 * n) // b  # benchmark preset, passes/epoch = 1 + 2mb/n = 5
    epochs_vr = 6  # 31 gradient passes including the snapshot gradients
    from sadmm.harness import ExperimentConfig

    base_cfg = ExperimentConfig(problem="fused_lasso", b=b, m=m, gamma=1.0, seeds=(0,))
    medians = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for solver, sched in (("svrg", ConstantTheta(1.0)), ("asvrg_gc", DecayingTheta())):
            eta, beta = grid_search_eta_beta(
                problem, dataclasses.replace(base_cfg, solver=solver), ref, epochs=epochs_vr, seed=0
            )
            gaps = []
            for seed in range(5):
                cfg = SolverConfig(m=m, eta=eta, beta=beta, b=b, gamma=1.0,
                                   epochs=epochs_vr, seed=seed, schedule=sched)
                recs = run_solver(problem, solver, cfg, ref=ref)
                assert recs[-1].passes >= 30.0
                gaps.append(recs[-1].objective_gap)
            medians[solver] = float(np.median(gaps))
        # the decaying-step baseline gets the same total gradient budget
        stoc_meds = []
        for e0 in (16.0, 8.0, 4.0):
            gaps = []
            for seed in range(5):
                cfg = SolverConfig(m=n, eta=e0 / L, beta=1.0, b=1, gamma=1.0,
                                   epochs=31, seed=seed, schedule=ConstantTheta(1.0))
                recs = run_solver(problem, "stoc", cfg, ref=ref)
                assert recs[-1].passes >= 30.0
                gaps.append(recs[-1].objective_gap)
            stoc_meds.append(float(np.median(gaps)))
        medians["stoc"] = min(stoc_meds)
    ok = medians["asvrg_gc"] < medians["stoc"] and medians["asvrg_gc"] < medians["svrg"]
    report(
        7,
        "solver ordering at equal passes",
        ok,
        f"momentum={medians['asvrg_gc']:.3e} vs decaying-step={medians['stoc']:.3e} "
        f"vs constant-step={medians['svrg']:.3e}",
    )


def test_criterion_08_gradient_correctness():
    kinds = [
        LossKind.logistic(),
        LossKind.l2_logistic(0.01),
        LossKind.huberized_hinge(0.01, 0.5),
    ]
    data = tiny_dataset(n=30, dim=8, seed=77)
    rng = np.random.default_rng(78)
    worst = 0.0
    for kind in kinds:
        f = LossObjective(kind, data)
        for _ in range(100):
            x = rng.standard_normal(8)
            g = f.full_grad(x)
            fd = np.zeros(8)
            for j in range(8):
                e = np.zeros(8)
                e[j] = 1e-6
                fd[j] = (f.value(x + e) - f.value(x - e)) / 2e-6
            rel = np.linalg.norm(fd - g) / max(np.linalg.norm(g), 1.0)
            worst = max(worst, rel)
    report(8, "gradient correctness", worst <= 1e-5, f"worst relative error {worst:.2e}")


def test_criterion_09_prox_oracle():
    rng = np.random.default_rng(99)
    grid = np.arange(-4.0, 4.0, 1e-4)
    worst_grid = 0.0
    worst_resid = 0.0
    for _ in range(1000):
        lam1 = rng.uniform(0.005, 2.0)
        beta = rng.uniform(0.1, 4.0)
        p = rng.uniform(-3.0, 3.0)
        ours = y_update(Regularizer(lam1), np.array([p]), np.zeros(1), beta)[0]
        obj = lam1 * np.abs(grid) + 0.5 * beta * (p - grid) ** 2
        brute = grid[np.argmin(obj)]
        worst_grid = max(worst_grid, abs(ours - brute))
        # subgradient optimality on a random vector instance
        d = int(rng.integers(1, 10))
        Az = rng.standard_normal(d) * 2
        lam = rng.standard_normal(d)
        y = y_update(Regularizer(lam1), Az, lam, beta)
        resid = beta * (Az - y + lam)
        on = y != 0
        if on.any():
            worst_resid = max(worst_resid, float(np.abs(resid[on] - lam1 * np.sign(y[on])).max()))
        if (~on).any():
            worst_resid = max(worst_resid, float(np.maximum(np.abs(resid[~on]) - lam1, 0.0).max()))
    ok = worst_grid <= 2e-4 and worst_resid <= 1e-10
    report(
        9,
        "prox oracle",
        ok,
        f"worst grid deviation {worst_grid:.2e}, worst subgradient residual {worst_resid:.2e}",
    )


def test_criterion_10_rate_parameter_formulas():
    rng = np.random.default_rng(5)
    worst = 0.0
    checked = 0
    while checked < 20:
        d1 = int(rng.integers(3, 21))
        wide = rng.random() < 0.5
        if wide:
            d2 = int(rng.integers(2, d1 + 1))
            A = SparseMatrixCSR.from_dense(rng.standard_normal((d2, d1)))
        else:
            G = rng.standard_normal((int(rng.integers(1, 6)), d1))
            A = SparseMatrixCSR.from_dense(np.vstack([G, np.eye(d1)]))
        dense = A.to_dense()
        gram = dense @ dense.T if A.rows <= A.cols else dense.T @ dense
        eigs = np.linalg.eigvalsh(gram)
        if eigs.min() < 1e-6 * eigs.max():
            continue
        checked += 1
        sc = compute_spectral_constants(A)
        ata_dense = float(np.linalg.eigvalsh(dense.T @ dense).max())
        min_dense = float(eigs.min())
        mu = rng.uniform(0.005, 0.2)
        L = rng.uniform(0.5, 2.0)
        params = RateParams(mu=mu, L=L, ata_norm=sc.ata_norm, aat_min_eig=sc.aat_min_eig)
        dense_params = RateParams(mu=mu, L=L, ata_norm=ata_dense, aat_min_eig=min_dense)
        # beta*
        b1 = beta_star(params)
        b2 = beta_star(dense_params)
        worst = max(worst, abs(b1 - b2) / b2)
        # gamma_min
        theta = rng.uniform(0.1, 1.0)
        eta = rng.uniform(0.05, 0.4) / L
        g1 = gamma_min(eta, b1, theta, sc.ata_norm)
        g2 = gamma_min(eta, b2, theta, ata_dense)
        worst = max(worst, abs(g1 - g2) / g2)
        # rho: our theta*gamma shortcut against the dense spectral norm
        m = int(rng.integers(50, 500))
        cfg = SolverConfig(m=m, eta=eta, beta=b2, gamma=g2)
        ata = dense.T @ dense
        G_mat = g2 * np.eye(d1) - (eta * b2 / theta) * ata
        dense_norm = float(np.abs(np.linalg.eigvalsh(theta * G_mat + eta * b2 * ata)).max())
        rho_dense = (
            theta * dense_norm / (eta * m * mu)
            + (1 - theta)
            + L * theta / (b2 * m * min_dense)
        )
        rho_ours = rho_rate(theta, dense_params, cfg)
        worst = max(worst, abs(rho_ours - rho_dense) / max(rho_dense, 1.0))
        # theta*: formula agreement plus local minimality of rho(theta)
        n_samples = 400
        bsz = int(rng.integers(1, 40))
        floor = 2 * params.kappa + 2 * math.sqrt(params.kappa * params.omega)
        m_big = int(floor * rng.uniform(1.3, 3.0)) + 1
        t1, _a1, _e1 = optimal_theta_sc(m_big, bsz, n_samples, params)
        t2, _a2, e2 = optimal_theta_sc(m_big, bsz, n_samples, dense_params)
        worst = max(worst, abs(t1 - t2))
        auto_cfg = SolverConfig(m=m_big, eta=e2, beta=b2, gamma="auto")
        rho_mid = rho_rate(t2, dense_params, auto_cfg)
        for dtheta in (-0.05, 0.05):
            t = t2 + dtheta
            if t > 0:
                assert rho_rate(t, dense_params, auto_cfg) >= rho_mid - 1e-12
    report(
        10,
        "rate parameter formulas",
        worst <= 1e-8,
        f"{checked} instances, worst dual-path deviation {worst:.2e}",
    )
