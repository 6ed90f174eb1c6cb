from dataclasses import fields

import numpy as np
import pytest

import sadmm.metrics
from sadmm.datasets import make_classification
from sadmm.errors import ConvergenceError
from sadmm.harness import build_graph_matrix
from sadmm.linalg import SparseMatrixCSR, spmv, spmv_t
from sadmm.losses import LossKind, LossObjective
from sadmm.metrics import (
    GAP_FLOOR,
    TraceRecord,
    _polish,
    compute_reference,
    evaluate,
    kkt_residuals,
    p_criterion,
)
from sadmm.problem import ProblemSpec
from sadmm.prox import Regularizer

from helpers import dataset_from_rows, quadratic_problem, tiny_dataset


def logistic_problem(n=40, dim=6, seed=0, lambda1=0.01, lambda2=0.02):
    data = tiny_dataset(n=n, dim=dim, seed=seed)
    kind = LossKind.l2_logistic(lambda2) if lambda2 else LossKind.logistic()
    rng = np.random.default_rng(seed + 50)
    A = SparseMatrixCSR.from_dense(np.vstack([rng.standard_normal((2, dim)), np.eye(dim)]))
    return ProblemSpec(LossObjective(kind, data), Regularizer(lambda1), A)


class TestComputeReference:
    def test_ridge_closed_form(self):
        # lambda1 = 0, A = I: minimizing the quadratic oracle alone
        centers = np.random.default_rng(1).standard_normal((10, 3))
        problem = quadratic_problem(centers, q=2.0, lambda1=0.0)
        ref = compute_reference(problem, tol=1e-8)
        assert np.allclose(ref.x_star, centers.mean(axis=0), atol=1e-8)
        assert np.allclose(ref.lambda_star, 0.0, atol=1e-8)

    def test_without_l1_the_polish_solves_the_unconstrained_problem(self, monkeypatch):
        # lambda1 = 0: the polish skips the sign patterns and its one Newton
        # solve certifies with every dual zero
        data = make_classification(300, 10, seed=1)
        reg, A = Regularizer(0.0), build_graph_matrix(data, 0.9)
        problem = ProblemSpec(LossObjective(LossKind.l2_logistic(0.01), data), reg, A)
        attempts = []

        def recorded_polish(*args):
            attempts.append(_polish(*args))
            return attempts[-1]

        monkeypatch.setattr(sadmm.metrics, "_polish", recorded_polish)
        ref = compute_reference(problem, tol=1e-10)
        assert len(attempts) == 1
        (x, y, lam), solved = attempts[0]
        assert solved == set() and not lam.any()
        assert ref.x_star.tobytes() == x.tobytes() and ref.y_star.tobytes() == y.tobytes()
        assert not ref.lambda_star.any()
        assert ref.kkt_residual <= 1e-15

    def test_stall_raises_with_the_last_iterate(self, monkeypatch):
        # two batch iterations leave the KKT residual near 9e-2
        data = make_classification(300, 10, seed=1)
        A = build_graph_matrix(data, 0.9)
        problem = ProblemSpec(LossObjective(LossKind.logistic(), data), Regularizer(1e-3), A)
        monkeypatch.setattr(sadmm.metrics, "REFERENCE_MAX_ITER", 2)
        with pytest.raises(ConvergenceError, match="stalled at KKT residual 9.1") as err:
            compute_reference(problem, tol=1e-10)
        x = err.value.best_estimate
        assert x.shape == (problem.d1,) and np.isfinite(x).all() and x.any()

    def test_kkt_residuals_certified(self):
        problem = logistic_problem()
        ref = compute_reference(problem, tol=1e-10)
        assert ref.kkt_residual <= 1e-10
        r = kkt_residuals(problem, ref.x_star, ref.y_star, ref.lambda_star, ref.beta)
        assert max(r) <= 1e-10
        assert ref.kkt_residual == max(r)  # derived from the triple, not carried
        assert np.linalg.norm(spmv(problem.A, ref.x_star) - ref.y_star) <= 1e-10

    def test_tol_monotonicity(self):
        problem = logistic_problem(seed=3)
        loose = compute_reference(problem, tol=1e-6)
        tight = compute_reference(problem, tol=1e-10)
        assert tight.objective_star <= loose.objective_star + 1e-6

    def test_subgradient_forced_by_stationarity(self):
        problem = logistic_problem(seed=4)
        ref = compute_reference(problem, tol=1e-10)
        assert np.allclose(ref.h_subgrad_star, ref.beta * ref.lambda_star)
        lam1 = problem.reg.lambda1
        assert np.all(np.abs(ref.h_subgrad_star) <= lam1 + 1e-10)

    def test_invalid_tol(self):
        with pytest.raises(ValueError):
            compute_reference(logistic_problem(), tol=0.0)


def _thirty_round_polish(problem, x0, y0, lam0, beta, _failed, max_rounds=30):
    # the polish loop before it stopped at a revisited sign pattern or at a
    # pattern of a failed attempt: the oracle the faster polish must
    # reproduce through compute_reference; it keeps no patterns
    lam1 = problem.reg.lambda1
    d2 = problem.d2
    newton = sadmm.metrics._constrained_newton
    if lam1 == 0.0:
        x, _nu, y, _bl = newton(problem, np.ones(d2), x0, np.zeros(0))
        return (x, y, np.zeros(d2)), set()
    pattern = np.sign(y0)
    x = np.asarray(x0, dtype=np.float64).copy()
    nu = beta * lam0[pattern == 0.0]
    for _ in range(max_rounds):
        x, nu, y, beta_lam = newton(problem, pattern, x, nu)
        zero_set = np.where(pattern == 0.0)[0]
        support = np.where(pattern != 0.0)[0]
        new_pattern = pattern.copy()
        flipped = support[np.sign(y[support]) != pattern[support]]
        new_pattern[flipped] = 0.0
        released = zero_set[np.abs(beta_lam[zero_set]) > lam1]
        new_pattern[released] = np.sign(beta_lam[released])
        if np.array_equal(new_pattern, pattern):
            return (x, y, beta_lam / beta), set()
        pattern = new_pattern
        nu = beta_lam[pattern == 0.0]
    return (x, y, beta_lam / beta), set()


def _criterion_07_problem():
    data = make_classification(2000, 60, seed=23, label_noise=0.3)
    A = build_graph_matrix(data, 0.9)
    return ProblemSpec(LossObjective(LossKind.logistic(), data), Regularizer(1e-5), A)


_E = np.eye(8)  # sign patterns of logistic_problem(), whose A has 8 rows


def _refining_newton(lam1, successor, attempts, raise_at=None):
    # a fake Newton solve whose candidate refines to successor(pattern): a
    # support sign survives only where y keeps it, and a zero component is
    # released with its multiplier's sign past lambda1; it records each
    # pattern in the current attempt and raises at call number raise_at
    def fake(_problem, pattern, x0, _nu0):
        attempts[-1].append(pattern.tobytes())
        if sum(map(len, attempts)) == raise_at:
            raise np.linalg.LinAlgError("scripted")
        nxt = successor(pattern)
        on = pattern != 0.0
        y = np.where(on, np.where(nxt == pattern, pattern, -pattern), 0.0)
        beta_lam = np.where(on, lam1 * pattern, 2.0 * lam1 * nxt)
        return np.asarray(x0).copy(), beta_lam[~on], y, beta_lam

    return fake


class TestPolish:
    @pytest.mark.parametrize(
        "build, tol, max_solves",
        [(_criterion_07_problem, 1e-10, 12), (lambda: logistic_problem(seed=0), 1e-10, None),
         (lambda: logistic_problem(seed=9, lambda2=0.0), 1e-8, None)],
        ids=["criterion-07", "logistic-seed0", "logistic-seed9"],
    )
    def test_reference_equals_thirty_round_polish(self, monkeypatch, build, tol, max_solves):
        problem = build()
        attempts = []
        polish, newton = sadmm.metrics._polish, sadmm.metrics._constrained_newton

        def counted_polish(*args, **kwargs):
            attempts.append([])
            return polish(*args, **kwargs)

        def counted_newton(problem, sign_pattern, *args, **kwargs):
            attempts[-1].append(sign_pattern.tobytes())
            return newton(problem, sign_pattern, *args, **kwargs)

        with monkeypatch.context() as m:
            m.setattr(sadmm.metrics, "_polish", counted_polish)
            m.setattr(sadmm.metrics, "_constrained_newton", counted_newton)
            fast = compute_reference(problem, tol=tol)
        with monkeypatch.context() as m:
            m.setattr(sadmm.metrics, "_polish", _thirty_round_polish)
            slow = compute_reference(problem, tol=tol)
        for f in fields(slow):
            a, b = getattr(fast, f.name), getattr(slow, f.name)
            if isinstance(b, np.ndarray):
                assert a.tobytes() == b.tobytes(), f.name
            else:
                assert a == b, f.name
        assert attempts
        for solved in attempts:
            assert len(solved) == len(set(solved))
        if max_solves is not None:
            assert sum(map(len, attempts)) <= max_solves

    @pytest.mark.parametrize(
        "script, calls",
        [
            ([_E[0]] + [_E[1], _E[1] - _E[2]] * 16, 3),  # P0 -> P1 -> P2 -> P1
            ([_E[0]] + [-_E[1]] * 31, 2),  # P0 -> P1 -> P1 settles
            # the binary digits of 1, 2, ...: each step only demotes or releases
            ([(k >> np.arange(8) & 1).astype(np.float64) for k in range(1, 33)], 30),
        ],
        ids=["cycle", "settled", "distinct"],
    )
    def test_attempt_ends_at_a_solved_pattern(self, monkeypatch, script, calls):
        # a fake Newton solve whose candidate refines to the next pattern of
        # the script: a support sign survives only where y keeps it, and a
        # zero component is released with its multiplier's sign past lambda1
        problem = logistic_problem()  # d2 = 8
        lam1 = problem.reg.lambda1
        outputs = []

        def fake_newton(_problem, pattern, x0, _nu0):
            step = len(outputs)
            assert np.array_equal(pattern, script[step])
            nxt = script[step + 1]
            on = pattern != 0.0
            y = np.where(on, np.where(nxt == pattern, pattern, -pattern), 0.0)
            beta_lam = np.where(on, lam1 * pattern, 2.0 * lam1 * nxt)
            outputs.append((np.asarray(x0) + step, beta_lam[~on], y, beta_lam))
            return outputs[-1]

        monkeypatch.setattr(sadmm.metrics, "_constrained_newton", fake_newton)
        x0, y0 = np.zeros(problem.d1), script[0].copy()
        (x, y, lam), _solved = _polish(problem, x0, y0, np.zeros(problem.d2), 0.5, set())
        assert len(outputs) == calls
        x_last, _nu, y_last, beta_lam = outputs[-1]
        assert x is x_last and y is y_last and np.array_equal(lam, beta_lam / 0.5)

    def test_only_zero_components_are_released(self, monkeypatch):
        # a support sign follows y alone: a support multiplier past lambda1
        # (-2 lambda1 on the one support component, whose y keeps its sign)
        # releases nothing, so the pattern settles after one solve
        problem = logistic_problem()  # d2 = 8
        lam1, calls = problem.reg.lambda1, []

        def fake_newton(_problem, pattern, x0, _nu0):
            calls.append(pattern.tobytes())
            on = pattern != 0.0
            beta_lam = np.where(on, -2.0 * lam1 * pattern, 0.5 * lam1)
            return np.asarray(x0).copy(), beta_lam[~on], pattern.copy(), beta_lam

        monkeypatch.setattr(sadmm.metrics, "_constrained_newton", fake_newton)
        x0, lam0 = np.zeros(problem.d1), np.zeros(problem.d2)
        candidate, solved = _polish(problem, x0, _E[0].copy(), lam0, 0.5, set())
        assert candidate is not None
        assert calls == [_E[0].tobytes()] and solved == set(calls)

    @pytest.mark.parametrize("k", [0, 2], ids=["starts-on-failed", "reaches-failed"])
    def test_attempt_ends_before_a_failed_pattern(self, monkeypatch, k):
        # P0 -> P1 -> P2 -> P3 -> P4 settles; with P_k failed the attempt
        # stops after k solves and hands back no candidate to KKT-check
        problem = logistic_problem()  # d2 = 8
        script = [_E[0], _E[1], _E[1] + _E[2], _E[2], _E[2] + _E[3]]
        nxt = {a.tobytes(): b for a, b in zip(script, script[1:] + script[-1:])}
        attempts = [[]]
        fake = _refining_newton(problem.reg.lambda1, lambda p: nxt[p.tobytes()], attempts)
        monkeypatch.setattr(sadmm.metrics, "_constrained_newton", fake)
        x0, lam0 = np.zeros(problem.d1), np.zeros(problem.d2)
        candidate, solved = _polish(problem, x0, script[0], lam0, 0.5, set())
        assert candidate is not None and len(attempts[0]) == 5
        attempts[0].clear()
        candidate, solved = _polish(problem, x0, script[0], lam0, 0.5, {script[k].tobytes()})
        assert candidate is None
        assert attempts[0] == [p.tobytes() for p in script[:k]]
        assert solved == set(attempts[0])

    @pytest.mark.parametrize(
        "raise_at, solves", [(None, [3, 0, 0]), (3, [3, 3, 0])], ids=["kkt-failure", "linalg-error"]
    )
    def test_failed_attempts_stop_later_ones(self, monkeypatch, raise_at, solves):
        # every attempt on this instance starts on the batch iterate's sign
        # pattern S; the scripted refinement runs S -> 0 -> e0 -> 0, a cycle
        # whose candidate fails the KKT check. The patterns of a failed
        # attempt stop the later ones at their first pattern; those of an
        # attempt that raised LinAlgError do not
        problem = logistic_problem(seed=3)
        attempts = []
        polish = sadmm.metrics._polish

        def counted_polish(*args, **kwargs):
            attempts.append([])
            return polish(*args, **kwargs)

        def successor(pattern):
            return _E[0] if not pattern.any() else np.zeros(8)

        fake = _refining_newton(problem.reg.lambda1, successor, attempts, raise_at)
        monkeypatch.setattr(sadmm.metrics, "_polish", counted_polish)
        monkeypatch.setattr(sadmm.metrics, "_constrained_newton", fake)
        ref = compute_reference(problem, tol=1e-10)
        assert ref.kkt_residual <= 1e-10
        assert [len(a) for a in attempts] == solves
        assert attempts[0][1:] == [np.zeros(8).tobytes(), _E[0].tobytes()]
        assert all(a == attempts[0] for a in attempts if a)


class TestConstrainedNewton:
    def test_solves_the_stationarity_of_its_pattern(self):
        # the Newton solve on the pattern s with zero set Z lands on
        # grad f(x) + A^T (beta lam) = 0 with beta lam = lambda1 s off Z,
        # the multipliers nu on Z, and (Ax)_Z = 0
        problem = logistic_problem()  # d2 = 8: two graph rows, then I
        lam1 = problem.reg.lambda1
        pattern = np.array([1.0, -1.0, 0.0, -1.0, 0.0, 1.0, 0.0, -1.0])
        zero = pattern == 0.0
        x, nu, y, beta_lam = sadmm.metrics._constrained_newton(
            problem, pattern, np.zeros(problem.d1), np.zeros(3)
        )
        assert beta_lam[~zero].tobytes() == (lam1 * pattern[~zero]).tobytes()
        assert beta_lam[zero].tobytes() == nu.tobytes()
        Ax = spmv(problem.A, x)
        assert y[~zero].tobytes() == Ax[~zero].tobytes() and not y[zero].any()
        assert np.abs(Ax[zero]).max() <= 1e-14
        assert np.linalg.norm(problem.f.full_grad(x) + spmv_t(problem.A, beta_lam)) <= 1e-13

    def test_pattern_products_equal_the_support_row_gathers(self):
        # A^T s through spmv_t equals the product of the support rows alone
        # bit for bit: a zero-set row adds +-0.0 terms, which leave a nonzero
        # sum unchanged and a zero sum at +0.0
        A = _criterion_07_problem().A
        rng = np.random.default_rng(5)
        for density in (0.0, 0.1, 0.5, 1.0):
            pattern = np.sign(rng.standard_normal(A.rows)) * (rng.random(A.rows) < density)
            support = np.where(pattern != 0.0)[0]
            gathered = A.csr[support].T @ pattern[support]
            assert spmv_t(A, pattern).tobytes() == gathered.tobytes()
        x = rng.standard_normal(A.cols)
        assert spmv(A, x).tobytes() == np.asarray(A.csr @ x).tobytes()


def test_reference_forms_margins_once_per_point(monkeypatch):
    # the criterion-07 reference at tol 1e-10 forms the full-data margins
    # 358 times; it formed them 1382 times when each value, gradient,
    # curvature and Hessian formed its own
    import sadmm.losses

    problem = _criterion_07_problem()
    calls = []
    margins = sadmm.losses._margins

    def counted(data, x):
        calls.append(1)
        return margins(data, x)

    monkeypatch.setattr(sadmm.losses, "_margins", counted)
    compute_reference(problem, tol=1e-10)
    assert len(calls) <= 0.3 * 1382


class TestPCriterion:
    def test_zero_at_reference(self):
        problem = logistic_problem(seed=5)
        ref = compute_reference(problem, tol=1e-10)
        assert abs(p_criterion(ref.x_star, ref.y_star, ref, problem)) <= 1e-12

    def test_bregman_along_x(self):
        # at y = y*, the criterion reduces to the Bregman divergence of f
        problem = logistic_problem(seed=6)
        ref = compute_reference(problem, tol=1e-10)
        rng = np.random.default_rng(7)
        for _ in range(20):
            x = ref.x_star + rng.standard_normal(problem.d1)
            expected = (
                problem.f.value(x)
                - ref.f_star
                - float(ref.grad_f_star @ (x - ref.x_star))
            )
            assert p_criterion(x, ref.y_star, ref, problem) == pytest.approx(expected, abs=1e-12)
            assert expected >= -1e-12

    def test_hand_quadratic(self):
        # 1-D: f = (q/2)(x - c)^2 so the Bregman term is (q/2)(x - x*)^2
        centers = np.array([[2.0]])
        problem = quadratic_problem(centers, q=3.0, lambda1=0.0)
        ref = compute_reference(problem, tol=1e-10)
        x = np.array([5.0])
        got = p_criterion(x, ref.y_star, ref, problem)
        assert got == pytest.approx(0.5 * 3.0 * (5.0 - ref.x_star[0]) ** 2, rel=1e-9)

    def test_nonnegative_over_random_pairs(self):
        problem = logistic_problem(seed=8)
        ref = compute_reference(problem, tol=1e-10)
        rng = np.random.default_rng(9)
        worst = 0.0
        for _ in range(10_000):
            x = rng.standard_normal(problem.d1) * 2
            y = rng.standard_normal(problem.d2) * 2
            worst = min(worst, p_criterion(x, y, ref, problem))
        assert worst >= -10 * ref.tol

    def test_missing_reference(self):
        problem = logistic_problem(seed=10)
        with pytest.raises(ValueError):
            p_criterion(np.zeros(problem.d1), np.zeros(problem.d2), None, problem)


class TestEvaluate:
    def test_zero_vector_logistic(self):
        data = tiny_dataset(n=9, dim=4, seed=11)
        loss, acc = evaluate(np.zeros(4), LossObjective(LossKind.logistic(), data))
        assert loss == pytest.approx(np.log(2))
        assert acc == 0.0  # zero margins count as errors

    def test_separable_perfect_accuracy(self):
        data = dataset_from_rows([{0: 1.0}, {0: -2.0}], [1, -1], dim=1)
        _loss, acc = evaluate(np.array([1.0]), LossObjective(LossKind.logistic(), data))
        assert acc == 1.0

    def test_hand_loss(self):
        data = dataset_from_rows([{0: 1.0}, {0: 1.0}, {0: 2.0}], [1, -1, 1], dim=1)
        x = np.array([0.5])
        margins = np.array([0.5, -0.5, 1.0])
        expected = float(np.mean(np.log1p(np.exp(-margins))))
        loss, acc = evaluate(x, LossObjective(LossKind.logistic(), data))
        assert loss == pytest.approx(expected, rel=1e-12)
        assert acc == pytest.approx(2.0 / 3.0)

    def test_empty_test_set_rejected(self):
        # the test-set objective refuses an empty set before any row is traced
        empty = dataset_from_rows([], [], dim=1)
        with pytest.raises(ValueError, match="empty"):
            evaluate(np.zeros(1), LossObjective(LossKind.logistic(), empty))


class TestTraceRecord:
    def test_row_round_trip(self):
        rec = TraceRecord(
            epoch=3,
            wall_seconds=0.125,
            passes=5.5,
            objective=0.6931471805599453,
            objective_gap=1e-7,
            p_criterion=2e-7,
            constraint_violation=3.3e-9,
            test_loss=0.5,
            test_accuracy=0.875,
            theta=0.618,
            sup_z=1.25,
            sup_lambda=0.5,
        )
        back = TraceRecord.from_row(rec.to_row())
        assert back == rec  # repr round-trips floats exactly

    def test_bad_row(self):
        with pytest.raises(ValueError):
            TraceRecord.from_row("1,2,3")

    def test_gap_floor_constant(self):
        assert GAP_FLOOR == 1e-12
