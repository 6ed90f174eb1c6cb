"""Convergence criteria and evaluation: the Bregman-type optimality gap,
certified reference solutions, and test-set metrics."""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .errors import ConvergenceError
from .linalg import as_vector, spmv, spmv_t
from .losses import LossObjective
from .problem import ProblemSpec
from .prox import h_value
from .solvers import SolverConfig, batch_admm_epoch, init_batch_state

REFERENCE_MAX_ITER = 100000  # batch iterations of a reference solve
POLISH_MAX_ROUNDS = 30  # sign-pattern refinements of one polish attempt
POLISH_NEWTON_STEPS = 30  # Newton steps on one sign pattern


@dataclass(frozen=True, eq=False)
class ReferenceSolution:
    """A KKT-certified optimum of one problem instance.

    h_subgrad_star is the subgradient of h at y_star forced by the
    stationarity condition (beta * lambda_star for the identity coupling);
    its validity as a subgradient is part of the certified residual.
    """

    x_star: np.ndarray
    y_star: np.ndarray
    lambda_star: np.ndarray
    grad_f_star: np.ndarray
    h_subgrad_star: np.ndarray
    objective_star: float
    kkt_residual: float
    f_star: float
    h_star: float
    beta: float
    tol: float

    @classmethod
    def at(cls, problem: ProblemSpec, x, y, lam, beta: float, tol: float,
           kkt: float) -> "ReferenceSolution":
        """The reference at the triple (x, y, lam), whose KKT residual at beta
        is kkt; every other field is derived from the triple."""
        return cls(
            x_star=x,
            y_star=y,
            lambda_star=lam,
            grad_f_star=problem.f.full_grad(x),
            h_subgrad_star=beta * lam,
            objective_star=problem.objective(x),
            kkt_residual=kkt,
            f_star=problem.f.value(x),
            h_star=h_value(problem.reg, y),
            beta=beta,
            tol=tol,
        )


def kkt_residuals(problem: ProblemSpec, x, y, lam, beta: float) -> tuple[float, float, float]:
    """(stationarity in x, subgradient violation in y, feasibility).

    Stationarity: grad f(x) + beta A^T lam = 0. The y condition requires
    beta*lam to be a subgradient of h at y: |beta*lam_i| <= lambda1 where
    y_i = 0 and beta*lam_i = lambda1 * sign(y_i) elsewhere.
    """
    x = as_vector(x, problem.d1, "x")
    y = as_vector(y, problem.d2, "y")
    lam = as_vector(lam, problem.d2, "lambda")
    r_x = float(np.linalg.norm(problem.f.full_grad(x) + beta * spmv_t(problem.A, lam)))
    g = beta * lam
    lam1 = problem.reg.lambda1
    on = y != 0.0
    viol = np.zeros_like(y)
    viol[on] = np.abs(g[on] - lam1 * np.sign(y[on]))
    viol[~on] = np.maximum(np.abs(g[~on]) - lam1, 0.0)
    r_y = float(viol.max()) if len(viol) else 0.0
    r_feas = float(np.linalg.norm(spmv(problem.A, x) - y))
    return r_x, r_y, r_feas


def _constrained_newton(problem: ProblemSpec, sign_pattern, x0, nu0):
    """Newton on  min f(x) + lambda1 * s^T (Ax)_S  s.t. (Ax)_Z = 0,
    where Z is the zero set of sign_pattern. Returns (x, nu, y, beta*lam)."""
    A_sp = problem.A.csr
    lam1 = problem.reg.lambda1
    d1, d2 = problem.d1, problem.d2
    zero_set = np.where(sign_pattern == 0.0)[0]
    support = np.where(sign_pattern != 0.0)[0]
    signs = sign_pattern[support]
    nz = len(zero_set)
    AZ = A_sp[zero_set].toarray()
    g_pen = lam1 * (A_sp[support].T @ signs)
    x = np.asarray(x0, dtype=np.float64).copy()
    nu = np.asarray(nu0, dtype=np.float64).copy()
    for _ in range(POLISH_NEWTON_STEPS):
        grad = problem.f.full_grad(x) + g_pen
        grad_stat = grad + AZ.T @ nu
        feas = AZ @ x
        if max(np.abs(grad_stat).max(), np.abs(feas).max(initial=0.0)) <= 1e-14:
            break
        H = problem.f.hessian(x)
        M = np.block([[H, AZ.T], [AZ, np.zeros((nz, nz))]])
        rhs = np.concatenate([-grad, -feas])
        try:
            sol = np.linalg.solve(M, rhs)
        except np.linalg.LinAlgError:
            sol = np.linalg.lstsq(M, rhs, rcond=None)[0]
        x = x + sol[:d1]
        nu = sol[d1:]
    beta_lam = np.zeros(d2)
    beta_lam[support] = lam1 * signs
    beta_lam[zero_set] = nu
    y = np.asarray(A_sp @ x)
    y[zero_set] = 0.0
    return x, nu, y, beta_lam


def _polish(problem: ProblemSpec, x0, y0, lam0, beta: float, failed):
    """Active-set Newton refinement of a nearly converged triple.

    Near the optimum the problem reduces to a smooth equality-constrained
    one on the identified support/sign pattern of y, which Newton solves to
    machine precision. The pattern itself is refined primal-dually: support
    components whose polished sign flips are demoted to the zero set, zero
    components whose multiplier escapes [-lambda1, lambda1] are released
    with the multiplier's sign. The attempt ends with the current candidate
    when the refinement returns a pattern it has already solved: the same
    pattern means it settled; an earlier one means it cycles, and since
    each Newton solve lands on the minimiser of its pattern's subspace,
    the next pattern depends only on the current one, so the remaining
    rounds would only replay that cycle. By the same argument the attempt
    ends with no candidate before it solves a pattern in `failed` (the
    patterns of earlier attempts whose candidates failed): from there it
    would replay that failure. POLISH_MAX_ROUNDS bounds a sequence that
    never repeats. Returns (candidate (x, y, lam) or None, the set of
    patterns solved). The caller accepts a candidate only after the full
    KKT check, so a bad pattern merely wastes the attempt.
    """
    lam1 = problem.reg.lambda1
    d2 = problem.d2
    if lam1 == 0.0:
        # no l1 term: unconstrained stationarity, all duals zero
        x, _nu, y, _bl = _constrained_newton(problem, np.ones(d2), x0, np.zeros(0))
        return (x, y, np.zeros(d2)), set()
    pattern = np.sign(y0)
    x = np.asarray(x0, dtype=np.float64).copy()
    nu = beta * lam0[pattern == 0.0]
    solved = set()
    for _ in range(POLISH_MAX_ROUNDS):
        if pattern.tobytes() in failed:
            return None, solved
        solved.add(pattern.tobytes())
        x, nu, y, beta_lam = _constrained_newton(problem, pattern, x, nu)
        zero_set = np.where(pattern == 0.0)[0]
        support = np.where(pattern != 0.0)[0]
        new_pattern = pattern.copy()
        flipped = support[np.sign(y[support]) != pattern[support]]
        new_pattern[flipped] = 0.0
        released = zero_set[np.abs(beta_lam[zero_set]) > lam1]
        new_pattern[released] = np.sign(beta_lam[released])
        if new_pattern.tobytes() in solved:
            break
        pattern = new_pattern
        nu = beta_lam[pattern == 0.0]
    return (x, y, beta_lam / beta), solved


def compute_reference(
    problem: ProblemSpec,
    tol: float = 1e-10,
    beta: float = 0.1,
) -> ReferenceSolution:
    """Solve the instance to KKT residual <= tol with the batch solver.

    The x-subproblems are solved tightly enough to track the outer
    progress. Because the plain dual iteration can crawl on weakly
    regularized instances, an active-set Newton polish is attempted once
    the residual is small; every candidate (polished or not) must pass the
    full KKT check at tol before it is returned. The sign patterns solved
    by an attempt whose candidate failed (or that reached such a pattern)
    end every later attempt that reaches one of them; an attempt that
    raised LinAlgError adds none.
    """
    if not 0 < tol < np.inf:
        raise ValueError("tol must be finite and > 0")
    inner_floor = min(tol * 3e-2, 1e-12)
    config = SolverConfig(m=1, eta=1.0, beta=beta, inner_tol=inner_floor, epochs=0)
    state = init_batch_state(problem, config)
    kkt = np.inf
    failed = set()
    for it in range(1, REFERENCE_MAX_ITER + 1):
        inner = float(np.clip(1e-3 * kkt, inner_floor, 1e-6)) if np.isfinite(kkt) else 1e-6
        config = SolverConfig(m=1, eta=1.0, beta=beta, inner_tol=inner, epochs=0)
        batch_admm_epoch(state, problem, config)
        x, y, lam = state.x, state.y, state.lam
        kkt = max(kkt_residuals(problem, x, y, lam, beta))
        if kkt <= tol:
            break
        if kkt <= 1e-2 and it % 25 == 0:
            try:
                candidate, solved = _polish(problem, state.x, state.y, state.lam, beta, failed)
            except np.linalg.LinAlgError:
                continue
            if candidate is not None:
                xp, yp, lp = candidate
                kkt_p = max(kkt_residuals(problem, xp, yp, lp, beta))
                if kkt_p <= tol:
                    x, y, lam, kkt = xp, yp, lp, kkt_p
                    break
            failed |= solved
    else:
        raise ConvergenceError(
            f"reference solve stalled at KKT residual {kkt:.3e} "
            f"after {REFERENCE_MAX_ITER} iterations",
            best_estimate=state.x,
            iterations=REFERENCE_MAX_ITER,
        )
    return ReferenceSolution.at(problem, x, y, lam, beta, tol, kkt)


def p_criterion(x, y, ref: ReferenceSolution, problem: ProblemSpec) -> float:
    """Bregman-type optimality gap

        P(x, y) = f(x) - f(x*) - <grad f(x*), x - x*>
                  + h(y) - h(y*) - <h'(y*), y - y*>

    Non-negative for every (x, y) by convexity, zero at the optimum, up to
    the accuracy of the reference.
    """
    if ref is None:
        raise ValueError("missing reference solution")
    x = as_vector(x, problem.d1, "x")
    y = as_vector(y, problem.d2, "y")
    p_f = problem.f.value(x) - ref.f_star - float(ref.grad_f_star @ (x - ref.x_star))
    p_h = h_value(problem.reg, y) - ref.h_star - float(ref.h_subgrad_star @ (y - ref.y_star))
    return p_f + p_h


def evaluate(x, f: LossObjective) -> tuple[float, float]:
    """Mean loss f(x) and sign accuracy of x on the samples of f.

    A zero margin counts as an error, which keeps accuracy deterministic.
    """
    loss = f.value(x)
    accuracy = float(np.mean(f.margins(x) > 0.0))
    return loss, accuracy


GAP_FLOOR = 1e-12  # traces clamp gaps here so log plots stay finite


@dataclass(frozen=True)
class TraceRecord:
    """One per-epoch row of a solver trace.

    passes counts per-sample gradient evaluations divided by n;
    wall_seconds is cumulative time spent inside the solver only.
    objective_gap is clamped below at GAP_FLOOR.
    """

    epoch: int
    wall_seconds: float
    passes: float
    objective: float
    objective_gap: float
    p_criterion: float
    constraint_violation: float
    test_loss: float
    test_accuracy: float
    theta: float
    sup_z: float
    sup_lambda: float

    def to_row(self) -> str:
        vals = [getattr(self, f.name) for f in fields(self)]
        return ",".join(str(vals[0]) if i == 0 else repr(float(v)) for i, v in enumerate(vals))

    @classmethod
    def from_row(cls, row: str) -> "TraceRecord":
        parts = row.strip().split(",")
        names = [f.name for f in fields(cls)]
        if len(parts) != len(names):
            raise ValueError(f"expected {len(names)} columns, got {len(parts)}")
        return cls(int(parts[0]), *(float(p) for p in parts[1:]))


CSV_HEADER = ",".join(f.name for f in fields(TraceRecord))
