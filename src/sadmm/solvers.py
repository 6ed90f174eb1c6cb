"""ADMM solvers: batch, decaying-step stochastic, and variance-reduced
variants with and without momentum.

All solvers address  min f(x) + h(y)  s.t.  Ax - y = 0.

The variance-reduced solvers run in epochs: a snapshot full gradient is
taken, then m inner iterations update (y, z, x, lambda), where z is an
auxiliary iterate and x = (1-theta) x_snap + theta z mixes the snapshot
with z through the momentum weight theta. The z step linearizes both the
smooth part (through the snapshot-corrected stochastic gradient) and the
quadratic penalty (through the metric G = gamma I - (eta beta / theta)
A^T A, the inexact-Uzawa trick that removes the A^T A solve):

    z_k = z_{k-1} - eta (g_k + beta A^T (A z_{k-1} - y_k + lambda_{k-1}))
                    / (gamma theta)

One epoch function, vr_admm_epoch, runs all three variance-reduced
solvers; the momentum schedule in the config selects the regime: a
constant theta (strongly convex case, geometric rate) or a decaying theta
with (1-theta_s)/theta_s^2 = 1/theta_{s-1}^2 (general convex case,
accelerated sublinear rate). The momentum-free SVRG-ADMM baseline is the
constant schedule at theta = 1, where x = z.

The stochastic loops draw all their batches in one call when an epoch (or
a stoc trace row) starts, since every draw is a pure function of (seed,
epoch, k), and gather them once with f.batch_plan; each inner step then
pays only for the gradient work that depends on its point.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse.linalg

from .errors import ConfigError, ConvergenceError
# nothing here calls solve_aat (the dual reads A.ata_eig) or vr_gradient
# (vr_admm_epoch runs its batch-plan form); the names stay in this module,
# where perfbench/tracing.py patches them
from .linalg import solve_aat, spmv, spmv_t  # noqa: F401
from .problem import ProblemSpec
from .prox import y_update
from .vr import BatchSampler, Snapshot, delta_b, vr_gradient  # noqa: F401


# ---------------------------------------------------------------------------
# configuration

NEWTON_MAX_ITER = 100  # Newton steps of the batch x-subproblem


@dataclass(frozen=True)
class ConstantTheta:
    theta: float


@dataclass(frozen=True)
class DecayingTheta:
    theta0: float | None = None  # None: computed from (L, eta, b) at init


@dataclass(frozen=True)
class SolverConfig:
    """Step sizes, penalty, batch size and schedule for one solver run."""

    m: int
    eta: float
    beta: float
    b: int = 1
    gamma: float | str = "auto"  # "auto" resolves to gamma_min each epoch
    epochs: int = 20
    seed: int = 0
    schedule: ConstantTheta | DecayingTheta = ConstantTheta(1.0)
    inner_tol: float = 1e-10  # gradient tolerance of the batch x-subproblem

    def __post_init__(self):
        if self.m < 1:
            raise ConfigError("m must be >= 1")
        if not 0 < self.eta < math.inf:
            raise ConfigError("eta must be finite and > 0")
        if not 0 < self.beta < math.inf:
            raise ConfigError("beta must be finite and > 0")
        if self.b < 1:
            raise ConfigError("b must be >= 1")
        if self.epochs < 0:
            raise ConfigError("epochs must be >= 0")
        if isinstance(self.gamma, str):
            if self.gamma != "auto":
                raise ConfigError("gamma must be a positive number or 'auto'")
        elif not 0 < self.gamma < math.inf:
            raise ConfigError("gamma must be finite and > 0")
        if not 0 < self.inner_tol < math.inf:
            raise ConfigError("inner_tol must be finite and > 0")


@dataclass(kw_only=True)
class BatchState:
    """Mutable per-run state of the batch solver: the current (x, y, lam)
    and the traced counters. sup_z / sup_lambda record the largest infinity
    norms of the inner primal and dual iterates seen during the last trace
    row, for auditing the bounded-domain assumption of the sublinear-rate
    analysis."""

    x: np.ndarray
    y: np.ndarray
    lam: np.ndarray
    epoch: int = 0
    theta: float = 1.0
    grad_evals: int = 0  # per-sample gradient evaluations so far
    sup_z: float = 0.0
    sup_lambda: float = 0.0


@dataclass(kw_only=True)
class StocState(BatchState):
    """Decaying-step stochastic solver state: the iterates and the running
    averages it traces. Each step evaluates one sample, so grad_evals is
    also the global step counter."""

    x_bar: np.ndarray
    y_bar: np.ndarray


@dataclass(kw_only=True)
class VRState(BatchState):
    """Variance-reduced solver state. The tilde fields and the snapshot are
    the per-epoch outputs carried across epochs; (z, x, y, lam) are the
    last inner iterates of the most recent epoch, and z is the carried z
    when theta decays."""

    z: np.ndarray
    snapshot: Snapshot
    y_tilde: np.ndarray
    lambda_tilde: np.ndarray


def _sup(v: np.ndarray) -> float:
    return float(np.max(np.abs(v))) if len(v) else 0.0


def _require_finite(*vecs):
    for v in vecs:
        if not np.all(np.isfinite(v)):
            raise ConvergenceError("solver diverged: non-finite iterate")


# ---------------------------------------------------------------------------
# momentum schedule and rate parameters


def theta_next(theta_prev: float) -> float:
    """Next momentum weight: the positive root of
    theta^2 + theta*theta_prev^2 - theta_prev^2 = 0, so that
    (1 - theta)/theta^2 = 1/theta_prev^2 holds with equality."""
    if not 0.0 < theta_prev <= 1.0:
        raise ValueError(f"theta_prev must be in (0, 1], got {theta_prev}")
    return 0.5 * (theta_prev * math.sqrt(theta_prev * theta_prev + 4.0) - theta_prev * theta_prev)


def gamma_min(eta: float, beta: float, theta: float, ata_norm: float) -> float:
    """Smallest gamma keeping the proximal metric G = gamma I -
    (eta beta/theta) A^T A at or above the identity."""
    if not 0 < theta < math.inf:
        raise ValueError("theta must be finite and > 0")
    if not (0 <= eta < math.inf and 0 <= beta < math.inf and 0 <= ata_norm < math.inf):
        raise ValueError("eta, beta and ata_norm must be finite and >= 0")
    return eta * beta * ata_norm / theta + 1.0


@dataclass(frozen=True)
class RateParams:
    """The four constants of the rate formulas: mu strong convexity, L =
    max_i L_i, ||A^T A||_2 and sigma_min, the smallest Gram eigenvalue of A;
    kappa = L/mu, and omega = ||A^T A||_2 / sigma_min is the Gram condition
    ratio of A. The paper's formulas also use the smoothness L_f of the
    averaged f; L_f <= L, and L stands in for it."""

    mu: float
    L: float
    ata_norm: float
    aat_min_eig: float

    def __post_init__(self):
        if not 0 < self.mu < math.inf:
            raise ConfigError("mu must be finite and > 0 for the geometric-rate formulas")
        if not 0 < self.aat_min_eig < math.inf:
            raise ConfigError("sigma_min must be finite and > 0")
        if not (1 <= self.kappa < math.inf and 1 <= self.omega < math.inf):
            raise ConfigError("kappa and omega must both be finite and >= 1")

    @property
    def kappa(self) -> float:
        return self.L / self.mu

    @property
    def omega(self) -> float:
        return self.ata_norm / self.aat_min_eig

    @classmethod
    def from_problem(cls, problem: ProblemSpec) -> "RateParams":
        f, spectra = problem.f, problem.spectra
        return cls(f.strong_convexity, f.smoothness, spectra.ata_norm, spectra.aat_min_eig)


def rho_rate(theta: float, params: RateParams, config: SolverConfig) -> float:
    """Per-epoch contraction factor of the constant-theta solver:

        rho = theta ||theta G + eta beta A^T A||_2 / (eta m mu)
              + (1 - theta) + L theta / (beta m sigma_min)

    By the definition of G, theta G + eta beta A^T A = theta gamma I, so the
    norm evaluates to theta*gamma exactly. rho < 1 certifies geometric decay
    of the optimality gap; values >= 1 just mean the guarantee is silent.
    """
    if theta == 0.0:
        return 1.0
    gamma = _resolve_gamma(config, theta, params.ata_norm)
    first = theta * (theta * gamma) / (config.eta * config.m * params.mu)
    third = params.L * theta / (config.beta * config.m * params.aat_min_eig)
    return first + (1.0 - theta) + third


def optimal_theta_sc(m: int, b: int, n: int, params: RateParams) -> tuple[float, float, float]:
    """Optimal constant momentum weight for the strongly convex regime.

    Returns (theta_star, alpha, eta) with alpha = (m - 2 sqrt(kappa omega))
    / (2 kappa) + delta(b) + 1 and eta = 1/(L alpha). Requires
    m > 2 kappa + 2 sqrt(kappa omega).
    """
    s = 2.0 * math.sqrt(params.kappa * params.omega)
    if m <= 2.0 * params.kappa + s:
        raise ConfigError(
            f"m = {m} too small: need m > 2*kappa + 2*sqrt(kappa*omega) "
            f"= {2.0 * params.kappa + s:.3f}"
        )
    delta = delta_b(n, b)
    alpha = (m - s) / (2.0 * params.kappa) + delta + 1.0
    eta = 1.0 / (params.L * alpha)
    theta_star = (m - s) / ((m - s) + 2.0 * params.kappa * (delta + 1.0))
    return theta_star, alpha, eta


def beta_star(params: RateParams) -> float:
    """Penalty weight minimizing the contraction factor:
    sqrt(L mu / (sigma_min ||A^T A||_2))."""
    return math.sqrt(params.L * params.mu / (params.aat_min_eig * params.ata_norm))


# ---------------------------------------------------------------------------
# variance-reduced solvers


def theta_bound(problem: ProblemSpec, eta: float, b: int) -> float:
    """Largest momentum weight the batch size b admits at step size eta:
    1 - delta(b)/(alpha - 1) with alpha = 1/(L eta), for eta < 1/(2L)."""
    L = problem.f.smoothness
    if eta >= 1.0 / (2.0 * L):
        raise ConfigError(f"eta = {eta:.3e} must be below 1/(2L) = {1.0 / (2.0 * L):.3e}")
    return 1.0 - delta_b(problem.f.n, b) / (1.0 / (L * eta) - 1.0)


def _initial_theta(problem: ProblemSpec, config: SolverConfig) -> float:
    """Validate the schedule against the step size and return theta_0."""
    bound = theta_bound(problem, config.eta, config.b)
    sched = config.schedule
    if isinstance(sched, DecayingTheta):
        theta = bound if sched.theta0 is None else float(sched.theta0)
    elif isinstance(sched, ConstantTheta):
        theta = float(sched.theta)
        if theta == 1.0:
            # the momentum-free SVRG-ADMM baseline; the geometric-rate
            # guarantee does not apply unless b = n, but the iteration is
            # well defined
            return 1.0
    else:
        raise ConfigError(f"unknown momentum schedule {sched!r}")
    if not 0.0 < theta <= 1.0:
        raise ConfigError(f"theta = {theta} outside (0, 1]")
    if theta > bound + 1e-12:
        raise ConfigError(
            f"theta = {theta:.6f} exceeds the batch-size bound 1 - delta/(alpha-1) = {bound:.6f}"
        )
    return theta


def _resolve_gamma(config: SolverConfig, theta: float, ata_norm: float) -> float:
    """The configured gamma, or gamma_min at this theta when it is 'auto'."""
    if isinstance(config.gamma, str):
        return gamma_min(config.eta, config.beta, theta, ata_norm)
    return float(config.gamma)


def _constant_theta_dual(problem: ProblemSpec, beta: float, g: np.ndarray) -> np.ndarray:
    """The constant-theta dual epoch variable -(1/beta) (A^T)^+ g at the
    snapshot gradient g. (A^T)^+ = A (A^T A)^+ for tall and wide A alike,
    and (A^T A)^+ is read from the top r = min(rows, cols) eigenpairs of
    A^T A, which problem.spectra has first checked are nonzero."""
    A = problem.A
    problem.spectra  # raises RankDeficiencyError before any division
    r = min(A.rows, A.cols)
    w, Q = A.ata_eig
    w, Q = w[-r:], Q[:, -r:]
    return -(1.0 / beta) * spmv(A, Q @ ((Q.T @ g) / w))


def init_vr_state(problem: ProblemSpec, config: SolverConfig) -> VRState:
    """Common epoch-0 state: zero primal/dual estimates plus the snapshot.

    The constant-theta family initializes the dual epoch variable from the
    pseudo-inverse relation lambda = -(1/beta) (A^T)^+ grad f(x0); the
    decaying-theta schedule starts the dual at zero and carries it across
    epochs instead.
    """
    theta0 = _initial_theta(problem, config)
    d1, d2 = problem.d1, problem.d2
    x0 = np.zeros(d1)
    g0 = problem.f.full_grad(x0)
    snapshot = Snapshot(x0, g0)
    if isinstance(config.schedule, DecayingTheta):
        lam0 = np.zeros(d2)
    else:
        lam0 = _constant_theta_dual(problem, config.beta, g0)
    return VRState(
        z=x0.copy(),
        x=x0.copy(),
        y=np.zeros(d2),
        lam=lam0,
        snapshot=snapshot,
        y_tilde=np.zeros(d2),
        lambda_tilde=lam0.copy(),
        theta=theta0,
        grad_evals=problem.f.n,
    )


def vr_admm_epoch(state: VRState, problem: ProblemSpec, config: SolverConfig) -> VRState:
    """One epoch of the variance-reduced solvers: m inner iterations, then
    the epoch outputs (the inner-x average, the momentum-mixed y average)
    and a new snapshot at the averaged x.

    The schedule decides the epoch boundaries. With a decaying theta, x
    warm-starts from the momentum combination of the snapshot and the
    carried z, (z, lambda) roll over to the next epoch, and theta shrinks
    along (1-theta_s)/theta_s^2 = 1/theta_{s-1}^2. With a constant theta
    (theta = 1 is the momentum-free baseline) the inner iterates
    restart from z = x = x_snap and the dual epoch variable is recomputed
    from the pseudo-inverse relation at the new snapshot.
    """
    f, A, reg = problem.f, problem.A, problem.reg
    beta, m = config.beta, config.m
    decaying = isinstance(config.schedule, DecayingTheta)
    theta = state.theta
    gamma = _resolve_gamma(config, theta, problem.spectra.ata_norm)
    x_snap = state.snapshot.x_tilde
    if decaying:
        z = state.z
        x = (1.0 - theta) * x_snap + theta * z
    else:
        # plain copies: the theta-mix of x_snap with itself need not round to x_snap
        z, x = x_snap.copy(), x_snap.copy()
    y = state.y_tilde.copy()
    lam = state.lambda_tilde.copy()

    sampler = BatchSampler(f.n, config.b, config.seed)
    epoch = state.epoch + 1
    # every draw is a pure function of (seed, epoch, k): gather the epoch's
    # batches once, with the loss derivatives at the snapshot
    plan = f.batch_plan(sampler.draw(epoch, np.arange(1, m + 1)), x_snap)
    g_snap = state.snapshot.full_grad
    scale = config.eta / (gamma * theta)
    snap_share = (1.0 - theta) * x_snap
    sum_x = np.zeros_like(x)
    sum_y = np.zeros_like(y)
    Az = spmv(A, z)
    # running elementwise maxima of |z| and |lambda|: one sup per trace row
    abs_z, abs_lam = np.abs(z), np.abs(lam)
    for k in range(m):
        y = y_update(reg, Az, lam, beta)
        g = plan.grad(k, x) + g_snap  # vr_gradient(state.snapshot, f, x, batch k)
        z = z - scale * (g + beta * spmv_t(A, Az - y + lam))
        x = snap_share + theta * z
        Az = spmv(A, z)
        lam = lam + (Az - y)
        sum_x += x
        sum_y += y
        np.maximum(abs_z, np.abs(z), out=abs_z)
        np.maximum(abs_lam, np.abs(lam), out=abs_lam)
    state.grad_evals += m * 2 * config.b

    x_tilde = sum_x / m
    y_tilde = (1.0 - theta) * state.y_tilde + (theta / m) * sum_y
    g_new = f.full_grad(x_tilde)
    state.grad_evals += f.n
    state.z, state.x, state.y, state.lam = z, x, y, lam
    state.snapshot = Snapshot(x_tilde, g_new)
    state.y_tilde = y_tilde
    if decaying:
        state.lambda_tilde = lam.copy()
        state.theta = theta_next(theta)
    else:
        state.lambda_tilde = _constant_theta_dual(problem, beta, g_new)
    state.epoch += 1
    state.sup_z, state.sup_lambda = _sup(abs_z), _sup(abs_lam)
    _require_finite(x_tilde, y_tilde, state.lambda_tilde)
    return state


# ---------------------------------------------------------------------------
# batch solver


def _minimize_x_subproblem(f, A, beta, y, lam, x0, gtol):
    """Newton-CG on phi(x) = f(x) + beta/2 ||Ax - y + lam||^2.

    The penalty Hessian beta A^T A makes phi strongly convex for every
    full-column-rank A, so the (generalized) Newton system is solvable;
    Armijo backtracking guards the piecewise-quadratic losses. Returns the
    minimizer and the number of full-gradient evaluations spent.
    """
    d = len(x0)
    n_grads = 0

    def value_grad(x):
        nonlocal n_grads
        n_grads += 1
        r = spmv(A, x) - y + lam
        val = f.value(x) + 0.5 * beta * float(r @ r)
        grad = f.full_grad(x) + beta * spmv_t(A, r)
        return val, grad

    x = x0.copy()
    fx, g = value_grad(x)
    gn0 = float(np.linalg.norm(g))
    for _ in range(NEWTON_MAX_ITER):
        gn = float(np.linalg.norm(g))
        if gn <= gtol:
            return x, n_grads
        hessp = lambda v: f.hess_vec(x, v) + beta * spmv_t(A, spmv(A, v))
        op = scipy.sparse.linalg.LinearOperator((d, d), matvec=hessp, dtype=np.float64)
        cg_tol = min(0.5, math.sqrt(gn))  # forcing sequence
        step_dir, _ = scipy.sparse.linalg.cg(op, -g, rtol=cg_tol, atol=0.0, maxiter=10 * d)
        slope = float(g @ step_dir)
        if slope >= 0.0:
            step_dir = -g
            slope = -gn * gn
        # accept on Armijo decrease, or on gradient-norm contraction once
        # objective differences are at the rounding floor (pure Newton regime)
        t = 1.0
        accepted = False
        while t >= 1e-10:
            xn = x + t * step_dir
            fn, gnew = value_grad(xn)
            if fn <= fx + 1e-4 * t * slope or float(np.linalg.norm(gnew)) <= 0.9 * gn:
                accepted = True
                break
            t *= 0.25
        if not accepted:
            break
        x, fx, g = xn, fn, gnew
    gn = float(np.linalg.norm(g))
    if gn > max(100.0 * gtol, 1e-6 * (1.0 + gn0)):
        raise ConvergenceError(
            f"x-subproblem Newton stalled at gradient norm {gn:.3e}",
            best_estimate=x,
        )
    return x, n_grads


def init_batch_state(problem: ProblemSpec) -> BatchState:
    return BatchState(x=np.zeros(problem.d1), y=np.zeros(problem.d2), lam=np.zeros(problem.d2))


def batch_admm_epoch(state: BatchState, problem: ProblemSpec, config: SolverConfig) -> BatchState:
    """One deterministic pass: exact y-update, exact x-subproblem solve,
    then the dual ascent step lambda += Ax - y."""
    f, A, reg, beta = problem.f, problem.A, problem.reg, config.beta
    y = y_update(reg, spmv(A, state.x), state.lam, beta)
    x, n_grads = _minimize_x_subproblem(f, A, beta, y, state.lam, state.x, config.inner_tol)
    state.grad_evals += n_grads * f.n
    Ax = spmv(A, x)
    lam = state.lam + (Ax - y)
    state.x, state.y, state.lam = x, y, lam
    state.epoch += 1
    state.sup_z = _sup(x)
    state.sup_lambda = _sup(lam)
    _require_finite(x, y, lam)
    return state


# ---------------------------------------------------------------------------
# decaying-step stochastic solver


def init_stoc_state(problem: ProblemSpec) -> StocState:
    """Zero iterates and averages."""
    d1, d2 = problem.d1, problem.d2
    return StocState(x=np.zeros(d1), y=np.zeros(d2), lam=np.zeros(d2),
                     x_bar=np.zeros(d1), y_bar=np.zeros(d2))


def stoc_admm_chunk(state: StocState, problem: ProblemSpec, config: SolverConfig) -> StocState:
    """Run config.m consecutive single-sample steps (one trace row) with
    the decaying step size eta_k = eta / sqrt(k), k the global 1-based
    step index.

    The x-update keeps the exact quadratic penalty (identity proximal
    metric) and solves (I/eta_k + beta A^T A) x = rhs through the
    eigendecomposition of A^T A, which A keeps; y and lambda
    update as in the batch solver.
    """
    f, A, reg, beta, eta = problem.f, problem.A, problem.reg, config.beta, config.eta
    w, Q = A.ata_eig
    first = state.grad_evals + 1
    sampler = BatchSampler(f.n, 1, config.seed)
    plan = f.batch_plan(sampler.draw(0, np.arange(first, first + config.m)))
    x, y, lam, Ax = state.x, state.y, state.lam, spmv(A, state.x)
    x_bar, y_bar = state.x_bar, state.y_bar
    beta_w = beta * w
    abs_x, abs_lam = np.abs(x), np.abs(lam)
    for k in range(first, first + config.m):
        eta_k = eta / math.sqrt(k)
        y = y_update(reg, Ax, lam, beta)
        g = plan.grad(k - first, x)
        rhs = x / eta_k - g - beta * spmv_t(A, lam - y)
        x = Q @ ((Q.T @ rhs) / (1.0 / eta_k + beta_w))
        Ax = spmv(A, x)
        lam = lam + (Ax - y)
        x_bar += (x - x_bar) / k
        y_bar += (y - y_bar) / k
        np.maximum(abs_x, np.abs(x), out=abs_x)
        np.maximum(abs_lam, np.abs(lam), out=abs_lam)
    state.x, state.y, state.lam = x, y, lam
    state.grad_evals += config.m
    state.sup_z, state.sup_lambda = _sup(abs_x), _sup(abs_lam)
    state.epoch += 1
    _require_finite(x, y, lam)
    return state


def warn_if_outside_rate_regime(problem: ProblemSpec, config: SolverConfig) -> float | None:
    """Compute rho for a strongly convex constant-theta run at the
    schedule's theta and warn when rho >= 1 or the supplied gamma undercuts
    gamma_min; the run proceeds either way. None when the problem is not
    strongly convex or theta decays: the geometric rate does not apply."""
    if problem.f.strong_convexity <= 0 or isinstance(config.schedule, DecayingTheta):
        return None
    theta = float(config.schedule.theta)
    params = RateParams.from_problem(problem)
    rho = rho_rate(theta, params, config)
    if rho >= 1.0:
        warnings.warn(
            f"config outside the geometric-rate regime (rho = {rho:.4f} >= 1)", RuntimeWarning
        )
    if not isinstance(config.gamma, str):
        gmin = gamma_min(config.eta, config.beta, theta, params.ata_norm)
        if config.gamma < gmin - 1e-12:
            warnings.warn(
                f"gamma = {config.gamma} is below gamma_min = {gmin:.4f}; "
                "the proximal metric is not >= identity",
                RuntimeWarning,
            )
    return rho
