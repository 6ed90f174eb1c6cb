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
constant theta (strongly convex case, geometric rate), a decaying theta
with (1-theta_s)/theta_s^2 = 1/theta_{s-1}^2 (general convex case,
accelerated sublinear rate), or theta fixed at 1, the momentum-free
variance-reduced baseline.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Union

import numpy as np
import scipy.sparse.linalg

from .errors import ConfigError, ConvergenceError
from .linalg import SpectralConstants, solve_aat, spmv, spmv_t
from .problem import ProblemSpec
from .prox import y_update
from .vr import BatchSampler, Snapshot, delta_b, vr_gradient


# ---------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class ConstantTheta:
    theta: float


@dataclass(frozen=True)
class DecayingTheta:
    theta0: float | None = None  # None: computed from (L, eta, b) at init


@dataclass(frozen=True)
class FixedOne:
    pass


MomentumSchedule = Union[ConstantTheta, DecayingTheta, FixedOne]


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
    schedule: MomentumSchedule = FixedOne()
    inner_tol: float = 1e-10  # gradient tolerance of the batch x-subproblem
    dual_solve_tol: float = 1e-10  # CG tolerance for the A A^T dual solve
    check_finite: bool = False  # verify iterates after every inner step

    def __post_init__(self):
        if self.m < 1:
            raise ConfigError("m must be >= 1")
        if self.eta <= 0:
            raise ConfigError("eta must be > 0")
        if self.beta <= 0:
            raise ConfigError("beta must be > 0")
        if self.b < 1:
            raise ConfigError("b must be >= 1")
        if self.epochs < 0:
            raise ConfigError("epochs must be >= 0")
        if isinstance(self.gamma, str):
            if self.gamma != "auto":
                raise ConfigError("gamma must be a positive number or 'auto'")
        elif self.gamma <= 0:
            raise ConfigError("gamma must be > 0")


@dataclass
class AdmmState:
    """Mutable per-run solver state.

    The tilde fields are the per-epoch outputs carried across epochs; the
    plain (z, x, y, lam) fields are the last inner iterates of the most
    recent epoch. sup_z / sup_lambda record the largest infinity norms of
    the inner z and lambda iterates seen during the last epoch, for
    auditing the bounded-domain assumption of the sublinear-rate analysis.
    """

    z: np.ndarray
    x: np.ndarray
    y: np.ndarray
    lam: np.ndarray
    snapshot: Snapshot | None
    y_tilde: np.ndarray
    lambda_tilde: np.ndarray
    z_tilde: np.ndarray
    epoch: int = 0
    theta: float = 1.0
    grad_evals: int = 0  # per-sample gradient evaluations so far
    sup_z: float = 0.0
    sup_lambda: float = 0.0
    aat_warm: np.ndarray | None = None  # Krylov warm start for the dual solve
    x_bar: np.ndarray | None = None  # running averages (stochastic solver)
    y_bar: np.ndarray | None = None
    steps: int = 0  # global step counter (stochastic solver)
    ata_eig: tuple | None = None  # cached eigendecomposition of A^T A


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
    if theta <= 0:
        raise ValueError("theta must be > 0")
    if eta < 0 or beta < 0 or ata_norm < 0:
        raise ValueError("eta, beta and ata_norm must be >= 0")
    return eta * beta * ata_norm / theta + 1.0


@dataclass(frozen=True)
class RateParams:
    """Condition numbers entering the geometric-rate and optimal-weight
    formulas: mu strong convexity, L = max_i L_i, L_f smoothness of the
    averaged f, and omega the Gram condition ratio of A."""

    mu: float
    L_f: float
    L: float
    kappa: float
    kappa_f: float
    omega: float

    def __post_init__(self):
        if self.mu <= 0:
            raise ConfigError("mu must be > 0 for the geometric-rate formulas")
        if self.kappa < 1 or self.kappa_f < 1 or self.omega < 1:
            raise ConfigError("kappa, kappa_f and omega must all be >= 1")

    @classmethod
    def from_problem(
        cls, problem: ProblemSpec, spectra: SpectralConstants | None = None, L_f: float | None = None
    ) -> "RateParams":
        mu = problem.f.strong_convexity
        if mu <= 0:
            raise ConfigError("problem is not strongly convex (mu = 0)")
        L = problem.f.smoothness
        L_f = problem.f.smoothness_avg if L_f is None else L_f
        spectra = problem.spectra if spectra is None else spectra
        return cls(
            mu=mu,
            L_f=L_f,
            L=L,
            kappa=L / mu,
            kappa_f=L_f / mu,
            omega=spectra.ata_norm / spectra.aat_min_eig,
        )


def rho_rate(
    theta: float, params: RateParams, config: SolverConfig, spectra: SpectralConstants
) -> float:
    """Per-epoch contraction factor of the constant-theta solver:

        rho = theta ||theta G + eta beta A^T A||_2 / (eta m mu)
              + (1 - theta) + L_f theta / (beta m sigma_min)

    By the definition of G, theta G + eta beta A^T A = theta gamma I, so the
    norm evaluates to theta*gamma exactly. rho < 1 certifies geometric decay
    of the optimality gap; values >= 1 just mean the guarantee is silent.
    """
    if params.mu <= 0:
        raise ConfigError("mu must be > 0")
    if theta == 0.0:
        return 1.0
    gamma = (
        gamma_min(config.eta, config.beta, theta, spectra.ata_norm)
        if isinstance(config.gamma, str)
        else float(config.gamma)
    )
    first = theta * (theta * gamma) / (config.eta * config.m * params.mu)
    third = params.L_f * theta / (config.beta * config.m * spectra.aat_min_eig)
    return first + (1.0 - theta) + third


def optimal_theta_sc(m: int, b: int, n: int, params: RateParams) -> tuple[float, float, float]:
    """Optimal constant momentum weight for the strongly convex regime.

    Returns (theta_star, alpha, eta) with alpha = (m - 2 sqrt(kappa_f omega))
    / (2 kappa) + delta(b) + 1 and eta = 1/(L alpha). Requires
    m > 2 kappa + 2 sqrt(kappa_f omega).
    """
    s = 2.0 * math.sqrt(params.kappa_f * params.omega)
    if m <= 2.0 * params.kappa + s:
        raise ConfigError(
            f"m = {m} too small: need m > 2*kappa + 2*sqrt(kappa_f*omega) "
            f"= {2.0 * params.kappa + s:.3f}"
        )
    delta = delta_b(n, b)
    alpha = (m - s) / (2.0 * params.kappa) + delta + 1.0
    eta = 1.0 / (params.L * alpha)
    theta_star = (m - s) / ((m - s) + 2.0 * params.kappa * (delta + 1.0))
    return theta_star, alpha, eta


def beta_star(params: RateParams, spectra: SpectralConstants) -> float:
    """Penalty weight minimizing the contraction factor:
    sqrt(L_f mu / (sigma_min ||A^T A||_2))."""
    if spectra.aat_min_eig <= 0:
        raise ValueError("sigma_min must be > 0")
    return math.sqrt(params.L_f * params.mu / (spectra.aat_min_eig * spectra.ata_norm))


# ---------------------------------------------------------------------------
# variance-reduced solvers


def _initial_theta(problem: ProblemSpec, config: SolverConfig) -> float:
    """Validate the schedule against the step size and return theta_0."""
    L = problem.f.smoothness
    if config.eta >= 1.0 / (2.0 * L):
        raise ConfigError(
            f"eta = {config.eta:.3e} must be below 1/(2L) = {1.0 / (2.0 * L):.3e}"
        )
    delta = delta_b(problem.f.n, config.b)
    alpha = 1.0 / (L * config.eta)
    bound = 1.0 - delta / (alpha - 1.0)
    sched = config.schedule
    if isinstance(sched, DecayingTheta):
        theta0 = bound if sched.theta0 is None else float(sched.theta0)
        if not 0.0 < theta0 <= 1.0:
            raise ConfigError(f"theta0 = {theta0} outside (0, 1]")
        if theta0 > bound + 1e-12:
            raise ConfigError(
                f"theta0 = {theta0:.6f} exceeds the batch-size bound 1 - delta/(alpha-1) = {bound:.6f}"
            )
        return theta0
    if isinstance(sched, FixedOne):
        return 1.0
    if isinstance(sched, ConstantTheta):
        theta = float(sched.theta)
        if theta == 1.0:
            # degenerate momentum-free mode; the geometric-rate guarantee
            # does not apply unless b = n, but the iteration is well defined
            return 1.0
        if not 0.0 < theta < 1.0:
            raise ConfigError(f"theta = {theta} outside (0, 1]")
        if alpha <= 1.0 + delta:
            raise ConfigError(
                f"alpha = 1/(L eta) = {alpha:.3f} must exceed 1 + delta(b) = {1.0 + delta:.3f}"
            )
        if theta > bound + 1e-12:
            raise ConfigError(
                f"theta = {theta:.6f} exceeds the bound 1 - delta/(alpha-1) = {bound:.6f}"
            )
        return theta
    raise ConfigError(f"unknown momentum schedule {sched!r}")


def _resolve_gamma(problem: ProblemSpec, config: SolverConfig, theta: float) -> float:
    if isinstance(config.gamma, str):
        return gamma_min(config.eta, config.beta, theta, problem.spectra.ata_norm)
    return float(config.gamma)


def init_vr_state(problem: ProblemSpec, config: SolverConfig) -> AdmmState:
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
    warm = None
    if isinstance(config.schedule, DecayingTheta):
        lam0 = np.zeros(d2)
    else:
        warm = solve_aat(problem.A, spmv(problem.A, g0), tol=config.dual_solve_tol)
        lam0 = -(1.0 / config.beta) * warm
    return AdmmState(
        z=x0.copy(),
        x=x0.copy(),
        y=np.zeros(d2),
        lam=lam0,
        snapshot=snapshot,
        y_tilde=np.zeros(d2),
        lambda_tilde=lam0.copy(),
        z_tilde=x0.copy(),
        epoch=0,
        theta=theta0,
        grad_evals=problem.f.n,
        aat_warm=warm,
    )


def vr_admm_epoch(state: AdmmState, problem: ProblemSpec, config: SolverConfig) -> AdmmState:
    """One epoch of the variance-reduced solvers: m inner iterations, then
    the epoch outputs (the inner-x average, the momentum-mixed y average)
    and a new snapshot at the averaged x.

    The schedule decides the epoch boundaries. With a decaying theta, x
    warm-starts from the momentum combination of the snapshot and the
    carried z, (z, lambda) roll over to the next epoch, and theta shrinks
    along (1-theta_s)/theta_s^2 = 1/theta_{s-1}^2. With a constant theta
    (or theta fixed at 1, the momentum-free baseline) the inner iterates
    restart from z = x = x_snap and the dual epoch variable is recomputed
    from the pseudo-inverse relation at the new snapshot.
    """
    f, A, reg = problem.f, problem.A, problem.reg
    beta, m = config.beta, config.m
    decaying = isinstance(config.schedule, DecayingTheta)
    theta = state.theta
    gamma = _resolve_gamma(problem, config, theta)
    x_snap = state.snapshot.x_tilde
    if decaying:
        z = state.z_tilde.copy()
        x = (1.0 - theta) * x_snap + theta * z
    else:
        # plain copies: the theta-mix of x_snap with itself need not round to x_snap
        z = x_snap.copy()
        x = x_snap.copy()
    y = state.y_tilde.copy()
    lam = state.lambda_tilde.copy()

    sampler = BatchSampler(f.n, config.b, config.seed)
    epoch = state.epoch + 1
    scale = config.eta / (gamma * theta)
    sum_x = np.zeros_like(x)
    sum_y = np.zeros_like(y)
    Az = spmv(A, z)
    sup_z = _sup(z)
    sup_lam = _sup(lam)
    for k in range(1, m + 1):
        batch = sampler.draw(epoch, k)
        y = y_update(reg, Az, lam, beta)
        g = vr_gradient(state.snapshot, f, x, batch)
        z = z - scale * (g + beta * spmv_t(A, Az - y + lam))
        x = (1.0 - theta) * x_snap + theta * z
        Az = spmv(A, z)
        lam = lam + (Az - y)
        sum_x += x
        sum_y += y
        sup_z = max(sup_z, _sup(z))
        sup_lam = max(sup_lam, _sup(lam))
        if config.check_finite:
            _require_finite(z, x, y, lam)
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
        state.z_tilde = z.copy()
        state.theta = theta_next(theta)
    else:
        state.aat_warm = solve_aat(A, spmv(A, g_new), tol=config.dual_solve_tol, x0=state.aat_warm)
        state.lambda_tilde = -(1.0 / beta) * state.aat_warm
        state.z_tilde = x_tilde.copy()
    state.epoch += 1
    state.sup_z, state.sup_lambda = sup_z, sup_lam
    _require_finite(x_tilde, y_tilde, state.lambda_tilde)
    return state


# ---------------------------------------------------------------------------
# batch solver


def _minimize_x_subproblem(f, A, beta, y, lam, x0, gtol, max_newton=100):
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
    for _ in range(max_newton):
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
            iterations=max_newton,
        )
    return x, n_grads


def init_batch_state(problem: ProblemSpec, config: SolverConfig) -> AdmmState:
    d1, d2 = problem.d1, problem.d2
    zeros1, zeros2 = np.zeros(d1), np.zeros(d2)
    return AdmmState(
        z=zeros1.copy(),
        x=zeros1.copy(),
        y=zeros2.copy(),
        lam=zeros2.copy(),
        snapshot=None,
        y_tilde=zeros2.copy(),
        lambda_tilde=zeros2.copy(),
        z_tilde=zeros1.copy(),
        theta=1.0,
    )


def batch_admm_epoch(state: AdmmState, problem: ProblemSpec, config: SolverConfig) -> AdmmState:
    """One deterministic pass: exact y-update, exact x-subproblem solve,
    then the dual ascent step lambda += Ax - y."""
    f, A, reg, beta = problem.f, problem.A, problem.reg, config.beta
    y = y_update(reg, spmv(A, state.x), state.lam, beta)
    x, n_grads = _minimize_x_subproblem(f, A, beta, y, state.lam, state.x, config.inner_tol)
    state.grad_evals += n_grads * f.n
    Ax = spmv(A, x)
    lam = state.lam + (Ax - y)
    state.x, state.y, state.lam = x, y, lam
    state.z = x
    state.epoch += 1
    state.sup_z = _sup(x)
    state.sup_lambda = _sup(lam)
    _require_finite(x, y, lam)
    return state


# ---------------------------------------------------------------------------
# decaying-step stochastic solver


def init_stoc_state(problem: ProblemSpec, config: SolverConfig) -> AdmmState:
    d1, d2 = problem.d1, problem.d2
    zeros1, zeros2 = np.zeros(d1), np.zeros(d2)
    return AdmmState(
        z=zeros1.copy(),
        x=zeros1.copy(),
        y=zeros2.copy(),
        lam=zeros2.copy(),
        snapshot=None,
        y_tilde=zeros2.copy(),
        lambda_tilde=zeros2.copy(),
        z_tilde=zeros1.copy(),
        theta=1.0,
        x_bar=zeros1.copy(),
        y_bar=zeros2.copy(),
    )


def _ata_eig(state: AdmmState, problem: ProblemSpec):
    if state.ata_eig is None:
        ata = (problem.A.csr.T @ problem.A.csr).toarray()
        w, Q = np.linalg.eigh(ata)
        state.ata_eig = (w, Q)
    return state.ata_eig


def stoc_admm_step(state: AdmmState, problem: ProblemSpec, config: SolverConfig, k: int) -> AdmmState:
    """One single-sample step with decaying step size eta_k = eta / sqrt(k).

    The x-update keeps the exact quadratic penalty (identity proximal
    metric) and solves (I/eta_k + beta A^T A) x = rhs through a cached
    eigendecomposition of A^T A; y and lambda update as in the batch
    solver. k is the global 1-based step index.
    """
    if k < 1:
        raise ConfigError("step index k must be >= 1")
    f, A, reg, beta = problem.f, problem.A, problem.reg, config.beta
    eta_k = config.eta / math.sqrt(k)
    i = BatchSampler(f.n, 1, config.seed).draw(0, k)
    Ax_prev = spmv(A, state.x)
    y = y_update(reg, Ax_prev, state.lam, beta)
    g = f.subset_grad(state.x, i)
    state.grad_evals += 1
    rhs = state.x / eta_k - g - beta * spmv_t(A, state.lam - y)
    w, Q = _ata_eig(state, problem)
    x = Q @ ((Q.T @ rhs) / (1.0 / eta_k + beta * w))
    Ax = spmv(A, x)
    lam = state.lam + (Ax - y)
    state.x, state.y, state.lam = x, y, lam
    state.z = x
    state.steps = k
    state.x_bar += (x - state.x_bar) / k
    state.y_bar += (y - state.y_bar) / k
    state.sup_z = max(state.sup_z, _sup(x))
    state.sup_lambda = max(state.sup_lambda, _sup(lam))
    if config.check_finite:
        _require_finite(x, y, lam)
    return state


def stoc_admm_chunk(state: AdmmState, problem: ProblemSpec, config: SolverConfig, steps: int) -> AdmmState:
    """Run ``steps`` consecutive single-sample steps (one trace row)."""
    state.sup_z = _sup(state.x)
    state.sup_lambda = _sup(state.lam)
    for k in range(state.steps + 1, state.steps + steps + 1):
        stoc_admm_step(state, problem, config, k)
    state.epoch += 1
    _require_finite(state.x, state.y, state.lam)
    return state


def warn_if_outside_rate_regime(
    problem: ProblemSpec, config: SolverConfig, theta: float, params: RateParams | None = None
) -> float | None:
    """Compute rho for a strongly convex run and warn when rho >= 1 or the
    supplied gamma undercuts gamma_min; the run proceeds either way."""
    if problem.f.strong_convexity <= 0:
        return None
    params = RateParams.from_problem(problem) if params is None else params
    spectra = problem.spectra
    rho = rho_rate(theta, params, config, spectra)
    if rho >= 1.0:
        warnings.warn(
            f"config outside the geometric-rate regime (rho = {rho:.4f} >= 1)", RuntimeWarning
        )
    if not isinstance(config.gamma, str):
        gmin = gamma_min(config.eta, config.beta, theta, spectra.ata_norm)
        if config.gamma < gmin - 1e-12:
            warnings.warn(
                f"gamma = {config.gamma} is below gamma_min = {gmin:.4f}; "
                "the proximal metric is not >= identity",
                RuntimeWarning,
            )
    return rho
