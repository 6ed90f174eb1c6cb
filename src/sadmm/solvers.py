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
pays only for the gradient work that depends on its point. Each loop also
checks its start vectors and forms the y-update's threshold lambda1/beta
once, at entry, and its steps call A's compiled products (csr_matvec,
csc_matvec) and the soft-threshold formula without checks.

Each loop keeps its iterates in one float64 buffer, [y | x | z | lambda]
for an epoch and [y | x | lambda] for a stoc trace row, and every step
writes them there in place. So the per-step bookkeeping is one call over a
contiguous slice each: the running sum (epoch) or mean (trace row) over
(y, x), and the running maximum of |.| over (z, lambda) or (x, lambda).
The step sizes eta_k of a trace row, Q^T and the arguments of A's products
are formed once per loop. The state gets copies of the iterates, so no
view of the buffer outlives the loop. Every output is the same, bit for
bit, as the loop that made a fresh array per iterate.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ConvergenceError
# perfbench/tracing.py patches solve_aat, spmv, spmv_t, y_update and
# vr_gradient by name in this module. Nothing here calls solve_aat (the dual
# reads A.ata_eig) or vr_gradient (vr_admm_epoch runs its batch-plan form),
# and the stochastic loops call the compiled products csr_matvec and
# csc_matvec, module globals here, and _soft_threshold, so the traced names
# see only the batch solver and the constant-theta dual
from .linalg import as_vector, cg, csc_matvec, csr_matvec, solve_aat, spmv, spmv_t  # noqa: F401
from .problem import ProblemSpec
from .prox import _soft_threshold, y_update
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
        if isinstance(self.seed, bool) or not isinstance(self.seed, (int, np.integer)) or self.seed < 0:
            raise ConfigError(f"seed must be an integer >= 0, got {self.seed!r}")
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
    return float(np.abs(v).max(initial=0.0))


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
    d1, d2 = A.cols, A.rows
    # the loop's compiled products read without bounds checks: its start
    # vectors are checked here, once (the snapshot gradient has the
    # snapshot's shape), and copied into the loop's buffer
    z0 = as_vector(state.z, d1, "z")
    x_snap = as_vector(state.snapshot.x_tilde, d1, "snapshot x")
    lam0 = as_vector(state.lambda_tilde, d2, "lambda")
    tau = reg.lambda1 / beta  # the y-update's threshold
    decaying = isinstance(config.schedule, DecayingTheta)
    theta = state.theta
    gamma = _resolve_gamma(config, theta, problem.spectra.ata_norm)
    # the iterates [y | x | z | lambda] in one buffer, each step writing into
    # it: the running sum over (y, x) and maximum of |(z, lambda)| are one call each
    buf = np.zeros(2 * (d1 + d2))
    y, x, z, lam = np.split(buf, [d2, d2 + d1, d2 + 2 * d1])
    yx, zlam = buf[: d2 + d1], buf[d2 + d1 :]
    lam[:] = lam0
    if decaying:
        z[:] = z0
        x[:] = (1.0 - theta) * x_snap + theta * z
    else:
        # x_snap itself: the theta-mix of x_snap with itself need not round to x_snap
        z[:] = x[:] = x_snap

    sampler = BatchSampler(f.n, config.b, config.seed)
    epoch = state.epoch + 1
    # every draw is a pure function of (seed, epoch, k): gather the epoch's
    # batches once, with the loss derivatives at the snapshot
    plan = f.batch_plan(sampler.draw(epoch, np.arange(1, m + 1)), x_snap)
    g_snap = state.snapshot.full_grad
    scale = config.eta / (gamma * theta)
    snap_share = (1.0 - theta) * x_snap
    # A z and A^T r by the compiled loops of spmv and spmv_t, into fresh zeros
    off, idx, val = A.row_offsets, A.col_indices, A.values
    Az = np.zeros(d2)
    csr_matvec(d2, d1, off, idx, val, z, Az)
    sums = np.zeros(d2 + d1)  # running sums of (y, x)
    sups = np.abs(zlam)  # running elementwise maxima of |(z, lambda)|: one sup each per trace row
    for k in range(m):
        _soft_threshold(Az + lam, tau, out=y)  # y_update(reg, Az, lam, beta)
        g = plan.grad(k, x) + g_snap  # vr_gradient(state.snapshot, f, x, batch k)
        Atr = np.zeros(d1)
        csc_matvec(d1, d2, off, idx, val, Az - y + lam, Atr)
        np.subtract(z, scale * (g + beta * Atr), out=z)
        np.add(snap_share, theta * z, out=x)
        Az = np.zeros(d2)
        csr_matvec(d2, d1, off, idx, val, z, Az)
        np.add(lam, Az - y, out=lam)
        sums += yx
        np.maximum(sups, np.abs(zlam), out=sups)
    state.grad_evals += m * 2 * config.b

    x_tilde = sums[d2:] / m
    y_tilde = (1.0 - theta) * state.y_tilde + (theta / m) * sums[:d2]
    g_new = f.full_grad(x_tilde)
    state.grad_evals += f.n
    # copies: no view of the buffer leaves the epoch
    state.z, state.x, state.y, state.lam = z.copy(), x.copy(), y.copy(), lam.copy()
    state.snapshot = Snapshot(x_tilde, g_new)
    state.y_tilde = y_tilde
    if decaying:
        state.lambda_tilde = lam.copy()
        state.theta = theta_next(theta)
    else:
        state.lambda_tilde = _constant_theta_dual(problem, beta, g_new)
    state.epoch += 1
    state.sup_z, state.sup_lambda = _sup(sups[:d1]), _sup(sups[d1:])
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
        cg_tol = min(0.5, math.sqrt(gn))  # forcing sequence
        step_dir = cg(hessp, -g, rtol=cg_tol, maxiter=10 * d)
        slope = float(g @ step_dir)
        if slope >= 0.0:
            step_dir = -g
            slope = -gn * gn
        # accept on Armijo decrease, or on gradient-norm contraction once
        # objective differences are at the rounding floor (pure Newton regime)
        t = 1.0
        while t >= 1e-10:
            xn = x + t * step_dir
            fn, gnew = value_grad(xn)
            if fn <= fx + 1e-4 * t * slope or float(np.linalg.norm(gnew)) <= 0.9 * gn:
                break
            t *= 0.25
        else:  # no trial step accepted
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
    d1, d2 = A.cols, A.rows
    # x, lambda and the averages checked once, as in vr_admm_epoch
    x0 = as_vector(state.x, d1, "x")
    lam0 = as_vector(state.lam, d2, "lambda")
    y_bar = as_vector(state.y_bar, d2, "y_bar")
    bars = np.concatenate((y_bar, as_vector(state.x_bar, d1, "x_bar")))  # running means of (y, x)
    tau = reg.lambda1 / beta
    # the iterates [y | x | lambda] in one buffer, as in vr_admm_epoch: the
    # running means over (y, x) and maximum of |(x, lambda)| are one call each
    buf = np.zeros(2 * d2 + d1)
    y, x, lam = np.split(buf, [d2, d2 + d1])
    yx, xlam = buf[: d2 + d1], buf[d2:]
    x[:], lam[:] = x0, lam0
    w, Q = A.ata_eig
    QT, beta_w = Q.T, beta * w
    first = state.grad_evals + 1
    ks = np.arange(first, first + config.m)
    # eta_k = eta / sqrt(k) and 1 / eta_k, each the same IEEE operation as its scalar form
    etas = eta / np.sqrt(ks)
    sampler = BatchSampler(f.n, 1, config.seed)
    plan = f.batch_plan(sampler.draw(0, ks))
    off, idx, val = A.row_offsets, A.col_indices, A.values
    Ax = np.zeros(d2)
    csr_matvec(d2, d1, off, idx, val, x, Ax)
    sups = np.abs(xlam)
    steps = zip(ks.tolist(), etas.tolist(), (1.0 / etas).tolist())
    for i, (k, eta_k, inv_eta_k) in enumerate(steps):
        _soft_threshold(Ax + lam, tau, out=y)
        g = plan.grad(i, x)
        Atr = np.zeros(d1)
        csc_matvec(d1, d2, off, idx, val, lam - y, Atr)
        rhs = x / eta_k - g - beta * Atr
        np.matmul(Q, (QT @ rhs) / (inv_eta_k + beta_w), out=x)
        Ax = np.zeros(d2)
        csr_matvec(d2, d1, off, idx, val, x, Ax)
        np.add(lam, Ax - y, out=lam)
        bars += (yx - bars) / k
        np.maximum(sups, np.abs(xlam), out=sups)
    # copies: no view of the buffer leaves the trace row
    state.x, state.y, state.lam = x.copy(), y.copy(), lam.copy()
    state.y_bar, state.x_bar = bars[:d2].copy(), bars[d2:].copy()
    state.grad_evals += config.m
    state.sup_z, state.sup_lambda = _sup(sups[:d1]), _sup(sups[d1:])
    state.epoch += 1
    _require_finite(buf)
    return state


def warn_if_outside_rate_regime(problem: ProblemSpec, config: SolverConfig) -> float | None:
    """Warn once when a numeric gamma undercuts gamma_min, where the
    proximal metric G = gamma I - (eta beta/theta) A^T A is not >= I; the
    run proceeds either way. The check walks the run's epochs (at least
    one) from its theta_0: a decaying theta steps theta_next, and a constant
    one ends the walk after epoch 1. The warning names the first epoch below
    gamma_min, with its gamma_min, and the first where G is indefinite
    (gamma < eta beta ||A^T A|| / theta). A constant theta on a strongly
    convex problem returns rho, warning when rho >= 1; otherwise None."""
    theta = theta0 = _initial_theta(problem, config)
    ata_norm = problem.spectra.ata_norm
    constant = isinstance(config.schedule, ConstantTheta)
    if not isinstance(config.gamma, str):
        gamma, pull, epochs = config.gamma, config.eta * config.beta * ata_norm, max(config.epochs, 1)
        below = indefinite = None
        for epoch in range(1, epochs + 1):
            gmin = gamma_min(config.eta, config.beta, theta, ata_norm)
            if below is None and gamma < gmin - 1e-12:
                below, below_gmin = epoch, gmin
            if gamma < pull / theta:
                indefinite = epoch
                break
            if constant:
                break
            theta = theta_next(theta)
        if below is not None:
            where = f"from epoch {indefinite}" if indefinite else f"in none of the {epochs} epochs"
            warnings.warn(
                f"gamma = {gamma} is below gamma_min = {below_gmin:.4f} from epoch {below}; "
                f"the proximal metric is not >= identity, and it is indefinite {where}",
                RuntimeWarning,
            )
    if not constant or problem.f.strong_convexity <= 0:
        return None
    rho = rho_rate(theta0, RateParams.from_problem(problem), config)
    if rho >= 1.0:
        warnings.warn(
            f"config outside the geometric-rate regime (rho = {rho:.4f} >= 1)", RuntimeWarning
        )
    return rho
