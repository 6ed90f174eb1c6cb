"""Experiment harness: graph-guided penalty construction, experiment
configuration, solver runners and CSV trace emission.

The harness owns all I/O. Solver runs are pure given (problem, config).
"""

from __future__ import annotations

import hashlib
import logging
import os
import re
import tempfile
import time
import typing
import zipfile
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np
import scipy.sparse

from .datasets import make_classification, parse_libsvm, train_test_split
from .errors import ConfigError, ConvergenceError, DataFormatError
from .linalg import SparseMatrixCSR, spmv
from .losses import Dataset, LossKind, LossObjective
from .metrics import (
    CSV_HEADER,
    GAP_FLOOR,
    ReferenceSolution,
    TraceRecord,
    compute_reference,
    evaluate,
    kkt_residuals,
    p_criterion,
)
from .problem import ProblemSpec
from .prox import Regularizer
from .solvers import (
    ConstantTheta,
    DecayingTheta,
    RateParams,
    SolverConfig,
    batch_admm_epoch,
    beta_star,
    init_batch_state,
    init_stoc_state,
    init_vr_state,
    optimal_theta_sc,
    stoc_admm_chunk,
    theta_bound,
    vr_admm_epoch,
    warn_if_outside_rate_regime,
)

logger = logging.getLogger(__name__)

PROBLEMS = ("fused_lasso", "gg_logistic", "gg_svm")
SOLVERS = ("batch", "stoc", "svrg", "asvrg_sc", "asvrg_gc")

# momentum schedule type each variance-reduced solver runs with; svrg also
# needs theta = 1
VR_SCHEDULES = {"svrg": ConstantTheta, "asvrg_sc": ConstantTheta, "asvrg_gc": DecayingTheta}


# ---------------------------------------------------------------------------
# graph-guided penalty


@dataclass(frozen=True)
class GraphSpec:
    """Feature-graph edges (i, j, weight) with integer 0 <= i < j, no
    duplicates and a nonzero finite weight."""

    edges: tuple

    def __post_init__(self):
        seen = set()
        for i, j, w in self.edges:
            if any(isinstance(k, bool) or not isinstance(k, (int, np.integer)) for k in (i, j)):
                raise DataFormatError(f"edge ({i}, {j}) needs integer indices")
            if not 0 <= i < j:
                raise DataFormatError(f"edge ({i}, {j}) must have 0 <= i < j")
            if w == 0.0 or not np.isfinite(w):
                raise DataFormatError(f"edge ({i}, {j}) needs a nonzero finite weight, got {w!r}")
            if (i, j) in seen:
                raise DataFormatError(f"duplicate edge ({i}, {j})")
            seen.add((i, j))


def build_graph_spec(data: Dataset, threshold: float) -> GraphSpec:
    """Edges between feature pairs whose empirical correlation magnitude
    exceeds the threshold. Constant features are skipped with a warning."""
    if not 0.0 < threshold < 1.0:
        raise ConfigError("threshold must be in (0, 1)")
    X = data.features.csr
    n = data.n
    mu = np.asarray(X.mean(axis=0)).ravel()
    second = (X.T @ X).toarray() / n
    cov = second - np.outer(mu, mu)
    var = np.clip(np.diag(cov), 0.0, None)
    # E[x^2] - mu^2 leaves rounding noise of order eps * E[x^2], so a constant
    # feature is one whose variance is tiny against its own second moment
    degenerate = var <= 1e-12 * np.diag(second)
    if degenerate.any():
        logger.warning(
            "skipping %d constant feature(s) in graph construction", int(degenerate.sum())
        )
    sd = np.sqrt(np.where(degenerate, 1.0, var))  # their pairs are masked out below
    corr = cov / np.outer(sd, sd)
    keep = ~degenerate
    pairs = np.triu(np.outer(keep, keep), k=1)
    i, j = np.nonzero(pairs & (np.abs(corr) > threshold))  # row-major order
    return GraphSpec(tuple(zip(i.tolist(), j.tolist(), corr[i, j].tolist())))


def graph_matrix(spec: GraphSpec, dim: int) -> SparseMatrixCSR:
    """Stack edge-difference rows over an identity block: A = [G; I].

    Each edge (i, j, w) contributes a row with +1 at i and -sign(w) at j,
    so the penalty fuses positively correlated features and ties negatively
    correlated ones. The identity block keeps A full column rank. GraphSpec
    has checked the edges; only an index at or past dim is left to refuse.
    """
    e = np.array(spec.edges, dtype=np.float64).reshape(-1, 3)
    i, j = e[:, 0].astype(np.int64), e[:, 1].astype(np.int64)
    outside = j >= dim
    if outside.any():
        raise DataFormatError(f"edge {spec.edges[outside.argmax()]} has an index outside [0, {dim})")
    k = len(e)
    rows = np.concatenate([np.arange(k), np.arange(k), np.arange(k, k + dim)])
    cols = np.concatenate([i, j, np.arange(dim)])
    vals = np.concatenate([np.ones(k), -np.sign(e[:, 2]), np.ones(dim)])
    A = scipy.sparse.coo_matrix((vals, (rows, cols)), shape=(k + dim, dim))
    return SparseMatrixCSR.from_scipy(A)


def build_graph_matrix(data: Dataset, threshold: float) -> SparseMatrixCSR:
    """Correlation-threshold graph stacked over the identity."""
    return graph_matrix(build_graph_spec(data, threshold), data.dim)


def save_graph(path, spec: GraphSpec) -> None:
    with open(path, "w") as fh:
        for i, j, w in spec.edges:
            fh.write(f"{i} {j} {repr(float(w))}\n")


def load_graph(path) -> GraphSpec:
    edges = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 3:
                raise DataFormatError(f"{path}:{lineno}: expected 'i j weight'")
            try:
                edges.append((int(parts[0]), int(parts[1]), float(parts[2])))
            except ValueError as exc:
                raise DataFormatError(f"{path}:{lineno}: {exc}") from exc
    return GraphSpec(tuple(edges))


# ---------------------------------------------------------------------------
# experiment configuration


@dataclass(frozen=True)
class ExperimentConfig:
    problem: str = "fused_lasso"
    dataset: str = "synthetic"  # path to a libsvm file, or "synthetic"
    test_dataset: str | None = None
    test_fraction: float = 0.2
    split_seed: int = 0
    synth_n: int = 1000
    synth_d: int = 50
    synth_seed: int = 7
    lambda1: float = 1e-5
    lambda2: float = 1e-2
    huber_width: float = 0.5
    solver: str = "asvrg_gc"
    m: int | None = None  # None: 2n/b for variance-reduced solvers, n for stoc
    eta: float | str = "auto"
    beta: float | str = "auto"
    b: int = 10
    gamma: float | str = 1.0  # benchmark preset; pass "auto" for gamma_min
    theta: float | str = "auto"
    epochs: int = 30
    seeds: tuple = (0,)
    graph_threshold: float = 0.9
    graph_path: str | None = None
    output_dir: str = "runs"
    ref_tol: float = 1e-10
    ref_beta: float = 0.1

    def __post_init__(self):
        if self.problem not in PROBLEMS:
            raise ConfigError(f"problem must be one of {PROBLEMS}")
        if self.solver not in SOLVERS:
            raise ConfigError(f"solver must be one of {SOLVERS}")
        if not self.seeds:
            raise ConfigError("need at least one seed")
        if not 0 < self.ref_tol < np.inf:
            raise ConfigError("ref_tol must be finite and > 0")


_FIELD_TYPES = typing.get_type_hints(ExperimentConfig)


def _coerce(key: str, raw: str):
    """Parse one config value by the type annotation of its field."""
    raw = raw.strip()
    hint = _FIELD_TYPES.get(key)
    types = set(typing.get_args(hint)) or {hint}
    if type(None) in types and raw.lower() in ("none", ""):
        return None
    if tuple in types:
        return tuple(int(tok) for tok in raw.replace(",", " ").split())
    if int in types:
        return int(raw)
    if float in types:
        return raw if raw == "auto" and str in types else float(raw)
    return raw


def parse_config_file(path) -> dict:
    """Line-oriented ``key = value`` config. A '#' at the start of a line or
    after whitespace starts a comment; a '#' inside a value is kept."""
    known = {f.name for f in fields(ExperimentConfig)}
    out = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = re.split(r"(?:^|\s)#", line, maxsplit=1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise DataFormatError(f"{path}:{lineno}: expected 'key = value'")
            key, raw = (part.strip() for part in line.split("=", 1))
            if key not in known:
                raise DataFormatError(f"{path}:{lineno}: unknown key {key!r}")
            try:
                out[key] = _coerce(key, raw)
            except ValueError as exc:
                raise DataFormatError(f"{path}:{lineno}: {exc}") from exc
    return out


def config_from_file(path, overrides: dict | None = None) -> ExperimentConfig:
    """The config file's values with the non-None overrides on top; string
    overrides (as given on a command line) are coerced like file values."""
    values = parse_config_file(path)
    for key, value in (overrides or {}).items():
        if isinstance(value, str):
            try:
                value = _coerce(key, value)
            except ValueError as exc:
                raise ConfigError(f"{key}: {exc}") from exc
        if value is not None:
            values[key] = value
    return ExperimentConfig(**values)


# ---------------------------------------------------------------------------
# problem assembly


def loss_kind_for(cfg: ExperimentConfig) -> LossKind:
    if cfg.problem == "fused_lasso":
        return LossKind.logistic()
    if cfg.problem == "gg_logistic":
        return LossKind.l2_logistic(cfg.lambda2)
    return LossKind.huberized_hinge(cfg.lambda2, cfg.huber_width)


def load_datasets(cfg: ExperimentConfig) -> tuple[Dataset, Dataset]:
    if cfg.dataset == "synthetic":
        full = make_classification(cfg.synth_n, cfg.synth_d, seed=cfg.synth_seed)
    else:
        full = parse_libsvm(cfg.dataset)
    if cfg.test_dataset:
        return full, parse_libsvm(cfg.test_dataset, dim=full.dim)
    return train_test_split(full, cfg.test_fraction, cfg.split_seed)


def assemble_problem(cfg: ExperimentConfig) -> tuple[ProblemSpec, Dataset]:
    """The configured problem, whose f holds the training set and the loss
    kind, and the test set."""
    train, test = load_datasets(cfg)
    if cfg.graph_path:
        A = graph_matrix(load_graph(cfg.graph_path), train.dim)
    else:
        A = build_graph_matrix(train, cfg.graph_threshold)
    problem = ProblemSpec(LossObjective(loss_kind_for(cfg), train), Regularizer(cfg.lambda1), A)
    return problem, test


def resolve_solver_config(problem: ProblemSpec, cfg: ExperimentConfig, seed: int) -> SolverConfig:
    """Fill the 'auto' slots of the per-run solver configuration.

    Automatic choices: m = 2n/b for variance-reduced solvers (one trace row
    per n single-sample steps for the decaying-step solver); eta = 1/(8L);
    beta = the rate-optimal penalty when the problem is strongly convex,
    else 1; the constant momentum weight, with its eta, from the
    optimal-weight formula when theta and eta are both automatic and the
    problem is strongly convex (beta may be set: the formula does not read
    it), else the largest weight the batch-size bound allows.
    When m is too small for the optimal-weight formula, the fallback is
    logged as a warning.
    """
    n = problem.f.n
    L = problem.f.smoothness
    mu = problem.f.strong_convexity
    b = cfg.b
    if cfg.solver in VR_SCHEDULES:
        m = cfg.m if cfg.m is not None else max(1, (2 * n) // b)
    elif cfg.solver == "stoc":
        m = cfg.m if cfg.m is not None else n
    else:
        m = 1
    beta = cfg.beta
    if beta == "auto":
        beta = beta_star(RateParams.from_problem(problem), problem.spectra) if mu > 0 else 1.0
    eta = cfg.eta
    if eta == "auto":
        eta = 1.0 / L if cfg.solver == "stoc" else 1.0 / (8.0 * L)
    theta = None if cfg.theta == "auto" else float(cfg.theta)
    schedule = ConstantTheta(1.0)
    if cfg.solver == "asvrg_sc":
        missed = None
        if theta is None and cfg.eta == "auto" and mu > 0:
            try:
                theta, _alpha, eta = optimal_theta_sc(m, b, n, RateParams.from_problem(problem))
            except ConfigError as exc:
                missed = exc
        if theta is None:
            theta = theta_bound(problem, eta, b)
            if missed is not None:
                logger.warning(
                    "asvrg_sc: no rate-optimal momentum weight (%s); falling back to "
                    "theta = theta_bound = %r and eta = 1/(8L) = %r", missed, theta, eta,
                )
        schedule = ConstantTheta(theta)
    elif cfg.solver == "asvrg_gc":
        schedule = DecayingTheta(theta)
    elif cfg.solver == "svrg" and theta is not None:
        schedule = ConstantTheta(theta)  # run_solver refuses theta != 1
    return SolverConfig(
        m=m,
        eta=float(eta),
        beta=float(beta),
        b=b,
        gamma=cfg.gamma,
        epochs=cfg.epochs,
        seed=seed,
        schedule=schedule,
    )


# ---------------------------------------------------------------------------
# reference cache


def reference_key(kind: LossKind, data: Dataset, reg: Regularizer, A: SparseMatrixCSR,
                  tol: float, beta: float) -> str:
    h = hashlib.sha256()
    h.update(repr((kind.kind, kind.lambda2, kind.huber_width, reg.lambda1, tol, beta)).encode())
    F = data.features
    for arr in (np.int64([F.rows, F.cols]), F.row_offsets, F.col_indices, F.values, data.labels,
                A.row_offsets, A.col_indices, A.values):
        h.update(arr.tobytes())
    return h.hexdigest()


def _save_reference(path: Path, ref: ReferenceSolution) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".npz.tmp")
    os.close(fd)
    try:
        with open(tmp, "wb") as fh:
            np.savez(fh, x_star=ref.x_star, y_star=ref.y_star, lambda_star=ref.lambda_star)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _load_certified(path: Path, problem: ProblemSpec, tol: float,
                    beta: float) -> ReferenceSolution | None:
    """The reference at the cached triple (x*, y*, lambda*) if it reads back
    with the problem's shapes and its KKT residual at beta is within tol;
    None otherwise."""
    try:
        with np.load(path) as z:
            x, y, lam = z["x_star"], z["y_star"], z["lambda_star"]
    except (OSError, EOFError, KeyError, IndexError, ValueError, zipfile.BadZipFile):
        return None
    if (x.shape, y.shape, lam.shape) != ((problem.d1,), (problem.d2,), (problem.d2,)):
        return None
    kkt = max(kkt_residuals(problem, x, y, lam, beta))
    return ReferenceSolution.at(problem, x, y, lam, beta, tol, kkt) if kkt <= tol else None


def get_reference(
    problem: ProblemSpec,
    kind: LossKind,
    data: Dataset,
    tol: float,
    beta: float,
    cache_dir,
) -> ReferenceSolution:
    """Load the certified optimum of the instance from the content-addressed
    cache under cache_dir, or compute and store it. An entry holds only
    (x*, y*, lambda*), which is certified again on load and from which every
    other field is derived; one that cannot be read, has the wrong shapes or
    fails the KKT check at tol is recomputed and overwritten."""
    key = reference_key(kind, data, problem.reg, problem.A, tol, beta)
    path = Path(cache_dir) / f"{key}.npz"
    if path.exists():
        ref = _load_certified(path, problem, tol, beta)
        if ref is not None:
            return ref
        logger.warning("recomputing the unreadable or uncertified reference %s", path)
    ref = compute_reference(problem, tol=tol, beta=beta)
    _save_reference(path, ref)
    return ref


# ---------------------------------------------------------------------------
# runners


def run_solver(
    problem: ProblemSpec,
    solver: str,
    config: SolverConfig,
    ref: ReferenceSolution | None = None,
    test: Dataset | None = None,
    kind: LossKind | None = None,
) -> list[TraceRecord]:
    """Run one solver for config.epochs trace rows and return the trace.

    Variance-reduced solvers trace their averaged epoch outputs, the batch
    solver its current iterate, and the decaying-step solver its running
    average. Row 0 is the initial point.
    """
    if solver in VR_SCHEDULES:
        sched = config.schedule
        if not isinstance(sched, VR_SCHEDULES[solver]) or (solver == "svrg" and sched.theta != 1.0):
            raise ConfigError(f"solver {solver!r} cannot run the schedule {sched!r}")
        state = init_vr_state(problem, config)
        epoch_fn = vr_admm_epoch
        point = lambda st: (st.snapshot.x_tilde, st.y_tilde)
        warn_if_outside_rate_regime(problem, config, state.theta)
    elif solver == "batch":
        state = init_batch_state(problem, config)
        epoch_fn = batch_admm_epoch
        point = lambda st: (st.x, st.y)
    elif solver == "stoc":
        state = init_stoc_state(problem, config)
        epoch_fn = stoc_admm_chunk
        point = lambda st: (st.x_bar, st.y_bar)
    else:
        raise ConfigError(f"unknown solver {solver!r}")

    if test is None or kind is None:
        test_f = None
    elif isinstance(problem.f, LossObjective) and test is problem.f.data and kind == problem.f.kind:
        test_f = problem.f  # the training objective: its memo holds the traced point's margins
    else:
        test_f = LossObjective(kind, test)
    wall = 0.0  # time spent inside epoch_fn only
    below_ref = []  # raw gaps below -ref.tol: the reference is not optimal

    def record(st) -> TraceRecord:
        x_pt, y_pt = point(st)
        obj = problem.objective(x_pt)
        if ref is not None:
            raw_gap = obj - ref.objective_star
            if raw_gap < -ref.tol:
                below_ref.append(raw_gap)
            gap = max(raw_gap, GAP_FLOOR)
            p_val = p_criterion(x_pt, y_pt, ref, problem)
        else:
            gap = float("nan")
            p_val = float("nan")
        if test_f is not None:
            t_loss, t_acc = evaluate(x_pt, test_f)
        else:
            t_loss = t_acc = float("nan")
        cv = float(np.linalg.norm(spmv(problem.A, x_pt) - y_pt))
        return TraceRecord(
            epoch=st.epoch,
            wall_seconds=wall,
            passes=st.grad_evals / problem.f.n,
            objective=obj,
            objective_gap=gap,
            p_criterion=p_val,
            constraint_violation=cv,
            test_loss=t_loss,
            test_accuracy=t_acc,
            theta=st.theta,
            sup_z=st.sup_z,
            sup_lambda=st.sup_lambda,
        )

    records = [record(state)]
    for _ in range(config.epochs):
        t0 = time.perf_counter()
        epoch_fn(state, problem, config)
        wall += time.perf_counter() - t0
        records.append(record(state))
    if below_ref:
        logger.warning(
            "%s: %d of %d trace rows beat the reference objective by more than its "
            "tolerance %.1e (most negative raw gap %.3e); the reference is not optimal",
            solver, len(below_ref), len(records), ref.tol, min(below_ref),
        )
    return records


def write_trace_csv(path, records) -> None:
    with open(path, "w") as fh:
        fh.write(CSV_HEADER + "\n")
        for r in records:
            fh.write(r.to_row() + "\n")


def read_trace_csv(path) -> list[TraceRecord]:
    records = []
    with open(path) as fh:
        if fh.readline().strip() != CSV_HEADER:
            raise DataFormatError(f"{path}: unexpected trace header")
        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            try:
                records.append(TraceRecord.from_row(line))
            except ValueError as exc:
                raise DataFormatError(f"{path}:{lineno}: {exc}") from exc
    return records


def median_summary(traces: list[list[TraceRecord]]) -> list[TraceRecord]:
    """Per-epoch medians across seeds (all traces must share epoch counts)."""
    lengths = {len(t) for t in traces}
    if len(lengths) != 1:
        raise ValueError("traces have differing lengths")
    out = []
    names = [f.name for f in fields(TraceRecord)]
    for rows in zip(*traces):
        vals = {
            name: (rows[0].epoch if name == "epoch" else float(np.median([getattr(r, name) for r in rows])))
            for name in names
        }
        out.append(TraceRecord(**vals))
    return out


def problem_and_reference(cfg: ExperimentConfig) -> tuple[ProblemSpec, Dataset, ReferenceSolution]:
    """The configured problem, its test set, and its certified reference
    through the cache under <output_dir>/refcache."""
    problem, test = assemble_problem(cfg)
    ref = get_reference(problem, problem.f.kind, problem.f.data, tol=cfg.ref_tol,
                        beta=cfg.ref_beta, cache_dir=Path(cfg.output_dir) / "refcache")
    return problem, test, ref


def run_experiment(cfg: ExperimentConfig) -> dict:
    """Run cfg.solver for every seed, write one CSV per (solver, seed) plus
    a per-epoch median summary; returns the written paths."""
    out_dir = Path(cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    problem, test, ref = problem_and_reference(cfg)

    def one_seed(seed: int):
        config = resolve_solver_config(problem, cfg, seed)
        recs = run_solver(problem, cfg.solver, config, ref=ref, test=test, kind=problem.f.kind)
        path = out_dir / f"{cfg.problem}_{cfg.solver}_seed{seed}.csv"
        write_trace_csv(path, recs)
        return path, recs

    results = [one_seed(s) for s in cfg.seeds]
    paths = [p for p, _ in results]
    summary = median_summary([r for _, r in results])
    summary_path = out_dir / f"{cfg.problem}_{cfg.solver}_summary.csv"
    write_trace_csv(summary_path, summary)
    meta_path = out_dir / f"{cfg.problem}_{cfg.solver}_meta.txt"
    with open(meta_path, "w") as fh:
        for f_ in fields(cfg):
            value = getattr(cfg, f_.name)
            if isinstance(value, tuple):  # the list form _coerce reads
                value = ", ".join(map(str, value))
            fh.write(f"{f_.name} = {value}\n")
    return {
        "traces": paths,
        "summary": summary_path,
        "meta": meta_path,
        "reference_objective": ref.objective_star,
    }


def grid_search_eta_beta(
    problem: ProblemSpec,
    solver: str,
    cfg: ExperimentConfig,
    ref: ReferenceSolution,
    etas=None,
    betas=None,
    epochs: int = 4,
    seed: int = 0,
) -> tuple[float, float]:
    """Pick (eta, beta) minimizing the final objective gap of a short run."""
    L = problem.f.smoothness
    if etas is None:
        if solver == "stoc":
            etas = [16.0 / L, 8.0 / L, 4.0 / L, 1.0 / L]
        else:
            etas = [1.0 / (2.5 * L), 1.0 / (4.0 * L), 1.0 / (8.0 * L), 1.0 / (16.0 * L)]
    if betas is None:
        betas = [0.01, 0.1, 1.0, 10.0]
    best = (float("inf"), None, None)
    for eta in etas:
        for beta in betas:
            trial = replace(cfg, solver=solver, eta=eta, beta=beta, epochs=epochs)
            try:
                config = resolve_solver_config(problem, trial, seed)
                recs = run_solver(problem, solver, config, ref=ref)
            except (ConfigError, ConvergenceError, FloatingPointError) as exc:
                # invalid or diverging settings are skipped; anything else is a bug
                logger.info("grid point eta=%.3g beta=%.3g failed: %s", eta, beta, exc)
                continue
            gap = recs[-1].objective_gap
            if np.isfinite(gap) and gap < best[0]:
                best = (gap, eta, beta)
    if best[1] is None:
        raise ConfigError("no grid point produced a finite objective gap")
    return best[1], best[2]
