#!/usr/bin/env python3
"""Bitwise fingerprint of the solver traces, the mini-batch gradients, the
reference solutions and the resolved solver configurations.

    python3 tools/fingerprint.py

Run it from two checkouts in the same environment (say, a clone of the
parent commit in a temporary directory and the working tree) and compare the
output: equal digests mean the change left these outputs bit for bit. No
digest is pinned, because BLAS builds differ between machines.

It prints SHA-256 digests of
- the trace of each of the five solvers (every field but wall_seconds) at
  seeds 0-2 on the smallbatch-2k and largebatch-a9a instances of
  perfbench/workloads.py, with their batch sizes and trace lengths;
- LossObjective.subset_grad(x, [i]) on every row of a 300-row instance
  with two empty rows, for four loss kinds and three scales of x;
- subset_grad, and the one-batch plan f.batch_plan([idx], x_ref).grad(0, x)
  (the difference form), on the same instance, kinds and scales, over one
  sorted random batch of each size 2-40;
- every ReferenceSolution field of compute_reference on
  make_classification(200, 12, seed=s, label_noise=0.1) for s = 0-5, three
  loss kinds and three l1 weights, and on the criterion-07 instance at
  tol 1e-10, followed by a line that counts the polish work: the _polish
  attempts, those that ended at a pattern of an earlier failed attempt, the
  Newton solves and those whose zero set or support was empty (this line
  moves whenever the polish does more or less work; the digests must not);
- reference_key, and every field of the reference that get_reference
  stored in a temporary cache and then reloaded, on the criterion-07
  instance and two small ones;
- metrics._constrained_newton called directly with an all-zero and an
  all-nonzero sign pattern;
- resolve_solver_config over 5 solvers x b in {1, 20} x 'auto' or a number
  for each of eta, beta and theta x m in {None, 50}, on a logistic and an
  l2-logistic instance.
- the penalty matrix A = [G; I] of build_graph_matrix at thresholds 0.3,
  0.5, 0.8, 0.9 and 0.99 on the smallbatch-2k and largebatch-a9a instances
  and on a 64 x 9 instance of correlated dense features, and of
  graph_matrix on an empty and a mixed-sign edge list, each followed by a
  line with the repr of its ||A^T A|| and smallest Gram eigenvalue from
  compute_spectral_constants.

It imports sadmm from this checkout's src/ and the instances from
perfbench/, which it only reads; the reference cache lives in a temporary
directory. It takes about twenty-five seconds on a 2-core Xeon and is not
part of the test suite.
"""

import os

# BLAS reads its thread count when numpy loads it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import hashlib
import itertools
import logging
import sys
import tempfile
import warnings
from contextlib import nullcontext
from dataclasses import fields
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np

import sadmm.harness
import sadmm.metrics
import workloads as wl
from sadmm.datasets import make_classification
from sadmm.errors import ConfigError, ConvergenceError
from sadmm.linalg import SparseMatrixCSR, compute_spectral_constants
from sadmm.losses import Dataset, LossKind, LossObjective
from sadmm.problem import ProblemSpec
from sadmm.prox import Regularizer

SOLVERS = ("svrg", "asvrg_sc", "asvrg_gc", "stoc", "batch")
SEEDS = (0, 1, 2)
TRACED = ("smallbatch-2k", "largebatch-a9a")
# trace rows of a solver the workload does not run: stoc rows take n steps
DEFAULT_EPOCHS = {"stoc": 2, "batch": 5}


def runs_of(workload):
    """(solver, b, epochs) for all five solvers: the workload's own runs,
    the variance-reduced solvers it lacks at its variance-reduced batch
    size and length, and stoc / batch at b = 1."""
    own = {r.solver: (r.b, r.epochs) for r in workload.runs}
    vr_b, vr_epochs = next(own[s] for s in SOLVERS[:3] if s in own)
    out = []
    for solver in SOLVERS:
        if solver in own:
            b, epochs = own[solver]
        elif solver in DEFAULT_EPOCHS:
            b, epochs = 1, DEFAULT_EPOCHS[solver]
        else:
            b, epochs = vr_b, vr_epochs
        out.append((solver, b, epochs))
    return out


def trace_digest(records) -> str:
    names = [f.name for f in fields(records[0]) if f.name != "wall_seconds"]
    h = hashlib.sha256()
    for r in records:
        h.update(np.array([getattr(r, name) for name in names], dtype=np.float64).tobytes())
    return h.hexdigest()


def trace_digests(cache_dir):
    total = hashlib.sha256()
    for name in TRACED:
        workload = wl.WORKLOADS[name]
        setup = wl.build(workload, lambda _name: nullcontext(), cache_dir)
        for solver, b, epochs in runs_of(workload):
            for seed in SEEDS:
                run = wl.SolverRun(solver, b, epochs, passes=float("nan"), objective=float("nan"))
                config = wl.solver_config(setup.problem, run, seed)
                records = sadmm.harness.run_solver(
                    setup.problem, solver, config, ref=setup.ref, test=setup.data, kind=setup.kind
                )
                digest = trace_digest(records)
                total.update(digest.encode())
                print(f"trace {name} {solver} b={b} epochs={epochs} seed={seed} {digest}", flush=True)
    print(f"traces {total.hexdigest()}")


GRAD_KINDS = (
    LossKind.logistic(),
    LossKind.l2_logistic(0.01),
    LossKind.huberized_hinge(0.01, 0.5),
    LossKind.huberized_hinge(0.0, 0.3),
)
GRAD_SCALES = (0.01, 1.0, 10.0)


def gradient_instance():
    """A 300 x 30 instance with empty rows 17 and 211, and the generator
    that drew it, which goes on to draw the points."""
    rng = np.random.default_rng(2024)
    n, dim = 300, 30
    X = rng.standard_normal((n, dim)) * (rng.random((n, dim)) < 0.3)
    X[[17, 211]] = 0.0
    return rng, Dataset(SparseMatrixCSR.from_dense(X), rng.choice([-1.0, 1.0], size=n))


def row_table_digest() -> str:
    rng, data = gradient_instance()
    h = hashlib.sha256()
    for kind in GRAD_KINDS:
        f = LossObjective(kind, data)
        for scale in GRAD_SCALES:
            x = scale * rng.standard_normal(data.dim)
            for i in range(data.n):
                h.update(f.subset_grad(x, [i]).tobytes())
    return h.hexdigest()


def batch_table_digest() -> str:
    """subset_grad and the one-batch difference plan at x_ref on one sorted
    random batch of each size 2-40 per loss kind and scale of x."""
    rng, data = gradient_instance()
    h = hashlib.sha256()
    for kind in GRAD_KINDS:
        f = LossObjective(kind, data)
        for scale in GRAD_SCALES:
            x, x_ref = scale * rng.standard_normal((2, data.dim))
            for b in range(2, 41):
                idx = np.sort(rng.choice(data.n, size=b, replace=False))
                h.update(f.subset_grad(x, idx).tobytes())
                h.update(f.batch_plan([idx], x_ref).grad(0, x).tobytes())
    return h.hexdigest()


REF_KINDS = {
    "logistic": LossKind.logistic(),
    "l2-logistic": LossKind.l2_logistic(1e-2),
    "huberized-hinge": LossKind.huberized_hinge(),
}
REF_LAMBDA1 = (0.0, 1e-4, 1e-2)


def small_problem(seed, kind, lambda1) -> ProblemSpec:
    data = make_classification(200, 12, seed=seed, label_noise=0.1)
    A = sadmm.harness.build_graph_matrix(data, 0.9)
    return ProblemSpec(LossObjective(kind, data), Regularizer(lambda1), A)


def criterion_07_problem() -> ProblemSpec:
    data = make_classification(2000, 60, seed=23, label_noise=0.3)
    A = sadmm.harness.build_graph_matrix(data, 0.9)
    return ProblemSpec(LossObjective(LossKind.logistic(), data), Regularizer(1e-5), A)


def update_with_fields(h, ref) -> None:
    for f in fields(ref):
        h.update(f.name.encode())
        h.update(np.asarray(getattr(ref, f.name), dtype=np.float64).tobytes())


def reference_digest(problem, tol=1e-10) -> str:
    """Every ReferenceSolution field, or the error a failed solve raised."""
    h = hashlib.sha256()
    try:
        ref = sadmm.metrics.compute_reference(problem, tol=tol)
    except ConvergenceError as exc:
        h.update(repr(exc).encode())
        return h.hexdigest()
    update_with_fields(h, ref)
    return h.hexdigest()


def reference_digests():
    """compute_reference on the small table and the criterion-07 instance,
    counting the polish attempts, those that ended at a failed pattern, and
    the polish solves, with those that reach an empty zero set or support."""
    polish, newton = sadmm.metrics._polish, sadmm.metrics._constrained_newton
    work = dict.fromkeys(("attempts", "failed pattern", "calls", "zero set", "support"), 0)

    def counted_polish(*args, **kwargs):
        work["attempts"] += 1
        out = polish(*args, **kwargs)
        work["failed pattern"] += int(out[0] is None)
        return out

    def counted(problem, sign_pattern, *args, **kwargs):
        work["calls"] += 1
        work["zero set"] += int(np.all(sign_pattern != 0.0))
        work["support"] += int(np.all(sign_pattern == 0.0))
        return newton(problem, sign_pattern, *args, **kwargs)

    sadmm.metrics._polish, sadmm.metrics._constrained_newton = counted_polish, counted
    try:
        total = hashlib.sha256()
        for name, kind in REF_KINDS.items():
            for lambda1 in REF_LAMBDA1:
                h = hashlib.sha256()
                for seed in range(6):
                    h.update(reference_digest(small_problem(seed, kind, lambda1)).encode())
                total.update(h.digest())
                print(f"reference {name} lambda1={lambda1:g} seeds=0-5 {h.hexdigest()}", flush=True)
        digest = reference_digest(criterion_07_problem())
        total.update(digest.encode())
        print(f"reference criterion-07 tol=1e-10 {digest}", flush=True)
    finally:
        sadmm.metrics._polish, sadmm.metrics._constrained_newton = polish, newton
    print(f"references {total.hexdigest()}")
    print(f"polish attempts {work['attempts']}, ended at a failed pattern {work['failed pattern']}, "
          f"newton solves {work['calls']}, empty zero set {work['zero set']}, "
          f"empty support {work['support']}")


def cached_reference_digests(cache_dir) -> None:
    """reference_key, and every field of the reference that get_reference
    stores in cache_dir and then reloads, on the criterion-07 instance and
    two small ones."""
    problems = {
        "criterion-07": criterion_07_problem(),
        "logistic lambda1=0.0001 seed=0": small_problem(0, REF_KINDS["logistic"], 1e-4),
        "l2-logistic lambda1=0.01 seed=1": small_problem(1, REF_KINDS["l2-logistic"], 1e-2),
    }
    for name, problem in problems.items():
        f = problem.f
        key = sadmm.harness.reference_key(problem, 1e-10, 0.1)
        for _ in range(2):  # the first call stores, the second reloads
            ref = sadmm.harness.get_reference(
                problem, f.kind, f.data, tol=1e-10, beta=0.1, cache_dir=cache_dir
            )
        h = hashlib.sha256(key.encode())
        update_with_fields(h, ref)
        print(f"cached reference {name} key={key[:16]} {h.hexdigest()}", flush=True)


def newton_digest() -> str:
    """_constrained_newton on all-zero and all-nonzero sign patterns."""
    h = hashlib.sha256()
    for name, kind in REF_KINDS.items():
        for lambda1 in REF_LAMBDA1[1:]:
            problem = small_problem(0, kind, lambda1)
            rng = np.random.default_rng(7)
            x0 = 0.1 * rng.standard_normal(problem.d1)
            signs = rng.choice([-1.0, 1.0], size=problem.d2)
            patterns = (
                (np.zeros(problem.d2), 0.01 * rng.standard_normal(problem.d2)),
                (signs, np.zeros(0)),
            )
            for pattern, nu0 in patterns:
                for out in sadmm.metrics._constrained_newton(problem, pattern, x0, nu0):
                    h.update(np.asarray(out, dtype=np.float64).tobytes())
    return h.hexdigest()


GRAPH_THRESHOLDS = (0.3, 0.5, 0.8, 0.9, 0.99)


def matrix_digest(A) -> str:
    h = hashlib.sha256(np.int64([A.rows, A.cols]).tobytes())
    for arr in (A.row_offsets, A.col_indices, A.values):
        h.update(arr.tobytes())
    return h.hexdigest()


def print_spectra(label, A) -> None:
    sc = compute_spectral_constants(A)
    print(f"spectra {label} {sc.ata_norm!r} {sc.aat_min_eig!r}", flush=True)


def graph_digests():
    """build_graph_matrix on the traced instances and a correlated one, and
    graph_matrix on two fixed edge lists, with the spectral constants of
    each."""
    datasets = {}
    for name in TRACED:
        inst = wl.WORKLOADS[name].instance
        datasets[name] = make_classification(
            inst.n, inst.dim, seed=inst.seed, density=inst.density, label_noise=inst.label_noise
        )
    rng = np.random.default_rng(8)
    F = rng.standard_normal((64, 3)) @ rng.standard_normal((3, 9))
    F += 0.5 * rng.standard_normal((64, 9))
    datasets["correlated-64x9"] = Dataset(SparseMatrixCSR.from_dense(F), np.tile([1.0, -1.0], 32))
    total = hashlib.sha256()
    for name, data in datasets.items():
        for threshold in GRAPH_THRESHOLDS:
            A = sadmm.harness.build_graph_matrix(data, threshold)
            digest = matrix_digest(A)
            total.update(digest.encode())
            edges = A.rows - A.cols
            print(f"graph {name} threshold={threshold} edges={edges} {digest}", flush=True)
            print_spectra(f"{name} threshold={threshold}", A)
    edge_lists = {
        "empty": (),
        "mixed-sign": ((0, 3, 0.9), (1, 2, -0.95), (2, 4, 0.3), (0, 1, -1e-3)),
    }
    for name, edges in edge_lists.items():
        A = sadmm.harness.graph_matrix(sadmm.harness.GraphSpec(edges), 5)
        digest = matrix_digest(A)
        total.update(digest.encode())
        print(f"graph edge list {name} {digest}", flush=True)
        print_spectra(f"edge list {name}", A)
    print(f"graphs {total.hexdigest()}")


def config_grid_digest() -> str:
    """repr of every resolved SolverConfig, or of the ConfigError raised."""
    h = hashlib.sha256()
    for kind in (REF_KINDS["logistic"], REF_KINDS["l2-logistic"]):
        problem = small_problem(0, kind, 1e-4)
        grid = itertools.product(
            sadmm.harness.SOLVERS, (1, 20), ("auto", 0.1 / problem.f.smoothness),
            ("auto", 0.5), ("auto", 0.5), (None, 50),
        )
        for solver, b, eta, beta, theta, m in grid:
            cfg = sadmm.harness.ExperimentConfig(
                solver=solver, b=b, eta=eta, beta=beta, theta=theta, m=m
            )
            try:
                out = repr(sadmm.harness.resolve_solver_config(problem, cfg, 3))
            except ConfigError as exc:
                out = repr(exc)
            h.update(out.encode())
    return h.hexdigest()


def main() -> int:
    if not Path(sadmm.harness.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"fingerprint: sadmm imported from {sadmm.harness.__file__}, not from {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    logging.disable(logging.WARNING)
    warnings.simplefilter("ignore")
    print(f"subset_grad rows {row_table_digest()}", flush=True)
    print(f"subset_grad batches {batch_table_digest()}", flush=True)
    print(f"constrained_newton patterns {newton_digest()}", flush=True)
    print(f"solver configs {config_grid_digest()}", flush=True)
    graph_digests()
    reference_digests()
    with tempfile.TemporaryDirectory() as cache_dir:
        cached_reference_digests(Path(cache_dir))
    with tempfile.TemporaryDirectory() as cache_dir:
        trace_digests(Path(cache_dir))
    return 0


if __name__ == "__main__":
    sys.exit(main())
