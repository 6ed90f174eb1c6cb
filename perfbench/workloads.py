"""Benchmark instances, workloads, and the checks on their outputs.

Instances are fixed by their own seeds; the command-line seed only drives
the solvers' batch samplers. Every final objective below was measured at
DEFAULT_SEED with one BLAS thread; other seeds are checked against
invariants instead (see check_run).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import sadmm.harness
import sadmm.metrics
from sadmm.datasets import make_classification
from sadmm.losses import LossKind, LossObjective
from sadmm.problem import ProblemSpec
from sadmm.prox import Regularizer

DEFAULT_SEED = 0
LAMBDA1 = 1e-5
GRAPH_THRESHOLD = 0.9
REF_TOL = 1e-10
REF_BETA = 0.1
# Pinned objectives must match to this relative tolerance: wide enough for
# a reordered floating-point sum, far below any algorithmic change.
OBJECTIVE_RTOL = 1e-8
# A certified reference is optimal up to its KKT tolerance; no iterate may
# beat it by more than this.
OPTIMALITY_SLACK = 1e-8


@dataclass(frozen=True)
class Instance:
    n: int
    dim: int
    seed: int
    density: float = 0.4
    label_noise: float = 0.05


@dataclass(frozen=True)
class SolverRun:
    """One run_solver call of a round, with its pinned outputs."""

    solver: str
    b: int
    epochs: int
    passes: float  # exact at every seed
    objective: float  # final objective at DEFAULT_SEED


@dataclass(frozen=True)
class Workload:
    instance: Instance
    runs: tuple[SolverRun, ...] = ()
    stored_reference: bool = False  # load and verify a cached reference in set-up
    solve_reference: bool = False  # a round is one compute_reference call
    reference_objective: float | None = None  # pinned objective_star


CRITERION_07 = Instance(2000, 60, seed=23, label_noise=0.3)
A9A_SHAPE = Instance(32561, 123, seed=1, density=0.11)
REFERENCE_2K_OBJECTIVE = 0.641045444169827

WORKLOADS = {
    "smallbatch-2k": Workload(
        CRITERION_07,
        runs=(
            SolverRun("svrg", 20, 5, 26.0, 0.6670515298006054),
            SolverRun("asvrg_sc", 20, 5, 26.0, 0.6670515298006054),
            SolverRun("asvrg_gc", 20, 5, 26.0, 0.652156801607624),
            SolverRun("stoc", 1, 2, 2.0, 0.6669682354011819),
        ),
        stored_reference=True,
        reference_objective=REFERENCE_2K_OBJECTIVE,
    ),
    "largebatch-a9a": Workload(
        A9A_SHAPE,
        runs=(
            SolverRun("svrg", 256, 3, 15.981941586560609, 0.6689677351745945),
            SolverRun("asvrg_gc", 256, 3, 15.981941586560609, 0.656687468339881),
            SolverRun("batch", 1, 5, 20.0, 0.6903229717906044),
        ),
    ),
    "reference-2k": Workload(
        CRITERION_07, solve_reference=True, reference_objective=REFERENCE_2K_OBJECTIVE
    ),
}


@dataclass
class Setup:
    problem: ProblemSpec
    data: object
    kind: LossKind
    ref: object = None


class CheckFailed(Exception):
    """An output of the library does not match what the benchmark expects."""


def build(workload: Workload, span, cache_dir) -> Setup:
    """Data, graph, problem and spectra; plus the verified reference when
    the workload uses one. ``span(name)`` brackets each layer call."""
    inst = workload.instance
    with span("datasets.make_classification"):
        data = make_classification(
            inst.n, inst.dim, seed=inst.seed, density=inst.density, label_noise=inst.label_noise
        )
    with span("harness.build_graph_matrix"):
        A = sadmm.harness.build_graph_matrix(data, GRAPH_THRESHOLD)
    kind = LossKind.logistic()
    problem = ProblemSpec(LossObjective(kind, data), Regularizer(LAMBDA1), A)
    with span("problem.spectra"):
        problem.spectra
    setup = Setup(problem, data, kind)
    if workload.stored_reference:
        with span("harness.get_reference"):
            setup.ref = sadmm.harness.get_reference(
                problem, kind, data, tol=REF_TOL, beta=REF_BETA, cache_dir=cache_dir
            )
        check_reference(workload, problem, setup.ref)
    return setup


def solver_config(problem: ProblemSpec, run: SolverRun, seed: int):
    cfg = sadmm.harness.ExperimentConfig(
        problem="fused_lasso",
        lambda1=LAMBDA1,
        graph_threshold=GRAPH_THRESHOLD,
        solver=run.solver,
        b=run.b,
        epochs=run.epochs,
        seeds=(seed,),
    )
    return sadmm.harness.resolve_solver_config(problem, cfg, seed)


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _matches(value: float, pinned: float) -> bool:
    return abs(value - pinned) <= OBJECTIVE_RTOL * abs(pinned)


def check_reference(workload: Workload, problem: ProblemSpec, ref) -> None:
    """Recompute the KKT residual of a reference (stored or fresh) and
    compare its optimal objective with the pinned one."""
    kkt = max(sadmm.metrics.kkt_residuals(problem, ref.x_star, ref.y_star, ref.lambda_star, ref.beta))
    _require(kkt <= REF_TOL, f"reference KKT residual {kkt:.3e} exceeds {REF_TOL:.0e}")
    _require(
        _matches(ref.objective_star, workload.reference_objective),
        f"reference objective {ref.objective_star!r} != pinned {workload.reference_objective!r}",
    )


def check_run(run: SolverRun, records, seed: int, ref) -> None:
    """Checks on one solver trace.

    At DEFAULT_SEED the final objective must equal its pinned value. At any
    seed: every logged value is finite, the gradient-pass count is exact,
    the final objective is below the initial one, and no iterate beats the
    reference optimum.
    """
    last = records[-1]
    for r in records:
        vals = (r.objective, r.constraint_violation, r.sup_z, r.sup_lambda, r.theta)
        _require(all(math.isfinite(v) for v in vals), f"{run.solver}: non-finite trace row {r.epoch}")
    _require(last.passes == run.passes, f"{run.solver}: passes {last.passes!r} != {run.passes!r}")
    if seed == DEFAULT_SEED:
        _require(
            _matches(last.objective, run.objective),
            f"{run.solver}: objective {last.objective!r} != pinned {run.objective!r}",
        )
    _require(
        last.objective < records[0].objective,
        f"{run.solver}: objective did not decrease ({records[0].objective!r} -> {last.objective!r})",
    )
    if ref is not None:
        _require(
            last.objective >= ref.objective_star - OPTIMALITY_SLACK,
            f"{run.solver}: objective {last.objective!r} beats the reference {ref.objective_star!r}",
        )
