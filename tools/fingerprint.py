#!/usr/bin/env python3
"""Bitwise fingerprint of the solver traces and the single-row gradients.

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
  with two empty rows, for four loss kinds and three scales of x.

It imports sadmm from this checkout's src/ and the instances from
perfbench/, which it only reads; the reference cache lives in a temporary
directory. It takes about ten seconds on a 2-core Xeon and is not part of
the test suite.
"""

import os

# BLAS reads its thread count when numpy loads it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import hashlib
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
import workloads as wl
from sadmm.linalg import SparseMatrixCSR
from sadmm.losses import Dataset, LossKind, LossObjective

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


def row_table_digest() -> str:
    rng = np.random.default_rng(2024)
    n, dim = 300, 30
    X = rng.standard_normal((n, dim)) * (rng.random((n, dim)) < 0.3)
    X[[17, 211]] = 0.0
    data = Dataset(SparseMatrixCSR.from_dense(X), rng.choice([-1.0, 1.0], size=n))
    kinds = (
        LossKind.logistic(),
        LossKind.l2_logistic(0.01),
        LossKind.huberized_hinge(0.01, 0.5),
        LossKind.huberized_hinge(0.0, 0.3),
    )
    h = hashlib.sha256()
    for kind in kinds:
        f = LossObjective(kind, data)
        for scale in (0.01, 1.0, 10.0):
            x = scale * rng.standard_normal(dim)
            for i in range(n):
                h.update(f.subset_grad(x, [i]).tobytes())
    return h.hexdigest()


def main() -> int:
    if not Path(sadmm.harness.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"fingerprint: sadmm imported from {sadmm.harness.__file__}, not from {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    logging.disable(logging.WARNING)
    warnings.simplefilter("ignore")
    print(f"subset_grad rows {row_table_digest()}", flush=True)
    with tempfile.TemporaryDirectory() as cache_dir:
        trace_digests(Path(cache_dir))
    return 0


if __name__ == "__main__":
    sys.exit(main())
