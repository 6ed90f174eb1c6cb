#!/usr/bin/env python3
"""Mutation check: each hand-made mutant of src/ must fail the test it names.

    python3 tools/mutants.py            # every mutant
    python3 tools/mutants.py NAME ...   # the named mutants only

Each row of MUTANTS names a file under src/sadmm/, an exact text in it, the
text that replaces it and one pytest node. The script copies src/, tests/
and pyproject.toml to a temporary directory and runs every named node there
once unmutated: they must pass. Then, for each row, it replaces the text
(which must occur exactly once in the file), runs the node with that copy of
src/ first on the path, and restores the file. A mutant is killed when its
test fails; it survives when the test passes. Any other pytest outcome (a
mutant that does not import, say) counts as an error.

The exit status is 1 when a text is not found exactly once, a named test
fails unmutated, or a mutant survives or errs; 0 otherwise. The mutants
take about three seconds each on a 2-core Xeon. The script is not part of the
test suite.
"""

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # under src/sadmm/
    text: str
    replacement: str
    test: str  # pytest node, relative to the repository root


MUTANTS = (
    Mutant(
        "stoc-sup-lambda-seeded-with-zeros",
        "solvers.py",
        "abs_x, abs_lam = np.abs(x), np.abs(lam)",
        "abs_x, abs_lam = np.abs(x), np.zeros_like(lam)",
        "tests/test_solvers.py::TestStocAdmm::test_zero_gradient_moves_by_penalty_pull",
    ),
    Mutant(
        "vr-sup-lambda-seeded-with-zeros",
        "solvers.py",
        "abs_z, abs_lam = np.abs(z), np.abs(lam)",
        "abs_z, abs_lam = np.abs(z), np.zeros_like(lam)",
        "tests/test_solvers.py::TestVREpochIdentities::test_sup_lambda_counts_the_entry_dual",
    ),
    Mutant(
        "memo-keyed-on-id",
        "losses.py",
        "key = x.tobytes()",
        "key = id(x)",
        "tests/test_losses.py::test_memo_answers_equal_a_fresh_objective",
    ),
    Mutant(
        "memo-never-refreshed",
        "losses.py",
        "if self._memo is None or self._memo.key != key:",
        "if self._memo is None:",
        "tests/test_losses.py::test_memo_answers_equal_a_fresh_objective",
    ),
    Mutant(
        "full-grad-returns-the-memo-array",
        "losses.py",
        "return g.copy()",
        "return g",
        "tests/test_losses.py::test_memo_answers_equal_a_fresh_objective",
    ),
    Mutant(
        "polish-without-stop-rule",
        "metrics.py",
        "if new_pattern.tobytes() in solved:",
        "if False:",
        "tests/test_metrics.py::TestPolish::test_attempt_ends_at_a_solved_pattern",
    ),
    Mutant(
        "polish-failed-set-never-filled",
        "metrics.py",
        "failed |= solved",
        "pass",
        "tests/test_metrics.py::TestPolish::test_reference_equals_thirty_round_polish[criterion-07]",
    ),
    Mutant(
        "polish-failed-set-checked-only-at-start",
        "metrics.py",
        "if pattern.tobytes() in failed:",
        "if not solved and pattern.tobytes() in failed:",
        "tests/test_metrics.py::TestPolish::test_attempt_ends_before_a_failed_pattern[reaches-failed]",
    ),
    Mutant(
        "cache-load-skips-kkt-gate",
        "harness.py",
        "if kkt <= tol else None",
        "if True else None",
        "tests/test_harness.py::TestRunExperiment::test_reference_cached",
    ),
    Mutant(
        "plan-row-ids-not-reset-per-batch",
        "losses.py",
        "self.row = (np.arange(len(idx)) - rows[:-1].repeat(sizes)).repeat(counts)",
        "self.row = np.arange(len(idx)).repeat(counts)",
        "tests/test_losses.py::test_batch_plan_equals_batch_kernel_bitwise",
    ),
    Mutant(
        "plan-batch-bounds-off-by-one",
        "losses.py",
        "self.nz = np.concatenate(([0], ends))[rows].tolist()",
        "self.nz = (np.concatenate(([0], ends))[rows] + 1).tolist()",
        "tests/test_losses.py::test_batch_plan_equals_batch_kernel_bitwise",
    ),
    Mutant(
        "vr-gradient-plan-without-snapshot",
        "vr.py",
        "f.batch_plan([batch], snap.x_tilde)",
        "f.batch_plan([batch])",
        "tests/test_vr.py::TestVRGradient::test_at_snapshot_returns_full_grad",
    ),
    Mutant(
        "stoc-first-step-off-by-one",
        "solvers.py",
        "first = state.grad_evals + 1",
        "first = state.grad_evals",
        "tests/test_solvers.py::TestStocReplay",
    ),
    Mutant(
        "spmv-without-minlength",
        "linalg.py",
        "minlength=A.rows)",
        ")",
        "tests/test_linalg.py::TestSpmvEqualsScipy::test_empty_rows_and_columns",
    ),
    Mutant(
        "spmv-t-gathers-by-column",
        "linalg.py",
        "weights=A.values * y[A.nz_rows]",
        "weights=A.values * y[A.col_indices]",
        "tests/test_linalg.py::TestSpmvEqualsScipy::test_four_clique_graph",
    ),
    Mutant(
        "spmv-returns-integer-zeros",
        "linalg.py",
        "return Ax.astype(np.float64, copy=False)",
        "return Ax",
        "tests/test_linalg.py::TestSpmvEqualsScipy::test_no_stored_nonzero",
    ),
    Mutant(
        "y-tilde-without-carry",
        "solvers.py",
        "y_tilde = (1.0 - theta) * state.y_tilde + (theta / m) * sum_y",
        "y_tilde = (theta / m) * sum_y",
        "tests/test_solvers.py::TestEpochReplayOracle",
    ),
    # gap 2: criterion 06 passes with either of these two
    Mutant(
        "decaying-x-mix-ignores-z",
        "solvers.py",
        "x = (1.0 - theta) * x_snap + theta * z",
        "x = (1.0 - theta) * x_snap + theta * x_snap",
        "tests/test_solvers.py::TestEpochReplayOracle",
    ),
    Mutant(
        "decaying-lambda-not-carried",
        "solvers.py",
        "state.lambda_tilde = lam.copy()",
        "state.lambda_tilde = state.lambda_tilde.copy()",
        "tests/test_solvers.py::TestVREpochIdentities::test_gc_carries_z_and_lambda",
    ),
    # also killed by tests/test_harness.py::test_resolve_constant_momentum_needs_eta_below_half_over_L
    Mutant(
        "theta-bound-without-eta-check",
        "solvers.py",
        "if eta >= 1.0 / (2.0 * L):",
        "if False:",
        "tests/test_solvers.py::TestVRConfigValidation::test_eta_upper_bound",
    ),
    Mutant(
        "svrg-accepts-any-constant-theta",
        "harness.py",
        ' or (solver == "svrg" and sched.theta != 1.0)',
        "",
        "tests/test_solvers.py::TestVRConfigValidation::test_svrg_rejects_momentum_schedule",
    ),
    Mutant(
        "constant-theta-z-restarts-from-last-z",
        "solvers.py",
        "z, x = x_snap.copy(), x_snap.copy()",
        "z, x = state.z.copy(), x_snap.copy()",
        "tests/test_solvers.py::TestEpochReplayOracle",
    ),
    # the byte-identity half of criterion 04 catches a run_solver that
    # branches on the solver name
    Mutant(
        "run-solver-branches-on-svrg",
        "harness.py",
        "epoch_fn = vr_admm_epoch",
        "epoch_fn = (lambda st, p, c: vr_admm_epoch(st, p, replace(c, seed=c.seed + 1)))"
        ' if solver == "svrg" else vr_admm_epoch',
        "tests/test_acceptance.py::test_criterion_04_degeneracy_equivalences",
    ),
)


def run_pytest(tree: Path, nodes) -> int:
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *nodes]
    return subprocess.run(cmd, cwd=tree, env=env, capture_output=True).returncode


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("names", nargs="*", help="mutants to run (default: all)")
    args = parser.parse_args(argv)
    by_name = {m.name: m for m in MUTANTS}
    unknown = [n for n in args.names if n not in by_name]
    if unknown:
        parser.error(f"unknown mutant(s): {', '.join(unknown)}")
    chosen = [by_name[n] for n in args.names] or list(MUTANTS)

    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp)
        skip = shutil.ignore_patterns("__pycache__", ".hypothesis")
        shutil.copytree(ROOT / "src", tree / "src", ignore=skip)
        shutil.copytree(ROOT / "tests", tree / "tests", ignore=skip)
        shutil.copy(ROOT / "pyproject.toml", tree)

        bad = 0
        for m in chosen:
            count = (tree / "src" / "sadmm" / m.path).read_text().count(m.text)
            if count != 1:
                print(f"{m.name}: text found {count} times in {m.path}, expected once")
                bad += 1
        if bad:
            return 1
        if run_pytest(tree, sorted({m.test for m in chosen})) != 0:
            print("the named tests do not all pass on the unmutated copy")
            return 1

        failed = 0
        for m in chosen:
            target = tree / "src" / "sadmm" / m.path
            original = target.read_text()
            target.write_text(original.replace(m.text, m.replacement))
            t0 = time.perf_counter()
            try:
                rc = run_pytest(tree, [m.test])
            finally:
                target.write_text(original)
            outcome = {1: "killed", 0: "SURVIVED"}.get(rc, f"ERROR (pytest exit {rc})")
            failed += rc != 1
            print(f"{m.name}: {outcome} ({m.test}, {time.perf_counter() - t0:.1f} s)", flush=True)
    print(f"{len(chosen) - failed} of {len(chosen)} mutants killed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
