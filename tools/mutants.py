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
        "curvature-from-the-derivative-not-its-negative",
        "losses.py",
        "s = -self.dloss",
        "s = self.dloss",
        "tests/test_losses.py::test_curvature_equals_second_derivative_bitwise",
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
        "return ref if ref.kkt_residual <= tol else None",
        "return ref",
        "tests/test_harness.py::TestRunExperiment::test_reference_cached",
    ),
    Mutant(
        "cache-load-skips-shape-check",
        "harness.py",
        "if (x.shape, y.shape, lam.shape) != ((problem.d1,), (problem.d2,), (problem.d2,)):",
        "if False:",
        "tests/test_harness.py::TestRunExperiment::test_reference_cached",
    ),
    Mutant(
        "reference-key-drops-lambda2",
        "harness.py",
        "repr((kind.kind, kind.lambda2, kind.huber_width,",
        "repr((kind.kind, kind.huber_width,",
        "tests/test_harness.py::TestRunExperiment::test_losses_on_one_dataset_get_their_own_entries",
    ),
    Mutant(
        "get-reference-without-kind-check",
        "harness.py",
        "if kind != problem.f.kind or data is not problem.f.data:",
        "if data is not problem.f.data:",
        "tests/test_harness.py::TestRunExperiment::test_reference_refuses_a_loss_other_than_the_problems",
    ),
    Mutant(
        "reference-kkt-not-derived",
        "metrics.py",
        "kkt_residual=max(kkt_residuals(problem, x, y, lam, beta)),",
        "kkt_residual=0.0,",
        "tests/test_metrics.py::TestComputeReference::test_kkt_residuals_certified",
    ),
    Mutant(
        "rate-omega-inverted",
        "solvers.py",
        "return self.ata_norm / self.aat_min_eig",
        "return self.aat_min_eig / self.ata_norm",
        "tests/test_solvers.py::TestRateFormulas::test_optimal_theta_full_batch_formula",
    ),
    Mutant(
        "sigma-min-read-from-the-zero-eigenvalues",
        "linalg.py",
        "sigma_min = float(w[max(A.cols - A.rows, 0)])",
        "sigma_min = float(w[0])",
        "tests/test_linalg.py::TestSpectral::test_min_eig_wide",
    ),
    Mutant(
        "dual-over-all-eigenpairs",
        "solvers.py",
        "r = min(A.rows, A.cols)",
        "r = A.cols",
        "tests/test_solvers.py::test_dual_solve_matches_pseudo_inverse",
    ),
    Mutant(
        "dual-without-rank-check",
        "solvers.py",
        "    problem.spectra  # raises RankDeficiencyError before any division\n",
        "",
        "tests/test_solvers.py::test_constant_theta_dual_refuses_a_rank_deficient_a",
    ),
    Mutant(
        "solve-aat-nan-residual-passes",
        "linalg.py",
        "if not resid <= tol * nv:",
        "if resid > tol * nv:",
        "tests/test_linalg.py::TestSolveAAT::test_nan_rhs_raises",
    ),
    Mutant(
        "inner-tol-unchecked",
        "solvers.py",
        "if not 0 < self.inner_tol < math.inf:",
        "if False:",
        "tests/test_harness.py::test_non_finite_settings_are_refused",
    ),
    Mutant(
        "plan-batch-positions-rebased-to-zero",
        "losses.py",
        "indptr, labels = self.indptr[r0 : r1 + 1], self.labels[r0:r1]",
        "indptr, labels = self.indptr[r0 : r1 + 1] - self.indptr[r0], self.labels[r0:r1]",
        "tests/test_losses.py::test_batch_plan_equals_batch_kernel_bitwise",
    ),
    Mutant(
        "plan-batch-bounds-off-by-one",
        "losses.py",
        "self.rows = [0, *np.cumsum(sizes).tolist()]",
        "self.rows = [1, *np.cumsum(sizes).tolist()]",
        "tests/test_losses.py::test_batch_plan_equals_batch_kernel_bitwise",
    ),
    Mutant(
        "plan-scatters-the-margins",
        "losses.py",
        "self.data, coef, g)",
        "self.data, Ax, g)",
        "tests/test_losses.py::test_batch_plan_equals_batch_kernel_bitwise",
    ),
    # the test's first call passes a short x that batch 0 reads only in
    # range, so the unchecked loop reads no memory past it
    Mutant(
        "plan-grad-without-shape-check",
        "losses.py",
        "if x.shape != (self.dim,):",
        "if False:",
        "tests/test_losses.py::test_plan_grad_checks_the_shape_of_x_first",
    ),
    Mutant(
        "plan-reads-batch-rows-column-major",
        "losses.py",
        "idx = batches.ravel() if rowwise",
        "idx = batches.T.ravel() if rowwise",
        "tests/test_losses.py::test_batch_plan_takes_a_batch_per_row",
    ),
    Mutant(
        "plan-takes-non-integer-indices",
        "losses.py",
        'if idx.dtype.kind not in "iu":',
        "if False:",
        "tests/test_losses.py::test_batch_plan_refuses_non_integer_indices",
    ),
    Mutant(
        "vr-gradient-takes-non-integer-indices",
        "vr.py",
        'if batch.dtype.kind not in "iu":',
        "if False:",
        "tests/test_vr.py::TestVRGradient::test_rejects_non_integer_indices",
    ),
    Mutant(
        "bulk-draw-block-counter-from-zero",
        "vr.py",
        "even[0] = np.arange(1, blocks + 1, dtype=np.uint64)",
        "even[0] = np.arange(blocks, dtype=np.uint64)",
        "tests/test_vr.py::TestBulkDraw::test_rows_equal_scalar_draws[2000-20]",
    ),
    Mutant(
        "bulk-draw-high-half-first",
        "vr.py",
        "np.stack((words & _LO32, words >> 32), axis=-1)",
        "np.stack((words >> 32, words & _LO32), axis=-1)",
        # with b even a row takes both halves of its words, and sorts them
        "tests/test_vr.py::TestBulkDraw::test_rows_equal_scalar_draws[2000-1]",
    ),
    Mutant(
        "bulk-draw-keeps-lemire-rejections",
        "vr.py",
        "return idx, ~rejected & (idx[:, 1:] > idx[:, :-1]).all(axis=1)",
        "return idx, (idx[:, 1:] > idx[:, :-1]).all(axis=1)",
        "tests/test_vr.py::TestBulkDraw::test_rows_equal_scalar_draws[2147483659-1]",
    ),
    Mutant(
        "rejection-draw-keeps-the-last-distinct-tuple",
        "vr.py",
        "return idx[distinct.argmax()]",
        "return idx[len(distinct) - 1 - distinct[::-1].argmax()]",
        "tests/test_vr.py::TestRejectionTries",
    ),
    Mutant(
        "vr-gradient-plan-without-snapshot",
        "vr.py",
        "f.batch_plan([batch], snap.x_tilde)",
        "f.batch_plan([batch])",
        "tests/test_vr.py::TestVRGradient::test_at_snapshot_returns_full_grad",
    ),
    Mutant(
        "generator-copy-block-ends-a-row-early",
        "datasets.py",
        "lo, hi = offsets[rows.start], offsets[rows.stop]",
        "lo, hi = offsets[rows.start], offsets[rows.stop - 1]",
        "tests/test_datasets.py::TestMakeClassification::test_csr_matches_dense_transcription",
    ),
    # the same bits from a second full-size array: only the memory test sees it
    Mutant(
        "generator-scales-out-of-place",
        "datasets.py",
        "X *= 2.0 / max(max_norm, 1e-12)",
        "X = X * (2.0 / max(max_norm, 1e-12))",
        "tests/test_datasets.py::TestMakeClassification::test_peak_memory_is_the_draw_and_its_csr",
    ),
    Mutant(
        "stoc-first-step-off-by-one",
        "solvers.py",
        "first = state.grad_evals + 1",
        "first = state.grad_evals",
        "tests/test_solvers.py::TestStocReplay",
    ),
    # on the test's 240 x 60 matrix the row loop over 60 "rows" reads only
    # row offsets and entries of y that exist
    Mutant(
        "spmv-t-runs-the-row-loop",
        "linalg.py",
        "csc_matvec(A.cols, A.rows, A.row_offsets",
        "csr_matvec(A.cols, A.rows, A.row_offsets",
        "tests/test_linalg.py::TestSpmvEqualsScipy::test_four_clique_graph",
    ),
    Mutant(
        "spmv-output-starts-from-ones",
        "linalg.py",
        "Ax = np.zeros(A.rows)",
        "Ax = np.ones(A.rows)",
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
