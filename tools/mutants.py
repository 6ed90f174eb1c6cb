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
        "sups = np.abs(xlam)",
        "sups = np.concatenate((np.abs(x), np.zeros_like(lam)))",
        "tests/test_solvers.py::TestStocAdmm::test_zero_gradient_moves_by_penalty_pull",
    ),
    Mutant(
        "vr-sup-lambda-seeded-with-zeros",
        "solvers.py",
        "sups = np.abs(zlam)",
        "sups = np.concatenate((np.abs(z), np.zeros_like(lam)))",
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
    # choice draws arange(n) too, but at the cost of a shuffle every step
    Mutant(
        "full-batch-draws-by-choice",
        "vr.py",
        "        if self.b == self.n:\n            return np.arange(self.n)\n",
        "",
        "tests/test_vr.py::TestSampler::test_full_batch_is_arange",
    ),
    # at n <= 16 a one-sample draw falls to numpy's choice, which draws the
    # same values as the rejection rule, but row by row: only the count of
    # scalar draws sees it
    Mutant(
        "one-sample-draw-by-choice",
        "vr.py",
        "self._rejects = b == 1 or (b * 16 < n and b * (b - 1) < 4 * n)",
        "self._rejects = b * 16 < n and b * (b - 1) < 4 * n",
        "tests/test_vr.py::TestBulkDraw::test_retried_rows_take_the_scalar_path[16-1-0.0-0.0]",
    ),
    Mutant(
        "huber-width-uncapped",
        "losses.py",
        "0 < self.huber_width < 1e150",
        "0 < self.huber_width < np.inf",
        "tests/test_losses.py::TestTypes::test_kind_validation",
    ),
    Mutant(
        "huber-quadratic-piece-over-2w",
        "losses.py",
        "u * u / (4.0 * w)",
        "u * u / (2.0 * w)",
        "tests/test_losses.py::test_huber_pieces_equal_the_masked_transcription_bitwise",
    ),
    Mutant(
        "logistic-loss-takes-max-of-t",
        "losses.py",
        "np.mean(np.maximum(-t, 0.0) + tail)",
        "np.mean(np.maximum(t, 0.0) + tail)",
        "tests/test_losses.py::test_logistic_memo_pieces_equal_two_logaddexp_passes_bitwise",
    ),
    Mutant(
        "logistic-dloss-takes-max-of-minus-t",
        "losses.py",
        "-np.exp(-(np.maximum(t, 0.0) + tail))",
        "-np.exp(-(np.maximum(-t, 0.0) + tail))",
        "tests/test_losses.py::test_logistic_memo_pieces_equal_two_logaddexp_passes_bitwise",
    ),
    Mutant(
        "logistic-tail-without-abs",
        "losses.py",
        "np.logaddexp(0.0, -np.abs(self.margins))",
        "np.logaddexp(0.0, -self.margins)",
        "tests/test_losses.py::test_logistic_memo_pieces_equal_two_logaddexp_passes_bitwise",
    ),
    # numpy's SIMD log1p(exp) is faster than logaddexp's libm calls, but not
    # the same bits
    Mutant(
        "logistic-tail-by-log1p-of-exp",
        "losses.py",
        "np.logaddexp(0.0, -np.abs(self.margins))",
        "np.log1p(np.exp(-np.abs(self.margins)))",
        "tests/test_losses.py::test_logistic_memo_pieces_equal_two_logaddexp_passes_bitwise",
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
        "y_tilde = (1.0 - theta) * state.y_tilde + (theta / m) * sums[:d2]",
        "y_tilde = (theta / m) * sums[:d2]",
        "tests/test_solvers.py::TestEpochReplayOracle",
    ),
    # gap 2: criterion 06 passes with either of these two
    Mutant(
        "decaying-x-mix-ignores-z",
        "solvers.py",
        "x[:] = (1.0 - theta) * x_snap + theta * z",
        "x[:] = (1.0 - theta) * x_snap + theta * x_snap",
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
        "        z[:] = x[:] = x_snap",
        "        z[:], x[:] = state.z, x_snap",
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
    Mutant(
        "csr-row-order-check-negated",
        "linalg.py",
        "if not csr_has_canonical_format(len(off) - 1, off, idx):",
        "if csr_has_canonical_format(len(off) - 1, off, idx):",
        "tests/test_linalg.py::TestCSRInvariants::test_columns_strictly_increasing_within_row",
    ),
    Mutant(
        "newton-stall-never-raises",
        "solvers.py",
        "if gn > max(100.0 * gtol, 1e-6 * (1.0 + gn0)):",
        "if False:",
        "tests/test_solvers.py::TestBatchAdmm::test_x_subproblem_stall_raises_with_its_last_iterate",
    ),
    # the loop's last iterate is returned as the reference
    Mutant(
        "reference-stall-returns",
        "metrics.py",
        '    raise ConvergenceError(\n        f"reference solve stalled',
        "    return ReferenceSolution.at(problem, state.x, state.y, state.lam, beta, tol)\n"
        '    raise ConvergenceError(\n        f"reference solve stalled',
        "tests/test_metrics.py::TestComputeReference::test_stall_raises_with_the_last_iterate",
    ),
    Mutant(
        "non-finite-iterates-pass",
        "solvers.py",
        'raise ConvergenceError("solver diverged: non-finite iterate")',
        "pass",
        "tests/test_harness.py::TestGridSearch::test_skips_a_point_whose_run_diverges",
    ),
    Mutant(
        "grid-sweeps-eta-for-batch",
        "harness.py",
        'etas = etas[:1] if solver == "batch" else etas',
        "etas = list(etas)",
        "tests/test_harness.py::TestGridSearch::test_default_grid_runs_each_distinct_trial_once[batch-4]",
    ),
    Mutant(
        "stoc-resolves-the-configured-b",
        "harness.py",
        'cfg.solver in ("stoc", "batch")',
        'cfg.solver in ("batch",)',
        "tests/test_harness.py::test_stoc_resolves_and_runs_one_sample_per_step",
    ),
    Mutant(
        "batch-resolves-the-configured-b",
        "harness.py",
        'cfg.solver in ("stoc", "batch")',
        'cfg.solver in ("stoc",)',
        "tests/test_harness.py::test_batch_resolves_one_sample_and_traces_as_at_any_b",
    ),
    Mutant(
        "stoc-runs-any-b",
        "harness.py",
        "if config.b != 1:",
        "if False:",
        "tests/test_harness.py::test_stoc_resolves_and_runs_one_sample_per_step",
    ),
    Mutant(
        "polish-keeps-the-flipped-signs",
        "metrics.py",
        "np.sign(y) == pattern",
        "np.sign(y) != pattern",
        "tests/test_metrics.py::TestPolish::test_attempt_ends_at_a_solved_pattern[settled]",
    ),
    Mutant(
        "polish-releases-support-components",
        "metrics.py",
        "released = (pattern == 0.0) & (np.abs(beta_lam) > lam1)",
        "released = np.abs(beta_lam) > lam1",
        "tests/test_metrics.py::TestPolish::test_only_zero_components_are_released",
    ),
    Mutant(
        "y-update-without-threshold",
        "prox.py",
        "return soft_threshold(Az + lam, reg.lambda1 / beta)",
        "return Az + lam",
        "tests/test_prox.py::TestYUpdate::test_hand_case",
    ),
    Mutant(
        "median-summary-takes-the-mean",
        "harness.py",
        "medians = np.median(",
        "medians = np.mean(",
        "tests/test_harness.py::test_median_summary_takes_each_fields_median",
    ),
    Mutant(
        "gamma-check-only-when-strongly-convex",
        "solvers.py",
        "    constant = isinstance(config.schedule, ConstantTheta)\n",
        "    constant = isinstance(config.schedule, ConstantTheta)\n"
        "    if problem.f.strong_convexity <= 0:\n        return None\n",
        "tests/test_solvers.py::TestRateRegimeWarnings::test_general_convex_gamma_below_floor_warns",
    ),
    Mutant(
        "newton-steps-on-after-a-failed-line-search",
        "solvers.py",
        "        else:  # no trial step accepted\n            break\n        x, fx, g = xn, fn, gnew",
        "        x, fx, g = xn, fn, gnew",
        "tests/test_solvers.py::TestBatchAdmm::test_x_subproblem_stops_at_a_failed_line_search",
    ),
    Mutant(
        "optimal-theta-sc-halves-eta",
        "solvers.py",
        "eta = 1.0 / (params.L * alpha)",
        "eta = 0.5 / (params.L * alpha)",
        "tests/test_solvers.py::test_asvrg_sc_per_epoch_contraction_on_criterion_05_instance",
    ),
    # the polish's Newton solve reads the signs of its pattern
    Mutant(
        "polish-penalty-drops-the-signs",
        "metrics.py",
        "g_pen = lam1 * spmv_t(problem.A, sign_pattern)",
        "g_pen = lam1 * spmv_t(problem.A, np.abs(sign_pattern))",
        "tests/test_metrics.py::TestConstrainedNewton::test_solves_the_stationarity_of_its_pattern",
    ),
    Mutant(
        "polish-multipliers-drop-the-signs",
        "metrics.py",
        "beta_lam = lam1 * sign_pattern",
        "beta_lam = lam1 * np.abs(sign_pattern)",
        "tests/test_metrics.py::TestConstrainedNewton::test_solves_the_stationarity_of_its_pattern",
    ),
    Mutant(
        "reference-accepts-an-uncertified-candidate",
        "metrics.py",
        "                if ref.kkt_residual <= tol:\n                    return ref",
        "                return ref",
        "tests/test_metrics.py::TestPolish::test_failed_attempts_stop_later_ones[kkt-failure]",
    ),
    Mutant(
        "x-subproblem-fallback-ascends",
        "solvers.py",
        "step_dir = -g",
        "step_dir = g",
        "tests/test_solvers.py::TestBatchAdmm::test_x_subproblem_falls_back_to_steepest_descent",
    ),
    # criterion 06 passes under both: its slopes move, but not past its thresholds
    Mutant(
        "decaying-theta0-halved",
        "solvers.py",
        "theta = bound if sched.theta0 is None else float(sched.theta0)",
        "theta = 0.5 * bound if sched.theta0 is None else float(sched.theta0)",
        "tests/test_solvers.py::test_criterion_06_slopes_stay_in_their_bands",
    ),
    Mutant(
        "constant-theta-epoch-carries-z",
        "solvers.py",
        "        z[:] = x[:] = x_snap",
        "        z[:] = x[:] = state.z",
        "tests/test_solvers.py::test_criterion_06_slopes_stay_in_their_bands",
    ),
    Mutant(
        "decaying-theta0-halved-in-regime",
        "solvers.py",
        "theta = bound if sched.theta0 is None else float(sched.theta0)",
        "theta = 0.5 * bound if sched.theta0 is None else float(sched.theta0)",
        "tests/test_solvers.py::test_criterion_06_holds_inside_the_rate_regime",
    ),
    Mutant(
        "constant-theta-step-without-theta",
        "solvers.py",
        "scale = config.eta / (gamma * theta)",
        "scale = config.eta / gamma",
        "tests/test_solvers.py::test_constant_theta_moves_x_as_theta_one_while_the_clip_is_saturated",
    ),
    # criterion 05, its contraction pin, the equal-step test and the
    # constant-theta identity test all pass under it: each run still draws
    # from one fixed seed, but a 10-epoch run is no longer the prefix of a
    # 20-epoch one
    Mutant(
        "vr-sampler-seed-reads-the-epoch-count",
        "solvers.py",
        "sampler = BatchSampler(f.n, config.b, config.seed)",
        "sampler = BatchSampler(f.n, config.b, config.seed + config.epochs)",
        "tests/test_harness.py::test_a_run_is_a_prefix_of_a_longer_run",
    ),
    Mutant(
        "decaying-regime-epochs-counted-from-zero",
        "solvers.py",
        "for epoch in range(1, epochs + 1):",
        "for epoch in range(epochs):",
        "tests/test_solvers.py::TestRateRegimeWarnings::test_decaying_schedule_names_its_first_epochs_outside_the_regime",
    ),
    # the regime walk: one loop for both schedules, over at least one epoch
    Mutant(
        "constant-regime-theta-stepped-by-theta-next",
        "solvers.py",
        "            if constant:\n                break\n",
        "",
        "tests/test_solvers.py::TestRateRegimeWarnings::test_constant_theta_walks_one_epoch_and_names_the_run_length",
    ),
    Mutant(
        "regime-indefinite-read-as-below-gamma-min",
        "solvers.py",
        "if gamma < pull / theta:",
        "if gamma < gmin:",
        "tests/test_solvers.py::TestRateRegimeWarnings::test_smallbatch_2k_runs_outside_the_regime",
    ),
    Mutant(
        "regime-constant-theta-read-unchecked",
        "solvers.py",
        "theta = theta0 = _initial_theta(problem, config)",
        "theta = theta0 = getattr(config.schedule, \"theta\", None) or _initial_theta(problem, config)",
        "tests/test_solvers.py::TestRateRegimeWarnings::test_a_constant_theta_above_the_batch_size_bound_is_refused_as_by_the_run",
    ),
    Mutant(
        "regime-walk-skips-a-zero-epoch-run",
        "solvers.py",
        "max(config.epochs, 1)",
        "config.epochs",
        "tests/test_solvers.py::TestRateRegimeWarnings::test_a_zero_epoch_run_is_walked_for_its_first_epoch",
    ),
    # what a matrix's caches read cannot change under them
    Mutant(
        "csr-values-left-writable",
        "linalg.py",
        "arr.flags.writeable = False",
        "arr.flags.writeable = name == \"values\"",
        "tests/test_linalg.py::TestCSRInvariants::test_arrays_and_eigenpairs_are_read_only",
    ),
    Mutant(
        "ata-eigenvectors-left-writable",
        "linalg.py",
        "w.flags.writeable = kept.flags.writeable = False",
        "w.flags.writeable = False",
        "tests/test_linalg.py::TestCSRInvariants::test_arrays_and_eigenpairs_are_read_only",
    ),
    Mutant(
        "labels-left-writable",
        "losses.py",
        "labels.flags.writeable = False",
        "pass",
        "tests/test_losses.py::TestTypes::test_labels_are_read_only",
    ),
    Mutant(
        "solver-config-takes-a-float-seed",
        "solvers.py",
        "not isinstance(self.seed, (int, np.integer))",
        "not isinstance(self.seed, (int, float, np.integer))",
        "tests/test_solvers.py::TestVRConfigValidation::test_solver_config_refusals",
    ),
    # the compiled-loop Gram and full-data products against their scipy forms
    Mutant(
        "gram-dense-read-out-one-row-short",
        "linalg.py",
        "csr_todense(n, n, cp, cj, cx, G)",
        "csr_todense(n - 1, n, cp, cj, cx, G)",
        "tests/test_linalg.py::TestGramEqualsScipy::test_criterion_07_features",
    ),
    Mutant(
        "gram-dense-read-out-starts-at-one",
        "linalg.py",
        "G = np.zeros((n, n))",
        "G = np.ones((n, n))",
        "tests/test_linalg.py::TestGramEqualsScipy::test_criterion_07_features",
    ),
    Mutant(
        "gram-index-dtype-of-csc-only",
        "linalg.py",
        "idx = np.result_type(t.indptr, t.indices, c.indptr, c.indices)",
        "idx = t.indices.dtype",
        "tests/test_linalg.py::TestGramEqualsScipy::test_int64_indices",
    ),
    Mutant(
        "ata-eig-of-a-gram-one-ulp-off",
        "linalg.py",
        "w, Q = np.linalg.eigh(gram(self))",
        "w, Q = np.linalg.eigh(gram(self) * (1 + 2**-52))",
        "tests/test_linalg.py::TestGramEqualsScipy::test_penalty_matrices",
    ),
    Mutant(
        "graph-second-moment-over-n-plus-one",
        "harness.py",
        "second = gram(data.features) / data.n",
        "second = gram(data.features) / (data.n + 1)",
        "tests/test_harness.py::TestGraph::test_edges_match_loop_transcription",
    ),
    Mutant(
        "margins-without-labels",
        "losses.py",
        "return data.labels * _product(data.features.csr, x)",
        "return _product(data.features.csr, x)",
        "tests/test_losses.py::test_full_data_products_equal_scipy_operators_bitwise[logistic-l2=0.0]",
    ),
    Mutant(
        "loss-grad-without-labels",
        "losses.py",
        "_product(data.features.csr_t, self.dloss * data.labels / data.n)",
        "_product(data.features.csr_t, self.dloss / data.n)",
        "tests/test_losses.py::test_full_data_products_equal_scipy_operators_bitwise[logistic-l2=0.0]",
    ),
    Mutant(
        "hess-vec-inner-product-at-x",
        "losses.py",
        "_product(X.csr, v)",
        "_product(X.csr, x)",
        "tests/test_losses.py::test_full_data_products_equal_scipy_operators_bitwise[huberized_hinge-l2=0.0]",
    ),
    Mutant(
        "product-output-starts-at-one",
        "losses.py",
        "out = np.zeros(m.shape[:1] + x.shape[1:])",
        "out = np.ones(m.shape[:1] + x.shape[1:])",
        "tests/test_losses.py::test_full_data_products_equal_scipy_operators_bitwise[logistic-l2=0.0]",
    ),
    Mutant(
        "product-block-one-column-short",
        "losses.py",
        "csr_matvecs(*m.shape, x.shape[1], m.indptr",
        "csr_matvecs(*m.shape, x.shape[1] - 1, m.indptr",
        "tests/test_losses.py::test_full_data_products_equal_scipy_operators_bitwise[logistic-l2=0.01]",
    ),
    # the in-module CG and the stochastic loops' one entry check
    Mutant(
        "cg-direction-aliases-the-residual",
        "linalg.py",
        "p = r.copy()",
        "p = r",
        "tests/test_linalg.py::TestCGEqualsScipy::test_diagonal_operator",
    ),
    Mutant(
        "cg-stop-test-not-strict",
        "linalg.py",
        "if np.linalg.norm(r) < atol:",
        "if np.linalg.norm(r) <= atol:",
        "tests/test_linalg.py::TestCGEqualsScipy::test_diagonal_operator",
    ),
    Mutant(
        "vr-threshold-lambda1-times-beta",
        "solvers.py",
        "tau = reg.lambda1 / beta  # the y-update's threshold",
        "tau = reg.lambda1 * beta  # the y-update's threshold",
        "tests/test_solvers.py::TestEpochReplayOracle::test_constant_weight_epoch_matches_replay",
    ),
    Mutant(
        "stoc-threshold-lambda1-times-beta",
        "solvers.py",
        "tau = reg.lambda1 / beta\n    # the iterates [y | x | lambda]",
        "tau = reg.lambda1 * beta\n    # the iterates [y | x | lambda]",
        "tests/test_solvers.py::TestStocReplay::test_chunks_match_straight_line_loop",
    ),
    Mutant(
        "vr-entry-check-of-lambda-dropped",
        "solvers.py",
        'lam0 = as_vector(state.lambda_tilde, d2, "lambda")',
        "lam0 = state.lambda_tilde",
        "tests/test_solvers.py::TestLoopEntryChecks::test_vr_epoch[decaying-lambda]",
    ),
    Mutant(
        "stoc-entry-check-of-x-dropped",
        "solvers.py",
        'x0 = as_vector(state.x, d1, "x")',
        "x0 = state.x",
        "tests/test_solvers.py::TestLoopEntryChecks::test_stoc_chunk[x]",
    ),
    Mutant(
        "feature-means-over-n-plus-one",
        "harness.py",
        "np.full(data.n, 1.0 / data.n)",
        "np.full(data.n, 1.0 / (data.n + 1))",
        "tests/test_harness.py::TestGraph::test_feature_means_equal_scipy_mean_bitwise[300x10]",
    ),
    # the loops' one iterate buffer: the slices the bookkeeping reads, and
    # the copies the state gets
    Mutant(
        "vr-sups-split-at-the-row-count",
        "solvers.py",
        "state.epoch += 1\n    state.sup_z, state.sup_lambda = _sup(sups[:d1]), _sup(sups[d1:])",
        "state.epoch += 1\n    state.sup_z, state.sup_lambda = _sup(sups[:d2]), _sup(sups[d2:])",
        "tests/test_solvers.py::TestEpochReplayOracle::test_constant_weight_epoch_matches_replay",
    ),
    Mutant(
        "stoc-sups-split-at-the-row-count",
        "solvers.py",
        "state.grad_evals += config.m\n    state.sup_z, state.sup_lambda = _sup(sups[:d1]), _sup(sups[d1:])",
        "state.grad_evals += config.m\n    state.sup_z, state.sup_lambda = _sup(sups[:d2]), _sup(sups[d2:])",
        "tests/test_solvers.py::TestStocReplay::test_non_square_penalty_matches_straight_line_loop",
    ),
    Mutant(
        "stoc-sups-read-swapped",
        "solvers.py",
        "state.grad_evals += config.m\n    state.sup_z, state.sup_lambda = _sup(sups[:d1]), _sup(sups[d1:])",
        "state.grad_evals += config.m\n    state.sup_z, state.sup_lambda = _sup(sups[d1:]), _sup(sups[:d1])",
        "tests/test_solvers.py::TestStocReplay::test_chunks_match_straight_line_loop",
    ),
    Mutant(
        "vr-sups-over-y-and-x",
        "solvers.py",
        "np.maximum(sups, np.abs(zlam), out=sups)",
        "np.maximum(sups, np.abs(yx), out=sups)",
        "tests/test_solvers.py::TestEpochReplayOracle::test_constant_weight_epoch_matches_replay",
    ),
    Mutant(
        "stoc-sups-over-y-and-x",
        "solvers.py",
        "np.maximum(sups, np.abs(xlam), out=sups)",
        "np.maximum(sups, np.abs(yx), out=sups)",
        "tests/test_solvers.py::TestStocReplay::test_chunks_match_straight_line_loop",
    ),
    Mutant(
        "vr-sums-over-z-and-lambda",
        "solvers.py",
        "sums += yx",
        "sums += zlam",
        "tests/test_solvers.py::TestEpochReplayOracle::test_constant_weight_epoch_matches_replay",
    ),
    Mutant(
        "stoc-means-over-x-and-lambda",
        "solvers.py",
        "bars += (yx - bars) / k",
        "bars += (xlam - bars) / k",
        "tests/test_solvers.py::TestStocReplay::test_chunks_match_straight_line_loop",
    ),
    Mutant(
        "soft-threshold-ignores-out",
        "prox.py",
        "np.maximum(np.abs(v) - tau, 0.0), out=out)",
        "np.maximum(np.abs(v) - tau, 0.0))",
        "tests/test_solvers.py::TestEpochReplayOracle::test_constant_weight_epoch_matches_replay",
    ),
    Mutant(
        "vr-iterates-not-copied-out",
        "solvers.py",
        "z.copy(), x.copy(), y.copy(), lam.copy()",
        "z, x, y, lam",
        "tests/test_solvers.py::TestLoopBuffers::test_vr_epoch[constant]",
    ),
    Mutant(
        "vr-carried-lambda-is-the-state-lambda",
        "solvers.py",
        "state.lambda_tilde = lam.copy()",
        "state.lambda_tilde = state.lam",
        "tests/test_solvers.py::TestLoopBuffers::test_vr_epoch[decaying]",
    ),
    Mutant(
        "stoc-iterates-not-copied-out",
        "solvers.py",
        "state.x, state.y, state.lam = x.copy(), y.copy(), lam.copy()",
        "state.x, state.y, state.lam = x, y, lam",
        "tests/test_solvers.py::TestLoopBuffers::test_stoc_chunk",
    ),
    Mutant(
        "stoc-means-not-copied-out",
        "solvers.py",
        "state.y_bar, state.x_bar = bars[:d2].copy(), bars[d2:].copy()",
        "state.y_bar, state.x_bar = bars[:d2], bars[d2:]",
        "tests/test_solvers.py::TestLoopBuffers::test_stoc_chunk",
    ),
    Mutant(
        "stoc-means-written-into-the-entry-arrays",
        "solvers.py",
        "state.y_bar, state.x_bar = bars[:d2].copy(), bars[d2:].copy()",
        "state.y_bar[:], state.x_bar[:] = bars[:d2], bars[d2:]",
        "tests/test_solvers.py::TestLoopBuffers::test_stoc_chunk",
    ),
    # scipy's forms of a matrix: every array read-only (csr's indices and
    # indptr are the matrix's own col_indices and row_offsets)
    Mutant(
        "csr-indices-left-writable",
        "linalg.py",
        "arr.flags.writeable = False",
        "arr.flags.writeable = name == \"col_indices\"",
        "tests/test_linalg.py::TestCSRInvariants::test_scipy_forms_are_read_only",
    ),
    Mutant(
        "csr-indptr-left-writable",
        "linalg.py",
        "arr.flags.writeable = False",
        "arr.flags.writeable = name == \"row_offsets\"",
        "tests/test_linalg.py::TestCSRInvariants::test_scipy_forms_are_read_only",
    ),
    Mutant(
        "csr-t-data-left-writable",
        "linalg.py",
        "t.data.flags.writeable = t.indices.flags.writeable = t.indptr.flags.writeable = False",
        "t.indices.flags.writeable = t.indptr.flags.writeable = False",
        "tests/test_linalg.py::TestCSRInvariants::test_scipy_forms_are_read_only",
    ),
    Mutant(
        "csr-t-indices-left-writable",
        "linalg.py",
        "t.data.flags.writeable = t.indices.flags.writeable = t.indptr.flags.writeable = False",
        "t.data.flags.writeable = t.indptr.flags.writeable = False",
        "tests/test_linalg.py::TestCSRInvariants::test_scipy_forms_are_read_only",
    ),
    Mutant(
        "csr-t-indptr-left-writable",
        "linalg.py",
        "t.data.flags.writeable = t.indices.flags.writeable = t.indptr.flags.writeable = False",
        "t.data.flags.writeable = t.indices.flags.writeable = False",
        "tests/test_linalg.py::TestCSRInvariants::test_scipy_forms_are_read_only",
    ),
    # one array set per matrix, in scipy's index type, and the cache keys of
    # the int64 indices
    Mutant(
        "indices-narrowed-with-no-fit-check",
        "linalg.py",
        "if len(val) < 2**31 and (0 in self.shape or max(self.shape) < 2**31):",
        "if True:",
        "tests/test_linalg.py::TestOneArraySet::test_index_type_is_the_one_scipy_picks",
    ),
    Mutant(
        "indices-kept-wide-for-an-empty-shape",
        "linalg.py",
        "(0 in self.shape or max(self.shape) < 2**31)",
        "max(self.shape) < 2**31",
        "tests/test_linalg.py::TestOneArraySet::test_index_type_is_the_one_scipy_picks",
    ),
    Mutant(
        "indices-narrowed-before-the-range-checks",
        "linalg.py",
        "idx = np.asarray(self.col_indices, dtype=np.int64)",
        "idx = np.asarray(self.col_indices, dtype=np.int64).astype(np.int32).astype(np.int64)",
        "tests/test_linalg.py::TestOneArraySet::test_an_index_past_int32_is_refused_not_wrapped",
    ),
    Mutant(
        "csr-copies-the-arrays",
        "linalg.py",
        "shape=(self.rows, self.cols)\n",
        "shape=(self.rows, self.cols), copy=True\n",
        "tests/test_linalg.py::TestOneArraySet::test_every_route",
    ),
    Mutant(
        "reference-key-hashes-the-stored-indices",
        "harness.py",
        "wide = lambda M: (M.row_offsets.astype(np.int64), M.col_indices.astype(np.int64), M.values)",
        "wide = lambda M: (M.row_offsets, M.col_indices, M.values)",
        "tests/test_harness.py::TestRunExperiment::test_reference_key_is_pinned",
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
