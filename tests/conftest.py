"""Session fixtures: instances and solver curves that tests in more than one
module read."""

import dataclasses

import pytest

from sadmm.datasets import make_classification
from sadmm.harness import build_graph_matrix, run_solver
from sadmm.losses import LossKind, LossObjective
from sadmm.metrics import compute_reference
from sadmm.problem import ProblemSpec
from sadmm.prox import Regularizer

from helpers import criterion_05_config, criterion_06_curves


@pytest.fixture(scope="session")
def general_convex_instance():
    # criterion 06's instance: duplicated columns remove strong convexity; a
    # few heavy rows push the worst-case per-sample smoothness far above the
    # typical curvature, so valid constant steps are small and the order
    # separation is measurable
    data = make_classification(
        1000, 50, seed=11, n_correlated_pairs=4, duplicate_pairs=4,
        heavy_row_fraction=0.05, heavy_row_factor=10.0,
    )
    A = build_graph_matrix(data, 0.9)
    problem = ProblemSpec(LossObjective(LossKind.logistic(), data), Regularizer(1e-5), A)
    return problem, compute_reference(problem, tol=1e-10)


@pytest.fixture(scope="session")
def criterion_06_preset_curves(general_convex_instance):
    # criterion 06 and its slope pin read the same curves, at the preset
    # beta = 1 and gamma = 1
    return criterion_06_curves(*general_convex_instance, beta=1.0, gamma=1.0)


@pytest.fixture(scope="session")
def strongly_convex_instance():
    # criterion 05's instance, its reference and its asvrg_sc config (see
    # helpers.criterion_05_config)
    data = make_classification(1000, 50, seed=7)
    A = build_graph_matrix(data, 0.9)
    problem = ProblemSpec(LossObjective(LossKind.l2_logistic(1e-2), data), Regularizer(1e-5), A)
    return problem, compute_reference(problem, tol=1e-10), criterion_05_config(problem)


@pytest.fixture(scope="session")
def criterion_05_traces(strongly_convex_instance):
    # criterion 05 and its contraction pin read these asvrg_sc traces at
    # seeds 0-9, and the equal-step test reads rows 0-10 of seeds 0-4
    problem, ref, config = strongly_convex_instance
    return [run_solver(problem, "asvrg_sc", dataclasses.replace(config, seed=seed), ref=ref)
            for seed in range(10)]
