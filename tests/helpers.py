"""Shared test oracles and tiny problem builders."""

from __future__ import annotations

import numpy as np

from sadmm.linalg import SparseMatrixCSR
from sadmm.losses import Dataset, LossKind, LossObjective
from sadmm.problem import ProblemSpec
from sadmm.prox import Regularizer


class QuadraticObjective:
    """f(x) = (1/n) sum_i (q/2)||x - c_i||^2, an oracle with closed forms.

    Every component is q-smooth and q-strongly convex; the full gradient is
    q (x - mean(c)) and the minimizer of f alone is the center mean.
    """

    def __init__(self, centers: np.ndarray, q: float = 1.0):
        self.centers = np.asarray(centers, dtype=np.float64)
        if self.centers.ndim != 2:
            raise ValueError("centers must be (n, dim)")
        self.q = float(q)

    @property
    def n(self) -> int:
        return self.centers.shape[0]

    @property
    def dim(self) -> int:
        return self.centers.shape[1]

    @property
    def smoothness(self) -> float:
        return self.q

    @property
    def strong_convexity(self) -> float:
        return self.q

    @property
    def mean_center(self) -> np.ndarray:
        return self.centers.mean(axis=0)

    def value(self, x) -> float:
        diffs = np.asarray(x) - self.centers
        return 0.5 * self.q * float(np.mean(np.sum(diffs * diffs, axis=1)))

    def full_grad(self, x) -> np.ndarray:
        return self.q * (np.asarray(x, dtype=np.float64) - self.mean_center)

    def subset_grad(self, x, idx) -> np.ndarray:
        idx = np.asarray(idx, dtype=np.int64)
        return self.q * (np.asarray(x, dtype=np.float64) - self.centers[idx].mean(axis=0))

    def subset_grad_diff(self, x, x_ref, idx) -> np.ndarray:
        # every component's gradient is q (x - c_i): the centers cancel
        return self.q * (np.asarray(x, dtype=np.float64) - np.asarray(x_ref, dtype=np.float64))

    def hess_vec(self, x, v) -> np.ndarray:
        return self.q * np.asarray(v, dtype=np.float64)

    def hessian(self, x) -> np.ndarray:
        return self.q * np.eye(self.dim)


def quadratic_problem(centers, q=1.0, lambda1=0.0, A=None) -> ProblemSpec:
    f = QuadraticObjective(np.asarray(centers, dtype=np.float64), q=q)
    if A is None:
        A = SparseMatrixCSR.identity(f.dim)
    return ProblemSpec(f, Regularizer(lambda1), A)


def tiny_dataset(n=6, dim=4, seed=0, density=0.8) -> Dataset:
    """Small dense-ish random dataset with +-1 labels."""
    rng = np.random.default_rng(seed)
    rows = []
    import scipy.sparse

    X = rng.standard_normal((n, dim))
    X[rng.random((n, dim)) > density] = 0.0
    # ensure no all-zero dataset
    X[0, 0] = X[0, 0] if X[0, 0] != 0 else 1.0
    labels = rng.choice([-1.0, 1.0], size=n)
    return Dataset(SparseMatrixCSR.from_scipy(scipy.sparse.csr_matrix(X)), labels)


def dataset_from_rows(rows, labels, dim) -> Dataset:
    """rows: list of dicts {col: val}."""
    import scipy.sparse

    mat = scipy.sparse.lil_matrix((len(rows), dim))
    for i, row in enumerate(rows):
        for j, v in row.items():
            mat[i, j] = v
    return Dataset(
        SparseMatrixCSR.from_scipy(mat.tocsr()), np.asarray(labels, dtype=np.float64)
    )


ALL_KINDS = [
    LossKind.logistic(),
    LossKind.l2_logistic(0.01),
    LossKind.huberized_hinge(0.01, 0.5),
    LossKind.huberized_hinge(0.0, 0.3),
]


def loss_objective(kind: LossKind, data: Dataset) -> LossObjective:
    return LossObjective(kind, data)
