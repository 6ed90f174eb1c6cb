"""Smooth empirical losses: the LossObjective oracle and the loss kinds.

The smooth part of every benchmark problem is an average f(x) = (1/n) sum_i
f_i(x) over labeled samples. Three variants are supported: plain logistic,
l2-regularized logistic, and the huberized hinge (a C^1 piecewise-quadratic
smoothing of the hinge). The optional ridge term lambda2/2 ||x||^2 is folded
into every f_i, which is what makes f strongly convex with mu = lambda2.

A LossKind names the loss and its parameters, a Dataset holds the samples,
and LossObjective(kind, data) is the one entry point to the loss math: the
value, the full, mini-batch and mini-batch-difference gradients, the
Hessian-vector product, the dense Hessian, and the smoothness constant L.

Full-data quantities go through scipy's CSR products. A mini-batch gradient,
whatever the batch size, is one vectorised pass over the batch's nonzeros
in the raw CSR arrays: a gather, a bincount for the margins, and a bincount
that scatters the gradient. A mini-batch gradient difference between two
points, the core of the variance-reduced estimator, is also one gather and
one scatter: both margins come from the same gathered nonzeros, and only
the difference of the two loss derivatives is scattered.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DataFormatError, DimensionError
from .linalg import SparseMatrixCSR, as_vector

LOGISTIC = "logistic"
HUBERIZED_HINGE = "huberized_hinge"


@dataclass(frozen=True)
class LossKind:
    """Which per-sample loss to use, plus its parameters."""

    kind: str
    lambda2: float = 0.0
    huber_width: float = 0.5

    def __post_init__(self):
        if self.kind not in (LOGISTIC, HUBERIZED_HINGE):
            raise ValueError(f"unknown loss kind {self.kind!r}")
        if self.lambda2 < 0:
            raise ValueError("lambda2 must be >= 0")
        if self.huber_width <= 0:
            raise ValueError("huber_width must be > 0")

    @classmethod
    def logistic(cls) -> "LossKind":
        return cls(LOGISTIC)

    @classmethod
    def l2_logistic(cls, lambda2: float) -> "LossKind":
        return cls(LOGISTIC, lambda2=lambda2)

    @classmethod
    def huberized_hinge(cls, lambda2: float = 0.0, huber_width: float = 0.5) -> "LossKind":
        return cls(HUBERIZED_HINGE, lambda2=lambda2, huber_width=huber_width)


@dataclass(frozen=True, eq=False)
class Dataset:
    """Labeled samples stored as a CSR feature matrix, with cached row norms."""

    features: SparseMatrixCSR  # n x dim
    labels: np.ndarray  # +-1, length n
    norms_sq: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        labels = np.asarray(self.labels, dtype=np.float64)
        if labels.ndim != 1 or len(labels) != self.features.rows:
            raise DimensionError("labels length must equal the number of feature rows")
        if not np.all(np.abs(labels) == 1.0):
            raise DataFormatError("labels must be +1 or -1")
        object.__setattr__(self, "labels", labels)
        if self.norms_sq is None:
            sq = self.features.csr.multiply(self.features.csr)
            object.__setattr__(self, "norms_sq", np.asarray(sq.sum(axis=1)).ravel())

    @property
    def n(self) -> int:
        return self.features.rows

    @property
    def dim(self) -> int:
        return self.features.cols


def _margins(data: Dataset, x: np.ndarray) -> np.ndarray:
    # t_i = b_i a_i^T x
    return data.labels * (data.features.csr @ x)


def _loss_of_margin(kind: LossKind, t: np.ndarray) -> np.ndarray:
    if kind.kind == LOGISTIC:
        # log(1 + exp(-t)), overflow-safe for any margin
        return np.logaddexp(0.0, -t)
    w = kind.huber_width
    out = np.zeros_like(t)
    quad = (t < 1.0) & (t >= 1.0 - 2.0 * w)
    lin = t < 1.0 - 2.0 * w
    out[quad] = (1.0 - t[quad]) ** 2 / (4.0 * w)
    out[lin] = 1.0 - t[lin] - w
    return out


def _dloss_of_margin(kind: LossKind, t: np.ndarray) -> np.ndarray:
    if kind.kind == LOGISTIC:
        # -sigmoid(-t), computed in log space to avoid overflow
        return -np.exp(-np.logaddexp(0.0, t))
    w = kind.huber_width
    out = np.zeros_like(t)
    quad = (t < 1.0) & (t >= 1.0 - 2.0 * w)
    lin = t < 1.0 - 2.0 * w
    out[quad] = -(1.0 - t[quad]) / (2.0 * w)
    out[lin] = -1.0
    return out


def _d2loss_of_margin(kind: LossKind, t: np.ndarray) -> np.ndarray:
    if kind.kind == LOGISTIC:
        s = np.exp(-np.logaddexp(0.0, t))  # sigmoid(-t)
        return s * (1.0 - s)
    w = kind.huber_width
    out = np.zeros_like(t)
    out[(t < 1.0) & (t >= 1.0 - 2.0 * w)] = 1.0 / (2.0 * w)
    return out


def _gather_rows(data: Dataset, idx):
    """The nonzeros of the rows ``idx``, read once from the CSR arrays.

    Returns (row, cols, vals, labels): nonzero k sits in column cols[k] with
    value vals[k] and belongs to batch position row[k], whose label is
    labels[row[k]].
    """
    idx = np.asarray(idx, dtype=np.int64)
    if len(idx) == 0:
        raise ValueError("empty index subset")
    if idx.min() < 0 or idx.max() >= data.n:
        raise IndexError("sample index out of range")
    off = data.features.row_offsets
    starts = off[idx]
    counts = off[idx + 1] - starts
    ends = counts.cumsum()
    row = np.arange(len(idx)).repeat(counts)
    # pos[k]: offset of nonzero k in col_indices/values
    pos = np.arange(ends[-1]) + (starts - ends + counts).repeat(counts)
    return row, data.features.col_indices[pos], data.features.values[pos], data.labels[idx]



class LossObjective:
    """Binds a LossKind and Dataset into the smooth-objective oracle.

    Exposes the interface the estimators and solvers consume: value,
    full_grad, subset_grad (mean over a batch), subset_grad_diff (mean
    gradient difference between two points over a batch), hess_vec, the
    dense hessian, plus the smoothness constant L = max_i L_i and strong
    convexity mu = lambda2.
    """

    def __init__(self, kind: LossKind, data: Dataset):
        if data.n == 0:
            raise ValueError("empty dataset")
        self.kind = kind
        self.data = data
        # L_i = ||a_i||^2 * curvature + lambda2: logistic curvature is at
        # most 1/4, the huberized hinge's at most 1/(2*huber_width), both
        # along the sample direction
        max_sq = float(data.norms_sq.max())
        if kind.kind == LOGISTIC:
            self._L = max_sq / 4.0 + kind.lambda2
        else:
            self._L = max_sq / (2.0 * kind.huber_width) + kind.lambda2
        self._curvature_at = (None, None)  # (x.tobytes(), curvature / n) of hess_vec

    @property
    def n(self) -> int:
        return self.data.n

    @property
    def dim(self) -> int:
        return self.data.dim

    @property
    def smoothness(self) -> float:
        """L = max_i L_i with L_i the gradient Lipschitz constant of f_i."""
        return self._L

    @property
    def strong_convexity(self) -> float:
        return self.kind.lambda2

    def value(self, x) -> float:
        """f(x) = (1/n) sum_i loss(b_i a_i^T x) + lambda2/2 ||x||^2."""
        kind, data = self.kind, self.data
        x = as_vector(x, data.dim, "x")
        t = _margins(data, x)
        val = float(np.mean(_loss_of_margin(kind, t)))
        if kind.lambda2 > 0:
            val += 0.5 * kind.lambda2 * float(x @ x)
        return val

    def full_grad(self, x) -> np.ndarray:
        """Gradient of f at x; equals the mean of all per-sample gradients."""
        kind, data = self.kind, self.data
        x = as_vector(x, data.dim, "x")
        t = _margins(data, x)
        coef = _dloss_of_margin(kind, t) * data.labels / data.n
        g = data.features.csr_t @ coef
        if kind.lambda2 > 0:
            g = g + kind.lambda2 * x
        return g

    def subset_grad(self, x, idx) -> np.ndarray:
        """Mean of per-sample gradients over the index subset ``idx``."""
        kind, data = self.kind, self.data
        x = as_vector(x, data.dim, "x")
        row, cols, vals, labels = _gather_rows(data, idx)
        b = len(labels)
        t = labels * np.bincount(row, weights=vals * x[cols], minlength=b)
        coef = _dloss_of_margin(kind, t) * labels / b
        g = np.bincount(cols, weights=coef[row] * vals, minlength=data.dim)
        if kind.lambda2 > 0:
            g = g + kind.lambda2 * x
        return g

    def subset_grad_diff(self, x, x_ref, idx) -> np.ndarray:
        """Mean over ``idx`` of grad f_i(x) - grad f_i(x_ref).

        Every f_i is a loss of the margin b_i a_i^T x, so the difference of
        the two gradients is a_i times the difference of the two loss
        derivatives: the batch is gathered once and scattered once.
        """
        kind, data = self.kind, self.data
        x = as_vector(x, data.dim, "x")
        x_ref = as_vector(x_ref, data.dim, "x_ref")
        row, cols, vals, labels = _gather_rows(data, idx)
        b = len(labels)
        t = labels * np.bincount(row, weights=vals * x[cols], minlength=b)
        t_ref = labels * np.bincount(row, weights=vals * x_ref[cols], minlength=b)
        coef = (_dloss_of_margin(kind, t) - _dloss_of_margin(kind, t_ref)) * labels / b
        g = np.bincount(cols, weights=coef[row] * vals, minlength=data.dim)
        if kind.lambda2 > 0:
            g = g + kind.lambda2 * (x - x_ref)
        return g

    def hess_vec(self, x, v) -> np.ndarray:
        """(Generalized) Hessian-vector product of f at x.

        Newton-CG asks for many products at one x, so the n curvatures at
        the last x are kept, keyed on the bytes of x: a caller that writes
        new values into the same array still gets the curvature of its
        new contents.
        """
        kind, data = self.kind, self.data
        x = as_vector(x, data.dim, "x")
        v = as_vector(v, data.dim, "v")
        key = x.tobytes()
        if self._curvature_at[0] != key:
            self._curvature_at = (key, _d2loss_of_margin(kind, _margins(data, x)) / data.n)
        hv = data.features.csr_t @ (self._curvature_at[1] * (data.features.csr @ v))
        if kind.lambda2 > 0:
            hv = hv + kind.lambda2 * v
        return hv

    def hessian(self, x) -> np.ndarray:
        """Dense (generalized) Hessian of f at x, symmetrised.

        One product X^T (diag(c) X) with the curvature c computed once; the
        sparse-times-dense product accumulates every entry in the same
        order as hess_vec does for a unit vector, so H[:, j] equals
        hess_vec(x, e_j) bit for bit before the symmetrisation.
        """
        kind, data = self.kind, self.data
        x = as_vector(x, data.dim, "x")
        t = _margins(data, x)
        coef = _d2loss_of_margin(kind, t) / data.n
        H = data.features.csr_t @ (coef[:, None] * data.features.csr.toarray())
        if kind.lambda2 > 0:
            H[np.diag_indices_from(H)] += kind.lambda2
        return 0.5 * (H + H.T)
