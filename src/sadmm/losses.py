"""Smooth empirical losses: value, per-sample gradients, smoothness constants.

The smooth part of every benchmark problem is an average f(x) = (1/n) sum_i
f_i(x) over labeled samples. Three variants are supported: plain logistic,
l2-regularized logistic, and the huberized hinge (a C^1 piecewise-quadratic
smoothing of the hinge). The optional ridge term lambda2/2 ||x||^2 is folded
into every f_i, which is what makes f strongly convex with mu = lambda2.

Full-data quantities go through scipy's CSR products. A mini-batch gradient,
whatever the batch size, is one vectorised pass over the batch's nonzeros
in the raw CSR arrays: a gather, a bincount for the margins, and a bincount
that scatters the gradient.
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


def loss_value(kind: LossKind, data: Dataset, x) -> float:
    """f(x) = (1/n) sum_i loss(b_i a_i^T x) + lambda2/2 ||x||^2."""
    x = as_vector(x, data.dim, "x")
    t = _margins(data, x)
    val = float(np.mean(_loss_of_margin(kind, t)))
    if kind.lambda2 > 0:
        val += 0.5 * kind.lambda2 * float(x @ x)
    return val


def subset_mean_grad(kind: LossKind, data: Dataset, x, idx) -> np.ndarray:
    """Mean of per-sample gradients over the index subset ``idx``."""
    x = as_vector(x, data.dim, "x")
    idx = np.asarray(idx, dtype=np.int64)
    if len(idx) == 0:
        raise ValueError("empty index subset")
    if idx.min() < 0 or idx.max() >= data.n:
        raise IndexError("sample index out of range")
    # one pass over the batch's nonzeros in the CSR arrays: row[k] is the
    # batch position owning nonzero k, pos[k] its offset in col_indices/values
    off = data.features.row_offsets
    starts = off[idx]
    counts = off[idx + 1] - starts
    row = np.repeat(np.arange(len(idx)), counts)
    pos = np.arange(len(row)) + np.repeat(starts - (np.cumsum(counts) - counts), counts)
    cols = data.features.col_indices[pos]
    vals = data.features.values[pos]
    labels = data.labels[idx]
    t = labels * np.bincount(row, weights=vals * x[cols], minlength=len(idx))
    coef = _dloss_of_margin(kind, t) * labels / len(idx)
    g = np.bincount(cols, weights=coef[row] * vals, minlength=data.dim)
    if kind.lambda2 > 0:
        g = g + kind.lambda2 * x
    return g


def per_sample_grad(kind: LossKind, data: Dataset, x, i: int) -> np.ndarray:
    """Gradient of f_i at x (ridge term included)."""
    if not 0 <= i < data.n:
        raise IndexError(f"sample index {i} out of range for n={data.n}")
    return subset_mean_grad(kind, data, x, [i])


def full_grad(kind: LossKind, data: Dataset, x) -> np.ndarray:
    """Gradient of f at x; equals the mean of all per-sample gradients."""
    x = as_vector(x, data.dim, "x")
    t = _margins(data, x)
    coef = _dloss_of_margin(kind, t) * data.labels / data.n
    g = data.features.csr_t @ coef
    if kind.lambda2 > 0:
        g = g + kind.lambda2 * x
    return g


def hess_vec(kind: LossKind, data: Dataset, x, v) -> np.ndarray:
    """(Generalized) Hessian-vector product of f at x."""
    x = as_vector(x, data.dim, "x")
    v = as_vector(v, data.dim, "v")
    t = _margins(data, x)
    coef = _d2loss_of_margin(kind, t) / data.n
    hv = data.features.csr_t @ (coef * (data.features.csr @ v))
    if kind.lambda2 > 0:
        hv = hv + kind.lambda2 * v
    return hv


def smoothness_constant(kind: LossKind, data: Dataset) -> float:
    """L = max_i L_i with L_i the gradient Lipschitz constant of f_i.

    Logistic curvature is at most 1/4, the huberized hinge's at most
    1/(2*huber_width), both along the sample direction, so
    L_i = ||a_i||^2 * curvature + lambda2.
    """
    if data.n == 0:
        raise ValueError("empty dataset")
    max_sq = float(data.norms_sq.max())
    if kind.kind == LOGISTIC:
        return max_sq / 4.0 + kind.lambda2
    return max_sq / (2.0 * kind.huber_width) + kind.lambda2


class LossObjective:
    """Binds a LossKind and Dataset into the smooth-objective oracle.

    Exposes the interface the estimators and solvers consume: value,
    full_grad, subset_grad (mean over a batch), hess_vec, plus the
    smoothness constant L = max_i L_i and strong convexity mu = lambda2.
    """

    def __init__(self, kind: LossKind, data: Dataset, L_f: float | None = None):
        self.kind = kind
        self.data = data
        self._L = smoothness_constant(kind, data)
        # Smoothness of the averaged f can be below max_i L_i; default to the
        # conservative value unless the caller knows a tighter one.
        self._L_f = self._L if L_f is None else float(L_f)

    @property
    def n(self) -> int:
        return self.data.n

    @property
    def dim(self) -> int:
        return self.data.dim

    @property
    def smoothness(self) -> float:
        return self._L

    @property
    def smoothness_avg(self) -> float:
        return self._L_f

    @property
    def strong_convexity(self) -> float:
        return self.kind.lambda2

    def value(self, x) -> float:
        return loss_value(self.kind, self.data, x)

    def full_grad(self, x) -> np.ndarray:
        return full_grad(self.kind, self.data, x)

    def subset_grad(self, x, idx) -> np.ndarray:
        return subset_mean_grad(self.kind, self.data, x, idx)

    def hess_vec(self, x, v) -> np.ndarray:
        return hess_vec(self.kind, self.data, x, v)
