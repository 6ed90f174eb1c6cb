"""Smooth empirical losses: the LossObjective oracle and the loss kinds.

The smooth part of every benchmark problem is an average f(x) = (1/n) sum_i
f_i(x) over labeled samples. Three variants are supported: plain logistic,
l2-regularized logistic, and the huberized hinge (a C^1 piecewise-quadratic
smoothing of the hinge). The optional ridge term lambda2/2 ||x||^2 is folded
into every f_i, which is what makes f strongly convex with mu = lambda2.

A LossKind names the loss and its parameters, a Dataset holds the samples,
and LossObjective(kind, data) is the one entry point to the loss math: the
value, the full gradient, the mini-batch gradients (a batch plan), the
Hessian-vector product, the dense Hessian, and the smoothness constant L.

Full-data quantities go through scipy's CSR products. Each of them is a
function of the n margins b_i a_i^T x, so LossObjective forms the margins
once per point: it keeps one memo of the last x it saw, which holds the
margins and fills in the value, the loss derivatives, the curvatures and
the full gradient the first time a caller asks for each.

A mini-batch gradient and its difference between two points (the
variance-reduced estimator's core) are one kernel, BatchPlan.grad. A plan
gathers the nonzeros of a sequence of batches from the raw CSR arrays once
(a solver draws an epoch's or a trace row's batches up front, so its plan
holds O(m b nnz-per-row) values); each gradient is then a bincount for
the margins at x and a bincount that scatters the loss derivatives, less
the memo's at a reference point for the difference.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

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
        if not 0 <= self.lambda2 < np.inf:
            raise ValueError("lambda2 must be finite and >= 0")
        if not 0 < self.huber_width < np.inf:
            raise ValueError("huber_width must be finite and > 0")

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

    def __post_init__(self):
        labels = np.asarray(self.labels, dtype=np.float64)
        if labels.ndim != 1 or len(labels) != self.features.rows:
            raise DimensionError("labels length must equal the number of feature rows")
        if not np.all(np.abs(labels) == 1.0):
            raise DataFormatError("labels must be +1 or -1")
        object.__setattr__(self, "labels", labels)

    @cached_property
    def norms_sq(self) -> np.ndarray:
        sq = self.features.csr.multiply(self.features.csr)
        return np.asarray(sq.sum(axis=1)).ravel()

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


class BatchPlan:
    """The nonzeros of a sequence of batches, gathered once from the CSR
    arrays, for the mini-batch gradients of any points x; made by
    LossObjective.batch_plan.

    Batch k holds rows[k]:rows[k+1] of the gathered samples (their labels,
    and their loss derivatives at x_ref when there is one) and nonzeros
    nz[k]:nz[k+1]: nonzero j sits in column cols[j] with value vals[j] and
    belongs to local row row[j] of its batch. grad(k, x) does only the work
    that depends on x; it trusts x to be a float64 vector of length dim.
    """

    def __init__(self, f: "LossObjective", batches, x_ref=None):
        data = f.data
        sizes = [len(batch) for batch in batches]
        if not sizes or min(sizes) == 0:
            raise ValueError("empty index subset")
        idx = np.concatenate(batches).astype(np.int64, copy=False)
        if idx.min() < 0 or idx.max() >= data.n:
            raise IndexError("sample index out of range")
        self.kind, self.dim, self.labels = f.kind, data.dim, data.labels[idx]
        self.x_ref = self.dloss_ref = None
        if x_ref is not None:
            x_ref = as_vector(x_ref, data.dim, "x_ref")
            self.dloss_ref = f._at(x_ref).dloss[idx]
            self.x_ref = x_ref.copy()  # a later write into x_ref must not reach the ridge
        off = data.features.row_offsets
        starts = off[idx]
        counts = off[idx + 1] - starts
        ends = counts.cumsum()
        # the offset of each nonzero in col_indices/values, built in place
        # and freed before the row ids, so that at most three arrays of the
        # plan's length are alive at once
        pos = (starts - ends + counts).repeat(counts)
        pos += np.arange(len(pos))
        self.cols, self.vals = data.features.col_indices[pos], data.features.values[pos]
        del pos
        rows = np.zeros(len(sizes) + 1, dtype=np.int64)
        np.cumsum(sizes, out=rows[1:])
        # the local row of each nonzero: its sample's position in its batch
        self.row = (np.arange(len(idx)) - rows[:-1].repeat(sizes)).repeat(counts)
        self.rows = rows.tolist()
        self.nz = np.concatenate(([0], ends))[rows].tolist()

    def grad(self, k: int, x: np.ndarray) -> np.ndarray:
        """Mean over batch k of grad f_i(x), less grad f_i(x_ref) when the
        plan has a reference point: the margins at x by one bincount, the
        loss derivatives less those at x_ref, and one bincount that
        scatters them over the batch's nonzeros."""
        r0, r1 = self.rows[k], self.rows[k + 1]
        lo, hi = self.nz[k], self.nz[k + 1]
        row, cols, vals = self.row[lo:hi], self.cols[lo:hi], self.vals[lo:hi]
        labels = self.labels[r0:r1]
        b = r1 - r0
        t = labels * np.bincount(row, weights=vals * x[cols], minlength=b)
        coef = _dloss_of_margin(self.kind, t)
        if self.dloss_ref is not None:
            coef = coef - self.dloss_ref[r0:r1]
        coef = coef * labels / b
        g = np.bincount(cols, weights=coef[row] * vals, minlength=self.dim)
        # bincount gives integer zeros when the batch has no nonzero
        g = g.astype(np.float64, copy=False)
        lambda2 = self.kind.lambda2
        if lambda2 > 0:
            g = g + lambda2 * (x if self.x_ref is None else x - self.x_ref)
        return g


class _PointMemo:
    """The full-data loss quantities at one point x, without the ridge.

    The margins t = b * (X x) are formed once, when the memo is made; the
    mean loss, the loss derivatives, the curvatures / n and the loss part
    of the full gradient are derived from them the first time a caller
    reads each.
    """

    def __init__(self, kind: LossKind, data: Dataset, x: np.ndarray, key: bytes):
        self.kind, self.data, self.key = kind, data, key
        self.margins = _margins(data, x)
        self.margins.setflags(write=False)

    @cached_property
    def mean_loss(self) -> float:
        return float(np.mean(_loss_of_margin(self.kind, self.margins)))

    @cached_property
    def dloss(self) -> np.ndarray:
        return _dloss_of_margin(self.kind, self.margins)

    @cached_property
    def curvature(self) -> np.ndarray:
        return _d2loss_of_margin(self.kind, self.margins) / self.data.n

    @cached_property
    def loss_grad(self) -> np.ndarray:
        data = self.data
        return data.features.csr_t @ (self.dloss * data.labels / data.n)


class LossObjective:
    """Binds a LossKind and Dataset into the smooth-objective oracle.

    Exposes the interface the estimators and solvers consume: value,
    full_grad, batch_plan (the mean gradients, or mean gradient differences
    to a reference point, over a sequence of batches gathered once),
    hess_vec, the dense hessian, the margins, plus the smoothness constant
    L = max_i L_i and strong convexity mu = lambda2.

    Every full-data quantity is a function of the n margins b_i a_i^T x,
    and callers ask for several at one point (Newton-CG for the value, the
    gradient and many Hessian-vector products; a trace row for the value
    twice; a variance-reduced epoch for the loss derivatives at its
    snapshot when it gathers its batches). So the objective keeps one memo
    of the last point it saw, keyed on the bytes of x: a caller that writes
    new values into the same array gets the quantities of its new contents.
    The memo makes an objective stateful: like BatchSampler, it must not
    be shared between threads.
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
        self._memo = None  # _PointMemo of the last x

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

    def _at(self, x: np.ndarray) -> _PointMemo:
        key = x.tobytes()
        if self._memo is None or self._memo.key != key:
            self._memo = _PointMemo(self.kind, self.data, x, key)
        return self._memo

    @cached_property
    def _dense_features(self) -> np.ndarray:
        # only the polish asks for dense Hessians; the solvers never build this
        return self.data.features.csr.toarray()

    def margins(self, x) -> np.ndarray:
        """The n margins b_i a_i^T x, read-only."""
        return self._at(as_vector(x, self.data.dim, "x")).margins

    def value(self, x) -> float:
        """f(x) = (1/n) sum_i loss(b_i a_i^T x) + lambda2/2 ||x||^2."""
        kind, data = self.kind, self.data
        x = as_vector(x, data.dim, "x")
        val = self._at(x).mean_loss
        if kind.lambda2 > 0:
            val += 0.5 * kind.lambda2 * float(x @ x)
        return val

    def full_grad(self, x) -> np.ndarray:
        """Gradient of f at x; equals the mean of all per-sample gradients.
        A fresh array: callers may write into it."""
        kind, data = self.kind, self.data
        x = as_vector(x, data.dim, "x")
        g = self._at(x).loss_grad
        if kind.lambda2 > 0:
            return g + kind.lambda2 * x
        return g.copy()

    def batch_plan(self, batches, x_ref=None) -> BatchPlan:
        """Gather the nonzeros of every batch in ``batches`` (a sequence of
        index arrays) once; plan.grad(k, x) is then the mean over
        batches[k] of grad f_i(x), less grad f_i(x_ref) when x_ref is given.

        Every f_i is a loss of the margin b_i a_i^T x, so the difference of
        two gradients is a_i times the difference of two loss derivatives.
        Those at x_ref come from the memo, which in a variance-reduced
        epoch the snapshot's full gradient has filled. They equal the
        batch's own bit for bit: the CSR product sums a row's products in
        column order from 0, as the batch bincount does. Every index is
        checked before the memo is read.
        """
        return BatchPlan(self, batches, x_ref)

    # a plan of one batch; no solver calls it, but perfbench/tracing.py
    # patches it by name, so it stays
    def subset_grad(self, x, idx) -> np.ndarray:
        """Mean of per-sample gradients over the index subset ``idx``."""
        x = as_vector(x, self.data.dim, "x")
        return self.batch_plan([idx]).grad(0, x)

    def hess_vec(self, x, v) -> np.ndarray:
        """(Generalized) Hessian-vector product of f at x."""
        kind, data = self.kind, self.data
        x = as_vector(x, data.dim, "x")
        v = as_vector(v, data.dim, "v")
        hv = data.features.csr_t @ (self._at(x).curvature * (data.features.csr @ v))
        if kind.lambda2 > 0:
            hv = hv + kind.lambda2 * v
        return hv

    def hessian(self, x) -> np.ndarray:
        """Dense (generalized) Hessian of f at x, symmetrised.

        One product X^T (diag(c) X) with the curvature c of the memo and
        the dense features kept from the first call; the sparse-times-dense
        product accumulates every entry in the same order as hess_vec does
        for a unit vector, so H[:, j] equals hess_vec(x, e_j) bit for bit
        before the symmetrisation.
        """
        kind, data = self.kind, self.data
        x = as_vector(x, data.dim, "x")
        coef = self._at(x).curvature
        H = data.features.csr_t @ (coef[:, None] * self._dense_features)
        if kind.lambda2 > 0:
            H[np.diag_indices_from(H)] += kind.lambda2
        return 0.5 * (H + H.T)
