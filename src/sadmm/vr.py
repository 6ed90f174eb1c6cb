"""Variance-reduced mini-batch gradient estimator and snapshot machinery.

The estimator anchors stochastic gradients at a snapshot point whose full
gradient is precomputed once per epoch:

    g = (1/|I|) sum_{i in I} (grad f_i(x) - grad f_i(x_snap)) + grad f(x_snap)

It is unbiased for grad f(x), and its variance shrinks both with the batch
size (through delta(b) = (n-b)/(b(n-1)), without-replacement sampling) and
as x approaches the snapshot.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError


@dataclass(frozen=True, eq=False)
class Snapshot:
    """Anchor point and its full gradient."""

    x_tilde: np.ndarray
    full_grad: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x_tilde", np.asarray(self.x_tilde, dtype=np.float64))
        object.__setattr__(self, "full_grad", np.asarray(self.full_grad, dtype=np.float64))
        if self.x_tilde.shape != self.full_grad.shape:
            raise DimensionError("snapshot point and gradient must have equal shape")


class BatchSampler:
    """Draws size-b index sets uniformly at random, without replacement.

    Counter-based: the draw for (epoch, k) is a pure function of
    (seed, epoch, k), so any stochastic run can be replayed exactly from its
    seed, and draws may be made in any order. epoch and k must each be below
    2**32, so that together they fill one 64-bit counter word.

    The sampler holds one Philox stream keyed by the seed and rewinds it for
    every draw to the counter ((epoch << 32) | k) << 128 with its output
    buffer cleared, which is exactly the state a fresh
    Philox(key=seed, counter=...) starts from. Because every draw rewinds
    that one stream, a sampler must not be shared between threads.

    Returned indices are sorted, which makes batch-gradient reductions
    independent of the draw order (and makes b = n runs seed-independent).
    """

    def __init__(self, n: int, b: int, seed: int):
        if not 1 <= b <= n:
            raise ValueError(f"batch size {b} out of range [1, {n}]")
        self.n = n
        self.b = b
        self.seed = int(seed)
        self._bitgen = np.random.Philox(key=self.seed)
        self._rng = np.random.Generator(self._bitgen)
        # the fresh stream's state; draw rewrites the counter word that
        # holds (epoch << 32) | k, and the rest resets the output buffer
        self._start = self._bitgen.state

    def draw(self, epoch: int, k: int) -> np.ndarray:
        if epoch < 0 or k < 0:
            raise ValueError("epoch and k must be non-negative")
        if epoch >= 1 << 32 or k >= 1 << 32:
            raise ValueError("epoch and k must be below 2**32")
        if self.b == self.n:
            return np.arange(self.n)
        self._start["state"]["counter"][2] = (epoch << 32) | k
        self._bitgen.state = self._start
        rng = self._rng
        if self.b == 1:
            # the scalar draw takes the same value as size=1, at lower cost
            return np.array([rng.integers(self.n)])
        if self.b * 16 < self.n and self.b * (self.b - 1) < 4 * self.n:
            # rejection sampling beats the O(n) partial shuffle for small b;
            # retrying the whole tuple keeps subsets exactly uniform. A tuple
            # is distinct with probability about exp(-b(b-1)/2n), so the
            # second bound keeps the expected tries below e^2
            while True:
                idx = rng.integers(self.n, size=self.b)
                idx.sort()
                if (idx[1:] > idx[:-1]).all():
                    return idx
        idx = rng.choice(self.n, size=self.b, replace=False)
        idx.sort()
        return idx


def delta_b(n: int, b: int) -> float:
    """Variance shrinkage factor (n-b)/(b(n-1)) of a size-b batch.

    Non-increasing in b, equal to 1 at b=1 and 0 at b=n. A single-sample
    dataset has an exact estimator, so delta is 0 by convention.
    """
    if not 1 <= b <= n:
        raise ValueError(f"batch size {b} out of range [1, {n}]")
    if n == 1:
        return 0.0
    return (n - b) / (b * (n - 1))


def vr_gradient(snap: Snapshot, f, x, batch) -> np.ndarray:
    """Snapshot-corrected mini-batch gradient estimate at x. The batch
    must be strictly increasing (sorted and distinct), as
    BatchSampler.draw returns it."""
    batch = np.asarray(batch, dtype=np.int64)
    if len(batch) == 0:
        raise ValueError("empty batch")
    if not (batch[1:] > batch[:-1]).all():
        raise ValueError("batch indices must be strictly increasing")
    x = np.asarray(x, dtype=np.float64)
    if x.shape != snap.x_tilde.shape:
        raise DimensionError("x does not match the snapshot dimension (stale snapshot?)")
    return f.batch_plan([batch], snap.x_tilde).grad(0, x) + snap.full_grad


def variance_bound_rhs(snap: Snapshot, f, x, b: int) -> float:
    """Upper bound on E||g - grad f(x)||^2 for the size-b estimator:

        2 L delta(b) [ f(x_snap) - f(x) + (x - x_snap)^T grad f(x) ]

    with L = f.smoothness. The bracket is a Bregman divergence of f, hence
    non-negative; tiny negative rounding is clamped to zero.
    """
    x = np.asarray(x, dtype=np.float64)
    d = delta_b(f.n, b)
    bracket = f.value(snap.x_tilde) - f.value(x) + float((x - snap.x_tilde) @ f.full_grad(x))
    return max(2.0 * f.smoothness * d * bracket, 0.0)
