"""Variance-reduced mini-batch gradient estimator and snapshot machinery.

The estimator anchors stochastic gradients at a snapshot point whose full
gradient is precomputed once per epoch:

    g = (1/|I|) sum_{i in I} (grad f_i(x) - grad f_i(x_snap)) + grad f(x_snap)

It is unbiased for grad f(x), and its variance shrinks both with the batch
size (through delta(b) = (n-b)/(b(n-1)), without-replacement sampling) and
as x approaches the snapshot.
"""

from __future__ import annotations

import math
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


# Philox4x64-10 (Salmon et al., "Parallel random numbers: as easy as 1, 2,
# 3", SC 2011) as numpy's Philox computes it: the multipliers of the two
# products each round makes, and the key's increment from round to round
_PHILOX_M = np.array([0xD2E7470EE14C6C93, 0xCA5A826395121157], dtype=np.uint64)[:, None, None]
_PHILOX_W = np.array([0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B], dtype=np.uint64)
_LO32 = np.uint64(0xFFFFFFFF)
_M_LO, _M_HI = _PHILOX_M & _LO32, _PHILOX_M >> 32


def _mulhilo(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low words of the 128-bit products _PHILOX_M * x, the high
    word summed from the products of 32-bit halves."""
    x_lo, x_hi = x & _LO32, x >> 32
    lo_hi, hi_lo = _M_LO * x_hi, _M_HI * x_lo
    mid = (_M_LO * x_lo >> 32) + (lo_hi & _LO32) + (hi_lo & _LO32)
    return _M_HI * x_hi + (lo_hi >> 32) + (hi_lo >> 32) + (mid >> 32), _PHILOX_M * x


class BatchSampler:
    """Draws size-b index sets uniformly at random, without replacement.

    Counter-based: the draw for (epoch, k) is a pure function of
    (seed, epoch, k), so any stochastic run can be replayed exactly from its
    seed, and draws may be made in any order. epoch and k must each be below
    2**32, so that together they fill one 64-bit counter word.

    The scalar draw rewinds the sampler's one Philox stream, keyed by the
    seed, to the counter ((epoch << 32) | k) << 128 with its output buffer
    cleared, which is exactly the state a fresh Philox(key=seed,
    counter=...) starts from. Because every draw rewinds that one stream, a
    sampler must not be shared between threads.

    draw(epoch, ks) with a 1-D integer array ks returns one row per k, each
    equal to the scalar draw. When b(b-1) < n in the rejection branch (the
    scalar rule for b = 1 and other small b; numpy's choice draws the rest),
    it evaluates Philox4x64-10 for all rows at once in uint64 arithmetic
    and applies numpy's bounded (Lemire) step to the 32-bit halves of its
    words; a row that numpy would retry (a Lemire rejection, or a tuple
    with a repeat) is drawn by the scalar path. The bound keeps those
    retries rare: a tuple repeats with probability about b(b-1)/2n, and
    larger b spends more time on them than the scalar loop costs. The
    choice branch, and n >= 2**32, take the scalar path row by row; at
    b = n it returns every index without drawing.

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
        # rejection beats the O(n) partial shuffle for small b, and b = 1 takes
        # it at any n to stay on the bulk path; retrying the whole tuple keeps
        # subsets exactly uniform. A tuple is distinct with probability about
        # exp(-b(b-1)/2n), so the second bound keeps the expected tries below e^2
        self._rejects = b == 1 or (b * 16 < n and b * (b - 1) < 4 * n)
        # tuples asked of one integers call in the rejection branch: about
        # the expected number of tries. Philox's stream runs on across
        # calls, so the draw is the same as one tuple per call
        self._tries = math.ceil(math.exp(b * (b - 1) / (2 * n))) if self._rejects else 1
        self._bulk = n < 1 << 32 and self._rejects and b * (b - 1) < n
        # the bulk path's ten round keys: the key, bumped once per round
        rounds = np.arange(10, dtype=np.uint64)[:, None]
        self._round_keys = (self._start["state"]["key"] + rounds * _PHILOX_W)[:, :, None, None]

    def draw(self, epoch: int, k) -> np.ndarray:
        """The sorted batch for (epoch, k); for a 1-D integer array of k, an
        int64 array of shape (len(k), b) with one batch per k."""
        ks = np.asarray(k) if np.ndim(k) else None
        if ks is not None and (ks.ndim != 1 or ks.dtype.kind not in "iu"):
            raise TypeError(f"k must be an integer or a 1-D integer array, not {ks.dtype}")
        lo, hi = (k, k) if ks is None else (ks.min(initial=0), ks.max(initial=0))
        if epoch < 0 or lo < 0:
            raise ValueError("epoch and k must be non-negative")
        if epoch >= 1 << 32 or hi >= 1 << 32:
            raise ValueError("epoch and k must be below 2**32")
        if ks is None:
            return self._draw_one(epoch, k)
        if self._bulk:
            out, ok = self._draw_bulk(epoch, ks)
        else:
            out, ok = np.empty((len(ks), self.b), dtype=np.int64), np.zeros(len(ks), dtype=bool)
        for i in np.flatnonzero(~ok):
            out[i] = self._draw_one(epoch, int(ks[i]))
        return out

    def _draw_one(self, epoch: int, k: int) -> np.ndarray:
        if self.b == self.n:
            return np.arange(self.n)
        self._start["state"]["counter"][2] = (epoch << 32) | k
        self._bitgen.state = self._start
        rng = self._rng
        if self._rejects:
            while True:
                idx = rng.integers(self.n, size=(self._tries, self.b))
                idx.sort(axis=1)
                distinct = (idx[:, 1:] > idx[:, :-1]).all(axis=1)
                if distinct.any():
                    return idx[distinct.argmax()]
        idx = rng.choice(self.n, size=self.b, replace=False)
        idx.sort()
        return idx

    def _draw_bulk(self, epoch: int, ks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The first try of every row, and which rows it settles. Block j of
        row k is Philox4x64-10 at counter (j, 0, (epoch << 32) | k, 0) for
        j = 1, 2, ... (the stream increments its counter before each
        block); its four words give eight 32-bit values, low half first."""
        n, b = self.n, self.b
        blocks = -(-b // 8)
        # the words (c0, c2) and (c1, c3) of every row's counters
        even = np.empty((2, len(ks), blocks), dtype=np.uint64)
        even[0] = np.arange(1, blocks + 1, dtype=np.uint64)
        even[1] = (np.uint64(epoch << 32) | ks.astype(np.uint64))[:, None]
        odd = np.zeros_like(even)
        for key in self._round_keys:
            hi, lo = _mulhilo(even)
            even, odd = hi[::-1] ^ odd ^ key, lo[::-1]
        words = np.stack((even[0], odd[0], even[1], odd[1]), axis=-1)
        u = np.stack((words & _LO32, words >> 32), axis=-1).reshape(len(ks), 8 * blocks)[:, :b]
        # numpy's bounded step: the high word of u * n, unless the low word
        # falls below (2**32 - n) mod n, where numpy draws again
        prod = u * np.uint64(n)
        rejected = ((prod & _LO32) < (2**32 - n) % n).any(axis=1)
        idx = (prod >> 32).astype(np.int64)
        idx.sort(axis=1)
        return idx, ~rejected & (idx[:, 1:] > idx[:, :-1]).all(axis=1)


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
    batch = np.asarray(batch)
    if len(batch) == 0:
        raise ValueError("empty batch")
    if batch.dtype.kind not in "iu":
        raise TypeError(f"sample indices must be integers, not {batch.dtype}")
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
