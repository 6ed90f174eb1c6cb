"""Non-smooth regularizer h(y) and the exact y-subproblem update.

All benchmark problems use h(y) = lambda1 ||y||_1 under the constraint
Ax - y = 0, so the y-update has the closed-form soft-threshold solution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import as_vector


@dataclass(frozen=True)
class Regularizer:
    """l1 penalty weight; lambda1 = 0 turns the regularizer off."""

    lambda1: float = 0.0

    def __post_init__(self):
        if not 0 <= self.lambda1 < np.inf:
            raise ValueError("lambda1 must be finite and >= 0")


def h_value(reg: Regularizer, y) -> float:
    return reg.lambda1 * float(np.abs(np.asarray(y, dtype=np.float64)).sum())


def soft_threshold(v, tau: float) -> np.ndarray:
    """Componentwise sign(v) * max(|v| - tau, 0)."""
    if tau < 0:
        raise ValueError("tau must be >= 0")
    return _soft_threshold(np.asarray(v, dtype=np.float64), tau)


def _soft_threshold(v: np.ndarray, tau: float, out: np.ndarray | None = None) -> np.ndarray:
    """soft_threshold without its checks, for loops that check v and tau
    once at entry: v a float64 array and tau >= 0. With out, the result is
    written there, the same bits."""
    return np.multiply(np.sign(v), np.maximum(np.abs(v) - tau, 0.0), out=out)


def y_update(reg: Regularizer, Az, lambda_dual, beta: float) -> np.ndarray:
    """Exact minimizer of h(y) + (beta/2) ||Az - y + lambda||^2.

    With the identity coupling (y enters the constraint as -y, zero offset)
    this is the proximal map of h/beta evaluated at Az + lambda.
    """
    if beta <= 0:
        raise ValueError("beta must be > 0")
    Az = as_vector(Az, name="Az")
    lam = as_vector(lambda_dual, len(Az), "lambda_dual")
    return soft_threshold(Az + lam, reg.lambda1 / beta)
