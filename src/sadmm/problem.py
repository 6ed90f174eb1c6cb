"""Problem container: smooth part f, regularizer h, and the coupling matrix A.

The solvers address  min_x f(x) + h(y)  s.t.  Ax - y = 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Protocol

import numpy as np

from .linalg import SparseMatrixCSR, SpectralConstants, compute_spectral_constants, spmv
from .prox import Regularizer, h_value


class SmoothObjective(Protocol):
    """Oracle for f(x) = (1/n) sum_i f_i(x)."""

    @property
    def n(self) -> int: ...

    @property
    def dim(self) -> int: ...

    @property
    def smoothness(self) -> float:
        """L = max_i L_i."""
        ...

    @property
    def strong_convexity(self) -> float: ...

    def value(self, x) -> float: ...

    def full_grad(self, x) -> np.ndarray: ...

    def subset_grad(self, x, idx) -> np.ndarray: ...

    def subset_grad_diff(self, x, x_ref, idx) -> np.ndarray:
        """Mean over idx of grad f_i(x) - grad f_i(x_ref)."""
        ...

    def hess_vec(self, x, v) -> np.ndarray: ...

    def hessian(self, x) -> np.ndarray:
        """Dense symmetric (generalized) Hessian of f at x."""
        ...


@dataclass(frozen=True, eq=False)
class ProblemSpec:
    """f, h and A of one benchmark instance."""

    f: SmoothObjective
    reg: Regularizer
    A: SparseMatrixCSR

    def __post_init__(self):
        if self.A.cols != self.f.dim:
            raise ValueError(
                f"A has {self.A.cols} columns but the smooth objective dimension is {self.f.dim}"
            )

    @property
    def d1(self) -> int:
        return self.A.cols

    @property
    def d2(self) -> int:
        return self.A.rows

    @cached_property
    def spectra(self) -> SpectralConstants:
        return compute_spectral_constants(self.A)

    def objective(self, x) -> float:
        """Composite objective f(x) + h(Ax) as a function of x alone."""
        return self.f.value(x) + h_value(self.reg, spmv(self.A, x))
