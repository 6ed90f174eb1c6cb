"""Sparse matrix kernels and spectral quantities.

Everything the solvers need from the penalty matrix A lives here: CSR
matrix-vector products, the spectral norm of A^T A, the smallest Gram
eigenvalue, and a conjugate-gradient solve against A A^T used for the
pseudo-inverse dual initialization. All operations are pure functions of
immutable inputs and safe to call concurrently.

Every product with A or A^T in this module goes through spmv and spmv_t,
which call the C loops of scipy's own CSR product on A's arrays: csr_matvec
for A x, and csc_matvec on the same arrays (the CSC form of A^T) for A^T y.
So the results equal A.csr @ x and A.csr_t @ y bit for bit: each output
entry is summed from 0.0 in increasing storage order (a column's nonzeros
appear in increasing row order in row-major storage).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

# scipy's `csr @ x` dispatches to these loops (_compressed._matmul_vector)
# after Python work that costs more than a small product; calling them
# directly skips it. They read x without bounds checks and add into their
# output, so callers check the length of x and pass a fresh np.zeros.
from scipy.sparse._sparsetools import csc_matvec, csr_matvec

from .errors import (
    ConvergenceError,
    DimensionError,
    MatrixFormatError,
    RankDeficiencyError,
)

# Smallest-eigenvalue estimates below this fraction of the spectral norm are
# treated as rank deficiency.
RANK_TOL = 1e-10
SPECTRAL_TOL = 1e-10  # relative residual at which the spectral power iterations stop


@dataclass(frozen=True, eq=False)
class SparseMatrixCSR:
    """Immutable compressed-sparse-row matrix.

    Invariants enforced at construction: ``row_offsets`` has length rows+1,
    is non-decreasing and ends at nnz; column indices are in range and
    strictly increasing within each row; no explicit zeros are stored.
    """

    rows: int
    cols: int
    row_offsets: np.ndarray
    col_indices: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "row_offsets", np.asarray(self.row_offsets, dtype=np.int64))
        object.__setattr__(self, "col_indices", np.asarray(self.col_indices, dtype=np.int64))
        object.__setattr__(self, "values", np.asarray(self.values, dtype=np.float64))
        off, idx, val = self.row_offsets, self.col_indices, self.values
        if self.rows < 0 or self.cols < 0:
            raise MatrixFormatError("negative dimension")
        if off.shape != (self.rows + 1,):
            raise MatrixFormatError("row_offsets must have length rows+1")
        if off[0] != 0 or np.any(np.diff(off) < 0) or off[-1] != len(val):
            raise MatrixFormatError("row_offsets must be non-decreasing from 0 to nnz")
        if len(idx) != len(val):
            raise MatrixFormatError("col_indices and values length mismatch")
        if len(idx) and (idx.min() < 0 or idx.max() >= self.cols):
            raise MatrixFormatError("column index out of range")
        # strictly increasing columns within each row
        if len(idx) > 1:
            d = np.diff(idx)
            # positions in d that straddle a row boundary are exempt
            row_starts = off[1:-1]
            row_starts = row_starts[(row_starts > 0) & (row_starts < len(idx))]
            interior = np.ones(len(d), dtype=bool)
            interior[row_starts - 1] = False
            if np.any(d[interior] <= 0):
                raise MatrixFormatError("column indices must be strictly increasing within a row")
        if np.any(val == 0.0) or not np.all(np.isfinite(val)):
            raise MatrixFormatError("stored values must be nonzero and finite")

    @property
    def nnz(self) -> int:
        return len(self.values)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    @cached_property
    def csr(self) -> scipy.sparse.csr_matrix:
        """The same matrix as a scipy CSR matrix, for its sparse products."""
        return scipy.sparse.csr_matrix(
            (self.values, self.col_indices, self.row_offsets), shape=(self.rows, self.cols)
        )

    @cached_property
    def csr_t(self) -> scipy.sparse.csr_matrix:
        """The transpose, stored row-major so A^T y is a CSR product."""
        return self.csr.T.tocsr()

    @classmethod
    def from_scipy(cls, mat) -> "SparseMatrixCSR":
        m = scipy.sparse.csr_matrix(mat).copy()
        m.sum_duplicates()
        m.sort_indices()
        m.eliminate_zeros()
        return cls(m.shape[0], m.shape[1], m.indptr, m.indices, m.data)

    @classmethod
    def from_dense(cls, arr) -> "SparseMatrixCSR":
        return cls.from_scipy(scipy.sparse.csr_matrix(np.asarray(arr, dtype=np.float64)))

    @classmethod
    def identity(cls, n: int) -> "SparseMatrixCSR":
        return cls.from_scipy(scipy.sparse.identity(n, format="csr"))

    def to_dense(self) -> np.ndarray:
        return self.csr.toarray()


def as_vector(x, length: int | None = None, name: str = "vector") -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise DimensionError(f"{name} must be 1-D, got shape {x.shape}")
    if length is not None and len(x) != length:
        raise DimensionError(f"{name} has length {len(x)}, expected {length}")
    return x


def spmv(A: SparseMatrixCSR, x) -> np.ndarray:
    """A @ x by scipy's csr_matvec, bit for bit A.csr @ x."""
    x = as_vector(x, A.cols, "x")
    Ax = np.zeros(A.rows)
    csr_matvec(A.rows, A.cols, A.row_offsets, A.col_indices, A.values, x, Ax)
    return Ax


def spmv_t(A: SparseMatrixCSR, y) -> np.ndarray:
    """A^T @ y by scipy's csc_matvec on A's CSR arrays, which are the CSC
    arrays of A^T; bit for bit A.csr_t @ y."""
    y = as_vector(y, A.rows, "y")
    Aty = np.zeros(A.cols)
    csc_matvec(A.cols, A.rows, A.row_offsets, A.col_indices, A.values, y, Aty)
    return Aty


def _start_vector(A: SparseMatrixCSR, dim: int, stream: int = 0) -> np.ndarray:
    # Deterministic pseudo-random start derived from the matrix dimensions so
    # spectral estimates are reproducible run to run.
    ss = np.random.SeedSequence([A.rows, A.cols, A.nnz, stream])
    v = np.random.default_rng(ss).standard_normal(dim)
    n = np.linalg.norm(v)
    return v / n if n > 0 else np.ones(dim) / np.sqrt(dim)


def _power_iteration(matvec, v0, tol, max_iter, resid_scale=None):
    """Largest eigenvalue of a symmetric PSD operator by power iteration.

    Stops when the Rayleigh-quotient residual ||Mv - lam*v|| falls below
    tol * resid_scale (resid_scale defaults to |lam|). Returns lam.
    """
    v = v0
    lam = 0.0
    for _ in range(max_iter):
        w = matvec(v)
        lam = float(v @ w)
        r = w - lam * v
        scale = resid_scale if resid_scale is not None else max(abs(lam), 1e-300)
        if np.linalg.norm(r) <= tol * scale:
            return lam
        nw = np.linalg.norm(w)
        if nw == 0.0:
            # v is numerically in the null space; lam is 0 on this component
            return 0.0
        v = w / nw
    raise ConvergenceError(
        f"power iteration did not converge in {max_iter} iterations",
        best_estimate=lam,
    )


@dataclass(frozen=True)
class SpectralConstants:
    """Spectral quantities of the penalty matrix used by the rate formulas."""

    ata_norm: float
    aat_min_eig: float


def compute_spectral_constants(
    A: SparseMatrixCSR, tol: float = SPECTRAL_TOL, max_iter: int = 10000
) -> SpectralConstants:
    """||A^T A||_2 and the smallest Gram eigenvalue of A.

    ||A^T A||_2 is a Rayleigh quotient of power iteration on x -> A^T(Ax)
    from a deterministic start, so it never exceeds the truth by more than
    rounding.

    The smallest Gram eigenvalue is computed on the smaller side. For wide
    or square A (rows <= cols) it is the smallest eigenvalue of A A^T; for
    tall A it is the smallest eigenvalue of A^T A, which equals the
    smallest nonzero eigenvalue of A A^T whenever A has full rank (the
    stacked edge/identity penalty matrices are tall, and their A A^T is
    singular by construction while the quantity the rate formulas need is
    the spectrum over the range of A).

    Computed by power iteration on the shifted operator sigma_max*I - Gram.
    Raises RankDeficiencyError when the estimate falls below
    RANK_TOL * sigma_max.
    """
    if not 0 < tol < np.inf:
        raise ValueError("tol must be finite and > 0")
    if A.nnz == 0:
        raise MatrixFormatError("spectral norm of an all-zero matrix is undefined here")
    ata = lambda v: spmv_t(A, spmv(A, v))
    sigma_max = _power_iteration(ata, _start_vector(A, A.cols), tol, max_iter)
    if A.rows <= A.cols:
        dim, gram = A.rows, lambda v: spmv(A, spmv_t(A, v))
    else:
        dim, gram = A.cols, ata
    shifted = lambda v: sigma_max * v - gram(v)
    nu = _power_iteration(shifted, _start_vector(A, dim, stream=1), tol, max_iter,
                          resid_scale=sigma_max)
    sigma_min = sigma_max - nu
    if sigma_min < RANK_TOL * sigma_max:
        raise RankDeficiencyError(
            f"A not full row rank: smallest Gram eigenvalue {sigma_min:.3e} "
            f"below {RANK_TOL:.0e} * sigma_max ({sigma_max:.3e})"
        )
    return SpectralConstants(ata_norm=sigma_max, aat_min_eig=sigma_min)


def solve_aat(
    A: SparseMatrixCSR,
    v,
    tol: float = 1e-12,
    x0: np.ndarray | None = None,
) -> np.ndarray:
    """Solve A A^T u = v by conjugate gradients.

    Contract: the returned u satisfies ||A A^T u - v|| <= tol * ||v||. For a
    consistent right-hand side (v in the range of A) CG from zero converges
    to the minimum-norm solution, so (A^T)^+ w can be computed as
    solve_aat(A, A @ w). A warm start x0 may be supplied; it must lie in the
    range of A for the pseudo-inverse interpretation to survive.
    """
    if not 0 < tol < np.inf:
        raise ValueError("tol must be finite and > 0")
    v = as_vector(v, A.rows, "v")
    nv = np.linalg.norm(v)
    if nv == 0.0:
        return np.zeros(A.rows)
    aat = lambda w: spmv(A, spmv_t(A, w))
    op = scipy.sparse.linalg.LinearOperator((A.rows, A.rows), matvec=aat, dtype=np.float64)
    max_iter = max(20 * A.rows, 1000)
    u, _ = scipy.sparse.linalg.cg(op, v, x0=x0, rtol=tol, atol=0.0, maxiter=max_iter)
    resid = np.linalg.norm(aat(u) - v)
    if not resid <= tol * nv:  # a NaN residual fails too
        raise ConvergenceError(
            f"cg on A A^T stalled at relative residual {resid / nv:.3e} "
            "(possible rank deficiency)",
            best_estimate=u,
        )
    return u

