"""Sparse matrix kernels and spectral quantities.

Everything the solvers need from the penalty matrix A lives here: CSR
matrix-vector products, the eigendecomposition of A^T A that each matrix
caches (the source of the spectral norm of A^T A, the smallest Gram
eigenvalue, the stoc x-update and the pseudo-inverse dual initialization),
and a conjugate-gradient solve against A A^T. All operations are pure
functions of immutable inputs and safe to call concurrently.

Every product with A or A^T in this module goes through spmv and spmv_t,
which call the C loops of scipy's own CSR product on A's arrays: csr_matvec
for A x, and csc_matvec on the same arrays (the CSC form of A^T) for A^T y.
So the results equal A.csr @ x and A.csr_t @ y bit for bit: each output
entry is summed from 0.0 in increasing storage order (a column's nonzeros
appear in increasing row order in row-major storage).
"""

from __future__ import annotations

import mmap
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

# A smallest Gram eigenvalue (compute_spectral_constants) below this fraction
# of ||A^T A||_2 is treated as rank deficiency.
RANK_TOL = 1e-10


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

    @cached_property
    def ata_eig(self) -> tuple[np.ndarray, np.ndarray]:
        """Eigenvalues (ascending) and orthonormal eigenvectors of A^T A,
        formed once per matrix: every spectral quantity reads them."""
        w, Q = np.linalg.eigh((self.csr.T @ self.csr).toarray())
        # Q lives as long as the matrix, so it gets its own anonymous map: in
        # the malloc heap it splits the free space later large arrays reuse
        # (largebatch-a9a, a fresh instance per round, peaked 182-184 MB, not 166)
        buf = mmap.mmap(-1, max(Q.nbytes, 1), flags=mmap.MAP_PRIVATE)
        kept = np.frombuffer(buf, dtype=Q.dtype, count=Q.size).reshape(Q.shape)
        kept[...] = Q
        return w, kept

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


@dataclass(frozen=True)
class SpectralConstants:
    """Spectral quantities of the penalty matrix used by the rate formulas."""

    ata_norm: float
    aat_min_eig: float


def compute_spectral_constants(A: SparseMatrixCSR) -> SpectralConstants:
    """||A^T A||_2 and the smallest Gram eigenvalue of A, read from the
    ascending eigenvalues w of A^T A: w[-1] and w[max(cols - rows, 0)].

    The smallest Gram eigenvalue is that of A A^T for wide or square A, and
    of A^T A for tall A, which equals the smallest nonzero eigenvalue of
    A A^T whenever A has full rank (the stacked edge/identity penalty
    matrices are tall, and the rate formulas need the spectrum over the
    range of A). A^T A has the nonzero eigenvalues of A A^T, plus cols -
    rows zeros for a wide A: hence the one index.

    Raises RankDeficiencyError when it falls below RANK_TOL * ||A^T A||_2.
    """
    if A.nnz == 0:
        raise MatrixFormatError("spectral norm of an all-zero matrix is undefined here")
    w = A.ata_eig[0]
    sigma_max = float(w[-1])
    sigma_min = float(w[max(A.cols - A.rows, 0)])
    if sigma_min < RANK_TOL * sigma_max:
        raise RankDeficiencyError(
            f"A not full row rank: smallest Gram eigenvalue {sigma_min:.3e} "
            f"below {RANK_TOL:.0e} * sigma_max ({sigma_max:.3e})"
        )
    return SpectralConstants(ata_norm=sigma_max, aat_min_eig=sigma_min)


def solve_aat(A: SparseMatrixCSR, v, tol: float = 1e-12) -> np.ndarray:
    """Solve A A^T u = v by conjugate gradients.

    Contract: the returned u satisfies ||A A^T u - v|| <= tol * ||v||. For a
    consistent right-hand side (v in the range of A) CG from zero converges
    to the minimum-norm solution, so (A^T)^+ w can be computed as
    solve_aat(A, A @ w).
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
    u, _ = scipy.sparse.linalg.cg(op, v, rtol=tol, atol=0.0, maxiter=max_iter)
    resid = np.linalg.norm(aat(u) - v)
    if not resid <= tol * nv:  # a NaN residual fails too
        raise ConvergenceError(
            f"cg on A A^T stalled at relative residual {resid / nv:.3e} "
            "(possible rank deficiency)",
            best_estimate=u,
        )
    return u

