"""Sparse matrix kernels and spectral quantities.

Everything the solvers need from the penalty matrix A lives here: CSR
matrix-vector products, the eigendecomposition of A^T A that each matrix
caches (the source of ||A^T A||, the smallest Gram eigenvalue, the stoc
x-update and the pseudo-inverse dual), and conjugate gradients (cg), which
solve_aat runs against A A^T and the batch x-subproblem against its Newton
system. All operations are pure functions of immutable inputs, safe to call
concurrently.

The CSR kernels are scipy's own C loops on A's arrays: a new matrix's row
order is checked by csr_has_canonical_format (the scan behind scipy's
has_canonical_format), A x is csr_matvec, and A^T y is csc_matvec on the
same arrays (the CSC form of A^T). So spmv and spmv_t equal A.csr @ x and
A.csr_t @ y bit for bit: each output entry is summed from 0.0 in increasing
storage order (a column's nonzeros appear in increasing row order). spmv and
spmv_t check their vector; the stochastic inner loops, which check theirs
once at entry, call csr_matvec and csc_matvec on A's arrays themselves. A
matrix stores its indices in the type scipy picks (int32 unless nnz or a
side reaches 2**31), so it holds one set of arrays: its csr views all three.

gram(M) is the dense M^T M of A or of a dataset's features: the csr_matmat
call of scipy's M.csr.T @ M.csr, into a cols x cols buffer, without scipy's
symbolic sizing pass.
"""

from __future__ import annotations

import mmap
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse

# scipy's CSR products dispatch to these loops (_compressed._matmul_vector,
# _matmul_multivector, _matmul_sparse) after Python work that costs more
# than a small product; calling them directly skips it. They read their
# inputs without bounds checks, and the products add into their output, so
# callers check the shapes and pass fresh zeros.
from scipy.sparse._sparsetools import (
    csc_matvec,
    csr_has_canonical_format,
    csr_matmat,
    csr_matvec,
    csr_matvecs,
    csr_todense,
)

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
    strictly increasing within each row; no explicit zeros are stored. The
    checks read the indices as int64; then both are stored in the type scipy
    picks, so csr views all three arrays: int32 unless nnz, or a side of a
    shape with no zero side, reaches 2**31. The arrays are then read-only,
    and so is an array passed in that needed no conversion (indices of that
    type, float64 values).
    """

    rows: int
    cols: int
    row_offsets: np.ndarray
    col_indices: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        off = np.asarray(self.row_offsets, dtype=np.int64)
        idx = np.asarray(self.col_indices, dtype=np.int64)
        val = np.asarray(self.values, dtype=np.float64)
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
        # the checks above keep this scan's unchecked reads inside off and idx
        if not csr_has_canonical_format(len(off) - 1, off, idx):
            raise MatrixFormatError("column indices must be strictly increasing within a row")
        if np.any(val == 0.0) or not np.all(np.isfinite(val)):
            raise MatrixFormatError("stored values must be nonzero and finite")
        # scipy's index type, so csr takes the arrays as they are; the checks
        # above bound every index by nnz or cols, so none wraps
        if len(val) < 2**31 and (0 in self.shape or max(self.shape) < 2**31):
            off = np.asarray(self.row_offsets, dtype=np.int32)
            idx = np.asarray(self.col_indices, dtype=np.int32)
        # the cached products, csr and ata_eig read these arrays: none may change
        for name, arr in (("row_offsets", off), ("col_indices", idx), ("values", val)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def nnz(self) -> int:
        return len(self.values)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    @cached_property
    def csr(self) -> scipy.sparse.csr_matrix:
        """The same matrix as a scipy CSR matrix, for its sparse products:
        its data, indices and indptr are the matrix's own read-only arrays."""
        return scipy.sparse.csr_matrix(
            (self.values, self.col_indices, self.row_offsets), shape=(self.rows, self.cols)
        )

    @cached_property
    def csr_t(self) -> scipy.sparse.csr_matrix:
        """The transpose, stored row-major so A^T y is a CSR product; its
        arrays are read-only."""
        t = self.csr.T.tocsr()
        t.data.flags.writeable = t.indices.flags.writeable = t.indptr.flags.writeable = False
        return t

    @cached_property
    def ata_eig(self) -> tuple[np.ndarray, np.ndarray]:
        """Eigenvalues (ascending) and orthonormal eigenvectors of A^T A,
        formed once per matrix: every spectral quantity reads them."""
        w, Q = np.linalg.eigh(gram(self))
        # Q lives as long as the matrix, so it gets its own anonymous map: in
        # the malloc heap it splits the free space later large arrays reuse
        # (largebatch-a9a, a fresh instance per round, peaked 182-184 MB, not 166)
        buf = mmap.mmap(-1, max(Q.nbytes, 1), flags=mmap.MAP_PRIVATE)
        kept = np.frombuffer(buf, dtype=Q.dtype, count=Q.size).reshape(Q.shape)
        kept[...] = Q
        w.flags.writeable = kept.flags.writeable = False
        return w, kept

    @classmethod
    def from_scipy(cls, mat) -> "SparseMatrixCSR":
        """Copy of mat, rows sorted and repeats summed (both by sum_duplicates), zeros dropped."""
        m = scipy.sparse.csr_matrix(mat).copy()
        m.sum_duplicates()
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


def gram(M: SparseMatrixCSR) -> np.ndarray:
    """The dense M^T M, bit for bit (M.csr.T @ M.csr).toarray(): scipy runs
    csr_matmat on the same arrays (M's CSC arrays, which are those of M^T
    in CSR) and reads the result out transposed, which changes no bit, as
    each entry sums commuting products in the same order. No row exceeds
    cols entries.

    The CSC form is made and dropped here, not taken from the cached csr_t:
    filling a dataset's csr_t at every benchmark set-up raised
    largebatch-a9a's peak RSS from 167 to 194 MB."""
    t, c = M.csr.tocsc(), M.csr
    n = M.cols
    # the loop widens its index inputs to one type and writes its output in it
    idx = np.result_type(t.indptr, t.indices, c.indptr, c.indices)
    cp, cj, cx = np.empty(n + 1, dtype=idx), np.empty(n * n, dtype=idx), np.empty(n * n)
    csr_matmat(n, n, t.indptr, t.indices, t.data, c.indptr, c.indices, c.data, cp, cj, cx)
    G = np.zeros((n, n))
    csr_todense(n, n, cp, cj, cx, G)
    return G


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


def cg(matvec, b: np.ndarray, rtol: float, maxiter: int) -> np.ndarray:
    """Conjugate gradients on matvec(x) = b from x = 0, without a
    preconditioner, stopped once ||r|| < rtol ||b|| or after maxiter steps.

    The same arithmetic, in the same order, as scipy's sparse cg(op, b,
    rtol=rtol, atol=0.0, maxiter=maxiter)[0] for a LinearOperator op of
    matvec, so the two return the same bits; this form skips scipy's
    per-call operator and system set-up."""
    nb = np.linalg.norm(b)
    if nb == 0.0:
        return b.copy()  # as scipy, which returns b itself
    atol = rtol * nb
    x, r = np.zeros(len(b)), b.copy()
    for i in range(maxiter):
        if np.linalg.norm(r) < atol:
            break
        rho = np.dot(r, r)
        if i == 0:
            p = r.copy()
        else:
            p *= rho / rho_prev
            p += r
        q = matvec(p)
        alpha = rho / np.dot(p, q)
        x += alpha * p
        r -= alpha * q
        rho_prev = rho
    return x


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
    u = cg(aat, v, rtol=tol, maxiter=max(20 * A.rows, 1000))
    resid = np.linalg.norm(aat(u) - v)
    if not resid <= tol * nv:  # a NaN residual fails too
        raise ConvergenceError(
            f"cg on A A^T stalled at relative residual {resid / nv:.3e} "
            "(possible rank deficiency)",
            best_estimate=u,
        )
    return u
