"""Sparse matrix kernels and spectral quantities.

Everything the solvers need from the penalty matrix A lives here: CSR
matrix-vector products, the spectral norm of A^T A, the smallest Gram
eigenvalue, and a conjugate-gradient solve against A A^T used for the
pseudo-inverse dual initialization. All operations are pure functions of
immutable inputs and safe to call concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.io
import scipy.sparse
import scipy.sparse.linalg

from .errors import (
    ConvergenceError,
    DimensionError,
    MatrixFormatError,
    RankDeficiencyError,
)

# Smallest-eigenvalue estimates below this fraction of the spectral norm are
# treated as rank deficiency.
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

    @classmethod
    def from_coo(cls, rows, cols, i, j, v) -> "SparseMatrixCSR":
        coo = scipy.sparse.coo_matrix((v, (i, j)), shape=(rows, cols))
        return cls.from_scipy(coo)

    def to_dense(self) -> np.ndarray:
        return self.csr.toarray()


def vstack(blocks) -> SparseMatrixCSR:
    """Stack matrices vertically (shared column count)."""
    return SparseMatrixCSR.from_scipy(scipy.sparse.vstack([b.csr for b in blocks]))


def as_vector(x, length: int | None = None, name: str = "vector") -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise DimensionError(f"{name} must be 1-D, got shape {x.shape}")
    if length is not None and len(x) != length:
        raise DimensionError(f"{name} has length {len(x)}, expected {length}")
    return x


def spmv(A: SparseMatrixCSR, x) -> np.ndarray:
    """A @ x."""
    x = as_vector(x, A.cols, "x")
    return A.csr @ x


def spmv_t(A: SparseMatrixCSR, y) -> np.ndarray:
    """A^T @ y."""
    y = as_vector(y, A.rows, "y")
    return A.csr_t @ y


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
    tol * resid_scale (resid_scale defaults to |lam|). Returns (lam, iters).
    """
    v = v0
    lam = 0.0
    for it in range(1, max_iter + 1):
        w = matvec(v)
        lam = float(v @ w)
        r = w - lam * v
        scale = resid_scale if resid_scale is not None else max(abs(lam), 1e-300)
        if np.linalg.norm(r) <= tol * scale:
            return lam, it
        nw = np.linalg.norm(w)
        if nw == 0.0:
            # v is numerically in the null space; lam is 0 on this component
            return 0.0, it
        v = w / nw
    raise ConvergenceError(
        f"power iteration did not converge in {max_iter} iterations",
        best_estimate=lam,
        iterations=max_iter,
    )


def spectral_norm_ata(A: SparseMatrixCSR, tol: float = 1e-9, max_iter: int = 10000) -> float:
    """||A^T A||_2, the squared largest singular value of A.

    Power iteration on x -> A^T(Ax) with a deterministic start vector. The
    returned value is a Rayleigh quotient of A^T A and therefore never
    exceeds the true norm by more than rounding.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if A.nnz == 0:
        raise MatrixFormatError("spectral norm of an all-zero matrix is undefined here")
    sp, spt = A.csr, A.csr_t
    lam, _ = _power_iteration(lambda v: spt @ (sp @ v), _start_vector(A, A.cols), tol, max_iter)
    return lam


def _min_gram_eig(A: SparseMatrixCSR, sigma_max: float, tol: float, max_iter: int):
    """(sigma_min, iterations) as documented in min_eig_aat. The caller
    supplies sigma_max, since each caller computes it to its own tolerance."""
    sp, spt = A.csr, A.csr_t
    if A.rows <= A.cols:
        dim = A.rows
        gram = lambda v: sp @ (spt @ v)
    else:
        dim = A.cols
        gram = lambda v: spt @ (sp @ v)
    shifted = lambda v: sigma_max * v - gram(v)
    nu, iters = _power_iteration(
        shifted, _start_vector(A, dim, stream=1), tol, max_iter, resid_scale=sigma_max
    )
    sigma_min = sigma_max - nu
    if sigma_min < RANK_TOL * sigma_max:
        raise RankDeficiencyError(
            f"A not full row rank: smallest Gram eigenvalue {sigma_min:.3e} "
            f"below {RANK_TOL:.0e} * sigma_max ({sigma_max:.3e})"
        )
    return sigma_min, iters


def min_eig_aat(A: SparseMatrixCSR, tol: float = 1e-9, max_iter: int = 10000) -> float:
    """Smallest Gram eigenvalue of A, computed on the smaller side.

    For wide or square A (rows <= cols) this is the smallest eigenvalue of
    A A^T; for tall A it is the smallest eigenvalue of A^T A, which equals
    the smallest nonzero eigenvalue of A A^T whenever A has full rank (the
    stacked edge/identity penalty matrices are tall, and their A A^T is
    singular by construction while the quantity the rate formulas need is
    the spectrum over the range of A).

    Computed by power iteration on the shifted operator sigma_max*I - Gram.
    Raises RankDeficiencyError when the estimate falls below
    RANK_TOL * sigma_max.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    sigma_max = spectral_norm_ata(A, tol=min(tol, 1e-9) * 0.1, max_iter=max_iter)
    return _min_gram_eig(A, sigma_max, tol, max_iter)[0]


@dataclass(frozen=True)
class SpectralConstants:
    """Spectral quantities of the penalty matrix used by the rate formulas."""

    ata_norm: float
    aat_min_eig: float
    tol: float
    iters_used: int


def compute_spectral_constants(
    A: SparseMatrixCSR, tol: float = 1e-9, max_iter: int = 10000
) -> SpectralConstants:
    sigma_max = spectral_norm_ata(A, tol=tol, max_iter=max_iter)
    sigma_min, iters = _min_gram_eig(A, sigma_max, tol, max_iter)
    return SpectralConstants(ata_norm=sigma_max, aat_min_eig=sigma_min, tol=tol, iters_used=iters)


def solve_aat(
    A: SparseMatrixCSR,
    v,
    tol: float = 1e-12,
    x0: np.ndarray | None = None,
    max_iter: int | None = None,
) -> np.ndarray:
    """Solve A A^T u = v by conjugate gradients.

    Contract: the returned u satisfies ||A A^T u - v|| <= tol * ||v||. For a
    consistent right-hand side (v in the range of A) CG from zero converges
    to the minimum-norm solution, so (A^T)^+ w can be computed as
    solve_aat(A, A @ w). A warm start x0 may be supplied; it must lie in the
    range of A for the pseudo-inverse interpretation to survive.
    """
    v = as_vector(v, A.rows, "v")
    nv = np.linalg.norm(v)
    if nv == 0.0:
        return np.zeros(A.rows)
    sp, spt = A.csr, A.csr_t
    op = scipy.sparse.linalg.LinearOperator(
        (A.rows, A.rows), matvec=lambda w: sp @ (spt @ w), dtype=np.float64
    )
    if max_iter is None:
        max_iter = max(20 * A.rows, 1000)
    u, info = scipy.sparse.linalg.cg(op, v, x0=x0, rtol=tol, atol=0.0, maxiter=max_iter)
    resid = np.linalg.norm(sp @ (spt @ u) - v)
    if resid > tol * nv:
        raise ConvergenceError(
            f"cg on A A^T stalled at relative residual {resid / nv:.3e} "
            "(possible rank deficiency)",
            best_estimate=u,
            iterations=max_iter if info > 0 else info,
        )
    return u


def write_matrix_market(path, A: SparseMatrixCSR, comment: str = "") -> None:
    """Write A as 'coordinate real general' Matrix Market."""
    scipy.io.mmwrite(str(path), A.csr.tocoo(), comment=comment, field="real", symmetry="general")


def read_matrix_market(path) -> SparseMatrixCSR:
    try:
        mat = scipy.io.mmread(str(path))
    except Exception as exc:
        raise MatrixFormatError(f"cannot read Matrix Market file {path}: {exc}") from exc
    return SparseMatrixCSR.from_scipy(mat)
