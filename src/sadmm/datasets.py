"""Dataset ingestion: libsvm-format parsing/writing, deterministic splits,
and the synthetic generators used by the benchmark presets."""

from __future__ import annotations

import math

import numpy as np

from .errors import DataFormatError, DimensionError
from .linalg import SparseMatrixCSR
from .losses import Dataset

# rows per block in make_classification's full-size steps
_ROW_BLOCK = 2048


def parse_libsvm(path, dim: int | None = None) -> Dataset:
    """Parse lines of the form ``<label> <idx>:<val> ...``.

    Indices are 1-based in the file and mapped to 0-based; labels {0,1} or
    {-1,+1} are normalized to +-1. dim defaults to the largest index seen.
    Explicit zero values are dropped (their index still counts towards dim).
    Malformed lines and non-finite values raise DataFormatError carrying the
    line number.
    """
    offsets, indices, values, labels = [0], [], [], []
    max_idx = -1
    with open(path, "r") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            parts = line.split()
            try:
                raw_label = float(parts[0])
            except ValueError as exc:
                raise DataFormatError(f"{path}:{lineno}: bad label {parts[0]!r}") from exc
            if raw_label not in (0.0, 1.0, -1.0):
                raise DataFormatError(f"{path}:{lineno}: label must be 0/1 or -1/+1, got {parts[0]}")
            labels.append(-1.0 if raw_label == 0.0 else raw_label)
            prev = -1
            for tok in parts[1:]:
                try:
                    i_str, v_str = tok.split(":", 1)
                    i = int(i_str)
                    v = float(v_str)
                except ValueError as exc:
                    raise DataFormatError(f"{path}:{lineno}: bad feature token {tok!r}") from exc
                if i < 1:
                    raise DataFormatError(f"{path}:{lineno}: feature index {i} must be >= 1")
                if i - 1 <= prev:
                    raise DataFormatError(f"{path}:{lineno}: feature indices must be strictly increasing")
                if not math.isfinite(v):
                    raise DataFormatError(f"{path}:{lineno}: feature value {v_str!r} is not finite")
                prev = i - 1
                max_idx = max(max_idx, prev)
                if v != 0.0:
                    indices.append(prev)
                    values.append(v)
            offsets.append(len(indices))
    if not labels:
        raise DataFormatError(f"{path}: empty file")
    if dim is None:
        dim = max_idx + 1
    elif max_idx >= dim:
        raise DimensionError(f"feature index {max_idx} exceeds dim {dim}")
    return Dataset(SparseMatrixCSR(len(labels), dim, offsets, indices, values), labels)


def write_libsvm(path, data: Dataset) -> None:
    """Inverse of parse_libsvm (1-based indices, +-1 labels)."""
    F = data.features
    with open(path, "w") as fh:
        for i in range(data.n):
            lo, hi = F.row_offsets[i], F.row_offsets[i + 1]
            toks = ["+1" if data.labels[i] > 0 else "-1"]
            toks += [f"{j + 1}:{repr(float(v))}" for j, v in zip(F.col_indices[lo:hi], F.values[lo:hi])]
            fh.write(" ".join(toks) + "\n")


def train_test_split(data: Dataset, test_fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    """Deterministic shuffled split; test gets round(n * test_fraction)."""
    if not 0.0 < test_fraction < 1.0:
        raise ValueError("test_fraction must be in (0, 1)")
    n = data.n
    n_test = int(round(n * test_fraction))
    if n_test == 0 or n_test == n:
        raise ValueError("split leaves an empty part")
    perm = np.random.default_rng(seed).permutation(n)
    test_idx, train_idx = np.sort(perm[:n_test]), np.sort(perm[n_test:])

    def take(idx):
        sub = data.features.csr[idx]
        return Dataset(SparseMatrixCSR.from_scipy(sub), data.labels[idx])

    return take(train_idx), take(test_idx)


def make_classification(
    n: int,
    dim: int,
    seed: int = 0,
    density: float = 0.4,
    n_correlated_pairs: int | None = None,
    duplicate_pairs: int = 0,
    label_noise: float = 0.05,
    heavy_row_fraction: float = 0.0,
    heavy_row_factor: float = 10.0,
) -> Dataset:
    """Sparse binary classification data with planted feature correlations.

    n_correlated_pairs feature pairs are strongly (but not perfectly)
    correlated so a correlation-threshold graph finds edges;
    duplicate_pairs pairs are exact copies, which makes the smooth loss
    Hessian singular along the duplicated directions (useful for genuinely
    non-strongly-convex instances). A heavy_row_fraction of the rows can be
    blown up by heavy_row_factor, which makes the worst-case per-sample
    smoothness constant much larger than the typical one. Rows are scaled
    so the largest norm is ~2.
    """
    if n_correlated_pairs is None:
        n_correlated_pairs = min(5, dim // 4)
    if dim < 2 * (n_correlated_pairs + duplicate_pairs):
        raise ValueError("dim too small for the requested paired features")
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, dim))
    # the draw is the only n x dim array: every full-size step below runs
    # in row blocks, and successive uniform blocks are the same stream as
    # one (n, dim) draw
    blocks = [slice(lo, min(lo + _ROW_BLOCK, n)) for lo in range(0, n, _ROW_BLOCK)]
    for rows in blocks:
        X[rows] *= rng.random((rows.stop - rows.start, dim)) < density
    col = 0
    for _ in range(n_correlated_pairs):
        base = X[:, col].copy()
        X[:, col + 1] = 0.97 * base + 0.03 * rng.standard_normal(n)
        col += 2
    for _ in range(duplicate_pairs):
        X[:, col + 1] = X[:, col]
        col += 2
    if heavy_row_fraction > 0.0:
        heavy = rng.random(n) < heavy_row_fraction
        X[heavy] *= heavy_row_factor
    # scale so the largest row norm is about 2
    max_norm = max(np.linalg.norm(X[rows], axis=1).max() for rows in blocks)
    X *= 2.0 / max(max_norm, 1e-12)
    w = rng.standard_normal(dim) / np.sqrt(dim)
    margins = X @ w + 0.1 * rng.standard_normal(n)
    labels = np.where(margins >= 0, 1.0, -1.0)
    flip = rng.random(n) < label_noise
    labels[flip] *= -1.0
    # the CSR arrays filled in place, row block by row block, in row-major
    # order, so each row's columns are increasing
    offsets = np.zeros(n + 1, dtype=np.int64)
    for rows in blocks:
        np.sum(X[rows] != 0.0, axis=1, out=offsets[rows.start + 1 : rows.stop + 1])
    np.cumsum(offsets, out=offsets)
    col_indices = np.empty(offsets[-1], dtype=np.int64)
    values = np.empty(offsets[-1], dtype=np.float64)
    block_cols = np.tile(np.arange(dim), min(n, _ROW_BLOCK))
    for rows in blocks:
        nz = (X[rows] != 0.0).ravel()
        lo, hi = offsets[rows.start], offsets[rows.stop]
        np.compress(nz, block_cols[: len(nz)], out=col_indices[lo:hi])
        np.compress(nz, X[rows], out=values[lo:hi])
    del X  # before the CSR checks make their nnz-sized temporaries
    return Dataset(SparseMatrixCSR(n, dim, offsets, col_indices, values), labels)
