"""Host-speed calibration: fixed work that does not use sadmm.

The benchmark's host is a shared virtual machine whose speed changes by up
to 2x for seconds to minutes at a time. Every set-up and round is preceded
by one calibration, and each time is divided by the calibration time
measured next to it, which cancels most of that drift. The calibration
mixes the two kinds of work the workloads do: small numpy operations in a
Python loop, and sparse mat-vecs and row gathers over a large matrix.
"""

import time

import numpy as np
import scipy.sparse

# A fixed scale, close to the calibration time on the reference host:
# normalized times are seconds on a host where the calibration takes this.
NOMINAL_S = 0.05


class Calibration:
    def __init__(self):
        rng = np.random.default_rng(0)
        self.dense = rng.standard_normal((60, 60))
        self.v0 = rng.standard_normal(60)
        # 30000 x 120 with 18 entries per row, built without large temporaries
        # so that it barely moves the benchmark's peak memory
        n, d, k = 30000, 120, 18
        cols = np.sort((rng.integers(0, d, size=(n, 1)) + 7 * np.arange(k)) % d, axis=1)
        self.sparse = scipy.sparse.csr_matrix(
            (rng.standard_normal(n * k), cols.ravel(), np.arange(0, n * k + 1, k)), shape=(n, d)
        )
        self.sparse_t = self.sparse.T.tocsr()
        self.rows = np.sort(rng.choice(n, 256, replace=False))

    def measure(self) -> float:
        """Seconds taken by the fixed work."""
        t0 = time.perf_counter()
        x = self.v0.copy()
        for _ in range(2000):
            x = self.dense @ x
            x /= np.abs(x).max()
            _ = {j: j * x[j] for j in range(8)}
        w = np.ones(120)
        for _ in range(15):
            w = self.sparse_t @ (self.sparse @ w)
            w /= np.abs(w).max()
            sub = self.sparse[self.rows]
            w += 1e-9 * (sub.T @ (sub @ w))
        return time.perf_counter() - t0
