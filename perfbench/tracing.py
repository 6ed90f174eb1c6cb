"""Span tracing from outside the library.

A traced round swaps the module and class attributes through which callers
reach each layer of ``sadmm`` for thin wrappers that record one span per
call, and puts the originals back afterwards, so untraced rounds run the
unmodified code. Spans (name, start, end, parent, run id) are held in
memory as integer arrays and written out once, at exit.
"""

from __future__ import annotations

import functools
import time
from array import array
from contextlib import contextmanager

import numpy as np

import sadmm.harness
import sadmm.losses
import sadmm.metrics
import sadmm.problem
import sadmm.solvers
import sadmm.vr

# (owner, attribute, span name): every route by which the solvers, the
# harness and the reference solver reach a layer.
TARGETS = (
    (sadmm.solvers, "vr_gradient", "vr.vr_gradient"),
    (sadmm.solvers, "spmv", "linalg.spmv"),
    (sadmm.solvers, "spmv_t", "linalg.spmv_t"),
    (sadmm.solvers, "y_update", "prox.y_update"),
    (sadmm.solvers, "solve_aat", "linalg.solve_aat"),
    (sadmm.vr.BatchSampler, "draw", "vr.draw"),
    (sadmm.losses.LossObjective, "value", "losses.value"),
    (sadmm.losses.LossObjective, "full_grad", "losses.full_grad"),
    (sadmm.losses.LossObjective, "subset_grad", "losses.subset_grad"),
    (sadmm.losses.LossObjective, "hess_vec", "losses.hess_vec"),
    (sadmm.harness, "init_vr_state", "solvers.init"),
    (sadmm.harness, "init_batch_state", "solvers.init"),
    (sadmm.harness, "init_stoc_state", "solvers.init"),
    (sadmm.harness, "batch_admm_epoch", "solvers.batch_admm_epoch"),
    (sadmm.harness, "p_criterion", "metrics.p_criterion"),
    (sadmm.harness, "evaluate", "metrics.evaluate"),
    (sadmm.harness, "spmv", "linalg.spmv"),
    (sadmm.problem, "spmv", "linalg.spmv"),
    (sadmm.metrics, "batch_admm_epoch", "solvers.batch_admm_epoch"),
    (sadmm.metrics, "kkt_residuals", "metrics.kkt_residuals"),
    (sadmm.metrics, "spmv", "linalg.spmv"),
    (sadmm.metrics, "spmv_t", "linalg.spmv_t"),
)


class Tracer:
    """In-memory span recorder for one benchmark process (single thread)."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.run = array("q")
        self.run_kinds: list[str] = []  # run id -> "setup" or "round"
        self._stack: list[int] = []
        self._run_id = -1

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name_id.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.run.append(self._run_id)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(self._name_id(name))
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, fn, name: str):
        name_id = self._name_id(name)
        open_, close = self._open, self._close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = open_(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                close(idx)

        return traced

    @contextmanager
    def traced_run(self, kind: str):
        """Trace every layer call made inside the block as one run."""
        self._run_id = len(self.run_kinds)
        self.run_kinds.append(kind)
        originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in TARGETS]
        try:
            for owner, attr, name in TARGETS:
                setattr(owner, attr, self._wrap(owner.__dict__[attr], name))
            yield
        finally:
            for owner, attr, fn in originals:
                setattr(owner, attr, fn)
            self._run_id = -1

    def per_run(self, kind: str) -> list[dict[str, tuple[int, float, float]]]:
        """For each run of the given kind: span name -> (calls, inclusive s, self s).

        Self time is a span's duration minus the durations of its direct
        children; spans of one thread nest, so the children never overlap.
        """
        n = len(self.start)
        if n == 0:
            return []
        dur = np.frombuffer(self.end, dtype=np.int64) - np.frombuffer(self.start, dtype=np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        own = dur - child
        name_id = np.frombuffer(self.name_id, dtype=np.int64)
        run = np.frombuffer(self.run, dtype=np.int64)
        out = []
        for run_id, run_kind in enumerate(self.run_kinds):
            if run_kind != kind:
                continue
            sel = run == run_id
            ids = name_id[sel]
            calls = np.bincount(ids, minlength=len(self.names))
            incl = np.bincount(ids, weights=dur[sel], minlength=len(self.names))
            excl = np.bincount(ids, weights=own[sel], minlength=len(self.names))
            out.append(
                {
                    name: (int(calls[i]), incl[i] * 1e-9, excl[i] * 1e-9)
                    for i, name in enumerate(self.names)
                    if calls[i]
                }
            )
        return out

    def write(self, path) -> None:
        """Compressed arrays: span i is names[name_id[i]] from start[i] to
        end[i] (ns), child of span parent[i] (-1: none), in run run[i] of
        kind run_kinds[run[i]]."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            run_kinds=np.array(self.run_kinds),
            **{f: np.frombuffer(getattr(self, f), dtype=np.int64)
               for f in ("name_id", "start", "end", "parent", "run")},
        )

