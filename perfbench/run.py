#!/usr/bin/env python3
"""Benchmark of the sadmm library; see perfbench/README.md.

    python3 perfbench/run.py --workload smallbatch-2k --seed 0 --seconds 30 --trace 0

Repeats a host-speed calibration, a set-up of the workload's instance and
a round of its operations for --seconds, checking every output; times are
normalized by the calibration measured next to them. Prints
one line per metric, then a final JSON line with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1. Exits 1 when a check fails and 2 when
the library cannot be imported from this checkout's src/.
"""

import os

# BLAS reads its thread count when numpy loads it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ctypes
import json
import platform
import resource
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import asdict, dataclass
from pathlib import Path

import calibrate

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

SOLVERS = ("svrg", "asvrg_sc", "asvrg_gc", "stoc", "batch")
LAYERS = (
    "vr.vr_gradient",
    "vr.draw",
    "losses.subset_grad",
    "losses.full_grad",
    "losses.hess_vec",
    "losses.value",
    "linalg.spmv",
    "linalg.spmv_t",
    "linalg.solve_aat",
    "prox.y_update",
    "solvers.batch_admm_epoch",
    "metrics.kkt_residuals",
    "metrics.p_criterion",
    "metrics.evaluate",
)
OP_METRICS = tuple(f"epoch_s.{s}" for s in SOLVERS) + ("reference_s",)
SETUP_LAYERS = (
    "datasets.make_classification",
    "harness.build_graph_matrix",
    "problem.spectra",
    "harness.get_reference",
)


def _no_span(_name):
    return nullcontext()


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return p.parse_args(argv)


class Bench:
    """One benchmark process: set-ups, timed rounds, failure accounting."""

    def __init__(self, wl, workload, seed: int, cache_dir: Path):
        self.wl = wl
        self.workload = workload
        self.seed = seed
        self.cache_dir = cache_dir
        self.attempted = 0
        self.failures: list[str] = []
        self.passes: dict[str, float] = {}
        self.objectives: dict[str, float] = {}

    def op(self, label: str, fn):
        """Run one operation; an exception or a failed check counts as a
        failure and the benchmark goes on."""
        self.attempted += 1
        try:
            return fn()
        except Exception as exc:
            self.failures.append(f"{label}: {type(exc).__name__}: {exc}")
            print(f"perfbench: {label} failed", file=sys.stderr)
            traceback.print_exc()
            return None

    def set_up(self, span):
        t0 = time.perf_counter()
        setup = self.op("setup", lambda: self.wl.build(self.workload, span, self.cache_dir))
        return setup, time.perf_counter() - t0

    def _solve(self, setup, run, span, ops):
        import sadmm.harness

        config = self.wl.solver_config(setup.problem, run, self.seed)
        with span(f"solvers.run.{run.solver}"):
            t0 = time.perf_counter()
            records = sadmm.harness.run_solver(
                setup.problem, run.solver, config, ref=setup.ref, test=setup.data, kind=setup.kind
            )
            dt = time.perf_counter() - t0
        self.wl.check_run(run, records, self.seed, setup.ref)
        ops[f"epoch_s.{run.solver}"] = dt / run.epochs
        self.passes[run.solver] = records[-1].passes
        self.objectives[run.solver] = records[-1].objective

    def _reference(self, setup, span, ops):
        import sadmm.metrics

        with span("metrics.reference"):
            t0 = time.perf_counter()
            ref = sadmm.metrics.compute_reference(
                setup.problem, tol=self.wl.REF_TOL, beta=self.wl.REF_BETA
            )
            dt = time.perf_counter() - t0
        self.wl.check_reference(self.workload, setup.problem, ref)
        ops["reference_s"] = dt
        self.objectives["reference"] = ref.objective_star

    def round(self, setup, span) -> tuple[float, dict]:
        """Every operation of the workload once. Returns the round's wall
        time and each passing operation's time (per epoch for solvers)."""
        ops = {}
        t0 = time.perf_counter()
        for run in self.workload.runs:
            self.op(run.solver, lambda: self._solve(setup, run, span, ops))
        if self.workload.solve_reference:
            self.op("compute_reference", lambda: self._reference(setup, span, ops))
        return time.perf_counter() - t0, ops


@dataclass
class Sample:
    """One iteration of the timed phase: a calibration, a set-up, a round."""

    cal: float
    setup: float
    round: float
    ops: dict

    def scaled(self, seconds: float) -> float:
        """A time measured next to this calibration, at nominal host speed."""
        return seconds * calibrate.NOMINAL_S / self.cal


def scaled_median(samples, get) -> float:
    """Median over samples of get(sample), scaled to nominal host speed;
    samples where get returns None (a failed operation) are skipped."""
    values = [s.scaled(get(s)) for s in samples if get(s) is not None]
    return float(statistics.median(values)) if values else 0.0


def median_index(samples, get) -> int:
    order = sorted(range(len(samples)), key=lambda i: samples[i].scaled(get(samples[i])))
    return order[(len(order) - 1) // 2]


def per_layer_metrics(tracer, samples, traced, passes):
    """Layer totals of the median traced round and the median traced
    set-up, scaled to nominal host speed. Taking each from one run keeps
    them consistent: children plus self time add up to that run's spans."""
    r = median_index(traced, lambda s: s.round)
    u = median_index(traced, lambda s: s.setup)
    round_layers, setup_layers = tracer.per_run("round")[r], tracer.per_run("setup")[u]

    def total(layers, sample, name, field):
        # field of (calls, inclusive s, self s); a span that never ran counts 0
        value = layers[name][field] if name in layers else 0.0
        return value if field == 0 else sample.scaled(value)

    def in_round(name, field):
        return total(round_layers, traced[r], name, field)

    out = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = (in_round(layer, 0), "count")
        out[f"{layer}.s"] = (in_round(layer, 1), "s")
    out["solvers.init.s"] = (in_round("solvers.init", 1), "s")
    for solver in SOLVERS:
        out[f"solvers.self_s.{solver}"] = (in_round(f"solvers.run.{solver}", 2), "s")
    out["metrics.reference.self_s"] = (in_round("metrics.reference", 2), "s")
    for layer in SETUP_LAYERS:
        out[f"{layer}.s"] = (total(setup_layers, traced[u], layer, 1), "s")
    for solver in SOLVERS:
        out[f"solvers.passes.{solver}"] = (passes.get(solver, 0.0), "passes")
    for name in OP_METRICS:
        out[name] = (scaled_median(samples, lambda s: s.ops.get(name)), "s")
    overhead = scaled_median(traced, lambda s: s.round) / scaled_median(samples, lambda s: s.round)
    out["trace_overhead_frac"] = (overhead - 1.0, "ratio")
    return out


# ---------------------------------------------------------------------------
# environment record


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def openblas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if found."""
    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*.so*")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_commit(root: Path):
    """HEAD of a git checkout, read from .git; None outside one."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = None
    return {
        "cpu": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": openblas_threads(),
        "blas_thread_env": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "commit": git_commit(ROOT),
    }


# ---------------------------------------------------------------------------


def main(argv=None, workloads=None, out_dir: Path = OUT_DIR) -> int:
    args = parse_args(argv)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        import sadmm
    except ImportError as exc:
        print(f"perfbench: cannot import sadmm from {SRC}: {exc}", file=sys.stderr)
        return 2
    if not Path(sadmm.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: sadmm imported from {sadmm.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import tracing
    import workloads as wl

    table = wl.WORKLOADS if workloads is None else workloads
    if args.workload not in table:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(table)}",
              file=sys.stderr)
        return 2
    workload = table[args.workload]
    out_dir.mkdir(parents=True, exist_ok=True)
    bench = Bench(wl, workload, args.seed, out_dir / "refcache")
    tracer = tracing.Tracer()

    # Untimed warm-up set-up: loads modules and, on the first run in a
    # checkout, computes the reference into the cache. Rounds use it.
    setup, _ = bench.set_up(_no_span)
    if setup is None:
        print("perfbench: set-up failed; nothing measured", file=sys.stderr)
        return 1

    # Each iteration measures the calibration, one set-up and one round,
    # so that set-ups and rounds sample the host over the whole run and
    # each time is normalized by a calibration taken next to it.
    calibration = calibrate.Calibration()
    samples, traced = [], []
    deadline = time.perf_counter() + args.seconds
    while True:
        cal = calibration.measure()
        if args.trace and len(samples) > len(traced):
            with tracer.traced_run("setup"):
                _, setup_dt = bench.set_up(tracer.span)
            with tracer.traced_run("round"):
                traced.append(Sample(cal, setup_dt, *bench.round(setup, tracer.span)))
        else:
            _, setup_dt = bench.set_up(_no_span)
            samples.append(Sample(cal, setup_dt, *bench.round(setup, _no_span)))
        if time.perf_counter() >= deadline and len(traced) >= args.trace:
            break

    info = {name: (scaled_median(samples, lambda s: s.ops.get(name)), "s") for name in OP_METRICS}
    if traced:
        info.update({f"traced.{name}": (scaled_median(traced, lambda s: s.ops.get(name)), "s")
                     for name in OP_METRICS})
    info["raw.setup_s"] = (float(statistics.median(s.setup for s in samples)), "s")
    info["raw.wall_s"] = (float(statistics.median(s.round for s in samples)), "s")
    info["calibration_s"] = (float(statistics.median(s.cal for s in samples)), "s")
    info["failed_frac"] = (len(bench.failures) / bench.attempted, "ratio")
    info["ops"] = (bench.attempted, "count")
    if args.trace:
        metrics = per_layer_metrics(tracer, samples, traced, bench.passes)
    else:
        metrics = {
            "setup_s": (scaled_median(samples, lambda s: s.setup), "s"),
            "wall_s": (scaled_median(samples, lambda s: s.round), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }

    env = environment()
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("environment: " + json.dumps(env))
    print(f"{len(samples)} untraced and {len(traced)} traced rounds, each after a calibration"
          " and a set-up; times are scaled to nominal host speed")
    for name, (value, unit) in {**metrics, **info}.items():
        print(f"{name:34s} {value:<24.10g} {unit}")
    for solver, obj in bench.objectives.items():
        print(f"final objective {solver:18s} {obj!r}")
    for failure in bench.failures:
        print(f"FAILED {failure}")

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result = {
        "correct": not bench.failures,
        "attempted": bench.attempted,
        "failed": len(bench.failures),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    record = {
        **result,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "environment": env,
        "info": {name: {"value": v, "unit": u} for name, (v, u) in info.items()},
        "final_objectives": bench.objectives,
        "failures": bench.failures,
        "samples": [asdict(x) for x in samples],
        "traced_samples": [asdict(x) for x in traced],
    }
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        tracer.write(out_dir / f"{stem}.spans.npz")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
