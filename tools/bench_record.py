#!/usr/bin/env python3
"""Measurement record: the benchmark's end-to-end medians and the tier-1
times of this checkout, in one JSON file.

    python3 tools/bench_record.py BENCH_<n>.json

For each workload listed in BENCHMARK.json and each of SEEDS, it runs the
benchmark command of BENCHMARK.json (perfbench/run.py, unmodified) for its
run_seconds with --trace 0 in a fresh process and reads the record that run writes under
.bench_out/. The file gets, per workload, every run's end-to-end metrics
(wall_s, setup_s, peak_rss_mb), its per-operation times (epoch_s.<solver>,
reference_s), its failed fraction and calibration time, and the median of
each over the seeds. perfbench already scales these times to nominal host
speed.

Then it runs tier-1 (pytest over the configured test paths, with
--durations=0) with the calibration of perfbench/calibrate.py measured
five times before and five times after it. The raw tier-1 wall time and
the summed set-up, call and tear-down time of criterion 07 are scaled by
NOMINAL_S over the mean of the two calibration medians, as perfbench
scales its own times.

BLAS runs on one thread throughout, in this process and in every child.
The file also records the environment block of the first benchmark run
(CPU, nproc, Python, numpy, scipy, BLAS and its thread count, commit) and
the `git status` lines of tracked files that differ from that commit.
Seeds and run length are fixed, so any two records compare run for run.
The script is not part of the test suite.
"""

import os

# BLAS reads its thread count when numpy loads it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import calibrate  # noqa: E402

END_TO_END = ("wall_s", "setup_s", "peak_rss_mb")
INFO = ("failed_frac", "calibration_s")
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
         "--durations=0", "-p", "no:cacheprovider"]
SEEDS = (1, 2, 3)
CRITERION_07 = "test_criterion_07"
DURATION = re.compile(r"^([\d.]+)s (?:setup|call|teardown)\s+(\S+)")


def bench_run(command, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark process; its metrics, read from the record it writes."""
    args = [*command, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(args, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{' '.join(args)} exited with {proc.returncode}")
    record = json.loads((ROOT / ".bench_out" / f"{workload}-seed{seed}-trace0.json").read_text())
    run = {"seed": seed}
    run.update({k: record["metrics"][k]["value"] for k in END_TO_END})
    run.update({k: v["value"] for k, v in record["info"].items()
                if k in INFO or (k.startswith(("epoch_s.", "reference_s")) and v["value"] > 0)})
    return {"run": run, "environment": record["environment"]}


def uncommitted():
    """Tracked files that differ from the commit in the environment block
    (git status lines), or None outside a git checkout."""
    proc = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                          cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.splitlines() if proc.returncode == 0 else None


def calibration_median(cal: calibrate.Calibration, repeats: int = 5) -> float:
    return statistics.median(cal.measure() for _ in range(repeats))


def tier1() -> dict:
    cal = calibrate.Calibration()
    before = calibration_median(cal)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)}
    t0 = time.perf_counter()
    proc = subprocess.run(TIER1, cwd=ROOT, env=env, capture_output=True, text=True)
    raw = time.perf_counter() - t0
    after = calibration_median(cal)
    lines = proc.stdout.splitlines()
    c07 = sum(float(m.group(1)) for m in map(DURATION.match, lines)
              if m and CRITERION_07 in m.group(2))
    scale = calibrate.NOMINAL_S / ((before + after) / 2)
    return {
        "command": " ".join(["PYTHONPATH=src", "python", *TIER1[1:]]),
        "exit_code": proc.returncode,
        "summary": lines[-1].strip("= ") if lines else "",
        "calibration_before_s": before,
        "calibration_after_s": after,
        "raw_s": raw,
        "normalised_s": raw * scale,
        "criterion_07_raw_s": c07,
        "criterion_07_normalised_s": c07 * scale,
    }


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        raise SystemExit("usage: bench_record.py OUT.json")
    out = Path(argv[0])
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]

    environment, workloads = None, {}
    for wl in bench["workloads"]:
        runs = []
        for seed in SEEDS:
            got = bench_run(bench["command"], wl["name"], seed, seconds)
            environment = environment or got["environment"]
            runs.append(got["run"])
            print(f"{wl['name']} seed={seed} " + " ".join(
                f"{k}={v:.4g}" for k, v in got["run"].items() if k != "seed"), flush=True)
        keys = dict.fromkeys(k for r in runs for k in r if k != "seed")
        median = {k: statistics.median(r[k] for r in runs if k in r) for k in keys}
        workloads[wl["name"]] = {"median": median, "runs": runs}

    t1 = tier1()
    print(f"tier-1 {t1['summary']}: {t1['raw_s']:.1f} s raw, {t1['normalised_s']:.1f} s "
          f"normalised; criterion 07 {t1['criterion_07_raw_s']:.1f} s raw, "
          f"{t1['criterion_07_normalised_s']:.1f} s normalised", flush=True)
    record = {
        "environment": environment,
        "uncommitted": uncommitted(),
        "benchmark": {"command": " ".join(bench["command"]), "seeds": list(SEEDS),
                      "seconds": seconds, "trace": 0},
        "workloads": workloads,
        "tier1": t1,
    }
    out.write_text(json.dumps(record, indent=1) + "\n")
    return 0 if t1["exit_code"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
