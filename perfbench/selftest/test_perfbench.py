"""Fast self-test of the benchmark.

Runs every workload at a tiny size, traced and untraced, and asserts that
the result line names every metric of BENCHMARK.json with its unit. Also
checks that a directory without the library's sources yields no result.

    python3 -m pytest perfbench/selftest -q
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import workloads as wl  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# Same layers and checks as the real workloads, at a size that runs in
# well under a second. The pins are seed-0 outputs of these instances.
TINY_DENSE = wl.Instance(300, 16, seed=23, label_noise=0.3)
TINY_SPARSE = wl.Instance(1200, 24, seed=1, density=0.11)
TINY_REFERENCE_OBJECTIVE = 0.6560717799668289
TINY = {
    "smallbatch-2k": wl.Workload(
        TINY_DENSE,
        runs=(
            wl.SolverRun("svrg", 5, 1, 6.0, 0.6875074886391512),
            wl.SolverRun("asvrg_sc", 5, 1, 6.0, 0.6875074886391983),
            wl.SolverRun("asvrg_gc", 5, 1, 6.0, 0.68750739414279),
            wl.SolverRun("stoc", 1, 1, 1.0, 0.6844565026154434),
        ),
        stored_reference=True,
        reference_objective=TINY_REFERENCE_OBJECTIVE,
    ),
    "largebatch-a9a": wl.Workload(
        TINY_SPARSE,
        runs=(
            wl.SolverRun("svrg", 40, 1, 6.0, 0.6880344310915444),
            wl.SolverRun("asvrg_gc", 40, 1, 6.0, 0.6880342483891415),
            wl.SolverRun("batch", 1, 1, 4.0, 0.6917812910979105),
        ),
    ),
    "reference-2k": wl.Workload(
        TINY_DENSE, solve_reference=True, reference_objective=TINY_REFERENCE_OBJECTIVE
    ),
}


def test_tiny_workloads_cover_every_workload():
    assert sorted(TINY) == sorted(w["name"] for w in SPEC["workloads"]) == sorted(wl.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(TINY))
def test_every_metric_is_emitted_with_its_unit(workload, trace, tmp_path, capsys):
    argv = ["--workload", workload, "--seed", "0", "--seconds", "0", "--trace", str(trace)]
    code = run.main(argv, workloads=TINY, out_dir=tmp_path)
    out = capsys.readouterr().out
    result = json.loads(out.strip().splitlines()[-1])
    assert code == 0, out
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), name
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    else:
        assert (tmp_path / f"{workload}-seed0-trace1.spans.npz").exists()


def test_a_wrong_pin_fails_the_run(tmp_path, capsys):
    good = TINY["reference-2k"]
    bad = {"reference-2k": wl.Workload(good.instance, solve_reference=True, reference_objective=1.0)}
    argv = ["--workload", "reference-2k", "--seed", "0", "--seconds", "0", "--trace", "0"]
    assert run.main(argv, workloads=bad, out_dir=tmp_path) == 1
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False and result["failed"] == 1


def test_without_sources_there_is_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "smallbatch-2k", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
