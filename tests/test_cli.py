import os

import pytest

from sadmm.cli import main
from sadmm.datasets import make_classification, parse_libsvm, write_libsvm
from sadmm.harness import build_graph_matrix, build_graph_spec, read_trace_csv
from sadmm.losses import LossKind, LossObjective
from sadmm.problem import ProblemSpec
from sadmm.prox import Regularizer


@pytest.fixture()
def config_file(tmp_path):
    out = tmp_path / "out"
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(
        f"""
        problem = gg_logistic
        dataset = synthetic
        synth_n = 120
        synth_d = 10
        synth_seed = 2
        solver = svrg
        b = 4
        eta = auto
        beta = auto
        gamma = auto
        epochs = 2
        seeds = 0
        output_dir = {out}
        """
    )
    return cfg, out


def test_run_subcommand(config_file, capsys):
    cfg, out = config_file
    rc = main(["run", "--config", str(cfg)])
    assert rc == 0
    text = capsys.readouterr().out
    assert "summary:" in text
    traces = list(out.glob("gg_logistic_svrg_seed*.csv"))
    assert len(traces) == 1
    recs = read_trace_csv(traces[0])
    assert len(recs) == 3
    assert (out / "gg_logistic_svrg_summary.csv").exists()


def test_run_overrides(config_file, capsys):
    cfg, out = config_file
    rc = main(["run", "--config", str(cfg), "--solver", "asvrg_gc", "--seeds", "3,4",
               "--epochs", "1"])
    assert rc == 0
    traces = sorted(out.glob("gg_logistic_asvrg_gc_seed*.csv"))
    assert [p.name for p in traces] == [
        "gg_logistic_asvrg_gc_seed3.csv",
        "gg_logistic_asvrg_gc_seed4.csv",
    ]


def test_run_string_overrides_reach_meta(config_file):
    cfg, out = config_file
    rc = main(["run", "--config", str(cfg), "--solver", "asvrg_sc", "--eta", "auto",
               "--theta", "0.5", "--epochs", "1"])
    assert rc == 0
    text = (out / "gg_logistic_asvrg_sc_meta.txt").read_text()
    meta = dict(line.split(" = ") for line in text.splitlines())
    assert meta["eta"] == "auto"
    assert meta["theta"] == "0.5"
    assert meta["epochs"] == "1"


def test_reference_subcommand(config_file, capsys):
    cfg, out = config_file
    rc = main(["reference", "--config", str(cfg), "--tol", "1e-8"])
    assert rc == 0
    text = capsys.readouterr().out
    assert "objective_star" in text
    kkt_line = [l for l in text.splitlines() if l.startswith("kkt_residual")][0]
    assert float(kkt_line.split("=")[1]) <= 1e-8
    assert list((out / "refcache").glob("*.npz"))


def test_tune_subcommand(config_file, capsys):
    cfg, out = config_file
    rc = main(["tune", "--config", str(cfg), "--solver", "asvrg_gc", "--epochs", "1"])
    assert rc == 0
    vals = dict(line.split(" = ") for line in capsys.readouterr().out.strip().splitlines())
    assert vals["solver"] == "asvrg_gc"
    assert float(vals["eta"]) > 0
    assert float(vals["beta"]) in (0.01, 0.1, 1.0, 10.0)
    assert list((out / "refcache").glob("*.npz"))


def test_spectra_subcommand(tmp_path, capsys):
    data = make_classification(200, 8, seed=5)
    path = tmp_path / "train.libsvm"
    write_libsvm(path, data)
    rc = main(["spectra", "--data", str(path), "--threshold", "0.9"])
    assert rc == 0
    text = capsys.readouterr().out
    vals = dict(line.split(" = ") for line in text.strip().splitlines())
    assert int(vals["d1"]) == 8
    assert int(vals["d2"]) == 8 + int(vals["edges"])
    assert int(vals["edges"]) == len(build_graph_spec(data, 0.9).edges)
    assert float(vals["ata_norm"]) >= float(vals["aat_min_eig"]) > 0
    assert float(vals["omega"]) >= 1.0


def test_spectra_subcommand_prints_the_constants_a_run_uses(tmp_path, capsys):
    path = tmp_path / "train.libsvm"
    write_libsvm(path, make_classification(300, 20, seed=42))
    assert main(["spectra", "--data", str(path), "--threshold", "0.9"]) == 0
    vals = dict(line.split(" = ") for line in capsys.readouterr().out.strip().splitlines())
    data = parse_libsvm(path)
    A = build_graph_matrix(data, 0.9)
    sc = ProblemSpec(LossObjective(LossKind.logistic(), data), Regularizer(1e-5), A).spectra
    assert vals["ata_norm"] == repr(sc.ata_norm)
    assert vals["aat_min_eig"] == repr(sc.aat_min_eig)
    assert vals["omega"] == repr(sc.ata_norm / sc.aat_min_eig)


A9A = os.environ.get("SADMM_A9A_PATH")


@pytest.mark.skipif(not A9A, reason="SADMM_A9A_PATH not set")
def test_a9a_training_count():
    data = parse_libsvm(A9A)
    assert data.n == 16281
