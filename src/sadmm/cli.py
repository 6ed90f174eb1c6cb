"""Command-line entry point: run experiments, build references, tune step
sizes, inspect spectra."""

from __future__ import annotations

import argparse
import logging
import sys
import warnings

from .datasets import parse_libsvm
from .harness import (
    build_graph_matrix,
    config_from_file,
    grid_search_eta_beta,
    problem_and_reference,
    run_experiment,
)
from .linalg import compute_spectral_constants


def _add_run(sub):
    p = sub.add_parser("run", help="run one solver over the configured seeds")
    p.add_argument("--config", required=True, help="key = value experiment config file")
    p.add_argument("--solver", help="override the configured solver")
    p.add_argument("--seeds", "--seed", dest="seeds", help="comma-separated seed list override")
    p.add_argument("--epochs", help="override the epoch count")
    p.add_argument("--output-dir", help="override the output directory")
    p.add_argument("--eta", help="step size or 'auto'")
    p.add_argument("--beta", help="penalty weight or 'auto'")
    p.add_argument("--gamma", help="proximal-metric constant or 'auto'")
    p.add_argument("--theta", help="momentum weight or 'auto'")


def _add_reference(sub):
    p = sub.add_parser("reference", help="compute and cache the certified optimum")
    p.add_argument("--config", required=True)
    p.add_argument("--tol", help="KKT residual tolerance")


def _add_tune(sub):
    p = sub.add_parser("tune", help="grid-search eta and beta for one solver")
    p.add_argument("--config", required=True)
    p.add_argument("--solver", help="override the configured solver")
    p.add_argument("--epochs", type=int, default=6, help="length of each trial run")


def _add_spectra(sub):
    p = sub.add_parser("spectra", help="spectral constants of the graph-guided penalty")
    p.add_argument("--data", required=True, help="libsvm data file")
    p.add_argument("--threshold", type=float, required=True, help="correlation threshold")


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = argparse.ArgumentParser(prog="sadmm")
    sub = parser.add_subparsers(dest="command", required=True)
    _add_run(sub)
    _add_reference(sub)
    _add_tune(sub)
    _add_spectra(sub)
    args = parser.parse_args(argv)

    if args.command == "run":
        overrides = {k: v for k, v in vars(args).items() if k not in ("command", "config")}
        cfg = config_from_file(args.config, overrides)
        result = run_experiment(cfg)
        print(f"reference objective: {result['reference_objective']!r}")
        for path in result["traces"]:
            print(f"trace: {path}")
        print(f"summary: {result['summary']}")
        return 0

    if args.command == "reference":
        _problem, _test, ref = problem_and_reference(
            config_from_file(args.config, {"ref_tol": args.tol})
        )
        print(f"objective_star = {ref.objective_star!r}")
        print(f"kkt_residual = {ref.kkt_residual!r}")
        return 0

    if args.command == "tune":
        # prints the (eta, beta) pair with the smallest final objective gap
        # of a short run, in config-file form
        cfg = config_from_file(args.config, {"solver": args.solver})
        problem, _test, ref = problem_and_reference(cfg)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            eta, beta = grid_search_eta_beta(problem, cfg, ref, epochs=args.epochs)
        print(f"solver = {cfg.solver}")
        print(f"eta = {eta!r}")
        print(f"beta = {beta!r}")
        return 0

    if args.command == "spectra":
        data = parse_libsvm(args.data)
        A = build_graph_matrix(data, args.threshold)
        sc = compute_spectral_constants(A)
        print(f"edges = {A.rows - A.cols}")
        print(f"d1 = {A.cols}")
        print(f"d2 = {A.rows}")
        print(f"ata_norm = {sc.ata_norm!r}")
        print(f"aat_min_eig = {sc.aat_min_eig!r}")
        print(f"omega = {sc.ata_norm / sc.aat_min_eig!r}")
        return 0


if __name__ == "__main__":
    sys.exit(main())
