import dataclasses
import logging
import warnings

import numpy as np
import pytest

from sadmm.datasets import make_classification
import sadmm.harness
from sadmm.errors import ConfigError, ConvergenceError, DataFormatError
from sadmm.harness import (
    ExperimentConfig,
    GraphSpec,
    assemble_problem,
    build_graph_matrix,
    build_graph_spec,
    config_from_file,
    get_reference,
    graph_matrix,
    grid_search_eta_beta,
    load_graph,
    median_summary,
    parse_config_file,
    read_trace_csv,
    resolve_solver_config,
    run_experiment,
    run_solver,
    save_graph,
    write_trace_csv,
)
from sadmm.linalg import min_eig_aat
from sadmm.metrics import CSV_HEADER, TraceRecord, compute_reference, kkt_residuals
from sadmm.solvers import ConstantTheta, FixedOne, SolverConfig

from helpers import dataset_from_rows


class TestGraph:
    def test_threshold_one_gives_identity(self):
        data = make_classification(60, 8, seed=1)
        A = build_graph_matrix(data, 0.999999)
        assert A.shape == (8, 8)
        assert np.allclose(A.to_dense(), np.eye(8))

    def test_perfectly_correlated_pair(self):
        rng = np.random.default_rng(2)
        base = rng.standard_normal(50)
        rows = [{0: float(v), 1: float(v), 2: float(rng.standard_normal())} for v in base]
        labels = [1 if i % 2 else -1 for i in range(50)]
        data = dataset_from_rows(rows, labels, dim=3)
        spec = build_graph_spec(data, 0.95)
        assert (0, 1, pytest.approx(1.0)) in [(i, j, w) for i, j, w in spec.edges]
        A = graph_matrix(spec.edges, 3)
        assert np.allclose(A.to_dense()[0], [1.0, -1.0, 0.0])

    def test_negative_correlation_sign(self):
        rng = np.random.default_rng(3)
        base = rng.standard_normal(50)
        rows = [{0: float(v), 1: float(-v)} for v in base]
        data = dataset_from_rows(rows, [1] * 25 + [-1] * 25, dim=2)
        spec = build_graph_spec(data, 0.9)
        A = graph_matrix(spec.edges, 2)
        assert np.allclose(A.to_dense()[0], [1.0, 1.0])  # -sign(-1) = +1

    def test_known_correlations(self):
        # hand-check the empirical correlation against numpy's
        data = make_classification(200, 6, seed=4)
        X = data.features.to_dense()
        spec = build_graph_spec(data, 0.5)
        corr = np.corrcoef(X, rowvar=False)
        expected = {
            (i, j)
            for i in range(6)
            for j in range(i + 1, 6)
            if abs(corr[i, j]) > 0.5
        }
        assert {(i, j) for i, j, _ in spec.edges} == expected
        for i, j, w in spec.edges:
            assert w == pytest.approx(corr[i, j], abs=1e-12)

    def test_constant_feature_skipped(self, caplog):
        rows = [{0: 1.0, 1: float(v)} for v in np.random.default_rng(5).standard_normal(30)]
        data = dataset_from_rows(rows, [1, -1] * 15, dim=2)
        with caplog.at_level(logging.WARNING, logger="sadmm.harness"):
            spec = build_graph_spec(data, 0.5)
        assert spec.edges == ()
        assert "skipping 1 constant feature(s)" in caplog.text
        caplog.clear()
        # n = 80: E[x^2] - mu^2 leaves rounding noise in the variance of the
        # constant columns 1 and 3, which must not pair them into an edge
        F = np.random.default_rng(6).standard_normal((80, 2))
        rows = [{0: float(a), 1: 2.0, 2: float(c), 3: 1.0} for a, c in F]
        data = dataset_from_rows(rows, [1, -1] * 40, dim=4)
        with caplog.at_level(logging.WARNING, logger="sadmm.harness"):
            spec = build_graph_spec(data, 0.9)
        assert spec.edges == ()
        assert "skipping 2 constant feature(s)" in caplog.text

    def test_edges_match_loop_transcription(self):
        # correlated features of both signs plus one constant feature (n is a
        # power of two so its variance cancels exactly); the edges must equal,
        # value for value and in order, a pairwise loop
        rng = np.random.default_rng(8)
        F = rng.standard_normal((64, 3)) @ rng.standard_normal((3, 9))
        F += 0.5 * rng.standard_normal((64, 9))
        F[:, 4] = 2.0
        rows = [dict(enumerate(map(float, r))) for r in F]
        data = dataset_from_rows(rows, [1, -1] * 32, dim=9)
        threshold = 0.3
        X = data.features.csr
        mu = np.asarray(X.mean(axis=0)).ravel()
        cov = (X.T @ X).toarray() / data.n - np.outer(mu, mu)
        var = np.clip(np.diag(cov), 0.0, None)
        degenerate = var <= 1e-12 * np.diag((X.T @ X).toarray() / data.n)
        sd = np.sqrt(var)
        assert degenerate.tolist() == [j == 4 for j in range(9)]
        with np.errstate(divide="ignore", invalid="ignore"):
            corr = cov / np.outer(sd, sd)
        expected = []
        for i in range(9):
            for j in range(i + 1, 9):
                if not (degenerate[i] or degenerate[j]) and abs(corr[i, j]) > threshold:
                    expected.append((i, j, float(corr[i, j])))
        assert {np.sign(w) for _, _, w in expected} == {-1.0, 1.0}
        assert build_graph_spec(data, threshold).edges == tuple(expected)

    def test_stacked_matrix_full_column_rank(self):
        data = make_classification(300, 10, seed=6)
        A = build_graph_matrix(data, 0.8)
        assert A.rows > 10  # found at least one edge
        # passes the rank check (smallest Gram eigenvalue >= 1 via identity block)
        assert min_eig_aat(A) >= 1.0 - 1e-6

    def test_graph_spec_validation(self):
        with pytest.raises(DataFormatError):
            GraphSpec(((1, 0, 0.5),))
        with pytest.raises(DataFormatError):
            GraphSpec(((0, 1, 0.5), (0, 1, 0.2)))

    def test_graph_file_round_trip(self, tmp_path):
        spec = GraphSpec(((0, 3, 0.91), (1, 2, -0.95)))
        path = tmp_path / "edges.txt"
        save_graph(path, spec)
        assert load_graph(path) == spec

    def test_bad_graph_file(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("0 1\n")
        with pytest.raises(DataFormatError, match=":1:"):
            load_graph(path)

    def test_threshold_validation(self):
        data = make_classification(30, 4, seed=7)
        with pytest.raises(ConfigError):
            build_graph_spec(data, 1.5)


class TestConfigFile:
    def test_parse_and_overrides(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text(
            """
            # benchmark preset
            problem = gg_logistic
            dataset = synthetic
            synth_n = 200
            synth_d = 12
            lambda1 = 1e-4
            solver = svrg
            b = 4
            eta = auto
            beta = 0.5
            gamma = auto
            seeds = 1, 2, 3
            epochs = 2
            """
        )
        cfg = config_from_file(path, {"solver": "asvrg_gc", "epochs": 5})
        assert cfg.problem == "gg_logistic"
        assert cfg.solver == "asvrg_gc"
        assert cfg.epochs == 5
        assert cfg.seeds == (1, 2, 3)
        assert cfg.beta == 0.5
        assert cfg.gamma == "auto"

    def test_unknown_key(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("nonsense = 1\n")
        with pytest.raises(DataFormatError, match=":1:"):
            parse_config_file(path)

    def test_missing_equals(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("problem fused_lasso\n")
        with pytest.raises(DataFormatError):
            parse_config_file(path)

    def test_validation(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(problem="nope")
        with pytest.raises(ConfigError):
            ExperimentConfig(solver="nope")
        with pytest.raises(ConfigError):
            ExperimentConfig(seeds=())


def small_cfg(**kw):
    base = dict(
        problem="gg_logistic",
        synth_n=150,
        synth_d=10,
        synth_seed=3,
        b=5,
        epochs=3,
        seeds=(0,),
        graph_threshold=0.9,
        eta="auto",
        beta="auto",
        gamma="auto",
    )
    base.update(kw)
    return ExperimentConfig(**base)


class TestTraceCSV:
    def test_header_and_round_trip(self, tmp_path):
        cfg = small_cfg(solver="svrg")
        problem, train, test, kind = assemble_problem(cfg)
        config = resolve_solver_config(problem, cfg, seed=0)
        ref = compute_reference(problem, tol=1e-10)
        recs = run_solver(problem, "svrg", config, ref=ref, test=test, kind=kind)
        path = tmp_path / "trace.csv"
        write_trace_csv(path, recs)
        text = path.read_text().splitlines()
        assert text[0] == CSV_HEADER
        assert len(text) == len(recs) + 1
        back = read_trace_csv(path)
        assert back == recs

    def test_bad_header(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("wrong,header\n")
        with pytest.raises(DataFormatError):
            read_trace_csv(path)


class TestRunExperiment:
    def test_writes_traces_and_summary(self, tmp_path):
        cfg = small_cfg(output_dir=str(tmp_path / "out"), seeds=(0, 1), solver="asvrg_gc")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            result = run_experiment(cfg)
        assert len(result["traces"]) == 2
        for p in result["traces"]:
            recs = read_trace_csv(p)
            assert len(recs) == cfg.epochs + 1
            assert all(np.isfinite(r.objective) for r in recs)
            assert recs[-1].objective_gap < recs[0].objective_gap
        summary = read_trace_csv(result["summary"])
        assert len(summary) == cfg.epochs + 1
        assert result["meta"].exists()

    def test_repeated_seed_identical_traces(self, tmp_path):
        # wall time is measured, everything else must match exactly
        cfg = small_cfg(output_dir=str(tmp_path / "out"), seeds=(1, 1), solver="svrg")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            result = run_experiment(cfg)
        a, b = (read_trace_csv(p) for p in result["traces"])
        for ra, rb in zip(a, b):
            assert dataclasses.replace(ra, wall_seconds=0.0) == dataclasses.replace(
                rb, wall_seconds=0.0
            )

    def test_huberized_hinge_problem_end_to_end(self, tmp_path):
        cfg = small_cfg(
            problem="gg_svm", output_dir=str(tmp_path / "out"), solver="asvrg_gc",
            lambda1=1e-4, lambda2=1e-4, epochs=2,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            result = run_experiment(cfg)
        recs = read_trace_csv(result["traces"][0])
        assert all(np.isfinite(r.objective) for r in recs)
        assert recs[-1].objective_gap <= recs[0].objective_gap

    def test_reference_cached(self, tmp_path):
        cfg = small_cfg(output_dir=str(tmp_path / "out"))
        problem, train, test, kind = assemble_problem(cfg)
        cache = tmp_path / "out" / "refcache"
        r1 = get_reference(problem, kind, train, tol=1e-10, beta=0.1, cache_dir=cache)
        files = list(cache.glob("*.npz"))
        assert len(files) == 1
        r2 = get_reference(problem, kind, train, tol=1e-10, beta=0.1, cache_dir=cache)
        assert r1.objective_star == r2.objective_star
        assert np.array_equal(r1.x_star, r2.x_star)
        # different tolerance gets its own entry
        get_reference(problem, kind, train, tol=1e-8, beta=0.1, cache_dir=cache)
        assert len(list(cache.glob("*.npz"))) == 2
        # an entry with a perturbed x_star, then a truncated file: each is
        # recomputed, certified and overwritten instead of being returned
        path = files[0]

        def assert_recomputed():
            r = get_reference(problem, kind, train, tol=1e-10, beta=0.1, cache_dir=cache)
            assert max(kkt_residuals(problem, r.x_star, r.y_star, r.lambda_star, r.beta)) <= 1e-10
            assert np.array_equal(r.x_star, r1.x_star)
            with np.load(path) as z:
                assert np.array_equal(z["x_star"], r1.x_star)

        with np.load(path) as z:
            entry = dict(z)
        entry["x_star"] = entry["x_star"] + 1e-3
        with open(path, "wb") as fh:
            np.savez(fh, **entry)
        assert_recomputed()
        path.write_bytes(path.read_bytes()[:200])
        assert_recomputed()


class TestDegeneracyThroughHarness:
    def test_svrg_and_momentum_one_traces_byte_identical(self):
        cfg = small_cfg()
        problem, train, test, kind = assemble_problem(cfg)
        ref = compute_reference(problem, tol=1e-10)
        L = problem.f.smoothness
        base = dict(m=20, eta=1.0 / (8 * L), beta=0.5, b=5, gamma="auto", epochs=4, seed=9)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            r_svrg = run_solver(problem, "svrg", SolverConfig(schedule=FixedOne(), **base), ref=ref)
            r_sc = run_solver(
                problem, "asvrg_sc", SolverConfig(schedule=ConstantTheta(1.0), **base), ref=ref
            )
        col = lambda recs: [repr(r.objective) for r in recs]
        assert col(r_svrg) == col(r_sc)


def test_resolve_solver_config_defaults():
    cfg = small_cfg(solver="svrg", m=None)
    problem, *_ = assemble_problem(cfg)
    config = resolve_solver_config(problem, cfg, seed=0)
    n = problem.f.n
    assert config.m == (2 * n) // cfg.b
    assert config.eta < 1.0 / (2.0 * problem.f.smoothness)
    stoc_cfg = resolve_solver_config(problem, small_cfg(solver="stoc", m=None), seed=0)
    assert stoc_cfg.m == n


def test_resolve_constant_momentum_auto():
    # strongly convex + fully automatic: the rate-optimal trio is used
    from sadmm.solvers import RateParams, beta_star, optimal_theta_sc

    cfg = small_cfg(solver="asvrg_sc", m=500, b=5)
    problem, *_ = assemble_problem(cfg)
    config = resolve_solver_config(problem, cfg, seed=0)
    params = RateParams.from_problem(problem)
    theta, _alpha, eta = optimal_theta_sc(500, 5, problem.f.n, params)
    assert isinstance(config.schedule, ConstantTheta)
    assert config.schedule.theta == pytest.approx(theta)
    assert config.eta == pytest.approx(eta)
    assert config.beta == pytest.approx(beta_star(params, problem.spectra))


def test_median_summary_rejects_mismatched():
    rec = TraceRecord(0, 0.0, 0.0, 1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        median_summary([[rec], [rec, rec]])


class TestGridSearch:
    def test_skips_failed_points_and_propagates_bugs(self, monkeypatch):
        cfg = small_cfg(solver="svrg")
        problem, *_ = assemble_problem(cfg)
        ref = compute_reference(problem, tol=1e-8)
        etas = [1.0 / (8.0 * problem.f.smoothness)]
        real = sadmm.harness.run_solver

        def diverges_at_small_beta(problem, solver, config, **kw):
            if config.beta == 0.1:
                raise ConvergenceError("solver diverged: non-finite iterate")
            return real(problem, solver, config, **kw)

        monkeypatch.setattr(sadmm.harness, "run_solver", diverges_at_small_beta)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            eta, beta = grid_search_eta_beta(problem, "svrg", cfg, ref, etas=etas,
                                             betas=[0.1, 1.0], epochs=1)
        assert (eta, beta) == (etas[0], 1.0)

        def buggy(*args, **kw):
            raise TypeError("bug in a solver")

        monkeypatch.setattr(sadmm.harness, "run_solver", buggy)
        with pytest.raises(TypeError):
            grid_search_eta_beta(problem, "svrg", cfg, ref, etas=etas, betas=[1.0], epochs=1)
