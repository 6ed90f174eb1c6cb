import dataclasses
import logging
import math
import re
import warnings

import numpy as np
import pytest

from sadmm.datasets import make_classification, train_test_split, write_libsvm
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
    reference_key,
    resolve_solver_config,
    run_experiment,
    run_solver,
    save_graph,
    write_trace_csv,
)
from sadmm.linalg import SparseMatrixCSR, compute_spectral_constants, solve_aat, spmv_t
from sadmm.losses import Dataset, LossKind, LossObjective
from sadmm.metrics import (
    CSV_HEADER,
    GAP_FLOOR,
    ReferenceSolution,
    TraceRecord,
    compute_reference,
    kkt_residuals,
)
from sadmm.problem import ProblemSpec
from sadmm.prox import Regularizer
from sadmm.solvers import (
    ConstantTheta,
    DecayingTheta,
    RateParams,
    SolverConfig,
    gamma_min,
    init_vr_state,
    theta_bound,
)

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
        A = graph_matrix(spec, 3)
        assert np.allclose(A.to_dense()[0], [1.0, -1.0, 0.0])

    def test_negative_correlation_sign(self):
        rng = np.random.default_rng(3)
        base = rng.standard_normal(50)
        rows = [{0: float(v), 1: float(-v)} for v in base]
        data = dataset_from_rows(rows, [1] * 25 + [-1] * 25, dim=2)
        spec = build_graph_spec(data, 0.9)
        A = graph_matrix(spec, 2)
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

    @pytest.mark.parametrize("case", ["criterion-07", "a9a-shape", "300x10", "empty-rows", "int64-indices"])
    def test_feature_means_equal_scipy_mean_bitwise(self, monkeypatch, case):
        # build_graph_spec takes the column means as X^T (1/n, ..., 1/n) on the
        # compiled loop; they must equal scipy's X.mean(axis=0) byte for byte
        if case == "criterion-07":
            data = make_classification(2000, 60, seed=23, label_noise=0.3)
        elif case == "a9a-shape":
            data = make_classification(32561, 123, seed=1, density=0.11)
        elif case == "300x10":
            data = make_classification(300, 10, seed=1)
        else:
            rng = np.random.default_rng(9)
            rows = [{j: float(rng.standard_normal()) for j in range(7) if rng.random() < 0.5}
                    for _ in range(40)]
            rows[0] = rows[17] = rows[-1] = {}
            data = dataset_from_rows(rows, [1, -1] * 20, dim=7)
        X = data.features.csr
        if case == "int64-indices":
            X = X.copy()
            X.indptr, X.indices = X.indptr.astype(np.int64), X.indices.astype(np.int64)
        means = []

        def recorded(M, y):
            means.append(spmv_t(M, y))
            return means[-1]

        monkeypatch.setattr(sadmm.harness, "spmv_t", recorded)
        build_graph_spec(data, 0.5)
        assert len(means) == 1
        assert means[0].tobytes() == np.asarray(X.mean(axis=0)).ravel().tobytes()

    def test_stacked_matrix_full_column_rank(self):
        data = make_classification(300, 10, seed=6)
        A = build_graph_matrix(data, 0.8)
        assert A.rows > 10  # found at least one edge
        # passes the rank check (smallest Gram eigenvalue >= 1 via identity block)
        assert compute_spectral_constants(A).aat_min_eig >= 1.0 - 1e-6

    def test_graph_spec_validation(self):
        with pytest.raises(DataFormatError):
            GraphSpec(((1, 0, 0.5),))
        with pytest.raises(DataFormatError):
            GraphSpec(((0, 1, 0.5), (0, 1, 0.2)))

    @pytest.mark.parametrize(
        "edge",
        [(-1, 2, 0.5), (0, 1, 0.0), (0, 1, float("nan")), (0, 1, float("inf"))],
        ids=["negative-index", "zero-weight", "nan-weight", "inf-weight"],
    )
    def test_graph_spec_names_the_bad_edge(self, edge):
        with pytest.raises(DataFormatError, match=rf"edge \({edge[0]}, {edge[1]}\)"):
            GraphSpec(((0, 3, 0.9), edge))

    @pytest.mark.parametrize(
        "edge",
        [(0, 1.5, 0.3), (True, 2, 0.5), (0.0, 2, 0.5), (0, np.float64(2.0), 0.5), (np.True_, 2, 0.5)],
        ids=["float", "bool", "integral-float", "numpy-float", "numpy-bool"],
    )
    def test_graph_spec_refuses_non_integer_indices(self, edge):
        with pytest.raises(DataFormatError, match=re.escape(f"edge ({edge[0]}, {edge[1]})")):
            GraphSpec(((0, 3, 0.9), edge))

    def test_graph_spec_takes_numpy_integer_indices(self):
        edges = ((np.int64(0), np.int32(2), 0.5), (np.intp(1), 2, -0.7))
        expected = graph_matrix(GraphSpec(((0, 2, 0.5), (1, 2, -0.7))), 3)
        assert np.array_equal(graph_matrix(GraphSpec(edges), 3).to_dense(), expected.to_dense())

    # GraphSpec refuses negative indices and bad weights
    # (test_graph_spec_names_the_bad_edge); graph_matrix checks the dimension
    @pytest.mark.parametrize("edge", [(0, 7, 0.5)], ids=["index-past-dim"])
    def test_graph_matrix_names_an_index_outside_the_features(self, edge):
        with pytest.raises(DataFormatError, match=rf"edge \({edge[0]}, {edge[1]}, 0.5\)"):
            graph_matrix(GraphSpec(((0, 1, 0.9), edge)), 5)

    def test_graph_matrix_matches_loop_transcription(self):
        assert np.array_equal(graph_matrix(GraphSpec(()), 3).to_dense(), np.eye(3))
        rng = np.random.default_rng(9)
        pairs = [(i, j) for i in range(12) for j in range(i + 1, 12) if rng.random() < 0.3]
        edges = tuple((i, j, float(rng.choice([-1, 1]) * rng.uniform(0.5, 1.0))) for i, j in pairs)
        expected = np.vstack([np.zeros((len(edges), 12)), np.eye(12)])
        for r, (i, j, w) in enumerate(edges):
            expected[r, i], expected[r, j] = 1.0, -np.sign(w)
        A = graph_matrix(GraphSpec(edges), 12)
        assert {np.sign(w) for *_, w in edges} == {-1.0, 1.0}
        assert A.nnz == 2 * len(edges) + 12
        assert np.array_equal(A.to_dense(), expected)

    def test_graph_file_round_trip(self, tmp_path):
        spec = GraphSpec(((0, 3, 0.91), (1, 2, -0.95)))
        path = tmp_path / "edges.txt"
        save_graph(path, spec)
        assert load_graph(path) == spec

    def test_graph_path_gives_the_saved_graphs_matrix(self, tmp_path):
        # the file is built at another threshold than the config's, so A
        # comes from the file and not from the config's threshold
        train = assemble_problem(small_cfg())[0].f.data
        path = tmp_path / "edges.txt"
        save_graph(path, build_graph_spec(train, 0.15))
        A = assemble_problem(small_cfg(graph_path=str(path)))[0].A
        expected = build_graph_matrix(train, 0.15)
        assert (A.rows, A.cols) == (expected.rows, expected.cols)
        for name in ("row_offsets", "col_indices", "values"):
            assert getattr(A, name).tobytes() == getattr(expected, name).tobytes(), name
        assert A.rows != build_graph_matrix(train, 0.9).rows

    def test_bad_graph_file(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("0 1\n")
        with pytest.raises(DataFormatError, match=":1:"):
            load_graph(path)
        path.write_text("0 3 0.91\n1 two 0.5\n")
        with pytest.raises(DataFormatError, match=":2: invalid literal"):
            load_graph(path)

    def test_graph_file_skips_blank_and_comment_lines(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("# i j weight\n0 3 0.91\n\n   \n1 2 -0.95\n")
        assert load_graph(path) == GraphSpec(((0, 3, 0.91), (1, 2, -0.95)))

    def test_threshold_validation(self):
        data = make_classification(30, 4, seed=7)
        with pytest.raises(ConfigError):
            build_graph_spec(data, 1.5)


# one config line per ExperimentConfig field: the raw value and what it parses to
CONFIG_LINES = {
    "problem": ("gg_svm", "gg_svm"),
    "dataset": ("train.libsvm", "train.libsvm"),
    "test_dataset": ("none", None),
    "test_fraction": ("0.25", 0.25),
    "split_seed": ("3", 3),
    "synth_n": ("200", 200),
    "synth_d": ("12", 12),
    "synth_seed": ("5", 5),
    "lambda1": ("1e-4", 1e-4),
    "lambda2": ("0.02", 0.02),
    "huber_width": ("0.3", 0.3),
    "solver": ("stoc", "stoc"),
    "m": ("40", 40),
    "eta": ("auto", "auto"),
    "beta": ("auto", "auto"),
    "gamma": ("auto", "auto"),
    "theta": ("auto", "auto"),
    "b": ("4", 4),
    "epochs": ("7", 7),
    "seeds": ("0, 1 2", (0, 1, 2)),
    "graph_threshold": ("0.8", 0.8),
    "graph_path": ("None", None),
    "output_dir": ("out", "out"),
    "ref_tol": ("1e-9", 1e-9),
    "ref_beta": ("0.2", 0.2),
}


class TestConfigFile:
    def test_override_that_cannot_be_coerced_is_refused(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("problem = gg_logistic\n")
        with pytest.raises(ConfigError, match="epochs: invalid literal"):
            config_from_file(path, {"epochs": "many"})

    def test_every_field_parses_by_its_type(self, tmp_path):
        assert set(CONFIG_LINES) == {f.name for f in dataclasses.fields(ExperimentConfig)}
        path = tmp_path / "cfg.txt"
        path.write_text("".join(f"{key} = {raw}\n" for key, (raw, _) in CONFIG_LINES.items()))
        values = parse_config_file(path)
        for key, (_, expected) in CONFIG_LINES.items():
            assert values[key] == expected, key
            assert type(values[key]) is type(expected), key
        ExperimentConfig(**values)

    @pytest.mark.parametrize("key", ["eta", "beta", "gamma", "theta"])
    def test_auto_or_number(self, tmp_path, key):
        path = tmp_path / "cfg.txt"
        for raw, expected in (("auto", "auto"), ("0.5", 0.5), ("2", 2.0)):
            path.write_text(f"{key} = {raw}\n")
            value = parse_config_file(path)[key]
            assert value == expected and type(value) is type(expected)

    @pytest.mark.parametrize(
        "key, raw",
        [(key, "1.5") for key in ("split_seed", "synth_n", "synth_d", "synth_seed", "m", "b", "epochs")]
        + [("seeds", "0, 1.5"), ("lambda1", "auto"), ("ref_tol", "none")],
    )
    def test_rejected_values(self, tmp_path, key, raw):
        path = tmp_path / "cfg.txt"
        path.write_text(f"{key} = {raw}\n")
        with pytest.raises(DataFormatError, match=":1:"):
            parse_config_file(path)

    @pytest.mark.parametrize("key", ["m", "test_dataset", "graph_path"])
    def test_none_for_optional_fields(self, tmp_path, key):
        path = tmp_path / "cfg.txt"
        for raw in ("none", "None", ""):
            path.write_text(f"{key} = {raw}\n")
            assert parse_config_file(path)[key] is None

    def test_none_is_text_for_other_string_fields(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("dataset = none\noutput_dir = None\n")
        assert parse_config_file(path) == {"dataset": "none", "output_dir": "None"}

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

    def test_hash_inside_a_value_is_kept(self, tmp_path):
        # a comment starts at the start of a line or after whitespace only
        path = tmp_path / "cfg.txt"
        path.write_text(
            "# preset\n"
            "  # indented comment\n"
            "dataset = /data/a#1.svm\n"
            "output_dir = runs#2\t# tab before the comment\n"
            "b = 20   # README form\n"
            "solver = svrg#\n"
        )
        assert parse_config_file(path) == {
            "dataset": "/data/a#1.svm", "output_dir": "runs#2", "b": 20, "solver": "svrg#",
        }

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


def _config_file(tmp_path, text):
    path = tmp_path / "cfg.txt"
    path.write_text(text)
    return config_from_file(path)


GRAPH_43 = graph_matrix(GraphSpec(((0, 1, 1.0),)), 3)  # a 4x3 [G; I]


@pytest.mark.parametrize(
    "build",
    [
        lambda tmp: SolverConfig(m=1, eta=math.nan, beta=1.0),
        lambda tmp: SolverConfig(m=1, eta=1.0, beta=math.inf),
        lambda tmp: SolverConfig(m=1, eta=1.0, beta=1.0, gamma=math.nan),
        lambda tmp: LossKind.l2_logistic(math.nan),
        lambda tmp: LossKind.huberized_hinge(huber_width=math.nan),
        lambda tmp: Regularizer(math.nan),
        lambda tmp: Regularizer(math.inf),
        lambda tmp: ExperimentConfig(ref_tol=math.nan),
        lambda tmp: _config_file(tmp, "ref_tol = nan\n"),
        lambda tmp: compute_reference(assemble_problem(small_cfg())[0], tol=math.inf),
        lambda tmp: SolverConfig(m=1, eta=1.0, beta=1.0, inner_tol=-1.0),
        lambda tmp: SolverConfig(m=1, eta=1.0, beta=1.0, inner_tol=math.nan),
        lambda tmp: solve_aat(GRAPH_43, np.ones(4), tol=0.0),
        lambda tmp: solve_aat(GRAPH_43, np.ones(4), tol=-1e-10),
        lambda tmp: solve_aat(GRAPH_43, np.ones(4), tol=math.nan),
        lambda tmp: solve_aat(GRAPH_43, np.ones(4), tol=math.inf),
        lambda tmp: RateParams(mu=math.nan, L=1.0, ata_norm=3.0, aat_min_eig=1.0),
        lambda tmp: RateParams(mu=0.1, L=math.inf, ata_norm=3.0, aat_min_eig=1.0),
        lambda tmp: RateParams(mu=0.1, L=1.0, ata_norm=math.nan, aat_min_eig=1.0),
        lambda tmp: RateParams(mu=0.1, L=1.0, ata_norm=3.0, aat_min_eig=math.nan),
        lambda tmp: gamma_min(math.nan, 1.0, 0.5, 3.0),
        lambda tmp: gamma_min(1.0, math.inf, 0.5, 3.0),
        lambda tmp: gamma_min(1.0, 1.0, math.nan, 3.0),
        lambda tmp: gamma_min(1.0, 1.0, 0.5, math.nan),
    ],
    ids=["eta-nan", "beta-inf", "gamma-nan", "lambda2-nan", "huber-width-nan", "lambda1-nan",
         "lambda1-inf", "ref-tol-nan", "ref-tol-nan-in-file", "reference-tol-inf",
         "inner-tol-negative", "inner-tol-nan", "solve-aat-tol-zero", "solve-aat-tol-negative",
         "solve-aat-tol-nan", "solve-aat-tol-inf", "rate-mu-nan", "rate-L-inf", "rate-ata-norm-nan",
         "rate-aat-min-eig-nan", "gamma-min-eta-nan", "gamma-min-beta-inf",
         "gamma-min-theta-nan", "gamma-min-ata-norm-nan"],
)
def test_non_finite_settings_are_refused(tmp_path, build):
    # NaN passes a check written as x <= 0, so each check is one that NaN and
    # +-inf fail
    with pytest.raises(ValueError, match="finite"):
        build(tmp_path)


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
        problem, test = assemble_problem(cfg)
        config = resolve_solver_config(problem, cfg, seed=0)
        ref = compute_reference(problem, tol=1e-10)
        recs = run_solver(problem, "svrg", config, ref=ref, test=test, kind=problem.f.kind)
        path = tmp_path / "trace.csv"
        write_trace_csv(path, recs)
        text = path.read_text().splitlines()
        assert text[0] == CSV_HEADER
        assert len(text) == len(recs) + 1
        back = read_trace_csv(path)
        assert back == recs

    def test_test_columns_score_the_problems_loss(self):
        cfg = small_cfg(solver="svrg", epochs=2)
        problem, test = assemble_problem(cfg)
        config = resolve_solver_config(problem, cfg, seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            given = run_solver(problem, "svrg", config, test=test, kind=problem.f.kind)
            derived = run_solver(problem, "svrg", config, test=test)
            with pytest.raises(ConfigError, match="not the problem's"):
                run_solver(problem, "svrg", config, test=test, kind=LossKind.logistic())
        cols = lambda recs: [(r.test_loss, r.test_accuracy) for r in recs]
        assert np.isfinite(cols(derived)).all()
        assert cols(derived) == cols(given)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("wrong,header\n")
        with pytest.raises(DataFormatError):
            read_trace_csv(path)

    @pytest.mark.parametrize("bad, message", [
        ("1,2,3", "expected 12 columns, got 3"),
        ("1,0.1,1,a,0,0,0,0,0,1,0,0", "could not convert"),
    ], ids=["short-row", "non-numeric-cell"])
    def test_bad_row_names_its_line(self, tmp_path, bad, message):
        row = TraceRecord(0, 0.0, 0.0, 1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0).to_row()
        path = tmp_path / "t.csv"
        path.write_text(f"{CSV_HEADER}\n{row}\n\n{bad}\n")
        with pytest.raises(DataFormatError, match=f"t.csv:4: {message}"):
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

    def test_meta_reads_back_as_the_config(self, tmp_path):
        # a tuple field is written in the list form the config reader parses
        cfg = small_cfg(output_dir=str(tmp_path / "out"), seeds=(0, 1), solver="svrg", epochs=1)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            result = run_experiment(cfg)
        assert config_from_file(result["meta"]) == cfg
        assert "seeds = 0, 1\n" in result["meta"].read_text()

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
        problem, _test = assemble_problem(cfg)
        kind, train = problem.f.kind, problem.f.data
        cache = tmp_path / "out" / "refcache"

        def load():
            return get_reference(problem, kind, train, tol=1e-10, beta=0.1, cache_dir=cache)

        def assert_equals_computed(r):
            for field in dataclasses.fields(ReferenceSolution):
                v1, v2 = getattr(r1, field.name), getattr(r, field.name)
                if isinstance(v1, np.ndarray):
                    assert v1.tobytes() == v2.tobytes(), field.name
                else:
                    assert type(v2) is float and v1 == v2, field.name

        r1 = load()
        files = list(cache.glob("*.npz"))
        assert len(files) == 1
        path = files[0]
        with np.load(path) as z:
            triple = dict(z)
        assert sorted(triple) == ["lambda_star", "x_star", "y_star"]
        assert_equals_computed(load())
        # different tolerance gets its own entry
        get_reference(problem, kind, train, tol=1e-8, beta=0.1, cache_dir=cache)
        assert len(list(cache.glob("*.npz"))) == 2

        def write(entry):
            with open(path, "wb") as fh:
                np.savez(fh, **entry)

        # an entry in the earlier eleven-array layout whose derived fields are
        # shifted: only the triple is read, so every field comes back as computed
        write({**triple, "beta": np.asarray(r1.beta),
               **{f.name: np.asarray(getattr(r1, f.name)) + 1e-3
                  for f in dataclasses.fields(ReferenceSolution)
                  if f.name not in triple and f.name != "beta"}})
        assert_equals_computed(load())

        # an entry with a perturbed x_star, a truncated file, an entry
        # without lambda_star: each is recomputed, certified and overwritten
        # with the three arrays instead of being returned
        def assert_recomputed():
            r = load()
            assert max(kkt_residuals(problem, r.x_star, r.y_star, r.lambda_star, r.beta)) <= 1e-10
            assert_equals_computed(r)
            with np.load(path) as z:
                assert sorted(z.files) == sorted(triple)
                assert z["x_star"].tobytes() == r1.x_star.tobytes()

        write({**triple, "x_star": triple["x_star"] + 1e-3})
        assert_recomputed()
        path.write_bytes(path.read_bytes()[:200])
        assert_recomputed()
        write({k: v for k, v in triple.items() if k != "lambda_star"})
        assert_recomputed()
        # the right keys with another problem's shapes
        write({k: np.append(v, 0.0) for k, v in triple.items()})
        assert_recomputed()

    def test_failed_save_leaves_no_file(self, tmp_path, monkeypatch):
        problem, _test = assemble_problem(small_cfg())
        f = problem.f

        def full_disk(*args, **kw):
            raise OSError("no space left on device")

        monkeypatch.setattr(np, "savez", full_disk)
        with pytest.raises(OSError, match="no space"):
            get_reference(problem, f.kind, f.data, tol=1e-10, beta=0.1, cache_dir=tmp_path)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("split", ["test-fraction", "test-file"])
    def test_libsvm_files_trace_as_the_synthetic_set(self, tmp_path, split):
        # write_libsvm writes each value's repr, so the files read back as
        # the synthetic set (or its split), and the traces match
        synth = small_cfg(output_dir=str(tmp_path / "synth"), solver="svrg", epochs=2)
        full = make_classification(synth.synth_n, synth.synth_d, seed=synth.synth_seed)
        if split == "test-fraction":
            files = {"dataset": full}
        else:
            train, test = train_test_split(full, synth.test_fraction, synth.split_seed)
            files = {"dataset": train, "test_dataset": test}
        for name, data in files.items():
            write_libsvm(tmp_path / f"{name}.libsvm", data)
            files[name] = str(tmp_path / f"{name}.libsvm")
        from_files = dataclasses.replace(synth, output_dir=str(tmp_path / "files"), **files)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            traces = [read_trace_csv(run_experiment(c)["traces"][0]) for c in (synth, from_files)]
        synth_rows, file_rows = ([dataclasses.replace(r, wall_seconds=0.0) for r in t]
                                 for t in traces)
        assert np.isfinite(file_rows[-1].test_loss)
        assert file_rows == synth_rows

    def test_reference_refuses_a_loss_other_than_the_problems(self, tmp_path):
        # the key is read from problem.f, so a reference cannot be filed
        # under another loss's key
        problem, _test = assemble_problem(small_cfg())
        f = problem.f
        for kind, data in ((LossKind.logistic(), f.data), (f.kind, dataclasses.replace(f.data))):
            with pytest.raises(ConfigError, match="problem.f.kind"):
                get_reference(problem, kind, data, tol=1e-10, beta=0.1, cache_dir=tmp_path)
        assert not list(tmp_path.glob("*.npz"))

    def test_reference_key_is_pinned(self):
        # the key names a cache entry, so a change to it would orphan every
        # stored reference: it hashes the index arrays widened to int64,
        # whatever type the matrices store them in
        X = SparseMatrixCSR.from_dense(
            [[1.5, 0.0, -2.0], [0.0, 0.25, 0.0], [0.0, 0.0, 0.0], [-1.0, 3.0, 0.5]]
        )
        data = Dataset(X, [1.0, -1.0, -1.0, 1.0])
        A = graph_matrix(GraphSpec(((0, 2, 0.7), (1, 2, -0.4))), 3)
        problem = ProblemSpec(LossObjective(LossKind.l2_logistic(0.01), data), Regularizer(1e-3), A)
        assert reference_key(problem, 1e-10, 0.1) == (
            "9075f5c1ad0e019b540ec0846e6ea1b23a1ec4ba05b087caf821b1883440ad0d"
        )

    def test_losses_on_one_dataset_get_their_own_entries(self, tmp_path, caplog):
        # l2-logistic and plain logistic on the same data and graph differ
        # only in lambda2
        problems = [assemble_problem(small_cfg(problem=name))[0]
                    for name in ("gg_logistic", "fused_lasso")]
        with caplog.at_level(logging.WARNING, logger="sadmm.harness"):
            for problem in problems * 2:
                get_reference(problem, problem.f.kind, problem.f.data, tol=1e-10, beta=0.1,
                              cache_dir=tmp_path)
        assert len(list(tmp_path.glob("*.npz"))) == 2
        assert "recomputing" not in caplog.text


class TestNegativeGaps:
    def test_rows_below_the_reference_are_logged(self, caplog):
        cfg = small_cfg(epochs=8)
        problem, *_ = assemble_problem(cfg)
        config = resolve_solver_config(problem, cfg, seed=0)
        ref = compute_reference(problem, tol=1e-10)
        with caplog.at_level(logging.WARNING, logger="sadmm.harness"):
            certified = run_solver(problem, "batch", config, ref=ref)
        assert "beat the reference" not in caplog.text
        wrong = dataclasses.replace(ref, objective_star=ref.objective_star + 1e-3)
        with caplog.at_level(logging.WARNING, logger="sadmm.harness"):
            recs = run_solver(problem, "batch", config, ref=wrong)
        below = [r.objective - wrong.objective_star for r in recs]
        below = [g for g in below if g < -wrong.tol]
        assert below
        assert f"{len(below)} of {len(recs)} trace rows beat the reference" in caplog.text
        assert f"most negative raw gap {min(below):.3e}" in caplog.text
        assert len([r for r in caplog.records if "beat the reference" in r.message]) == 1
        # the trace itself still clamps
        assert all(r.objective_gap >= GAP_FLOOR for r in recs)
        assert [r.objective for r in recs] == [r.objective for r in certified]


class TestDegeneracyThroughHarness:
    def test_svrg_and_momentum_one_traces_byte_identical(self):
        cfg = small_cfg()
        problem, _test = assemble_problem(cfg)
        ref = compute_reference(problem, tol=1e-10)
        L = problem.f.smoothness
        base = dict(m=20, eta=1.0 / (8 * L), beta=0.5, b=5, gamma="auto", epochs=4, seed=9)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            config = SolverConfig(schedule=ConstantTheta(1.0), **base)
            r_svrg = run_solver(problem, "svrg", config, ref=ref)
            r_sc = run_solver(problem, "asvrg_sc", config, ref=ref)
        col = lambda recs: [repr(r.objective) for r in recs]
        assert col(r_svrg) == col(r_sc)


@pytest.mark.parametrize("solver", ["batch", "stoc", "svrg", "asvrg_sc", "asvrg_gc"])
def test_a_run_is_a_prefix_of_a_longer_run(solver):
    # a T-epoch run is the first T + 1 rows of a 2T-epoch run: every field but
    # wall_seconds, compared byte for byte (== on records is false wherever a
    # column is NaN). Criterion 05's equal-step test reads a 10-epoch
    # asvrg_sc arm as rows 0-10 of the 20-epoch session traces on the
    # strength of it
    cfg = small_cfg(solver=solver)
    problem, test = assemble_problem(cfg)
    config = resolve_solver_config(problem, cfg, seed=0)
    ref = compute_reference(problem, tol=1e-10)
    fields = [f.name for f in dataclasses.fields(TraceRecord) if f.name != "wall_seconds"]

    def rows(epochs):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            recs = run_solver(problem, solver, dataclasses.replace(config, epochs=epochs),
                              ref=ref, test=test)
        return [[np.asarray(getattr(r, k)).tobytes() for k in fields] for r in recs]

    assert rows(3) == rows(6)[:4]


def test_resolve_solver_config_defaults():
    cfg = small_cfg(solver="svrg", m=None)
    problem, *_ = assemble_problem(cfg)
    config = resolve_solver_config(problem, cfg, seed=0)
    n = problem.f.n
    assert config.m == (2 * n) // cfg.b
    assert config.eta < 1.0 / (2.0 * problem.f.smoothness)
    stoc_cfg = resolve_solver_config(problem, small_cfg(solver="stoc", m=None), seed=0)
    assert stoc_cfg.m == n


def test_resolve_m_none_from_file_and_m_zero(tmp_path):
    # m = none in a config file is the automatic m; m = 0 is refused, not
    # taken as automatic
    path = tmp_path / "cfg.txt"
    path.write_text("problem = gg_logistic\nsynth_n = 150\nsynth_d = 10\nb = 5\nm = none\n")
    problem, *_ = assemble_problem(config_from_file(path))
    n = problem.f.n
    for solver, m in (("svrg", (2 * n) // 5), ("asvrg_gc", (2 * n) // 5), ("stoc", n)):
        cfg = config_from_file(path, {"solver": solver})
        assert resolve_solver_config(problem, cfg, seed=0).m == m
        with pytest.raises(ConfigError, match="m must be >= 1"):
            resolve_solver_config(problem, dataclasses.replace(cfg, m=0), seed=0)


def test_resolve_constant_momentum_auto():
    # strongly convex + fully automatic: the rate-optimal trio is used
    from sadmm.solvers import beta_star, optimal_theta_sc

    cfg = small_cfg(solver="asvrg_sc", m=500, b=5)
    problem, *_ = assemble_problem(cfg)
    config = resolve_solver_config(problem, cfg, seed=0)
    params = RateParams.from_problem(problem)
    theta, _alpha, eta = optimal_theta_sc(500, 5, problem.f.n, params)
    assert isinstance(config.schedule, ConstantTheta)
    assert config.schedule.theta == pytest.approx(theta)
    assert config.eta == pytest.approx(eta)
    assert config.beta == pytest.approx(beta_star(params))


def test_resolve_constant_momentum_with_beta_set():
    # strongly convex, theta and eta automatic, beta set: the optimal-weight
    # formula, which does not read beta, still gives theta and eta
    from sadmm.solvers import optimal_theta_sc

    cfg = small_cfg(solver="asvrg_sc", m=500, b=5, beta=0.5)
    problem, *_ = assemble_problem(cfg)
    config = resolve_solver_config(problem, cfg, seed=0)
    theta, _alpha, eta = optimal_theta_sc(500, 5, problem.f.n, RateParams.from_problem(problem))
    assert config.schedule == ConstantTheta(theta)
    assert config.eta == eta
    assert config.beta == 0.5


def test_resolve_constant_momentum_fallback_is_logged(caplog):
    # strongly convex + fully automatic: an auto m below the optimal-weight
    # formula's bound falls back to theta_bound at eta = 1/(8L), with one
    # warning; an m above the bound takes the formula silently
    cfg = small_cfg(solver="asvrg_sc")
    problem, *_ = assemble_problem(cfg)
    params = RateParams.from_problem(problem)
    bound = 2.0 * params.kappa + 2.0 * math.sqrt(params.kappa * params.omega)
    eta = 1.0 / (8.0 * problem.f.smoothness)
    with caplog.at_level(logging.WARNING, logger="sadmm.harness"):
        config = resolve_solver_config(problem, cfg, seed=0)
    assert config.m < bound
    assert len(caplog.records) == 1
    assert f"m = {config.m} too small" in caplog.text and "theta_bound" in caplog.text
    assert config.schedule.theta == theta_bound(problem, eta, cfg.b)
    assert config.eta == eta
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="sadmm.harness"):
        config = resolve_solver_config(problem, small_cfg(solver="asvrg_sc", m=500), seed=0)
    assert config.m > bound
    assert caplog.records == []


def test_resolve_constant_momentum_general_convex_is_theta_bound():
    # mu = 0: the auto constant theta is the batch-size bound, the same
    # number init_vr_state takes as the DecayingTheta() default theta_0
    cfg = small_cfg(problem="fused_lasso", solver="asvrg_sc")
    problem, *_ = assemble_problem(cfg)
    assert problem.f.strong_convexity == 0.0
    config = resolve_solver_config(problem, cfg, seed=0)
    decaying = dataclasses.replace(config, schedule=DecayingTheta())
    assert config.schedule.theta == init_vr_state(problem, decaying).theta


def test_resolve_constant_momentum_needs_eta_below_half_over_L():
    # theta_bound holds for eta < 1/(2L) only; at eta = 1/L its formula
    # would divide by zero
    cfg = small_cfg(solver="asvrg_sc")
    problem, *_ = assemble_problem(cfg)
    L = problem.f.smoothness
    for eta in (1.0 / L, 0.75 / L, 0.5 / L):
        with pytest.raises(ConfigError, match=r"below 1/\(2L\)"):
            resolve_solver_config(problem, dataclasses.replace(cfg, eta=eta), seed=0)


def test_svrg_refuses_a_numeric_theta_other_than_one(monkeypatch):
    # svrg keeps a numeric theta, so run_solver's theta = 1 rule refuses
    # 0.5 before any epoch runs; theta = 1 resolves as 'auto' does and runs
    cfg = small_cfg(solver="svrg", theta=0.5, epochs=1)
    problem, *_ = assemble_problem(cfg)
    config = resolve_solver_config(problem, cfg, seed=0)
    assert config.schedule == ConstantTheta(0.5)

    def no_init(*args):
        raise AssertionError("the solver state was built")

    with monkeypatch.context() as mp:
        mp.setattr(sadmm.harness, "init_vr_state", no_init)
        with pytest.raises(ConfigError, match=re.escape(
            "solver 'svrg' cannot run the schedule ConstantTheta(theta=0.5)"
        )):
            run_solver(problem, "svrg", config)
    one = resolve_solver_config(problem, dataclasses.replace(cfg, theta=1.0), seed=0)
    assert one == resolve_solver_config(problem, dataclasses.replace(cfg, theta="auto"), seed=0)
    assert len(run_solver(problem, "svrg", one)) == 2


def test_stoc_resolves_and_runs_one_sample_per_step(monkeypatch):
    # stoc samples one row per step whatever cfg.b says, so its resolved
    # config says b = 1, and run_solver refuses any other b before any step
    cfg = small_cfg(solver="stoc", b=20, epochs=1)
    problem, *_ = assemble_problem(cfg)
    config = resolve_solver_config(problem, cfg, seed=0)
    assert config.b == 1
    assert len(run_solver(problem, "stoc", config)) == 2

    def no_init(*args):
        raise AssertionError("the solver state was built")

    with monkeypatch.context() as mp:
        mp.setattr(sadmm.harness, "init_stoc_state", no_init)
        with pytest.raises(ConfigError, match="'stoc' samples one row per step, not b = 20"):
            run_solver(problem, "stoc", dataclasses.replace(config, b=20))


def test_batch_resolves_one_sample_and_traces_as_at_any_b():
    # batch ADMM reads no batch size: its resolved config says b = 1, as
    # stoc's does, and a run at the configured b traces the same rows
    cfg = small_cfg(solver="batch", b=20, epochs=2)
    problem, *_ = assemble_problem(cfg)
    config = resolve_solver_config(problem, cfg, seed=0)
    assert config.b == 1
    rows = [[dataclasses.replace(r, wall_seconds=0.0).to_row()
             for r in run_solver(problem, "batch", c)]
            for c in (config, dataclasses.replace(config, b=20))]
    assert rows[0] == rows[1]


def test_unknown_solver_is_refused():
    problem, *_ = assemble_problem(small_cfg())
    config = SolverConfig(m=5, eta=0.1, beta=1.0, epochs=1)
    with pytest.raises(ConfigError, match="unknown solver 'admm'"):
        run_solver(problem, "admm", config)


def test_median_summary_rejects_mismatched():
    rec = TraceRecord(0, 0.0, 0.0, 1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        median_summary([[rec], [rec, rec]])


def test_median_summary_takes_each_fields_median():
    # three seeds whose mean and median differ in every float field; the
    # epoch is the first trace's
    traces = [
        [TraceRecord(e, *(v * (e + 1) + i for i in range(11))) for e in range(3)]
        for v in (1.0, 10.0, 2.0)
    ]
    summary = median_summary(traces)
    assert [r.epoch for r in summary] == [0, 1, 2]
    for e, r in enumerate(summary):
        values = dataclasses.astuple(r)[1:]
        assert values == tuple(2.0 * (e + 1) + i for i in range(11))
        assert all(type(v) is float for v in values)
    # bit for bit the per-field median over odd and even seed counts, with
    # values spread over 600 decades and a NaN column
    rng = np.random.default_rng(0)
    names = [f.name for f in dataclasses.fields(TraceRecord)][1:]
    for seeds in (2, 3, 4, 5):
        traces = [
            [TraceRecord(e, *rng.standard_normal(10) * 10.0 ** rng.integers(-300, 300, 10),
                         math.nan) for e in range(4)]
            for _ in range(seeds)
        ]
        for rows, r in zip(zip(*traces), median_summary(traces)):
            expected = [float(np.median([getattr(row, name) for row in rows])) for name in names]
            assert np.array(dataclasses.astuple(r)[1:]).tobytes() == np.array(expected).tobytes()


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
            eta, beta = grid_search_eta_beta(problem, cfg, ref, etas=etas, betas=[0.1, 1.0],
                                             epochs=1)
        assert (eta, beta) == (etas[0], 1.0)

        def buggy(*args, **kw):
            raise TypeError("bug in a solver")

        monkeypatch.setattr(sadmm.harness, "run_solver", buggy)
        with pytest.raises(TypeError):
            grid_search_eta_beta(problem, cfg, ref, etas=etas, betas=[1.0], epochs=1)

    @pytest.mark.parametrize("solver, runs", [("batch", 4), ("svrg", 16)])
    def test_default_grid_runs_each_distinct_trial_once(self, monkeypatch, solver, runs):
        # batch ADMM reads no step size, so it sweeps beta at the first eta;
        # that is the pair the full 4 x 4 grid picked, its ties going to the
        # first eta
        cfg = small_cfg(solver=solver)
        problem, *_ = assemble_problem(cfg)
        ref = compute_reference(problem, tol=1e-8)
        real, calls = sadmm.harness.run_solver, []

        def counted(problem, solver, config, **kw):
            calls.append((config.eta, config.beta))
            return real(problem, solver, config, **kw)

        monkeypatch.setattr(sadmm.harness, "run_solver", counted)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            eta, beta = grid_search_eta_beta(problem, cfg, ref, epochs=1)
        assert len(calls) == len(set(calls)) == runs
        if solver == "batch":
            L = problem.f.smoothness
            assert eta == 1.0 / (2.5 * L)
            full = []
            for eta_i in (1.0 / (2.5 * L), 1.0 / (4.0 * L), 1.0 / (8.0 * L), 1.0 / (16.0 * L)):
                for beta_j in (0.01, 0.1, 1.0, 10.0):
                    config = resolve_solver_config(
                        problem, dataclasses.replace(cfg, eta=eta_i, beta=beta_j, epochs=1), 0
                    )
                    full.append((real(problem, "batch", config, ref=ref)[-1].objective_gap,
                                 eta_i, beta_j))
            best = min(full, key=lambda t: t[0])  # min keeps the first of equal gaps
            assert (eta, beta) == best[1:]

    def test_default_stoc_grid(self, monkeypatch):
        # stoc's step decays as eta / sqrt(k), so its default grid starts
        # at 16/L; a grid whose every point is refused ends in ConfigError
        cfg = small_cfg(solver="stoc")
        problem, *_ = assemble_problem(cfg)
        calls = []

        def refused(problem, solver, config, **kw):
            calls.append((solver, config.eta, config.beta))
            raise ConfigError("refused")

        monkeypatch.setattr(sadmm.harness, "run_solver", refused)
        with pytest.raises(ConfigError, match="no grid point"):
            grid_search_eta_beta(problem, cfg, None, epochs=1)
        L = problem.f.smoothness
        assert calls == [("stoc", eta, beta)
                         for eta in (16.0 / L, 8.0 / L, 4.0 / L, 1.0 / L)
                         for beta in (0.01, 0.1, 1.0, 10.0)]

    def test_skips_a_point_whose_run_diverges(self, caplog):
        # gamma = 1e-300 scales the x-update by eta / gamma: the iterates
        # overflow in the first epoch, and the grid logs and skips the point
        data = make_classification(300, 10, seed=1)
        A = build_graph_matrix(data, 0.9)
        problem = ProblemSpec(LossObjective(LossKind.logistic(), data), Regularizer(1e-3), A)
        L = problem.f.smoothness
        config = SolverConfig(m=60, eta=1.0 / (4.0 * L), beta=1e3, b=5, gamma=1e-300, epochs=1)
        with np.errstate(all="ignore"), pytest.raises(ConvergenceError, match="non-finite"):
            run_solver(problem, "svrg", config)
        cfg = ExperimentConfig(problem="fused_lasso", lambda1=1e-3, solver="svrg", m=60, b=5,
                               gamma=1e-300)
        ref = compute_reference(problem, tol=1e-8)
        with np.errstate(all="ignore"), caplog.at_level(logging.INFO, logger="sadmm.harness"):
            with pytest.raises(ConfigError, match="no grid point"):
                grid_search_eta_beta(problem, cfg, ref, etas=[1.0 / (4.0 * L)], betas=[1e3],
                                     epochs=1)
        assert "grid point eta=0.25 beta=1e+03 failed: solver diverged" in caplog.text

    def test_skips_an_eta_the_momentum_bound_refuses(self):
        cfg = small_cfg(solver="asvrg_sc")
        problem, *_ = assemble_problem(cfg)
        ref = compute_reference(problem, tol=1e-8)
        L = problem.f.smoothness
        etas = [1.0 / L, 1.0 / (8.0 * L)]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            eta, _beta = grid_search_eta_beta(problem, cfg, ref, etas=etas, betas=[1.0],
                                              epochs=1)
        assert eta == etas[1]
