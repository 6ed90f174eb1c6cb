"""Stochastic ADMM solvers with variance reduction and momentum."""

from .datasets import make_classification, parse_libsvm, train_test_split, write_libsvm
from .errors import (
    ConfigError,
    ConvergenceError,
    DataFormatError,
    DimensionError,
    MatrixFormatError,
    RankDeficiencyError,
    SadmmError,
)
from .harness import (
    ExperimentConfig,
    GraphSpec,
    build_graph_matrix,
    build_graph_spec,
    config_from_file,
    graph_matrix,
    grid_search_eta_beta,
    median_summary,
    read_trace_csv,
    run_experiment,
    run_solver,
    write_trace_csv,
)
from .linalg import (
    SparseMatrixCSR,
    SpectralConstants,
    compute_spectral_constants,
    solve_aat,
    spectral_norm_ata,
    spmv,
    spmv_t,
)
from .losses import (
    Dataset,
    LossKind,
    LossObjective,
)
from .metrics import (
    ReferenceSolution,
    TraceRecord,
    compute_reference,
    evaluate,
    kkt_residuals,
    p_criterion,
)
from .problem import ProblemSpec, SmoothObjective
from .prox import Regularizer, h_value, soft_threshold, y_update
from .solvers import (
    BatchState,
    ConstantTheta,
    DecayingTheta,
    FixedOne,
    RateParams,
    SolverConfig,
    StocState,
    VRState,
    batch_admm_epoch,
    beta_star,
    gamma_min,
    init_batch_state,
    init_stoc_state,
    init_vr_state,
    optimal_theta_sc,
    rho_rate,
    stoc_admm_chunk,
    theta_bound,
    theta_next,
    vr_admm_epoch,
)
from .vr import BatchSampler, Snapshot, delta_b, variance_bound_rhs, vr_gradient

__version__ = "0.1.0"
