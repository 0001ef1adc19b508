"""Gaussian DAG structure learning by alternating a Birkhoff-polytope
relaxation of the variable ordering with MCP-penalized sparse Cholesky
factor estimation.

The package is organized around the two halves of the alternating scheme:

``birkdag.birkhoff``
    Everything on the permutation side: Euclidean projection onto the
    set of doubly stochastic matrices (semismooth Newton on the dual),
    gradient projection for the relaxed ordering objective, convexity
    diagnostics, and rounding doubly stochastic matrices back to
    permutations (rank-matching sampler and linear assignment).

``birkdag.solver``
    Cyclic coordinate descent with closed-form MCP updates for the
    row-decoupled sparse Cholesky subproblems, batched over a path of
    MCP cells at one ordering.

``birkdag.sem``, ``birkdag.scoring``, ``birkdag.pipeline``,
``birkdag.metrics`` supply the linear SEM model and synthetic
benchmarks, the penalized Gaussian score and eBIC criterion, the outer
alternating loop with eBIC tuning, and structure-recovery metrics.
"""

from birkdag.sem import (
    WeightedAdjacency,
    NoiseVariances,
    CholeskyFactor,
    Permutation,
    SemInstance,
    DataMatrix,
    SampleCovariance,
    generate_dag,
    adjacency_to_cholesky,
    cholesky_to_adjacency,
    sample_data,
    sample_covariance,
)
from birkdag.scoring import (
    McpParams,
    ScoreBreakdown,
    mcp,
    neg_log_likelihood,
    penalized_score,
    ebic,
)
from birkdag.birkhoff import (
    DoublyStochastic,
    DualVariables,
    RelaxationConfig,
    project_to_birkhoff,
    dual_objective,
    relaxed_objective,
    relaxed_gradient,
    convexity_thresholds,
    gradient_projection,
    rank_vector,
    sample_permutations,
    round_hungarian,
    estimate_permutation,
)
from birkdag.solver import (
    CholeskyEstimate,
    SolverSettings,
    estimate_cholesky,
    estimate_cholesky_path,
    row_objectives,
    check_lower_bounds,
)
from birkdag.pipeline import RrcfConfig, TuningGrid, FitResult, fit, tune
from birkdag.metrics import (
    EdgeSet,
    BenchmarkSpec,
    extract_edges,
    structure_metrics,
    scaled_frobenius,
    run_benchmark,
)

__all__ = [
    "WeightedAdjacency", "NoiseVariances", "CholeskyFactor", "Permutation",
    "SemInstance", "DataMatrix", "SampleCovariance",
    "generate_dag", "adjacency_to_cholesky", "cholesky_to_adjacency",
    "sample_data", "sample_covariance",
    "McpParams", "ScoreBreakdown", "mcp", "neg_log_likelihood",
    "penalized_score", "ebic",
    "DoublyStochastic", "DualVariables", "RelaxationConfig",
    "project_to_birkhoff", "dual_objective", "relaxed_objective",
    "relaxed_gradient", "convexity_thresholds", "gradient_projection",
    "rank_vector", "sample_permutations", "round_hungarian",
    "estimate_permutation",
    "CholeskyEstimate", "SolverSettings",
    "estimate_cholesky", "estimate_cholesky_path",
    "row_objectives", "check_lower_bounds",
    "RrcfConfig", "TuningGrid", "FitResult", "fit", "tune",
    "EdgeSet", "BenchmarkSpec", "extract_edges",
    "structure_metrics", "scaled_frobenius", "run_benchmark",
]

__version__ = "0.1.0"
