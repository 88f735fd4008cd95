"""Local-area estimation of outcomes at query points in N-dimensional space.

Two methods share one data model: a gradient-based hyperplane expansion
around a reference point, and a smooth-surface correction that bends each
axis's chord gradient through a polynomial arc.  A benchmark harness and a
small CLI (``gradsurf eval | impute | bench``) sit on top.
"""

from .model import (
    DegenerateNeighborhood,
    DimensionMismatch,
    DuplicatePoint,
    EmptyInput,
    EmptyTrainingSet,
    Estimate,
    EstimateBatch,
    GradsurfError,
    InsufficientPoints,
    MeshIndex,
    NoConvergence,
    NonFiniteValue,
    SingularSystem,
    TooFewPoints,
    TrainingSet,
    ValidationError,
    ZeroWidthSegment,
    validate_query,
    validate_training_set,
)
from .neighbors import Simplex, enumerate_combinations, locate_reference, select_simplex
from .gradient import (
    estimate_gradients,
    evaluate_gradient,
    evaluate_gradient_batch,
    extrapolate,
)
from .smooth import (
    ApproxFunctionParams,
    IntersectionProblem,
    adjust_gradient,
    approx_deriv,
    approx_eval,
    build_intersection,
    evaluate_smooth,
    evaluate_smooth_batch,
    has_interior_inflection,
    segment_angles,
    solve_intersection,
)
from .layers import evaluate_layers
from .bench import (
    NoiseSpec,
    TEST_FUNCTIONS,
    compute_noise_ratios,
    compute_stats,
    evaluate_batch,
    gen_local_cell_dataset,
    gen_mesh_dataset,
    gen_queries,
    measure_throughput,
    run_benchmark,
)
from .io import ParseError, load_dataset, load_queries, save_dataset, write_plot_csv, write_report

__version__ = "0.1.0"

__all__ = [
    "ApproxFunctionParams",
    "DegenerateNeighborhood",
    "DimensionMismatch",
    "DuplicatePoint",
    "EmptyInput",
    "EmptyTrainingSet",
    "Estimate",
    "EstimateBatch",
    "GradsurfError",
    "InsufficientPoints",
    "IntersectionProblem",
    "MeshIndex",
    "NoConvergence",
    "NoiseSpec",
    "NonFiniteValue",
    "ParseError",
    "Simplex",
    "SingularSystem",
    "TEST_FUNCTIONS",
    "TooFewPoints",
    "TrainingSet",
    "ValidationError",
    "ZeroWidthSegment",
    "adjust_gradient",
    "approx_deriv",
    "approx_eval",
    "build_intersection",
    "compute_noise_ratios",
    "compute_stats",
    "enumerate_combinations",
    "estimate_gradients",
    "evaluate_batch",
    "evaluate_gradient",
    "evaluate_gradient_batch",
    "evaluate_layers",
    "evaluate_smooth",
    "evaluate_smooth_batch",
    "extrapolate",
    "gen_local_cell_dataset",
    "gen_mesh_dataset",
    "gen_queries",
    "has_interior_inflection",
    "load_dataset",
    "load_queries",
    "locate_reference",
    "measure_throughput",
    "run_benchmark",
    "save_dataset",
    "segment_angles",
    "select_simplex",
    "solve_intersection",
    "validate_query",
    "validate_training_set",
    "write_plot_csv",
    "write_report",
]
