"""Exact expected hypervolume improvement for multi-objective optimization.

Four interchangeable exact backends compute EHVI by decomposing the
nondominated region into boxes and integrating a closed-form Gaussian box
integral over them (compute_ehvi for one belief, compute_ehvi_batch for many
beliefs against one front):

- ehvi_grid: full (n+1)^m grid-cell enumeration, any m >= 2; the slow,
  transparent reference.
- ehvi_wfg: recursive signed-measure decomposition, at most 2^n - 1 box
  terms, any m >= 2; full region minus dominated region, kept as a
  reference and for hypervolume.
- ehvi_clm3: sweep over a 2-D staircase that cuts the nondominated region
  into at most 2n+1 boxes, m = 3 only, O(n log n).
- ehvi_sweep: disjoint nondominated boxes for any m >= 2: the n+1-box
  staircase at m = 2, clm3's boxes at m = 3 and a box-splitting sweep over
  the last axis at m >= 4. "auto" picks it for every m but 3.

Around them: Monte-Carlo and 2-D quadrature verification oracles, a timing
benchmark on random fronts, and a Bayesian-optimization demo that uses EHVI
as its acquisition function over GP surrogates.
"""

from .bench import (
    DEFAULT_MEAN,
    DEFAULT_NS,
    DEFAULT_SIGMA,
    GEN_HIGH,
    GEN_LOW,
    SCALING_MS,
    BenchmarkRecord,
    benchmark_belief,
    benchmark_frame,
    generate_front,
    run_benchmark,
    summarize,
)
from .bo import (
    DEFAULT_RESOLUTION,
    BoRunRecord,
    BoState,
    CandidateSet,
    SyntheticProblem,
    bo_step,
    run_bo,
    run_random,
    synthetic_problem,
)
from .clm3 import SweepState, ehvi_clm3
from .core import (
    EhviResult,
    Front,
    HyperBox,
    Orientation,
    ProblemFrame,
    Vector,
    as_vector,
    dominates,
    from_internal,
    hypervolume_improvement,
    nondominated_filter,
    to_internal,
    validate_front,
)
from .dispatch import ALGORITHMS, BACKENDS, compute_ehvi, compute_ehvi_batch, resolve_algorithm
from .errors import (
    CandidatesExhaustedError,
    DimensionError,
    EhviError,
    GpFitError,
    InvalidFrontError,
    ParameterError,
    ReferenceBoundError,
    UnsupportedDimensionError,
)
from .gaussian import (
    GaussianBelief,
    box_integral,
    full_region_integral,
    psi,
    psi_vec,
    std_normal_cdf,
    std_normal_pdf,
)
from .gp import DEFAULT_JITTER, GpSurrogate, fit_gp, gp_posterior, gp_posterior_batch
from .grid import Decomposition, GridStructure, RegionKind, build_grid, ehvi_grid, grid_decompose
from .oracle import McEstimate, ehvi_monte_carlo, ehvi_quadrature_2d
from .sweep import ehvi_sweep
from .wfg import (
    SignedBoxTerm,
    dominated_volume,
    ehvi_wfg,
    exclusive_volume,
    hypervolume,
    limit,
    signed_box_terms,
    wfg_dominated_measure,
)

__version__ = "0.1.0"

__all__ = [
    "ALGORITHMS",
    "BACKENDS",
    "BenchmarkRecord",
    "BoRunRecord",
    "BoState",
    "CandidateSet",
    "CandidatesExhaustedError",
    "DEFAULT_JITTER",
    "DEFAULT_MEAN",
    "DEFAULT_NS",
    "DEFAULT_RESOLUTION",
    "DEFAULT_SIGMA",
    "Decomposition",
    "DimensionError",
    "EhviError",
    "EhviResult",
    "Front",
    "GEN_HIGH",
    "GEN_LOW",
    "GaussianBelief",
    "GpFitError",
    "GpSurrogate",
    "GridStructure",
    "HyperBox",
    "InvalidFrontError",
    "McEstimate",
    "Orientation",
    "ParameterError",
    "ProblemFrame",
    "ReferenceBoundError",
    "RegionKind",
    "SCALING_MS",
    "SignedBoxTerm",
    "SweepState",
    "SyntheticProblem",
    "UnsupportedDimensionError",
    "Vector",
    "as_vector",
    "benchmark_belief",
    "benchmark_frame",
    "bo_step",
    "box_integral",
    "build_grid",
    "compute_ehvi",
    "compute_ehvi_batch",
    "dominated_volume",
    "dominates",
    "ehvi_clm3",
    "ehvi_grid",
    "ehvi_monte_carlo",
    "ehvi_quadrature_2d",
    "ehvi_sweep",
    "ehvi_wfg",
    "exclusive_volume",
    "fit_gp",
    "from_internal",
    "full_region_integral",
    "generate_front",
    "gp_posterior",
    "gp_posterior_batch",
    "grid_decompose",
    "hypervolume",
    "hypervolume_improvement",
    "limit",
    "nondominated_filter",
    "psi",
    "psi_vec",
    "resolve_algorithm",
    "run_benchmark",
    "run_bo",
    "run_random",
    "signed_box_terms",
    "std_normal_cdf",
    "std_normal_pdf",
    "summarize",
    "synthetic_problem",
    "to_internal",
    "validate_front",
    "wfg_dominated_measure",
]
