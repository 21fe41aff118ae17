"""Exact expected hypervolume improvement for multi-objective optimization.

Three interchangeable exact backends, one per algorithm of the paper,
compute EHVI as closed-form Gaussian box integrals (compute_ehvi for one
belief, compute_ehvi_batch for many beliefs against one front). grid and
sweep integrate disjoint boxes of the nondominated region; wfg integrates
the full region below the reference plus signed corner boxes that take the
dominated region away, through the same integrator as sweep:

- ehvi_grid: full (n+1)^m grid-cell enumeration, any m >= 2; the slow,
  transparent reference.
- ehvi_wfg: the WFG recursion over the dominated region, at most 2^n - 1
  signed corner boxes, any m >= 2; kept as a reference.
- ehvi_sweep: disjoint nondominated boxes for any m >= 2: the n+1-box
  staircase at m = 2, the CLM-based staircase sweep at m = 3 (at most 2n+1
  boxes, O(n log n)) and a box-splitting sweep at m >= 4 along the axis
  whose ranks agree most with the points' rank sums. "auto" picks it for
  every m. The same boxes give the hypervolume.

Around them: a Monte-Carlo verification oracle, a timing benchmark on random
fronts, and a Bayesian-optimization demo that uses EHVI as its acquisition
function over GP surrogates.
"""

import importlib

from .core import EhviResult, Front, Orientation, ProblemFrame, nondominated_filter, validate_front
from .dispatch import compute_ehvi, compute_ehvi_batch
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
from .gaussian import GaussianBelief, psi
from .grid import ehvi_grid
from .oracle import ehvi_monte_carlo
from .sweep import dominated_volume, ehvi_sweep, hypervolume, hypervolume_improvement
from .wfg import ehvi_wfg

__version__ = "0.1.0"

# the BO, benchmark and GP names load their module on first access (PEP
# 562), so `import ehvi` and `ehvi compute` do not pay for them
_LAZY = {
    "generate_front": "bench", "run_benchmark": "bench",
    "run_bo": "bo", "run_random": "bo", "synthetic_problem": "bo",
    "fit_gp": "gp", "gp_posterior_batch": "gp",
}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))

# exactly the API that README.md documents; everything else is imported
# from its submodule
__all__ = [
    "CandidatesExhaustedError",
    "DimensionError",
    "EhviError",
    "EhviResult",
    "Front",
    "GaussianBelief",
    "GpFitError",
    "InvalidFrontError",
    "Orientation",
    "ParameterError",
    "ProblemFrame",
    "ReferenceBoundError",
    "UnsupportedDimensionError",
    "compute_ehvi",
    "compute_ehvi_batch",
    "dominated_volume",
    "ehvi_grid",
    "ehvi_monte_carlo",
    "ehvi_sweep",
    "ehvi_wfg",
    "fit_gp",
    "generate_front",
    "gp_posterior_batch",
    "hypervolume",
    "hypervolume_improvement",
    "nondominated_filter",
    "psi",
    "run_benchmark",
    "run_bo",
    "run_random",
    "synthetic_problem",
    "validate_front",
]
