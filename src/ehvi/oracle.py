"""Independent verification oracles: Monte-Carlo EHVI and 2-D quadrature.

These deliberately avoid the closed-form fast paths. The Monte-Carlo
estimator samples the candidate belief and averages per-draw hypervolume
improvements, each the exact volume of the draw's box clipped against the
nondominated boxes of sweep.sweep_boxes by sweep.clipped_volumes, the same
clip that sweep.hypervolume_improvement applies to one point; the
quadrature oracle integrates the product of normal cdfs numerically over
the boxes of grid.grid_decompose.
So the only ingredient shared with the exact backends is the region shape,
never the psi closed form. Verification ladders: sampling checks the closed
form, the quadrature checks psi, and both decompositions' regions are
themselves checked by brute-force dominance oracles in the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Front
from .errors import DimensionError, ParameterError, UnsupportedDimensionError
from .gaussian import GaussianBelief, std_normal_cdf
from .grid import grid_decompose
from .sweep import clipped_volumes, sweep_boxes

_MC_CHUNK = 100_000  # fixed so a seed reproduces bit-exactly for a given sample count


@dataclass(frozen=True)
class McEstimate:
    """Sample mean, its standard error, and the sampling parameters."""

    mean: float
    std_error: float
    samples: int
    seed: int


def ehvi_monte_carlo(front: Front, belief: GaussianBelief, samples: int, seed: int) -> McEstimate:
    """Estimate EHVI as the sample mean of per-draw hypervolume improvements.

    Draws use numpy's default PCG64 generator through
    Generator.standard_normal (ziggurat transform) in fixed-size chunks, so a
    (seed, samples) pair reproduces bit-exactly on a platform.

    Per draw y, the improvement is evaluated exactly as the volume of
    box(y, r) inside the nondominated region, by sweep.clipped_volumes over
    the disjoint boxes of sweep.sweep_boxes, one chunk of draws at a time. A
    draw weakly dominated by the front or outside the reference bound
    contributes exactly 0.0. This is sweep.hypervolume_improvement per draw.
    """
    if samples < 2:
        raise ParameterError(f"need at least 2 samples, got {samples}")
    if belief.m != front.m:
        raise DimensionError(f"front has m={front.m} but belief has m={belief.m}")
    m = front.m
    rng = np.random.default_rng(seed)
    boxes = sweep_boxes(front)
    mu = np.asarray(belief.mean)
    sd = np.asarray(belief.stddev)

    values = np.empty(samples)
    done = 0
    while done < samples:
        k = min(_MC_CHUNK, samples - done)
        draws = mu + sd * rng.standard_normal((k, m))
        values[done : done + k] = clipped_volumes(boxes, draws)
        done += k
    mean = float(values.mean())
    std_error = float(values.std(ddof=1) / math.sqrt(samples))
    return McEstimate(mean=mean, std_error=std_error, samples=samples, seed=int(seed))


def ehvi_quadrature_2d(front: Front, belief: GaussianBelief, tolerance: float) -> float:
    """Deterministic EHVI for m=2 by adaptive quadrature over the grid boxes.

    Each box integral is a product of two 1-D integrals of the normal cdf
    (the integrand is separable), each evaluated adaptively to a quarter of
    the requested tolerance; the total error is bounded by roughly the
    tolerance times the box count.
    """
    if front.m != 2:
        raise UnsupportedDimensionError(f"quadrature oracle needs m=2, got m={front.m}")
    if not (tolerance > 0.0):
        raise ParameterError(f"tolerance must be positive, got {tolerance}")
    if belief.m != 2:
        raise DimensionError(f"front has m=2 but belief has m={belief.m}")
    from scipy.integrate import quad  # imported here only: it would slow every `ehvi` start

    eps = tolerance / 4.0
    boxes = grid_decompose(front)
    lowers = boxes.breaks[[0, 1], boxes.lower].tolist()
    uppers = boxes.breaks[[0, 1], boxes.upper].tolist()
    total = 0.0
    for lower, upper in zip(lowers, uppers):
        term = 1.0
        for j in range(2):
            mu, sd = belief.mean[j], belief.stddev[j]
            val, _ = quad(
                lambda t, mu=mu, sd=sd: std_normal_cdf((t - mu) / sd),
                lower[j],
                upper[j],
                epsabs=eps,
                epsrel=eps,
                limit=200,
            )
            term *= val
        total += term
    return total
