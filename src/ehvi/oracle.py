"""Independent verification oracle: Monte-Carlo EHVI.

It deliberately avoids the closed-form fast paths: the estimator samples
the candidate belief and averages per-draw hypervolume improvements, each
the exact volume of the draw's box clipped against the nondominated boxes
of sweep.sweep_boxes by sweep.clipped_volumes, the same clip that
sweep.hypervolume_improvement applies to one point. So the only ingredient
shared with the exact backends is the region shape, never the psi closed
form, and sampling checks the closed form. The tests add a 2-D quadrature
oracle (tests/oracles.py), which checks psi, and brute-force dominance
oracles for the regions themselves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Front
from .errors import DimensionError, ParameterError
from .gaussian import GaussianBelief
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
