"""Standard normal kernels and the closed-form Gaussian box integral.

The whole exact-EHVI machinery reduces to one primitive:

    psi(a, mu, sigma) = integral of Phi((y - mu)/sigma) dy over (-inf, a]
                      = (a - mu) * Phi(t) + sigma * phi(t),   t = (a - mu)/sigma

The probability that a Gaussian candidate improves on every coordinate of a
box corner factorizes over objectives, so the integral of that probability
over a half-open box is a product of per-axis psi differences (box_integral
for one box and belief, integrate_boxes for many of each at once).
psi(-inf) is exactly 0, which lets boxes open to -inf pass through with no
special casing.

Far below the mean (t < -_TAIL) the two terms of psi nearly cancel and the
direct formula loses up to t**4 ulps, enough to make psi decrease between
neighbouring points. There, with x = -t,

    psi = sigma * phi(x) / x**2 * integral of v exp(-v - v**2 / (2 x**2)) dv
                                  over v > 0,

a sum of positive terms evaluated by a generalized Gauss-Laguerre rule to
within about one ulp.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, roots_genlaguerre

from .core import BoxDecomposition, HyperBox, ProblemFrame, Vector, as_vector
from .errors import DimensionError, ParameterError

_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
_INV_SQRT_2 = 1.0 / math.sqrt(2.0)
# Below t = -_TAIL psi uses the Gauss-Laguerre tail rule; 48 nodes keep its
# relative error near one ulp for every x = -t >= 2.
_TAIL = 2.0
_TAIL_NODES, _TAIL_WEIGHTS = roots_genlaguerre(48, 1)
_TAIL_NODES_SQ = _TAIL_NODES * _TAIL_NODES
# Largest (beliefs x boxes x axes) block integrate_boxes materializes at once.
_BLOCK = 1 << 20


@dataclass(frozen=True)
class GaussianBelief:
    """Independent per-objective Gaussian posterior, internal minimization convention."""

    mean: Vector
    stddev: Vector

    def __post_init__(self) -> None:
        object.__setattr__(self, "mean", as_vector(self.mean))
        object.__setattr__(self, "stddev", as_vector(self.stddev))
        if len(self.mean) != len(self.stddev):
            raise DimensionError(
                f"belief has {len(self.mean)} means but {len(self.stddev)} stddevs"
            )
        if not all(math.isfinite(x) for x in self.mean):
            raise ParameterError(f"belief means must be finite, got {self.mean}")
        for s in self.stddev:
            if not (s > 0.0) or not math.isfinite(s):
                raise ParameterError(f"belief stddevs must be positive and finite, got {self.stddev}")

    @property
    def m(self) -> int:
        return len(self.mean)


def std_normal_pdf(x: float) -> float:
    """Standard normal density phi(x)."""
    return math.exp(-0.5 * x * x) * _INV_SQRT_2PI


def std_normal_cdf(x: float) -> float:
    """Standard normal cdf Phi(x), computed from erfc for tail accuracy."""
    return 0.5 * math.erfc(-x * _INV_SQRT_2)


def _tail_factor(x: float) -> float:
    """psi(-x, 0, 1) / phi(x) for x >= _TAIL.

    Equals the integral of v exp(-v) exp(-v**2 / (2 x**2)) dv / x**2 over
    v > 0; the rule's weight is v exp(-v), so only positive terms are summed.
    """
    inv = 1.0 / (x * x)
    return float(np.exp(_TAIL_NODES_SQ * (-0.5 * inv)) @ _TAIL_WEIGHTS) * inv


def psi(a: float, mu: float, sigma: float) -> float:
    """Integral of Phi((y - mu)/sigma) dy over (-inf, a]; psi(-inf) = 0 exactly."""
    if not (sigma > 0.0) or not math.isfinite(sigma):
        raise ParameterError(f"sigma must be positive and finite, got {sigma}")
    if a == -math.inf:
        return 0.0
    d = a - mu
    t = d / sigma
    if t < -_TAIL:
        return sigma * std_normal_pdf(t) * _tail_factor(-t)
    val = d * std_normal_cdf(t) + sigma * std_normal_pdf(t)
    # The analytic value is nonnegative; clamp only underflow-scale rounding.
    return val if val > 0.0 else 0.0


def psi_vec(a: np.ndarray, mu, sigma) -> np.ndarray:
    """Vectorized psi over an array of upper bounds; -inf entries map to 0.

    mu and sigma may be arrays that broadcast against a. This is the direct
    formula everywhere: below t = -_TAIL it keeps the cancellation that psi
    avoids, since the tail rule would double the cost of the hot path.
    """
    a = np.asarray(a, dtype=float)
    finite = np.isfinite(a)
    d = np.where(finite, a - mu, 0.0)
    t = d / sigma
    out = d * ndtr(t) + sigma * (np.exp(-0.5 * t * t) * _INV_SQRT_2PI)
    return np.where(finite, np.maximum(out, 0.0), 0.0)


def integrate_boxes(boxes: BoxDecomposition, means: np.ndarray, stds: np.ndarray) -> np.ndarray:
    """Integral over the disjoint boxes of a decomposition for each of q beliefs.

    means and stds are (q, m), one belief per row. psi is evaluated once per
    breakpoint and belief; each box contributes the product of its per-axis
    psi differences. Work is vectorized over (beliefs x boxes x axes), at
    most _BLOCK elements at a time. Returns the q sums.
    """
    means = np.asarray(means, dtype=float)
    stds = np.asarray(stds, dtype=float)
    out = np.zeros(len(means))
    if len(boxes.lower) == 0:
        return out
    # all axes' breakpoints in one flat row, so psi runs once per belief
    # block and a box corner is one index into it
    m, width = boxes.breaks.shape
    points = boxes.breaks.ravel()
    axis_of = np.repeat(np.arange(m), width)
    offsets = np.arange(0, m * width, width)
    lower = boxes.lower + offsets
    upper = boxes.upper + offsets
    rows = max(1, _BLOCK // lower.size)
    for s in range(0, len(means), rows):
        block = slice(s, s + rows)
        p = psi_vec(points, means[block][:, axis_of], stds[block][:, axis_of])
        f = np.maximum(p[:, upper] - p[:, lower], 0.0)  # (beliefs, boxes, m)
        # a product that overflows is meant to be inf (ehvi compute exits 2 on it)
        with np.errstate(invalid="ignore", over="ignore"):
            volume = f.prod(axis=2)
        # as in box_integral, a zero factor zeroes the box even when another
        # factor overflowed to inf (inf * 0 would be nan)
        out[block] = np.where(f.all(axis=2), volume, 0.0).sum(axis=1)
    return out


def box_integral(box: HyperBox, belief: GaussianBelief) -> float:
    """Closed-form integral of the dominance probability over a half-open box.

    Equals the product over axes of psi(upper) - psi(lower); zero as soon as
    any axis has zero width, and never exceeds the box's Lebesgue volume.
    """
    if box.m != belief.m:
        raise DimensionError(f"box has m={box.m} but belief has m={belief.m}")
    out = 1.0
    for lo, up, mu, sd in zip(box.lower, box.upper, belief.mean, belief.stddev):
        f = psi(up, mu, sd) - psi(lo, mu, sd)
        if f <= 0.0:
            return 0.0
        out *= f
    return out


def full_region_integral(frame: ProblemFrame, belief: GaussianBelief) -> float:
    """Integral over the whole region bounded by the reference point.

    This is box_integral of box(-inf, r), i.e. the product of psi(r_j).
    """
    if frame.m != belief.m:
        raise DimensionError(f"frame has m={frame.m} but belief has m={belief.m}")
    out = 1.0
    for r, mu, sd in zip(frame.internal_reference, belief.mean, belief.stddev):
        out *= psi(r, mu, sd)
    return out
