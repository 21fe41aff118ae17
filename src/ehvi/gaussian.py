"""The closed-form Gaussian box integral and its one kernel, psi.

The whole exact-EHVI machinery reduces to one primitive:

    psi(a, mu, sigma) = integral of Phi((y - mu)/sigma) dy over (-inf, a]
                      = (a - mu) * Phi(t) + sigma * phi(t),   t = (a - mu)/sigma

The probability that a Gaussian candidate improves on every coordinate of a
box corner factorizes over objectives, so the integral of that probability
over a half-open box is a product of per-axis psi differences, and
integrate_boxes sums it over the boxes of a decomposition for a batch of
beliefs at once.

Far below the mean the two terms of the direct formula nearly cancel. psi
instead uses the reflection identity

    psi = max(d, 0) + sigma * phi(x) * h(x),   d = a - mu,   x = |t|,
    h(x) = 1 - x * (1 - Phi(x)) / phi(x),

with h, which falls from 1 to about 1/x**2, one rational function with
positive coefficients fitted by tools/fit_psi_rational.py (after Cody, Math.
Comp. 1969), so nothing cancels: psi is within 3e-13 of mpmath for t in
[-37, 38]. x is clamped to 40, where phi underflows, so psi(-inf) is 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import BoxDecomposition, Vector, as_vector
from .errors import DimensionError, ParameterError

_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
# |t| beyond which exp(-t**2 / 2) underflows: clamped there, g(inf) is exactly 0
_X_MAX = 40.0
# h = P / R on [0, _X_MAX], lowest degree first, from tools/fit_psi_rational.py
_H_NUM = (1.0, 1.2890640760678707, 0.8443212378454432, 0.3586378651208238, 0.1074908225529906,
          0.023432130664177972, 0.003710052035821059, 0.0004126075641151957, 2.948506147899126e-05,
          1.0496986952292329e-06)
_H_DEN = (1.0, 2.5423782133833814, 3.030719795081328, 2.241360685818707, 1.145766007071475,
          0.42650302517374467, 0.1184440539045065, 0.024663655644703634, 0.0037985072086227116,
          0.00041575666039234046, 2.94850614770901e-05, 1.0496986952377794e-06)
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


def rational_h(x: np.ndarray) -> np.ndarray:
    """h(x) = 1 - x * (1 - Phi(x)) / phi(x) for an array of x in [0, _X_MAX], P and R by Horner's rule."""
    p, r = np.full(x.shape, _H_NUM[-1]), np.full(x.shape, _H_DEN[-1])
    for acc, coeffs in ((p, _H_NUM), (r, _H_DEN)):
        for c in coeffs[-2::-1]:
            acc *= x
            acc += c
    return np.divide(p, r, out=p)


def psi(a, mu, sigma):
    """Integral of Phi((y - mu)/sigma) dy over (-inf, a], elementwise.

    a, mu and sigma are floats or arrays that broadcast together; psi(-inf)
    is exactly 0. Raises ParameterError unless every sigma is positive and
    finite.
    """
    sigma = np.asarray(sigma, dtype=float)
    if not ((sigma > 0.0) & np.isfinite(sigma)).all():
        raise ParameterError(f"sigma must be positive and finite, got {sigma}")
    # d and x are reused in place: on belief batches fresh temporaries cost
    # about as much as the arithmetic
    shape = np.broadcast(a, mu, sigma).shape
    d = np.subtract(a, mu, out=np.empty(shape))
    x = np.abs(d, out=np.empty(shape))
    # a subnormal sigma overflows the ratio to inf, which the clamp mends
    with np.errstate(over="ignore"):
        x /= sigma
    np.minimum(x, _X_MAX, out=x)
    g = rational_h(x)
    np.square(x, out=x)
    x *= -0.5
    g *= np.exp(x, out=x)
    g *= sigma * _INV_SQRT_2PI
    g += np.maximum(d, 0.0, out=d)
    return g[()]


def integrate_boxes(boxes: BoxDecomposition, means: np.ndarray, stds: np.ndarray) -> np.ndarray:
    """Integral over the disjoint boxes of a decomposition for each of q beliefs.

    means and stds are (q, m), one belief per row, for the decomposition's
    m; DimensionError otherwise. psi is evaluated once per breakpoint and
    belief; each box contributes the product of its per-axis psi
    differences. Work is vectorized over (beliefs x boxes x axes), at most
    _BLOCK elements at a time. Returns the q sums.
    """
    means = np.asarray(means, dtype=float)
    stds = np.asarray(stds, dtype=float)
    m, width = boxes.breaks.shape
    if means.ndim != 2 or means.shape[1] != m or stds.shape != means.shape:
        raise DimensionError(
            f"means and stds must both have shape (q, {m}), got {means.shape} and {stds.shape}"
        )
    out = np.zeros(len(means))
    if len(boxes.lower) == 0:
        return out
    # the psi table has one row per breakpoint of every axis and one column
    # per belief, so a box corner is one row index and the beliefs of a
    # block stay contiguous through the gather and the products
    offsets = np.arange(0, m * width, width)
    lower = boxes.lower + offsets
    upper = boxes.upper + offsets
    rows = max(1, _BLOCK // lower.size)
    for s in range(0, len(means), rows):
        block = slice(s, s + rows)
        # sigma goes in as (m, 1, beliefs), so psi checks each stddev once
        p = psi(boxes.breaks[:, :, None], means[block].T[:, None], stds[block].T[:, None])
        p = p.reshape(m * width, -1)
        f = np.maximum(p[upper] - p[lower], 0.0)  # (boxes, m, beliefs)
        # a product that overflows is meant to be inf (ehvi compute exits 2 on it)
        with np.errstate(invalid="ignore", over="ignore"):
            volume = f.prod(axis=1)
        # a zero factor zeroes the box even when another factor overflowed
        # to inf (inf * 0 would be nan)
        out[block] = np.where(f.all(axis=1), volume, 0.0).sum(axis=0)
    return out
