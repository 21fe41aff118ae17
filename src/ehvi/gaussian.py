"""The closed-form Gaussian box integral and its one kernel, psi.

The whole exact-EHVI machinery reduces to one primitive:

    psi(a, mu, sigma) = integral of Phi((y - mu)/sigma) dy over (-inf, a]
                      = (a - mu) * Phi(t) + sigma * phi(t),   t = (a - mu)/sigma

The probability that a Gaussian candidate improves on every coordinate of a
box corner factorizes over objectives, so the integral of that probability
over a half-open box is a product of per-axis psi differences, and
integrate_boxes sums it over the boxes of a core.BoxDecomposition for a
batch of beliefs at once. The decomposition's index rows already point into
one flat psi table of all axes (a Front keeps its sweep decomposition), so
no call tests the breakpoints or copies index arrays. Beliefs are checked
where they enter (GaussianBelief, compute_ehvi_batch, bo_step), not again
in the kernel.

Far below the mean the two terms of the direct formula nearly cancel. psi
instead uses the reflection identity

    psi = max(d, 0) + sigma * phi(x) * h(x),   d = a - mu,   x = |t|,
    h(x) = 1 - x * (1 - Phi(x)) / phi(x),

with h, which falls from 1 to about 1/x**2, one rational function with
positive coefficients fitted by tools/fit_psi_rational.py (after Cody, Math.
Comp. 1969), so nothing cancels: psi is within 3e-13 of mpmath for t in
[-37, 38]. x is clamped to 152, where phi underflows in float and in long
double, so psi(-inf) is 0.

Each rounding of the float evaluation can break the order of neighbouring
inputs by an ulp: about 0.4 % of neighbouring float pairs with |t| <= 3
come out decreasing. The public psi therefore runs the same kernel in long
double and rounds once to float, which keeps them in order where long
double is wider than float (80 bits on x86-64; elsewhere it may equal
float). integrate_boxes keeps float for speed, about 10 times faster on
large tables; its box factors are clamped at 0, so the order of
neighbouring breakpoints never makes a factor negative.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass

import numpy as np

from .core import BoxDecomposition, Vector, as_vector
from .errors import DimensionError, ParameterError

# psi's constants are 0-d arrays, which ufuncs take without converting a float
_ZERO, _MINUS_HALF, _INV_SQRT_2PI = np.array(0.0), np.array(-0.5), np.array(1.0 / math.sqrt(2.0 * math.pi))
# |t| beyond which exp(-t**2 / 2) underflows in float (38.6) and in long
# double (151.0 for 80 and 128 bits): clamped there, g(inf) is exactly 0
_X_MAX = np.array(152.0)
# h = P / R, fitted on [0, 40], lowest degree first, from tools/fit_psi_rational.py;
# beyond 40 it stays within 1.4e-12 of h up to _X_MAX, and in float exp has underflowed
_H_NUM = (1.0, 1.2890640760678707, 0.8443212378454432, 0.3586378651208238, 0.1074908225529906,
          0.023432130664177972, 0.003710052035821059, 0.0004126075641151957, 2.948506147899126e-05,
          1.0496986952292329e-06)
_H_DEN = (1.0, 2.5423782133833814, 3.030719795081328, 2.241360685818707, 1.145766007071475,
          0.42650302517374467, 0.1184440539045065, 0.024663655644703634, 0.0037985072086227116,
          0.00041575666039234046, 2.94850614770901e-05, 1.0496986952377794e-06)
_HORNER = tuple(tuple(map(np.array, c[::-1])) for c in (_H_NUM, _H_DEN))  # 0-d, highest degree first
# Elements per block of integrate_boxes, counted per belief as boxes plus
# psi-table entries (axes x breakpoints), so no temporary of a block passes
# 128 KiB (glibc's default mmap threshold) unless one belief alone needs
# more. On sphere3 BO steps (988 beliefs, about 16 boxes and 30 entries
# each; 2-core x86-64, BLAS pinned) the integral took 0.78 ms in blocks of
# 2^14, 0.90 ms at 2^13, 0.87 ms at 2^15 and 1.12 ms in one 2^20 block, and
# 2^15 already page-faulted about 110 times a step where 2^14 did not.
_BLOCK = 1 << 14
# Most elements of a block's two gathered (axes, boxes, beliefs) bound arrays
# for which integrate_boxes gathers all axes at once; wider blocks (BO batches)
# go an axis at a time, so that their temporaries stay under _BLOCK's bound.
_GATHER = 1 << 14


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
        if not all(0.0 < s < math.inf for s in self.stddev):  # NaN fails both comparisons
            raise ParameterError(f"belief stddevs must be positive and finite, got {self.stddev}")

    @property
    def m(self) -> int:
        return len(self.mean)


def rational_h(x: np.ndarray) -> np.ndarray:
    """h(x) = 1 - x * (1 - Phi(x)) / phi(x) for an array of x in [0, _X_MAX], P and R by Horner's rule in x's type."""
    p, r = (np.multiply(x, coeffs[0], np.empty(x.shape, x.dtype)) for coeffs in _HORNER)
    for acc, coeffs in zip((p, r), _HORNER):
        np.add(acc, coeffs[1], acc)
        for c in coeffs[2:]:
            np.multiply(acc, x, acc)
            np.add(acc, c, acc)
    return np.divide(p, r, p)


def psi(a, mu, sigma):
    """Integral of Phi((y - mu)/sigma) dy over (-inf, a], elementwise.

    a, mu and sigma are floats or arrays that broadcast together; psi(-inf)
    is exactly 0. Evaluated in long double and rounded once to float, so
    a <= b gives psi(a) <= psi(b) where long double is wider than float.
    Raises ParameterError unless every sigma is positive and finite.
    """
    sigma = np.asarray(sigma, dtype=float)
    if not ((sigma > 0.0) & np.isfinite(sigma)).all():
        raise ParameterError(f"sigma must be positive and finite, got {sigma}")
    return _psi(a, mu, sigma, dtype=np.longdouble).astype(float)[()]


def _psi(a, mu, sigma, out=None, dtype=float):
    """psi without the check of sigma, in dtype or into out if given: integrate_boxes calls it in float."""
    # d and x are reused in place (fresh temporaries cost about as much as the
    # arithmetic); outputs go positionally but to np.maximum and np.minimum,
    # where numpy 2.4 deprecates a third positional argument
    shape = np.broadcast(a, mu, sigma).shape if out is None else out.shape
    d = np.subtract(a, mu, np.empty(shape, dtype))
    x = np.abs(d, np.empty(shape, dtype))
    # a subnormal sigma overflows the ratio to inf, which the clamp mends
    with np.errstate(over="ignore"):
        np.divide(x, sigma, x)
    np.minimum(x, _X_MAX, out=x)
    g = rational_h(x)
    np.square(x, x)
    np.multiply(x, _MINUS_HALF, x)
    np.multiply(g, np.exp(x, x), g)
    np.multiply(g, np.multiply(sigma, _INV_SQRT_2PI), g)
    return np.add(g, np.maximum(d, _ZERO, out=d), g if out is None else out)


def _gather(p: np.ndarray, lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """The box factors max(p[upper] - p[lower], 0) of the flat psi table p, for index arrays of any shape."""
    f = p.take(lower, axis=0)
    np.subtract(p.take(upper, axis=0), f, f)
    return np.maximum(f, _ZERO, out=f)


def check_beliefs(means, stds, m: int) -> tuple[np.ndarray, np.ndarray]:
    """(q, m) means and stds as float arrays, checked where beliefs enter the program.

    DimensionError unless both are (q, m); ParameterError unless every mean
    is finite and every stddev positive and finite.
    """
    means, stds = np.asarray(means, dtype=float), np.asarray(stds, dtype=float)
    if means.ndim != 2 or means.shape[1] != m or stds.shape != means.shape:
        raise DimensionError(f"means and stds must both have shape (q, {m}), got {means.shape} and {stds.shape}")
    if not np.isfinite(means).all():
        raise ParameterError("belief means must be finite")
    if not ((stds > 0.0) & np.isfinite(stds)).all():
        raise ParameterError("belief stddevs must be positive and finite")
    return means, stds


def integrate_boxes(boxes: BoxDecomposition, means, stds) -> np.ndarray:
    """Integral over the boxes of a decomposition for each of q beliefs.

    means and stds are (q, m), one belief per row, for the decomposition's
    m, checked where they entered the program (check_beliefs). Box b is
    taken with boxes.signs[b] (+1 or -1) if there are signs, as for wfg's
    overlapping boxes. psi is evaluated once per finite breakpoint and
    belief into one flat (m * width, beliefs) table, whose -inf column is
    0, and each box contributes the product of its per-axis factors,
    multiplied from axis 0 to axis m-1. Returns the q sums.

    The beliefs go in blocks of about _BLOCK elements, evenly filled, so a
    block's temporaries stay cache-sized and glibc reuses them from its
    heap, where one block for a whole BO batch had its (boxes, m, q)
    temporaries page-faulted back in on every step. A block gathers all
    axes' factors at once while they fit in _GATHER elements, else one axis
    at a time; the bits are the same. Without signs, a block of one belief
    sums its boxes pairwise, wider blocks in box order, so a value can
    depend on the blocking in its last digits (up to 1.8e-14 relative on
    q = 1000 batches of 21163 boxes). A signed sum cancels, so each belief's
    terms are summed exactly (math.fsum) and rounded once, whatever the
    blocking, unless fsum meets inf - inf or a partial sum past the float
    range; the plain sum then stands.
    """
    breaks, lower, upper, signs = boxes
    means, stds = np.asarray(means, dtype=float), np.asarray(stds, dtype=float)
    (m, width), count, q = breaks.shape, lower.shape[1], len(means)
    out = np.zeros(q)
    if q == 0 or count == 0:
        return out
    blocks = min(q, -(-q * (count + m * width) // _BLOCK))
    edges = [q * i // blocks for i in range(blocks + 1)]  # blocks of even size
    for s, e in zip(edges, edges[1:]):
        # the psi table is (axes, breakpoints, beliefs), a block's beliefs contiguous
        p = np.empty((m, width, e - s))
        p[:, 0] = 0.0
        _psi(breaks[:, 1:, None], means[s:e].T[:, None], stds[s:e].T[:, None], out=p[:, 1:])
        p = p.reshape(m * width, e - s)
        # overflowing products are inf and signed sums of infs nan: ehvi compute exits 2
        with np.errstate(invalid="ignore", over="ignore"):
            if 2 * m * count * (e - s) <= _GATHER:
                volume = np.multiply.reduce(_gather(p, lower, upper), axis=0)
            else:
                volume = _gather(p, lower[0], upper[0])
                for lo, up in zip(lower[1:], upper[1:]):
                    volume *= _gather(p, lo, up)
            if signs is not None:
                volume *= signs[:, None]
            total = volume.sum(axis=0)
            if np.isnan(total).any():
                # a zero factor zeroes the box even beside an inf one (inf * 0 is nan)
                nonzero = np.logical_and.reduce([_gather(p, *rows) != 0.0 for rows in zip(lower, upper)])
                volume = np.where(nonzero, volume, 0.0)
                total = volume.sum(axis=0)
        if signs is not None:
            with contextlib.suppress(OverflowError, ValueError):
                total = np.array([math.fsum(terms) for terms in volume.T.tolist()])
        out[s:e] = total
    return out
