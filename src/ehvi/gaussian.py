"""The closed-form Gaussian box integral and its one kernel, psi.

The whole exact-EHVI machinery reduces to one primitive:

    psi(a, mu, sigma) = integral of Phi((y - mu)/sigma) dy over (-inf, a]
                      = (a - mu) * Phi(t) + sigma * phi(t),   t = (a - mu)/sigma

The probability that a Gaussian candidate improves on every coordinate of a
box corner factorizes over objectives, so the integral of that probability
over a half-open box is a product of per-axis psi differences, and
integrate_boxes sums it over the boxes of a decomposition for a batch of
beliefs at once. It reads the decomposition's IntegrationPlan, made once
(a Front keeps its sweep boxes' plan): flat index arrays into one psi table
of all axes, so no call tests the breakpoints or copies index arrays.
Stddevs are checked where beliefs enter (GaussianBelief,
compute_ehvi_batch, bo_step), not again in the kernel.

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

import contextlib
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import BoxDecomposition, Vector, as_vector
from .errors import DimensionError, ParameterError

# psi's constants are 0-d arrays, which ufuncs take without converting a float
_ZERO, _MINUS_HALF, _INV_SQRT_2PI = np.array(0.0), np.array(-0.5), np.array(1.0 / math.sqrt(2.0 * math.pi))
# |t| beyond which exp(-t**2 / 2) underflows: clamped there, g(inf) is exactly 0
_X_MAX = np.array(40.0)
# h = P / R on [0, _X_MAX], lowest degree first, from tools/fit_psi_rational.py
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
    """h(x) = 1 - x * (1 - Phi(x)) / phi(x) for an array of x in [0, _X_MAX], P and R by Horner's rule."""
    p, r = (np.multiply(x, coeffs[0], np.empty(x.shape)) for coeffs in _HORNER)
    for acc, coeffs in zip((p, r), _HORNER):
        np.add(acc, coeffs[1], acc)
        for c in coeffs[2:]:
            np.multiply(acc, x, acc)
            np.add(acc, c, acc)
    return np.divide(p, r, p)


def psi(a, mu, sigma):
    """Integral of Phi((y - mu)/sigma) dy over (-inf, a], elementwise.

    a, mu and sigma are floats or arrays that broadcast together; psi(-inf)
    is exactly 0. Raises ParameterError unless every sigma is positive and
    finite.
    """
    sigma = np.asarray(sigma, dtype=float)
    if not ((sigma > 0.0) & np.isfinite(sigma)).all():
        raise ParameterError(f"sigma must be positive and finite, got {sigma}")
    return _psi(a, mu, sigma)[()]


def _psi(a, mu, sigma, out=None):
    """psi without the check of sigma, into out if given: the kernel integrate_boxes calls."""
    # d and x are reused in place (fresh temporaries cost about as much as the
    # arithmetic); outputs go positionally but to np.maximum and np.minimum,
    # where numpy 2.4 deprecates a third positional argument
    shape = np.broadcast(a, mu, sigma).shape if out is None else out.shape
    d = np.subtract(a, mu, np.empty(shape))
    x = np.abs(d, np.empty(shape))
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


class IntegrationPlan(NamedTuple):
    """What integrate_boxes reads of a decomposition, none of it depending on a belief.

    breaks are the (m, width - first, 1) breakpoints that need psi, first
    being 1 when column 0 is -inf on every axis. lower and upper are
    C-contiguous (m, boxes) indices into the flat (m * width, beliefs) psi
    table: row j is the boxes' column j plus j * width. upper is (m, 1)
    where every box ends at one breakpoint (wfg's, at the reference). An
    axis where every box starts at -inf indexes that row, whose psi is
    exactly 0, so the factor psi(upper) - 0 is exact.
    """

    breaks: np.ndarray
    first: int
    lower: np.ndarray
    upper: np.ndarray
    signs: np.ndarray | None
    count: int


def integration_plan(boxes: BoxDecomposition, signs=None) -> IntegrationPlan:
    """The plan of a decomposition, box b taken with signs[b] (+1 or -1) if given."""
    breaks, count = boxes.breaks, len(boxes.lower)
    m, width = breaks.shape
    first = int(width > 0 and np.isneginf(breaks[:, 0]).all())
    offsets = np.arange(m)[:, None] * width
    upper = boxes.upper[:1].T if count and not boxes.upper.strides[0] else boxes.upper.T
    lower, upper = (np.add(a, offsets, order="C") for a in (boxes.lower.T, upper))
    return IntegrationPlan(np.ascontiguousarray(breaks[:, first:, None]), first, lower, upper, signs, count)


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


def integrate_boxes(boxes, means: np.ndarray, stds: np.ndarray, signs=None) -> np.ndarray:
    """Integral over the disjoint boxes of a decomposition for each of q beliefs.

    means and stds are (q, m), one belief per row, for the decomposition's
    m. boxes is a BoxDecomposition, whose beliefs check_beliefs checks and
    which gets a plan for this call with signs[b] (+1 or -1) on box b if
    given, as for wfg's overlapping boxes; or an IntegrationPlan from one of
    the library's backends (sweep.sweep_plan keeps one on a Front), whose
    callers have checked the beliefs where they entered: GaussianBelief,
    compute_ehvi_batch and bo_step. psi is evaluated once per breakpoint and
    belief, and each box contributes the product of its per-axis factors,
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
    if not isinstance(boxes, IntegrationPlan):
        means, stds = check_beliefs(means, stds, len(boxes.breaks))
        boxes = integration_plan(boxes, signs)
    plan, means, stds = boxes, np.asarray(means, dtype=float), np.asarray(stds, dtype=float)
    m, first, q, count = len(plan.lower), plan.first, len(means), plan.count
    width = first + plan.breaks.shape[1]
    out = np.zeros(q)
    if q == 0 or count == 0:
        return out
    blocks = min(q, -(-q * (count + m * width) // _BLOCK))
    edges = [q * i // blocks for i in range(blocks + 1)]  # blocks of even size
    for s, e in zip(edges, edges[1:]):
        # the psi table is (axes, breakpoints, beliefs), a block's beliefs contiguous
        p = np.empty((m, width, e - s))
        p[:, :first] = 0.0
        _psi(plan.breaks, means[s:e].T[:, None], stds[s:e].T[:, None], out=p[:, first:])
        p = p.reshape(m * width, e - s)
        # overflowing products are inf and signed sums of infs nan: ehvi compute exits 2
        with np.errstate(invalid="ignore", over="ignore"):
            if 2 * m * count * (e - s) <= _GATHER:
                volume = np.multiply.reduce(_gather(p, plan.lower, plan.upper), axis=0)
            else:
                volume = _gather(p, plan.lower[0], plan.upper[0])
                for lo, up in zip(plan.lower[1:], plan.upper[1:]):
                    volume *= _gather(p, lo, up)
            if plan.signs is not None:
                volume *= plan.signs[:, None]
            total = volume.sum(axis=0)
            if np.isnan(total).any():
                # a zero factor zeroes the box even beside an inf one (inf * 0 is nan)
                nonzero = np.logical_and.reduce([_gather(p, *rows) != 0.0 for rows in zip(plan.lower, plan.upper)])
                volume = np.where(nonzero, volume, 0.0)
                total = volume.sum(axis=0)
        if plan.signs is not None:
            with contextlib.suppress(OverflowError, ValueError):
                total = np.array([math.fsum(terms) for terms in volume.T.tolist()])
        out[s:e] = total
    return out
