"""The closed-form Gaussian box integral and its one kernel, psi.

The whole exact-EHVI machinery reduces to one primitive:

    psi(a, mu, sigma) = integral of Phi((y - mu)/sigma) dy over (-inf, a]
                      = (a - mu) * Phi(t) + sigma * phi(t),   t = (a - mu)/sigma

The probability that a Gaussian candidate improves on every coordinate of a
box corner factorizes over objectives, so the integral of that probability
over a half-open box is a product of per-axis psi differences, and
integrate_boxes sums it over the boxes of a decomposition for a batch of
beliefs at once. It reads the decomposition's IntegrationPlan, made once
(a Front keeps its sweep boxes' plan), so no call tests the breakpoints or
copies index arrays, and an open-below axis takes psi(upper) as its factor.
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
# Elements per block of integrate_boxes, counted per belief as boxes plus
# psi-table entries (axes x breakpoints), so no temporary of a block passes
# 128 KiB (glibc's default mmap threshold) unless one belief alone needs
# more. On sphere3 BO steps (988 beliefs, about 16 boxes and 30 entries
# each; 2-core x86-64, BLAS pinned) the integral took 0.78 ms in blocks of
# 2^14, 0.90 ms at 2^13, 0.87 ms at 2^15 and 1.12 ms in one 2^20 block, and
# 2^15 already page-faulted about 110 times a step where 2^14 did not.
_BLOCK = 1 << 14


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
    return _psi(a, mu, sigma)[()]


def _psi(a, mu, sigma, out=None):
    """psi without the check of sigma, into out if given: the kernel integrate_boxes calls."""
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
    return np.add(g, np.maximum(d, 0.0, out=d), out=g if out is None else out)


class IntegrationPlan(NamedTuple):
    """What integrate_boxes reads of a decomposition, none of it depending on a belief.

    breaks are the (m, width - first, 1) breakpoints that need psi, first
    being 1 when column 0 is -inf on every axis. lower and upper hold one
    contiguous index row per axis; an upper row is one entry long where
    every box ends at the same breakpoint (wfg's, at the reference). A lower
    row is None on an open-below axis, where every box starts at a -inf
    first breakpoint: psi(-inf) is 0 and psi >= 0, so the factor is
    psi(upper) as it stands.
    """

    breaks: np.ndarray
    first: int
    lower: tuple
    upper: tuple
    signs: np.ndarray | None
    count: int

    @property
    def open_below(self) -> tuple[int, ...]:
        return tuple(j for j, row in enumerate(self.lower) if row is None)


def integration_plan(boxes: BoxDecomposition, signs=None) -> IntegrationPlan:
    """The plan of a decomposition, box b taken with signs[b] (+1 or -1) if given.

    lower is copied once, a broadcast upper not at all.
    """
    breaks, count = boxes.breaks, len(boxes.lower)
    neginf = breaks[:, 0] == -np.inf if breaks.shape[1] else np.zeros(len(breaks), dtype=bool)
    first = int(neginf.all())
    lower, upper = np.ascontiguousarray(boxes.lower.T), boxes.upper.T
    upper = upper[:, :1] if count and not upper.strides[1] else np.ascontiguousarray(upper)
    open_below = neginf & ~lower.any(axis=1) & (upper.shape[1] == count)
    lower = tuple(None if o else row for o, row in zip(open_below.tolist(), lower))
    return IntegrationPlan(np.ascontiguousarray(breaks[:, first:, None]), first, lower, tuple(upper), signs, count)


def _factors(p: np.ndarray, plan: IntegrationPlan):
    """Per axis j, the (boxes, beliefs) factors max(p[j][upper] - p[j][lower], 0), or p[j][upper] if open below."""
    for pj, lo, up in zip(p, plan.lower, plan.upper):
        f = pj.take(up, axis=0)
        if lo is not None:
            g = pj.take(lo, axis=0)
            # in place in f, or in g where f is the one entry of a broadcast upper row
            f = np.subtract(f, g, out=f if len(f) == len(g) else g)
            np.maximum(f, 0.0, out=f)
        yield f


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
    belief, and each box contributes the product of its per-axis factors.
    Returns the q sums.

    The beliefs go in blocks of about _BLOCK elements, evenly filled, so a
    block's temporaries stay cache-sized and glibc reuses them from its
    heap, where one block for a whole BO batch had its (boxes, m, q)
    temporaries page-faulted back in on every step. Without signs, a block
    of one belief sums its boxes pairwise, wider blocks in box order, so a
    value can depend on the blocking in its last digits (up to 1.8e-14
    relative on q = 1000 batches of 21163 boxes). A signed sum cancels, so
    each belief's terms are summed exactly (math.fsum) and rounded once,
    whatever the blocking, unless fsum meets inf - inf or a partial sum past
    the float range; the plain sum then stands.
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
        # the psi table is (axes, breakpoints, beliefs): a box corner is one
        # row of its axis, and a block's beliefs stay contiguous
        p = np.empty((m, width, e - s))
        p[:, :first] = 0.0
        _psi(plan.breaks, means[s:e].T[:, None], stds[s:e].T[:, None], out=p[:, first:])
        factors = _factors(p, plan)
        volume = next(factors)
        # overflowing products are inf and signed sums of infs nan: ehvi compute exits 2
        with np.errstate(invalid="ignore", over="ignore"):
            for f in factors:
                volume *= f
            if plan.signs is not None:
                volume *= plan.signs[:, None]
            total = volume.sum(axis=0)
            if np.isnan(total).any():
                # a zero factor zeroes the box even when another factor
                # overflowed to inf (inf * 0 is nan)
                nonzero = np.logical_and.reduce([f != 0.0 for f in _factors(p, plan)])
                volume = np.where(nonzero, volume, 0.0)
                total = volume.sum(axis=0)
        if plan.signs is not None:
            with contextlib.suppress(OverflowError, ValueError):
                total = np.array([math.fsum(terms) for terms in volume.T.tolist()])
        out[s:e] = total
    return out
