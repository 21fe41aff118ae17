"""Independent EHVI and hypervolume references for checking the ehvi package.

Nothing here imports ehvi. Inputs are plain arrays in the minimization
convention: ``points`` (n, m), ``reference`` (m,), and per belief a ``mean``
and ``sd`` of length m.

The nondominated region below the reference is cut into columns: the cells
of the grid spanned by the sorted front coordinates on the first m-1 axes,
each extended along the last axis from -inf up to the lowest front point
that weakly precedes the cell (or the reference). The columns are disjoint
and cover the region, so EHVI is a sum of non-negative column terms

    prod_{j<m-1} (psi(hi_j) - psi(lo_j)) * psi(top),

where psi(a) = (a - mu) Phi(t) + sd phi(t), t = (a - mu) / sd. The per-axis
differences are the only step that can cancel, so they are taken in
``mpmath`` at ``DPS`` digits and rounded once to float; the products and the
sum of non-negative terms then lose at most a few ulps. There are
(n+1)^(m-1) columns: about 1.05e6 at (m, n) = (3, 1000) and (6, 15).

Run ``python3 perfbench/reference.py --input req.json`` to print the
reference EHVI of an ``ehvi compute`` request.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import mpmath
import numpy as np
from scipy.special import ndtr

DPS = 30
# Beyond |t| = 40 the tail terms of psi are below 1e-340 times sd, under the
# smallest float64, so psi is 0 on the left and exactly a - mu on the right.
_TAIL_T = 40


def _psi_mp(a: float, mu: float, sd: float) -> mpmath.mpf:
    if a == -math.inf:
        return mpmath.mpf(0)
    d = mpmath.mpf(a) - mpmath.mpf(mu)
    t = d / mpmath.mpf(sd)
    if t < -_TAIL_T:
        return mpmath.mpf(0)
    if t > _TAIL_T:
        return d
    cdf = mpmath.erfc(-t / mpmath.sqrt(2)) / 2
    pdf = mpmath.exp(-t * t / 2) / mpmath.sqrt(2 * mpmath.pi)
    return d * cdf + mpmath.mpf(sd) * pdf


def _axis_psi(bounds: np.ndarray, mu: float, sd: float, diff: bool) -> np.ndarray:
    """psi at each bound, or its differences between neighbours, rounded once to float."""
    with mpmath.workdps(DPS):
        vals = [_psi_mp(float(b), mu, sd) for b in bounds]
        if diff:
            vals = [b - a for a, b in zip(vals, vals[1:])]
        return np.array([float(v) for v in vals])


class Columns:
    """The column decomposition of one front's nondominated region."""

    def __init__(self, points, reference):
        pts = np.asarray(points, dtype=float).reshape(-1, len(reference))
        self.reference = np.asarray(reference, dtype=float)
        m = self.reference.size
        if m < 2:
            raise ValueError(f"need m >= 2, got {m}")
        if not (pts < self.reference).all():
            raise ValueError("every point must lie strictly inside the reference")
        self.m = m
        # per lower axis: -inf, the sorted distinct coordinates, the reference
        self.bounds = []
        ranks = []
        for j in range(m - 1):
            coords = np.unique(pts[:, j])
            self.bounds.append(np.concatenate(([-math.inf], coords, [self.reference[j]])))
            ranks.append(np.searchsorted(coords, pts[:, j]) + 1)
        # top[c] = lowest last coordinate of the points weakly preceding cell c
        top = np.full([b.size - 1 for b in self.bounds], math.inf)
        np.minimum.at(top, tuple(ranks), pts[:, m - 1])
        for axis in range(m - 1):
            np.minimum.accumulate(top, axis=axis, out=top)
        self.top = np.minimum(top, self.reference[m - 1])
        self.last_values, self.top_index = np.unique(self.top, return_inverse=True)
        self.top_index = self.top_index.reshape(self.top.shape)

    def ehvi(self, mean, sd) -> float:
        """High-precision EHVI of one belief."""
        weights = None
        for j in range(self.m - 1):
            diff = _axis_psi(self.bounds[j], mean[j], sd[j], diff=True)
            weights = diff if weights is None else np.multiply.outer(weights, diff)
        tops = _axis_psi(self.last_values, mean[-1], sd[-1], diff=False)[self.top_index]
        return float(np.sum(weights * tops))

    def ehvi_float(self, means: np.ndarray, sds: np.ndarray) -> np.ndarray:
        """Float64 screen over a batch of beliefs (q, m); not high precision.

        Each value differs from the exact EHVI by at most 1e-8 times the
        belief's full-region integral (``full_float``) while m (n + 1) <= 3000,
        which is enough to rule out candidates far below a maximum.
        """
        q = means.shape[0]
        weights = np.ones((q,) + (1,) * (self.m - 1))
        for j in range(self.m - 1):
            vals = _psi_float(self.bounds[j][None, :], means[:, j : j + 1], sds[:, j : j + 1])
            diff = np.maximum(np.diff(vals, axis=1), 0.0)
            shape = [q] + [1] * (self.m - 1)
            shape[j + 1] = diff.shape[1]
            weights = weights * diff.reshape(shape)
        last = _psi_float(self.last_values[None, :], means[:, -1:], sds[:, -1:])
        tops = last[:, self.top_index.ravel()].reshape((q,) + self.top.shape)
        return (weights * tops).reshape(q, -1).sum(axis=1)

    def full_float(self, means: np.ndarray, sds: np.ndarray) -> np.ndarray:
        return np.prod(_psi_float(self.reference[None, :], means, sds), axis=1)

    def hypervolume(self) -> float:
        """Lebesgue measure of the dominated region below the reference."""
        weights = None
        for b in self.bounds:
            width = np.diff(b)
            width[0] = 0.0  # no point precedes the -inf cell, so nothing in it is dominated
            weights = width if weights is None else np.multiply.outer(weights, width)
        return math.fsum((weights * (self.reference[-1] - self.top)).ravel().tolist())


def _psi_float(a: np.ndarray, mu: np.ndarray, sd: np.ndarray) -> np.ndarray:
    finite = np.isfinite(a)
    d = np.where(finite, a - mu, 0.0)
    t = d / sd
    out = d * ndtr(t) + sd * np.exp(-0.5 * t * t) / math.sqrt(2 * math.pi)
    return np.where(finite, np.maximum(out, 0.0), 0.0)


def ehvi(points, reference, mean, sd) -> float:
    """High-precision EHVI of one belief against a front (minimization)."""
    return Columns(points, reference).ehvi(mean, sd)


def nondominated(points: np.ndarray) -> np.ndarray:
    """Rows of ``points`` that no other row weakly dominates (duplicates kept once)."""
    pts = np.unique(np.asarray(points, dtype=float), axis=0)
    leq = (pts[:, None, :] <= pts[None, :, :]).all(axis=2)
    return pts[leq.sum(axis=0) == 1]


def hypervolume(points, reference) -> float:
    """Dominated hypervolume of any point set strictly inside the reference."""
    pts = np.asarray(points, dtype=float).reshape(-1, len(reference))
    if pts.shape[0] == 0:
        return 0.0
    return Columns(nondominated(pts), reference).hypervolume()


def request_ehvi(request: dict) -> float:
    """Reference EHVI of an ``ehvi compute`` request object."""
    sign = -1.0 if request.get("maximize", False) is True else 1.0
    points = sign * np.asarray(request["front"], dtype=float)
    reference = sign * np.asarray(request["reference"], dtype=float)
    mean = [sign * float(x) for x in request["mean"]]
    return ehvi(points, reference, mean, [float(x) for x in request["stddev"]])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Reference EHVI of an ehvi compute request.")
    parser.add_argument("--input", required=True, help="request JSON file")
    args = parser.parse_args(argv)
    with open(args.input, encoding="utf-8") as fh:
        print(repr(request_ehvi(json.load(fh))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
