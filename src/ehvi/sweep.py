"""Nondominated box decomposition for every m, integrated directly.

The nondominated region of a front (the part of the region below the
reference that no front point weakly dominates) is cut into disjoint
half-open boxes, and EHVI is the Gaussian integral over those boxes
(Yang, Emmerich, Deutz & Bäck, J. Glob. Optim. 2019), never the full region
minus the dominated one. Every producer returns a core.BoxDecomposition:
boxes as index arrays into the per-axis breakpoints [-inf, sorted
coordinates, r_j] of core.rank_form.

- m = 2: the staircase. With the points in ascending first coordinate x
  (so descending second coordinate y), box i spans (x[i-1], x[i]] x
  (-inf, y[i-1]], with x[-1] = -inf, y[-1] = r2 and x[n] = r1: exactly n+1
  boxes, pure index arithmetic.
- m = 3: the staircase sweep of clm3 (the paper's CLM-based decomposition),
  at most 2n+1 boxes from at most 2n staircase updates.
- m >= 4: a sweep over the last axis. The cross-section of the region
  between two sweep levels is the (m-1)-D nondominated region of the points
  below, held as disjoint open boxes with the level each was born at. A
  point q closes, at its level, every open box it cuts into (q < upper on
  every axis) and replaces it by the disjoint pieces of box minus the
  orthant above q: piece j keeps the axes after j, raises the lower bound of
  the axes before j to q, and caps axis j at q_j; it exists only where
  q_j > lower_j. The sweep closes what is still open at r_m. Each box
  covers at least one nondominated grid cell, so there are at most
  (n+1)^m of them; the sweep refuses a front once it has made more than
  _MAX_BOXES open plus closed boxes.

Coordinates are replaced by rank_form's breakpoint ranks, a tied coordinate
taking the rank of its first copy, so ties compare equal and no box has
zero width.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .clm3 import nondominated_boxes
from .core import BoxDecomposition, EhviResult, Front, as_vector, rank_form
from .errors import DimensionError, ParameterError
from .gaussian import GaussianBelief, integrate_boxes

_CLIP_BLOCK = 1 << 22  # max elements in the rows x boxes x axes product
# Most open plus closed boxes the m >= 4 sweep may make. Producing and
# integrating one box for one belief takes about 2.8 us and 0.8 KB at peak
# at m = 10 on a 2-core x86-64 host (m = 10, n = 26: 400k boxes, 1.1 s,
# 300 MiB), so the largest admitted front needs about 1.5 s and 0.4 GiB, and
# `ehvi compute` refuses m = 10, n = 100 after 1.2 s. The tests and the
# benchmark pass with a budget of 2^15; m = 10, n = 40 would make 1.7M boxes.
_MAX_BOXES = 1 << 19


def _staircase_boxes(front: Front) -> BoxDecomposition:
    n = front.n
    breaks, _ = rank_form(front.points, front.reference)
    # no two points of an m = 2 front share a coordinate: in ascending first
    # coordinate, point i has rank i+1 on axis 1 and n-i on axis 2
    i = np.arange(n + 1)
    lower = np.stack([i, np.zeros_like(i)], axis=1)
    upper = np.stack([i + 1, n + 1 - i], axis=1)
    return BoxDecomposition(breaks, lower, upper)


def _sweep_boxes(front: Front) -> BoxDecomposition:
    m, n = front.m, front.n
    breaks, ranks = rank_form(front.points, front.reference)
    k = m - 1
    # An open box is one row [lower (k), -upper (k), birth]. For a point q at
    # `level`, piece j of a box q cuts raises the lower bounds before j to q,
    # caps upper j at q (q < upper) and takes the level as its birth: all
    # maxima against [q, -q, level] on the axes of raise_where[j].
    raise_where = np.zeros((k, 2 * k + 1), dtype=bool)
    raise_where[:, :k] = np.tri(k, k, -1, dtype=bool)
    raise_where[:, k : 2 * k] = np.eye(k, dtype=bool)
    raise_where[:, 2 * k] = True
    open_ = np.concatenate([np.zeros(k), np.full(k, -(n + 1)), [0]]).astype(np.intp)[None]
    made = 1  # open plus closed boxes
    closed, levels = [], []
    ranks = ranks[np.argsort(ranks[:, k], kind="stable")]
    raise_to = np.concatenate([ranks[:, :k], -ranks[:, :k], ranks[:, k:]], axis=1)
    for q, level, bounds in zip(ranks[:, :k], ranks[:, k].tolist(), raise_to):
        hit = np.logical_and.reduce(open_[:, k : 2 * k] < bounds[k : 2 * k], axis=1)  # q < upper
        cut = open_[hit]
        if not len(cut):
            continue  # q's projection is dominated by an earlier point's
        closed.append(cut)
        levels.append(level)
        axis, box = np.nonzero(q[:, None] > cut[:, :k].T)  # the pieces that exist
        made += len(axis)
        if made > _MAX_BOXES:
            raise ParameterError(f"sweep needs more than its budget of {_MAX_BOXES} boxes")
        pieces = cut[box]
        np.maximum(pieces, bounds, out=pieces, where=raise_where[axis])
        open_ = np.concatenate([open_[~hit], pieces])
    closed.append(open_)
    levels.append(n + 1)
    rows = np.concatenate(closed)
    top = np.repeat(levels, [len(c) for c in closed])
    grown = rows[:, 2 * k] < top  # a box born and cut at one level has no height
    rows, top = rows[grown], top[grown]
    lower = np.column_stack([rows[:, :k], rows[:, 2 * k]])
    upper = np.column_stack([-rows[:, k : 2 * k], top])
    return BoxDecomposition(breaks, lower, upper)


def sweep_boxes(front: Front) -> BoxDecomposition:
    """Cut the nondominated region of any front into disjoint boxes.

    n+1 boxes at m = 2, at most 2n+1 at m = 3 and at most (n+1)^m beyond.
    Raises ParameterError at m >= 4 once the sweep makes more than
    _MAX_BOXES boxes.
    """
    if front.m == 2:
        return _staircase_boxes(front)
    if front.m == 3:
        return nondominated_boxes(front)
    return _sweep_boxes(front)


def ehvi_sweep(front: Front, belief: GaussianBelief) -> EhviResult:
    """EHVI over the nondominated boxes of sweep_boxes; reports the boxes integrated."""
    if belief.m != front.m:
        raise DimensionError(f"front has m={front.m} but belief has m={belief.m}")
    boxes = sweep_boxes(front)
    value = integrate_boxes(boxes, [belief.mean], [belief.stddev])
    return EhviResult(value=float(value[0]), boxes=len(boxes.lower))


def clipped_volumes(boxes: BoxDecomposition, ys: np.ndarray) -> np.ndarray:
    """Volume of box(y, r) inside the boxes' union, for each row y of a (k, m) array.

    Row y gets the sum, over the disjoint boxes, of prod_j max(0, upper_j -
    max(lower_j, y_j)). Over the nondominated boxes of a front that is y's
    hypervolume improvement: a y weakly dominated by the front or outside the
    reference overlaps no box on some axis, so its value is exactly 0.0.
    Rows are taken in blocks of at most _CLIP_BLOCK elements of the product.
    """
    axes = np.arange(len(boxes.breaks))
    lowers = boxes.breaks[axes, boxes.lower]
    uppers = boxes.breaks[axes, boxes.upper]
    step = max(1, _CLIP_BLOCK // lowers.size)
    out = np.empty(len(ys))
    for s in range(0, len(ys), step):
        overlap = np.maximum(ys[s : s + step, None, :], lowers)
        np.subtract(uppers, overlap, out=overlap)
        np.maximum(overlap, 0.0, out=overlap)
        out[s : s + step] = overlap.prod(axis=2).sum(axis=1)
    return out


def hypervolume_improvement(y: Sequence[float], front: Front) -> float:
    """Exact increase of the dominated hypervolume if y joined the front.

    y is taken in the front's internal minimization convention. Returns 0
    for points weakly dominated by the front (including members) and points
    not strictly inside the reference bound.
    """
    vec = as_vector(y)
    if len(vec) != front.m:
        raise DimensionError(f"candidate has {len(vec)} coordinates, expected m={front.m}")
    return float(clipped_volumes(sweep_boxes(front), np.array([vec]))[0])
