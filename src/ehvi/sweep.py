"""Nondominated box decomposition for every m, integrated directly.

The nondominated region of a front (the part of the region below the
reference that no front point weakly dominates) is cut into disjoint
half-open boxes, and EHVI is the Gaussian integral over those boxes
(Yang, Emmerich, Deutz & Bäck, J. Glob. Optim. 2019), never the full region
minus the dominated one. Every producer hands its boxes as (m, boxes) ranks
into the per-axis breakpoints [-inf, sorted coordinates, r_j] of
core.rank_form to core.BoxDecomposition.from_ranks, which lays them out.

- m = 2: the staircase. With the points in ascending first coordinate x
  (so descending second coordinate y), box i spans (x[i-1], x[i]] x
  (-inf, y[i-1]], with x[-1] = -inf, y[-1] = r2 and x[n] = r1: exactly n+1
  boxes, whose ranks are index arithmetic on one sort of the two coordinate
  columns, with nothing to look up.
- m = 3: clm3.nondominated_boxes, the paper's CLM-based staircase sweep
  on breakpoint ranks: at most 2n+1 boxes, exactly 2n+1 when no two points
  share a coordinate, from at most 2n staircase updates.
- m >= 4: a sweep over one axis, in an axis order taken from the front.
  Axis j scores the sum over the points of rank_j times the point's rank
  sum; the sweep runs along the highest-scoring axis, where later points
  seldom cut the projections of earlier ones, and splits the others in
  ascending score (ties in listed order), so listing the objectives in
  another order only permutes the boxes' columns (While, Bradstreet, Barone
  & Hingston, IEEE CEC 2005, also order objectives from the front). The
  cross-section of the region between two sweep levels is the (m-1)-D
  nondominated region of the points below, held as disjoint open boxes with
  the level each was born at: one box per column of a (2m-1, boxes) array,
  so each point's tests reduce along the long axis. A point q closes, at
  its level, every open box it cuts into (q < upper on every axis) and
  replaces it by the disjoint pieces of box minus the orthant above q:
  piece j keeps the axes after j, raises the lower bound of the axes
  before j to q, and caps axis j at q_j; it exists only where q_j >
  lower_j. The sweep closes what is still open at the reference. Each box
  covers at least one nondominated grid cell, so there are at most (n+1)^m
  of them; the sweep refuses a front once it has made more than _MAX_BOXES
  open plus closed boxes.

Coordinates are replaced by rank_form's breakpoint ranks, a tied coordinate
taking the rank of its first copy, so ties compare equal and no box has
zero width.

The same boxes give every volume of the library: hypervolume_improvement,
hypervolume and dominated_volume clip them with clipped_volumes.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .clm3 import nondominated_boxes
from .core import BoxDecomposition, EhviResult, Front, ProblemFrame, as_vector, nondominated_filter, rank_form
from .errors import DimensionError, ParameterError, ReferenceBoundError
from .gaussian import GaussianBelief, integrate_boxes

_CLIP_BLOCK = 1 << 22  # max elements in the rows x boxes x axes product
# Most open plus closed boxes the m >= 4 sweep may make. Producing and
# integrating one box for one belief takes about 0.6-1.3 us and 0.55 KiB at
# peak (tracemalloc) at m = 10 on a 2-core x86-64 host: generate_front(10,
# 30, 5) makes 297k boxes in 0.19-0.24 s and 155 MiB, and generate_front(10,
# 40, 5), at 523k boxes about the largest admitted front, takes 0.52-0.67 s
# and 282 MiB (354 MiB resident). `ehvi compute` refuses m = 10, n = 100
# after 0.6 s at 208 MiB resident. The largest sweep in the tests makes
# 11541 boxes (random_front(5, 100, 5)); they pass with a budget of 2^14.
_MAX_BOXES = 1 << 19


def _staircase_boxes(front: Front) -> BoxDecomposition:
    n = front.n
    breaks = np.empty((2, n + 2))
    breaks[:, 0] = -np.inf
    breaks[:, 1:-1] = np.sort(front.coords.T, axis=1)
    breaks[:, -1] = front.reference
    # no two points of an m = 2 front share a coordinate: in ascending first
    # coordinate, point i has rank i+1 on axis 1 and n-i on axis 2
    i = np.arange(n + 1)
    lower = np.stack([i, np.zeros_like(i)])
    upper = np.stack([i + 1, n + 1 - i])
    return BoxDecomposition.from_ranks(breaks, lower, upper)


def _sweep_boxes(front: Front) -> BoxDecomposition:
    m, n = front.m, front.n
    breaks, ranks = rank_form(front.coords, front.reference)
    # sweep last the axis whose ranks agree most with the points' rank sums
    # and split the rest in ascending agreement; the columns go back at the end
    order = (ranks.sum(axis=1) @ ranks).argsort(kind="stable")
    ranks = ranks.take(order, axis=1)
    k = m - 1
    # An open box is one column [lower (k), -upper (k), birth]. For a point q
    # at `level`, piece j of a box q cuts raises the lower bounds before j to
    # q, caps upper j at q (q < upper) and takes the level as its birth: all
    # maxima against the column [q, -q, level] on the rows of raise_where[:, j].
    raise_where = np.zeros((2 * k + 1, k), dtype=bool)
    raise_where[:k] = np.tri(k, k, -1, dtype=bool).T
    raise_where[k : 2 * k] = np.eye(k, dtype=bool)
    raise_where[2 * k] = True
    open_ = np.concatenate([np.zeros(k), np.full(k, -(n + 1)), [0]]).astype(np.intp)[:, None]
    made = 1  # open plus closed boxes
    closed, levels = [], []
    ranks = ranks[np.argsort(ranks[:, k], kind="stable")]
    raise_to = np.concatenate([ranks[:, :k], -ranks[:, :k], ranks[:, k:]], axis=1)[:, :, None]
    for level, bounds in zip(ranks[:, k].tolist(), raise_to):
        miss = np.logical_or.reduce(open_[k : 2 * k] >= bounds[k : 2 * k], axis=0)  # upper <= q on some axis
        cut = open_.compress(~miss, axis=1)
        if not cut.shape[1]:
            continue  # q's projection is dominated by an earlier point's
        closed.append(cut)
        levels.append(level)
        axis, box = np.nonzero(bounds[:k] > cut[:k])  # the pieces that exist
        made += len(axis)
        if made > _MAX_BOXES:
            raise ParameterError(f"sweep needs more than its budget of {_MAX_BOXES} boxes")
        pieces = cut.take(box, axis=1)
        np.maximum(pieces, bounds, out=pieces, where=raise_where.take(axis, axis=1))
        open_ = np.concatenate([open_.compress(miss, axis=1), pieces], axis=1)
    closed.append(open_)
    levels.append(n + 1)
    rows = np.concatenate(closed, axis=1)
    top = np.repeat(levels, [c.shape[1] for c in closed])
    grown = rows[2 * k] < top  # a box born and cut at one level has no height
    rows, top = rows.compress(grown, axis=1), top[grown]
    lower, upper = np.empty((2, m, len(top)), dtype=np.intp)
    lower[order[:k]] = rows[:k]
    lower[order[k]] = rows[2 * k]
    upper[order[:k]] = -rows[k : 2 * k]
    upper[order[k]] = top
    return BoxDecomposition.from_ranks(breaks, lower, upper)


def sweep_boxes(front: Front) -> BoxDecomposition:
    """Cut the nondominated region of any front into disjoint boxes.

    n+1 boxes at m = 2, at most 2n+1 at m = 3 and at most (n+1)^m beyond.
    Raises ParameterError at m >= 4 once the sweep makes more than
    _MAX_BOXES boxes. The boxes do not depend on any belief and a Front is
    immutable, so the first call on a front keeps its decomposition in
    Front._boxes, every array read-only, and every later call returns it;
    a refused front keeps nothing. Axis 1 is open below at m = 2 and 3,
    and so is the last split axis order[m-2] of the m >= 4 sweep, which no
    piece raises.
    """
    if front._boxes is None:
        if front.m == 2:
            boxes = _staircase_boxes(front)
        elif front.m == 3:
            boxes = nondominated_boxes(front)
        else:
            boxes = _sweep_boxes(front)
        object.__setattr__(front, "_boxes", boxes)
    return front._boxes


def ehvi_sweep(front: Front, belief: GaussianBelief) -> EhviResult:
    """EHVI over the nondominated boxes of sweep_boxes, which the front keeps; reports the boxes integrated."""
    if belief.m != front.m:
        raise DimensionError(f"front has m={front.m} but belief has m={belief.m}")
    boxes = sweep_boxes(front)
    value = integrate_boxes(boxes, (belief.mean,), (belief.stddev,))[0]
    return EhviResult(value=float(value), boxes=boxes.lower.shape[1])


def clipped_volumes(boxes: BoxDecomposition, ys: np.ndarray) -> np.ndarray:
    """Volume of box(y, r) inside the boxes' union, for each row y of a (k, m) array.

    Row y gets the sum, over the disjoint boxes, of prod_j max(0, upper_j -
    max(lower_j, y_j)), a zero factor zeroing its box even beside the
    infinite one of a -inf y_j. Over the nondominated boxes of a front that
    is y's hypervolume improvement: a y weakly dominated by the front or
    outside the reference overlaps no box on some axis, so its value is
    exactly 0.0. Rows go in blocks of at most _CLIP_BLOCK product elements.
    """
    flat = boxes.breaks.ravel()
    lowers, uppers = flat[boxes.lower.T], flat[boxes.upper.T]  # (boxes, m)
    step = max(1, _CLIP_BLOCK // lowers.size)
    out = np.empty(len(ys))
    for s in range(0, len(ys), step):
        overlap = np.maximum(ys[s : s + step, None, :], lowers)
        np.subtract(uppers, overlap, out=overlap)
        np.maximum(overlap, 0.0, out=overlap)
        with np.errstate(invalid="ignore"):  # inf * 0 is nan, mended below
            volume = overlap.prod(axis=2)
        out[s : s + step] = volume.sum(axis=1)
        if np.isnan(out[s : s + step]).any():  # a zero overlap zeroes the box even beside an infinite one
            volume[(overlap == 0.0).any(axis=2)] = 0.0
            out[s : s + step] = volume.sum(axis=1)
    return out


def hypervolume_improvement(y: Sequence[float], front: Front) -> float:
    """Exact increase of the dominated hypervolume if y joined the front.

    y is taken in the front's internal minimization convention. Returns 0
    for points weakly dominated by the front (including members) and points
    not strictly inside the reference bound, else inf if a coordinate is -inf.
    """
    vec = as_vector(y)
    if len(vec) != front.m:
        raise DimensionError(f"candidate has {len(vec)} coordinates, expected m={front.m}")
    if any(math.isnan(x) for x in vec):
        raise ParameterError(f"candidate {vec} has a NaN coordinate")
    return float(clipped_volumes(sweep_boxes(front), np.array([vec]))[0])


def hypervolume(front: Front) -> float:
    """Exact dominated hypervolume of the front within its reference bound.

    The volume of box(ideal, r) minus the part of it that the front's sweep
    boxes leave open, ideal being the front's componentwise minimum: O(n log
    n) at m = 3. To first order in u = 2^-53 its rounding error is at most
    (K + 4m) u prod(r - ideal), K being the number of boxes (at most 2n+1
    for n points at m <= 3). Volumes past the float range are inf, and
    differences of them nan. Raises sweep_boxes' ParameterError at m >= 4
    once the sweep is over its budget.
    """
    if not front.n:
        return 0.0
    ideal = front.coords.min(axis=0)
    with np.errstate(over="ignore", invalid="ignore"):
        open_volume = clipped_volumes(sweep_boxes(front), ideal[None])[0]
        return float(np.prod(front.reference - ideal) - open_volume)


def dominated_volume(points: Sequence[Sequence[float]], reference: Sequence[float]) -> float:
    """Lebesgue measure of the union of boxes [p, r) over any list of finite points.

    Every point, dominated or not, must be finite, have the reference's
    length and lie strictly inside the bound; the volume is then the
    hypervolume of the nondominated ones. UnsupportedDimensionError below
    m = 2.
    """
    ref = as_vector(reference)
    pts = [as_vector(p) for p in points]
    if not all(math.isfinite(x) for p in (ref, *pts) for x in p):
        raise ParameterError("reference and point coordinates must be finite")
    for p in pts:
        if len(p) != len(ref):
            raise DimensionError(f"point {p} has {len(p)} coordinates, expected {len(ref)}")
        if not all(x < r for x, r in zip(p, ref)):
            raise ReferenceBoundError(f"point {p} is not strictly inside the bound {ref}")
    return hypervolume(Front(ProblemFrame(len(ref), ref), tuple(nondominated_filter(pts))))
