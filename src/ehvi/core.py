"""Objective-space domain types, dominance relations, and orientation handling.

Everything downstream works in a single internal convention: minimization,
with the reference point worse (larger) than every front point in every
coordinate. Maximization problems are negated once at the boundary
(validate_front for points, ProblemFrame.internal_reference for the
reference) and never again.

Coordinate comparisons are exact. Coordinates are user data, not computed
quantities, and epsilon comparisons would corrupt the disjointness of the
box decompositions built on top of them.
"""

from __future__ import annotations

import enum
import math
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import chain
from typing import TYPE_CHECKING, Iterable, NamedTuple, Sequence

import numpy as np

from .errors import (
    DimensionError,
    InvalidFrontError,
    ParameterError,
    ReferenceBoundError,
    UnsupportedDimensionError,
)

if TYPE_CHECKING:
    from .gaussian import IntegrationPlan

Vector = tuple[float, ...]

# At m >= 4, above this set size the nondominated pass switches to numpy
# comparisons, made in blocks of at most _FILTER_BLOCK elements. On mutually
# nondominated sets the Python pass is faster at 8 points and numpy at 16,
# for m = 4 to 6. At m = 2 and 3 a staircase pass decides instead.
_NUMPY_FILTER_MIN = 12
_FILTER_BLOCK = 1 << 22


def as_vector(v: Sequence[float]) -> Vector:
    return tuple(float(x) for x in v)


class Orientation(str, enum.Enum):
    MINIMIZE = "minimize"
    MAXIMIZE = "maximize"


class EhviResult(NamedTuple):
    """An exact EHVI value plus the backend's work counter.

    `boxes` counts what the backend actually enumerated: grid cells for
    grid, boxes integrated for sweep at every m, and for wfg the signed
    corner boxes integrated, one per term of the WFG recursion, without the
    full box they are taken from.
    """

    value: float
    boxes: int


@dataclass(frozen=True)
class ProblemFrame:
    """User-facing problem description: objective count, reference point, orientation."""

    m: int
    reference: Vector
    orientation: Orientation = Orientation.MINIMIZE

    def __post_init__(self) -> None:
        object.__setattr__(self, "reference", as_vector(self.reference))
        object.__setattr__(self, "orientation", Orientation(self.orientation))
        if self.m < 2:
            raise UnsupportedDimensionError(f"need at least 2 objectives, got m={self.m}")
        if len(self.reference) != self.m:
            raise DimensionError(
                f"reference has {len(self.reference)} coordinates, expected m={self.m}"
            )
        if not all(math.isfinite(x) for x in self.reference):
            raise ParameterError(f"reference must be finite, got {self.reference}")

    @property
    def internal_reference(self) -> Vector:
        """Reference point in the internal minimization convention."""
        if self.orientation is Orientation.MAXIMIZE:
            return tuple(-x for x in self.reference)
        return self.reference


@dataclass(frozen=True)
class Front:
    """Mutually nondominated points stored in internal minimization convention.

    Construct through validate_front, which establishes the invariants
    (mutual nondominance, no duplicates, strictly inside the reference bound).
    coords is the same points as a read-only (n, m) float array, built once
    here so that no decomposition converts the tuples again. _boxes and
    _plan are unset until sweep.sweep_boxes first decomposes the front,
    which then keeps its read-only boxes and their gaussian.IntegrationPlan
    here for the front's lifetime: the boxes' index arrays take 16 m bytes
    per box and the plan's flat index arrays 16 m more, about 168 MB at the
    sweep's 2^19-box budget at m = 10. None of them takes part in == or hash.
    """

    frame: ProblemFrame
    points: tuple[Vector, ...]
    coords: np.ndarray = field(init=False, compare=False, repr=False)
    _boxes: BoxDecomposition | None = field(init=False, compare=False, repr=False, default=None)
    _plan: IntegrationPlan | None = field(init=False, compare=False, repr=False, default=None)

    def __post_init__(self) -> None:
        m, n = self.frame.m, len(self.points)
        coords = np.fromiter(chain.from_iterable(self.points), dtype=float, count=m * n).reshape(n, m)
        coords.flags.writeable = False
        object.__setattr__(self, "coords", coords)

    @property
    def m(self) -> int:
        return self.frame.m

    @property
    def n(self) -> int:
        return len(self.points)

    @property
    def reference(self) -> Vector:
        return self.frame.internal_reference


def nondominated_sorted(pts: list[tuple]) -> list[tuple]:
    """The points of a lex-sorted, deduplicated list that no other point weakly dominates.

    Every potential dominator of a point sits strictly earlier in such a
    list, so a point survives when no earlier point is <= it on the axes
    after the first. At m = 2 that is a running minimum of the second
    coordinate. At m = 3 it is the (y, z) staircase of the points so far
    (Kung, Luccio & Preparata, J. ACM 1975), y strictly increasing and z
    strictly decreasing in two bisect-ordered lists: the entry with the
    largest y <= the point's has the least z of all such entries, and the
    point goes when that z is <= its own. Both take O(n log n) time. At
    m >= 4, up to _NUMPY_FILTER_MIN points, one forward pass against the
    survivors decides; above it, numpy compares each block of points with
    everything before it. In every case the survivors are returned as the
    input tuples themselves, in input order, so their elements stay plain
    Python scalars.
    """
    n = len(pts)
    m = len(pts[0]) if pts else 0
    if m == 2:
        out = pts[:1]
        for p in pts[1:]:
            if p[1] < out[-1][1]:
                out.append(p)
        return out
    if m == 3:
        out, ys, zs = [], [], []
        for p in pts:
            _, y, z = p
            i = bisect_right(ys, y)
            if i and zs[i - 1] <= z:
                continue
            # the point is kept, and takes the place of the staircase run it
            # covers: an entry at its own y, then the entries after it with z >= its z
            start = i - 1 if i and ys[i - 1] == y else i
            end = i
            while end < len(zs) and zs[end] >= z:
                end += 1
            ys[start:end] = [y]
            zs[start:end] = [z]
            out.append(p)
        return out
    if n > _NUMPY_FILTER_MIN:
        cols = np.asarray(pts).T
        keep = np.empty(n, dtype=bool)
        step = max(1, _FILTER_BLOCK // n)
        for s in range(0, n, step):
            e = s + step
            # leq[i, k]: point i <= point s+k on every axis; no later point can be
            leq = cols[0, :e, None] <= cols[0, s:e]
            for col in cols[1:]:
                leq &= col[:e, None] <= col[s:e]
            keep[s:e] = np.count_nonzero(leq, axis=0) == 1  # only the point itself
        return [pts[i] for i in np.flatnonzero(keep)]
    out: list[tuple] = []
    for p in pts:
        for q in out:
            for x, y in zip(q, p):
                if x > y:
                    break
            else:
                break  # q <= p componentwise and q != p: dominated
        else:
            out.append(p)
    return out


def nondominated_filter(points: Iterable[Sequence[float]]) -> list[Vector]:
    """Points not weakly dominated by any other, duplicates collapsed.

    Output is deterministic: lexicographically ascending.
    """
    pts = sorted(set(as_vector(p) for p in points))
    if not pts:
        return []
    m = len(pts[0])
    if any(len(p) != m for p in pts):
        raise DimensionError("points have mixed dimensions")
    return nondominated_sorted(pts)


def rank_form(
    points: np.ndarray | Sequence[Sequence[float]], reference: Sequence[float]
) -> tuple[np.ndarray, np.ndarray]:
    """Per-axis breakpoints and the (n, m) breakpoint ranks of the points.

    points is an (n, m) array such as Front.coords, or any sequence of n
    points. breaks is (m, n+2): row j is [-inf, sorted coordinates of axis
    j, r_j]. A point's rank on axis j is the index of its coordinate in
    breaks[j], a tied coordinate taking the rank of its first copy, so ties
    compare equal and ranks order exactly as the coordinates do.
    """
    m, n = len(reference), len(points)
    pts = np.asarray(points, dtype=float).reshape(n, m)
    coords = np.sort(pts, axis=0)
    breaks = np.empty((m, n + 2))
    breaks[:, 0] = -np.inf
    breaks[:, 1:-1] = coords.T
    breaks[:, -1] = reference
    ranks = np.empty((n, m), dtype=np.intp)
    for j in range(m):
        ranks[:, j] = np.searchsorted(coords[:, j], pts[:, j])
    return breaks, ranks + 1


class BoxDecomposition(NamedTuple):
    """Disjoint half-open boxes as index arrays into per-axis breakpoints.

    The breakpoints are rank_form's, or grid's own sorted axes. Box b spans
    (breaks[j, lower[b, j]], breaks[j, upper[b, j]]] on axis j.
    """

    breaks: np.ndarray  # (m, n+2) float
    lower: np.ndarray  # (boxes, m) int
    upper: np.ndarray  # (boxes, m) int


def validate_front(frame: ProblemFrame, points: Iterable[Sequence[float]]) -> Front:
    """Convert points to the internal convention and check every Front invariant.

    The points become one (n, m) float array, and the finiteness, negation
    and reference-bound checks are numpy passes over it; each error names
    the first offending point in input order, in user coordinates.
    """
    try:
        user = np.asarray(points, dtype=float)
    except (TypeError, ValueError, OverflowError):  # ragged, an iterator, or a coordinate numpy refuses
        user = None
    if user is None or user.shape != (len(points), frame.m) or not np.isfinite(user).all():
        # point by point, for float()'s errors (numpy reads None as nan) and the first point of another length
        raw = [as_vector(p) for p in points]
        n = next((k for k, p in enumerate(raw) if len(p) != frame.m), len(raw))
        user = np.array(raw[:n], dtype=float).reshape(n, frame.m)
        bad = np.flatnonzero(~np.isfinite(user).all(axis=1))
        if bad.size:
            raise InvalidFrontError(f"point {raw[bad[0]]} has non-finite coordinates")
        if n < len(raw):
            raise DimensionError(f"point {raw[n]} has {len(raw[n])} coordinates, expected m={frame.m}")
    coords = -user if frame.orientation is Orientation.MAXIMIZE else user
    bad = np.flatnonzero(~(coords < frame.internal_reference).all(axis=1))
    if bad.size:
        raise ReferenceBoundError(
            f"point {tuple(user[bad[0]].tolist())} is not strictly inside the reference bound {frame.reference}"
        )
    internal = list(map(tuple, coords.tolist()))
    # lex order puts copies next to each other and every dominator first
    order = sorted(range(len(internal)), key=internal.__getitem__)
    pts = [internal[i] for i in order]
    for k in range(1, len(pts)):
        if pts[k - 1] == pts[k]:
            a, b = user[order[k - 1 : k + 1]].tolist()
            raise InvalidFrontError(f"duplicate points: {tuple(a)} and {tuple(b)}")
    kept = nondominated_sorted(pts)
    if len(kept) < len(pts):
        # kept is a subsequence of pts, so the first mismatch is the first point dropped
        k = next(k for k, p in enumerate(kept + [None]) if p is not pts[k])
        d = next(d for d in range(k) if all(x <= y for x, y in zip(pts[d], pts[k])))
        a, b = user[[order[d], order[k]]].tolist()
        raise InvalidFrontError(f"front is not mutually nondominated: {tuple(a)} dominates {tuple(b)}")
    return Front(frame=frame, points=tuple(internal))
