"""Objective-space domain types, dominance relations, and orientation handling.

Everything downstream works in a single internal convention: minimization,
with the reference point worse (larger) than every front point in every
coordinate. Maximization problems are negated once at the boundary and never
again, see to_internal / from_internal.

Coordinate comparisons are exact. Coordinates are user data, not computed
quantities, and epsilon comparisons would corrupt the disjointness of the
box decompositions built on top of them.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import (
    DimensionError,
    InvalidFrontError,
    ParameterError,
    ReferenceBoundError,
    UnsupportedDimensionError,
)

Vector = tuple[float, ...]


def as_vector(v: Sequence[float]) -> Vector:
    return tuple(float(x) for x in v)


class Orientation(str, enum.Enum):
    MINIMIZE = "minimize"
    MAXIMIZE = "maximize"


class EhviResult(NamedTuple):
    """An exact EHVI value plus the backend's work counter.

    `boxes` counts what the backend actually enumerated: grid cells for the
    grid backend, box-measure evaluations for the recursive backend, ordered
    map operations (inserts + removals) for clm3, and boxes integrated for
    sweep.
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
    """

    frame: ProblemFrame
    points: tuple[Vector, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "points", tuple(as_vector(p) for p in self.points))

    @property
    def m(self) -> int:
        return self.frame.m

    @property
    def n(self) -> int:
        return len(self.points)

    @property
    def reference(self) -> Vector:
        return self.frame.internal_reference


@dataclass(frozen=True)
class HyperBox:
    """Half-open axis-aligned box prod_j (lower_j, upper_j].

    Lower coordinates may be -inf (whole-region and grid boxes are open
    below); upper coordinates are always finite.
    """

    lower: Vector
    upper: Vector

    def __post_init__(self) -> None:
        object.__setattr__(self, "lower", as_vector(self.lower))
        object.__setattr__(self, "upper", as_vector(self.upper))
        if len(self.lower) != len(self.upper):
            raise DimensionError(
                f"box bounds disagree: {len(self.lower)} vs {len(self.upper)} coordinates"
            )
        for lo, up in zip(self.lower, self.upper):
            if not math.isfinite(up):
                raise ParameterError(f"box upper bounds must be finite, got {self.upper}")
            if math.isnan(lo) or lo == math.inf:
                raise ParameterError(f"box lower bounds must be finite or -inf, got {self.lower}")
            if lo > up:
                raise ParameterError(f"box has lower > upper: {self.lower} vs {self.upper}")

    @property
    def m(self) -> int:
        return len(self.lower)

    def volume(self) -> float:
        """Lebesgue volume; inf when a lower bound is -inf (and no width is zero)."""
        out = 1.0
        for lo, up in zip(self.lower, self.upper):
            if up == lo:
                return 0.0
            out *= up - lo
        return out


def dominates(a: Sequence[float], b: Sequence[float]) -> bool:
    """Weak Pareto dominance in minimization convention: a <= b componentwise, a != b."""
    if len(a) != len(b):
        raise DimensionError(f"cannot compare vectors of length {len(a)} and {len(b)}")
    worse_somewhere = False
    strict_somewhere = False
    for x, y in zip(a, b):
        if x > y:
            worse_somewhere = True
            break
        if x < y:
            strict_somewhere = True
    return not worse_somewhere and strict_somewhere


def nondominated_filter(points: Iterable[Sequence[float]]) -> list[Vector]:
    """Points not weakly dominated by any other, duplicates collapsed.

    Output is deterministic: lexicographically ascending. A lex-sorted,
    deduplicated list has every potential dominator strictly earlier, so one
    forward pass against the survivors suffices.
    """
    pts = sorted(set(as_vector(p) for p in points))
    if not pts:
        return []
    m = len(pts[0])
    if any(len(p) != m for p in pts):
        raise DimensionError("points have mixed dimensions")
    out: list[Vector] = []
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


def to_internal(frame: ProblemFrame, v: Sequence[float]) -> Vector:
    """Map a user-convention vector into internal minimization coordinates."""
    vec = as_vector(v)
    if frame.orientation is Orientation.MAXIMIZE:
        return tuple(-x for x in vec)
    return vec


def from_internal(frame: ProblemFrame, v: Sequence[float]) -> Vector:
    """Inverse of to_internal (negation is an involution, so it is the same map)."""
    return to_internal(frame, v)


def validate_front(frame: ProblemFrame, points: Iterable[Sequence[float]]) -> Front:
    """Convert points to the internal convention and check every Front invariant."""
    raw = [as_vector(p) for p in points]
    for p in raw:
        if len(p) != frame.m:
            raise DimensionError(f"point {p} has {len(p)} coordinates, expected m={frame.m}")
        if not all(math.isfinite(x) for x in p):
            raise InvalidFrontError(f"point {p} has non-finite coordinates")
    internal = [to_internal(frame, p) for p in raw]
    ref = frame.internal_reference
    for p, q in zip(raw, internal):
        if not all(x < r for x, r in zip(q, ref)):
            raise ReferenceBoundError(
                f"point {p} is not strictly inside the reference bound {frame.reference}"
            )
    if len(internal) > 1:
        arr = np.asarray(internal, dtype=float)
        le = (arr[:, None, :] <= arr[None, :, :]).all(axis=2)
        eq = (arr[:, None, :] == arr[None, :, :]).all(axis=2)
        dup = eq & ~np.eye(len(internal), dtype=bool)
        if dup.any():
            i, j = map(int, np.argwhere(dup)[0])
            raise InvalidFrontError(f"duplicate points: {raw[i]} and {raw[j]}")
        weak = le & ~eq
        if weak.any():
            i, j = map(int, np.argwhere(weak)[0])
            raise InvalidFrontError(f"front is not mutually nondominated: {raw[i]} dominates {raw[j]}")
    return Front(frame=frame, points=tuple(internal))


def hypervolume_improvement(y: Sequence[float], front: Front) -> float:
    """Exact increase of the dominated hypervolume if y joined the front.

    y is taken in the front's internal minimization convention. Returns 0
    for points weakly dominated by the front (including members) and points
    not strictly inside the reference bound.
    """
    vec = as_vector(y)
    if len(vec) != front.m:
        raise DimensionError(f"candidate has {len(vec)} coordinates, expected m={front.m}")
    ref = front.reference
    if not all(x < r for x, r in zip(vec, ref)):
        return 0.0
    for a in front.points:
        if all(x <= c for x, c in zip(a, vec)):
            return 0.0
    from .wfg import exclusive_volume  # deferred: wfg imports this module

    return exclusive_volume(vec, front.points, ref)
