"""Sweep-plane decomposition of the m=3 nondominated region into boxes.

Points are processed in ascending third coordinate. A staircase over the
first two coordinates (keys strictly increasing, values strictly decreasing)
tracks the nondominated 2-D projections seen so far. Below the reference,
the part of the plane no staircase entry covers is a row of vertical strips:
strip i spans (k[i-1], k[i]] on axis 1 and (-inf, v[i-1]] on axis 2, with
k[-1] = -inf, v[-1] = r2 and k[s] = r1 for an s-entry staircase.

A strip stays as it is while the sweep rises, until an inserted point
covers part of it. The insertion closes every strip it touches at the
current level, emitting the box strip x (birth level, current level], and
opens at most two new strips; the sweep ends by closing the open strips at
r3. The emitted boxes are disjoint, their union is exactly the nondominated
region, and there are at most 2n+1 of them (Yang, Emmerich, Deutz & Fonseca,
EMO 2017). This is the paper's CLM-based decomposition, and
sweep.sweep_boxes uses it at m = 3: the sweep backend integrates the boxes
directly rather than as the full region minus the dominated one. The sweep
runs on the breakpoint ranks of core.rank_form and returns a
core.BoxDecomposition, the rank form and box type that sweep and wfg share.

Each point is inserted once and removed at most once, so the staircase does
at most 2n ordered-map operations across the sweep: with a logarithmic map
that is the Theta(n log n) bound. The map here is a pair of parallel sorted
lists driven by bisect; Python lacks a stdlib balanced tree, and at
benchmark sizes the list splice is cheaper than any tree's constant factor.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import chain
from dataclasses import dataclass, field

import numpy as np

from .core import BoxDecomposition, Front, rank_form
from .errors import DimensionError, ReferenceBoundError, UnsupportedDimensionError


@dataclass
class SweepState:
    """2-D staircase, the birth level of every open strip, and the closed boxes.

    `bottom` stands for -inf on every axis: the lower bound of the first
    strip, of every strip on axis 2, and the birth level of the initial
    strip. Any order-preserving coordinates work, which lets the m=3 backend
    sweep breakpoint indices with bottom = 0. Coordinates are kept padded
    with sentinels: _k = [bottom, keys..., r1] and _v = [r2, vals...,
    bottom], so strip t spans (_k[t], _k[t+1]] on axis 1 and (bottom, _v[t]]
    on axis 2, and births[t] is the level it was opened at. A closed box is
    the tuple (lower_1, upper_1, upper_2, lower_3, upper_3); its lower bound
    on axis 2 is `bottom`. Confine one state to one sweep; it is mutated in
    place.
    """

    reference: tuple[float, float]
    bottom: float = -float("inf")
    boxes: list[tuple] = field(default_factory=list, init=False)
    operations: int = field(default=0, init=False)  # inserts + removals, <= 2n over a sweep

    def __post_init__(self) -> None:
        if len(self.reference) != 2:
            raise DimensionError(f"SweepState needs a 2-D reference, got {self.reference}")
        r1, r2 = self.reference = tuple(self.reference)
        self._k = [self.bottom, r1]
        self._v = [r2, self.bottom]
        self.births = [self.bottom]

    @property
    def keys(self) -> list[float]:
        """First coordinates of the staircase entries, strictly ascending."""
        return self._k[1:-1]

    @property
    def vals(self) -> list[float]:
        """Second coordinates of the staircase entries, strictly descending."""
        return self._v[1:-1]

    def insert(self, y1: float, y2: float, level: float) -> None:
        """Insert the 2-D point (y1, y2) at sweep level `level` (levels never decrease).

        Points weakly dominated by the staircase leave the state unchanged.
        Otherwise the entries dominated by the point (a contiguous run) are
        removed, every strip the point covers is closed at `level`, and the
        strips left of and under the point are opened at `level`.
        """
        r1, r2 = self.reference
        bottom = self.bottom
        if not (bottom < y1 < r1 and bottom < y2 < r2):
            raise ReferenceBoundError(f"point ({y1}, {y2}) is not strictly inside the bound ({r1}, {r2})")
        keys, vals, births = self._k, self._v, self.births
        i = bisect_right(keys, y1)
        j = i - 1  # rightmost entry (or the bottom sentinel) with key <= y1
        if vals[j] <= y2:
            return  # weakly dominated (covers exact reinsertion)
        # Entries dominated by the point form a contiguous run start..end-1.
        # It starts at the floor itself when the floor shares the point's key
        # (its value must then be > y2); the bottom sentinel in _v ends it.
        shared = keys[j] == y1
        start = j if shared else i
        end = start
        while vals[end] >= y2:
            end += 1
        # Strips start-1..end-1 lie over the run and the point. Strip start-1
        # keeps its span, and stays open, exactly when it ends at the key.
        first = start - 1 + shared
        for t in range(first, end):
            if births[t] < level:
                self.boxes.append((keys[t], keys[t + 1], vals[t], births[t], level))
        births[first:end] = [level] * (2 - shared)
        keys[start:end] = [y1]
        vals[start:end] = [y2]
        self.operations += 1 + (end - start)

    def close(self, level: float) -> None:
        """Close every open strip at `level` and reopen it there."""
        keys, vals, births = self._k, self._v, self.births
        for t in range(len(births)):
            if births[t] < level:
                self.boxes.append((keys[t], keys[t + 1], vals[t], births[t], level))
        self.births = [level] * len(births)


def nondominated_boxes(front: Front) -> BoxDecomposition:
    """Sweep an m=3 front into at most 2n+1 disjoint nondominated boxes.

    The sweep runs on the breakpoint ranks of core.rank_form, so ties
    compare equal and no box of zero height is emitted.
    """
    if front.m != 3:
        raise UnsupportedDimensionError(f"the CLM staircase sweep needs m=3, got m={front.m}")
    n = front.n
    breaks, ranks = rank_form(front.points, front.reference)
    state = SweepState(reference=(n + 1, n + 1), bottom=0)
    insert = state.insert
    for x, y, z in zip(*ranks[np.argsort(ranks[:, 2], kind="stable")].T.tolist()):
        insert(x, y, z)
    state.close(n + 1)
    flat = np.fromiter(chain.from_iterable(state.boxes), dtype=np.intp, count=5 * len(state.boxes))
    boxes = flat.reshape(-1, 5)  # (lower_1, upper_1, upper_2, lower_3, upper_3)
    lower = boxes[:, [0, 0, 3]]
    lower[:, 1] = 0  # every box is open to -inf, breakpoint 0, on axis 2
    return BoxDecomposition(breaks, lower, boxes[:, [1, 2, 4]])
