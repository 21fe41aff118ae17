"""Sweep-plane decomposition of the m=3 nondominated region into boxes.

The sweep runs on the breakpoint ranks of core.rank_form: on every axis,
rank 0 stands for -inf, ranks 1..n for the sorted coordinates and rank n+1
for the reference. Points are processed in ascending third rank. A
staircase over the first two ranks (keys strictly increasing, values
strictly decreasing) tracks the nondominated 2-D projections seen so far.
It is padded with sentinels, keys = [0, k_1..k_s, n+1] and
vals = [n+1, v_1..v_s, 0], so that below the reference the part of the
plane no staircase entry covers is a row of vertical strips: strip t spans
(keys[t], keys[t+1]] on axis 1 and (0, vals[t]] on axis 2, and births[t]
is the level it was opened at.

A strip stays as it is while the sweep rises, until an inserted point
covers part of it. The insertion closes every strip it touches at the
current level, emitting the box strip x (birth level, current level], and
opens at most two new strips; the sweep ends by closing the open strips at
n+1. The emitted boxes are disjoint, their union is exactly the nondominated
region, and there are at most 2n+1 of them, exactly 2n+1 when no two
points share a coordinate (Yang, Emmerich, Deutz & Fonseca, EMO 2017). This
is the paper's CLM-based decomposition, and sweep.sweep_boxes uses it at
m = 3: the sweep backend integrates the boxes directly rather than as the
full region minus the dominated one.

Each point is inserted once and removed at most once, so the staircase does
at most 2n ordered-map operations across the sweep: with a logarithmic map
that is the Theta(n log n) bound. The map here is a pair of parallel sorted
lists driven by bisect; Python lacks a stdlib balanced tree, and at
benchmark sizes the list splice is cheaper than any tree's constant factor.
"""

from __future__ import annotations

from bisect import bisect_right

import numpy as np

from .core import BoxDecomposition, Front, rank_form
from .errors import UnsupportedDimensionError


def nondominated_boxes(front: Front) -> BoxDecomposition:
    """Sweep an m=3 front into at most 2n+1 disjoint nondominated boxes.

    Ties compare equal on ranks, so no box of zero height is emitted, and a
    point the staircase already weakly dominates adds no box.
    """
    if front.m != 3:
        raise UnsupportedDimensionError(f"the CLM staircase sweep needs m=3, got m={front.m}")
    top = front.n + 1
    breaks, ranks = rank_form(front.coords, front.reference)
    xs, ys, zs = ranks[np.argsort(ranks[:, 2], kind="stable")].T.tolist()
    keys, vals, births = [0, top], [top, 0], [0]
    flat: list[int] = []  # (lower_1, upper_1, upper_2, lower_3, upper_3) per box
    for x, y, z in zip(xs, ys, zs):
        i = bisect_right(keys, x)
        j = i - 1  # rightmost entry (or the 0 sentinel) with key <= x
        if vals[j] <= y:
            continue
        # Entries dominated by the point form a contiguous run start..end-1.
        # It starts at the floor itself when the floor shares the point's key
        # (its value must then be > y); the 0 sentinel in vals ends it.
        shared = keys[j] == x
        start = j if shared else i
        end = start
        while vals[end] >= y:
            end += 1
        # Strips start-1..end-1 lie over the run and the point. Strip start-1
        # keeps its span, and stays open, exactly when it ends at the key.
        first = start - 1 + shared
        for t in range(first, end):
            if births[t] < z:
                flat += (keys[t], keys[t + 1], vals[t], births[t], z)
        births[first:end] = [z] * (2 - shared)
        keys[start:end] = [x]
        vals[start:end] = [y]
    for t in range(len(births)):  # close every open strip at n+1
        flat += (keys[t], keys[t + 1], vals[t], births[t], top)
    boxes = np.fromiter(flat, dtype=np.intp, count=len(flat)).reshape(-1, 5)
    lower = boxes[:, [0, 0, 3]]
    lower[:, 1] = 0  # every box is open to -inf, breakpoint 0, on axis 2
    return BoxDecomposition(breaks, lower, boxes[:, [1, 2, 4]])
