"""Shared builders for test inputs."""

import itertools
import math

import numpy as np

from ehvi import GaussianBelief, ProblemFrame, psi, validate_front
from ehvi.bench import benchmark_frame, generate_front
from ehvi.clm3 import nondominated_boxes
from ehvi.core import BoxDecomposition
from ehvi.gaussian import integrate_boxes
from ehvi.grid import grid_decompose
from oracles import box_ranks, brute_nondominated


def random_front(m, n, seed):
    """Validated front from the benchmark generator (maximize [0.1,10]^m, r=0)."""
    return validate_front(benchmark_frame(m), generate_front(m, n, seed))


def min_front(reference, points):
    """Validated minimization front against an explicit reference."""
    frame = ProblemFrame(m=len(reference), reference=reference)
    return validate_front(frame, points)


def lattice_front(m, seed, n=25):
    """n lattice points of {-9..-1}^m on the plane sum(y) = -5m, sampled by seed.

    For m >= 3 the points share coordinates on every axis; at m = 2 no two
    nondominated points can.
    """
    total = 5 * m
    plane = [
        tuple(-float(a) for a in head) + (float(sum(head) - total),)
        for head in itertools.product(range(1, 10), repeat=m - 1)
        if 1 <= total - sum(head) <= 9
    ]
    rng = np.random.default_rng([31, seed])
    picks = rng.choice(len(plane), min(n, len(plane)), replace=False)
    return min_front((0.0,) * m, [plane[i] for i in picks])


def random_belief(m, seed, mean_lo=-12.0, mean_hi=-2.0, sd_lo=0.5, sd_hi=4.0):
    rng = np.random.default_rng(seed)
    return GaussianBelief(
        mean=tuple(rng.uniform(mean_lo, mean_hi, m)),
        stddev=tuple(rng.uniform(sd_lo, sd_hi, m)),
    )


def box_decomposition(bounds, m=2):
    """A core.BoxDecomposition of the given (lower, upper) float bound pairs.

    After the -inf column each box gets breakpoints of its own:
    breaks[:, 1 + b] are its lower and breaks[:, 1 + B + b] its upper
    bounds, for B boxes.
    """
    lowers = np.array([lo for lo, _ in bounds], dtype=float).reshape(-1, m)
    uppers = np.array([up for _, up in bounds], dtype=float).reshape(-1, m)
    count = len(lowers)
    breaks = np.hstack([np.full((m, 1), -math.inf), lowers.T, uppers.T])
    ranks = np.tile(np.arange(1, count + 1), (m, 1))
    return BoxDecomposition.from_ranks(breaks, ranks, ranks + count)


def decomposition_boxes(boxes):
    """The (lower, upper) float bound pairs of a core.BoxDecomposition's boxes, in order."""
    axes = np.arange(len(boxes.breaks))
    return [
        (tuple(boxes.breaks[axes, lo].tolist()), tuple(boxes.breaks[axes, up].tolist()))
        for lo, up in zip(*box_ranks(boxes))
    ]


def box_sum(boxes, belief):
    """Gaussian integral of a belief over a decomposition's boxes, by integrate_boxes."""
    return float(integrate_boxes(boxes, [belief.mean], [belief.stddev])[0])


def slab_integral(keys, vals, reference, belief2):
    """From-scratch staircase cross-section integral as disjoint vertical slabs."""
    r1, r2 = reference
    ends = list(keys[1:]) + [r1]
    slabs = [((k, v), (nxt, r2)) for k, v, nxt in zip(keys, vals, ends)]
    return box_sum(box_decomposition(slabs), belief2)


def cross_section(boxes, level):
    """Axes 1-2 of the m=3 boxes whose third-axis range holds the slab just below breakpoint `level`."""
    lower, upper = box_ranks(boxes)
    keep = (lower[:, 2] < level) & (upper[:, 2] >= level)
    return BoxDecomposition(boxes.breaks[:2], *(rows[:2].compress(keep, axis=1) for rows in boxes[1:3]))


def check_cross_sections(front, belief2):
    """Check every cross-section of an m=3 front's sweep boxes against a 2-D recomputation.

    At each level L the cross-section must be disjoint, integrate to grid's
    decomposition of the nondominated projections of the points below L, and
    with the slab integral of their staircase tile the quadrant. There are at
    most 2n+1 boxes, none of zero width.
    """
    boxes = nondominated_boxes(front)
    assert boxes.lower.shape[1] <= 2 * front.n + 1
    assert (boxes.lower < boxes.upper).all()  # ties never give a box of zero width
    r = front.reference[:2]
    full = math.prod(psi(r[j], belief2.mean[j], belief2.stddev[j]) for j in range(2))
    for level in range(1, front.n + 2):
        section = cross_section(boxes, level)
        lo, up = box_ranks(section)
        overlap = (np.maximum(lo[:, None], lo[None]) < np.minimum(up[:, None], up[None])).all(axis=2)
        assert overlap.sum() == len(lo)  # each box overlaps itself only
        height = boxes.breaks[2, level - 1]
        below = brute_nondominated(p[:2] for p in front.points if p[2] <= height)
        got = box_sum(section, belief2)
        want = box_sum(grid_decompose(min_front(r, below)), belief2)
        assert math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-300)
        keys = [p[0] for p in below]
        vals = [p[1] for p in below]
        dominated = slab_integral(keys, vals, r, belief2)
        assert math.isclose(got + dominated, full, rel_tol=1e-12, abs_tol=1e-300)
