"""Shared builders for test inputs."""

import copy
import itertools
import math

import numpy as np

from ehvi import GaussianBelief, ProblemFrame, validate_front
from ehvi.bench import benchmark_frame, generate_front
from ehvi.core import BoxDecomposition
from ehvi.gaussian import integrate_boxes


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

    Each box gets breakpoints of its own: breaks[:, b] are its lower and
    breaks[:, B + b] its upper bounds, for B boxes.
    """
    lowers = np.array([lo for lo, _ in bounds], dtype=float).reshape(-1, m)
    uppers = np.array([up for _, up in bounds], dtype=float).reshape(-1, m)
    count = len(lowers)
    index = np.repeat(np.arange(count)[:, None], m, axis=1)
    return BoxDecomposition(np.concatenate([lowers, uppers]).T, index, index + count)


def decomposition_boxes(boxes):
    """The (lower, upper) float bound pairs of a core.BoxDecomposition's boxes, in order."""
    axes = np.arange(len(boxes.breaks))
    return [
        (tuple(boxes.breaks[axes, lo].tolist()), tuple(boxes.breaks[axes, up].tolist()))
        for lo, up in zip(boxes.lower, boxes.upper)
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


def open_strips(state):
    """The open strips of a SweepState as a 2-D decomposition, read off by closing a copy."""
    probe = copy.deepcopy(state)
    before = len(probe.boxes)
    probe.close(math.inf)
    return box_decomposition(
        [((lo1, probe.bottom), (up1, up2)) for lo1, up1, up2, _, _ in probe.boxes[before:]]
    )
