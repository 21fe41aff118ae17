"""Shared builders for test inputs."""

import copy
import math

import numpy as np

from ehvi import GaussianBelief, HyperBox, ProblemFrame, validate_front
from ehvi.bench import benchmark_frame, generate_front
from ehvi.gaussian import box_integral


def random_front(m, n, seed):
    """Validated front from the benchmark generator (maximize [0.1,10]^m, r=0)."""
    return validate_front(benchmark_frame(m), generate_front(m, n, seed))


def min_front(reference, points):
    """Validated minimization front against an explicit reference."""
    frame = ProblemFrame(m=len(reference), reference=reference)
    return validate_front(frame, points)


def random_belief(m, seed, mean_lo=-12.0, mean_hi=-2.0, sd_lo=0.5, sd_hi=4.0):
    rng = np.random.default_rng(seed)
    return GaussianBelief(
        mean=tuple(rng.uniform(mean_lo, mean_hi, m)),
        stddev=tuple(rng.uniform(sd_lo, sd_hi, m)),
    )


def slab_integral(keys, vals, reference, belief2):
    """From-scratch staircase cross-section integral as disjoint vertical slabs."""
    r1, r2 = reference
    total = 0.0
    for i, (k, v) in enumerate(zip(keys, vals)):
        nxt = keys[i + 1] if i + 1 < len(keys) else r1
        total += box_integral(HyperBox((k, v), (nxt, r2)), belief2)
    return total


def open_strips(state):
    """The open strips of a SweepState as 2-D boxes, read off by closing a copy."""
    probe = copy.deepcopy(state)
    before = len(probe.boxes)
    probe.close(math.inf)
    return [HyperBox((lo1, probe.bottom), (up1, up2)) for lo1, up1, up2, _, _ in probe.boxes[before:]]


def decomposition_boxes(boxes):
    """The HyperBoxes of a clm3 BoxDecomposition."""
    return [
        HyperBox(
            tuple(float(axis[i]) for axis, i in zip(boxes.breaks, lo)),
            tuple(float(axis[i]) for axis, i in zip(boxes.breaks, up)),
        )
        for lo, up in zip(boxes.lower, boxes.upper)
    ]
