"""Randomized invariants. Each suite runs 1000 generated cases.

The acceptance module calls these functions directly, so every test here
must stay a zero-argument callable.
"""

import math
import operator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ehvi import (
    GaussianBelief,
    InvalidFrontError,
    Orientation,
    ProblemFrame,
    nondominated_filter,
    psi,
    validate_front,
)
from helpers import box_decomposition, box_sum, check_cross_sections, min_front
from oracles import brute_dominates, brute_nondominated, std_normal_cdf

CASES = settings(max_examples=1000, deadline=None)

finite = st.floats(allow_nan=False, allow_infinity=False)


@CASES
@given(
    a=st.floats(-20.0, 20.0),
    b=st.floats(-20.0, 20.0),
    mu=st.floats(-10.0, 10.0),
    sigma=st.floats(0.5, 5.0),
)
def test_psi_monotone_and_derivative(a, b, mu, sigma):
    lo, hi = min(a, b), max(a, b)
    assert psi(lo, mu, sigma) <= psi(hi, mu, sigma)

    h = 1e-5
    central = (psi(a + h, mu, sigma) - psi(a - h, mu, sigma)) / (2.0 * h)
    assert abs(central - std_normal_cdf((a - mu) / sigma)) <= 1e-6


@CASES
@given(
    m=st.integers(2, 3),
    data=st.data(),
)
def test_integrate_boxes_additive_and_bounded(m, data):
    mean = tuple(data.draw(st.floats(-5.0, 5.0)) for _ in range(m))
    sd = tuple(data.draw(st.floats(0.5, 3.0)) for _ in range(m))
    lower = tuple(
        mean[j] + data.draw(st.floats(-8.0, 7.5)) * sd[j] for j in range(m)
    )
    widths = tuple(data.draw(st.floats(0.1, 6.0)) for _ in range(m))
    upper = tuple(lower[j] + widths[j] for j in range(m))
    belief = GaussianBelief(mean, sd)

    whole = box_sum(box_decomposition([(lower, upper)], m), belief)
    assert 0.0 <= whole <= math.prod(widths) * (1.0 + 1e-12)

    axis = data.draw(st.integers(0, m - 1))
    t = data.draw(st.floats(0.05, 0.95))
    mid = lower[axis] + t * widths[axis]
    left_upper = tuple(mid if j == axis else upper[j] for j in range(m))
    right_lower = tuple(mid if j == axis else lower[j] for j in range(m))
    parts = box_sum(box_decomposition([(lower, left_upper), (right_lower, upper)], m), belief)
    assert math.isclose(whole, parts, rel_tol=1e-12, abs_tol=1e-300)


@CASES
@given(
    points=st.lists(
        st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(0, 5)),
        min_size=0,
        max_size=12,
    )
)
def test_nondominated_filter_invariants(points):
    pts = [tuple(float(c) for c in p) for p in points]
    front = nondominated_filter(pts)

    assert nondominated_filter(front) == front
    assert front == sorted(front)

    source = set(pts)
    for p in front:
        assert p in source
    for a in front:
        for b in front:
            assert not brute_dominates(a, b)
    for p in pts:
        assert p in set(front) or any(
            brute_dominates(q, p) or q == p for q in front
        )


@CASES
@given(
    count=st.integers(1, 10),
    data=st.data(),
)
def test_staircase_strips_consistent(count, data):
    mean = (data.draw(st.floats(-6.0, -1.0)), data.draw(st.floats(-6.0, -1.0)))
    sd = (data.draw(st.floats(0.5, 3.0)), data.draw(st.floats(0.5, 3.0)))
    points = [tuple(data.draw(st.floats(-8.0, -0.1)) for _ in range(3)) for _ in range(count)]
    front = min_front((0.0, 0.0, 0.0), brute_nondominated(points))
    check_cross_sections(front, GaussianBelief(mean, sd))


@CASES
@given(
    m=st.integers(2, 5),
    data=st.data(),
)
def test_orientation_involution_and_dominance(m, data):
    a = tuple(data.draw(st.floats(-100.0, 100.0)) for _ in range(m))
    b = tuple(data.draw(st.floats(-100.0, 100.0)) for _ in range(m))
    frames = {
        Orientation.MINIMIZE: ProblemFrame(m, (1000.0,) * m, Orientation.MINIMIZE),
        Orientation.MAXIMIZE: ProblemFrame(m, (-1000.0,) * m, Orientation.MAXIMIZE),
    }
    for orientation, frame in frames.items():
        maximize = orientation is Orientation.MAXIMIZE
        sign = -1.0 if maximize else 1.0
        # maximization negates the points, and negating again restores them
        internal = validate_front(frame, [a]).points[0]
        assert internal == tuple(sign * x for x in a)
        assert tuple(sign * x for x in internal) == a
        # a pair is rejected exactly when one point weakly dominates the
        # other in the user's orientation
        better = operator.ge if maximize else operator.le
        if all(map(better, a, b)) or all(map(better, b, a)):
            with pytest.raises(InvalidFrontError):
                validate_front(frame, [a, b])
        else:
            validate_front(frame, [a, b])
