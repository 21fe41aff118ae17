"""Dominance, filtering, orientation, and front validation against brute-force oracles."""

import itertools
import math

import numpy as np
import pytest

import ehvi.core
from ehvi import (
    DimensionError,
    InvalidFrontError,
    Orientation,
    ParameterError,
    ProblemFrame,
    ReferenceBoundError,
    UnsupportedDimensionError,
    dominates,
    from_internal,
    hypervolume_improvement,
    nondominated_filter,
    to_internal,
    validate_front,
)
from helpers import min_front, random_front
from oracles import brute_dominates, brute_hvi, brute_nondominated


def test_dominates_examples():
    assert dominates((1.0, 2.0), (2.0, 2.0))
    assert dominates((1.0, 2.0), (1.0, 3.0))
    assert not dominates((1.0, 2.0), (1.0, 2.0))
    assert not dominates((2.0, 1.0), (1.0, 2.0))
    assert not dominates((1.0, 3.0), (3.0, 1.0))


def test_dominates_matches_brute_force():
    rng = np.random.default_rng(0)
    pts = [tuple(map(float, v)) for v in rng.integers(0, 4, size=(40, 3))]
    for a in pts[:20]:
        for b in pts[20:]:
            assert dominates(a, b) == brute_dominates(a, b)


def test_dominates_relation_axioms():
    rng = np.random.default_rng(1)
    pts = [tuple(map(float, v)) for v in rng.integers(0, 3, size=(30, 3))]
    for a in pts:
        assert not dominates(a, a)
    for a, b in itertools.combinations(pts, 2):
        assert not (dominates(a, b) and dominates(b, a))
    for a, b, c in itertools.combinations(pts, 3):
        if dominates(a, b) and dominates(b, c):
            assert dominates(a, c)


def test_dominates_dimension_mismatch():
    with pytest.raises(DimensionError):
        dominates((1.0, 2.0), (1.0, 2.0, 3.0))


def test_filter_examples():
    assert nondominated_filter([(1, 3), (2, 2), (3, 1)]) == [(1, 3), (2, 2), (3, 1)]
    assert nondominated_filter([(1, 1), (2, 2)]) == [(1, 1)]
    assert nondominated_filter([(1, 2), (1, 2)]) == [(1, 2)]
    assert nondominated_filter([]) == []


def test_filter_matches_brute_force(monkeypatch):
    budgets = (ehvi.core._FILTER_BLOCK, 1000)
    for m in (2, 3, 4):
        for seed in range(5):
            rng = np.random.default_rng([m, seed])
            pts = [tuple(map(float, v)) for v in rng.integers(0, 6, size=(50, m))]
            out = nondominated_filter(pts)
            assert out == brute_nondominated(pts)
            assert all(type(x) is float for p in out for x in p)
        # above 48 distinct points the shared pass compares with numpy, in
        # one block and then, with a small block budget, in several;
        # integer inputs with repeats bring duplicates and dominated points
        for block in budgets:
            monkeypatch.setattr(ehvi.core, "_FILTER_BLOCK", block)
            for seed in range(3):
                rng = np.random.default_rng([m, seed, 48])
                pts = [tuple(v) for v in rng.integers(0, 12, size=(300, m)).tolist()]
                pts += pts[:40]
                assert len(set(pts)) > 48
                out = nondominated_filter(pts)
                assert out == brute_nondominated(pts)
                assert all(type(x) is float for p in out for x in p)


def test_filter_output_sorted_and_mutually_nondominated():
    rng = np.random.default_rng(2)
    pts = [tuple(map(float, v)) for v in rng.integers(0, 8, size=(80, 3))]
    out = nondominated_filter(pts)
    assert out == sorted(out)
    assert len(set(out)) == len(out)
    for a, b in itertools.combinations(out, 2):
        assert not dominates(a, b) and not dominates(b, a)


def test_filter_idempotent():
    rng = np.random.default_rng(3)
    pts = [tuple(map(float, v)) for v in rng.integers(0, 5, size=(60, 3))]
    once = nondominated_filter(pts)
    assert nondominated_filter(once) == once


def test_orientation_examples():
    frame = ProblemFrame(2, (0.0, 0.0), Orientation.MAXIMIZE)
    assert to_internal(frame, (0.1, 10.0)) == (-0.1, -10.0)
    assert frame.internal_reference == (0.0, 0.0)
    mini = ProblemFrame(2, (9.0, 9.0))
    assert to_internal(mini, (3.0, 4.0)) == (3.0, 4.0)
    assert mini.internal_reference == (9.0, 9.0)


def test_orientation_involution():
    frame = ProblemFrame(3, (1.0, 2.0, 3.0), Orientation.MAXIMIZE)
    rng = np.random.default_rng(4)
    for v in rng.normal(size=(20, 3)):
        v = tuple(map(float, v))
        assert to_internal(frame, from_internal(frame, v)) == v
        assert from_internal(frame, to_internal(frame, v)) == v


def test_orientation_preserves_dominance():
    frame = ProblemFrame(3, (0.0, 0.0, 0.0), Orientation.MAXIMIZE)
    rng = np.random.default_rng(5)
    pts = [tuple(map(float, v)) for v in rng.integers(1, 5, size=(30, 3))]
    for a in pts[:15]:
        for b in pts[15:]:
            max_dominates = a != b and all(x >= y for x, y in zip(a, b))
            assert max_dominates == dominates(to_internal(frame, a), to_internal(frame, b))


def test_frame_validation():
    with pytest.raises(UnsupportedDimensionError):
        ProblemFrame(1, (0.0,))
    with pytest.raises(DimensionError):
        ProblemFrame(3, (0.0, 0.0))
    with pytest.raises(ParameterError):
        ProblemFrame(2, (0.0, math.inf))


def test_validate_front_examples():
    front = min_front((4.0, 4.0), [(1, 3), (3, 1)])
    assert front.n == 2 and front.m == 2
    assert front.points == ((1.0, 3.0), (3.0, 1.0))
    with pytest.raises(InvalidFrontError):
        min_front((4.0, 4.0), [(1, 1), (2, 2)])
    with pytest.raises(ReferenceBoundError):
        min_front((2.0, 2.0), [(3, 1)])


def test_validate_front_rejects_duplicates_and_boundary_points():
    with pytest.raises(InvalidFrontError):
        min_front((4.0, 4.0), [(1, 3), (1, 3)])
    # equality with the reference in any coordinate is already outside
    with pytest.raises(ReferenceBoundError):
        min_front((2.0, 2.0), [(1, 2)])
    with pytest.raises(InvalidFrontError):
        min_front((4.0, 4.0), [(1, math.nan)])
    with pytest.raises(DimensionError):
        min_front((4.0, 4.0), [(1, 2, 3)])


def test_validate_front_maximize_negates():
    frame = ProblemFrame(2, (0.0, 0.0), Orientation.MAXIMIZE)
    front = validate_front(frame, [(1.0, 3.0), (3.0, 1.0)])
    assert front.points == ((-1.0, -3.0), (-3.0, -1.0))
    assert front.reference == (0.0, 0.0)


def test_hvi_worked_example():
    front = min_front((4.0, 4.0), [(1, 3), (3, 1)])
    assert hypervolume_improvement((2.0, 2.0), front) == 1.0
    assert hypervolume_improvement((1.0, 3.0), front) == 0.0
    assert hypervolume_improvement((5.0, 5.0), front) == 0.0


def test_hvi_dimension_mismatch():
    front = min_front((4.0, 4.0), [(1, 3)])
    with pytest.raises(DimensionError):
        hypervolume_improvement((1.0, 2.0, 3.0), front)


def test_hvi_matches_inclusion_exclusion():
    for m, n, seed in [(2, 5, 0), (2, 8, 1), (3, 5, 2), (3, 7, 3)]:
        front = random_front(m, n, seed)
        rng = np.random.default_rng([9, seed])
        for _ in range(25):
            y = tuple(rng.uniform(-9.9, -0.2, m))
            got = hypervolume_improvement(y, front)
            want = brute_hvi(y, front.points, front.reference)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_hvi_zero_iff_weakly_dominated_or_outside():
    front = random_front(3, 6, 11)
    rng = np.random.default_rng(12)
    for _ in range(50):
        y = tuple(rng.uniform(-11.0, 1.0, 3))
        got = hypervolume_improvement(y, front)
        outside = not all(x < r for x, r in zip(y, front.reference))
        covered = any(all(a <= x for a, x in zip(p, y)) for p in front.points)
        if outside or covered:
            assert got == 0.0
        else:
            assert got > 0.0
