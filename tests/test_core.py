"""Dominance, filtering, orientation, and front validation against brute-force oracles."""

import ast
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
    hypervolume_improvement,
    nondominated_filter,
    validate_front,
)
from ehvi.bench import generate_front
from ehvi.core import rank_form
from helpers import lattice_front, min_front, random_front
from oracles import brute_dominates, brute_hvi, brute_nondominated


def _dominates(a, b):
    """Whether the production pass drops b, and only b, from the pair {a, b}."""
    return a != b and nondominated_filter([a, b]) == [a]


def test_dominates_examples():
    assert _dominates((1.0, 2.0), (2.0, 2.0))
    assert _dominates((1.0, 2.0), (1.0, 3.0))
    assert not _dominates((1.0, 2.0), (1.0, 2.0))
    assert not _dominates((2.0, 1.0), (1.0, 2.0))
    assert not _dominates((1.0, 3.0), (3.0, 1.0))


def test_dominates_matches_brute_force():
    rng = np.random.default_rng(0)
    pts = [tuple(map(float, v)) for v in rng.integers(0, 4, size=(40, 3))]
    for a in pts[:20]:
        for b in pts[20:]:
            assert _dominates(a, b) == brute_dominates(a, b)


def test_dominates_relation_axioms():
    rng = np.random.default_rng(1)
    pts = [tuple(map(float, v)) for v in rng.integers(0, 3, size=(30, 3))]
    for a in pts:
        assert not _dominates(a, a)
    for a, b in itertools.combinations(pts, 2):
        assert not (_dominates(a, b) and _dominates(b, a))
    for a, b, c in itertools.combinations(pts, 3):
        if _dominates(a, b) and _dominates(b, c):
            assert _dominates(a, c)


def test_dominates_dimension_mismatch():
    with pytest.raises(DimensionError):
        nondominated_filter([(1.0, 2.0), (1.0, 2.0, 3.0)])


def test_filter_examples():
    assert nondominated_filter([(1, 3), (2, 2), (3, 1)]) == [(1, 3), (2, 2), (3, 1)]
    assert nondominated_filter([(1, 1), (2, 2)]) == [(1, 1)]
    assert nondominated_filter([(1, 2), (1, 2)]) == [(1, 2)]
    assert nondominated_filter([]) == []


def test_filter_matches_brute_force(monkeypatch):
    budgets = (ehvi.core._FILTER_BLOCK, 1000)
    # the 50-point sets take the Python pass with the threshold above them;
    # the default threshold comes last and stays set for the rest
    thresholds = (64, ehvi.core._NUMPY_FILTER_MIN)
    for m in (2, 3, 4):
        for threshold in thresholds:
            monkeypatch.setattr(ehvi.core, "_NUMPY_FILTER_MIN", threshold)
            for seed in range(5):
                rng = np.random.default_rng([m, seed])
                pts = [tuple(map(float, v)) for v in rng.integers(0, 6, size=(50, m))]
                out = nondominated_filter(pts)
                assert out == brute_nondominated(pts)
                assert all(type(x) is float for p in out for x in p)
        # above _NUMPY_FILTER_MIN distinct points the shared pass compares with numpy, in
        # one block and then, with a small block budget, in several;
        # integer inputs with repeats bring duplicates and dominated points
        for block in budgets:
            monkeypatch.setattr(ehvi.core, "_FILTER_BLOCK", block)
            for seed in range(3):
                rng = np.random.default_rng([m, seed, 48])
                pts = [tuple(v) for v in rng.integers(0, 12, size=(300, m)).tolist()]
                pts += pts[:40]
                assert len(set(pts)) > ehvi.core._NUMPY_FILTER_MIN
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
        assert not brute_dominates(a, b) and not brute_dominates(b, a)


def test_filter_idempotent():
    rng = np.random.default_rng(3)
    pts = [tuple(map(float, v)) for v in rng.integers(0, 5, size=(60, 3))]
    once = nondominated_filter(pts)
    assert nondominated_filter(once) == once


def test_rank_form_worked_example():
    # points and reference as plain lists; axis 3 has the tied coordinate 2
    points = [[1, 3, 2], [2, 1, 2], [3, 2, 1]]
    breaks, ranks = rank_form(points, [4, 5, 6])
    assert breaks.tolist() == [
        [-math.inf, 1.0, 2.0, 3.0, 4.0],
        [-math.inf, 1.0, 2.0, 3.0, 5.0],
        [-math.inf, 1.0, 2.0, 2.0, 6.0],
    ]
    assert ranks.tolist() == [[1, 3, 2], [2, 1, 2], [3, 2, 1]]
    assert ranks[0, 2] == ranks[1, 2]  # the tie takes the rank of its first copy
    assert breaks[np.arange(3), ranks].tolist() == points


def test_rank_form_empty_front():
    breaks, ranks = rank_form([], (4.0, 5.0, 6.0))
    assert breaks.shape == (3, 2)
    assert breaks.tolist() == [[-math.inf, 4.0], [-math.inf, 5.0], [-math.inf, 6.0]]
    assert ranks.shape == (0, 3)


def _internal(frame, p):
    """p in the frame's internal minimization convention: maximization negates."""
    return tuple(-x for x in p) if frame.orientation is Orientation.MAXIMIZE else tuple(p)


def test_orientation_examples():
    frame = ProblemFrame(2, (0.0, 0.0), Orientation.MAXIMIZE)
    assert validate_front(frame, [(0.1, 10.0)]).points == ((-0.1, -10.0),)
    assert frame.internal_reference == (0.0, 0.0)
    mini = ProblemFrame(2, (9.0, 9.0))
    assert validate_front(mini, [(3.0, 4.0)]).points == ((3.0, 4.0),)
    assert mini.internal_reference == (9.0, 9.0)


def test_orientation_involution():
    # maximizing a point is minimizing its negation, and negating twice restores it
    frame = ProblemFrame(3, (-5.0, -5.0, -5.0), Orientation.MAXIMIZE)
    mirror = ProblemFrame(3, (5.0, 5.0, 5.0))
    assert frame.internal_reference == mirror.reference
    rng = np.random.default_rng(4)
    for v in rng.normal(size=(20, 3)):
        v = tuple(map(float, v))
        neg = tuple(-x for x in v)
        assert validate_front(frame, [v]).points == validate_front(mirror, [neg]).points == (neg,)
        assert validate_front(frame, [neg]).points == (v,)


def test_orientation_preserves_dominance():
    frame = ProblemFrame(3, (0.0, 0.0, 0.0), Orientation.MAXIMIZE)
    rng = np.random.default_rng(5)
    pts = [tuple(map(float, v)) for v in rng.integers(1, 5, size=(30, 3))]
    for a in pts[:15]:
        for b in pts[15:]:
            max_dominates = a != b and all(x >= y for x, y in zip(a, b))
            assert max_dominates == brute_dominates(_internal(frame, a), _internal(frame, b))
            if a == b or max_dominates or all(x <= y for x, y in zip(a, b)):
                with pytest.raises(InvalidFrontError):
                    validate_front(frame, [a, b])
            else:
                validate_front(frame, [a, b])


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


def _named_pair(message):
    """The two points a validation message names, in the order it names them."""
    a, b = message.split(": ", 1)[1].replace(" dominates ", " and ").split(" and ")
    return ast.literal_eval(a), ast.literal_eval(b)


@pytest.mark.parametrize("orientation", list(Orientation))
def test_validate_front_numpy_branch(monkeypatch, orientation):
    # above _NUMPY_FILTER_MIN points the dominance pass compares in numpy
    # blocks; a small block budget gives many of them
    monkeypatch.setattr(ehvi.core, "_FILTER_BLOCK", 500)
    sign = 1.0 if orientation is Orientation.MAXIMIZE else -1.0
    user = [tuple(sign * x for x in p) for p in generate_front(3, 120, 21)]
    assert len(user) > ehvi.core._NUMPY_FILTER_MIN
    frame = ProblemFrame(3, (0.0, 0.0, 0.0), orientation)
    assert validate_front(frame, user).points == tuple(_internal(frame, p) for p in user)

    with pytest.raises(InvalidFrontError, match="duplicate") as exc:
        validate_front(frame, user[:60] + [user[7]] + user[60:])
    assert _named_pair(str(exc.value)) == (user[7], user[7])

    rng = np.random.default_rng(22)
    for trial in range(20):
        pts = list(user)
        k = int(rng.integers(len(pts)))
        if trial % 2:
            pts[k] = tuple(0.5 * x for x in pts[k])  # strictly worse than the point it replaces
        else:
            pts[k] = tuple(sign * x for x in rng.uniform(0.1, 10.0, 3))
        internal = [_internal(frame, p) for p in pts]
        bad = any(brute_dominates(a, b) for a, b in itertools.permutations(internal, 2))
        if not bad:
            validate_front(frame, pts)
            continue
        with pytest.raises(InvalidFrontError, match="not mutually nondominated") as exc:
            validate_front(frame, pts)
        a, b = _named_pair(str(exc.value))
        assert a in pts and b in pts
        assert brute_dominates(_internal(frame, a), _internal(frame, b))


def test_validate_front_maximize_negates():
    frame = ProblemFrame(2, (0.0, 0.0), Orientation.MAXIMIZE)
    front = validate_front(frame, [(1.0, 3.0), (3.0, 1.0)])
    assert front.points == ((-1.0, -3.0), (-3.0, -1.0))
    assert front.reference == (0.0, 0.0)
    # int and float32 input come out as exact floats, in either orientation
    for f in (frame, ProblemFrame(2, (4.0, 4.0))):
        mixed = validate_front(f, [(1, np.float32(3.5)), (np.float32(3.25), 2)]).points
        assert [[type(x) for x in p] for p in mixed] == [[float, float]] * 2


def test_hvi_worked_example():
    front = min_front((4.0, 4.0), [(1, 3), (3, 1)])
    assert hypervolume_improvement((2.0, 2.0), front) == 1.0
    assert hypervolume_improvement((1.0, 3.0), front) == 0.0
    assert hypervolume_improvement((5.0, 5.0), front) == 0.0


def test_hvi_dimension_mismatch():
    front = min_front((4.0, 4.0), [(1, 3)])
    with pytest.raises(DimensionError):
        hypervolume_improvement((1.0, 2.0, 3.0), front)


def _hvi_fronts():
    # m >= 4 runs the splitting sweep; the lattice front ties coordinates on every axis
    cases = [(2, 5, 0), (2, 8, 1), (3, 5, 2), (3, 7, 3), (4, 6, 4), (5, 6, 5)]
    return [random_front(m, n, seed) for m, n, seed in cases] + [lattice_front(3, 1, 8)]


def _hvi_candidates(front, rng, k, lo, hi):
    """k uniform draws in [lo, hi)^m, plus k lattice draws that tie front coordinates."""
    ys = [tuple(rng.uniform(lo, hi, front.m)) for _ in range(k)]
    ys += [tuple(float(-v) for v in rng.integers(1, 10, front.m)) for _ in range(k)]
    return ys


def test_hvi_matches_inclusion_exclusion():
    for seed, front in enumerate(_hvi_fronts()):
        rng = np.random.default_rng([9, seed])
        for y in _hvi_candidates(front, rng, 25, -9.9, -0.2):
            got = hypervolume_improvement(y, front)
            want = brute_hvi(y, front.points, front.reference)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_hvi_zero_iff_weakly_dominated_or_outside():
    fronts = [random_front(3, 6, 11)] + _hvi_fronts()[-3:]
    for seed, front in enumerate(fronts):
        rng = np.random.default_rng(12 + seed)
        ys = _hvi_candidates(front, rng, 50, -11.0, 1.0)
        # members and points one axis behind a member are weakly dominated
        ys += front.points + tuple(p[:-1] + (p[-1] + 0.5,) for p in front.points)
        for y in ys:
            got = hypervolume_improvement(y, front)
            outside = not all(x < r for x, r in zip(y, front.reference))
            covered = any(all(a <= x for a, x in zip(p, y)) for p in front.points)
            if outside or covered:
                assert got == 0.0
            else:
                assert got > 0.0
