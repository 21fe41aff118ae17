"""Grid decomposition: H-array construction, cell emission, and grid EHVI."""

import itertools
import math

import numpy as np
import pytest

import ehvi.grid
from ehvi import (
    DimensionError,
    GaussianBelief,
    ParameterError,
    ProblemFrame,
    compute_ehvi_batch,
    ehvi_grid,
    ehvi_wfg,
    hypervolume,
    validate_front,
)
from ehvi.core import HyperBox
from ehvi.gaussian import box_integral
from ehvi.grid import build_grid, grid_decompose
from helpers import min_front, random_belief, random_front
from oracles import brute_hypervolume


def test_build_grid_worked_example():
    g = build_grid(min_front((4.0, 4.0), [(1, 3), (2, 2), (3, 1)]))
    assert g.m == 2 and g.n == 3
    assert list(g.axes[0]) == [-math.inf, 1.0, 2.0, 3.0, 4.0]
    assert list(g.axes[1]) == [-math.inf, 1.0, 2.0, 3.0, 4.0]
    # lower-bound ranks -inf, 1, 2, 3 of axis 1
    assert list(g.h_array) == [math.inf, 3.0, 2.0, 1.0]


def test_build_grid_empty_front():
    g = build_grid(min_front((4.0, 5.0, 6.0), []))
    assert g.h_array.shape == (1, 1)
    assert np.isinf(g.h_array).all()
    assert list(g.axes[2]) == [-math.inf, 6.0]


def test_build_grid_single_point():
    g = build_grid(min_front((4.0, 4.0, 4.0), [(1, 2, 3)]))
    assert g.h_array.shape == (2, 2)
    assert g.h_array[0, 0] == math.inf and g.h_array[0, 1] == math.inf
    assert g.h_array[1, 0] == math.inf
    assert g.h_array[1, 1] == 3.0


def test_decompose_empty_front():
    decomp = grid_decompose(min_front((4.0, 4.0), []))
    assert decomp == (HyperBox((-math.inf, -math.inf), (4.0, 4.0)),)


def test_decompose_worked_example():
    decomp = grid_decompose(min_front((4.0, 4.0), [(2, 2)]))
    got = {(b.lower, b.upper) for b in decomp}
    assert got == {
        ((-math.inf, -math.inf), (2.0, 2.0)),
        ((-math.inf, 2.0), (2.0, 4.0)),
        ((2.0, -math.inf), (4.0, 2.0)),
    }


def test_decompose_union_volume_matches_hypervolume_complement():
    for seed in range(4):
        front = random_front(3, 5, seed)
        ref = front.reference
        clip = tuple(min(p[j] for p in front.points) - 1.0 for j in range(3))
        total = 0.0
        for b in grid_decompose(front):
            vol = 1.0
            for lo, up, c in zip(b.lower, b.upper, clip):
                vol *= up - max(lo, c)
            total += vol
        box_vol = math.prod(r - c for r, c in zip(ref, clip))
        expected = box_vol - brute_hypervolume(front.points, ref)
        assert total == pytest.approx(expected, rel=1e-9)


def test_decompose_disjoint_cover_by_sampling():
    for m, n, seed in [(2, 4, 0), (2, 6, 1), (3, 4, 2), (3, 6, 3)]:
        front = random_front(m, n, seed)
        g = build_grid(front)
        emitted = {(b.lower, b.upper) for b in grid_decompose(front)}
        for idx in itertools.product(range(n + 1), repeat=m):
            lower = tuple(float(g.axes[j][idx[j]]) for j in range(m))
            upper = tuple(float(g.axes[j][idx[j] + 1]) for j in range(m))
            if any(lo == up for lo, up in zip(lower, upper)):
                continue
            finite_lo = tuple(
                lo if math.isfinite(lo) else up - 1.0 for lo, up in zip(lower, upper)
            )
            mid = tuple((a + b) / 2.0 for a, b in zip(finite_lo, upper))
            covered = any(all(p[j] <= mid[j] for j in range(m)) for p in front.points)
            if (lower, upper) in emitted:
                assert not covered, (lower, upper, mid)
            else:
                assert covered, (lower, upper, mid)


def test_ehvi_grid_empty_front_is_full_region():
    std = GaussianBelief((0.0, 0.0), (1.0, 1.0))
    res = ehvi_grid(min_front((0.0, 0.0), []), std)
    assert res.value == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-15)
    assert res.boxes == 1


def test_ehvi_grid_deeply_dominated_mean_is_negligible():
    front = random_front(3, 5, 9)
    anchor = front.points[2]
    belief = GaussianBelief(tuple(a + 3.0 for a in anchor), (0.1, 0.1, 0.1))
    assert ehvi_grid(front, belief).value <= 1e-6


def test_ehvi_grid_equals_decomposition_sum():
    for m, n, seed in [(2, 6, 0), (2, 1, 1), (3, 5, 2), (4, 4, 3)]:
        front = random_front(m, n, seed)
        belief = random_belief(m, seed)
        res = ehvi_grid(front, belief)
        boxes = grid_decompose(front)
        total = sum(box_integral(b, belief) for b in boxes)
        assert res.value == pytest.approx(total, rel=1e-12)
        assert res.boxes == len(boxes)


def test_ehvi_grid_box_count_bound():
    for m, n, seed in [(2, 7, 0), (3, 5, 1), (4, 3, 2)]:
        front = random_front(m, n, seed)
        res = ehvi_grid(front, random_belief(m, seed))
        assert res.boxes <= (n + 1) ** m
        # continuous draws give distinct coordinates, so at least one cell
        # (the all-points-corner one) must be dominated
        assert res.boxes < (n + 1) ** m


def test_ehvi_grid_removal_monotonicity():
    front = random_front(3, 6, 13)
    belief = random_belief(3, 13)
    base = ehvi_grid(front, belief).value
    frame = ProblemFrame(3, front.reference)
    for drop in range(front.n):
        rest = [p for i, p in enumerate(front.points) if i != drop]
        sub = validate_front(frame, rest)
        assert ehvi_grid(sub, belief).value >= base * (1.0 - 1e-12)


def test_ehvi_grid_dimension_mismatch():
    with pytest.raises(DimensionError):
        ehvi_grid(random_front(3, 4, 0), GaussianBelief((0.0, 0.0), (1.0, 1.0)))


def test_ehvi_grid_chunked_path_matches(monkeypatch):
    front = random_front(3, 8, 17)
    belief = random_belief(3, 17)
    whole = ehvi_grid(front, belief)
    monkeypatch.setattr(ehvi.grid, "_CHUNK", 16)
    chunked = ehvi_grid(front, belief)
    assert chunked.value == pytest.approx(whole.value, rel=1e-12)
    assert chunked.boxes == whole.boxes


def test_ehvi_grid_matches_wfg_quick():
    for m, n, seed in [(2, 10, 0), (3, 12, 1), (4, 6, 2)]:
        front = random_front(m, n, seed)
        belief = random_belief(m, seed + 50)
        a = ehvi_grid(front, belief).value
        b = ehvi_wfg(front, belief).value
        assert a == pytest.approx(b, rel=1e-11)


def test_grid_cell_budget(monkeypatch):
    # the largest grid the README's `ehvi bench` command runs fits
    assert 301**3 <= ehvi.grid._MAX_CELLS
    front = random_front(3, 4, 0)  # 5^3 cells
    belief = random_belief(3, 0)
    monkeypatch.setattr(ehvi.grid, "_MAX_CELLS", 5**3)
    ehvi_grid(front, belief)
    monkeypatch.setattr(ehvi.grid, "_MAX_CELLS", 5**3 - 1)
    with pytest.raises(ParameterError, match="budget"):
        ehvi_grid(front, belief)
    with pytest.raises(ParameterError, match="budget"):
        compute_ehvi_batch(front, [belief.mean], [belief.stddev], "grid")
