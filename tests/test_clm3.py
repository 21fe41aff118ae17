"""The m=3 staircase sweep of ehvi.clm3: its cross-sections, box emission, EHVI.

The sweep backend integrates these boxes at m=3, so EHVI is tested through ehvi_sweep.
"""

import math

import numpy as np
import pytest

import ehvi.grid
from ehvi import (
    DimensionError,
    GaussianBelief,
    UnsupportedDimensionError,
    compute_ehvi_batch,
    ehvi_grid,
    ehvi_sweep,
    ehvi_wfg,
    psi,
    validate_front,
)
from ehvi import ProblemFrame
from ehvi.clm3 import nondominated_boxes
from ehvi.core import BoxDecomposition, Front
from helpers import (
    box_sum,
    check_cross_sections,
    cross_section,
    decomposition_boxes,
    lattice_front,
    min_front,
    random_belief,
    random_front,
)
from oracles import full_region_integral, union_box_integral


def test_empty_staircase_insert_delta():
    a, b, c = -3.0, -1.5, -2.0
    boxes = nondominated_boxes(min_front((0.0, 0.0, 0.0), [(a, b, c)]))
    # the initial strip (the whole quadrant) closes at the point's level
    assert decomposition_boxes(boxes)[0] == ((-math.inf,) * 3, (0.0, 0.0, c))
    above = cross_section(boxes, 2)
    assert decomposition_boxes(above) == [
        ((-math.inf, -math.inf), (a, 0.0)),
        ((a, -math.inf), (0.0, b)),
    ]
    belief = random_belief(2, 0)
    (m1, m2), (s1, s2) = belief.mean, belief.stddev
    # the cross-section lost to the point is the box (a, r1] x (b, r2]
    lost = (psi(0.0, m1, s1) - psi(a, m1, s1)) * (psi(0.0, m2, s2) - psi(b, m2, s2))
    full = psi(0.0, m1, s1) * psi(0.0, m2, s2)
    assert box_sum(above, belief) + lost == pytest.approx(full, rel=1e-14)


def test_reinsert_and_dominated_insert_are_no_ops():
    # a Front built without validate_front lets a copy and dominated points reach the sweep
    frame = ProblemFrame(3, (0.0, 0.0, 0.0))
    points = ((-3.0, -2.0, -4.0), (-1.0, -4.0, -3.0))
    extra = ((-3.0, -2.0, -4.0), (-2.0, -1.0, -1.0), (-3.0, -2.0, -2.0), (-1.0, -3.0, -3.0))
    want = decomposition_boxes(nondominated_boxes(Front(frame, points)))
    assert decomposition_boxes(nondominated_boxes(Front(frame, points + extra))) == want


def test_open_strips_match_slab_recomputation():
    fronts = [random_front(3, n, seed) for n, seed in [(1, 3), (8, 4), (20, 5)]]
    fronts += [lattice_front(3, seed, n=12) for seed in range(3)]
    for k, front in enumerate(fronts):
        check_cross_sections(front, random_belief(2, k + 3))


def test_nondominated_cross_section_only_shrinks():
    rng = np.random.default_rng(22)
    samples = rng.uniform(-11.0, 0.0, (400, 2))
    for front in [random_front(3, 30, 22), lattice_front(3, 4)]:
        boxes = nondominated_boxes(front)

        def inside(level):
            strips = decomposition_boxes(cross_section(boxes, level))
            return {
                i
                for i, (x, y) in enumerate(samples)
                if any(lo[0] < x <= up[0] and y <= up[1] for lo, up in strips)
            }

        prev = inside(1)
        assert len(prev) == len(samples)
        for level in range(2, front.n + 2):
            now = inside(level)
            assert now <= prev
            # a sample leaves the cross-section exactly when a point below covers it
            height = boxes.breaks[2, level - 1]
            covered = {i for i, s in enumerate(samples) if any(
                p[0] <= s[0] and p[1] <= s[1] for p in front.points if p[2] <= height)}
            assert now == set(range(len(samples))) - covered
            prev = now


def test_ehvi_clm3_empty_front():
    frame = ProblemFrame(3, (0.0, 0.0, 0.0))
    belief = GaussianBelief((0.0,) * 3, (1.0,) * 3)
    res = ehvi_sweep(validate_front(frame, []), belief)
    assert res.value == full_region_integral(frame, belief)
    assert res.boxes == 1  # the whole region below the reference


def test_ehvi_clm3_single_point_analytic():
    a = (-4.0, -3.0, -2.0)
    front = min_front((0.0, 0.0, 0.0), [a])
    belief = random_belief(3, 4)
    full = full_region_integral(front.frame, belief)
    dominated = math.prod(
        psi(0.0, belief.mean[j], belief.stddev[j]) - psi(a[j], belief.mean[j], belief.stddev[j])
        for j in range(3)
    )
    res = ehvi_sweep(front, belief)
    assert res.value == pytest.approx(full - dominated, rel=1e-12)
    assert res.boxes == 3  # the region below the point's level, and two strips above it


@pytest.mark.filterwarnings("error")
def test_overflowing_box_factors_give_inf_not_nan(monkeypatch):
    # psi differences round to 0 on some axes while the other factors overflow
    fronts = [
        [(-1.0, -2.0), (-2.0, -1.0)],
        [(-1.0, -2.0, -3.0), (-3.0, -1.0, -2.0)],
        [(-1.0, -2.0, -3.0, -4.0), (-4.0, -3.0, -1.0, -2.0), (-2.0, -4.0, -1.0, -3.0)],
    ]
    for points in fronts:
        m = len(points[0])
        front = min_front((0.0,) * m, points)
        belief = GaussianBelief((-1e308,) * m, (1e308,) * m)
        for backend in (ehvi_sweep, ehvi_wfg, ehvi_grid):
            assert backend(front, belief).value == math.inf, (backend.__name__, m)
        # grid in blocks: the leading axes' factors multiply as scalars
        with monkeypatch.context() as patch:
            patch.setattr(ehvi.grid, "_CHUNK", 8)
            assert ehvi_grid(front, belief).value == math.inf, m


def test_ehvi_clm3_wrong_dimensions():
    with pytest.raises(UnsupportedDimensionError):
        nondominated_boxes(random_front(2, 4, 0))
    with pytest.raises(DimensionError):
        ehvi_sweep(random_front(3, 4, 0), GaussianBelief((0.0, 0.0), (1.0, 1.0)))
    with pytest.raises(UnsupportedDimensionError):
        nondominated_boxes(random_front(4, 4, 0))


def test_emitted_boxes_integrate_to_full_minus_dominated():
    for seed in range(4):
        front = random_front(3, 12, seed)
        belief = random_belief(3, seed + 70)
        boxes = nondominated_boxes(front)
        assert len(boxes.lower) <= 2 * front.n + 1
        assert all(lo < up for b in decomposition_boxes(boxes) for lo, up in zip(*b))
        parts = [
            box_sum(BoxDecomposition(boxes.breaks, boxes.lower[[b]], boxes.upper[[b]]), belief)
            for b in range(len(boxes.lower))
        ]
        assert all(v >= 0.0 for v in parts)
        dominated = union_box_integral(front.points, front.reference, belief.mean, belief.stddev)
        full = full_region_integral(front.frame, belief)
        assert math.fsum(parts) == pytest.approx(full - dominated, rel=1e-12)
        assert ehvi_sweep(front, belief).value == pytest.approx(math.fsum(parts), rel=1e-12)


def test_boxes_disjoint_cover_nondominated_region():
    fronts = [random_front(3, 15, 5), lattice_front(3, 0), min_front((0.0, 0.0, 0.0), [])]
    rng = np.random.default_rng(23)
    for front in fronts:
        boxes = decomposition_boxes(nondominated_boxes(front))
        ref = front.reference
        for y in rng.uniform(-11.0, 0.0, (500, 3)):
            hits = sum(all(a < v <= b for a, v, b in zip(lo, y, up)) for lo, up in boxes)
            dominated = any(all(p <= v for p, v in zip(pt, y)) for pt in front.points)
            inside = all(v <= r for v, r in zip(y, ref))
            assert hits == (1 if inside and not dominated else 0)


def test_box_count_bound():
    for n, seed in [(10, 0), (50, 1), (120, 2)]:
        front = random_front(3, n, seed)
        assert all(len({p[j] for p in front.points}) == n for j in range(3))
        boxes = len(nondominated_boxes(front).lower)
        assert boxes == 2 * n + 1  # distinct coordinates: every point closes one strip more than it removes
        assert ehvi_sweep(front, random_belief(3, seed + 80)).boxes == boxes
    # shared coordinates: fewer boxes, and a staircase that kept the entries a
    # point weakly dominates (a shared value) would split more strips than these
    counts = [len(nondominated_boxes(lattice_front(3, seed)).lower) for seed in range(6)]
    assert counts == [32, 32, 32, 34, 31, 30]
    assert max(counts) <= 2 * 25 + 1


def test_tied_levels_order_invariant():
    pts = [(-1.0, -5.0, -3.0), (-2.0, -4.0, -3.0), (-3.0, -3.0, -3.0), (-4.0, -1.0, -2.0)]
    frame = ProblemFrame(3, (0.0, 0.0, 0.0))
    belief = random_belief(3, 5)
    values = []
    orders = [pts, pts[::-1], [pts[2], pts[0], pts[3], pts[1]]]
    for order in orders:
        front = validate_front(frame, order)
        values.append(ehvi_sweep(front, belief).value)
    assert values[0] == pytest.approx(values[1], rel=1e-12)
    assert values[0] == pytest.approx(values[2], rel=1e-12)
    reference = ehvi_grid(validate_front(frame, pts), belief).value
    assert values[0] == pytest.approx(reference, rel=1e-11)


def test_cross_backend_agreement_small():
    for n, seed in [(1, 0), (10, 1), (25, 2)]:
        front = random_front(3, n, seed)
        belief = random_belief(3, seed + 90)
        c = ehvi_sweep(front, belief).value
        g = ehvi_grid(front, belief).value
        w = ehvi_wfg(front, belief).value
        assert c == pytest.approx(g, rel=1e-11)
        assert c == pytest.approx(w, rel=1e-11)


def test_deep_tail_agreement_with_grid():
    """Beliefs in or behind the front: the m=3 sweep and the batch path match grid at 1e-10.

    Means are drawn from [-10, -0.2] and stddevs from [0.1, 2.5], so EHVI is
    tiny next to the full-region integral and computing it as full minus
    dominated would cancel. test_sweep.py gates m = 2, 4 and 5 the same way.
    """
    fronts = [random_front(3, n, seed) for n, seed in [(5, 0), (20, 1), (40, 2)]]
    fronts += [lattice_front(3, seed) for seed in range(3)]
    for k, front in enumerate(fronts):
        if k >= 3:
            assert all(len({p[j] for p in front.points}) < front.n for j in range(3))
        assert len(nondominated_boxes(front).lower) <= 2 * front.n + 1
        rng = np.random.default_rng([32, k])
        means = rng.uniform(-10.0, -0.2, (50, 3))
        stds = rng.uniform(0.1, 2.5, (50, 3))
        batch = compute_ehvi_batch(front, means, stds)
        for mu, sd, b in zip(means, stds, batch):
            belief = GaussianBelief(tuple(mu), tuple(sd))
            want = ehvi_grid(front, belief).value
            assert want > 0.0
            assert ehvi_sweep(front, belief).value == pytest.approx(want, rel=1e-10, abs=0.0)
            assert b == pytest.approx(want, rel=1e-10, abs=0.0)
