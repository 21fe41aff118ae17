"""The m=3 staircase sweep of ehvi.clm3: staircase maintenance, box emission, EHVI.

The sweep backend integrates these boxes at m=3, so EHVI is tested through ehvi_sweep.
"""

import copy
import math

import numpy as np
import pytest

from ehvi import (
    DimensionError,
    GaussianBelief,
    ReferenceBoundError,
    UnsupportedDimensionError,
    compute_ehvi_batch,
    ehvi_grid,
    ehvi_sweep,
    ehvi_wfg,
    psi,
    validate_front,
)
from ehvi.grid import grid_decompose
from ehvi import ProblemFrame
from ehvi.clm3 import SweepState, nondominated_boxes
from ehvi.core import BoxDecomposition
from helpers import (
    box_sum,
    decomposition_boxes,
    lattice_front,
    min_front,
    open_strips,
    random_belief,
    random_front,
    slab_integral,
)
from oracles import full_region_integral, union_box_integral


def _state():
    return SweepState(reference=(0.0, 0.0))


def _snapshot(state):
    return copy.deepcopy((state.keys, state.vals, state.births, state.boxes, state.operations))


def test_empty_staircase_insert_delta():
    state = _state()
    belief = random_belief(2, 0)
    a, b = -3.0, -1.5
    state.insert(a, b, 1.0)
    r1, r2 = state.reference
    m1, m2 = belief.mean
    s1, s2 = belief.stddev
    # the initial strip (the whole quadrant) closes at the insertion level
    assert state.boxes == [(-math.inf, r1, r2, -math.inf, 1.0)]
    assert state.births == [1.0, 1.0]
    assert state.keys == [a] and state.vals == [b]
    strips = open_strips(state)
    assert decomposition_boxes(strips) == [
        ((-math.inf, -math.inf), (a, r2)),
        ((a, -math.inf), (r1, b)),
    ]
    # the cross-section lost to the insert is the box (a, r1] x (b, r2]
    lost = (psi(r1, m1, s1) - psi(a, m1, s1)) * (psi(r2, m2, s2) - psi(b, m2, s2))
    full = psi(r1, m1, s1) * psi(r2, m2, s2)
    assert box_sum(strips, belief) + lost == pytest.approx(full, rel=1e-14)


def test_reinsert_and_dominated_insert_are_no_ops():
    state = _state()
    state.insert(-3.0, -2.0, 0.0)
    before = _snapshot(state)
    state.insert(-3.0, -2.0, 1.0)
    assert _snapshot(state) == before
    state.insert(-2.0, -1.0, 2.0)
    assert _snapshot(state) == before
    assert state.operations == 1
    assert state.keys == [-3.0]


def test_insert_out_of_bound_rejected():
    state = _state()
    with pytest.raises(ReferenceBoundError):
        state.insert(0.0, -1.0, 0.0)
    with pytest.raises(ReferenceBoundError):
        state.insert(-1.0, 0.5, 0.0)


def test_open_strips_match_slab_recomputation():
    for seed in range(6):
        state = _state()
        belief = random_belief(2, seed + 3)
        full = psi(0.0, belief.mean[0], belief.stddev[0]) * psi(0.0, belief.mean[1], belief.stddev[1])
        rng = np.random.default_rng([21, seed])
        inserted = 0
        for level in range(20):
            p = tuple(rng.uniform(-8.0, -0.1, 2))
            state.insert(*p, float(level))
            inserted += 1
            # strict staircase shape after every insertion
            assert state.keys == sorted(state.keys)
            assert all(a < b for a, b in zip(state.keys, state.keys[1:]))
            assert all(a > b for a, b in zip(state.vals, state.vals[1:]))
            assert len(state.births) == len(state.keys) + 1
            strips = open_strips(state)
            got = box_sum(strips, belief)
            # the open strips are the nondominated cross-section ...
            staircase = min_front((0.0, 0.0), list(zip(state.keys, state.vals)))
            want = box_sum(grid_decompose(staircase), belief)
            assert got == pytest.approx(want, rel=1e-12)
            # ... and with the slab recomputation of the dominated one they tile the quadrant
            dominated = slab_integral(state.keys, state.vals, state.reference, belief)
            assert got + dominated == pytest.approx(full, rel=1e-12)
        assert state.operations <= 2 * inserted
        assert len(state.boxes) + len(strips.lower) <= 2 * inserted + 1


def test_nondominated_cross_section_only_shrinks():
    state = _state()
    rng = np.random.default_rng(22)
    samples = rng.uniform(-9.0, 0.0, (400, 2))

    def inside(strips):
        boxes = decomposition_boxes(strips)
        return {
            i
            for i, (x, y) in enumerate(samples)
            if any(lo[0] < x <= up[0] and y <= up[1] for lo, up in boxes)
        }

    prev = inside(open_strips(state))
    assert len(prev) == len(samples)
    for level in range(30):
        p = tuple(rng.uniform(-6.0, -0.2, 2))
        state.insert(*p, float(level))
        now = inside(open_strips(state))
        assert now <= prev
        # a sample leaves the cross-section exactly when the staircase covers it
        covered = {i for i, s in enumerate(samples) if any(
            k <= s[0] and v <= s[1] for k, v in zip(state.keys, state.vals))}
        assert now == set(range(len(samples))) - covered
        prev = now


def test_sweep_state_validation():
    with pytest.raises(DimensionError):
        SweepState(reference=(0.0, 0.0, 0.0))


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


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_overflowing_box_factors_give_inf_not_nan():
    # psi differences round to 0 on some axes while the other factors overflow
    front = min_front((0.0, 0.0, 0.0), [(-1.0, -2.0, -3.0), (-3.0, -1.0, -2.0)])
    belief = GaussianBelief((-1e308,) * 3, (1e308,) * 3)
    assert ehvi_sweep(front, belief).value == math.inf


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


def test_operation_count_bound():
    for n, seed in [(10, 0), (50, 1), (120, 2)]:
        front = random_front(3, n, seed)
        state = SweepState(reference=front.reference[:2])
        for x, y, z in sorted(front.points, key=lambda p: p[2]):
            state.insert(x, y, z)
        assert state.operations <= 2 * n
        boxes = len(nondominated_boxes(front).lower)
        assert boxes <= 2 * n + 1
        assert ehvi_sweep(front, random_belief(3, seed + 80)).boxes == boxes


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
