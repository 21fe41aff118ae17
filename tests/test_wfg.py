"""WFG recursion: EHVI and its term count; the hypervolume entry points against brute-force oracles."""

import random

import numpy as np
import pytest

import ehvi.wfg
from ehvi import (
    GaussianBelief,
    ParameterError,
    ProblemFrame,
    ReferenceBoundError,
    compute_ehvi_batch,
    dominated_volume,
    ehvi_wfg,
    hypervolume,
    nondominated_filter,
    validate_front,
)
from ehvi.core import rank_form
from helpers import lattice_front, min_front, random_belief, random_front
from oracles import (
    brute_hypervolume,
    full_region_integral,
    rasterized_hv,
    staircase_hv_2d,
    union_box_integral,
)


def test_hypervolume_worked_example():
    assert dominated_volume([(1.0, 3.0), (2.0, 2.0), (3.0, 1.0)], (4.0, 4.0)) == 6.0
    assert hypervolume(min_front((4.0, 4.0), [(1, 3), (2, 2), (3, 1)])) == 6.0


def test_hypervolume_trivial_cases():
    assert dominated_volume([], (4.0, 4.0)) == 0.0
    assert dominated_volume([(1.0, 2.0)], (4.0, 5.0)) == 3.0 * 3.0
    assert dominated_volume([(1.0, 2.0, 3.0)], (4.0, 4.0, 4.0)) == 3.0 * 2.0 * 1.0


def test_volume_past_the_float_range_is_inf_or_nan():
    assert dominated_volume([(-1e200, -1e200)], (1e200, 1e200)) == float("inf")
    assert np.isnan(dominated_volume([(-1e200, -2e200), (-2e200, -1e200)], (1e200, 1e200)))


def test_hypervolume_out_of_bound_point_rejected():
    with pytest.raises(ReferenceBoundError):
        dominated_volume([(5.0, 1.0)], (4.0, 4.0))


def test_hypervolume_non_finite_input_rejected():
    inf, nan = float("inf"), float("nan")
    points = [(0.0, 0.5), (0.5, 0.0)]
    for reference in [(inf, 1.0), (1.0, -inf), (nan, 1.0)]:
        with pytest.raises(ParameterError):
            dominated_volume(points, reference)
        with pytest.raises(ParameterError):
            dominated_volume([], reference)
    for bad in [(-inf, 0.5), (0.0, nan)]:
        with pytest.raises(ParameterError):
            dominated_volume([*points, bad], (1.0, 1.0))


def test_hypervolume_matches_rasterization():
    for m, n, seed in [(2, 5, 0), (2, 8, 1), (3, 5, 2), (3, 8, 3)]:
        front = random_front(m, n, seed)
        exact = hypervolume(front)
        approx = rasterized_hv(front.points, front.reference, resolution=400)
        assert abs(exact - approx) <= 0.01 * exact


def test_hypervolume_matches_staircase_2d():
    for n, seed in [(1, 0), (5, 1), (12, 2), (30, 3)]:
        front = random_front(2, n, seed)
        assert hypervolume(front) == pytest.approx(
            staircase_hv_2d(front.points, front.reference), rel=1e-12
        )


def test_hypervolume_matches_inclusion_exclusion():
    fronts = [random_front(m, n, seed) for m, n, seed in [(2, 7, 0), (3, 6, 1), (4, 5, 2)]]
    fronts += [lattice_front(m, seed, n=8) for m, seed in [(3, 3), (4, 4)]]  # tied coordinates
    for front in fronts:
        assert hypervolume(front) == pytest.approx(
            brute_hypervolume(front.points, front.reference), rel=1e-12
        )


def test_dominated_point_injection_is_invisible():
    front = random_front(3, 6, 5)
    ref = front.reference
    base = dominated_volume(front.points, ref)
    rng = np.random.default_rng(6)
    extras = []
    for p in front.points[:3]:
        extras.append(tuple(min(x + float(d), r - 1e-9) for x, d, r in
                            zip(p, rng.uniform(0.01, 0.5, 3), ref)))
    mixed = list(front.points) + extras
    assert dominated_volume(mixed, ref) == pytest.approx(base, rel=1e-12)
    assert dominated_volume(nondominated_filter(mixed), ref) == pytest.approx(base, rel=1e-12)


def test_hypervolume_monotone_growth():
    front = random_front(3, 8, 7)
    frame = ProblemFrame(3, front.reference)
    for k in range(1, front.n + 1):
        subset = nondominated_filter(front.points[:k])
        grown = hypervolume(validate_front(frame, subset))
        if k > 1:
            assert grown > prev
        prev = grown


def test_order_invariance():
    front = random_front(3, 10, 8)
    ref = front.reference
    base = dominated_volume(front.points, ref)
    pts = list(front.points)
    rng = random.Random(9)
    for _ in range(5):
        rng.shuffle(pts)
        assert dominated_volume(pts, ref) == pytest.approx(base, rel=1e-12)


def test_ehvi_wfg_empty_front_is_full_region():
    frame = ProblemFrame(2, (0.0, 0.0))
    std = GaussianBelief((0.0, 0.0), (1.0, 1.0))
    res = ehvi_wfg(validate_front(frame, []), std)
    assert res.value == full_region_integral(frame, std)
    assert res.boxes == 0


def test_ehvi_decomposition_identity():
    fronts = [random_front(m, n, seed) for m, n, seed in [(2, 8, 0), (3, 10, 1), (4, 8, 2)]]
    fronts += [lattice_front(m, seed, n=8) for m, seed in [(3, 3), (4, 4)]]  # tied coordinates
    for seed, front in enumerate(fronts):
        m = front.m
        belief = random_belief(m, seed + 20)
        full = full_region_integral(front.frame, belief)
        dominated = union_box_integral(front.points, front.reference, belief.mean, belief.stddev)
        res = ehvi_wfg(front, belief)
        assert res.value + dominated == pytest.approx(full, rel=1e-12)


def test_term_count_bound_and_reporting():
    for m, n, seed in [(2, 10, 0), (3, 8, 1), (3, 14, 2), (4, 10, 3), (5, 8, 4)]:
        front = random_front(m, n, seed)
        res = ehvi_wfg(front, random_belief(m, seed + 40))
        assert 1 <= res.boxes <= 2**n - 1


def test_ehvi_wfg_nonnegative_and_bounded_by_full():
    for seed in range(5):
        front = random_front(3, 9, seed)
        belief = random_belief(3, seed + 60)
        res = ehvi_wfg(front, belief)
        full = full_region_integral(front.frame, belief)
        assert 0.0 <= res.value <= full * (1.0 + 1e-12)


def test_work_budget(monkeypatch):
    front = random_front(4, 12, 0)
    belief = random_belief(4, 0)
    # the tuples the recursion limits depend on the points alone
    _, ranks = rank_form(front.points, front.reference)
    counter = [0]
    ehvi.wfg._wfg_rec(ehvi.wfg._rank_tuples(ranks), 1, [], [], counter)
    limited = counter[0]
    assert front.n * (front.n - 1) // 2 < limited <= ehvi.wfg._MAX_LIMITED
    whole = ehvi_wfg(front, belief)
    monkeypatch.setattr(ehvi.wfg, "_MAX_LIMITED", limited)
    assert ehvi_wfg(front, belief) == whole
    monkeypatch.setattr(ehvi.wfg, "_MAX_LIMITED", limited - 1)
    with pytest.raises(ParameterError, match="budget"):
        ehvi_wfg(front, belief)
    with pytest.raises(ParameterError, match="budget"):
        compute_ehvi_batch(front, [belief.mean], [belief.stddev], "wfg")
