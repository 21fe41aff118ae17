"""The quadrature oracle's normal cdf, the psi kernel, and the box integral of integrate_boxes."""

import math

import numpy as np
import pytest

from ehvi import DimensionError, GaussianBelief, ParameterError, ProblemFrame, psi
import ehvi.gaussian
from ehvi.gaussian import check_beliefs, integrate_boxes, rational_h
from ehvi.sweep import sweep_boxes
from ehvi.wfg import wfg_boxes
from helpers import box_decomposition, box_sum, min_front, random_front
from oracles import (
    complex_horner_h,
    full_region_integral,
    mp_h,
    mp_psi,
    quad_box_integral,
    quad_psi,
    std_normal_cdf,
)


def test_cdf_values():
    assert std_normal_cdf(0.0) == 0.5
    assert std_normal_cdf(1.0) == pytest.approx(0.8413447460685429, rel=1e-14)
    assert std_normal_cdf(-math.inf) == 0.0
    assert std_normal_cdf(math.inf) == 1.0
    grid = np.linspace(-8.0, 8.0, 200)
    vals = [std_normal_cdf(float(x)) for x in grid]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    # complement identity holds to full precision thanks to the erfc route
    for x in (0.5, 2.0, 5.0, 7.5):
        assert std_normal_cdf(-x) == pytest.approx(1.0 - std_normal_cdf(x), rel=1e-13)


def test_psi_values():
    assert psi(0.0, 0.0, 1.0) == pytest.approx(0.3989422804014327, abs=1e-16)
    assert psi(-math.inf, 5.0, 2.0) == 0.0
    assert psi(1.0, 0.0, 1.0) == pytest.approx(1.0833154705876864, rel=1e-12)
    assert psi(10.0, 0.0, 1.0) - 10.0 == pytest.approx(0.0, abs=1e-12)


def test_psi_matches_quadrature():
    for a, mu, sd in [(0.7, 0.0, 1.0), (-2.0, 1.0, 0.5), (3.0, -1.0, 2.5), (0.0, 4.0, 3.0)]:
        assert psi(a, mu, sd) == pytest.approx(quad_psi(a, mu, sd), rel=1e-10, abs=1e-12)


def test_psi_monotone_and_nonnegative():
    grid = np.linspace(-10.0, 10.0, 100)
    vals = [psi(float(a), 0.5, 1.5) for a in grid]
    assert all(v >= 0.0 for v in vals)
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_psi_tail_accurate_and_monotone():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    for x in np.linspace(2.0, 37.0, 71):
        t = -float(x)
        exact = float(t * mpmath.ncdf(t) + mpmath.npdf(t))
        assert psi(1.5 * t, 0.0, 1.5) == pytest.approx(1.5 * exact, rel=1e-12)
    # far below the mean the direct formula made psi decrease here
    mu, sd = 7.494873326917716, 0.5
    assert psi(0.0, mu, sd) <= psi(1.9611545981554065e-13, mu, sd)
    grid = np.linspace(-4.0, -3.0, 2001)
    vals = [psi(float(a), 0.0, 0.25) for a in grid]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_psi_rejects_bad_sigma():
    for sd in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ParameterError):
            psi(1.0, 0.0, sd)


def test_psi_elementwise_over_arrays():
    a = np.array([-math.inf, -3.0, 0.0, 1.0, 10.0])
    got = psi(a, 0.3, 1.7)
    assert got.shape == a.shape
    assert got.tolist() == [psi(float(x), 0.3, 1.7) for x in a]
    mu = np.array([[0.3], [-2.0]])
    sd = np.array([[1.7], [0.2]])
    grid = psi(a, mu, sd)
    assert grid.shape == (2, 5)
    assert grid[1].tolist() == [psi(float(x), -2.0, 0.2) for x in a]
    with pytest.raises(ParameterError):
        psi(a, 0.0, np.array([1.0, 0.0, 1.0, 1.0, 1.0]))


def test_psi_arrays_match_mpmath():
    """The array kernel matches 50-digit mpmath at rel 1e-12 for t in [-37, 38]."""
    rng = np.random.default_rng(41)
    t = np.concatenate([np.linspace(-37.0, 38.0, 1501), rng.uniform(-37.0, 38.0, 500)])
    mu = rng.uniform(-5.0, 5.0, t.size)
    sd = rng.uniform(0.1, 3.0, t.size)
    a = mu + sd * t
    got = psi(a, mu, sd)
    want = [float(mp_psi(x, m, s)) for x, m, s in zip(a, mu, sd)]
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


def test_rational_h_matches_mpmath_on_its_whole_range():
    """P / R against 50-digit h on [0, 40], its fit range: at most 1.3e-15 relative.

    That is the float evaluation's bound; the fit itself is 8e-17 in exact
    arithmetic (tools/fit_psi_rational.py).
    """
    rng = np.random.default_rng(43)
    x = np.concatenate([np.linspace(0.0, 40.0, 16001), rng.uniform(0.0, 40.0, 4000)])
    want = [float(mp_h(v)) for v in x]
    np.testing.assert_allclose(rational_h(x), want, rtol=1.5e-15, atol=0.0)
    assert rational_h(np.zeros(1)).tolist() == [1.0]


def test_rational_h_equals_complex_horner_bit_for_bit():
    rng = np.random.default_rng(44)
    for x in (np.linspace(0.0, 40.0, 200001), rng.uniform(0.0, 40.0, 50000), rng.uniform(0.0, 1.0, 7)):
        assert np.array_equal(rational_h(x), complex_horner_h(x))
    assert np.array_equal(rational_h(np.zeros(())), complex_horner_h(np.zeros(())))


def test_psi_arrays_exactly_zero_at_minus_inf():
    got = psi(np.full(3, -math.inf), np.array([0.0, 1e6, -1e6]), np.array([1.0, 1e-6, 1e3]))
    assert got.tolist() == [0.0, 0.0, 0.0]


def test_psi_arrays_strictly_increasing_in_tail():
    vals = psi(np.linspace(-4.0, -3.0, 2001), 0.0, 0.25)
    assert (np.diff(vals) > 0.0).all()
    # the direct formula gave the lower of these two neighbours the larger value
    low, high = psi(np.array([0.0, 1.9611545981554065e-13]), 7.494873326917716, 0.5)
    assert 0.0 < low < high


def test_psi_keeps_neighbouring_floats_in_order():
    if np.finfo(np.longdouble).nmant <= np.finfo(float).nmant:
        pytest.skip("long double is float here, so psi rounds as integrate_boxes does")
    # the float evaluation put the first of each pair above the second
    assert psi(0.0, 0.0, 4.0) <= psi(2.220446049250313e-16, 0.0, 4.0)
    assert psi(-2.220446049250313e-16, 0.125, 3.0) <= psi(0.0, 0.125, 3.0)
    rng = np.random.default_rng(45)
    n = 50000
    mu, sd = rng.uniform(-10.0, 10.0, n), rng.uniform(0.5, 5.0, n)
    a = np.where(rng.random(n) < 0.5, rng.uniform(-20.0, 20.0, n), mu + rng.uniform(-4.0, 4.0, n) * sd)
    # the float kernel integrate_boxes calls misorders about 0.2 % of these pairs
    assert (psi(a, mu, sd) <= psi(np.nextafter(a, math.inf), mu, sd)).all()


def test_integrate_boxes_checks_belief_width():
    # integrate_boxes reads beliefs checked where they enter the program:
    # check_beliefs, at the decomposition's m
    boxes = sweep_boxes(random_front(3, 6, 0))
    m = len(boxes.breaks)
    for width in (2, 4):
        with pytest.raises(DimensionError):
            check_beliefs(np.full((1, width), -1.0), np.ones((1, width)), m)
    with pytest.raises(DimensionError):
        check_beliefs(np.full((1, 3), -1.0), np.ones((2, 3)), m)
    with pytest.raises(DimensionError):
        check_beliefs(np.full(3, -1.0), np.ones(3), m)
    with pytest.raises(ParameterError):
        check_beliefs(np.full((1, 3), -1.0), np.array([[1.0, 0.0, 1.0]]), m)


def test_integrate_boxes_worked_examples():
    belief = GaussianBelief((0.0, 0.0), (1.0, 1.0))
    lower, upper = (0.0, 0.0), (1.0, 1.0)
    val = box_sum(box_decomposition([(lower, upper)]), belief)
    assert val == (psi(1.0, 0.0, 1.0) - psi(0.0, 0.0, 1.0)) ** 2
    assert val == pytest.approx(0.46836666344571026, rel=1e-13)
    assert val == pytest.approx(quad_box_integral(lower, upper, belief.mean, belief.stddev), rel=1e-9)

    far = GaussianBelief((-100.0, -100.0), (1.0, 1.0))
    assert box_sum(box_decomposition([((5.0, 5.0), (6.0, 7.0))]), far) == pytest.approx(2.0, abs=1e-12)

    # a zero-width box integrates to exactly 0, alone or beside another box
    flat = ((1.0, 0.0), (1.0, 9.0))
    assert box_sum(box_decomposition([flat]), belief) == 0.0
    assert box_sum(box_decomposition([flat, (lower, upper)]), belief) == val


def _count_blocks(patch):
    """Patch integrate_boxes' psi kernel to count its calls, one per block; returns the running count."""
    calls = []
    real = ehvi.gaussian._psi
    patch.setattr(ehvi.gaussian, "_psi", lambda *args, **kwargs: calls.append(1) or real(*args, **kwargs))
    return calls


def test_integrate_boxes_batch_across_blocks_matches_one_row_at_a_time(monkeypatch):
    rng = np.random.default_rng(8)
    for m, n, q in [(3, 60, 130), (4, 40, 101), (6, 15, 64)]:
        boxes = sweep_boxes(random_front(m, n, m))
        means = -rng.uniform(4.0, 12.0, (q, m))
        stds = rng.uniform(0.2, 3.0, (q, m))
        with monkeypatch.context() as patch:
            blocks = _count_blocks(patch)
            batch = integrate_boxes(boxes, means, stds)
        assert len(blocks) >= 3, m
        single = [integrate_boxes(boxes, mu[None], sd[None])[0] for mu, sd in zip(means, stds)]
        np.testing.assert_allclose(batch, single, rtol=1e-13, atol=0.0)


def test_signed_batch_across_blocks_equals_one_row_at_a_time(monkeypatch):
    # signed terms are summed exactly, so the blocking moves no bit
    rng = np.random.default_rng(9)
    for m, n, q in [(3, 30, 130), (4, 20, 101), (6, 15, 130)]:
        front = random_front(m, n, m)
        boxes = wfg_boxes(front.coords, front.reference)
        means = -rng.uniform(0.2, 12.0, (q, m))
        stds = rng.uniform(0.05, 3.0, (q, m))
        with monkeypatch.context() as patch:
            blocks = _count_blocks(patch)
            batch = integrate_boxes(boxes, means, stds)
        assert len(blocks) >= 3, m
        single = [integrate_boxes(boxes, mu[None], sd[None])[0] for mu, sd in zip(means, stds)]
        assert batch.tolist() == single


def test_overflowing_boxes_give_inf_not_nan_inside_a_multi_block_batch(monkeypatch):
    # the fronts of test_overflowing_box_factors_give_inf_not_nan; every
    # third belief overflows, in blocks of one to three beliefs
    fronts = [
        [(-1.0, -2.0), (-2.0, -1.0)],
        [(-1.0, -2.0, -3.0), (-3.0, -1.0, -2.0)],
        [(-1.0, -2.0, -3.0, -4.0), (-4.0, -3.0, -1.0, -2.0), (-2.0, -4.0, -1.0, -3.0)],
    ]
    for points in fronts:
        m = len(points[0])
        boxes = sweep_boxes(min_front((0.0,) * m, points))
        means = np.tile([[-1e308] * m, [-1.5] * m, [-0.5] * m], (4, 1))
        stds = np.tile([[1e308] * m, [1.0] * m, [0.5] * m], (4, 1))
        with monkeypatch.context() as patch:
            patch.setattr(ehvi.gaussian, "_BLOCK", 2 * (boxes.lower.shape[1] + boxes.breaks.size))
            blocks = _count_blocks(patch)
            batch = integrate_boxes(boxes, means, stds)
        assert len(blocks) >= 3, m
        assert (batch[::3] == math.inf).all(), m
        finite = [integrate_boxes(boxes, mu[None], sd[None])[0] for mu, sd in zip(means[1:3], stds[1:3])]
        assert np.isfinite(finite).all()
        np.testing.assert_allclose(batch[1::3], finite[0], rtol=1e-13, atol=0.0)
        np.testing.assert_allclose(batch[2::3], finite[1], rtol=1e-13, atol=0.0)


def _integrals_in_one_order(patch, gather, boxes, means, stds):
    """integrate_boxes on the boxes with _GATHER set to gather, as one batch and one belief at a time.

    Also returns the ndim of every lower index array gathered: 2 when a
    block gathers all axes at once, 1 when it goes one axis at a time.
    """
    patch.setattr(ehvi.gaussian, "_GATHER", gather)
    ndims = []
    real = ehvi.gaussian._gather
    patch.setattr(ehvi.gaussian, "_gather", lambda p, lo, up: ndims.append(lo.ndim) or real(p, lo, up))
    batch = integrate_boxes(boxes, means, stds).tolist()
    single = [integrate_boxes(boxes, mu[None], sd[None])[0] for mu, sd in zip(means, stds)]
    return batch, single, set(ndims)


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
def test_all_axes_and_one_axis_orders_give_the_same_bits(monkeypatch, m):
    # unsigned sweep boxes and signed wfg boxes, beliefs in and far behind
    # the front, and the overflowing fronts whose inf * 0 products are mended
    rng = np.random.default_rng(27 + m)
    front = random_front(m, {2: 40, 3: 40, 4: 20, 5: 10, 6: 8}[m], m)
    decompositions = [sweep_boxes(front), wfg_boxes(front.coords, front.reference)]
    means, stds = -rng.uniform(0.2, 12.0, (40, m)), rng.uniform(0.05, 3.0, (40, m))
    cases = [(boxes, means, stds) for boxes in decompositions]
    if m <= 4:
        points = [
            [(-1.0, -2.0), (-2.0, -1.0)],
            [(-1.0, -2.0, -3.0), (-3.0, -1.0, -2.0)],
            [(-1.0, -2.0, -3.0, -4.0), (-4.0, -3.0, -1.0, -2.0), (-2.0, -4.0, -1.0, -3.0)],
        ][m - 2]
        overflowing = min_front((0.0,) * m, points)
        means = np.tile([[-1e308] * m, [-1.5] * m], (3, 1))
        stds = np.tile([[1e308] * m, [1.0] * m], (3, 1))
        decompositions = (sweep_boxes(overflowing), wfg_boxes(overflowing.coords, overflowing.reference))
        cases += [(boxes, means, stds) for boxes in decompositions]
    for boxes, means, stds in cases:
        orders = []
        for gather, ndim in ((1 << 60, 2), (0, 1)):
            with monkeypatch.context() as patch:
                *integrals, ndims = _integrals_in_one_order(patch, gather, boxes, means, stds)
            # the inf * 0 repair gathers one axis at a time in either order
            assert ndim in ndims and ndims <= {1, ndim}
            orders.append(integrals)
        all_axes, one_axis = orders
        assert all_axes == one_axis, (m, boxes.signs is None)
        if means[0, 0] == -1e308 and boxes.signs is None:
            assert all_axes[0][0] == math.inf and all_axes[1][0] == math.inf


def test_integrate_boxes_psi_on_finite_first_breakpoints():
    # helpers.box_decomposition's lower corners follow its -inf column, so a
    # finite one gets its own psi and a -inf one psi(-inf), exactly 0
    mean, std = np.array([[0.0, 0.5], [-1.0, 0.0]]), np.array([[1.0, 2.0], [0.5, 1.0]])
    inf = math.inf
    for lower in [(0.0, 0.0), (-inf, 0.0), (0.0, -inf), (-inf, -inf)]:
        boxes = box_decomposition([(lower, (1.0, 1.5))])
        got = integrate_boxes(boxes, mean, std)
        for row, (mu, sd) in enumerate(zip(mean, std)):
            want = math.prod(
                float(psi(up, u, s) - psi(lo, u, s)) for lo, up, u, s in zip(lower, (1.0, 1.5), mu, sd)
            )
            assert got[row] == pytest.approx(want, rel=1e-15, abs=0.0), (lower, row)


def test_integrate_boxes_monotone_and_bounded():
    belief = GaussianBelief((0.5, -0.5), (1.0, 2.0))
    small = ((-1.0, -1.0), (1.0, 1.0))
    grown = ((-2.0, -1.0), (1.0, 2.0))
    v_small = box_sum(box_decomposition([small]), belief)
    v_grown = box_sum(box_decomposition([grown]), belief)
    assert 0.0 <= v_small <= math.prod(up - lo for lo, up in zip(*small))
    assert 0.0 <= v_grown <= math.prod(up - lo for lo, up in zip(*grown))
    assert v_grown >= v_small


def test_full_region_values():
    std = GaussianBelief((0.0, 0.0), (1.0, 1.0))
    frame2 = ProblemFrame(2, (0.0, 0.0))
    assert full_region_integral(frame2, std) == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-15)
    frame3 = ProblemFrame(3, (0.0, 0.0, 0.0))
    std3 = GaussianBelief((0.0,) * 3, (1.0,) * 3)
    assert full_region_integral(frame3, std3) == pytest.approx((2.0 * math.pi) ** -1.5, rel=1e-15)


def test_full_region_saturation_growth():
    std = GaussianBelief((0.0, 0.0), (1.0, 1.0))
    t = 50.0
    grown = full_region_integral(ProblemFrame(2, (t, t)), std)
    assert grown == pytest.approx(t * t, rel=1e-12)
    assert grown > full_region_integral(ProblemFrame(2, (10.0, 10.0)), std)


def test_belief_validation():
    with pytest.raises(DimensionError):
        GaussianBelief((0.0, 0.0), (1.0,))
    with pytest.raises(ParameterError):
        GaussianBelief((0.0, math.inf), (1.0, 1.0))
    with pytest.raises(ParameterError):
        GaussianBelief((0.0, 0.0), (1.0, 0.0))
