"""Normal kernels, the psi primitive, and the closed-form box integral of integrate_boxes."""

import math

import numpy as np
import pytest

from ehvi import DimensionError, GaussianBelief, ParameterError, ProblemFrame, psi
from ehvi.gaussian import full_region_integral, psi_vec, std_normal_cdf, std_normal_pdf
from helpers import box_decomposition, box_sum
from oracles import quad_box_integral, quad_psi


def test_pdf_values():
    assert std_normal_pdf(0.0) == pytest.approx(0.3989422804014327, abs=1e-16)
    assert std_normal_pdf(40.0) == 0.0
    assert std_normal_pdf(-40.0) == 0.0
    for x in np.linspace(0.0, 6.0, 25):
        assert std_normal_pdf(float(x)) == std_normal_pdf(float(-x))


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


def test_psi_vec_matches_scalar():
    a = np.array([-math.inf, -3.0, 0.0, 1.0, 10.0])
    got = psi_vec(a, 0.3, 1.7)
    want = [psi(float(x), 0.3, 1.7) for x in a]
    assert got == pytest.approx(want, rel=1e-14, abs=1e-300)


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
