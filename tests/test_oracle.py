"""Monte-Carlo estimator and 2-D quadrature against analytic and brute-force targets."""

import math

import numpy as np
import pytest

from ehvi import (
    DimensionError,
    GaussianBelief,
    ParameterError,
    ProblemFrame,
    UnsupportedDimensionError,
    ehvi_grid,
    ehvi_monte_carlo,
    validate_front,
)
from helpers import lattice_front, min_front, random_belief, random_front
from oracles import ehvi_quadrature_2d, full_region_integral, mc_hvi_mean


def test_mc_dominated_mean_tiny_sigma_is_exactly_zero():
    front = min_front((0.0, 0.0), [(-5.0, -5.0)])
    belief = GaussianBelief((-4.0, -4.0), (1e-6, 1e-6))
    est = ehvi_monte_carlo(front, belief, samples=2000, seed=0)
    assert est.mean == 0.0
    assert est.std_error == 0.0


def test_mc_empty_front_hits_analytic_value():
    frame = ProblemFrame(2, (0.0, 0.0))
    std = GaussianBelief((0.0, 0.0), (1.0, 1.0))
    est = ehvi_monte_carlo(validate_front(frame, []), std, samples=1_000_000, seed=7)
    exact = 1.0 / (2.0 * math.pi)
    assert abs(est.mean - exact) <= 4.0 * est.std_error
    assert est.std_error > 0.0
    assert est.samples == 1_000_000 and est.seed == 7


def test_mc_seed_reproducible_bit_exact():
    front = random_front(3, 8, 3)
    belief = random_belief(3, 4)
    a = ehvi_monte_carlo(front, belief, samples=30_000, seed=11)
    b = ehvi_monte_carlo(front, belief, samples=30_000, seed=11)
    assert a == b
    c = ehvi_monte_carlo(front, belief, samples=30_000, seed=12)
    assert c.mean != a.mean


def test_mc_matches_plain_loop_oracle():
    # m = 4 runs the splitting sweep; the lattice front ties coordinates on every axis
    fronts = [
        random_front(2, 4, 0),
        random_front(3, 5, 1),
        random_front(4, 5, 2),
        lattice_front(3, 3, 6),
    ]
    for seed, front in enumerate(fronts):
        m = front.m
        belief = random_belief(m, seed + 1)
        est = ehvi_monte_carlo(front, belief, samples=400, seed=42)
        plain = mc_hvi_mean(
            front.points, front.reference, belief.mean, belief.stddev, 400, 42
        )
        assert est.mean == pytest.approx(plain, rel=1e-9)


def test_mc_chunk_boundary_consistent():
    # crossing the internal 100k chunk size must not disturb the stream
    front = random_front(2, 3, 5)
    belief = random_belief(2, 6)
    small = ehvi_monte_carlo(front, belief, samples=100_000, seed=1)
    big = ehvi_monte_carlo(front, belief, samples=150_000, seed=1)
    assert abs(small.mean - big.mean) <= 4.0 * (small.std_error + big.std_error)


def test_mc_standard_error_scaling():
    front = random_front(2, 5, 9)
    belief = random_belief(2, 10)
    ratios = []
    for rep in range(10):
        a = ehvi_monte_carlo(front, belief, samples=20_000, seed=100 + rep)
        b = ehvi_monte_carlo(front, belief, samples=40_000, seed=200 + rep)
        ratios.append(a.std_error / b.std_error)
    mean_ratio = sum(ratios) / len(ratios)
    assert abs(mean_ratio - math.sqrt(2.0)) <= 0.2 * math.sqrt(2.0)


def test_mc_agrees_with_exact_backend():
    front = random_front(3, 10, 13)
    belief = random_belief(3, 14)
    est = ehvi_monte_carlo(front, belief, samples=300_000, seed=3)
    exact = ehvi_grid(front, belief).value
    assert abs(exact - est.mean) <= 4.0 * est.std_error


def test_mc_parameter_validation():
    front = random_front(2, 3, 0)
    with pytest.raises(ParameterError):
        ehvi_monte_carlo(front, random_belief(2, 0), samples=1, seed=0)
    with pytest.raises(DimensionError):
        ehvi_monte_carlo(front, random_belief(3, 0), samples=100, seed=0)


def test_quadrature_empty_front():
    frame = ProblemFrame(2, (0.0, 0.0))
    std = GaussianBelief((0.0, 0.0), (1.0, 1.0))
    got = ehvi_quadrature_2d(validate_front(frame, []), std, tolerance=1e-8)
    assert got == pytest.approx(full_region_integral(frame, std), abs=1e-8)


def test_quadrature_agrees_with_grid_backend():
    front = min_front((0.0, 0.0), [(-1.0, -1.0)])
    belief = GaussianBelief((-1.0, -1.0), (1.0, 1.0))
    quad_val = ehvi_quadrature_2d(front, belief, tolerance=1e-8)
    exact = ehvi_grid(front, belief).value
    assert abs(quad_val - exact) <= 1e-8
    est = ehvi_monte_carlo(front, belief, samples=1_000_000, seed=21)
    assert abs(exact - est.mean) <= 4.0 * est.std_error


def test_quadrature_tolerance_convergence():
    front = random_front(2, 6, 17)
    belief = random_belief(2, 18)
    loose = ehvi_quadrature_2d(front, belief, tolerance=1e-4)
    tight = ehvi_quadrature_2d(front, belief, tolerance=1e-8)
    assert abs(loose - tight) < 1e-4


def test_quadrature_dimension_and_parameter_errors():
    with pytest.raises(UnsupportedDimensionError):
        ehvi_quadrature_2d(random_front(3, 3, 0), random_belief(3, 0), tolerance=1e-6)
    with pytest.raises(ParameterError):
        ehvi_quadrature_2d(random_front(2, 3, 0), random_belief(2, 0), tolerance=0.0)
