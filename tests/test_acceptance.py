"""Acceptance gate: every shipped guarantee, one test per criterion.

Each test prints one ACCEPTANCE line naming the criterion. Tolerances and
wall-clock budgets are pinned here and must not be loosened.
"""

import math
import time

import pytest

from ehvi import (
    GaussianBelief,
    ProblemFrame,
    dominated_volume,
    ehvi_grid,
    ehvi_monte_carlo,
    ehvi_sweep,
    ehvi_wfg,
    generate_front,
    psi,
    run_benchmark,
    run_bo,
    run_random,
    synthetic_problem,
    validate_front,
)
from ehvi.bench import benchmark_belief, benchmark_frame, summarize
from helpers import random_front
from oracles import ehvi_quadrature_2d, full_region_integral, rasterized_hv, staircase_hv_2d

import test_properties

BACKENDS_3D = (("grid", ehvi_grid), ("wfg", ehvi_wfg), ("sweep", ehvi_sweep))


def _report(index, name, started):
    print(f"ACCEPTANCE {index} ({name}): PASS in {time.perf_counter() - started:.1f}s")


def test_acceptance_1_three_backend_agreement_m3():
    started = time.perf_counter()
    belief = benchmark_belief(3)
    for n in (10, 50, 100, 300):
        for seed in range(10):
            front = random_front(3, n, seed)
            values = {name: fn(front, belief).value for name, fn in BACKENDS_3D}
            lo, hi = min(values.values()), max(values.values())
            assert math.isclose(lo, hi, rel_tol=1e-10), (n, seed, values)
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0, f"budget 120s exceeded: {elapsed:.1f}s"
    _report(1, "three backends agree at m=3, n up to 300, rel 1e-10", started)


def test_acceptance_2_grid_wfg_agreement_high_dim():
    started = time.perf_counter()
    for m in (4, 5, 6):
        belief = benchmark_belief(m)
        for seed in range(10):
            front = random_front(m, 10, seed)
            a = ehvi_grid(front, belief).value
            b = ehvi_wfg(front, belief).value
            assert math.isclose(a, b, rel_tol=1e-10), (m, seed, a, b)
    elapsed = time.perf_counter() - started
    assert elapsed < 300.0, f"budget 300s exceeded: {elapsed:.1f}s"
    _report(2, "grid and wfg agree at m in 4..6, rel 1e-10", started)


def test_acceptance_3_monte_carlo_and_quadrature_validation():
    started = time.perf_counter()
    instances = [
        (m, n, seed) for seed in range(3) for m in (2, 3) for n in (1, 5, 20)
    ]
    instances += [(2, 20, 3), (3, 20, 3)]
    assert len(instances) == 20

    for m, n, seed in instances:
        front = random_front(m, n, seed)
        belief = benchmark_belief(m)
        est = ehvi_monte_carlo(front, belief, samples=1_000_000, seed=1000 + seed)
        backends = BACKENDS_3D if m == 3 else BACKENDS_3D[:2]
        for name, fn in backends:
            exact = fn(front, belief).value
            gap = abs(exact - est.mean)
            assert gap <= 4.0 * est.std_error, (m, n, seed, name, gap, est.std_error)
        if m == 2:
            quad = ehvi_quadrature_2d(front, belief, tolerance=1e-8)
            exact = ehvi_wfg(front, belief).value
            assert abs(exact - quad) <= 1e-6, (n, seed, exact, quad)
    elapsed = time.perf_counter() - started
    assert elapsed < 600.0, f"budget 600s exceeded: {elapsed:.1f}s"
    _report(3, "exact values sit within 4 SE of 1e6-sample MC; m=2 within 1e-6 of quadrature", started)


def test_acceptance_4_closed_form_cases():
    started = time.perf_counter()
    for m in (2, 3, 4):
        frame = ProblemFrame(m, (0.0,) * m)
        std = GaussianBelief((0.0,) * m, (1.0,) * m)
        empty = validate_front(frame, [])
        expected = (2.0 * math.pi) ** (-m / 2.0)
        assert math.isclose(full_region_integral(frame, std), expected, rel_tol=1e-12)
        for fn in (ehvi_grid, ehvi_wfg, ehvi_sweep):
            assert math.isclose(fn(empty, std).value, expected, rel_tol=1e-12), (m, fn)

    reference = (0.0, 0.0, 0.0)
    y = (-2.0, -3.0, -1.5)
    belief = GaussianBelief((-2.5, -2.5, -2.5), (1.0, 2.0, 0.5))
    frame = ProblemFrame(3, reference)
    front = validate_front(frame, [y])
    full = full_region_integral(frame, belief)
    blocked = math.prod(
        psi(reference[j], belief.mean[j], belief.stddev[j])
        - psi(y[j], belief.mean[j], belief.stddev[j])
        for j in range(3)
    )
    expected = full - blocked
    for name, fn in BACKENDS_3D:
        assert math.isclose(fn(front, belief).value, expected, rel_tol=1e-12), name
    _report(4, "empty-front and single-point closed forms at rel 1e-12", started)


def test_acceptance_5_hypervolume_oracles():
    started = time.perf_counter()
    for m in (2, 3):
        for n in (1, 5, 8):
            front = random_front(m, n, seed=50 + n)
            exact = dominated_volume(front.points, front.reference)
            coarse = rasterized_hv(front.points, front.reference, resolution=400)
            assert abs(exact - coarse) <= 0.01 * exact, (m, n, exact, coarse)

    for n in (1, 7, 30):
        front = random_front(2, n, seed=60 + n)
        exact = dominated_volume(front.points, front.reference)
        stair = staircase_hv_2d(front.points, front.reference)
        assert math.isclose(exact, stair, rel_tol=1e-12), (n, exact, stair)

    worked = dominated_volume([(1.0, 3.0), (2.0, 2.0), (3.0, 1.0)], (4.0, 4.0))
    assert worked == 6.0
    _report(5, "hypervolume vs rasterization within 1%, staircase rel 1e-12, worked example exact", started)


def test_acceptance_6_decomposition_counts_and_scaling():
    started = time.perf_counter()
    for n in (100, 150):
        for seed in range(10):
            # 2n+1 below is exact when every insertion opens two strips: distinct coordinates
            points = generate_front(3, n, seed)
            assert all(len({p[j] for p in points}) == n for j in range(3)), (n, seed)
    sweep_records = run_benchmark(
        ms=[3], ns=[100, 150], seeds=10, reps=5, algorithms=("grid", "sweep")
    )
    for r in sweep_records:
        if r.algorithm == "sweep":
            assert r.boxes == 2 * r.n + 1, (r.n, r.boxes)
        else:
            assert r.boxes <= (r.n + 1) ** r.m

    high_dim_records = []
    for m in (4, 5, 6):
        high_dim_records += run_benchmark(
            ms=[m], ns=[10], seeds=10, reps=5, algorithms=("grid", "wfg", "sweep")
        )
    for r in high_dim_records:
        if r.algorithm == "wfg":
            assert r.boxes <= 2**r.n - 1, (r.m, r.boxes)
        elif r.algorithm == "sweep":
            assert r.boxes <= (r.n + 1) ** r.m, (r.m, r.boxes)
        else:
            assert r.boxes <= (r.n + 1) ** r.m

    def mean_time(rows, m, n, algorithm):
        for row in rows:
            if (row["m"], row["n"], row["algorithm"]) == (m, n, algorithm):
                return row["mean_time_ns"]
        raise AssertionError((m, n, algorithm))

    margins = []
    sweep_summary = summarize(sweep_records)
    for n in (100, 150):
        fast = mean_time(sweep_summary, 3, n, "sweep")
        slow = mean_time(sweep_summary, 3, n, "grid")
        assert fast < slow, (n, fast, slow)
        margins.append(f"sweep@n={n} {slow / fast:.1f}x")

    high_summary = summarize(high_dim_records)
    for m in (4, 5, 6):
        fast = mean_time(high_summary, m, 10, "wfg")
        slow = mean_time(high_summary, m, 10, "grid")
        assert fast < slow, (m, fast, slow)
        margins.append(f"wfg@m={m} {slow / fast:.1f}x")
    _report(6, "box-count bounds hold; crossovers " + ", ".join(margins), started)


def test_acceptance_7_bo_beats_random_on_sphere3():
    started = time.perf_counter()
    problem = synthetic_problem("sphere3", resolution=10)
    bo_finals, random_finals = [], []
    for seed in range(10):
        bo = run_bo(problem, seed, n_init=20, iterations=100)
        rnd = run_random(problem, seed, evaluations=120, n_init=20)
        assert len(bo) == len(rnd) == 120
        for records in (bo, rnd):
            hvs = [r.hypervolume for r in records]
            assert all(b >= a for a, b in zip(hvs, hvs[1:])), seed
        bo_finals.append(bo[-1].hypervolume)
        random_finals.append(rnd[-1].hypervolume)
    bo_mean = sum(bo_finals) / len(bo_finals)
    random_mean = sum(random_finals) / len(random_finals)
    assert bo_mean >= random_mean, (bo_mean, random_mean)
    elapsed = time.perf_counter() - started
    assert elapsed < 900.0, f"budget 900s exceeded: {elapsed:.1f}s"
    _report(7, f"BO final hypervolume {bo_mean:.4f} >= random {random_mean:.4f} over 10 seeds", started)


def test_acceptance_8_randomized_invariants():
    started = time.perf_counter()
    test_properties.test_psi_monotone_and_derivative()
    test_properties.test_integrate_boxes_additive_and_bounded()
    test_properties.test_nondominated_filter_invariants()
    test_properties.test_staircase_strips_consistent()
    test_properties.test_orientation_involution_and_dominance()
    _report(8, "five property suites at 1000 cases each", started)
