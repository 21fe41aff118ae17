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
from ehvi.core import BoxDecomposition
from ehvi.gaussian import integrate_boxes
from ehvi.grid import build_grid, grid_decompose
from ehvi.sweep import clipped_volumes, sweep_boxes
from helpers import box_sum, decomposition_boxes, lattice_front, min_front, random_belief, random_front
from oracles import brute_hypervolume


def test_build_grid_worked_example():
    breaks, h = build_grid(min_front((4.0, 4.0), [(1, 3), (2, 2), (3, 1)]))
    assert breaks.shape == (2, 5) and h.shape == (4,)
    assert list(breaks[0]) == [-math.inf, 1.0, 2.0, 3.0, 4.0]
    assert list(breaks[1]) == [-math.inf, 1.0, 2.0, 3.0, 4.0]
    # lower-bound ranks -inf, 1, 2, 3 of axis 1
    assert list(h) == [math.inf, 3.0, 2.0, 1.0]


def test_build_grid_empty_front():
    breaks, h = build_grid(min_front((4.0, 5.0, 6.0), []))
    assert h.shape == (1, 1)
    assert np.isinf(h).all()
    assert list(breaks[2]) == [-math.inf, 6.0]


def test_build_grid_single_point():
    _, h = build_grid(min_front((4.0, 4.0, 4.0), [(1, 2, 3)]))
    assert h.shape == (2, 2)
    assert h[0, 0] == math.inf and h[0, 1] == math.inf
    assert h[1, 0] == math.inf
    assert h[1, 1] == 3.0


def test_decompose_empty_front():
    decomp = grid_decompose(min_front((4.0, 4.0), []))
    assert isinstance(decomp, BoxDecomposition)
    assert decomposition_boxes(decomp) == [((-math.inf, -math.inf), (4.0, 4.0))]


def test_decompose_worked_example():
    decomp = grid_decompose(min_front((4.0, 4.0), [(2, 2)]))
    got = set(decomposition_boxes(decomp))
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
        # the union's volume inside box(clip, r)
        total = clipped_volumes(grid_decompose(front), np.array([clip]))[0]
        box_vol = math.prod(r - c for r, c in zip(ref, clip))
        expected = box_vol - brute_hypervolume(front.points, ref)
        assert total == pytest.approx(expected, rel=1e-9)


def test_decompose_disjoint_cover_by_sampling():
    for m, n, seed in [(2, 4, 0), (2, 6, 1), (3, 4, 2), (3, 6, 3)]:
        front = random_front(m, n, seed)
        breaks, _ = build_grid(front)
        emitted = set(decomposition_boxes(grid_decompose(front)))
        for idx in itertools.product(range(n + 1), repeat=m):
            lower = tuple(float(breaks[j, idx[j]]) for j in range(m))
            upper = tuple(float(breaks[j, idx[j] + 1]) for j in range(m))
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
        total = box_sum(boxes, belief)
        assert res.value == pytest.approx(total, rel=1e-12)
        assert res.boxes == boxes.lower.shape[1]


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_cells_through_the_shared_integrator(m):
    """grid's cells, run through the integrator and the clip that sweep uses.

    Integrated, they match ehvi_grid and the sweep batch: at 1e-12 for
    random_belief beliefs, and at test_sweep's 1e-10 for deep-tail beliefs
    (means in [-10, -0.2], stddevs in [0.1, 2.5]). Clipped, they give the same
    volumes as sweep's boxes at points whose coordinates tie the front's.
    """
    n = {2: 12, 3: 10, 4: 6, 5: 4}[m]
    fronts = [random_front(m, n, m), lattice_front(m, m, n), min_front((0.0,) * m, [])]
    for k, front in enumerate(fronts):
        cells = grid_decompose(front)
        rng = np.random.default_rng([34, m, k])
        typical = [random_belief(m, 10 * m + i) for i in range(4)]
        families = [
            (np.array([b.mean for b in typical]), np.array([b.stddev for b in typical]), 1e-12),
            (rng.uniform(-10.0, -0.2, (8, m)), rng.uniform(0.1, 2.5, (8, m)), 1e-10),
        ]
        for means, stds, rel in families:
            got = integrate_boxes(cells, means, stds)
            swept = compute_ehvi_batch(front, means, stds, "sweep")
            for value, other, mu, sd in zip(got, swept, means, stds):
                want = ehvi_grid(front, GaussianBelief(tuple(mu), tuple(sd))).value
                assert value == pytest.approx(want, rel=rel, abs=0.0)
                assert value == pytest.approx(other, rel=rel, abs=0.0)

        # per axis: every front coordinate, one below them all, and the reference
        axes = [sorted({p[j] for p in front.points} | {-11.0, front.reference[j]}) for j in range(m)]
        ys = np.column_stack([rng.choice(axis, 300) for axis in axes])
        clipped = clipped_volumes(cells, ys)
        want = clipped_volumes(sweep_boxes(front), ys)
        np.testing.assert_array_equal(clipped == 0.0, want == 0.0)
        np.testing.assert_allclose(clipped, want, rtol=1e-12, atol=0.0)


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
