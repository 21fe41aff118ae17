"""Sweep backend: nondominated boxes for every m, deep-tail agreement with grid, and the hypervolume."""

import dataclasses
import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

import ehvi.sweep
from ehvi import (
    GaussianBelief,
    ParameterError,
    ReferenceBoundError,
    UnsupportedDimensionError,
    compute_ehvi,
    compute_ehvi_batch,
    dominated_volume,
    ehvi_grid,
    ehvi_sweep,
    hypervolume,
    hypervolume_improvement,
)
from ehvi.clm3 import nondominated_boxes
from ehvi.core import Front, rank_form
from ehvi.gaussian import integrate_boxes
from ehvi.grid import grid_decompose
from ehvi.sweep import sweep_boxes
from ehvi.wfg import wfg_boxes
from helpers import box_ranks, lattice_front, min_front, random_front
from oracles import wfg_volume

SIZES = {2: 12, 4: 10, 5: 8, 6: 6}


def _fronts(m):
    tied = lattice_front(m, 0, SIZES[m] + 2)
    if m > 2:
        assert all(len({p[j] for p in tied.points}) < tied.n for j in range(m))
    return [random_front(m, SIZES[m], m), tied, min_front((0.0,) * m, [])]


def _cover_counts(boxes, n, m):
    """How many boxes hold each rank cell; cell c spans (breaks[c], breaks[c+1]] per axis."""
    counts = np.zeros((n + 1,) * m, dtype=np.int64)
    for lo, up in zip(*box_ranks(boxes)):
        counts[tuple(slice(a, b) for a, b in zip(lo, up))] += 1
    return counts


def _dominated_cells(front, breaks):
    """Cells whose lower corner some front point weakly dominates, by brute force."""
    m = front.m
    dominated = np.zeros((front.n + 1,) * m, dtype=bool)
    for p in front.points:
        inside = [breaks[j][:-1] >= p[j] for j in range(m)]
        cells = inside[0]
        for j in range(1, m):
            cells = np.logical_and.outer(cells, inside[j])
        dominated |= cells
    return dominated


def _assert_disjoint_cover(front):
    boxes = sweep_boxes(front)
    m, n = front.m, front.n
    lower, upper = box_ranks(boxes)
    assert boxes.lower.shape == boxes.upper.shape == (m, len(lower))
    if m == 2:
        assert len(lower) == n + 1
    assert len(lower) <= (n + 1) ** m
    for j in range(m):  # no box has zero width on any axis
        assert (boxes.breaks[j][upper[:, j]] > boxes.breaks[j][lower[:, j]]).all()
    # every cell of positive width lies in exactly one box if no point
    # dominates it and in none otherwise
    counts = _cover_counts(boxes, n, m)
    wide = np.ones((n + 1,) * m, dtype=bool)
    for j in range(m):
        axis_wide = np.diff(boxes.breaks[j]) > 0.0
        wide &= axis_wide.reshape((1,) * j + (-1,) + (1,) * (m - j - 1))
    want = np.where(_dominated_cells(front, boxes.breaks), 0, 1)
    np.testing.assert_array_equal(counts[wide], want[wide])


@pytest.mark.parametrize("m", [2, 4, 5, 6])
def test_boxes_disjoint_cover_nondominated_region(m):
    for front in _fronts(m):
        _assert_disjoint_cover(front)


def _permuted(front, perm):
    """The front with its objectives listed in the order perm, as a minimization front."""
    return min_front(tuple(front.reference[j] for j in perm), [tuple(p[j] for j in perm) for p in front.points])


def _box_rows(lower, upper):
    """The boxes of (boxes, m) rank arrays as a set of lower + upper rank tuples."""
    return {tuple(lo) + tuple(up) for lo, up in zip(lower.tolist(), upper.tolist())}


@pytest.mark.parametrize("m, n", [(4, 12), (5, 10), (6, 8)])
def test_boxes_do_not_depend_on_objective_order(m, n):
    """The axis order comes from the front, so listing the objectives in another order permutes the boxes' columns."""
    rng = np.random.default_rng([17, m])
    for seed in range(3):
        front = random_front(m, n, 100 + seed)
        _, ranks = rank_form(front.points, front.reference)
        assert len(set((ranks.T @ ranks.sum(axis=1)).tolist())) == m  # distinct scores
        boxes = sweep_boxes(front)
        lower, upper = box_ranks(boxes)
        for perm in [list(range(m))[::-1]] + [rng.permutation(m).tolist() for _ in range(4)]:
            got = sweep_boxes(_permuted(front, perm))
            np.testing.assert_array_equal(got.breaks, boxes.breaks[perm])
            assert _box_rows(*box_ranks(got)) == _box_rows(lower[:, perm], upper[:, perm])


def test_benchmark_front_box_counts():
    # generate_front's fronts for perfbench's score shapes m6_n15 and m4_n40; in
    # the order the objectives are listed, the sweep made 1448 and 563 boxes
    assert sweep_boxes(random_front(6, 15, 1443265020)).lower.shape[1] <= 343
    assert sweep_boxes(random_front(4, 40, 1771253958)).lower.shape[1] <= 563
    # a front the rank-sum order serves worse than the listed order (2931 boxes);
    # pinned exactly so a change to the split order shows whether it mends it
    assert sweep_boxes(random_front(5, 50, 7004)).lower.shape[1] == 4839
    # fronts large enough that thousands of boxes are open at once
    assert sweep_boxes(random_front(5, 100, 5)).lower.shape[1] == 11541
    assert sweep_boxes(random_front(4, 200, 5)).lower.shape[1] == 6960
    assert sweep_boxes(random_front(6, 60, 5)).lower.shape[1] == 11480


@pytest.mark.parametrize("m", [4, 5, 6])
def test_tied_fronts_in_every_objective_order_match_grid(m):
    """Lattice fronts tie on every axis, so rank-sum scores can tie too; any order must still cover exactly."""
    rng = np.random.default_rng([19, m])
    means = -rng.uniform(1.0, 8.0, (3, m))
    stds = rng.uniform(0.3, 3.0, (3, m))
    for seed in range(2):
        front = lattice_front(m, seed, SIZES[m] + 2)
        for perm in [list(range(m))[::-1]] + [rng.permutation(m).tolist() for _ in range(3)]:
            permuted = _permuted(front, perm)
            _assert_disjoint_cover(permuted)
            want = integrate_boxes(grid_decompose(permuted), means[:, perm], stds[:, perm])
            got = integrate_boxes(sweep_boxes(permuted), means[:, perm], stds[:, perm])
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


def test_empty_front_is_one_full_box():
    for m in (2, 4, 5):
        front = min_front((0.0,) * m, [])
        boxes = sweep_boxes(front)
        assert boxes.lower.shape[1] == 1
        res = ehvi_sweep(front, GaussianBelief((0.0,) * m, (1.0,) * m))
        assert res.boxes == 1
        assert res.value == pytest.approx((2.0 * np.pi) ** (-m / 2), rel=1e-15)


PRODUCERS = {2: "_staircase_boxes", 3: "nondominated_boxes", 4: "_sweep_boxes"}


@pytest.mark.parametrize("m", sorted(PRODUCERS))
def test_front_is_decomposed_once(monkeypatch, m):
    """Every sweep_boxes caller on one Front shares one decomposition, with the values of a fresh Front's."""
    calls = []
    producer = getattr(ehvi.sweep, PRODUCERS[m])

    def counted(front):
        calls.append(front.n)
        return producer(front)

    monkeypatch.setattr(ehvi.sweep, PRODUCERS[m], counted)
    front = random_front(m, 12, 40 + m)
    rng = np.random.default_rng([41, m])
    means = rng.uniform(-10.0, -0.2, (5, m))
    stds = rng.uniform(0.1, 2.5, (5, m))
    belief = GaussianBelief(tuple(means[0]), tuple(stds[0]))
    y = tuple(-x for x in rng.uniform(0.1, 10.0, m))

    def values(f):
        return (
            compute_ehvi(f, belief),
            compute_ehvi(f, belief),
            compute_ehvi_batch(f, means, stds).tolist(),
            hypervolume(f),
            hypervolume_improvement(y, f),
        )

    undecomposed = Front(front.frame, front.points)
    got = values(front)
    assert calls == [front.n]
    assert front == undecomposed and hash(front) == hash(undecomposed)
    assert got == values(undecomposed)  # bit-identical to a fresh Front's
    assert len(calls) == 2
    for array in sweep_boxes(front)[:3]:
        with pytest.raises(ValueError, match="read-only"):
            array[(0,) * array.ndim] = 0


def _expected_open_below(front):
    """Axis 1 at m = 2 and 3; the m >= 4 sweep's last split axis, order[m-2], which no piece raises."""
    if front.m <= 3:
        return (1,)
    ranks = rank_form(front.coords, front.reference)[1]
    return (int((ranks.sum(axis=1) @ ranks).argsort(kind="stable")[front.m - 2]),)


def _assert_layout(boxes, m, open_below):
    """Assert the layout integrate_boxes reads.

    breaks is (m, width) with a -inf column 0; lower and upper are
    C-contiguous (m, boxes) rows, or (m, 1) for upper, row j within
    [j * width, (j+1) * width); exactly the axes open_below index their
    -inf entry, j * width, in every box; every array is read-only.
    """
    breaks, lower, upper, signs = boxes
    assert not any(array.flags.writeable for array in boxes if array is not None)
    width, count = breaks.shape[1], lower.shape[1]
    assert breaks.shape == (m, width) and np.isneginf(breaks[:, 0]).all()
    assert upper.shape in ((m, count), (m, 1))
    offsets = np.arange(m)[:, None] * width
    for rows in (lower, upper):
        assert rows.dtype == np.intp and rows.flags.c_contiguous
        assert ((offsets <= rows) & (rows < offsets + width)).all()
    assert (breaks.ravel()[upper] > breaks.ravel()[lower]).all()  # no box of zero width
    assert tuple(j for j in range(m) if (lower[j] == j * width).all()) == open_below
    assert signs is None or signs.shape == (count,)


PRODUCERS_OF = {
    "staircase": ([2], ehvi.sweep._staircase_boxes),
    "clm3": ([3], nondominated_boxes),
    "sweep": ([4, 5, 6], ehvi.sweep._sweep_boxes),
    "wfg": ([2, 3, 4, 5], lambda f: wfg_boxes(f.coords, f.reference)),
    "grid": ([2, 3, 4], grid_decompose),
}


@pytest.mark.parametrize("producer", sorted(PRODUCERS_OF))
def test_producers_emit_the_integrator_layout(producer):
    """Each producer builds the one box type in the layout integrate_boxes reads, and only wfg's has signs."""
    ms, produce = PRODUCERS_OF[producer]
    for m in ms:
        for front in (random_front(m, 6, 60 + m), lattice_front(m, 2, 8)):
            boxes = produce(front)
            if producer == "wfg":
                # the full box (-inf, r] then one (corner, r] per term, every box ending at the reference
                open_below, width = (), boxes.breaks.shape[1]
                assert boxes.upper.tolist() == [[j * width + width - 1] for j in range(m)]
                assert boxes.signs[0] == 1.0 and set(boxes.signs[1:].tolist()) <= {-1.0, 1.0}
                assert boxes.lower[:, 0].tolist() == [j * width for j in range(m)]
            elif producer == "grid":
                # grid cells start at -inf on every axis, but some cell starts above it on each
                open_below = ()
                assert boxes.signs is None
            else:
                open_below = _expected_open_below(front)
                assert boxes.signs is None
            _assert_layout(boxes, m, open_below)


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
def test_kept_decomposition(m):
    """The one decomposition a Front keeps: read-only, reused by every call, 16 m bytes of indices per box."""
    assert [f.name for f in dataclasses.fields(Front)] == ["frame", "points", "coords", "_boxes"]
    for front in (random_front(m, 3 * SIZES.get(m, 10), 50 + m), lattice_front(m, 1, 12)):
        boxes = sweep_boxes(front)
        assert front._boxes is boxes and sweep_boxes(front) is boxes
        compute_ehvi(front, GaussianBelief((-1.0,) * m, (1.0,) * m))
        compute_ehvi_batch(front, np.full((3, m), -1.0), np.ones((3, m)))
        assert front._boxes is boxes  # a second call reuses it
        _assert_layout(boxes, m, _expected_open_below(front))
        assert boxes.signs is None
        assert boxes.lower.nbytes + boxes.upper.nbytes == 16 * m * boxes.lower.shape[1]


def test_refused_front_keeps_nothing(monkeypatch):
    front = random_front(4, 8, 4)
    monkeypatch.setattr(ehvi.sweep, "_MAX_BOXES", sweep_boxes(front).lower.shape[1] - 1)
    fresh = Front(front.frame, front.points)
    with pytest.raises(ParameterError, match="budget"):
        sweep_boxes(fresh)
    assert fresh._boxes is None


@pytest.mark.skipif(np.dtype(np.intp) != np.dtype("<i8"), reason="the digests hash 64-bit little-endian ranks")
def test_sweep_digest_lines_are_pinned():
    """tools/sweep_digest.py's two lines: the producers' boxes, bit for bit, whether or not a Front keeps them."""
    path = Path(__file__).resolve().parent.parent / "tools" / "sweep_digest.py"
    spec = importlib.util.spec_from_file_location("sweep_digest", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    assert tool.digest_line(tool.fronts(range(4, 8), range(4, 7))) == (
        "99 fronts, 347768 boxes, sha256 52b2a3466fc74f9f6863472b250bc6172b119459c8308526bf5a41ad253b5be6"
    )
    assert tool.digest_line(tool.fronts(range(2, 4), range(3, 4))) == (
        "45 fronts, 1727 boxes, sha256 f3a831ab45edd8b1cb7376d6f3f47ab8427e7359ec031fee27c4a06a043f1c5c"
    )


@pytest.mark.parametrize("m, sizes", [(2, (5, 20, 60)), (4, (5, 12, 20)), (5, (5, 8, 12))])
def test_deep_tail_agreement_with_grid(m, sizes):
    """Beliefs in or behind the front: auto, single and batched, matches grid at 1e-10.

    Means are drawn from [-10, -0.2] and stddevs from [0.1, 2.5], so EHVI is
    tiny next to the full-region integral and computing it as full minus
    dominated would cancel.
    """
    fronts = [random_front(m, n, seed) for seed, n in enumerate(sizes)]
    fronts += [lattice_front(m, seed, 15) for seed in range(3)]
    for k, front in enumerate(fronts):
        rng = np.random.default_rng([33, m, k])
        means = rng.uniform(-10.0, -0.2, (40, m))
        stds = rng.uniform(0.1, 2.5, (40, m))
        batch = compute_ehvi_batch(front, means, stds, "auto")
        for mu, sd, b in zip(means, stds, batch):
            belief = GaussianBelief(tuple(mu), tuple(sd))
            want = ehvi_grid(front, belief).value
            assert want > 0.0
            assert compute_ehvi(front, belief, "auto").value == pytest.approx(want, rel=1e-10, abs=0.0)
            assert b == pytest.approx(want, rel=1e-10, abs=0.0)


def test_dominated_point_outside_the_bound_is_rejected():
    # the second point is dominated by the first, and is checked before it is filtered away
    with pytest.raises(ReferenceBoundError):
        dominated_volume([(0.5, 0.5), (0.6, 1.5)], (1.0, 1.0))


def test_dominated_volume_needs_two_objectives():
    with pytest.raises(UnsupportedDimensionError):
        dominated_volume([(0.5,)], (1.0,))
    with pytest.raises(UnsupportedDimensionError):
        dominated_volume([], (1.0,))


@pytest.mark.parametrize("m", [4, 5])
def test_hypervolume_refuses_a_front_over_the_sweep_budget(monkeypatch, m):
    front = random_front(m, 8, m)
    count = sweep_boxes(front).lower.shape[1]
    assert math.isfinite(hypervolume(front))
    # the budget counts open plus closed boxes, at least the boxes kept; front
    # keeps its boxes, so the lowered budget is put to a fresh Front
    monkeypatch.setattr(ehvi.sweep, "_MAX_BOXES", count - 1)
    fresh = Front(front.frame, front.points)
    with pytest.raises(ParameterError, match="budget"):
        hypervolume(fresh)
    with pytest.raises(ParameterError, match="budget"):  # a refusal keeps no partial boxes
        hypervolume(fresh)
    with pytest.raises(ParameterError, match="budget"):
        dominated_volume(front.points, front.reference)


def test_hypervolume_of_large_m3_fronts():
    front = random_front(3, 300, 5)
    assert hypervolume(front) == pytest.approx(wfg_volume(front.points, front.reference), rel=1e-12)
    # the WFG recursion takes seconds at this size
    assert math.isfinite(hypervolume(random_front(3, 1000, 5)))
