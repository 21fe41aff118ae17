"""Backend selection and the batched EHVI entry point."""

import numpy as np
import pytest

from ehvi import (
    DimensionError,
    GaussianBelief,
    ParameterError,
    compute_ehvi,
    compute_ehvi_batch,
)
from ehvi.bo import _STDDEV_FLOOR, BoState
from ehvi.dispatch import ALGORITHMS, resolve_algorithm
from ehvi import dispatch, fit_gp, gp_posterior_batch, run_bo, synthetic_problem
from ehvi.sweep import sweep_boxes
from helpers import lattice_front, min_front, random_belief, random_front
from oracles import mp_ehvi


def _beliefs(m, q, seed):
    rng = np.random.default_rng([40, m, seed])
    means = np.concatenate([rng.uniform(-12.0, -2.0, (q // 2, m)), rng.uniform(-10.0, -0.2, (q - q // 2, m))])
    return means, rng.uniform(0.1, 4.0, (q, m))


@pytest.mark.parametrize("m, n, seed", [(2, 20, 1), (3, 30, 7), (4, 10, 4)])
def test_auto_matches_mpmath_in_the_tails(m, n, seed):
    """auto batches match a 50-digit reference at rel 1e-12 far from the bulk.

    The first beliefs sit t = 5, 8, 10 and 12 sds (sd 0.5) beyond the
    reference, where every psi is a far-tail value; the rest are drawn in
    or behind the front, so EHVI is tiny next to the full-region integral.
    """
    front = random_front(m, n, seed)
    r = np.array(front.reference)
    rng = np.random.default_rng([42, m])
    means = np.concatenate([r + 0.5 * np.array([[5.0], [8.0], [10.0], [12.0]]), rng.uniform(-10.0, -0.2, (12, m))])
    stds = np.concatenate([np.full((4, m), 0.5), rng.uniform(0.1, 2.5, (12, m))])
    got = compute_ehvi_batch(front, means, stds, "auto")
    for mu, sd, value in zip(means, stds, got):
        want = mp_ehvi(front.points, r, mu, sd)
        assert want > 0.0
        assert value == pytest.approx(want, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("m, n", [(2, 12), (3, 15), (4, 6)])
def test_batch_rows_equal_single_belief_calls(m, n):
    front = random_front(m, n, m)
    means, stds = _beliefs(m, 12, n)
    for algorithm in ALGORITHMS:
        batch = compute_ehvi_batch(front, means, stds, algorithm)
        assert batch.shape == (12,)
        for value, mu, sd in zip(batch, means, stds):
            single = compute_ehvi(front, GaussianBelief(tuple(mu), tuple(sd)), algorithm).value
            assert value == pytest.approx(single, rel=1e-12, abs=0.0), algorithm


def test_auto_resolves_to_a_box_decomposition():
    assert ALGORITHMS == ("grid", "wfg", "sweep", "auto")
    assert resolve_algorithm("auto") == "sweep"
    for name in ("grid", "wfg", "sweep"):
        assert resolve_algorithm(name) == name


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_boxes_counts_the_boxes_integrated(m):
    belief = random_belief(m, m)
    randoms = [random_front(m, n, seed) for n, seed in [(1, 0), (6, 1), (12, 2)]]
    for front in randoms + [lattice_front(m, 0, n=12)]:
        count = sweep_boxes(front).lower.shape[1]
        assert compute_ehvi(front, belief).boxes == compute_ehvi(front, belief, "sweep").boxes == count
        if m == 3 and front in randoms:
            # each insertion opens two strips, plus the first strip
            assert all(len({p[j] for p in front.points}) == front.n for j in range(3))
            assert count == 2 * front.n + 1


@pytest.mark.parametrize("algorithm", ["sweep", "wfg"])
def test_batch_decomposes_the_front_once(monkeypatch, algorithm):
    producer = {"sweep": "sweep_boxes", "wfg": "wfg_boxes"}[algorithm]  # sweep integrates the kept boxes
    decompose = getattr(dispatch, producer)
    calls = []
    monkeypatch.setattr(dispatch, producer, lambda *args: calls.append(args) or decompose(*args))
    front = random_front(4, 12, 0)
    means, stds = _beliefs(4, 1000, 0)
    batch = compute_ehvi_batch(front, means, stds, algorithm)
    assert len(calls) == 1 and batch.shape == (1000,)
    single = compute_ehvi(front, GaussianBelief(means[7], stds[7]), algorithm).value
    assert batch[7] == pytest.approx(single, rel=1e-12)


@pytest.mark.parametrize("name, resolution, n_init, iterations", [("sphere2", 6, 5, 5), ("sphere3", 4, 6, 3)])
def test_bo_step_argmax_agrees_across_backends(name, resolution, n_init, iterations):
    """Each BO step's posterior batch has one first-index argmax under every backend, the queried candidate."""
    problem = synthetic_problem(name, resolution)
    design, objectives = problem.candidates.design_points, problem.candidates.objectives
    index = {tuple(row): i for i, row in enumerate(design.tolist())}
    queried = [index[r.design_point] for r in run_bo(problem, seed=0, n_init=n_init, iterations=iterations)]
    for k in range(n_init, n_init + iterations):
        observed = queried[:k]
        unexplored = np.delete(np.arange(len(design)), observed)
        front = BoState(problem=problem, observed=observed).front
        means, stds = gp_posterior_batch(fit_gp(design[observed], objectives[observed]), design[unexplored])
        stds = np.maximum(stds, _STDDEV_FLOOR)
        for algorithm in ("grid", "wfg", "sweep"):
            best = int(np.argmax(compute_ehvi_batch(front, means, stds, algorithm)))
            assert unexplored[best] == queried[k], (algorithm, k)


@pytest.mark.parametrize("m", [2, 3, 4])
def test_batch_of_no_beliefs_is_empty(m):
    front = random_front(m, 5, 0)
    for algorithm in ALGORITHMS:
        out = compute_ehvi_batch(front, np.empty((0, m)), np.empty((0, m)), algorithm)
        assert out.shape == (0,)


def test_batch_on_empty_front_is_full_region():
    front = min_front((0.0, 0.0, 0.0), [])
    out = compute_ehvi_batch(front, [[0.0, 0.0, 0.0]], [[1.0, 1.0, 1.0]])
    assert out[0] == pytest.approx((2.0 * np.pi) ** -1.5, rel=1e-15)


def test_batch_shape_errors():
    front = random_front(3, 5, 0)
    good = np.ones((4, 3))
    for means, stds in [
        (np.ones(3), np.ones(3)),  # one belief, not a batch
        (np.ones((4, 2)), np.ones((4, 2))),  # wrong m
        (good, np.ones((5, 3))),  # row count mismatch
        (good, np.ones((4, 2))),
        (np.ones((4, 3, 1)), np.ones((4, 3, 1))),
    ]:
        with pytest.raises(DimensionError):
            compute_ehvi_batch(front, -means, stds)


def test_batch_value_errors():
    front = random_front(3, 5, 0)
    means = -np.ones((3, 3))
    stds = np.ones((3, 3))
    for bad in (np.nan, np.inf, -np.inf):
        broken = means.copy()
        broken[1, 2] = bad
        with pytest.raises(ParameterError):
            compute_ehvi_batch(front, broken, stds)
    for bad in (np.nan, 0.0, -1.0, np.inf):
        broken = stds.copy()
        broken[2, 0] = bad
        with pytest.raises(ParameterError):
            compute_ehvi_batch(front, means, broken)


def test_batch_algorithm_errors():
    for name in ("nope", "clm3"):
        with pytest.raises(ParameterError):
            compute_ehvi_batch(random_front(3, 5, 0), -np.ones((1, 3)), np.ones((1, 3)), name)
