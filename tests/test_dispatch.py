"""Backend selection and the batched EHVI entry point."""

import numpy as np
import pytest

from ehvi import (
    DimensionError,
    GaussianBelief,
    ParameterError,
    UnsupportedDimensionError,
    compute_ehvi,
    compute_ehvi_batch,
)
from helpers import min_front, random_front

VALID = {2: ("grid", "wfg", "auto"), 3: ("grid", "wfg", "clm3", "auto"), 4: ("grid", "wfg", "auto")}


def _beliefs(m, q, seed):
    rng = np.random.default_rng([40, m, seed])
    means = np.concatenate([rng.uniform(-12.0, -2.0, (q // 2, m)), rng.uniform(-10.0, -0.2, (q - q // 2, m))])
    return means, rng.uniform(0.1, 4.0, (q, m))


@pytest.mark.parametrize("m, n", [(2, 12), (3, 15), (4, 6)])
def test_batch_rows_equal_single_belief_calls(m, n):
    front = random_front(m, n, m)
    means, stds = _beliefs(m, 12, n)
    for algorithm in VALID[m]:
        batch = compute_ehvi_batch(front, means, stds, algorithm)
        assert batch.shape == (12,)
        for value, mu, sd in zip(batch, means, stds):
            single = compute_ehvi(front, GaussianBelief(tuple(mu), tuple(sd)), algorithm).value
            assert value == pytest.approx(single, rel=1e-12, abs=0.0), algorithm


@pytest.mark.parametrize("m", [2, 3, 4])
def test_batch_of_no_beliefs_is_empty(m):
    front = random_front(m, 5, 0)
    for algorithm in VALID[m]:
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
    with pytest.raises(ParameterError):
        compute_ehvi_batch(random_front(3, 5, 0), -np.ones((1, 3)), np.ones((1, 3)), "nope")
    with pytest.raises(UnsupportedDimensionError):
        compute_ehvi_batch(random_front(2, 5, 0), -np.ones((1, 2)), np.ones((1, 2)), "clm3")
