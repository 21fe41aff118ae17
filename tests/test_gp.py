"""Gaussian-process surrogate: interpolation, prior reversion, and a dense reference solve."""

import math

import numpy as np
import pytest

from ehvi import GpFitError, ParameterError, fit_gp, gp_posterior_batch
from ehvi.gp import _median_lengthscales
from oracles import dense_gp_posterior, median_lengthscales

X_SMALL = [[0.0, 0.0], [0.5, 0.3], [1.0, 1.0], [0.2, 0.8]]
Y_SMALL = [1.0, 2.0, 0.5, 1.5]


def test_interpolates_training_points_at_low_jitter():
    surrogate = fit_gp(X_SMALL, Y_SMALL, jitter=1e-14)
    means, stds = gp_posterior_batch(surrogate, X_SMALL)
    for mean, std, y in zip(means, stds, Y_SMALL):
        assert mean == pytest.approx(y, abs=1e-6)
        assert std <= 1e-6


def test_reverts_to_prior_far_from_data():
    surrogate = fit_gp(X_SMALL, Y_SMALL)
    (mean,), (std,) = gp_posterior_batch(surrogate, [[100.0, 100.0]])
    assert mean == pytest.approx(surrogate.prior_mean, abs=1e-8)
    assert std == pytest.approx(math.sqrt(surrogate.signal_var), abs=1e-8)


def test_matches_dense_reference_posterior():
    rng = np.random.default_rng(0)
    X = rng.uniform(0.0, 1.0, size=(20, 3))
    y = np.sin(X.sum(axis=1)) + 0.1 * X[:, 0]
    Xs = rng.uniform(0.0, 1.0, size=(15, 3))
    surrogate = fit_gp(X, y)
    means, stds = gp_posterior_batch(surrogate, Xs)
    ref_means, ref_stds = dense_gp_posterior(
        X,
        y,
        surrogate.lengthscale,
        surrogate.signal_var,
        surrogate.noise_var,
        surrogate.prior_mean,
        Xs,
    )
    np.testing.assert_allclose(means, ref_means, atol=1e-8)
    np.testing.assert_allclose(stds, ref_stds, atol=1e-8)


def test_batch_matches_scalar_queries():
    surrogate = fit_gp(X_SMALL, Y_SMALL)
    Xs = [[0.1, 0.9], [0.7, 0.7], [0.4, 0.2]]
    means, stds = gp_posterior_batch(surrogate, Xs)
    for i, x in enumerate(Xs):
        (mean,), (std,) = gp_posterior_batch(surrogate, [x])
        assert mean == pytest.approx(means[i], rel=1e-12)
        assert std == pytest.approx(stds[i], rel=1e-12)


def test_degenerate_inputs_raise_fit_error():
    with pytest.raises(GpFitError):
        fit_gp([[0.0, 0.0], [0.0, 0.0]], [0.0, 1.0], jitter=1e-300)


def test_fit_validation():
    with pytest.raises(ParameterError):
        fit_gp([[0.0], [1.0]], [0.0])
    with pytest.raises(ParameterError):
        fit_gp(X_SMALL, Y_SMALL, jitter=0.0)
    with pytest.raises(ParameterError):
        fit_gp([], [])
    with pytest.raises(ParameterError):
        fit_gp(X_SMALL, np.ones((3, 2)))


def test_variance_clamped_on_ill_conditioned_fit():
    # near-duplicate rows push the posterior variance negative without the clamp
    X = [[0.0, 0.0], [1e-9, 0.0], [1.0, 1.0], [1.0, 1.0 + 1e-9]]
    y = [0.0, 0.0, 1.0, 1.0]
    surrogate = fit_gp(X, y)
    means, stds = gp_posterior_batch(surrogate, X)
    assert np.all(stds >= 0.0)
    assert not np.any(np.isnan(means)) and not np.any(np.isnan(stds))
    assert isinstance(surrogate.clamp_count, int) and surrogate.clamp_count >= 0


def test_two_dimensional_targets_fit_each_column_as_a_one_dimensional_fit():
    rng = np.random.default_rng(1)
    X = rng.uniform(0.0, 1.0, size=(20, 3))
    Y = np.column_stack([np.sin(X.sum(axis=1)), X[:, 0] ** 2, np.full(20, 3.0)])
    Xs = rng.uniform(0.0, 1.0, size=(15, 3))
    surrogate = fit_gp(X, Y)
    means, stds = gp_posterior_batch(surrogate, Xs)
    assert means.shape == stds.shape == (15, 3)
    for j in range(3):
        single = fit_gp(X, Y[:, j])
        single_means, single_stds = gp_posterior_batch(single, Xs)
        assert np.array_equal(means[:, j], single_means)
        assert np.array_equal(stds[:, j], single_stds)
        assert surrogate.signal_var[j] == single.signal_var
        assert surrogate.prior_mean[j] == single.prior_mean
        ref_means, ref_stds = dense_gp_posterior(
            X, Y[:, j], surrogate.lengthscale, surrogate.signal_var[j],
            surrogate.noise_var, surrogate.prior_mean[j], Xs,
        )
        np.testing.assert_allclose(means[:, j], ref_means, atol=1e-8)
        np.testing.assert_allclose(stds[:, j], ref_stds, atol=1e-8)


def test_two_dimensional_fit_counts_clamps_over_all_columns():
    # at jitter 1e-14 the posterior variance at the training points rounds
    # below 0 in every column
    rng = np.random.default_rng(1)
    X = rng.uniform(0.0, 1.0, size=(8, 2))
    Y = rng.normal(size=(8, 3)) * [1e3, 2e3, 3e3]
    singles = [fit_gp(X, Y[:, j], jitter=1e-14) for j in range(3)]
    for single in singles:
        gp_posterior_batch(single, X)
    assert all(s.clamp_count > 0 for s in singles)
    surrogate = fit_gp(X, Y, jitter=1e-14)
    gp_posterior_batch(surrogate, X)
    assert surrogate.clamp_count == sum(s.clamp_count for s in singles)


def test_median_lengthscales_are_the_median_nonzero_gap_bit_for_bit():
    rng = np.random.default_rng(5)
    cases = [
        rng.uniform(0.0, 1.0, size=(12, 3)),  # an even count of distinct gaps
        rng.uniform(0.0, 1.0, size=(6, 2)),  # an odd count (15 pairs)
        rng.choice(np.linspace(0.0, 1.0, 4), size=(13, 3)),  # tied inputs: repeated and zero gaps
        np.column_stack([np.full(9, 0.25), np.linspace(0.0, 1.0, 9), np.r_[np.zeros(8), 1.0]]),
        np.full((5, 2), 0.5),  # all equal: no nonzero gap on any axis
        [[0.3, 0.7]],  # one input: no pair
    ]
    for inputs in cases:
        inputs = np.asarray(inputs, dtype=float)
        want = median_lengthscales(inputs)
        assert np.array_equal(_median_lengthscales(inputs), want), inputs
        assert np.array_equal(fit_gp(inputs, np.zeros(len(inputs))).lengthscale, want)
    assert np.array_equal(median_lengthscales(np.full((5, 2), 0.5)), [1.0, 1.0])
