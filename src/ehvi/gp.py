"""Gaussian-process surrogates with deterministic heuristics.

One fit covers every target column, with a squared-exponential kernel whose
per-dimension lengthscales (median nonzero pairwise distance) depend on the
inputs alone, so each unit kernel is computed once for all columns. Each
column's signal variance and prior mean are its variance and mean: closed
heuristics rather than marginal-likelihood optimization keep every BO run
exactly reproducible. Posteriors are products with each column's inverse
Cholesky factor, computed once per fit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GpFitError, ParameterError

DEFAULT_JITTER = 1e-8
_SIGNAL_VAR_FLOOR = 1e-12


@dataclass
class GpSurrogate:
    """Fitted GP per target column: training data, hyperparameters, cached inverse Cholesky factors."""

    inputs: np.ndarray  # (n, d)
    targets: np.ndarray  # (n,) or (n, k)
    lengthscale: np.ndarray  # (d,)
    signal_var: float | np.ndarray  # or (k,)
    noise_var: float
    prior_mean: float | np.ndarray  # or (k,)
    chol_inv: np.ndarray  # (n, n) or (k, n, n): L^-1, with K + jitter I = L L^T
    alpha: np.ndarray  # (n,) or (k, n): (K + jitter I)^-1 (targets - prior_mean)
    clamp_count: int = 0  # posterior variances clamped up to 0


def _unit_kernel(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    sq = np.einsum("ij,ij->i", a, a)[:, None] + np.einsum("ij,ij->i", b, b) - 2.0 * (a @ b.T)
    return np.exp(-0.5 * np.maximum(sq, 0.0))


def _median_lengthscales(inputs: np.ndarray) -> np.ndarray:
    """Per dimension, the median nonzero gap between two inputs; 1 where there is none."""
    d = inputs.shape[1]
    # every ordered pair, each input with itself too: the added gaps are
    # zeros, which sort first and are counted out, and a median of the
    # nonzero gaps taken twice each is their median
    gaps = np.sort(np.abs(inputs[:, None] - inputs).reshape(-1, d), axis=0)
    zeros = np.count_nonzero(gaps == 0.0, axis=0)
    nonzero = np.count_nonzero(gaps > 0.0, axis=0)
    # the mean of the middle pair of the nonzero gaps; clipped where there are none
    last, axes = len(gaps) - 1, np.arange(d)
    low = gaps[np.minimum(zeros + (nonzero - 1) // 2, last), axes]
    high = gaps[np.minimum(zeros + nonzero // 2, last), axes]
    return np.where(nonzero > 0, (low + high) / 2.0, 1.0)


def fit_gp(inputs, targets, jitter: float = DEFAULT_JITTER) -> GpSurrogate:
    """Fit a surrogate per column of (n,) or (n, k) targets on (n, d) inputs; n >= 1."""
    x = np.atleast_2d(np.asarray(inputs, dtype=float))
    y = np.asarray(targets, dtype=float)
    columns = y.T if y.ndim == 2 else y.reshape(1, -1)  # (k, n)
    if x.shape[0] != columns.shape[1]:
        raise ParameterError(f"{x.shape[0]} inputs but {columns.shape[1]} targets")
    if x.shape[0] < 1:
        raise ParameterError("need at least one training point")
    if not (jitter > 0.0):
        raise ParameterError(f"jitter must be positive, got {jitter}")
    lengthscale = _median_lengthscales(x)
    # row reductions of contiguous rows sum each column in the order a 1-D fit of it does
    rows = np.ascontiguousarray(columns)
    signal_var = np.maximum(rows.var(axis=1), _SIGNAL_VAR_FLOOR)
    prior_mean = rows.mean(axis=1)
    cov = signal_var[:, None, None] * _unit_kernel(x / lengthscale, x / lengthscale) + jitter * np.eye(len(x))
    try:
        chol_inv = np.linalg.inv(np.linalg.cholesky(cov))
    except np.linalg.LinAlgError as exc:
        raise GpFitError(f"training covariance not positive definite (jitter={jitter})") from exc
    alpha = np.array([c.T @ (c @ r) for c, r in zip(chol_inv, columns - prior_mean[:, None])])
    if y.ndim != 2:
        signal_var, prior_mean, chol_inv, alpha = float(signal_var[0]), float(prior_mean[0]), chol_inv[0], alpha[0]
    return GpSurrogate(
        inputs=x,
        targets=y if y.ndim == 2 else columns[0],
        lengthscale=lengthscale,
        signal_var=signal_var,
        noise_var=jitter,
        prior_mean=prior_mean,
        chol_inv=chol_inv,
        alpha=alpha,
    )


def gp_posterior_batch(surrogate: GpSurrogate, candidates) -> tuple[np.ndarray, np.ndarray]:
    """Posterior means and stddevs at a (q, d) batch of candidates: (q,) or (q, k), as the targets were.

    Negative predictive variances (possible only through rounding) are
    clamped to 0 and counted on the surrogate.
    """
    xs = np.atleast_2d(np.asarray(candidates, dtype=float))
    n = len(surrogate.inputs)
    signal_var = np.atleast_1d(surrogate.signal_var)
    unit = _unit_kernel(xs / surrogate.lengthscale, surrogate.inputs / surrogate.lengthscale)
    mean = np.empty((len(xs), len(signal_var)))
    var = np.empty_like(mean)
    alphas, chol_invs = surrogate.alpha.reshape(-1, n, 1), surrogate.chol_inv.reshape(-1, n, n)
    # one column at a time, so each temporary is (q, n), not (k, q, n): a BO
    # step's (k, q, n) arrays outgrew the heap's trim threshold and were
    # page-faulted back in on every step
    for c, s in enumerate(signal_var):
        cross = s * unit
        mean[:, c] = (cross @ alphas[c])[:, 0]
        v = chol_invs[c] @ cross.T
        var[:, c] = np.einsum("iq,iq->q", v, v)
    mean += surrogate.prior_mean
    var = signal_var - var
    negative = var < 0.0
    if negative.any():
        surrogate.clamp_count += int(negative.sum())
        var = np.where(negative, 0.0, var)
    if np.ndim(surrogate.signal_var) == 0:
        return mean[:, 0], np.sqrt(var[:, 0])
    return mean, np.sqrt(var)
