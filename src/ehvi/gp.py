"""Independent Gaussian-process surrogates with deterministic heuristics.

One GP per objective, squared-exponential kernel with per-dimension
lengthscales. Hyperparameters come from closed heuristics rather than
marginal-likelihood optimization (lengthscale: median nonzero pairwise
distance per dimension; signal variance: target variance; prior mean:
target mean), which keeps every BO run exactly reproducible. Posteriors are
products with the inverse Cholesky factor, computed once per fit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GpFitError, ParameterError

DEFAULT_JITTER = 1e-8
_SIGNAL_VAR_FLOOR = 1e-12


@dataclass
class GpSurrogate:
    """Fitted GP: training data, kernel hyperparameters, cached inverse Cholesky factor."""

    inputs: np.ndarray  # (n, d)
    targets: np.ndarray  # (n,)
    lengthscale: np.ndarray  # (d,)
    signal_var: float
    noise_var: float
    prior_mean: float
    chol_inv: np.ndarray  # (n, n) L^-1, with K + jitter I = L L^T
    alpha: np.ndarray  # (K + jitter I)^-1 (targets - prior_mean)
    clamp_count: int = 0  # posterior variances clamped up to 0


def _kernel(a: np.ndarray, b: np.ndarray, lengthscale: np.ndarray, signal_var: float) -> np.ndarray:
    scaled = (a[:, None, :] - b[None, :, :]) / lengthscale
    return signal_var * np.exp(-0.5 * np.einsum("ijk,ijk->ij", scaled, scaled))


def _median_lengthscales(inputs: np.ndarray) -> np.ndarray:
    n, d = inputs.shape
    scales = np.ones(d)
    if n < 2:
        return scales
    iu = np.triu_indices(n, k=1)
    for j in range(d):
        gaps = np.abs(inputs[iu[0], j] - inputs[iu[1], j])
        gaps = gaps[gaps > 0.0]
        if gaps.size:
            scales[j] = float(np.median(gaps))
    return scales


def fit_gp(inputs, targets, jitter: float = DEFAULT_JITTER) -> GpSurrogate:
    """Fit a surrogate on (n, d) inputs and n scalar targets; n >= 1."""
    x = np.atleast_2d(np.asarray(inputs, dtype=float))
    y = np.asarray(targets, dtype=float).ravel()
    if x.shape[0] != y.shape[0]:
        raise ParameterError(f"{x.shape[0]} inputs but {y.shape[0]} targets")
    if x.shape[0] < 1:
        raise ParameterError("need at least one training point")
    if not (jitter > 0.0):
        raise ParameterError(f"jitter must be positive, got {jitter}")
    lengthscale = _median_lengthscales(x)
    signal_var = max(float(np.var(y)), _SIGNAL_VAR_FLOOR)
    prior_mean = float(np.mean(y))
    cov = _kernel(x, x, lengthscale, signal_var) + jitter * np.eye(len(x))
    try:
        chol_inv = np.linalg.inv(np.linalg.cholesky(cov))
    except np.linalg.LinAlgError as exc:
        raise GpFitError(f"training covariance not positive definite (jitter={jitter})") from exc
    alpha = chol_inv.T @ (chol_inv @ (y - prior_mean))
    return GpSurrogate(
        inputs=x,
        targets=y,
        lengthscale=lengthscale,
        signal_var=signal_var,
        noise_var=jitter,
        prior_mean=prior_mean,
        chol_inv=chol_inv,
        alpha=alpha,
    )


def gp_posterior_batch(surrogate: GpSurrogate, candidates) -> tuple[np.ndarray, np.ndarray]:
    """Posterior means and stddevs at a (q, d) batch of candidates.

    Negative predictive variances (possible only through rounding) are
    clamped to 0 and counted on the surrogate.
    """
    xs = np.atleast_2d(np.asarray(candidates, dtype=float))
    cross = _kernel(xs, surrogate.inputs, surrogate.lengthscale, surrogate.signal_var)
    mean = surrogate.prior_mean + cross @ surrogate.alpha
    v = surrogate.chol_inv @ cross.T
    var = surrogate.signal_var - np.einsum("ij,ij->j", v, v)
    negative = var < 0.0
    if negative.any():
        surrogate.clamp_count += int(negative.sum())
        var = np.where(negative, 0.0, var)
    return mean, np.sqrt(var)

