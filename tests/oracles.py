"""Independent reference implementations used to pin expected test values.

Everything in this module is deliberately brute force and dependency-light:
plain loops over tuples, subset inclusion-exclusion, rasterization, and
adaptive quadrature. None of it shares code with the package's fast paths,
so agreement between the two is meaningful evidence rather than tautology.
"""

import itertools
import math

import numpy as np
from scipy.integrate import quad

SQRT2 = math.sqrt(2.0)


def brute_dominates(a, b):
    """Weak dominance (minimization), identity excluded."""
    a = tuple(a)
    b = tuple(b)
    return a != b and all(x <= y for x, y in zip(a, b))


def brute_nondominated(points):
    """Deduplicated lexicographically sorted maximal subset, by pairwise scan."""
    pts = sorted(set(tuple(float(x) for x in p) for p in points))
    return [p for p in pts if not any(brute_dominates(q, p) for q in pts)]


def union_box_volume(lowers, reference, clip=None):
    """Volume of union of boxes (l_i, r] by subset inclusion-exclusion.

    clip, when given, bounds every box below (used for decompositions whose
    lower corners extend to -inf). Exponential in len(lowers); keep n small.
    """
    lowers = [tuple(float(x) for x in l) for l in lowers]
    r = tuple(float(x) for x in reference)
    m = len(r)
    total = 0.0
    for k in range(1, len(lowers) + 1):
        for sub in itertools.combinations(lowers, k):
            lo = tuple(max(s[j] for s in sub) for j in range(m))
            if clip is not None:
                lo = tuple(max(a, b) for a, b in zip(lo, clip))
            vol = 1.0
            for j in range(m):
                w = r[j] - lo[j]
                if w <= 0.0:
                    vol = 0.0
                    break
                vol *= w
            total += vol if k % 2 == 1 else -vol
    return total


def union_box_integral(lowers, reference, mean, stddev):
    """Gaussian integral over the union of boxes (l_i, r] by subset inclusion-exclusion.

    Each intersection box integrates to the product over axes of
    psi(r_j) - psi(lo_j). Exponential in len(lowers); keep n small.
    """
    lowers = [tuple(float(x) for x in l) for l in lowers]
    r = tuple(float(x) for x in reference)
    m = len(r)
    terms = []
    for k in range(1, len(lowers) + 1):
        for sub in itertools.combinations(lowers, k):
            lo = tuple(max(s[j] for s in sub) for j in range(m))
            term = math.prod(
                _psi(r[j], mean[j], stddev[j]) - _psi(lo[j], mean[j], stddev[j]) for j in range(m)
            )
            terms.append(term if k % 2 == 1 else -term)
    return math.fsum(terms)


def brute_hypervolume(points, reference):
    """Dominated hypervolume by inclusion-exclusion over the point boxes."""
    if not points:
        return 0.0
    return union_box_volume(points, reference)


def brute_hvi(y, points, reference):
    """H(A + {y}) - H(A) computed with the inclusion-exclusion hypervolume."""
    base = brute_hypervolume(points, reference)
    return brute_hypervolume(list(points) + [tuple(y)], reference) - base


def staircase_hv_2d(points, reference):
    """Exact 2-D hypervolume as a sum of disjoint staircase columns."""
    pts = brute_nondominated(points)
    r1, r2 = float(reference[0]), float(reference[1])
    total = 0.0
    for i, (x, y) in enumerate(pts):
        nx = pts[i + 1][0] if i + 1 < len(pts) else r1
        total += (nx - x) * (r2 - y)
    return total


def rasterized_hv(points, reference, resolution=400):
    """Cell-center rasterization of the dominated region, m in {2, 3}."""
    pts = np.asarray(points, dtype=float)
    r = np.asarray(reference, dtype=float)
    m = pts.shape[1]
    lo = pts.min(axis=0)
    centers = []
    cellvol = 1.0
    for j in range(m):
        edges = np.linspace(lo[j], r[j], resolution + 1)
        centers.append((edges[:-1] + edges[1:]) / 2.0)
        cellvol *= (r[j] - lo[j]) / resolution
    if m == 2:
        dom = np.zeros((resolution, resolution), dtype=bool)
        cx, cy = centers
        for p in pts:
            dom |= (cx[:, None] >= p[0]) & (cy[None, :] >= p[1])
    elif m == 3:
        dom = np.zeros((resolution,) * 3, dtype=bool)
        cx, cy, cz = centers
        for p in pts:
            dom |= (
                (cx[:, None, None] >= p[0])
                & (cy[None, :, None] >= p[1])
                & (cz[None, None, :] >= p[2])
            )
    else:
        raise ValueError("rasterization oracle supports m in {2, 3}")
    return float(dom.sum()) * cellvol


def _phi(t):
    return 0.5 * math.erfc(-t / SQRT2)


def _psi(a, mu, sigma):
    """Closed-form running integral of the normal cdf, (a - mu) Phi(t) + sigma phi(t)."""
    t = (a - mu) / sigma
    return (a - mu) * _phi(t) + sigma * math.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi)


def quad_psi(a, mu, sigma):
    """Adaptive quadrature of the running normal-cdf integral on (-inf, a]."""
    if a == -math.inf:
        return 0.0
    val, _ = quad(
        lambda t: _phi((t - mu) / sigma), -np.inf, a, epsabs=1e-12, epsrel=1e-12, limit=400
    )
    return val


def quad_box_integral(lower, upper, mean, stddev):
    """Tensor-product quadrature of the dominance-probability integrand over a box."""
    out = 1.0
    for lo, up, mu, sd in zip(lower, upper, mean, stddev):
        val, _ = quad(
            lambda t, mu=mu, sd=sd: _phi((t - mu) / sd),
            lo,
            up,
            epsabs=1e-11,
            epsrel=1e-11,
            limit=400,
        )
        out *= val
    return out


def mc_hvi_mean(points, reference, mean, stddev, samples, seed):
    """Tiny plain-loop Monte-Carlo EHVI using the inclusion-exclusion HVI per draw."""
    rng = np.random.default_rng(seed)
    mu = np.asarray(mean, dtype=float)
    sd = np.asarray(stddev, dtype=float)
    r = tuple(float(x) for x in reference)
    acc = 0.0
    for _ in range(samples):
        y = tuple(mu + sd * rng.standard_normal(len(mu)))
        if any(c >= b for c, b in zip(y, r)):
            continue
        if any(all(a[j] <= y[j] for j in range(len(r))) for a in points):
            continue
        acc += brute_hvi(y, points, reference)
    return acc / samples


def dense_gp_posterior(X, y, lengthscale, signal_var, jitter, prior_mean, Xs):
    """GP posterior via a plain dense solve (no Cholesky reuse)."""
    X = np.asarray(X, dtype=float)
    Xs = np.asarray(Xs, dtype=float)
    y = np.asarray(y, dtype=float)
    ls = np.asarray(lengthscale, dtype=float)

    def k(A, B):
        d2 = (((A[:, None, :] - B[None, :, :]) / ls) ** 2).sum(axis=-1)
        return signal_var * np.exp(-0.5 * d2)

    K = k(X, X) + jitter * np.eye(len(X))
    Ks = k(Xs, X)
    mean = prior_mean + Ks @ np.linalg.solve(K, y - prior_mean)
    var = signal_var - np.einsum("ij,ij->i", Ks, np.linalg.solve(K, Ks.T).T)
    return mean, np.sqrt(np.maximum(var, 0.0))
