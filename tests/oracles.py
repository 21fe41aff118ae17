"""Independent reference implementations used to pin expected test values.

Everything in this module is deliberately brute force and dependency-light:
plain loops over tuples, subset inclusion-exclusion, rasterization, and
adaptive quadrature. None of it shares code with the package's fast paths,
so agreement between the two is meaningful evidence rather than tautology.
The exceptions are full_region_integral, a product of the package's own
psi, which tests compare bit for bit with the backends' empty-front values,
and wfg_volume, which sums the corners of the package's WFG recursion (an
EHVI backend) while the package's hypervolume comes from the sweep boxes.
"""

import itertools
import math
import statistics
from fractions import Fraction

import mpmath
import numpy as np
from scipy.integrate import quad

from ehvi import DimensionError, ParameterError, UnsupportedDimensionError, psi
from ehvi.gaussian import _H_DEN, _H_NUM
from ehvi.grid import grid_decompose
from ehvi.wfg import wfg_boxes

SQRT2 = math.sqrt(2.0)
_INV_SQRT_2 = 1.0 / math.sqrt(2.0)


def brute_dominates(a, b):
    """Weak dominance (minimization), identity excluded."""
    a = tuple(a)
    b = tuple(b)
    return a != b and all(x <= y for x, y in zip(a, b))


def brute_nondominated(points):
    """Deduplicated lexicographically sorted maximal subset, by pairwise scan."""
    pts = sorted(set(tuple(float(x) for x in p) for p in points))
    return [p for p in pts if not any(brute_dominates(q, p) for q in pts)]


def union_box_volume(lowers, reference):
    """Exact volume of the union of boxes (l_i, r] by subset inclusion-exclusion.

    Every float is a fraction, so scaling all coordinates by their common
    denominator makes them integers and the alternating sum exact. Returns a
    Fraction. Exponential in len(lowers); keep n small.
    """
    rows = [[Fraction(float(x)) for x in row] for row in [*lowers, reference]]
    scale = math.lcm(*(x.denominator for row in rows for x in row))
    *lowers, r = [tuple(int(x * scale) for x in row) for row in rows]
    m = len(r)
    total = 0
    for k in range(1, len(lowers) + 1):
        for sub in itertools.combinations(lowers, k):
            lo = tuple(max(s[j] for s in sub) for j in range(m))
            vol = 1
            for j in range(m):
                w = r[j] - lo[j]
                if w <= 0:
                    vol = 0
                    break
                vol *= w
            total += vol if k % 2 == 1 else -vol
    return Fraction(total, scale**m)


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


def full_region_integral(frame, belief):
    """Integral over the whole region bounded by the reference point.

    This is the integral over the one box (-inf, r], the product of psi(r_j).
    """
    if frame.m != belief.m:
        raise DimensionError(f"frame has m={frame.m} but belief has m={belief.m}")
    return math.prod(psi(frame.internal_reference, belief.mean, belief.stddev).tolist())


def sequential_front(m, n, seed, low=0.1, high=10.0):
    """bench.generate_front's sampler one draw at a time, as it was first written.

    A uniform draw is accepted iff it neither weakly dominates nor is weakly
    dominated by any point accepted before it.
    """
    rng = np.random.default_rng(seed)
    accepted = np.empty((0, m))
    while len(accepted) < n:
        v = rng.uniform(low, high, m)
        if (v >= accepted).all(axis=1).any() or (v <= accepted).all(axis=1).any():
            continue
        accepted = np.vstack([accepted, v])
    return [tuple(row) for row in accepted]


def brute_hypervolume(points, reference):
    """Dominated hypervolume by inclusion-exclusion over the point boxes."""
    return float(union_box_volume(points, reference))


def wfg_volume(points, reference):
    """Dominated hypervolume as the signed sum of the WFG corner volumes, rounded once.

    The terms are the boxes (c, r] of ehvi.wfg.wfg_boxes after its full box,
    each with its term's sign, summed with math.fsum. Any finite points
    strictly inside the reference; exponential in the front size.
    """
    boxes, signs = wfg_boxes(points, reference)
    widths = boxes.breaks[:, -1:] - boxes.breaks
    terms = widths[np.arange(len(widths)), boxes.lower[1:]].prod(axis=1)
    return math.fsum((terms * -signs[1:]).tolist())


def brute_hvi(y, points, reference):
    """H(A + {y}) - H(A) by exact inclusion-exclusion, rounded once."""
    base = union_box_volume(points, reference)
    return float(union_box_volume(list(points) + [tuple(y)], reference) - base)


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


def mp_psi(a, mu, sigma):
    """psi from mpmath's normal cdf and pdf at 50 digits; a, mu, sigma are floats."""
    if a == -math.inf:
        return mpmath.mpf(0)
    with mpmath.workdps(50):
        d = mpmath.mpf(a) - mpmath.mpf(mu)
        t = d / sigma
        return +(d * mpmath.ncdf(t) + sigma * mpmath.npdf(t))


def mp_h(x):
    """h(x) = 1 - x Q(x) / phi(x) at 50 digits, Q = 1 - Phi; x is a float >= 0."""
    with mpmath.workdps(50):
        x = mpmath.mpf(x)
        tail = mpmath.sqrt(mpmath.pi / 2) * mpmath.erfc(x / mpmath.sqrt(2)) * mpmath.exp(x * x / 2)
        return +(1 - x * tail)


def complex_horner_h(x):
    """P / R from one complex Horner loop over z_k = p_k + i r_k, highest degree first.

    For real x a complex step z * x + c rounds exactly as the real steps of
    P and R do, so rational_h must equal this bit for bit.
    """
    coeffs = tuple(map(complex, _H_NUM + (0.0,) * (len(_H_DEN) - len(_H_NUM)), _H_DEN))[::-1]
    xc = np.asarray(x, dtype=float).astype(complex)
    z = np.full(xc.shape, coeffs[0])
    for c in coeffs[1:]:
        z *= xc
        z += c
    return z.real / z.imag


def mp_ehvi(points, reference, mean, stddev):
    """EHVI as a sum over the nondominated cells of the coordinate grid.

    Each axis is cut at -inf, its sorted distinct coordinates and the
    reference; a cell counts when no point weakly dominates its lower
    corner. The per-axis psi differences, the only step that can cancel, are
    taken at 50 digits and rounded once, so the float products and the
    exact sum of the non-negative cell terms add only a few ulps. There are
    (n+1)^m cells; keep them few.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, len(reference))
    weights = np.ones(())
    lowers = []
    for j, r in enumerate(reference):
        axis = [-math.inf, *sorted(set(pts[:, j].tolist())), float(r)]
        with mpmath.workdps(50):
            vals = [mp_psi(a, mean[j], stddev[j]) for a in axis]
            diffs = [float(hi - lo) for lo, hi in zip(vals, vals[1:])]
        weights = np.multiply.outer(weights, diffs)
        lowers.append(np.array(axis[:-1]))
    dominated = np.zeros(weights.shape, dtype=bool)
    for p in pts:
        cells = np.ones((), dtype=bool)
        for j, lo in enumerate(lowers):
            cells = np.logical_and.outer(cells, lo >= p[j])
        dominated |= cells
    return math.fsum(weights[~dominated].tolist())


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


def std_normal_cdf(x):
    """Standard normal cdf Phi(x), computed from erfc for tail accuracy."""
    return 0.5 * math.erfc(-x * _INV_SQRT_2)


def ehvi_quadrature_2d(front, belief, tolerance):
    """Deterministic EHVI for m=2 by adaptive quadrature over the grid boxes.

    Each box integral is a product of two 1-D integrals of the normal cdf
    (the integrand is separable), each evaluated adaptively to a quarter of
    the requested tolerance; the total error is bounded by roughly the
    tolerance times the box count.
    """
    if front.m != 2:
        raise UnsupportedDimensionError(f"quadrature oracle needs m=2, got m={front.m}")
    if not (tolerance > 0.0):
        raise ParameterError(f"tolerance must be positive, got {tolerance}")
    if belief.m != 2:
        raise DimensionError(f"front has m=2 but belief has m={belief.m}")

    eps = tolerance / 4.0
    boxes = grid_decompose(front)
    lowers = boxes.breaks[[0, 1], boxes.lower].tolist()
    uppers = boxes.breaks[[0, 1], boxes.upper].tolist()
    total = 0.0
    for lower, upper in zip(lowers, uppers):
        term = 1.0
        for j in range(2):
            mu, sd = belief.mean[j], belief.stddev[j]
            val, _ = quad(
                lambda t, mu=mu, sd=sd: std_normal_cdf((t - mu) / sd),
                lower[j],
                upper[j],
                epsabs=eps,
                epsrel=eps,
                limit=200,
            )
            term *= val
        total += term
    return total


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


def median_lengthscales(inputs):
    """Per dimension, the median of the nonzero gaps over pairs i < j of inputs; 1.0 where there is none."""
    out = []
    for column in np.asarray(inputs, dtype=float).T.tolist():
        gaps = [abs(a - b) for i, a in enumerate(column) for b in column[i + 1 :]]
        nonzero = sorted(g for g in gaps if g > 0.0)
        out.append(statistics.median(nonzero) if nonzero else 1.0)
    return np.array(out)


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
