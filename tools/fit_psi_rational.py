#!/usr/bin/env python3
"""Fit the rational function behind ehvi.gaussian.psi.

    python3 tools/fit_psi_rational.py

psi needs g(x) = phi(x) - x * Q(x) for x >= 0, with Q = 1 - Phi. Written as

    g(x) = phi(x) * h(x),   h(x) = 1 - x * Q(x) / phi(x),

h falls smoothly from h(0) = 1 to about 1/x**2 and is free of the
cancellation of the difference. This script fits h on [0, X_MAX] by one
rational P(x) / R(x), numerator degree DEGREE, denominator degree two
more (so the fit decays like 1/x**2 as h does), with P(0) = R(0) = 1.

The fit minimizes the largest relative error on Chebyshev points: Lawson's
iteratively reweighted least squares on the linearized error
(P - h R) / (h R_prev), with R_prev the previous iterate's denominator
(Sanathanan-Koerner), all in mpmath at 100 digits.
It is deterministic: every run prints the same coefficients.

It prints the coefficients as the two tuples gaussian.py holds (lowest
degree first) and the largest relative error of h: on the fit points in
exact arithmetic, and on an even grid with the coefficients rounded to
float64 and P and R each evaluated by Horner's rule in one real loop, as
gaussian.rational_h evaluates them. It fails unless every coefficient is
positive: with positive coefficients and x >= 0 no term of P or R cancels.
"""

from __future__ import annotations

import mpmath as mp
import numpy as np

X_MAX = 40.0  # fit range; gaussian._X_MAX clamps x further out, where float exp has underflowed
DEGREE = 9  # numerator degree of gaussian._H_NUM (denominator: DEGREE + 2)
POINTS = 400  # Chebyshev fit points
ITERATIONS = 30  # Lawson steps; the best iterate is kept
CHECK_POINTS = 20001  # even grid of the float64 check


def h_exact(x):
    """h(x) = 1 - x Q(x) / phi(x) at the working precision, for mpf x >= 0."""
    return 1 - x * mp.sqrt(mp.pi / 2) * mp.erfc(x / mp.sqrt(2)) * mp.exp(x * x / 2)


def horner(coeffs, x):
    """The polynomial with coefficients coeffs (lowest degree first) at x."""
    acc = 0 * x
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def fit():
    """Lawson-weighted minimax fit of h; returns (num, den, max relative error)."""
    nq = DEGREE + 2
    # Chebyshev points of [0, X_MAX] in u = x / X_MAX, where the monomials are
    # bounded by 1; coefficients are rescaled to x at the end
    us = [(1 - mp.cos(mp.pi * (i + mp.mpf(0.5)) / POINTS)) / 2 for i in range(POINTS)]
    hs = [h_exact(u * X_MAX) for u in us]
    weights = [mp.mpf(1) / POINTS] * POINTS
    r_prev = [mp.mpf(1)] * POINTS
    best = None
    for _ in range(ITERATIONS):
        # normal equations of sum_i w_i ((P - h R) / (h R_prev))^2 with
        # unknowns p_1..p_DEGREE, r_1..r_nq (p_0 = r_0 = 1)
        size = DEGREE + nq
        ata = [[mp.mpf(0)] * size for _ in range(size)]
        atb = [mp.mpf(0)] * size
        for u, h, rp, w in zip(us, hs, r_prev, weights):
            powers = [u**k for k in range(1, nq + 1)]
            row = [pk / (h * rp) for pk in powers[:DEGREE]] + [-pk / rp for pk in powers]
            b = (h - 1) / (h * rp)
            for i in range(size):
                wi = w * row[i]
                atb[i] += wi * b
                line = ata[i]
                for j in range(i, size):
                    line[j] += wi * row[j]
        for i in range(size):
            for j in range(i):
                ata[i][j] = ata[j][i]
        c = mp.lu_solve(mp.matrix(ata), mp.matrix(atb))
        num = [mp.mpf(1)] + [c[k] for k in range(DEGREE)]
        den = [mp.mpf(1)] + [c[DEGREE + k] for k in range(nq)]
        errs = [horner(num, u) / (horner(den, u) * h) - 1 for u, h in zip(us, hs)]
        worst = max(abs(e) for e in errs)
        if best is None or worst < best[2]:
            best = (num, den, worst)
        r_prev = [horner(den, u) for u in us]
        weights = [w * abs(e) for w, e in zip(weights, errs)]
        total = mp.fsum(weights)
        weights = [w / total for w in weights]
    num, den, worst = best
    scale = [mp.mpf(X_MAX) ** -k for k in range(nq + 1)]
    return [c * s for c, s in zip(num, scale)], [c * s for c, s in zip(den, scale)], worst


def float_error(num, den, xs):
    """Largest relative error of the float64 Horner evaluation on xs."""
    got = horner([float(c) for c in num], xs) / horner([float(c) for c in den], xs)
    want = np.array([float(h_exact(mp.mpf(float(x)))) for x in xs])
    return float(np.max(np.abs(got / want - 1.0)))


def main() -> None:
    mp.mp.dps = 100
    num, den, worst = fit()
    if min(num + den) <= 0:
        raise SystemExit(f"a coefficient is not positive: {num} {den}")
    mp.mp.dps = 60
    xs = np.linspace(0.0, X_MAX, CHECK_POINTS)
    print(f"_H_NUM = ({', '.join(repr(float(c)) for c in num)})")
    print(f"_H_DEN = ({', '.join(repr(float(c)) for c in den)})")
    print(f"fit: max rel error {float(worst):.2e} on {POINTS} points (exact arithmetic)")
    print(f"float64 Horner: max rel error {float_error(num, den, xs):.2e} on {CHECK_POINTS} points")


if __name__ == "__main__":
    main()
