"""Closed-form checks of the benchmark's reference EHVI and hypervolume.

    python3 -m pytest -q perfbench/test_reference.py
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import reference  # noqa: E402


DIGITS = 300


def _psi(a, mu, sd):
    """psi at DIGITS digits, written out independently of reference._psi_mp."""
    with mpmath.workdps(DIGITS):
        t = (mpmath.mpf(a) - mu) / sd
        return (mpmath.mpf(a) - mu) * mpmath.ncdf(t) + sd * mpmath.npdf(t)


def _full(reference_point, mean, sd):
    with mpmath.workdps(DIGITS):
        return mpmath.fprod(_psi(r, mu, s) for r, mu, s in zip(reference_point, mean, sd))


@pytest.mark.parametrize("m", [2, 3, 4, 6])
def test_empty_front_is_the_full_region_integral(m):
    # psi(0; 0, 1) = phi(0), so the whole region below r = 0 gives (2 pi)^(-m/2)
    value = reference.ehvi(np.empty((0, m)), [0.0] * m, [0.0] * m, [1.0] * m)
    assert value == pytest.approx((2 * math.pi) ** (-m / 2), rel=1e-15)
    rng = np.random.default_rng(m)
    r, mean, sd = rng.uniform(0, 2, m), rng.uniform(-3, 3, m), rng.uniform(0.2, 3, m)
    value = reference.ehvi(np.empty((0, m)), r, mean, sd)
    assert value == pytest.approx(float(_full(r, mean, sd)), rel=1e-14)


@pytest.mark.parametrize("m", [2, 3, 4, 6])
@pytest.mark.parametrize("depth", [0.0, 0.5, 0.9])
def test_single_point_is_full_minus_its_box(m, depth):
    # depth moves the mean into the point's dominated box [y, r], where
    # full - box cancels down to 1e-200 of full; the reference must not
    rng = np.random.default_rng([m, int(10 * depth)])
    r = np.zeros(m)
    y = -rng.uniform(1, 3, m)
    mean = y - depth * y
    sd = rng.uniform(0.05, 0.3, m)
    with mpmath.workdps(DIGITS):
        box = mpmath.fprod(_psi(rj, mu, s) - _psi(yj, mu, s) for rj, yj, mu, s in zip(r, y, mean, sd))
        exact = _full(r, mean, sd) - box
    value = reference.ehvi(y[None, :], r, mean, sd)
    assert value == pytest.approx(float(exact), rel=1e-13)


@pytest.mark.parametrize("m", [2, 3, 4])
def test_adding_a_point_never_raises_ehvi(m):
    rng = np.random.default_rng(10 + m)
    r = np.zeros(m)
    pts = -rng.uniform(0.1, 10, (30, m))
    front = reference.nondominated(pts)
    mean, sd = -rng.uniform(2, 8, m), rng.uniform(0.2, 2, m)
    values = [reference.ehvi(front[:k], r, mean, sd) for k in range(len(front) + 1)]
    assert all(b <= a * (1 + 1e-14) for a, b in zip(values, values[1:]))
    assert values[-1] > 0


def test_hypervolume_closed_forms():
    assert reference.hypervolume([[1.0, 2.0, 3.0]], [4.0, 4.0, 4.0]) == 3.0 * 2.0 * 1.0
    # boxes of area 3 and 6 overlapping in [1, 3) x [2, 3), of area 2
    assert reference.hypervolume([[0.0, 2.0], [1.0, 0.0]], [3.0, 3.0]) == 7.0
    assert reference.hypervolume(np.empty((0, 2)), [1.0, 1.0]) == 0.0
    # a dominated point and a duplicate change nothing
    assert reference.hypervolume([[0.0, 2.0], [1.0, 0.0], [1.0, 2.5], [1.0, 0.0]], [3.0, 3.0]) == 7.0


def test_request_command_matches_library(tmp_path):
    request = {
        "m": 2,
        "maximize": True,
        "reference": [0.0, 0.0],
        "front": [[1.0, 3.0], [2.0, 2.0], [3.0, 1.0]],
        "mean": [2.5, 2.5],
        "stddev": [1.0, 1.0],
    }
    path = tmp_path / "req.json"
    path.write_text(json.dumps(request), encoding="utf-8")
    out = subprocess.run(
        [sys.executable, str(Path(reference.__file__)), "--input", str(path)],
        capture_output=True, text=True, check=True,
    )
    expected = reference.ehvi(-np.array(request["front"]), [0.0, 0.0], [-2.5, -2.5], [1.0, 1.0])
    assert float(out.stdout) == expected
