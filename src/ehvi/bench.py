"""Scaling benchmark: random fronts, timed backends, cross-checked values.

Fronts are drawn uniformly in the maximization box [0.1, 10]^m against a
reference at the origin, rejecting every draw that is comparable with an
already-accepted point. Draws are rejected in numpy blocks, and the front
is still the one a draw-at-a-time sampler makes (see generate_front). The
candidate belief is fixed (mean -10 on every negated axis, stddev 2.5) so
runs are reproducible and comparable across algorithms. Every (m, n, seed)
cell is computed by all requested backends and the values are required to
agree to 1e-10 relative before any timing is reported.
"""

from __future__ import annotations

import gc
import math
import statistics
import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import _FILTER_BLOCK, Front, Orientation, ProblemFrame, Vector, validate_front
from .dispatch import BACKENDS
from .errors import ParameterError, UnsupportedDimensionError
from .gaussian import GaussianBelief

GEN_LOW = 0.1
GEN_HIGH = 10.0
DEFAULT_MEAN = 10.0
DEFAULT_SIGMA = 2.5

_DRAW_BLOCK = 256  # generate_front's draws per numpy rejection pass
# Accepted points in a block's first comparison. The first 32 points of
# generate_front(3, 1000, .) already reject 88 % of its late draws.
_FIRST_CHUNK = 32


@dataclass(frozen=True)
class BenchmarkRecord:
    """One timed backend call on one random front."""

    algorithm: str
    m: int
    n: int
    seed: int
    rep: int
    ehvi: float
    time_ns: int
    boxes: int


def generate_front(m: int, n: int, seed: int) -> list[Vector]:
    """Draw n mutually incomparable maximization points, uniform in [0.1, 10]^m.

    Rejection sampling: a draw is kept iff it neither weakly dominates nor is
    weakly dominated by any accepted point (in the maximize sense), which
    also rules out duplicates. Deterministic in (m, n, seed).

    Draws come in blocks of _DRAW_BLOCK, the same stream as one draw at a
    time. A block first drops, in numpy, the draws comparable with a point
    accepted before it, comparing them in chunks of those points: the first
    _FIRST_CHUNK points, then chunks of about _FILTER_BLOCK over the
    surviving draws. Each chunk drops its rejects, so once the front has
    grown the later points meet only the few draws that the first ones did
    not reject. Whether a draw survives depends only on the set of earlier
    points, not on the chunks. The survivors are then taken in order against
    the points accepted within the block, so the front is the one-at-a-time
    sampler's, bit for bit.
    """
    if m < 2:
        raise UnsupportedDimensionError(f"need at least 2 objectives, got m={m}")
    if n < 1:
        raise ParameterError(f"front size must be positive, got n={n}")
    rng = np.random.default_rng(seed)
    accepted = np.empty((n, m))
    count = 0
    while count < n:
        draws = rng.uniform(GEN_LOW, GEN_HIGH, (_DRAW_BLOCK, m))
        prior = accepted[:count]
        s = 0
        while s < count and len(draws):
            step = _FIRST_CHUNK if s == 0 else max(1, _FILTER_BLOCK // len(draws))
            earlier = prior[s:s + step]
            geq = draws[:, 0, None] >= earlier[:, 0]
            leq = draws[:, 0, None] <= earlier[:, 0]
            for j in range(1, m):
                geq &= draws[:, j, None] >= earlier[:, j]
                leq &= draws[:, j, None] <= earlier[:, j]
            draws = draws[~(geq | leq).any(axis=1)]
            s += step
        start = count
        for v in draws:
            within = accepted[start:count]
            if (v >= within).all(axis=1).any() or (v <= within).all(axis=1).any():
                continue
            accepted[count] = v
            count += 1
            if count == n:
                break
    return [tuple(row) for row in accepted]


def benchmark_frame(m: int) -> ProblemFrame:
    """Maximization against the origin, matching generate_front's domain."""
    return ProblemFrame(m=m, reference=(0.0,) * m, orientation=Orientation.MAXIMIZE)


def benchmark_belief(m: int, sigma_as_variance: bool = False) -> GaussianBelief:
    """Fixed candidate posterior used by every benchmark cell.

    Mean 10 on every maximized objective (-10 internally), spread 2.5 read
    as a standard deviation; pass sigma_as_variance=True to read it as a
    variance (stddev sqrt(2.5)) instead.
    """
    sd = math.sqrt(DEFAULT_SIGMA) if sigma_as_variance else DEFAULT_SIGMA
    return GaussianBelief(mean=(-DEFAULT_MEAN,) * m, stddev=(sd,) * m)


def run_benchmark(
    ms: Sequence[int],
    ns: Sequence[int],
    seeds: int,
    reps: int,
    algorithms: Sequence[str],
    sigma_as_variance: bool = False,
) -> list[BenchmarkRecord]:
    """Time every (algorithm, m, n, seed) cell reps times.

    Each cell gets one untimed warm-up call per algorithm, then reps timed
    calls. Every call gets a fresh Front of the cell's points, built outside
    the timed interval, so that each timed sweep call decomposes the front
    rather than reuse the boxes an earlier call kept on it. All algorithms
    must agree on each cell's value to 1e-10 relative; disagreement aborts
    the run rather than reporting timings for wrong answers. ParameterError
    if ms, ns or algorithms is empty or repeats a value, which would time a
    cell twice and fold both runs into one row.
    """
    for label, values in (("ms", ms), ("ns", ns), ("algorithms", algorithms)):
        if not len(values):
            raise ParameterError(f"{label} must not be empty")
        if len(set(values)) < len(values):
            raise ParameterError(f"{label} must not repeat a value, got {list(values)}")
    if seeds < 1:
        raise ParameterError(f"seeds must be positive, got {seeds}")
    if reps < 1:
        raise ParameterError(f"reps must be positive, got {reps}")
    for name in algorithms:
        if name not in BACKENDS:
            raise ParameterError(f"unknown algorithm {name!r}, expected one of {sorted(BACKENDS)}")
    records: list[BenchmarkRecord] = []
    for m in ms:
        frame = benchmark_frame(m)
        belief = benchmark_belief(m, sigma_as_variance)
        for n in ns:
            for seed in range(seeds):
                front = validate_front(frame, generate_front(m, n, seed))
                values: dict[str, float] = {}
                for name in algorithms:
                    backend = BACKENDS[name]
                    backend(Front(frame, front.points), belief)  # warm-up, untimed
                    # pause the cyclic collector while timing (as timeit
                    # does) so allocation debt from unrelated code does not
                    # bill a random rep; nothing here creates cycles
                    gc_was_enabled = gc.isenabled()
                    gc.collect()
                    gc.disable()
                    try:
                        for rep in range(reps):
                            fresh = Front(frame, front.points)
                            start = time.perf_counter_ns()
                            result = backend(fresh, belief)
                            elapsed = time.perf_counter_ns() - start
                            records.append(
                                BenchmarkRecord(
                                    algorithm=name,
                                    m=m,
                                    n=n,
                                    seed=seed,
                                    rep=rep,
                                    ehvi=result.value,
                                    time_ns=elapsed,
                                    boxes=result.boxes,
                                )
                            )
                    finally:
                        if gc_was_enabled:
                            gc.enable()
                    values[name] = result.value
                first_name, first = next(iter(values.items()))
                for name, value in values.items():
                    if not math.isclose(value, first, rel_tol=1e-10, abs_tol=1e-300):
                        raise RuntimeError(
                            f"backend disagreement at m={m} n={n} seed={seed}: "
                            f"{first_name}={first!r} vs {name}={value!r}"
                        )
    records.sort(key=lambda r: (r.m, r.n, r.seed, r.algorithm, r.rep))
    return records


def summarize(records: Sequence[BenchmarkRecord]) -> list[dict[str, object]]:
    """Per (m, n, algorithm) aggregates of the timed calls, in sorted order."""
    cells: dict[tuple[int, int, str], list[BenchmarkRecord]] = {}
    for r in records:
        cells.setdefault((r.m, r.n, r.algorithm), []).append(r)
    out: list[dict[str, object]] = []
    for (m, n, algorithm) in sorted(cells):
        group = cells[(m, n, algorithm)]
        times = [r.time_ns for r in group]
        out.append(
            {
                "m": m,
                "n": n,
                "algorithm": algorithm,
                "calls": len(group),
                "mean_time_ns": statistics.fmean(times),
                "std_time_ns": statistics.stdev(times) if len(times) > 1 else 0.0,
                "mean_boxes": statistics.fmean(r.boxes for r in group),
                "max_boxes": max(r.boxes for r in group),
            }
        )
    return out
