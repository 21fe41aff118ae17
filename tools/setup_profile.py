#!/usr/bin/env python3
"""Time the set-up work of the benchmark and of bo-demo: import, BO problem, score fronts.

    python3 tools/setup_profile.py [--src DIR] [--repeats K] [--problem NAME:RES ...]

It prints the best of K repeats, in milliseconds, of:

- `import ehvi` in a fresh interpreter that has already imported numpy;
- bo.synthetic_problem(NAME, RES) for each --problem (default sphere3:10,
  the benchmark's BO problem, and sphere2:32), split into the grid and
  objectives, the nondominated_filter over the candidates, and the rest,
  which is the reference hypervolume; each column is its own best, so the
  total may read more than their sum. A problem the revision refuses prints
  the refusal and how long it took;
- bench.generate_front(m, n, seed) and core.validate_front on its points,
  for each score shape of perfbench/inputs.py, at the seed perfbench uses.

BLAS is pinned to one thread and ehvi is imported from --src (default src/
of this checkout), so

    python3 tools/setup_profile.py --src /path/to/other/checkout/src

profiles another revision on the same inputs.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
IMPORT_PROBE = "import time, numpy; t = time.perf_counter_ns(); import ehvi; print(time.perf_counter_ns() - t)"


def _best_ms(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter_ns()
        fn()
        best = min(best, (time.perf_counter_ns() - start) / 1e6)
    return best


def _import_ms(src: Path, repeats: int) -> float:
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    runs = [subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, check=True,
                           capture_output=True, text=True).stdout for _ in range(repeats)]
    return min(int(out) for out in runs) / 1e6


def _problem_ms(bo, name: str, resolution: int, repeats: int) -> tuple[list[float], str | None]:
    """Best ms of grid, filter, hypervolume and total, timed around bo's nondominated_filter."""
    inner = bo.nondominated_filter
    marks: list[int] = []

    def timed_filter(points):
        marks.append(time.perf_counter_ns())
        out = inner(points)
        marks.append(time.perf_counter_ns())
        return out

    best = [float("inf")] * 4
    bo.nondominated_filter = timed_filter
    try:
        for _ in range(repeats):
            marks.clear()
            start = time.perf_counter_ns()
            try:
                bo.synthetic_problem(name, resolution)
            except bo.ParameterError as exc:
                return [(time.perf_counter_ns() - start) / 1e6], str(exc)
            end = time.perf_counter_ns()
            spans = (marks[0] - start, marks[1] - marks[0], end - marks[1], end - start)
            best = [min(b, s / 1e6) for b, s in zip(best, spans)]
    finally:
        bo.nondominated_filter = inner
    return best, None


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", type=Path, default=ROOT / "src", help="directory holding the ehvi package")
    ap.add_argument("--repeats", type=int, default=7, help="repeats per figure, the best is printed")
    ap.add_argument("--problem", action="append", metavar="NAME:RES",
                    help="synthetic problem and resolution to time (repeatable)")
    args = ap.parse_args(argv)
    problems = [(p.split(":")[0], int(p.split(":")[1])) for p in args.problem or ["sphere3:10", "sphere2:32"]]
    # before numpy is first imported, here and in the import probe
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
        os.environ[var] = "1"
    src = args.src.resolve()
    sys.path[:0] = [str(src), str(ROOT / "perfbench")]
    import numpy as np
    from inputs import FIXED_SEED, SHAPES

    import ehvi.bench
    import ehvi.bo
    import ehvi.core

    k = args.repeats
    print(f"{'import ehvi':<14}{_import_ms(src, k):>12.1f}")
    print(f"{'problem':<14}" + "".join(f"{h:>12}" for h in ("grid", "filter", "hypervolume", "total")))
    for name, resolution in problems:
        times, refused = _problem_ms(ehvi.bo, name, resolution, k)
        label = f"{name}:{resolution}"
        if refused:
            print(f"{label:<14}refused after {times[0]:.1f} ms: {refused}")
        else:
            print(f"{label:<14}" + "".join(f"{t:>12.1f}" for t in times))
    print(f"{'shape':<14}" + "".join(f"{h:>16}" for h in ("generate_front", "validate_front")))
    for m, n in SHAPES:
        seed = int(np.random.SeedSequence([FIXED_SEED, m, n]).generate_state(1)[0])
        points = np.array(ehvi.bench.generate_front(m, n, seed)).tolist()
        frame = ehvi.bench.benchmark_frame(m)
        times = (
            _best_ms(lambda: ehvi.bench.generate_front(m, n, seed), k),
            _best_ms(lambda: ehvi.core.validate_front(frame, points), k),
        )
        print(f"{f'm{m}_n{n}':<14}" + "".join(f"{t:>16.1f}" for t in times))
    return 0


if __name__ == "__main__":
    sys.exit(main())
