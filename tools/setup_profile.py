#!/usr/bin/env python3
"""Time the set-up work of the benchmark and of bo-demo, and the cold start of the CLI.

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
  for each score shape of perfbench/inputs.py, at the seed perfbench uses;
- the cold start: the median wall time of COLD_RUNS fresh processes each of
  `python -c "import numpy"`, `python -c "import ehvi"` and `python -m ehvi
  compute` on perfbench's README request and its m3_n1000 request (at its
  fixed seed), the commands taking turns in every round, and whether
  those processes cache bytecode. With caching off every process compiles
  the ehvi modules it imports.

BLAS is pinned to one thread and ehvi is imported from --src (default src/
of this checkout), so

    python3 tools/setup_profile.py --src /path/to/other/checkout/src

profiles another revision on the same inputs.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
IMPORT_PROBE = "import time, numpy; t = time.perf_counter_ns(); import ehvi; print(time.perf_counter_ns() - t)"
COLD_RUNS = 11


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


def _cold_start(src: Path, requests: dict) -> tuple[dict[str, float], bool]:
    """Median wall ms per command over COLD_RUNS alternating rounds, and whether bytecode is cached."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    caching = subprocess.run([sys.executable, "-c", "import sys; print(not sys.dont_write_bytecode)"],
                             env=env, check=True, capture_output=True, text=True).stdout.strip() == "True"
    with tempfile.TemporaryDirectory() as tmp:
        commands = {"import numpy": ["-c", "import numpy"], "import ehvi": ["-c", "import ehvi"]}
        for name, request in requests.items():
            path = Path(tmp) / f"request-{name}.json"
            path.write_text(json.dumps(request), encoding="utf-8")
            commands[f"compute {name}"] = ["-m", "ehvi", "compute", "--input", str(path)]
        times: dict[str, list[float]] = {label: [] for label in commands}
        for _ in range(COLD_RUNS):
            for label, args in commands.items():
                start = time.perf_counter_ns()
                subprocess.run([sys.executable, *args], env=env, check=True, capture_output=True)
                times[label].append((time.perf_counter_ns() - start) / 1e6)
    return {label: statistics.median(t) for label, t in times.items()}, caching


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
    from inputs import FIXED_SEED, SHAPES, make_inputs
    from spans import import_ehvi

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
    cold, caching = _cold_start(src, make_inputs(import_ehvi(src), FIXED_SEED).requests)
    print(f"cold start, median of {COLD_RUNS} fresh processes; bytecode caching {'on' if caching else 'off'}")
    for label, ms in cold.items():
        print(f"{label:<24}{ms:>12.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
