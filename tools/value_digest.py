#!/usr/bin/env python3
"""Print sha256 digests of EHVI values on fixed fronts and beliefs, one line per family.

    python3 tools/value_digest.py [--src DIR]

The families are:

- score auto, score wfg: compute_ehvi(front, belief, algorithm) one belief
  at a time on the benchmark's score fronts (m2_n100, m3_n100, m3_n1000,
  m4_n40, m6_n15) with their improving and dominated-mean beliefs, made by
  perfbench's make_inputs under seed SEED;
- batch auto, batch wfg: compute_ehvi_batch(front, means, stds, algorithm)
  on generate_front(m, n, seed) under benchmark_frame(m) for the (m, n) of
  BATCH_SHAPES and seeds 0-1, each with Q beliefs from default_rng([11, m,
  n, seed]): a quarter with means just past the ideal corner, the rest in
  and far behind the front with small stddevs, where EHVI is tiny next to
  the full-region integral (the tail).

Each line digests the float64 bytes of the values in order. ehvi is
imported from --src (default src/ of this checkout), so two revisions that
print the same lines give bit-identical values there:

    git archive REV | tar -x -C DIR
    PYTHONDONTWRITEBYTECODE=1 python3 tools/value_digest.py --src DIR/src

A single-belief call on the score fronts is one narrow block of
integrate_boxes and a batch of Q beliefs is several wide ones, so the two
kinds of family take its two gathering orders.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import sys
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
SEED = 7  # make_inputs' seed, which draws the improving beliefs
BATCH_SHAPES = ((2, 100), (3, 100), (4, 40), (5, 20), (6, 15))
Q = 400


def _line(name: str, values) -> str:
    import numpy as np

    values = np.asarray(values, dtype=np.float64)
    return f"{name}: {len(values)} values, sha256 {hashlib.sha256(values.tobytes()).hexdigest()}"


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", type=Path, default=ROOT / "src", help="directory holding the ehvi package")
    args = ap.parse_args(argv)
    sys.path[:0] = [str(args.src.resolve()), str(ROOT / "perfbench")]
    import numpy as np
    from inputs import make_inputs

    ehvi = SimpleNamespace(**{name: importlib.import_module(f"ehvi.{name}")
                              for name in ("bench", "bo", "core", "dispatch", "gaussian")})
    compute, batch = ehvi.dispatch.compute_ehvi, ehvi.dispatch.compute_ehvi_batch
    score = make_inputs(ehvi, SEED).score
    for algorithm in ("auto", "wfg"):
        values = [compute(s.front, b, algorithm).value for s in score for b in s.beliefs]
        print(_line(f"score {algorithm}", values))
    fronts = []
    for m, n in BATCH_SHAPES:
        for seed in (0, 1):
            front = ehvi.core.validate_front(ehvi.bench.benchmark_frame(m), ehvi.bench.generate_front(m, n, seed))
            rng = np.random.default_rng([11, m, n, seed])
            k = Q // 4
            means = np.concatenate([rng.uniform(-10.5, -8.0, (k, m)), rng.uniform(-6.0, -0.1, (Q - k, m))])
            stds = np.concatenate([rng.uniform(0.5, 3.0, (k, m)), rng.uniform(0.02, 0.5, (Q - k, m))])
            fronts.append((front, means, stds))
    for algorithm in ("auto", "wfg"):
        print(_line(f"batch {algorithm}", np.concatenate([batch(f, mu, sd, algorithm) for f, mu, sd in fronts])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
