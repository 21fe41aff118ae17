#!/usr/bin/env python3
"""Count the beliefs on which wfg is more than 1e-10 relative off sweep, on a fixed corpus.

    python3 tools/wfg_agreement.py [--src DIR]

The corpus is generate_front(m, n, seed) under benchmark_frame(m) for
m = 2-6, n = 10, 20 and 30 and seeds 0-1 (30 fronts), each with 200
beliefs drawn from default_rng([7, m, n, seed]): means uniform in
[-10.5, -0.1]^m, in and behind the front, and stddevs uniform in
[0.05, 3]^m. Far behind the front EHVI is tiny next to the full-region
integral that wfg's signed sum starts from, so some of those values keep no
correct digit; sweep integrates positive terms only and serves as the
reference. For each front the tool prints wfg's box count and how many
beliefs are over 1e-10 in single-belief ehvi_wfg calls and in one
compute_ehvi_batch(..., "wfg") call; then the totals.

ehvi is imported from --src (default src/ of this checkout), so two
revisions' src/ directories are compared on the same fronts and beliefs.
A front that wfg's work budget refuses is reported as refused.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", type=Path, default=ROOT / "src", help="directory holding the ehvi package")
    args = ap.parse_args(argv)
    sys.path.insert(0, str(args.src.resolve()))
    import numpy as np

    from ehvi import GaussianBelief, ParameterError, compute_ehvi_batch, ehvi_wfg, generate_front, validate_front
    from ehvi.bench import benchmark_frame

    print(f"{'front':<14}{'boxes':>8}{'single':>8}{'batch':>8}")
    totals = np.zeros(2, dtype=int)
    beliefs = 0
    for m in range(2, 7):
        for n in (10, 20, 30):
            for seed in (0, 1):
                name = f"({m}, {n}, {seed})"
                front = validate_front(benchmark_frame(m), generate_front(m, n, seed))
                rng = np.random.default_rng([7, m, n, seed])
                means, stds = rng.uniform(-10.5, -0.1, (200, m)), rng.uniform(0.05, 3.0, (200, m))
                try:
                    results = [ehvi_wfg(front, GaussianBelief(mu, sd)) for mu, sd in zip(means, stds)]
                    batch = compute_ehvi_batch(front, means, stds, "wfg")
                except ParameterError as exc:
                    print(f"{name:<14} refused: {exc}")
                    continue
                single = np.array([r.value for r in results])
                sweep = compute_ehvi_batch(front, means, stds, "sweep")
                off = [int((np.abs(v - sweep) > 1e-10 * np.abs(sweep)).sum()) for v in (single, batch)]
                totals += off
                beliefs += len(means)
                print(f"{name:<14}{results[0].boxes:>8}{off[0]:>8}{off[1]:>8}")
    print(f"{'total':<14}{'':>8}{totals[0]:>8}{totals[1]:>8}   of {beliefs} beliefs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
