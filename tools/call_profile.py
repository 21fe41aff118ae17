#!/usr/bin/env python3
"""Time the layers of a single-belief compute_ehvi call on the benchmark's score fronts.

    python3 tools/call_profile.py [--src DIR]

The fronts and beliefs are the score workload's, made by perfbench's
make_inputs under seed SEED: the m2_n100, m3_n100, m3_n1000, m4_n40 and
m6_n15 fronts, each with its improving and dominated-mean beliefs. For each
front it prints the best of REPEATS repeats of the mean microseconds per
call of the following, each called once per belief of the front in a
repeat:

- first call: compute_ehvi on a fresh Front of the front's points, which
  decomposes it;
- compute_ehvi(front, belief) on the one front, which keeps its sweep boxes
  after the first call, so this is the cost per belief of a decomposed front;
- rank_form on Front.coords, as the m >= 3 decompositions call it;
- sweep_boxes on a fresh Front;
- integrate_boxes(boxes, [mean], [stddev]) on the sweep boxes the front
  keeps, as compute_ehvi calls it;
- psi's unchecked kernel gaussian._psi on the breakpoints (all but the
  first -inf column) for the belief, as integrate_boxes calls it;

and the number of sweep boxes, as compute_ehvi reports it. The fresh Fronts
are built outside the timed interval. BLAS is pinned to one thread and ehvi
is imported from --src (default src/ of this checkout), so

    python3 tools/call_profile.py --src /path/to/other/checkout/src

profiles another revision with the same fronts. A revision whose Front has
no coords array gets rank_form timed on its point tuples, as it used them;
one whose Front kept an integration plan beside its boxes (sweep_plan) gets
integrate_boxes timed on that plan, and one with no _psi gets psi, which
checks sigma: each as that revision's compute_ehvi called them.
"""

from __future__ import annotations

import argparse
import importlib
import os
import sys
import time
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
SEED = 7  # make_inputs' seed, which draws the improving beliefs
REPEATS = 15


def _best_us(fn, calls: int, repeats: int, setup=lambda: None) -> float:
    """Best over repeats of the mean microseconds per call of fn(setup()), which makes `calls` calls.

    setup runs before each repeat, outside the timed interval.
    """
    fn(setup())  # warm-up
    best = float("inf")
    for _ in range(repeats):
        arg = setup()
        start = time.perf_counter_ns()
        fn(arg)
        best = min(best, (time.perf_counter_ns() - start) / calls / 1e3)
    return best


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", type=Path, default=ROOT / "src", help="directory holding the ehvi package")
    args = ap.parse_args(argv)
    # before numpy is first imported
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [str(args.src.resolve()), str(ROOT / "perfbench")]
    import numpy as np
    from inputs import make_inputs

    ehvi = SimpleNamespace(**{name: importlib.import_module(f"ehvi.{name}")
                              for name in ("bench", "bo", "core", "dispatch", "gaussian", "sweep")})
    compute, rank_form, Front = ehvi.dispatch.compute_ehvi, ehvi.core.rank_form, ehvi.core.Front
    sweep_boxes, integrate_boxes = ehvi.sweep.sweep_boxes, ehvi.gaussian.integrate_boxes
    sweep_plan = getattr(ehvi.sweep, "sweep_plan", sweep_boxes)
    psi = getattr(ehvi.gaussian, "_psi", ehvi.gaussian.psi)

    shapes: dict = {}
    for s in make_inputs(ehvi, SEED).score:
        shapes.setdefault(s.shape, (s.front, []))[1].extend(s.beliefs)
    header = ("shape", "first call", "compute_ehvi", "rank_form", "sweep_boxes", "integrate_boxes", "psi", "boxes")
    print(f"{header[0]:<9}" + "".join(f"{h:>16}" for h in header[1:]))
    for shape, (front, beliefs) in shapes.items():
        k, r = len(beliefs), REPEATS
        points = getattr(front, "coords", front.points)
        boxes, plan = sweep_boxes(front), sweep_plan(front)
        rows = [(b.mean, b.stddev) for b in beliefs]
        cols = [(np.array(mu)[:, None, None], np.array(sd)[:, None, None]) for mu, sd in rows]
        breaks = boxes.breaks[:, 1:, None]

        def fresh():
            return [Front(front.frame, front.points) for _ in beliefs]

        times = (
            _best_us(lambda fronts: [compute(f, b) for f, b in zip(fronts, beliefs)], k, r, fresh),
            _best_us(lambda _: [compute(front, b) for b in beliefs], k, r),
            _best_us(lambda _: [rank_form(points, front.reference) for _ in beliefs], k, r),
            _best_us(lambda fronts: [sweep_boxes(f) for f in fronts], k, r, fresh),
            _best_us(lambda _: [integrate_boxes(plan, [mu], [sd]) for mu, sd in rows], k, r),
            _best_us(lambda _: [psi(breaks, mu, sd) for mu, sd in cols], k, r),
        )
        count = compute(front, beliefs[0]).boxes
        print(f"{shape:<9}" + "".join(f"{t:>16.1f}" for t in times) + f"{count:>16}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
