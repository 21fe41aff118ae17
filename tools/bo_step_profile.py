#!/usr/bin/env python3
"""Break a BO step into its parts and count the page faults it takes.

    python3 tools/bo_step_profile.py

Runs BO on sphere3 (resolution 10: 1000 candidates, m = 3): 5 steps from
10 initial points for each of 16 seeds, the initial points of seed r drawn
by `default_rng([0, 1, r])`, as perfbench's bo-sphere3 workload draws BO
seed r under `--seed 0`. BLAS is pinned to one thread and ehvi is imported
from src/ of this checkout. Seed 0 runs once first, unrecorded, so lazy
set-up and the heap's first growth are not counted.

It prints the median microseconds per step of the GP fit, the GP
posterior, the acquisition (EHVI scoring and argmax, as bo_step times it),
the observation (hypervolume update and dominance check of the new point)
and the whole step, which also decomposes a front new since the last step,
and this process's minor page faults per step, from resource.getrusage
around each bo_step call.
"""

from __future__ import annotations

import os
import resource
import statistics
import sys
import time
from pathlib import Path

SEEDS = 16
STEPS = 5
N_INIT = 10


def _timed(store: list, fn):
    def wrapper(*args, **kwargs):
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            store.append(time.perf_counter_ns() - start)

    return wrapper


def main() -> None:
    # before numpy is first imported
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import numpy as np

    from ehvi import bo

    problem = bo.synthetic_problem("sphere3", bo.DEFAULT_RESOLUTION["sphere3"])
    total = len(problem.candidates.design_points)
    parts = {"fit": [], "posterior": [], "observe": []}
    # bo_step looks these up in bo's namespace, so the wrappers time its calls
    bo.fit_gp = _timed(parts["fit"], bo.fit_gp)
    bo.gp_posterior_batch = _timed(parts["posterior"], bo.gp_posterior_batch)
    bo._observe = _timed(parts["observe"], bo._observe)

    def run_seed(seed: int) -> list[tuple[int, int, int]]:
        init = np.random.default_rng([0, 1, seed]).choice(total, size=N_INIT, replace=False).tolist()
        state = bo.BoState(problem=problem, observed=init)
        rows = []
        for _ in range(STEPS):
            faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            start = time.perf_counter_ns()
            record = bo.bo_step(state)
            elapsed = time.perf_counter_ns() - start
            faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
            rows.append((elapsed, record.acquisition_time_ns, faults))
        return rows

    run_seed(0)
    for store in parts.values():
        store.clear()
    steps, acquisition, faults = zip(*(row for seed in range(SEEDS) for row in run_seed(seed)))

    def us(values) -> str:
        return f"{statistics.median(values) / 1e3:9.1f} us"

    print(f"sphere3 BO, {N_INIT} initial points, {STEPS} steps x {SEEDS} seeds = {len(steps)} steps")
    print(f"fit          {us(parts['fit'])}")
    print(f"posterior    {us(parts['posterior'])}")
    print(f"acquisition  {us(acquisition)}")
    print(f"observe      {us(parts['observe'])}")
    print(f"step         {us(steps)}")
    print(f"minor faults {sum(faults) / len(steps):9.1f} per step")


if __name__ == "__main__":
    main()
