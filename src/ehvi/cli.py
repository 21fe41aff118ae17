"""Command-line front end: compute, gen-front, bench, oracle, bo-demo.

Single computations print JSON to stdout; bulk runs write CSV files. Floats
go through Python's shortest round-trip repr, so every emitted number parses
back to the identical double. Exit codes: 0 ok, 2 usage/parse errors, 3
invalid front, 4 unsupported dimension.

Only the compute path is imported here: gen-front, bench and bo-demo import
the bench and BO modules, csv and statistics when they run.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import TYPE_CHECKING, Any, Sequence

from .core import Front, Orientation, ProblemFrame, Vector, as_vector, validate_front
from .dispatch import ALGORITHMS, compute_ehvi, resolve_algorithm
from .errors import (
    EhviError,
    InvalidFrontError,
    ParameterError,
    ReferenceBoundError,
    UnsupportedDimensionError,
)
from .gaussian import GaussianBelief
from .oracle import ehvi_monte_carlo

if TYPE_CHECKING:
    from .bo import BoRunRecord

DEFAULT_NS = (10, 50, 100, 150, 200, 250, 300)  # `bench --n` default front sizes


def _load_json(path: str) -> Any:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _field(data: Any, key: str) -> Any:
    if not isinstance(data, dict):
        raise ParameterError("request must be a JSON object")
    if key not in data:
        raise ParameterError(f"request is missing required field {key!r}")
    return data[key]


def _numbers(value: Any, key: str) -> Vector:
    """A JSON list of numbers as a tuple of floats; ParameterError naming the field otherwise.

    JSON true and false are rejected, not read as 1.0 and 0.0.
    """
    if isinstance(value, list) and not any(isinstance(x, bool) for x in value):
        try:
            return as_vector(value)
        except (TypeError, ValueError, OverflowError):
            pass
    raise ParameterError(f"request field {key!r}: expected a list of numbers, got {value!r}")


def load_request(data: Any, need_belief: bool = True) -> tuple[Front, GaussianBelief | None, str | None]:
    """Parse a request object into a validated Front, belief, and algorithm name.

    The request carries everything in the user's orientation; maximize
    requests are negated here, once, into the internal minimization frame
    (mean included, stddev unchanged).
    """
    m = _field(data, "m")
    if type(m) is not int:  # bool is an int subclass; floats and strings are not coerced
        raise ParameterError(f"request field 'm' must be an integer, got {m!r}")
    maximize = data.get("maximize", False)
    if type(maximize) is not bool:
        raise ParameterError(f"request field 'maximize' must be true or false, got {maximize!r}")
    orientation = Orientation.MAXIMIZE if maximize else Orientation.MINIMIZE
    reference = _numbers(_field(data, "reference"), "reference")
    frame = ProblemFrame(m=m, reference=reference, orientation=orientation)
    points = _field(data, "front")
    if not isinstance(points, list):
        raise ParameterError(f"request field 'front' must be a list of points, got {points!r}")
    front = validate_front(frame, [_numbers(p, "front") for p in points])
    belief = None
    if need_belief:
        mean = _numbers(_field(data, "mean"), "mean")
        if maximize:
            mean = tuple(-x for x in mean)
        belief = GaussianBelief(mean=mean, stddev=_numbers(_field(data, "stddev"), "stddev"))
    algorithm = data.get("algorithm")
    if algorithm is not None:
        algorithm = str(algorithm)
    return front, belief, algorithm


def _int_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise ParameterError(f"expected a comma-separated integer list, got {text!r}") from None


def cmd_compute(args: argparse.Namespace) -> int:
    front, belief, requested = load_request(_load_json(args.input))
    name = args.algorithm or requested or "auto"
    resolved = resolve_algorithm(name)
    start = time.perf_counter_ns()
    result = compute_ehvi(front, belief, resolved)
    elapsed = time.perf_counter_ns() - start
    payload = {"ehvi": result.value, "algorithm": resolved, "boxes": result.boxes, "time_ns": elapsed}
    try:
        text = json.dumps(payload, allow_nan=False)
    except ValueError:
        raise ParameterError(f"EHVI is not finite ({result.value!r}) for this request") from None
    print(text)
    return 0


def cmd_gen_front(args: argparse.Namespace) -> int:
    from .bench import generate_front

    points = generate_front(args.m, args.n, args.seed)
    payload = {
        "m": args.m,
        "maximize": True,
        "reference": [0.0] * args.m,
        "front": [list(p) for p in points],
        "seed": args.seed,
    }
    text = json.dumps(payload, indent=2)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    import csv

    from .bench import run_benchmark, summarize

    ms = _int_list(args.m)
    ns = _int_list(args.n)
    algorithms = [a.strip() for a in args.algorithms.split(",") if a.strip()]
    records = run_benchmark(
        ms, ns, args.seeds, args.reps, algorithms, sigma_as_variance=args.sigma_as_variance
    )
    out = Path(args.out)
    with open(out, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["algorithm", "m", "n", "seed", "rep", "ehvi", "time_ns", "boxes"])
        for r in records:
            writer.writerow([r.algorithm, r.m, r.n, r.seed, r.rep, r.ehvi, r.time_ns, r.boxes])
    rows = summarize(records)
    summary_path = out.with_name(out.stem + "_summary" + (out.suffix or ".csv"))
    fields = ["m", "n", "algorithm", "calls", "mean_time_ns", "std_time_ns", "mean_boxes", "max_boxes"]
    with open(summary_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        writer.writerows(rows)
    for row in rows:
        print(
            f"m={row['m']} n={row['n']} {row['algorithm']}: "
            f"mean {row['mean_time_ns'] / 1e6:.4f} ms over {row['calls']} calls, "
            f"max boxes {row['max_boxes']}"
        )
    print(f"wrote {len(records)} records to {out} and {len(rows)} summary rows to {summary_path}")
    return 0


def cmd_oracle(args: argparse.Namespace) -> int:
    front, belief, _ = load_request(_load_json(args.input))
    estimate = ehvi_monte_carlo(front, belief, samples=args.samples, seed=args.seed)
    print(
        json.dumps(
            {
                "mean": estimate.mean,
                "std_error": estimate.std_error,
                "samples": estimate.samples,
                "seed": estimate.seed,
            }
        )
    )
    return 0


def _write_run_csv(path: Path, seed: int, records: Sequence[BoRunRecord], d: int, m: int) -> None:
    import csv

    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["seed", "iteration"]
            + [f"x{i}" for i in range(d)]
            + [f"f{j}" for j in range(m)]
            + ["hypervolume", "acquisition_time_ms", "gp_time_ms"]
        )
        for r in records:
            writer.writerow(
                [seed, r.iteration]
                + list(r.design_point)
                + list(r.objectives)
                + [r.hypervolume, r.acquisition_time_ns / 1e6, r.gp_time_ns / 1e6]
            )


def cmd_bo_demo(args: argparse.Namespace) -> int:
    import csv
    import statistics

    from .bo import DEFAULT_RESOLUTION, run_bo, run_random, synthetic_problem

    resolution = args.resolution or DEFAULT_RESOLUTION.get(args.problem, 16)
    problem = synthetic_problem(args.problem, resolution)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    d = problem.candidates.design_points.shape[1]
    m = problem.frame.m
    bo_runs: list[list[BoRunRecord]] = []
    random_runs: list[list[BoRunRecord]] = []
    for seed in range(args.seeds):
        bo = run_bo(problem, seed, n_init=args.init, iterations=args.iters)
        rnd = run_random(problem, seed, evaluations=args.init + args.iters, n_init=args.init)
        _write_run_csv(out_dir / f"bo_seed{seed}.csv", seed, bo, d, m)
        _write_run_csv(out_dir / f"random_seed{seed}.csv", seed, rnd, d, m)
        bo_runs.append(bo)
        random_runs.append(rnd)

    evaluations = args.init + args.iters
    with open(out_dir / "summary.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iteration", "bo_mean_hv", "bo_std_hv", "random_mean_hv", "random_std_hv"])
        for i in range(evaluations):
            bo_hv = [run[i].hypervolume for run in bo_runs]
            rnd_hv = [run[i].hypervolume for run in random_runs]
            writer.writerow(
                [
                    i,
                    statistics.fmean(bo_hv),
                    statistics.stdev(bo_hv) if len(bo_hv) > 1 else 0.0,
                    statistics.fmean(rnd_hv),
                    statistics.stdev(rnd_hv) if len(rnd_hv) > 1 else 0.0,
                ]
            )
    bo_final = statistics.fmean(run[-1].hypervolume for run in bo_runs)
    rnd_final = statistics.fmean(run[-1].hypervolume for run in random_runs)
    print(f"problem {args.problem}: attainable hypervolume {problem.reference_hypervolume!r}")
    print(f"bo final hypervolume mean over {args.seeds} seeds: {bo_final!r}")
    print(f"random final hypervolume mean over {args.seeds} seeds: {rnd_final!r}")
    print(f"wrote per-run CSVs and summary.csv to {out_dir}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ehvi",
        description="Exact expected hypervolume improvement: compute, benchmark, verify, demo.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="compute EHVI for a request file")
    p.add_argument("--input", required=True, help="request JSON file")
    p.add_argument("--algorithm", choices=sorted(ALGORITHMS), default=None,
                   help="override the request's algorithm (default: request field, then auto)")
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("gen-front", help="generate a random mutually nondominated front")
    p.add_argument("--m", type=int, required=True, help="objective count")
    p.add_argument("--n", type=int, required=True, help="front size")
    p.add_argument("--seed", type=int, default=0, help="generator seed")
    p.add_argument("--out", default=None, help="output JSON file (default: stdout)")
    p.set_defaults(func=cmd_gen_front)

    p = sub.add_parser("bench", help="time the backends on random fronts")
    p.add_argument("--m", default="3", help="comma-separated objective counts")
    p.add_argument("--n", default=",".join(str(n) for n in DEFAULT_NS),
                   help="comma-separated front sizes")
    p.add_argument("--seeds", type=int, default=10, help="fronts per (m, n) cell")
    p.add_argument("--reps", type=int, default=5, help="timed repetitions per front")
    p.add_argument("--algorithms", default="grid,wfg,sweep", help="comma-separated backends")
    p.add_argument("--sigma-as-variance", action="store_true",
                   help="read the default spread 2.5 as a variance instead of a stddev")
    p.add_argument("--out", required=True, help="records CSV path (summary goes next to it)")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("oracle", help="Monte-Carlo EHVI estimate for a request file")
    p.add_argument("--input", required=True, help="request JSON file")
    p.add_argument("--samples", type=int, default=1_000_000, help="Monte-Carlo sample count")
    p.add_argument("--seed", type=int, default=0, help="generator seed")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("bo-demo", help="run the EHVI-vs-random Bayesian optimization demo")
    p.add_argument("--problem", required=True, help="synthetic problem name (sphere2, sphere3)")
    p.add_argument("--seeds", type=int, default=10, help="independent repetitions")
    p.add_argument("--iters", type=int, default=100, help="EHVI-driven queries after initialization")
    p.add_argument("--init", type=int, default=20, help="random initial design size")
    p.add_argument("--resolution", type=int, default=None,
                   help="candidate grid resolution per axis (default: per-problem)")
    p.add_argument("--out-dir", required=True, help="directory for per-run and summary CSVs")
    p.set_defaults(func=cmd_bo_demo)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits on usage errors and --help
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        return args.func(args)
    except UnsupportedDimensionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (InvalidFrontError, ReferenceBoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (EhviError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # numpy's message names the allocation that failed
        print(f"error: out of memory: {exc}" if str(exc) else "error: out of memory", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
