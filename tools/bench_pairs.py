#!/usr/bin/env python3
"""Run the benchmark on two revisions in alternating pairs and summarize them.

    python3 tools/bench_pairs.py PARENT CHANGE --first-seed 700 --out BENCH_17.json

PARENT and CHANGE are git revisions of this repository. Each is exported
with `git archive` into a temporary directory of its own, so uncommitted
files take no part. For every workload of the
change's BENCHMARK.json and each of 10 seeds from --first-seed on, it runs

    python3 perfbench/run.py --workload W --seed S --seconds T --trace 0

once in each checkout, T being BENCHMARK.json's run_seconds. The parent runs first at even positions of the seed list
and second at odd ones. The last line of each run's stdout is its result; a
run that exits non-zero or prints no result is kept with `correct: false`
and its exit code.

The output JSON holds the command, host, the two revisions (with the git
tree id of their src/), the seeds, the order, the runs, and per workload a
summary: pairs, all_correct, failed and attempted operations per side, and
for each end-to-end metric the medians, the change's median over the
parent's, the parent's interquartile range (linear quantiles), the pairs in
which the change read strictly better, and worse_than_bound: the change's
median is worse than the parent's by more than the metric's bound, as a
share of the parent's median.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COMMAND = "python3 perfbench/run.py --workload W --seed S --seconds {seconds} --trace 0"
ORDER = (
    "one parent and one change run per (workload, seed), each in its own checkout; "
    "the parent runs first at even positions of the seed list and second at odd ones"
)
PAIRS = 10
RUN_TIMEOUT_S = 900


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True, text=True).stdout.strip()


def _export(rev: str, dest: Path) -> dict:
    commit = _git("rev-parse", "--verify", rev + "^{commit}")
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "archive", commit], cwd=ROOT, check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")
    return {"git_revision": commit, "src_tree": _git("rev-parse", commit + ":src")}


def _run(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
    argv += ["--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    if proc.returncode != 0 or not isinstance(result, dict):
        return {"correct": False, "exit_code": proc.returncode, "stderr_tail": proc.stderr[-2000:]}
    return result


def _iqr(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def _summary(parent: list[dict], change: list[dict], metrics: list[dict]) -> dict:
    sides = {"parent": [r["result"] for r in parent], "change": [r["result"] for r in change]}
    out = {
        "pairs": len(parent),
        "all_correct": all(r.get("correct") is True for rs in sides.values() for r in rs),
        "failed": {k: sum(r.get("failed", 0) for r in rs) for k, rs in sides.items()},
        "attempted": {k: sum(r.get("attempted", 0) for r in rs) for k, rs in sides.items()},
        "metrics": {},
    }
    for spec in metrics:
        name, higher, bound = spec["name"], spec["better"] == "higher", spec["bound"]
        values = {k: [r.get("metrics", {}).get(name, {}).get("value") for r in rs] for k, rs in sides.items()}
        pairs = [(p, c) for p, c in zip(values["parent"], values["change"]) if p is not None and c is not None]
        if not pairs:
            continue
        p_med = statistics.median(p for p, _ in pairs)
        c_med = statistics.median(c for _, c in pairs)
        better = sum(c > p if higher else c < p for p, c in pairs)
        worse = c_med < p_med * (1 - bound) if higher else c_med > p_med * (1 + bound)
        out["metrics"][name] = {
            "parent_median": p_med,
            "change_median": c_med,
            "change_over_parent": c_med / p_med if p_med else None,
            "parent_iqr": _iqr([p for p, _ in pairs]),
            "change_better_pairs": f"{better}/{len(pairs)}",
            "worse_than_bound": worse,
        }
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", help="git revision of the parent")
    ap.add_argument("change", help="git revision of the change")
    ap.add_argument("--out", required=True, type=Path, help="JSON file to write")
    ap.add_argument("--first-seed", type=int, required=True)
    args = ap.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as tmp:
        base = Path(tmp)
        revisions = {side: _export(getattr(args, side), base / side) for side in ("parent", "change")}
        bench = json.loads((base / "change" / "BENCHMARK.json").read_text())
        seconds = bench["run_seconds"]
        workloads = [w["name"] for w in bench["workloads"]]
        seeds = list(range(args.first_seed, args.first_seed + PAIRS))
        runs: dict = {w: {"parent": [], "change": []} for w in workloads}
        for workload in workloads:
            for i, seed in enumerate(seeds):
                first = "parent" if i % 2 == 0 else "change"
                for side in sorted(("parent", "change"), key=lambda s: s != first):
                    result = _run(base / side, workload, seed, seconds)
                    runs[workload][side].append({"seed": seed, "first": side == first, "result": result})
                    print(f"{workload} seed {seed} {side}: correct={result.get('correct')}", file=sys.stderr)
    doc = {
        "command": COMMAND.format(seconds=f"{seconds:g}"),
        "host": f"{os.cpu_count()}-core {platform.machine()} {platform.system()} host, Python {platform.python_version()}",
        **revisions,
        "seeds": seeds,
        "order": ORDER,
        "summary": {w: _summary(r["parent"], r["change"], bench["end_to_end"]) for w, r in runs.items()},
        "runs": runs,
    }
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
