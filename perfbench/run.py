#!/usr/bin/env python3
"""Benchmark of the ehvi package.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Workloads (closed loop: each call starts when the previous one returns):

    bo-sphere3   EHVI-driven BO steps on synthetic_problem("sphere3", 10)
    score        compute_ehvi(front, belief) one belief at a time, five (m, n)
    cli-compute  fresh `python -m ehvi compute --input FILE` processes

Every run reports every end-to-end metric: for S seconds it interleaves
whole rounds of all three scenarios, giving the workload's own scenario half
of the time and the other two a quarter each (the score scenario then runs
the improving beliefs only). Only the workload's own operations are counted
in ``attempted`` and ``failed``; the others are checked too, and a failure
among them makes ``correct`` false.

Every output is checked against ``reference.py``, which shares no code with
ehvi. The last line of stdout is the JSON result; with ``--trace 1`` its
metrics are the per-layer ones from spans around the ehvi entry points.
Results and spans go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("bo-sphere3", "score", "cli-compute")
SETUP_CHILDREN = 2  # set-up samples taken in fresh processes, besides this one
OWN_SHARE = 0.5  # of --seconds, for the workload's own scenario
CLI_NAMES = ("small", "m3_n1000")
BIG_REQUEST_KEY = ("m3_n1000", "improving", 0)  # the score belief the m3_n1000 request carries
EHVI_RTOL = 1e-10
HV_RTOL = 1e-12
CHILD_TIMEOUT_S = 120
BLAS_THREADS = "1"  # at most nproc; set before numpy is first imported, inherited by children
# Host speed on the 2-core machine this was built on changes all the time
# between two states about 1.8x apart, for spells from under a second to
# ten seconds; CPU time follows wall time. So a fixed pure-Python loop is
# timed before and after every timed sample, and each sample is scaled by
# CAL_REF_S / (the mean loop time within CAL_WINDOW_S of it): reported times
# are those of a host on which the loop takes CAL_REF_S, its time in the
# fast state there. The loop time is the least of CAL_REPEATS runs, which
# drops runs cut by preemption. Raw medians are printed beside.
CAL_ITERS = 6000
CAL_REPEATS = 3
CAL_REF_S = 0.00072
CAL_WINDOW_S = 1.0


def calibration_s() -> float:
    best = math.inf
    for _ in range(CAL_REPEATS):
        start = time.perf_counter()
        acc, table = 0.0, {}
        for i in range(CAL_ITERS):
            acc += math.sqrt(i) * 1.5
            table[i & 255] = acc
        best = min(best, time.perf_counter() - start)
    return best


class Clock:
    """Timed samples as (start, end) and the calibration times around them."""

    def __init__(self):
        self.cal_at: list[float] = []
        self.cal_s: list[float] = []
        self.spent = 0.0  # seconds spent in calibrate()

    def calibrate(self) -> None:
        start = time.perf_counter()
        self.cal_at.append(start)
        self.cal_s.append(calibration_s())
        self.spent += time.perf_counter() - start

    def timed(self, fn):
        """Run fn() between two calibrations; return (its result, (start, end))."""
        self.calibrate()
        start = time.perf_counter()
        result = fn()
        end = time.perf_counter()
        self.calibrate()
        return result, (start, end)

    def scale(self, span) -> float:
        """CAL_REF_S over the mean calibration time within CAL_WINDOW_S of span."""
        lo = bisect.bisect_left(self.cal_at, span[0] - CAL_WINDOW_S)
        hi = bisect.bisect_right(self.cal_at, span[1] + CAL_WINDOW_S)
        return CAL_REF_S / statistics.fmean(self.cal_s[lo:hi])

    def scaled(self, span) -> float:
        return (span[1] - span[0]) * self.scale(span)


def _rel(value: float, ref: float) -> float:
    if value == ref:
        return 0.0
    return abs(value - ref) / abs(ref) if ref != 0 else math.inf


def timing_line(name: str, samples: list[float], unit: str) -> str:
    """Median, sample count and the highest percentile with ten samples beyond it."""
    n = len(samples)
    line = f"{name}: median {statistics.median(samples):.6g} {unit} over {n} samples"
    if n >= 40:
        ordered = sorted(samples)
        p = math.floor(1000 * (1 - 10 / n)) / 10
        line += f", p{p:g} {ordered[math.ceil(n * p / 100) - 1]:.6g} {unit}"
    return line


class Bench:
    """One run: inputs, the three scenarios, their checks and metrics."""

    def __init__(self, ehvi, inputs, args, tracer, reference, clock):
        self.ehvi = ehvi
        self.clock = clock
        self.inputs = inputs
        self.args = args
        self.tracer = tracer
        self.ref = reference
        self.run_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
        self.run_dir.mkdir(parents=True, exist_ok=True)
        # measurements, untraced unless named otherwise
        self.steps: list[tuple] = []  # span of each untraced BO step
        self.bo_states: dict[int, object] = {}
        self.bo_repeats_match = True
        self.traced_records: list = []
        self.score_calls: dict[str, list[float]] = {}  # raw s per call
        self.score_spans: dict[str, list[tuple]] = {}  # span of each shape's calls in a pass
        self.score_values: dict[tuple, float] = {}
        self.score_repeats_match = True
        self.traced_passes = 0
        self.cli: dict[str, list[tuple]] = {name: [] for name in CLI_NAMES}  # span per process
        self.cli_runs: list[tuple] = []  # (name, returncode, stdout, stderr)
        self.cli_tables: list = []
        self.overhead = {"traced": [], "untraced": []}
        self.attempted = 0
        self.own: set[tuple] = set()  # result keys of the workload's own operations

    # -- tracing ----------------------------------------------------------
    def _traced(self, on: bool):
        if self.tracer is None:
            return
        if on:
            self.tracer.install(self.ehvi)
        else:
            self.tracer.uninstall()

    def _begin(self, tag: str, traced: bool) -> None:
        if traced:
            self.tracer.begin_op(tag)

    # -- bo-sphere3 -------------------------------------------------------
    def bo_round(self, r: int, traced: bool) -> list[tuple]:
        """BO_STEPS steps from BO seed r; returns the span of each step."""
        from inputs import BO_STEPS

        bo = self.ehvi.bo
        state = bo.BoState(problem=self.inputs.problem, observed=self.inputs.bo_init(r))
        times = []
        for _ in range(BO_STEPS):
            self._begin("bo", traced)
            times.append(self.clock.timed(lambda: bo.bo_step(state))[1])
        if r in self.bo_states:
            self.bo_repeats_match &= state.observed == self.bo_states[r].observed
        else:
            self.bo_states[r] = state
        if traced:
            self.traced_records.extend(state.records)
        return times

    # -- score ------------------------------------------------------------
    def score_pass(self, families: tuple, traced: bool, own: bool) -> list[tuple]:
        """One call per belief of the given families; returns the spans of the pass."""
        compute = self.ehvi.dispatch.compute_ehvi
        self.traced_passes += traced
        spans = []
        for s in self.inputs.score:
            if s.family not in families:
                continue
            times = self.score_calls.setdefault(s.shape, [])

            def calls():
                values = []
                for belief in s.beliefs:
                    self._begin(f"score.{s.shape}", traced)
                    start = time.perf_counter()
                    values.append(compute(s.front, belief).value)
                    times.append(time.perf_counter() - start)
                return values

            values, span = self.clock.timed(calls)
            self.score_spans.setdefault(s.shape, []).append(span)
            spans.append(span)
            for i, value in enumerate(values):
                key = (s.shape, s.family, i)
                if own:
                    self.own.add(key)
                if key in self.score_values:
                    self.score_repeats_match &= value == self.score_values[key]
                else:
                    self.score_values[key] = value
        return spans

    # -- cli-compute ------------------------------------------------------
    def _env(self) -> dict:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        return env

    def cli_round(self, traced: bool) -> list[tuple]:
        """One `ehvi compute` process per request; returns their spans."""
        from spans import SpanTable
        paths = {}
        for name in CLI_NAMES:
            paths[name] = self.run_dir / f"request-{name}.json"
            if not paths[name].exists():
                paths[name].write_text(json.dumps(self.inputs.requests[name]), encoding="utf-8")
        round_spans = []
        for name in CLI_NAMES:
            spans_path = self.run_dir / f"cli-spans-{name}.json"
            cmd = [sys.executable, "-m", "ehvi", "compute", "--input", str(paths[name])]
            if traced:
                cmd = [sys.executable, str(HERE / "child.py"), "cli", "--spans", str(spans_path), "--"] + cmd[3:]
            proc, span = self.clock.timed(lambda: subprocess.run(
                cmd, cwd=ROOT, env=self._env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S))
            round_spans.append(span)
            self.cli_runs.append((name, proc.returncode, proc.stdout, proc.stderr))
            if traced:
                data = json.loads(spans_path.read_text(encoding="utf-8"))
                spans = data["spans"]
                self.cli_tables.append(SpanTable(
                    data["names"], [s[0] for s in spans], [s[1] for s in spans], [s[2] for s in spans],
                    [s[3] for s in spans], [f"cli.{name}"] * len(spans)))
            else:
                self.cli[name].append(span)
        return round_spans

    # -- driving ----------------------------------------------------------
    def measure(self) -> None:
        """Interleave rounds of the three scenarios for --seconds, by time share.

        The workload's own scenario gets OWN_SHARE of the time, the other two
        half the rest each; the next round always goes to the scenario
        furthest behind its share, so every scenario's samples spread over the
        whole run. Each scenario then finishes its minimum number of rounds.
        Traced runs alternate untraced and traced rounds of the workload's own
        scenario (for the overhead) and trace every other round.
        """
        from inputs import BO_ROUNDS, BO_STEPS

        own = self.args.workload
        trace = self.tracer is not None
        share = {name: OWN_SHARE if name == own else (1 - OWN_SHARE) / 2 for name in WORKLOADS}
        minimum = {"bo-sphere3": BO_ROUNDS, "score": 2, "cli-compute": 3}
        minimum[own] *= 2 if trace else 1
        used = dict.fromkeys(WORKLOADS, 0.0)
        rounds = dict.fromkeys(WORKLOADS, 0)
        while True:
            behind = [n for n in WORKLOADS if used[n] < share[n] * self.args.seconds or rounds[n] < minimum[n]]
            if not behind:
                break
            name = min(behind, key=lambda n: used[n] / share[n])
            is_own = name == own
            traced = trace and not (is_own and rounds[name] % 2 == 0)
            self._traced(traced)
            gc.collect()
            start = time.perf_counter()
            if name == "bo-sphere3":
                r = rounds[name] // 2 if trace and is_own else rounds[name]
                spans = self.bo_round(r, traced)
                if not traced:
                    self.steps.extend(spans)
                ops = BO_STEPS
            elif name == "score":
                families = ("improving", "dominated") if is_own else ("improving",)
                spans = self.score_pass(families, traced, own=is_own)
                ops = sum(len(s.beliefs) for s in self.inputs.score)
            else:
                spans = self.cli_round(traced)
                ops = len(CLI_NAMES)
            used[name] += time.perf_counter() - start
            rounds[name] += 1
            self._traced(False)
            if is_own:
                self.attempted += ops
                # BO compares steps, the others whole rounds
                rows = [[span] for span in spans] if name == "bo-sphere3" else [spans]
                self.overhead["traced" if traced else "untraced"].extend(rows)

    # -- checks -----------------------------------------------------------
    def check(self) -> dict:
        """Compare every output with the reference; returns the check summary."""
        from inputs import BO_INIT, BO_ROUNDS

        ref = self.ref
        failed_keys = set()
        max_err: dict[str, float] = {}
        # score
        score_ref, columns = {}, {}
        for s in self.inputs.score:
            if s.shape not in columns:
                columns[s.shape] = ref.Columns(-s.points, [0.0] * s.points.shape[1])
            cols = columns[s.shape]
            for i in range(len(s.beliefs)):
                key = (s.shape, s.family, i)
                if key not in self.score_values and key != BIG_REQUEST_KEY:
                    continue
                score_ref[key] = cols.ehvi(-s.means[i], s.sds[i])
                if key in self.score_values:
                    err = _rel(self.score_values[key], score_ref[key])
                    backend = "clm3" if s.points.shape[1] == 3 else "wfg"
                    name = f"{backend}.max_rel_err.{s.shape}"
                    max_err[name] = max(max_err.get(name, 0.0), err)
                    if not err <= EHVI_RTOL:
                        failed_keys.add(key)
        # bo
        bo_ok = self.bo_repeats_match
        problem = self.inputs.problem
        objs = problem.candidates.objectives
        ref_point = list(problem.frame.reference)
        bo_err = 0.0
        for r, state in sorted(self.bo_states.items()):
            obs = state.observed
            bo_ok &= len(set(obs)) == len(obs)
            prev = ref.hypervolume(objs[obs[:BO_INIT]], ref_point) * (1 - HV_RTOL)
            for k, record in enumerate(state.records):
                hv = ref.hypervolume(objs[obs[: BO_INIT + k + 1]], ref_point)
                bo_ok &= _rel(record.hypervolume, hv) <= HV_RTOL and record.hypervolume >= prev
                prev = record.hypervolume
            if r < BO_ROUNDS:
                ok, err = self._check_argmax(state, r)
                bo_ok &= ok
                bo_err = max(bo_err, err)
        max_err["clm3.max_rel_err.bo"] = bo_err
        # cli
        cli_ok = True
        cli_ref = {
            "small": ref.request_ehvi(self.inputs.requests["small"]),
            "m3_n1000": score_ref[BIG_REQUEST_KEY],
        }
        for name, code, out, err_text in self.cli_runs:
            try:
                value = json.loads(out)["ehvi"]
                good = code == 0 and _rel(float(value), cli_ref[name]) <= EHVI_RTOL
            except (ValueError, KeyError, TypeError):
                good = False
            if not good:
                print(f"cli {name}: exit {code}, stdout {out!r}, stderr {err_text!r}", file=sys.stderr)
            cli_ok &= good
        own_failed = sum(1 for key in failed_keys if key in self.own)
        probe_failed = len(failed_keys) - own_failed
        workload = self.args.workload
        failed = {
            "bo-sphere3": 0 if bo_ok else self.attempted,
            "score": own_failed * (self.attempted // max(1, len(self.own))),
            "cli-compute": 0 if cli_ok else self.attempted,
        }[workload]
        # a failure is expected only where a dominated-mean belief meets the
        # full - dominated cancellation; any other one means a wrong answer
        unexpected = any(key[1] != "dominated" for key in failed_keys)
        correct = (bo_ok and cli_ok and self.score_repeats_match and not unexpected and probe_failed == 0)
        if failed_keys:
            print(f"score: {len(failed_keys)} distinct operations disagree with the reference: "
                  + ", ".join(f"{k[0]}/{k[1]}#{k[2]}" for k in sorted(failed_keys)), file=sys.stderr)
        return {"correct": bool(correct), "failed": int(failed), "max_err": max_err}

    def _check_argmax(self, state, r: int) -> tuple[bool, float]:
        """On one seeded step of round r, the queried candidate must be a reference argmax."""
        from inputs import BO_INIT, BO_STEPS
        import numpy as np

        ehvi, ref = self.ehvi, self.ref
        problem = self.inputs.problem
        step = int(np.random.default_rng([self.args.seed, 3, r]).integers(BO_STEPS))
        before = state.observed[: BO_INIT + step]
        queried = state.observed[BO_INIT + step]
        design = problem.candidates.design_points
        objs = problem.candidates.objectives
        mask = np.ones(len(design), dtype=bool)
        mask[before] = False
        unexplored = np.flatnonzero(mask)
        m = objs.shape[1]
        means = np.empty((unexplored.size, m))
        sds = np.empty((unexplored.size, m))
        for j in range(m):
            gp = ehvi.gp.fit_gp(design[before], objs[before, j])
            means[:, j], sds[:, j] = ehvi.gp.gp_posterior_batch(gp, design[unexplored])
        sds = np.maximum(sds, 1e-9)  # the stddev floor bo_step applies
        front_pts = ref.nondominated(objs[before])
        cols = ref.Columns(front_pts, list(problem.frame.reference))
        screen = cols.ehvi_float(means, sds)
        slack = 1e-8 * cols.full_float(means, sds)
        floor = float(np.max(screen - slack))
        near = set(np.flatnonzero(screen + slack >= floor).tolist())
        qpos = int(np.searchsorted(unexplored, queried))
        exact = {i: cols.ehvi(means[i], sds[i]) for i in near | {qpos}}
        ok = qpos in near and all(abs(v - screen[i]) <= slack[i] for i, v in exact.items())
        ok &= exact[qpos] >= max(exact.values()) * (1 - EHVI_RTOL)
        front = ehvi.core.validate_front(problem.frame, [tuple(p) for p in front_pts])
        err = 0.0
        for i, v in exact.items():
            belief = ehvi.gaussian.GaussianBelief(mean=tuple(means[i]), stddev=tuple(sds[i]))
            err = max(err, _rel(ehvi.dispatch.compute_ehvi(front, belief).value, v))
        return bool(ok), err

    # -- metrics ----------------------------------------------------------
    def end_to_end(self, setup: list[tuple]) -> tuple[dict, list[str]]:
        """The end-to-end metrics, and lines to print; ``setup`` holds (raw s, scaled s)."""
        from inputs import BO_ROUNDS, SHAPES, shape_name

        metrics, lines = {}, []

        def timing(name, samples, unit, scale):
            raw = [r * scale for r, _ in samples]
            scaled = [x * scale for _, x in samples]
            metrics[name] = (statistics.median(scaled), unit)
            lines.append(timing_line(name, scaled, unit) + f" (raw median {statistics.median(raw):.6g} {unit})")

        def spans(samples):
            return [(end - start, self.clock.scaled((start, end))) for start, end in samples]

        timing("setup_s", setup, "s", 1.0)
        timing("bo_step_ms", spans(self.steps), "ms", 1e3)
        finals = [self.bo_states[r].records[-1].hypervolume for r in range(BO_ROUNDS)]
        metrics["bo_final_hv"] = (statistics.fmean(finals), "hv")
        lines.append(f"bo_final_hv: mean {metrics['bo_final_hv'][0]!r} hv over {len(finals)} BO seeds")
        for m, n in SHAPES:
            name = shape_name(m, n)
            calls = self.score_calls[name]
            scaled = sum(self.clock.scaled(span) for span in self.score_spans[name])
            metrics[f"ehvi_per_s.{name}"] = (len(calls) / scaled, "1/s")
            lines.append(f"ehvi_per_s.{name}: {metrics[f'ehvi_per_s.{name}'][0]:.6g} 1/s (raw "
                         f"{len(calls) / sum(calls):.6g}); " + timing_line("raw call time", [x * 1e6 for x in calls], "us"))
        for name in CLI_NAMES:
            timing(f"cli_compute_ms.{name}", spans(self.cli[name]), "ms", 1e3)
        return metrics, lines

    def per_layer(self, max_err: dict) -> dict:
        """The per-layer metrics from the spans and counts of the traced operations."""
        import numpy as np
        from inputs import SHAPES, shape_name
        from spans import SpanTable

        tr = self.tracer
        name, start, end, parent, op = tr.arrays()
        tags = np.array(tr.op_tags + ["setup"])[op]  # op -1: outside any operation
        main = SpanTable(tr.names, name, start, end, parent, tags)
        table = SpanTable.concat([main] + self.cli_tables)
        counts = {t: dict(c) for t, c in tr.counts.items()}

        def med_ms(span, tag, scale=1e6):
            d = table.durations(span, tag)
            return float(np.median(d)) / scale if d.size else 0.0

        def per(span, tag, ops):
            return float(table.durations(span, tag).sum()) / 1e6 / ops if ops else 0.0

        def ratio(tag, num, den):
            c = counts.get(tag, {})
            return c.get(num, 0.0) / c[den] if c.get(den) else 0.0

        out = {}
        steps = sum(1 for t in tr.op_tags if t == "bo")
        bo = counts.get("bo", {})
        calls = bo.get("dispatch.calls", 0.0)
        out["dispatch.ehvi_calls.bo"] = (calls / steps if steps else 0.0, "count")
        out["clm3.call_us.bo"] = (med_ms("clm3.ehvi", "bo", 1e3), "us")
        out["clm3.boxes.bo"] = (ratio("bo", "clm3.boxes", "clm3.calls"), "count")
        out["clm3.max_rel_err.bo"] = (max_err["clm3.max_rel_err.bo"], "ratio")
        out["gaussian.psi_evals.bo"] = (ratio("bo", "gaussian.psi_evals", "dispatch.calls"), "count")
        out["gaussian.beliefs_built.bo"] = (ratio("bo", "gaussian.beliefs", "dispatch.calls"), "count")
        out["gp.fit_ms"] = (per("gp.fit", "bo", steps), "ms")
        out["gp.posterior_ms"] = (per("gp.posterior", "bo", steps), "ms")
        out["gp.clamp_count"] = (bo.get("gp.clamps", 0.0) / steps if steps else 0.0, "count")
        acq = [rec.acquisition_time_ns / 1e6 for rec in self.traced_records]
        out["bo.acquisition_ms"] = (statistics.median(acq) if acq else 0.0, "ms")
        step_total = float(table.durations("bo.step", "bo").sum()) / 1e6
        out["bo.acquisition_share"] = (sum(acq) / step_total if step_total else 0.0, "ratio")
        out["bo.hv_update_ms"] = (per("bo.observe", "bo", steps), "ms")
        out["bo.front_n"] = (ratio("bo", "front_n", "dispatch.calls"), "points")
        out["core.validate_front_ms.bo"] = (per("core.validate_front", "bo", steps), "ms")
        out["core.nondominated_filter_ms.bo"] = (per("core.nondominated_filter", "bo", steps), "ms")
        out["wfg.dominated_volume_ms"] = (per("wfg.dominated_volume", "bo", steps), "ms")
        for m, n in SHAPES:
            shape = shape_name(m, n)
            tag = f"score.{shape}"
            backend = "clm3" if m == 3 else "wfg"
            passes = self.traced_passes
            c = counts.get(tag, {})
            out[f"dispatch.ehvi_calls.{shape}"] = (c.get("dispatch.calls", 0.0) / passes if passes else 0.0, "count")
            out[f"{backend}.call_us.{shape}"] = (med_ms(f"{backend}.ehvi", tag, 1e3), "us")
            out[f"{backend}.boxes.{shape}"] = (ratio(tag, f"{backend}.boxes", f"{backend}.calls"), "count")
            out[f"{backend}.max_rel_err.{shape}"] = (max_err.get(f"{backend}.max_rel_err.{shape}", 0.0), "ratio")
            out[f"gaussian.psi_evals.{shape}"] = (ratio(tag, "gaussian.psi_evals", "dispatch.calls"), "count")
            out[f"gaussian.beliefs_built.{shape}"] = (ratio(tag, "gaussian.beliefs", "dispatch.calls"), "count")
            fronts = table.durations("bench.generate_front", f"setup.{shape}").size
            out[f"bench.generate_front_ms.{shape}"] = (per("bench.generate_front", f"setup.{shape}", fronts), "ms")
            out[f"core.validate_front_ms.{shape}"] = (per("core.validate_front", f"setup.{shape}", fronts), "ms")
        out["cli.import_ms"] = (med_ms("cli.import", [f"cli.{name}" for name in CLI_NAMES]), "ms")
        for name in CLI_NAMES:
            out[f"cli.load_request_ms.{name}"] = (med_ms("cli.load_request", f"cli.{name}"), "ms")
            out[f"core.validate_front_ms.cli_{name}"] = (med_ms("core.validate_front", f"cli.{name}"), "ms")
        total = table.root_ns()
        for layer, ns in table.layer_self_ns().items():
            out[f"self_pct.{layer}"] = (100.0 * ns / total if total else 0.0, "%")
        traced, untraced = ([sum(self.clock.scaled(span) for span in row) for row in self.overhead[key]]
                            for key in ("traced", "untraced"))
        out["trace.overhead_pct"] = (100.0 * (statistics.median(traced) / statistics.median(untraced) - 1.0), "%")
        return out


def per_layer_names() -> list[str]:
    """Names of the per-layer metrics, in the order run.py reports them."""
    from inputs import SHAPES, shape_name

    names = ["dispatch.ehvi_calls.bo", "clm3.call_us.bo", "clm3.boxes.bo", "clm3.max_rel_err.bo",
             "gaussian.psi_evals.bo", "gaussian.beliefs_built.bo", "gp.fit_ms", "gp.posterior_ms",
             "gp.clamp_count", "bo.acquisition_ms", "bo.acquisition_share", "bo.hv_update_ms",
             "bo.front_n", "core.validate_front_ms.bo", "core.nondominated_filter_ms.bo",
             "wfg.dominated_volume_ms"]
    for m, n in SHAPES:
        shape = shape_name(m, n)
        backend = "clm3" if m == 3 else "wfg"
        names += [f"dispatch.ehvi_calls.{shape}", f"{backend}.call_us.{shape}", f"{backend}.boxes.{shape}",
                  f"{backend}.max_rel_err.{shape}", f"gaussian.psi_evals.{shape}",
                  f"gaussian.beliefs_built.{shape}", f"bench.generate_front_ms.{shape}",
                  f"core.validate_front_ms.{shape}"]
    names.append("cli.import_ms")
    for name in CLI_NAMES:
        names += [f"cli.load_request_ms.{name}", f"core.validate_front_ms.cli_{name}"]
    from spans import LAYERS

    names += [f"self_pct.{layer}" for layer in LAYERS]
    names.append("trace.overhead_pct")
    return names


def set_up(clock: Clock, seed: int, trace: bool):
    """Import ehvi and make the inputs: what a library user pays before the first call.

    The clock calibrates before each shape's fronts as well, since a set-up
    lasts seconds; that time is left out. Returns the ehvi namespace, the
    inputs, the tracer (or None), and the raw and scaled set-up seconds.
    """
    clock.calibrate()
    spent = clock.spent
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import ehvi  # noqa: F401

    import spans  # numpy-based, so only after the timed import of ehvi
    from inputs import make_inputs

    ehvi_ns = spans.import_ehvi(SRC)
    tracer = spans.Tracer() if trace else None
    if tracer is not None:
        tracer.install(ehvi_ns)

    def begin(tag):
        clock.calibrate()
        if tracer is not None:
            tracer.begin_op(tag)

    inputs = make_inputs(ehvi_ns, seed, begin)
    end = time.perf_counter()
    raw = end - start - (clock.spent - spent)
    clock.calibrate()
    if tracer is not None:
        tracer.uninstall()
        tracer.current_op = -1
    return ehvi_ns, inputs, tracer, raw, raw * clock.scale((start, end))


def setup_child(seed: int) -> tuple[float, float]:
    """(raw, scaled) set-up seconds of a fresh process."""
    proc = subprocess.run([sys.executable, str(HERE / "child.py"), "setup", "--seed", str(seed)],
                          cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed: {proc.stderr.strip()}")
    raw, scaled = proc.stdout.split()
    return float(raw), float(scaled)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not (SRC / "ehvi" / "__init__.py").is_file():
        print(f"error: the ehvi package is not under {SRC}", file=sys.stderr)
        return 2
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS

    clock = Clock()
    ehvi_ns, inputs, tracer, raw, scaled = set_up(clock, args.seed, bool(args.trace))
    setup = [(raw, scaled)]
    if tracer is None:
        setup += [setup_child(args.seed) for _ in range(SETUP_CHILDREN)]

    import reference

    bench = Bench(ehvi_ns, inputs, args, tracer, reference, clock)
    bench.measure()
    summary = bench.check()
    if tracer is None:
        metrics, lines = bench.end_to_end(setup)
    else:
        metrics = bench.per_layer(summary["max_err"])
        if list(metrics) != per_layer_names():
            raise RuntimeError("per-layer metrics differ from per_layer_names()")
        lines = [f"{k}: {v:.6g} {u}" for k, (v, u) in metrics.items()]
        lines.append(f"trace overhead against untraced rounds of the same inputs: "
                     f"{metrics['trace.overhead_pct'][0]:+.1f} %")
        tracer.save(bench.run_dir / "spans.npz")
    for line in lines:
        print(line)
    result = {
        "correct": summary["correct"],
        "attempted": bench.attempted,
        "failed": summary["failed"],
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }
    text = json.dumps(result)
    (bench.run_dir / "result.json").write_text(text + "\n", encoding="utf-8")
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
