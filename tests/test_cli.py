"""Command-line interface: exit codes, JSON contracts, CSV outputs."""

import csv
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import ehvi.bo
import ehvi.grid
import ehvi.sweep
import ehvi.wfg
from ehvi import ProblemFrame, generate_front, validate_front
from ehvi.cli import load_request, main


def write_request(path, m, reference, front, mean, stddev, **extra):
    payload = {"m": m, "reference": reference, "front": front, "mean": mean, "stddev": stddev}
    payload.update(extra)
    path.write_text(json.dumps(payload))
    return path


def run_compute(tmp_path, capsys, request_kwargs, argv_extra=()):
    path = write_request(tmp_path / "req.json", **request_kwargs)
    code = main(["compute", "--input", str(path), *argv_extra])
    out = capsys.readouterr().out
    return code, json.loads(out)


BASIC = dict(
    m=2,
    reference=[0.0, 0.0],
    front=[[-1.0, -3.0], [-2.0, -2.0], [-3.0, -1.0]],
    mean=[-2.5, -2.5],
    stddev=[1.0, 1.0],
)


def test_compute_empty_front(tmp_path, capsys):
    req = dict(BASIC, front=[])
    code, out = run_compute(tmp_path, capsys, dict(req, mean=[0.0, 0.0]))
    assert code == 0
    assert out["ehvi"] == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-12)
    assert out["algorithm"] == "sweep"
    assert out["boxes"] == 1  # the whole region below the reference
    assert isinstance(out["time_ns"], int) and out["time_ns"] > 0


def test_compute_backends_agree(tmp_path, capsys):
    values = {}
    for algo in ("grid", "wfg", "sweep"):
        code, out = run_compute(tmp_path, capsys, BASIC, ["--algorithm", algo])
        assert code == 0 and out["algorithm"] == algo
        values[algo] = out["ehvi"]
    assert values["grid"] == pytest.approx(values["wfg"], rel=1e-10)
    assert values["grid"] == pytest.approx(values["sweep"], rel=1e-10)


def test_compute_maximize_equals_negated_minimize(tmp_path, capsys):
    _, min_out = run_compute(tmp_path, capsys, BASIC)
    maxed = dict(
        BASIC,
        front=[[-x for x in p] for p in BASIC["front"]],
        mean=[2.5, 2.5],
        maximize=True,
    )
    _, max_out = run_compute(tmp_path, capsys, maxed)
    assert max_out["ehvi"] == pytest.approx(min_out["ehvi"], rel=1e-12)


def test_compute_request_algorithm_and_flag_precedence(tmp_path, capsys):
    _, out = run_compute(tmp_path, capsys, dict(BASIC, algorithm="grid"))
    assert out["algorithm"] == "grid"
    _, out = run_compute(tmp_path, capsys, dict(BASIC, algorithm="grid"), ["--algorithm", "wfg"])
    assert out["algorithm"] == "wfg"


def test_exit_code_2_usage_errors(tmp_path, capsys):
    missing = dict(BASIC)
    del missing["mean"]
    path = write_request(tmp_path / "m.json", **dict(missing, mean=None))
    data = json.loads(path.read_text())
    del data["mean"]
    path.write_text(json.dumps(data))
    assert main(["compute", "--input", str(path)]) == 2

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["compute", "--input", str(bad)]) == 2
    assert main(["compute", "--input", str(tmp_path / "absent.json")]) == 2
    assert main(["bench", "--m", "x,y", "--out", str(tmp_path / "b.csv")]) == 2
    assert main(["no-such-command"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "field, value",
    [
        ("maximize", "false"),
        ("maximize", 0),
        ("maximize", None),
        ("m", 2.9),
        ("m", "2"),
        ("m", True),
        ("mean", 5),
        ("mean", ["a", 1]),
        ("stddev", 1.0),
        ("reference", 5),
        ("front", [-1.0, -3.0]),
        ("front", [[-1.0, None], [-2.0, -2.0]]),
        ("mean", [True, -1]),
        ("stddev", [1.0, False]),
        ("stddev", [True, 1.0]),
        ("reference", [0.0, True]),
        ("front", [[-1.0, -3.0], [True, -2.0]]),
    ],
)
def test_exit_code_2_mistyped_request_fields(tmp_path, capsys, field, value):
    # bool("false") is True, int(2.9) is 2 and float(True) is 1.0: all must be rejected, not coerced
    path = write_request(tmp_path / "req.json", **dict(BASIC, **{field: value}))
    assert main(["compute", "--input", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert field in captured.err


@pytest.mark.parametrize(
    "request_kwargs",
    [
        dict(BASIC, mean=[-1e308, -1e308], stddev=[1e308, 1e308]),
        dict(
            m=3,
            reference=[0.0, 0.0, 0.0],
            front=[[-1.0, -2.0, -3.0], [-3.0, -1.0, -2.0]],
            mean=[-1e308, -1e308, -1e308],
            stddev=[1e308, 1e308, 1e308],
        ),
        # wfg's signed corners: the full box and corners of both signs overflow to inf
        dict(
            BASIC,
            front=[[-1e307, -3e307], [-2e307, -2e307], [-3e307, -1e307]],
            mean=[-1e308, -1e308],
            algorithm="wfg",
        ),
    ],
    ids=["m2", "m3", "m2_wfg_signed"],
)
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_exit_code_2_non_finite_result(tmp_path, capsys, request_kwargs):
    path = write_request(tmp_path / "req.json", **request_kwargs)
    assert main(["compute", "--input", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "finite" in captured.err


@pytest.mark.parametrize(
    "request_kwargs",
    [
        dict(BASIC, stddev=[1e308, 1e308]),
        dict(
            m=3,
            reference=[0.0, 0.0, 0.0],
            front=[[-1.0, -2.0, -3.0], [-3.0, -1.0, -2.0]],
            mean=[-2.0, -2.0, -2.0],
            stddev=[1e308, 1e308, 1e308],
        ),
    ],
    ids=["m2", "m3"],
)
def test_exit_code_2_grid_overflow(tmp_path, capsys, request_kwargs):
    # grid's cell products overflow to inf with no RuntimeWarning, and the
    # CLI refuses the result
    path = write_request(tmp_path / "req.json", **request_kwargs)
    assert main(["compute", "--input", str(path), "--algorithm", "grid"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "finite" in captured.err


def test_exit_code_2_grid_over_budget(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(ehvi.grid, "_MAX_CELLS", 4**2 - 1)  # BASIC needs 4^2 cells
    path = write_request(tmp_path / "req.json", **dict(BASIC, algorithm="grid"))
    assert main(["compute", "--input", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "budget" in captured.err


def test_exit_code_2_wfg_over_budget(tmp_path, capsys, monkeypatch):
    path = write_request(tmp_path / "req.json", **BASIC)
    args = ["compute", "--input", str(path), "--algorithm", "wfg"]
    monkeypatch.setattr(ehvi.wfg, "_MAX_LIMITED", 3)  # BASIC's three points limit 3 tuples
    assert main(args) == 0
    capsys.readouterr()
    monkeypatch.setattr(ehvi.wfg, "_MAX_LIMITED", 2)
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "budget" in captured.err


def test_exit_code_2_sweep_over_budget(tmp_path, capsys, monkeypatch):
    request = dict(
        m=4,
        reference=[0.0] * 4,
        front=[[-1.0, -2.0, -3.0, -4.0], [-4.0, -3.0, -1.0, -2.0], [-2.0, -4.0, -1.0, -3.0]],
        mean=[-2.0] * 4,
        stddev=[1.0] * 4,
    )
    path = write_request(tmp_path / "req.json", **request)
    args = ["compute", "--input", str(path)]
    front = validate_front(ProblemFrame(4, request["reference"]), request["front"])
    count = len(ehvi.sweep.sweep_boxes(front).lower)
    assert count == 11  # the m = 4 sweep makes exactly the boxes it returns here
    monkeypatch.setattr(ehvi.sweep, "_MAX_BOXES", count)
    assert main(args) == 0
    assert json.loads(capsys.readouterr().out)["boxes"] == count
    monkeypatch.setattr(ehvi.sweep, "_MAX_BOXES", count - 1)
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: sweep needs more than its budget of {count - 1} boxes\n"


@pytest.mark.parametrize("message", ["Unable to allocate 745. GiB for an array", ""])
def test_exit_code_2_out_of_memory(tmp_path, capsys, monkeypatch, message):
    def out_of_memory(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr("ehvi.cli.ehvi_monte_carlo", out_of_memory)
    path = write_request(tmp_path / "req.json", **BASIC)
    assert main(["oracle", "--input", str(path), "--samples", "100000000000"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: out of memory: " + message if message else "error: out of memory") + "\n"


def test_exit_code_3_invalid_front(tmp_path, capsys):
    dup = dict(BASIC, front=[[-1.0, -1.0], [-1.0, -1.0]])
    path = write_request(tmp_path / "dup.json", **dup)
    assert main(["compute", "--input", str(path)]) == 3
    assert "duplicate" in capsys.readouterr().err

    boundary = dict(BASIC, front=[[0.0, -1.0]])
    path = write_request(tmp_path / "bound.json", **boundary)
    assert main(["compute", "--input", str(path)]) == 3
    capsys.readouterr()


def test_exit_code_2_unknown_algorithm(tmp_path, capsys):
    path = write_request(tmp_path / "req.json", **BASIC)
    assert main(["compute", "--input", str(path), "--algorithm", "clm3"]) == 2
    assert capsys.readouterr().out == ""
    path = write_request(tmp_path / "req3.json", **dict(BASIC, algorithm="clm3"))
    assert main(["compute", "--input", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "clm3" in captured.err


def test_exit_code_4_unsupported_dimension(tmp_path, capsys):
    one_d = dict(m=1, reference=[0.0], front=[[-1.0]], mean=[-1.0], stddev=[1.0])
    path = write_request(tmp_path / "one.json", **one_d)
    assert main(["compute", "--input", str(path)]) == 4
    capsys.readouterr()


def test_gen_front_round_trip(tmp_path, capsys):
    out = tmp_path / "front.json"
    code = main(["gen-front", "--m", "3", "--n", "8", "--seed", "4", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["m"] == 3
    assert payload["maximize"] is True
    assert payload["reference"] == [0.0, 0.0, 0.0]
    assert payload["seed"] == 4
    assert payload["front"] == [list(p) for p in generate_front(3, 8, seed=4)]

    front, belief, algorithm = load_request(payload, need_belief=False)
    assert front.n == 8 and belief is None and algorithm is None

    code = main(["gen-front", "--m", "2", "--n", "3", "--seed", "0"])
    assert code == 0
    stdout_payload = json.loads(capsys.readouterr().out)
    assert stdout_payload["m"] == 2 and len(stdout_payload["front"]) == 3


def test_bench_with_nothing_to_run_exits_2(tmp_path, capsys):
    out = tmp_path / "b.csv"
    for flag, value in (("--algorithms", ","), ("--m", ""), ("--n", " , ")):
        assert main(["bench", flag, value, "--out", str(out)]) == 2
    assert not out.exists()
    assert capsys.readouterr().err.count("must not be empty") == 3


def test_bench_with_a_repeated_value_exits_2(tmp_path, capsys):
    out = tmp_path / "b.csv"
    argv = ["bench", "--m", "3", "--n", "2", "--seeds", "1", "--reps", "1", "--algorithms", "sweep,sweep"]
    assert main(argv + ["--out", str(out)]) == 2
    assert not out.exists()
    assert "must not repeat a value" in capsys.readouterr().err


def test_bench_writes_records_and_summary(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    code = main(
        [
            "bench",
            "--m", "3",
            "--n", "4,6",
            "--seeds", "2",
            "--reps", "2",
            "--algorithms", "grid,wfg,sweep",
            "--out", str(out),
        ]
    )
    assert code == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 24  # 1 m * 2 n * 2 seeds * 3 algos * 2 reps
    assert set(rows[0]) == {"algorithm", "m", "n", "seed", "rep", "ehvi", "time_ns", "boxes"}

    summary = out.with_name("bench_summary.csv")
    with open(summary, newline="") as fh:
        srows = list(csv.DictReader(fh))
    assert len(srows) == 6  # 2 n * 3 algos
    assert set(srows[0]) == {
        "m", "n", "algorithm", "calls", "mean_time_ns", "std_time_ns", "mean_boxes", "max_boxes"
    }
    assert all(int(r["calls"]) == 4 for r in srows)
    text = capsys.readouterr().out
    assert "wrote 24 records" in text


def test_oracle_deterministic(tmp_path, capsys):
    path = write_request(tmp_path / "req.json", **BASIC)
    outputs = []
    for _ in range(2):
        assert main(["oracle", "--input", str(path), "--samples", "20000", "--seed", "9"]) == 0
        outputs.append(json.loads(capsys.readouterr().out))
    assert outputs[0] == outputs[1]
    assert outputs[0]["samples"] == 20000 and outputs[0]["seed"] == 9
    assert outputs[0]["std_error"] > 0.0


def test_bo_demo_outputs(tmp_path, capsys):
    out_dir = tmp_path / "runs"
    code = main(
        [
            "bo-demo",
            "--problem", "sphere2",
            "--seeds", "2",
            "--iters", "2",
            "--init", "3",
            "--resolution", "4",
            "--out-dir", str(out_dir),
        ]
    )
    assert code == 0
    names = sorted(p.name for p in out_dir.iterdir())
    assert names == [
        "bo_seed0.csv", "bo_seed1.csv", "random_seed0.csv", "random_seed1.csv", "summary.csv"
    ]
    for name in names[:4]:
        with open(out_dir / name, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 5
        hvs = [float(r["hypervolume"]) for r in rows]
        assert all(b >= a for a, b in zip(hvs, hvs[1:]))
        assert set(rows[0]) == {
            "seed", "iteration", "x0", "x1", "f0", "f1", "hypervolume", "acquisition_time_ms", "gp_time_ms"
        }
    with open(out_dir / "summary.csv", newline="") as fh:
        srows = list(csv.DictReader(fh))
    assert len(srows) == 5
    assert set(srows[0]) == {
        "iteration", "bo_mean_hv", "bo_std_hv", "random_mean_hv", "random_std_hv"
    }
    capsys.readouterr()


def test_bo_demo_zero_iterations_matches_random(tmp_path, capsys):
    out_dir = tmp_path / "zero"
    assert main(
        [
            "bo-demo",
            "--problem", "sphere2",
            "--seeds", "1",
            "--iters", "0",
            "--init", "4",
            "--resolution", "4",
            "--out-dir", str(out_dir),
        ]
    ) == 0
    bo = (out_dir / "bo_seed0.csv").read_text()
    rnd = (out_dir / "random_seed0.csv").read_text()
    assert bo == rnd
    capsys.readouterr()


@pytest.mark.parametrize(
    "problem, resolution, budget", [("sphere3", 41, None), ("sphere2", 257, None), ("sphere3", 7, 6**3)]
)
def test_bo_demo_resolution_over_the_candidate_budget_exits_2(
    tmp_path, capsys, monkeypatch, problem, resolution, budget
):
    # the unpatched cases are refused before the grid is built, so they return at once
    if budget is not None:
        monkeypatch.setattr(ehvi.bo, "_MAX_CANDIDATES", budget)
    out_dir = tmp_path / "over"
    argv = ["bo-demo", "--problem", problem, "--seeds", "1", "--iters", "0", "--init", "2"]
    assert main(argv + ["--resolution", str(resolution), "--out-dir", str(out_dir)]) == 2
    assert "budget" in capsys.readouterr().err
    assert not out_dir.exists()


def test_bo_demo_resolution_at_the_candidate_budget_runs(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(ehvi.bo, "_MAX_CANDIDATES", 6**3)
    argv = ["bo-demo", "--problem", "sphere3", "--seeds", "1", "--iters", "1", "--init", "2"]
    assert main(argv + ["--resolution", "6", "--out-dir", str(tmp_path / "at")]) == 0
    capsys.readouterr()


def declared_entry_point():
    """The `module:attr` target of `[project.scripts].ehvi` in this repo's pyproject.toml."""
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        return tomllib.load(fh)["project"]["scripts"]["ehvi"]


def assert_compute_succeeds(proc):
    assert proc.returncode == 0
    out = json.loads(proc.stdout)
    assert out["algorithm"] == "sweep" and out["ehvi"] > 0.0
    assert out["boxes"] == len(BASIC["front"]) + 1


def run_python(*args):
    """A fresh `python args` process that imports the same ehvi package as these tests."""
    package_root = str(Path(ehvi.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


def imported_modules(proc, expected):
    """The modules a `python -X importtime` child imported.

    `expected` must be among them, so an empty listing cannot pass.
    """
    # -X importtime lists every module the child imports, one per stderr line
    imported = {line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()}
    assert expected in imported
    return imported


def scipy_modules(proc, expected):
    """The scipy modules a `python -X importtime` child imported, `expected` among its imports."""
    return [name for name in imported_modules(proc, expected) if name.split(".")[0] == "scipy"]


def test_compute_imports_no_scipy(tmp_path):
    path = write_request(tmp_path / "req.json", **BASIC)
    proc = run_python("-X", "importtime", "-m", "ehvi", "compute", "--input", str(path))
    assert_compute_succeeds(proc)
    assert scipy_modules(proc, "numpy") == []


def test_import_ehvi_imports_no_scipy():
    proc = run_python("-X", "importtime", "-c", "import ehvi")
    assert proc.returncode == 0
    assert scipy_modules(proc, "ehvi") == []


# modules that `ehvi compute` and `import ehvi` do not use, and so must not load
COLD_MODULES = {"ehvi.bench", "ehvi.bo", "ehvi.gp", "statistics", "csv"}


def test_compute_and_import_load_only_the_compute_path(tmp_path):
    path = write_request(tmp_path / "req.json", **BASIC)
    proc = run_python("-X", "importtime", "-m", "ehvi", "compute", "--input", str(path))
    assert_compute_succeeds(proc)
    assert imported_modules(proc, "ehvi.dispatch") & COLD_MODULES == set()
    proc = run_python("-X", "importtime", "-c", "import ehvi")
    assert proc.returncode == 0
    assert imported_modules(proc, "ehvi.dispatch") & COLD_MODULES == set()


def test_lazy_names_resolve_on_first_use():
    code = (
        "import sys, ehvi\n"
        "assert 'ehvi.bo' not in sys.modules\n"
        "assert set(ehvi.__all__) <= set(dir(ehvi))\n"
        "assert ehvi.run_bo is ehvi.bo.run_bo\n"
    )
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("algorithm", ["grid", "wfg", "sweep"])
def test_compute_subnormal_stddev(tmp_path, capsys, algorithm):
    # the stddev ratio overflows to inf inside psi; clamped, it gives the
    # hypervolume improvement of the mean, exactly
    req = dict(BASIC, stddev=[1e-310, 1e-310])
    code, out = run_compute(tmp_path, capsys, req, ["--algorithm", algorithm])
    assert code == 0 and out["ehvi"] == 1.25


def test_compute_subnormal_stddev_prints_nothing_to_stderr(tmp_path):
    path = write_request(tmp_path / "req.json", **dict(BASIC, stddev=[1e-310, 1e-310]))
    proc = run_python("-m", "ehvi", "compute", "--input", str(path))
    assert proc.returncode == 0 and proc.stderr == ""
    assert json.loads(proc.stdout)["ehvi"] == 1.25


def test_compute_grid_overflow_exits_2_without_a_warning(tmp_path):
    path = write_request(tmp_path / "req.json", **dict(BASIC, stddev=[1e308, 1e308]))
    proc = run_python("-m", "ehvi", "compute", "--input", str(path), "--algorithm", "grid")
    assert proc.returncode == 2 and proc.stdout == ""
    assert "finite" in proc.stderr
    assert "Warning" not in proc.stderr


def test_console_script_entry_point(tmp_path):
    # Run the declared target the way a generated console-script wrapper does,
    # against the same `ehvi` package this test imported.
    module, attr = declared_entry_point().split(":")
    code = f"import sys; from {module} import {attr}; sys.exit({attr}())"
    path = write_request(tmp_path / "req.json", **BASIC)
    assert_compute_succeeds(run_python("-c", code, "compute", "--input", str(path)))


@pytest.mark.skipif(shutil.which("ehvi") is None, reason="ehvi console script is not installed")
def test_installed_console_script(tmp_path):
    path = write_request(tmp_path / "req.json", **BASIC)
    proc = subprocess.run(
        [shutil.which("ehvi"), "compute", "--input", str(path)], capture_output=True, text=True
    )
    assert_compute_succeeds(proc)
