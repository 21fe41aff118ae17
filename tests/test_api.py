"""The package namespace is exactly the API that README.md documents, and perfbench finds what it calls."""

import ast
import importlib
import re
from pathlib import Path

import ehvi
from ehvi import dispatch
from ehvi.cli import build_parser

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def test_all_is_the_readme_api_list():
    section = README.split("\n## API\n", 1)[1].split("\n## ", 1)[0]
    listed = set(re.findall(r"`([A-Za-z_]\w*)`", section))
    assert listed == set(ehvi.__all__)
    assert len(ehvi.__all__) == len(set(ehvi.__all__))


def test_readme_imports_resolve():
    lines = re.findall(r"^from ehvi import (.+)$", README, re.M)
    assert lines
    for line in lines:
        for name in (n.strip() for n in line.split(",")):
            assert name in ehvi.__all__
            assert getattr(ehvi, name) is not None


def test_readme_cli_lists_every_backend():
    compute = re.search(r"^ehvi compute .*--algorithm ([\w|]+)", README, re.M).group(1)
    assert set(compute.split("|")) == set(dispatch.ALGORITHMS)
    bench = re.search(r"--algorithms ([\w,]+)", README).group(1)
    assert bench == build_parser().parse_args(["bench", "--out", "bench.csv"]).algorithms
    assert set(bench.split(",")) == set(dispatch.BACKENDS)


def test_benchmark_modules_and_entry_points_exist():
    # perfbench imports every module in spans.LAYERS and calls these attributes
    spans = ast.parse((Path(__file__).resolve().parents[1] / "perfbench" / "spans.py").read_text())
    layers = next(
        ast.literal_eval(node.value)
        for node in spans.body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["LAYERS"]
    )
    modules = {name: importlib.import_module(f"ehvi.{name}") for name in layers}
    assert "clm3" in modules
    called = {
        "bo": ["BoState", "bo_step", "synthetic_problem", "gp_posterior_batch"],
        "dispatch": ["compute_ehvi", "BACKENDS"],
        "bench": ["generate_front", "benchmark_frame"],
        "core": ["validate_front"],
        "gaussian": ["GaussianBelief"],
        "gp": ["fit_gp", "gp_posterior_batch"],
    }
    for name, attrs in called.items():
        for attr in attrs:
            assert hasattr(modules[name], attr), f"ehvi.{name}.{attr}"
