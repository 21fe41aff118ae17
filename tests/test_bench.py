"""Benchmark harness: front generation, record schema, cross-validation, summaries."""

import hashlib
import math

import numpy as np
import pytest

from ehvi import (
    ParameterError,
    ProblemFrame,
    UnsupportedDimensionError,
    generate_front,
    run_benchmark,
    validate_front,
)
import ehvi.bench
import ehvi.sweep
from ehvi.bench import GEN_HIGH, GEN_LOW, benchmark_belief, benchmark_frame, summarize
from ehvi.cli import main
from oracles import sequential_front


def test_generate_front_deterministic():
    a = generate_front(3, 12, seed=4)
    b = generate_front(3, 12, seed=4)
    assert np.array_equal(a, b)
    c = generate_front(3, 12, seed=5)
    assert not np.array_equal(a, c)


def test_generate_front_is_valid_and_mutually_nondominated():
    for m in (2, 3, 4):
        for n in (1, 7, 25):
            pts = generate_front(m, n, seed=m * 100 + n)
            front = validate_front(benchmark_frame(m), pts)
            assert front.n == n
            assert np.all((np.asarray(pts) >= 0.1) & (np.asarray(pts) <= 10.0))


SEQUENTIAL_CASES = [(2, 1, 0), (2, 100, 1), (2, 100, 7), (3, 300, 2), (3, 40, 3), (4, 40, 4), (6, 15, 5)]


def test_generate_front_matches_sequential_sampler():
    # blocked draws and numpy rejection give the one-draw-at-a-time front bit for bit
    for m, n, seed in SEQUENTIAL_CASES:
        assert generate_front(m, n, seed) == sequential_front(m, n, seed, GEN_LOW, GEN_HIGH), (m, n, seed)


@pytest.mark.parametrize("first_chunk, filter_block", [(1, None), (10**6, None), (1, 64), (3, 1)])
def test_generate_front_matches_sequential_sampler_at_any_chunking(monkeypatch, first_chunk, filter_block):
    # a first chunk of one point, one chunk for all, and chunks cut small
    # enough that every chunk boundary is crossed
    monkeypatch.setattr(ehvi.bench, "_FIRST_CHUNK", first_chunk)
    if filter_block is not None:
        monkeypatch.setattr(ehvi.bench, "_FILTER_BLOCK", filter_block)
    for m, n, seed in SEQUENTIAL_CASES:
        assert generate_front(m, n, seed) == sequential_front(m, n, seed, GEN_LOW, GEN_HIGH), (m, n, seed)


# sha256 of the float64 bytes of the fronts of perfbench's score shapes, at
# int(SeedSequence([20181, m, n]).generate_state(1)[0]), as first pinned
SCORE_FRONT_SHA256 = {
    (2, 100): "584c458cbfbf03f62d097b20d018c9fb270e6bc5e43fd4dececf62c7fa9e10c6",
    (3, 100): "1241f5d95de86888635ef8a849941d2964caecd10df175887dc303e36d31bdd7",
    (3, 1000): "915f7a04c39a4784a561170d4cd14e5734d5fc5a265b0514446c323d41f811dc",
    (4, 40): "5c9a32919c9680a897398912a5bb2391d4a12bc85fb42a7bd3f2644356fc46ef",
    (6, 15): "c8c78305c2dc3f86da4725d1b434cab743c443b8098dc6b3127c0c48bc3c3a1e",
}


@pytest.mark.parametrize("m, n", sorted(SCORE_FRONT_SHA256))
def test_score_fronts_pinned(m, n):
    seed = int(np.random.SeedSequence([20181, m, n]).generate_state(1)[0])
    front = np.array(generate_front(m, n, seed), dtype=np.float64)
    assert front.shape == (n, m)
    assert hashlib.sha256(front.tobytes()).hexdigest() == SCORE_FRONT_SHA256[(m, n)]


def test_generate_front_validation():
    with pytest.raises(UnsupportedDimensionError):
        generate_front(1, 5, seed=0)
    with pytest.raises(ParameterError):
        generate_front(2, 0, seed=0)


def test_generate_front_refuses_a_front_over_its_budget(monkeypatch, tmp_path, capsys):
    # (2, 100, 1) compares about 1e6 coordinates; a one-point front compares none
    monkeypatch.setattr(ehvi.bench, "_MAX_COMPARED", 10**5)
    with pytest.raises(ParameterError, match="budget"):
        generate_front(2, 100, 1)
    assert generate_front(2, 1, 0) == sequential_front(2, 1, 0, GEN_LOW, GEN_HIGH)
    out = tmp_path / "front.json"
    for argv in (["gen-front", "--m", "2", "--n", "100", "--out", str(out)],
                 ["bench", "--m", "2", "--n", "100", "--seeds", "1", "--reps", "1", "--out", str(out)]):
        assert main(argv) == 2
        assert "budget" in capsys.readouterr().err
        assert not out.exists()


def test_benchmark_frame_and_belief():
    frame = benchmark_frame(3)
    assert isinstance(frame, ProblemFrame)
    assert frame.m == 3 and tuple(frame.reference) == (0.0, 0.0, 0.0)

    belief = benchmark_belief(3)
    assert tuple(belief.mean) == (-10.0, -10.0, -10.0)
    assert tuple(belief.stddev) == (2.5, 2.5, 2.5)

    as_var = benchmark_belief(2, sigma_as_variance=True)
    assert tuple(as_var.stddev) == (math.sqrt(2.5),) * 2


def test_run_benchmark_record_grid():
    records = run_benchmark(
        ms=[2, 3, 4],
        ns=[4, 6],
        seeds=2,
        reps=2,
        algorithms=("grid", "wfg", "sweep"),
    )
    # every backend runs at every m: 3 m * 2 n * 2 seeds * 3 algos * 2 reps = 72
    assert len(records) == 72
    assert all(sum(1 for r in records if r.m == m) == 24 for m in (2, 3, 4))

    keys = [(r.m, r.n, r.seed, r.algorithm, r.rep) for r in records]
    assert keys == sorted(keys)

    for r in records:
        assert r.time_ns > 0
        if r.algorithm == "grid":
            assert r.boxes <= (r.n + 1) ** r.m
        elif r.algorithm == "wfg":
            assert r.boxes <= 2**r.n - 1
        elif r.algorithm == "sweep":
            if r.m == 2:
                assert r.boxes == r.n + 1
            elif r.m == 3:
                assert r.boxes <= 2 * r.n + 1
            else:
                assert r.boxes <= (r.n + 1) ** r.m

    by_cell: dict[tuple, set] = {}
    for r in records:
        by_cell.setdefault((r.m, r.n, r.seed), set()).add(r.ehvi)
    for cell, vals in by_cell.items():
        lo, hi = min(vals), max(vals)
        assert math.isclose(lo, hi, rel_tol=1e-10), cell


def test_run_benchmark_decomposes_the_front_in_every_call(monkeypatch):
    # a Front keeps its sweep boxes, so reusing one would time cache hits
    calls = []
    producer = ehvi.sweep.nondominated_boxes

    def counted(front):
        calls.append(front)
        return producer(front)

    monkeypatch.setattr(ehvi.sweep, "nondominated_boxes", counted)
    records = run_benchmark(ms=[3], ns=[5], seeds=1, reps=3, algorithms=("sweep",))
    assert len(records) == 3
    assert len(calls) == 3 + 1  # the reps and the warm-up


def test_summarize_shapes():
    records = run_benchmark(
        ms=[2, 3], ns=[4, 6], seeds=2, reps=2, algorithms=("grid", "wfg", "sweep")
    )
    rows = summarize(records)
    # 2 m * 3 algos * 2 sizes
    assert len(rows) == 12
    for row in rows:
        assert row["calls"] == 4
        assert row["mean_time_ns"] > 0 and row["std_time_ns"] >= 0.0
        assert 0 < row["mean_boxes"] <= row["max_boxes"]
    cells = [(row["m"], row["n"], row["algorithm"]) for row in rows]
    assert cells == sorted(cells)


def test_run_benchmark_validation():
    with pytest.raises(ParameterError):
        run_benchmark(ms=[2], ns=[3], seeds=1, reps=1, algorithms=("turbo",))
    with pytest.raises(ParameterError):
        run_benchmark(ms=[2], ns=[3], seeds=0, reps=1, algorithms=("grid",))
    with pytest.raises(ParameterError):
        run_benchmark(ms=[2], ns=[3], seeds=1, reps=0, algorithms=("grid",))
    for empty in ({"ms": []}, {"ns": []}, {"algorithms": ()}):
        with pytest.raises(ParameterError, match="must not be empty"):
            run_benchmark(**{"ms": [2], "ns": [3], "seeds": 1, "reps": 1, "algorithms": ("grid",), **empty})
    for repeated in ({"ms": [2, 3, 2]}, {"ns": [3, 3]}, {"algorithms": ("sweep", "sweep")}):
        with pytest.raises(ParameterError, match="must not repeat a value"):
            run_benchmark(**{"ms": [2], "ns": [3], "seeds": 1, "reps": 1, "algorithms": ("grid",), **repeated})
