"""Candidate-set BO loop: problem construction, stepping, tie-breaking, baselines."""

import numpy as np
import pytest

from ehvi import (
    CandidatesExhaustedError,
    ParameterError,
    ProblemFrame,
    dominated_volume,
    nondominated_filter,
    run_bo,
    run_random,
    synthetic_problem,
    validate_front,
)
from ehvi.bo import BoState, CandidateSet, SyntheticProblem, _observe, bo_step


def test_sphere2_grid_shape():
    problem = synthetic_problem("sphere2", resolution=32)
    assert problem.candidates.design_points.shape == (1024, 2)
    assert problem.candidates.objectives.shape == (1024, 2)
    assert problem.frame.m == 2


def test_sphere3_grid_shape():
    problem = synthetic_problem("sphere3", resolution=5)
    assert problem.candidates.design_points.shape == (125, 3)
    assert problem.candidates.objectives.shape == (125, 3)
    assert problem.frame.m == 3


def test_problem_validation():
    with pytest.raises(ParameterError):
        synthetic_problem("cube", resolution=8)
    with pytest.raises(ParameterError):
        synthetic_problem("sphere2", resolution=1)


def test_reference_strictly_bounds_all_objectives():
    for name, res in [("sphere2", 16), ("sphere3", 6)]:
        problem = synthetic_problem(name, resolution=res)
        ref = np.asarray(problem.frame.reference)
        assert np.all(problem.candidates.objectives < ref)


def test_reference_hypervolume_matches_filtered_recompute():
    problem = synthetic_problem("sphere2", resolution=16)
    best = nondominated_filter(
        [tuple(row) for row in problem.candidates.objectives]
    )
    validate_front(problem.frame, best)
    assert problem.reference_hypervolume == pytest.approx(
        dominated_volume(best, problem.frame.reference), rel=1e-12
    )
    assert list(map(tuple, problem.true_front)) == list(best)


def test_zero_iteration_bo_equals_random_head():
    problem = synthetic_problem("sphere2", resolution=8)
    bo = run_bo(problem, seed=5, n_init=6, iterations=0)
    rnd = run_random(problem, seed=5, evaluations=6, n_init=6)
    assert len(bo) == len(rnd) == 6
    for a, b in zip(bo, rnd):
        assert a == b


def test_single_remaining_candidate_is_queried():
    problem = synthetic_problem("sphere2", resolution=3)  # 9 candidates
    records = run_bo(problem, seed=1, n_init=8, iterations=1)
    assert len(records) == 9
    seen = {tuple(r.design_point) for r in records}
    everything = {tuple(row) for row in problem.candidates.design_points}
    assert seen == everything


def test_exhausted_candidates_raise():
    problem = synthetic_problem("sphere2", resolution=3)
    with pytest.raises(CandidatesExhaustedError):
        run_bo(problem, seed=1, n_init=9, iterations=1)


def test_step_requires_observations():
    problem = synthetic_problem("sphere2", resolution=4)
    with pytest.raises(ParameterError):
        bo_step(BoState(problem=problem))


def test_argmax_breaks_ties_toward_lowest_index():
    # candidates 0 and 1 mirror each other, so their EHVI scores coincide
    design = np.array([[0.0], [2.0], [1.0]])
    objectives = np.array([[-1.0, -2.0], [-2.0, -1.0], [-1.5, -1.5]])
    frame = ProblemFrame(2, (0.0, 0.0))
    problem = SyntheticProblem(
        name="mirror",
        candidates=CandidateSet(design, objectives),
        frame=frame,
        true_front=objectives.copy(),
        reference_hypervolume=dominated_volume(
            [tuple(r) for r in objectives], frame.reference
        ),
    )
    state = BoState(problem=problem)
    _observe(state, 2, 0)
    record = bo_step(state)
    assert tuple(record.design_point) == (0.0,)


@pytest.mark.parametrize("backend", ["auto", "grid", "wfg"])
def test_batched_argmax_breaks_ties_toward_lowest_index(backend):
    # m = 3: candidates 1 and 2 mirror each other about the one observation,
    # so their beliefs and EHVI scores coincide; candidate 0 scores lower
    design = np.array([[0.95], [0.0], [2.0], [1.0]])
    objectives = np.array([[-1.0, -1.0, -1.0], [-1.0, -2.0, -3.0], [-3.0, -2.0, -1.0], [-2.0, -2.0, -2.0]])
    frame = ProblemFrame(3, (0.0, 0.0, 0.0))
    problem = SyntheticProblem(
        name="mirror3",
        candidates=CandidateSet(design, objectives),
        frame=frame,
        true_front=objectives.copy(),
        reference_hypervolume=dominated_volume([tuple(r) for r in objectives], frame.reference),
    )
    state = BoState(problem=problem, backend=backend)
    _observe(state, 3, 0)
    record = bo_step(state)
    assert tuple(record.design_point) == (0.0,)


def test_hypervolume_trajectories_nondecreasing():
    problem = synthetic_problem("sphere2", resolution=8)
    for records in (
        run_bo(problem, seed=3, n_init=5, iterations=10),
        run_random(problem, seed=3, evaluations=15, n_init=5),
    ):
        hvs = [r.hypervolume for r in records]
        assert all(b >= a for a, b in zip(hvs, hvs[1:]))
        assert hvs[-1] <= problem.reference_hypervolume + 1e-12


def test_acquisition_time_recorded_only_for_bo_steps():
    problem = synthetic_problem("sphere2", resolution=6)
    records = run_bo(problem, seed=2, n_init=4, iterations=3)
    assert [r.acquisition_time_ns for r in records[:4]] == [0, 0, 0, 0]
    assert all(r.acquisition_time_ns > 0 for r in records[4:])
    assert [r.iteration for r in records] == list(range(7))


def test_query_sequence_invariant_across_backends():
    problem2 = synthetic_problem("sphere2", resolution=6)
    seq = {}
    for backend in ("grid", "wfg"):
        records = run_bo(problem2, seed=0, n_init=5, iterations=5, backend=backend)
        seq[backend] = [tuple(r.design_point) for r in records]
    assert seq["grid"] == seq["wfg"]

    problem3 = synthetic_problem("sphere3", resolution=4)
    seq3 = {}
    for backend in ("grid", "wfg", "sweep"):
        records = run_bo(problem3, seed=0, n_init=6, iterations=3, backend=backend)
        seq3[backend] = [tuple(r.design_point) for r in records]
    assert seq3["grid"] == seq3["wfg"] == seq3["sweep"]


def test_random_baseline_validations():
    problem = synthetic_problem("sphere2", resolution=3)
    with pytest.raises(ParameterError):
        run_random(problem, seed=0, evaluations=10, n_init=5)
    with pytest.raises(ParameterError):
        run_bo(problem, seed=0, n_init=0, iterations=1)
    with pytest.raises(ParameterError):
        run_bo(problem, seed=0, n_init=10, iterations=0)
