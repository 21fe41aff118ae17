"""Candidate-set BO loop: problem construction, stepping, tie-breaking, baselines."""

import numpy as np
import pytest

from ehvi import (
    CandidatesExhaustedError,
    Orientation,
    ParameterError,
    ProblemFrame,
    dominated_volume,
    nondominated_filter,
    run_bo,
    run_random,
    synthetic_problem,
    validate_front,
)
import ehvi.bo
import ehvi.wfg
from ehvi.bo import DEFAULT_RESOLUTION, BoState, CandidateSet, SyntheticProblem, _observe, bo_step
from ehvi.sweep import sweep_boxes
from oracles import wfg_volume

# Candidate indices queried by run_bo(n_init=10, iterations=15) after its
# seeded initialization, for seeds 0-7 at the default resolutions. A rewrite
# of the GP or psi kernels that moves any query fails here.
PINNED_QUERIES = {
    "sphere2": [
        [1008, 721, 0, 1003, 31, 433, 591, 1015, 815, 335, 495, 4, 656, 447, 26],
        [1015, 530, 13, 301, 722, 1023, 1008, 399, 623, 20, 816, 8, 207, 463, 31],
        [1004, 0, 992, 12, 686, 1009, 415, 559, 6, 21, 1016, 399, 998, 783, 24],
        [1023, 994, 518, 15, 1011, 31, 400, 1003, 688, 998, 496, 335, 12, 511, 1007],
        [1007, 31, 4, 270, 784, 14, 367, 9, 687, 1002, 560, 176, 26, 879, 528],
        [14, 1023, 303, 0, 992, 31, 655, 430, 1008, 8, 207, 1016, 18, 719, 591],
        [145, 2, 720, 1005, 22, 305, 13, 7, 1023, 1017, 624, 848, 399, 206, 1000],
        [997, 576, 14, 0, 31, 1003, 431, 18, 719, 206, 528, 6, 367, 655, 783],
    ],
    "sphere3": [
        [945, 92, 990, 994, 999, 492, 44, 9, 900, 90, 905, 909, 4, 95, 996],
        [964, 992, 6, 490, 997, 95, 595, 905, 98, 504, 56, 9, 994, 93, 493],
        [491, 32, 906, 909, 999, 606, 52, 4, 994, 955, 595, 94, 996, 903, 6],
        [929, 900, 507, 495, 0, 400, 993, 4, 943, 990, 53, 906, 925, 995, 2],
        [30, 901, 99, 49, 699, 590, 402, 95, 65, 5, 930, 405, 905, 44, 494],
        [900, 190, 990, 0, 99, 9, 59, 40, 4, 590, 94, 944, 984, 906, 965],
        [185, 92, 903, 900, 3, 6, 994, 45, 990, 596, 954, 0, 9, 90, 99],
        [906, 92, 50, 96, 9, 609, 914, 5, 99, 405, 995, 964, 494, 58, 934],
    ],
}


def _query_indices(problem, records):
    index = {tuple(row): i for i, row in enumerate(problem.candidates.design_points.tolist())}
    return [index[r.design_point] for r in records]


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
        wfg_volume(best, problem.frame.reference), rel=1e-12
    )
    assert list(map(tuple, problem.true_front)) == list(best)


def test_reference_hypervolume_does_not_call_wfg(monkeypatch):
    cases = [("sphere2", 16), ("sphere2", 32), ("sphere3", 10), ("sphere3", 20)]
    expected = {}
    for name, res in cases:
        problem = synthetic_problem(name, res)
        expected[name, res] = wfg_volume(problem.true_front, problem.frame.reference)
    # a budget that any wfg call on three or more points exceeds
    monkeypatch.setattr(ehvi.wfg, "_MAX_LIMITED", 1)
    with pytest.raises(ParameterError):
        wfg_volume(problem.true_front, problem.frame.reference)
    for name, res in cases:
        problem = synthetic_problem(name, res)
        assert problem.reference_hypervolume == pytest.approx(expected[name, res], rel=1e-12)


def test_candidate_budget(monkeypatch):
    with pytest.raises(ParameterError, match="candidates"):
        synthetic_problem("sphere3", 41)  # 68921 > 2^16, refused before the grid is built
    with pytest.raises(ParameterError, match="candidates"):
        synthetic_problem("sphere2", 257)
    monkeypatch.setattr(ehvi.bo, "_MAX_CANDIDATES", 1000)
    assert len(synthetic_problem("sphere3", 10).candidates.design_points) == 1000
    with pytest.raises(ParameterError, match="candidates"):
        synthetic_problem("sphere3", 11)


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


def test_step_rejects_a_nan_posterior_stddev(monkeypatch):
    # the integral runs from the front's plan and does not check stddevs, so bo_step does
    problem = synthetic_problem("sphere2", resolution=4)
    state = BoState(problem=problem, observed=[0, 5, 15])
    posterior = ehvi.bo.gp_posterior_batch

    def nan_stddev(gp, design):
        means, stds = posterior(gp, design)
        stds[1, 0] = np.nan
        return means, stds

    monkeypatch.setattr(ehvi.bo, "gp_posterior_batch", nan_stddev)
    with pytest.raises(ParameterError, match="stddev"):
        bo_step(state)
    assert state.observed == [0, 5, 15]


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


def test_batched_argmax_breaks_ties_toward_lowest_index():
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
    state = BoState(problem=problem)
    _observe(state, 3, 0)
    record = bo_step(state)
    assert tuple(record.design_point) == (0.0,)


def test_hypervolume_trajectories_nondecreasing():
    for name, resolution in [("sphere2", 8), ("sphere3", 5)]:
        problem = synthetic_problem(name, resolution=resolution)
        for records in (
            run_bo(problem, seed=3, n_init=5, iterations=10),
            run_random(problem, seed=3, evaluations=15, n_init=5),
        ):
            hvs = [r.hypervolume for r in records]
            assert all(b >= a for a, b in zip(hvs, hvs[1:]))
            assert hvs[-1] <= problem.reference_hypervolume + 1e-12
            # the kept hypervolume matches a from-scratch one of every prefix
            for k, record in enumerate(records):
                seen = [r.objectives for r in records[: k + 1]]
                exact = wfg_volume(seen, problem.frame.reference)
                assert record.hypervolume == pytest.approx(exact, rel=1e-12, abs=0.0)


def test_prefilled_state_matches_observed_one():
    problem = synthetic_problem("sphere3", resolution=6)
    obs = [int(i) for i in np.random.default_rng(11).choice(216, size=9, replace=False)]
    prefilled = BoState(problem=problem, observed=list(obs))
    fed = BoState(problem=problem)
    for index in obs:
        _observe(fed, index, 0)
    assert prefilled.observed == fed.observed == obs
    assert prefilled.records == []
    assert prefilled.front.points == fed.front.points
    assert prefilled.front.points == tuple(nondominated_filter(problem.candidates.objectives[obs]))
    assert prefilled.hypervolume == fed.hypervolume == fed.records[-1].hypervolume
    assert prefilled.hypervolume == pytest.approx(
        wfg_volume(problem.candidates.objectives[obs], problem.frame.reference), rel=1e-12
    )
    assert bo_step(prefilled).design_point == bo_step(fed).design_point


def _assert_boxes_of_front(state):
    want = sweep_boxes(state.front)
    assert len(state.boxes) == len(want)
    for got, expected in zip(state.boxes[:3], want[:3]):
        assert got.dtype == expected.dtype
        assert np.array_equal(got, expected)


@pytest.mark.parametrize("name", ["sphere2", "sphere3"])
def test_state_keeps_the_sweep_boxes_of_its_front(name):
    problem = synthetic_problem(name, resolution=6)
    init = [int(i) for i in np.random.default_rng(4).choice(len(problem.candidates.design_points), 6, replace=False)]
    state = BoState(problem=problem, observed=init)
    _assert_boxes_of_front(state)
    for _ in range(6):
        bo_step(state)
        _assert_boxes_of_front(state)


def _negated(problem):
    """The same problem on a maximize frame: objectives and reference negated."""
    return SyntheticProblem(
        name=problem.name + "-max",
        candidates=CandidateSet(problem.candidates.design_points, -problem.candidates.objectives),
        frame=ProblemFrame(problem.frame.m, tuple(-r for r in problem.frame.reference), Orientation.MAXIMIZE),
        true_front=tuple(tuple(-x for x in p) for p in problem.true_front),
        reference_hypervolume=problem.reference_hypervolume,
    )


@pytest.mark.parametrize("name, maximize", [("sphere2", False), ("sphere3", False), ("sphere3", True)])
def test_front_is_the_nondominated_set_of_the_observed_points(name, maximize):
    problem = synthetic_problem(name, resolution=6)
    if maximize:
        problem = _negated(problem)
    sign = -1.0 if maximize else 1.0
    rng = np.random.default_rng(9)
    init = [int(i) for i in rng.choice(len(problem.candidates.design_points), 5, replace=False)]
    state = BoState(problem=problem, observed=init)

    def check():
        internal = sign * problem.candidates.objectives[state.observed]
        assert state.front.points == tuple(nondominated_filter(internal))

    check()
    for step in range(12):
        if step % 2:
            bo_step(state)
        else:  # random queries also bring dominated points and members' copies
            pool = np.delete(np.arange(len(problem.candidates.design_points)), state.observed)
            _observe(state, int(rng.choice(pool)))
        check()


def test_acquisition_time_recorded_only_for_bo_steps():
    problem = synthetic_problem("sphere2", resolution=6)
    records = run_bo(problem, seed=2, n_init=4, iterations=3)
    assert [r.acquisition_time_ns for r in records[:4]] == [0, 0, 0, 0]
    assert [r.gp_time_ns for r in records[:4]] == [0, 0, 0, 0]
    assert all(r.acquisition_time_ns > 0 for r in records[4:])
    assert all(r.gp_time_ns > 0 for r in records[4:])
    assert [r.iteration for r in records] == list(range(7))
    rnd = run_random(problem, seed=2, evaluations=7, n_init=4)
    assert [(r.acquisition_time_ns, r.gp_time_ns) for r in rnd] == [(0, 0)] * 7


@pytest.mark.parametrize("name", ["sphere2", "sphere3"])
def test_bo_queries_pinned(name):
    problem = synthetic_problem(name, DEFAULT_RESOLUTION[name])
    for seed, want in enumerate(PINNED_QUERIES[name]):
        records = run_bo(problem, seed=seed, n_init=10, iterations=15)
        assert _query_indices(problem, records[10:]) == want, seed


def test_maximize_problem_matches_its_negated_minimize_one():
    problem = synthetic_problem("sphere2", DEFAULT_RESOLUTION["sphere2"])
    objectives = -problem.candidates.objectives
    frame = ProblemFrame(2, tuple(-r for r in problem.frame.reference), Orientation.MAXIMIZE)
    negated = SyntheticProblem(
        name="sphere2-max",
        candidates=CandidateSet(problem.candidates.design_points, objectives),
        frame=frame,
        true_front=tuple(tuple(-x for x in p) for p in problem.true_front),
        reference_hypervolume=problem.reference_hypervolume,
    )
    for seed in range(2):
        want = run_bo(problem, seed=seed, n_init=10, iterations=15)
        got = run_bo(negated, seed=seed, n_init=10, iterations=15)
        assert _query_indices(negated, got) == _query_indices(problem, want)
        assert [r.hypervolume for r in got] == [r.hypervolume for r in want]
        assert [r.objectives for r in got] == [tuple(-x for x in r.objectives) for r in want]


def test_maximize_state_keeps_internal_front():
    objectives = np.array([[1.0, 2.0], [2.0, 1.0], [1.5, 1.5]])
    frame = ProblemFrame(2, (0.0, 0.0), Orientation.MAXIMIZE)
    problem = SyntheticProblem(
        name="max",
        candidates=CandidateSet(np.array([[0.0], [1.0], [2.0]]), objectives),
        frame=frame,
        true_front=tuple(map(tuple, objectives)),
        reference_hypervolume=wfg_volume([tuple(-r) for r in objectives], (0.0, 0.0)),
    )
    state = BoState(problem=problem, observed=[0, 1, 2])
    assert state.front.points == ((-2.0, -1.0), (-1.5, -1.5), (-1.0, -2.0))
    assert state.hypervolume == pytest.approx(problem.reference_hypervolume, rel=1e-12)


def test_random_baseline_validations():
    problem = synthetic_problem("sphere2", resolution=3)
    with pytest.raises(ParameterError):
        run_random(problem, seed=0, evaluations=10, n_init=5)
    with pytest.raises(ParameterError):
        run_bo(problem, seed=0, n_init=0, iterations=1)
    with pytest.raises(ParameterError):
        run_bo(problem, seed=0, n_init=10, iterations=0)
