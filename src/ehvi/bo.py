"""Multi-objective Bayesian optimization over a finite candidate grid.

Structure: deterministic synthetic problems on [0,1]^d, one GP fit over
all objectives, exhaustive EHVI argmax over the unexplored
candidates, dominated hypervolume as the progress metric, plus a
random-search baseline sharing the same initialization stream so the two
arms are directly comparable. Each front is decomposed into sweep boxes
once: each observation adds its exact hypervolume improvement over the
current front's boxes, then joins the front, and the acquisition
integrates every candidate's belief over the same boxes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .core import BoxDecomposition, Front, Orientation, ProblemFrame, Vector, nondominated_filter, validate_front
from .errors import CandidatesExhaustedError, ParameterError
from .gaussian import check_beliefs, integrate_boxes
from .gp import fit_gp, gp_posterior_batch
from .sweep import clipped_volumes, hypervolume, sweep_boxes

# EHVI needs a positive stddev; candidates the GP considers fully resolved
# get this floor instead of 0.
_STDDEV_FLOOR = 1e-9

DEFAULT_RESOLUTION = {"sphere2": 32, "sphere3": 10}
# Most grid candidates a synthetic problem may have. Set-up is mostly
# nondominated_filter over the candidates, converting and sorting them before
# one staircase pass, O(N log N) in all: on a 2-core x86-64 host sphere3
# takes 0.09 s at resolution 40 (64,000 candidates) and sphere2 0.07 s at
# resolution 256 (65,536). Every BO step then takes the GP posterior and
# the EHVI of every unexplored candidate.
_MAX_CANDIDATES = 1 << 16


@dataclass(frozen=True)
class CandidateSet:
    """Finite design grid plus the hidden true objectives (revealed on query)."""

    design_points: np.ndarray  # (N, d)
    objectives: np.ndarray  # (N, m)


@dataclass(frozen=True)
class SyntheticProblem:
    name: str
    candidates: CandidateSet
    frame: ProblemFrame
    true_front: tuple[Vector, ...]  # exact nondominated set of the whole grid
    reference_hypervolume: float  # dominated hypervolume of true_front


@dataclass(frozen=True)
class BoRunRecord:
    """One query: what was asked, what came back, and the metric afterwards."""

    iteration: int
    design_point: Vector
    objectives: Vector
    hypervolume: float
    acquisition_time_ns: int  # EHVI scoring + argmax scan; 0 for random queries
    gp_time_ns: int  # GP fit + posterior; 0 for random queries


@dataclass
class BoState:
    """Queries so far; front (lex-sorted) and hypervolume are kept incrementally from observed."""

    problem: SyntheticProblem
    observed: list[int] = field(default_factory=list)
    records: list[BoRunRecord] = field(default_factory=list)
    front: Front = field(init=False)
    hypervolume: float = field(init=False, default=0.0)

    def __post_init__(self) -> None:
        prior, self.observed = self.observed, []
        self.front = validate_front(self.problem.frame, [])
        for index in prior:
            _add_observation(self, index)

    @property
    def boxes(self) -> BoxDecomposition:
        """The front's sweep boxes, which the Front keeps once made."""
        return sweep_boxes(self.front)


def _sphere(x: np.ndarray) -> np.ndarray:
    """DTLZ2 with m = d objectives and one distance variable, the last coordinate.

    With theta_k = x_k * pi/2, objective j is (1 + g) * cos(theta_0) * ... *
    cos(theta_{m-2-j}) * sin(theta_{m-1-j}), without the sine for j = 0, and
    g = (x_{d-1} - 0.5)^2.
    """
    radius = 1 + (x[:, -1] - 0.5) ** 2
    cols = []
    for theta in (x[:, :-1] * (np.pi / 2)).T:
        cols.append(radius * np.sin(theta))
        radius = radius * np.cos(theta)
    cols.append(radius)
    return np.column_stack(cols[::-1])


_PROBLEMS = {"sphere2": (2, _sphere), "sphere3": (3, _sphere)}


def synthetic_problem(name: str, resolution: int) -> SyntheticProblem:
    """Deterministic candidate grid with smooth minimization objectives.

    "sphere2" (d=2, m=2) trades off along a quarter circle of radius 1;
    "sphere3" (d=3, m=3) along an eighth sphere. Both are minimized, with the
    trade-off surface reached at last-coordinate 0.5. The demo reference
    point is the componentwise worst grid objective plus a 10% range margin,
    fixed before any run so all arms and seeds are comparable.
    ParameterError, before anything is built, when the grid would have more
    than _MAX_CANDIDATES candidates.

    The reference hypervolume is sweep.hypervolume of the true front: the
    same boxes and clip that BoState uses for each observation.
    """
    if name not in _PROBLEMS:
        raise ParameterError(f"unknown problem {name!r}, expected one of {sorted(_PROBLEMS)}")
    if resolution < 2:
        raise ParameterError(f"resolution must be at least 2, got {resolution}")
    d, objective_fn = _PROBLEMS[name]
    if resolution**d > _MAX_CANDIDATES:
        raise ParameterError(
            f"{name} at resolution {resolution} has {resolution}^{d} candidates, "
            f"more than the budget of {_MAX_CANDIDATES}"
        )
    axis = np.linspace(0.0, 1.0, resolution)
    design = np.stack(np.meshgrid(*([axis] * d), indexing="ij"), axis=-1).reshape(-1, d)
    objectives = objective_fn(design)
    worst = objectives.max(axis=0)
    best = objectives.min(axis=0)
    reference = tuple(worst + 0.1 * (worst - best))
    frame = ProblemFrame(m=objectives.shape[1], reference=reference, orientation=Orientation.MINIMIZE)
    true_front = tuple(nondominated_filter(objectives.tolist()))
    return SyntheticProblem(
        name=name,
        candidates=CandidateSet(design_points=design, objectives=objectives),
        frame=frame,
        true_front=true_front,
        reference_hypervolume=hypervolume(Front(frame, true_front)),
    )


def _add_observation(state: BoState, index: int) -> None:
    # the front's points are internal already, so only y goes through validate_front
    (y,) = validate_front(state.problem.frame, [state.problem.candidates.objectives[index]]).points
    state.observed.append(index)
    state.hypervolume += float(clipped_volumes(state.boxes, np.array([y]))[0])
    points = tuple(nondominated_filter(state.front.points + (y,)))
    if points != state.front.points:  # a dominated y leaves the front and its boxes as they are
        state.front = Front(state.problem.frame, points)


def _observe(state: BoState, index: int, acquisition_time_ns: int = 0, gp_time_ns: int = 0) -> BoRunRecord:
    _add_observation(state, index)
    record = BoRunRecord(
        iteration=len(state.observed) - 1,
        design_point=tuple(float(v) for v in state.problem.candidates.design_points[index]),
        objectives=tuple(float(v) for v in state.problem.candidates.objectives[index]),
        hypervolume=state.hypervolume,
        acquisition_time_ns=acquisition_time_ns,
        gp_time_ns=gp_time_ns,
    )
    state.records.append(record)
    return record


def bo_step(state: BoState) -> BoRunRecord:
    """Fit one GP over all objectives, score EHVI on every unexplored candidate, query the argmax.

    The GP sees the objectives in the front's internal convention, so its
    means are internal too. The posterior is checked once, with the
    stddevs floored, and every belief is integrated over the sweep boxes
    the state's front keeps, as compute_ehvi_batch would. Ties (and the
    all-zero case) go to the lowest candidate index. The GP timer covers fit
    and posterior, the acquisition timer EHVI scoring and the argmax scan.
    """
    if not state.observed:
        raise ParameterError("bo_step needs at least one prior observation")
    problem = state.problem
    unexplored = np.delete(np.arange(len(problem.candidates.design_points)), state.observed)
    if unexplored.size == 0:
        raise CandidatesExhaustedError("every candidate has been queried")

    design = problem.candidates.design_points
    boxes = sweep_boxes(state.front)  # a front new since the last step is decomposed here, outside both timers
    sign = -1.0 if problem.frame.orientation is Orientation.MAXIMIZE else 1.0
    seen_f = sign * problem.candidates.objectives[state.observed]
    start = time.perf_counter_ns()
    means, stds = gp_posterior_batch(fit_gp(design[state.observed], seen_f), design[unexplored])
    gp_elapsed = time.perf_counter_ns() - start
    means, stds = check_beliefs(means, np.maximum(stds, _STDDEV_FLOOR), problem.frame.m)

    start = time.perf_counter_ns()
    scores = integrate_boxes(boxes, means, stds)
    best_pos = int(np.argmax(scores))  # first index on ties
    elapsed = time.perf_counter_ns() - start
    return _observe(state, int(unexplored[best_pos]), elapsed, gp_elapsed)


def _initialize(state: BoState, seed: int, n_init: int) -> None:
    total = len(state.problem.candidates.design_points)
    if not 1 <= n_init <= total:
        raise ParameterError(f"n_init must be in [1, {total}], got {n_init}")
    rng = np.random.default_rng([seed, 0])
    for index in rng.choice(total, size=n_init, replace=False):
        _observe(state, int(index))


def run_bo(
    problem: SyntheticProblem,
    seed: int,
    n_init: int = 20,
    iterations: int = 100,
) -> list[BoRunRecord]:
    """Random initialization followed by EHVI-driven queries; returns all records.

    ParameterError, before anything is queried, for a negative iteration count.
    """
    if iterations < 0:
        raise ParameterError(f"iterations must be at least 0, got {iterations}")
    state = BoState(problem=problem)
    _initialize(state, seed, n_init)
    for _ in range(iterations):
        bo_step(state)
    return state.records


def run_random(
    problem: SyntheticProblem, seed: int, evaluations: int = 120, n_init: int = 20
) -> list[BoRunRecord]:
    """Pure random search sharing the BO arm's initialization stream.

    The first min(n_init, evaluations) queries replay the BO arm's seeded
    initialization exactly; the rest are drawn uniformly (without
    replacement) from a separate continuation stream.
    """
    state = BoState(problem=problem)
    head = min(n_init, evaluations)
    _initialize(state, seed, head)
    remaining = evaluations - head
    if remaining > 0:
        pool = np.delete(np.arange(len(problem.candidates.design_points)), state.observed)
        if remaining > pool.size:
            raise ParameterError(f"cannot draw {remaining} more from {pool.size} candidates")
        rng = np.random.default_rng([seed, 1])
        for index in rng.permutation(pool)[:remaining]:
            _observe(state, int(index))
    return state.records
