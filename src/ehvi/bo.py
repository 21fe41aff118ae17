"""Multi-objective Bayesian optimization over a finite candidate grid.

Structure: deterministic synthetic problems on [0,1]^d, independent GP
surrogates per objective, exhaustive EHVI argmax over the unexplored
candidates, dominated hypervolume as the progress metric, plus a
random-search baseline sharing the same initialization stream so the two
arms are directly comparable. Each observation adds its exact hypervolume
improvement over the current front's boxes, then joins the front.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .core import Front, Orientation, ProblemFrame, Vector, nondominated_filter, validate_front
from .dispatch import compute_ehvi_batch
from .errors import CandidatesExhaustedError, ParameterError
from .gp import fit_gp, gp_posterior_batch
from .sweep import hypervolume_improvement
from .wfg import dominated_volume

# EHVI needs a positive stddev; candidates the GP considers fully resolved
# get this floor instead of 0.
_STDDEV_FLOOR = 1e-9

DEFAULT_RESOLUTION = {"sphere2": 32, "sphere3": 10}


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


@dataclass
class BoState:
    """Queries so far; front (lex-sorted) and hypervolume are kept incrementally from observed."""

    problem: SyntheticProblem
    backend: str = "auto"
    observed: list[int] = field(default_factory=list)
    records: list[BoRunRecord] = field(default_factory=list)
    front: Front = field(init=False)
    hypervolume: float = field(init=False, default=0.0)

    def __post_init__(self) -> None:
        prior, self.observed = self.observed, []
        self.front = validate_front(self.problem.frame, [])
        for index in prior:
            _add_observation(self, index)


def _sphere2(x: np.ndarray) -> np.ndarray:
    g = (x[:, 1] - 0.5) ** 2
    theta = x[:, 0] * (np.pi / 2)
    return np.column_stack([(1 + g) * np.cos(theta), (1 + g) * np.sin(theta)])


def _sphere3(x: np.ndarray) -> np.ndarray:
    g = (x[:, 2] - 0.5) ** 2
    a = x[:, 0] * (np.pi / 2)
    b = x[:, 1] * (np.pi / 2)
    return np.column_stack(
        [
            (1 + g) * np.cos(a) * np.cos(b),
            (1 + g) * np.cos(a) * np.sin(b),
            (1 + g) * np.sin(a),
        ]
    )

_PROBLEMS = {"sphere2": (2, _sphere2), "sphere3": (3, _sphere3)}


def synthetic_problem(name: str, resolution: int) -> SyntheticProblem:
    """Deterministic candidate grid with smooth minimization objectives.

    "sphere2" (d=2, m=2) trades off along a quarter circle of radius 1;
    "sphere3" (d=3, m=3) along an eighth sphere. Both are minimized, with the
    trade-off surface reached at last-coordinate 0.5. The demo reference
    point is the componentwise worst grid objective plus a 10% range margin,
    fixed before any run so all arms and seeds are comparable.
    """
    if name not in _PROBLEMS:
        raise ParameterError(f"unknown problem {name!r}, expected one of {sorted(_PROBLEMS)}")
    if resolution < 2:
        raise ParameterError(f"resolution must be at least 2, got {resolution}")
    d, objective_fn = _PROBLEMS[name]
    axis = np.linspace(0.0, 1.0, resolution)
    design = np.stack(np.meshgrid(*([axis] * d), indexing="ij"), axis=-1).reshape(-1, d)
    objectives = objective_fn(design)
    worst = objectives.max(axis=0)
    best = objectives.min(axis=0)
    reference = tuple(worst + 0.1 * (worst - best))
    frame = ProblemFrame(m=objectives.shape[1], reference=reference, orientation=Orientation.MINIMIZE)
    true_front = tuple(nondominated_filter(tuple(row) for row in objectives))
    return SyntheticProblem(
        name=name,
        candidates=CandidateSet(design_points=design, objectives=objectives),
        frame=frame,
        true_front=true_front,
        reference_hypervolume=dominated_volume(true_front, reference),
    )


def _add_observation(state: BoState, index: int) -> None:
    y = tuple(float(v) for v in state.problem.candidates.objectives[index])
    state.observed.append(index)
    state.hypervolume += hypervolume_improvement(y, state.front)
    state.front = validate_front(state.problem.frame, nondominated_filter(state.front.points + (y,)))


def _observe(state: BoState, index: int, acquisition_time_ns: int) -> BoRunRecord:
    _add_observation(state, index)
    record = BoRunRecord(
        iteration=len(state.observed) - 1,
        design_point=tuple(float(v) for v in state.problem.candidates.design_points[index]),
        objectives=tuple(float(v) for v in state.problem.candidates.objectives[index]),
        hypervolume=state.hypervolume,
        acquisition_time_ns=acquisition_time_ns,
    )
    state.records.append(record)
    return record


def bo_step(state: BoState) -> BoRunRecord:
    """Fit per-objective GPs, score EHVI on every unexplored candidate, query the argmax.

    Ties (and the all-zero case) go to the lowest candidate index. The
    acquisition timer covers EHVI scoring and the argmax scan, not GP
    fitting.
    """
    if not state.observed:
        raise ParameterError("bo_step needs at least one prior observation")
    problem = state.problem
    unexplored = np.setdiff1d(np.arange(len(problem.candidates.design_points)), state.observed)
    if unexplored.size == 0:
        raise CandidatesExhaustedError("every candidate has been queried")

    design = problem.candidates.design_points
    seen_x = design[state.observed]
    seen_f = problem.candidates.objectives[state.observed]
    m = problem.frame.m
    means = np.empty((unexplored.size, m))
    stds = np.empty((unexplored.size, m))
    for j in range(m):
        surrogate = fit_gp(seen_x, seen_f[:, j])
        means[:, j], stds[:, j] = gp_posterior_batch(surrogate, design[unexplored])
    stds = np.maximum(stds, _STDDEV_FLOOR)

    start = time.perf_counter_ns()
    scores = compute_ehvi_batch(state.front, means, stds, state.backend)
    best_pos = int(np.argmax(scores))  # first index on ties
    elapsed = time.perf_counter_ns() - start
    return _observe(state, int(unexplored[best_pos]), elapsed)


def _initialize(state: BoState, seed: int, n_init: int) -> None:
    total = len(state.problem.candidates.design_points)
    if not 1 <= n_init <= total:
        raise ParameterError(f"n_init must be in [1, {total}], got {n_init}")
    rng = np.random.default_rng([seed, 0])
    for index in rng.choice(total, size=n_init, replace=False):
        _observe(state, int(index), 0)


def run_bo(
    problem: SyntheticProblem,
    seed: int,
    n_init: int = 20,
    iterations: int = 100,
    backend: str = "auto",
) -> list[BoRunRecord]:
    """Random initialization followed by EHVI-driven queries; returns all records."""
    state = BoState(problem=problem, backend=backend)
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
        pool = np.setdiff1d(np.arange(len(problem.candidates.design_points)), state.observed)
        if remaining > pool.size:
            raise ParameterError(f"cannot draw {remaining} more from {pool.size} candidates")
        rng = np.random.default_rng([seed, 1])
        for index in rng.permutation(pool)[:remaining]:
            _observe(state, int(index), 0)
    return state.records
