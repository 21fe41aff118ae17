"""Seeded inputs of the benchmark, made through the public ehvi API.

``make_inputs`` is the whole set-up that ``setup_s`` times after
``import ehvi``: the BO problem, the score fronts (generated and validated)
and their beliefs, and the ``ehvi compute`` requests. The BO starts, the
improving beliefs and the m = 3, n = 1000 request's belief come from the
seed. The fronts are fixed: the cost of a wfg call at m >= 4 varies about
3x between fronts of one shape, which no run-to-run bound could absorb, and
so does the time to generate the n = 1000 front. The dominated-mean beliefs
are fixed too, so that the operations they fail on are the same in every
run.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# (m, n) of the score fronts, named m<m>_n<n>
SHAPES = [(2, 100), (3, 100), (3, 1000), (4, 40), (6, 15)]
BELIEFS = {(3, 1000): 4}  # beliefs of each family per shape, default below
BELIEFS_DEFAULT = 8
FIXED_SEED = 20181  # seed of the fronts and of the dominated-mean beliefs

BO_PROBLEM = ("sphere3", 10)
BO_INIT = 10
BO_STEPS = 5
BO_ROUNDS = 8  # BO seeds every run completes; bo_final_hv is their mean

README_REQUEST = {
    "m": 2,
    "maximize": False,
    "reference": [0.0, 0.0],
    "front": [[-1.0, -3.0], [-2.0, -2.0], [-3.0, -1.0]],
    "mean": [-2.5, -2.5],
    "stddev": [1.0, 1.0],
    "algorithm": "auto",
}


def shape_name(m: int, n: int) -> str:
    return f"m{m}_n{n}"


def _int_seed(*words: int) -> int:
    return int(np.random.SeedSequence(list(words)).generate_state(1)[0])


@dataclass
class ScoreSet:
    """One family of beliefs on one shape's validated front (maximization, as generated)."""

    shape: str
    family: str  # "improving" or "dominated"
    points: np.ndarray  # (n, m), maximization, reference at the origin
    front: object  # ehvi Front
    means: np.ndarray  # (k, m), maximization
    sds: np.ndarray
    beliefs: list = field(default_factory=list)  # ehvi GaussianBelief, internal convention


@dataclass
class Inputs:
    problem: object
    seed: int
    score: list  # ScoreSet
    requests: dict  # name -> request object

    def bo_init(self, r: int) -> list[int]:
        """The initial candidates of BO seed r."""
        total = len(self.problem.candidates.design_points)
        return np.random.default_rng([self.seed, 1, r]).choice(total, size=BO_INIT, replace=False).tolist()


def _score_set(ehvi, shape, family, points, front, means, sds) -> ScoreSet:
    beliefs = [ehvi.gaussian.GaussianBelief(mean=tuple(-mu), stddev=tuple(sd)) for mu, sd in zip(means, sds)]
    return ScoreSet(shape, family, points, front, means, sds, beliefs)


def make_inputs(ehvi, seed: int, begin=None) -> Inputs:
    """Every input of a run; ``ehvi`` is a namespace of the ehvi submodules.

    ``begin(tag)``, when given, is called before the work of each shape, so
    that a tracer can tell the shapes apart.
    """
    problem = ehvi.bo.synthetic_problem(*BO_PROBLEM)
    score = []
    for m, n in SHAPES:
        name = shape_name(m, n)
        if begin is not None:
            begin(f"setup.{name}")
        points = np.array(ehvi.bench.generate_front(m, n, _int_seed(FIXED_SEED, m, n)))
        front = ehvi.core.validate_front(ehvi.bench.benchmark_frame(m), points.tolist())
        k = BELIEFS.get((m, n), BELIEFS_DEFAULT)
        # improving: means between the front and just past the ideal corner (10, ..., 10)
        rng = np.random.default_rng([seed, 2, m, n])
        means, sds = rng.uniform(7.0, 11.0, (k, m)), rng.uniform(0.5, 3.0, (k, m))
        score.append(_score_set(ehvi, name, "improving", points, front, means, sds))
        # dominated-mean: a front point pushed into the region it dominates, small sd
        rng = np.random.default_rng([FIXED_SEED, m, n])
        means = points[rng.integers(n, size=k)] - rng.uniform(0.3, 2.0, (k, m))
        sds = rng.uniform(0.1, 0.4, (k, m))
        score.append(_score_set(ehvi, name, "dominated", points, front, means, sds))
    big = next(s for s in score if s.shape == "m3_n1000")
    requests = {
        "small": README_REQUEST,
        "m3_n1000": {
            "m": 3,
            "maximize": True,
            "reference": [0.0, 0.0, 0.0],
            "front": big.points.tolist(),
            "mean": big.means[0].tolist(),
            "stddev": big.sds[0].tolist(),
        },
    }
    return Inputs(problem, seed, score, requests)

