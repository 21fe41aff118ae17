"""Backend selection for compute_ehvi, compute_ehvi_batch and the CLI."""

from __future__ import annotations

import numpy as np

from .core import EhviResult, Front
from .errors import ParameterError
from .gaussian import GaussianBelief, check_beliefs, integrate_boxes, integration_plan
from .grid import ehvi_grid
from .sweep import ehvi_sweep, sweep_plan
from .wfg import ehvi_wfg, wfg_boxes

BACKENDS = {
    "grid": ehvi_grid,
    "wfg": ehvi_wfg,
    "sweep": ehvi_sweep,
}

ALGORITHMS = tuple(BACKENDS) + ("auto",)


def resolve_algorithm(name: str) -> str:
    """Resolve an algorithm selector to a backend name.

    "auto" picks sweep at every m; it never picks grid or wfg, which stay as
    references.
    """
    if name not in ALGORITHMS:
        raise ParameterError(f"unknown algorithm {name!r}, expected one of {ALGORITHMS}")
    return "sweep" if name == "auto" else name


def compute_ehvi(front: Front, belief: GaussianBelief, algorithm: str = "auto") -> EhviResult:
    """Compute EHVI with the named (or auto-resolved) backend."""
    return BACKENDS[resolve_algorithm(algorithm)](front, belief)


def compute_ehvi_batch(front: Front, means, stds, algorithm: str = "auto") -> np.ndarray:
    """EHVI of q beliefs against one front; row i of means and stds is belief i.

    means and stds are (q, m) arrays. sweep and wfg decompose the front once
    and integrate every belief over the same boxes, wfg's signed and clamped
    at 0 as in ehvi_wfg; grid, the independent reference, runs row by row.
    Returns the q values.
    """
    name = resolve_algorithm(algorithm)
    means, stds = check_beliefs(means, stds, front.m)
    if name == "sweep":
        return integrate_boxes(sweep_plan(front), means, stds)
    if name == "wfg":
        plan = integration_plan(*wfg_boxes(front.coords, front.reference))
        return np.maximum(integrate_boxes(plan, means, stds), 0.0)
    return np.array([ehvi_grid(front, GaussianBelief(mu, sd)).value for mu, sd in zip(means, stds)], dtype=float)
