"""Backend selection shared by the CLI and the BO loop."""

from __future__ import annotations

import numpy as np

from .clm3 import ehvi_clm3, nondominated_boxes
from .core import EhviResult, Front
from .errors import DimensionError, ParameterError, UnsupportedDimensionError
from .gaussian import GaussianBelief, integrate_boxes
from .grid import ehvi_grid
from .wfg import ehvi_wfg

BACKENDS = {
    "grid": ehvi_grid,
    "wfg": ehvi_wfg,
    "clm3": ehvi_clm3,
}

ALGORITHMS = tuple(BACKENDS) + ("auto",)


def resolve_algorithm(name: str, m: int) -> str:
    """Resolve an algorithm selector against the objective count.

    "auto" picks the sweep for m=3 and the recursive backend otherwise;
    explicitly requesting the sweep away from m=3 is an error.
    """
    if name not in ALGORITHMS:
        raise ParameterError(f"unknown algorithm {name!r}, expected one of {ALGORITHMS}")
    if name == "auto":
        return "clm3" if m == 3 else "wfg"
    if name == "clm3" and m != 3:
        raise UnsupportedDimensionError(f"algorithm clm3 needs m=3, got m={m}")
    return name


def compute_ehvi(front: Front, belief: GaussianBelief, algorithm: str = "auto") -> EhviResult:
    """Compute EHVI with the named (or auto-resolved) backend."""
    return BACKENDS[resolve_algorithm(algorithm, front.m)](front, belief)


def compute_ehvi_batch(front: Front, means, stds, algorithm: str = "auto") -> np.ndarray:
    """EHVI of q beliefs against one front; row i of means and stds is belief i.

    means and stds are (q, m) arrays. clm3 decomposes the front once and
    integrates every belief over the same boxes; grid and wfg run their
    single-belief backend row by row. Returns the q values.
    """
    name = resolve_algorithm(algorithm, front.m)
    means = np.asarray(means, dtype=float)
    stds = np.asarray(stds, dtype=float)
    if means.ndim != 2 or means.shape[1] != front.m or stds.shape != means.shape:
        raise DimensionError(
            f"means and stds must both have shape (q, {front.m}), got {means.shape} and {stds.shape}"
        )
    if not np.isfinite(means).all():
        raise ParameterError("belief means must be finite")
    if not ((stds > 0.0) & np.isfinite(stds)).all():
        raise ParameterError("belief stddevs must be positive and finite")
    if name == "clm3":
        boxes = nondominated_boxes(front)
        return integrate_boxes(boxes.breaks, boxes.lower, boxes.upper, means, stds)
    backend = BACKENDS[name]
    return np.array([backend(front, GaussianBelief(mu, sd)).value for mu, sd in zip(means, stds)], dtype=float)
