"""Coordinate-grid decomposition of the nondominated region.

The n front points induce an (n+1)-cell partition per axis (with -inf and the
reference coordinate as sentinels). A grid cell belongs to the nondominated
region exactly when its lower corner is not weakly dominated by any front
point, and that test reduces to one lookup in the H-array: H, indexed by the
lower-bound ranks of the first m-1 axes, holds the minimal m-th coordinate of
any front point weakly preceding that rank tuple. EHVI is then the sum of
closed-form box integrals over all qualifying cells.

The EHVI entry point enumerates every cell (that is the algorithm: Theta(n^m)
cells, O(m) work each), vectorized and chunked so memory stays bounded, and
integrates them itself; grid_decompose materializes the cells as a
core.BoxDecomposition, the box type of the other backends, for the
quadrature oracle and for checks against the shared integrator.

The grid sorts its own axes and builds its own H-array instead of using
core.rank_form: it is the independent reference that the sweep and wfg
backends, which share that rank form, are checked against.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .core import BoxDecomposition, EhviResult, Front
from .errors import DimensionError, ParameterError
from .gaussian import GaussianBelief, psi

# Largest cell block materialized at once by ehvi_grid (elements, not bytes).
_CHUNK = 1 << 22
# Most (n+1)^m cells a grid may have. The largest grid the tests and the
# README's `ehvi bench` command run is m = 3, n = 300: 301^3 = 2.7e7 cells,
# 0.14 s on a 2-core x86-64 host. This allows about ten times that, seconds
# of work and an H-array of at most ~80 MB, and rejects sizes that would run
# for hours or exhaust memory (m = 6, n = 300 would need a 19 TiB H-array).
_MAX_CELLS = 1 << 28


@dataclass(frozen=True)
class GridStructure:
    """Per-axis sorted bounds (n+2 entries: -inf, coords, reference) plus the H-array."""

    axes: tuple[np.ndarray, ...]
    h_array: np.ndarray  # shape (n+1,)*(m-1); +inf where no front point precedes


def build_grid(front: Front) -> GridStructure:
    """Sort the per-axis coordinates and accumulate the H-array.

    Points are applied in descending m-th coordinate; each point lowers H on
    the contiguous rank block it weakly precedes (rank 0, lower bound -inf,
    is preceded by nothing and stays +inf). Raises ParameterError, before
    allocating anything, when the grid has more than _MAX_CELLS cells.
    """
    m, n = front.m, front.n
    if (n + 1) ** m > _MAX_CELLS:
        raise ParameterError(f"grid needs {n + 1}^{m} cells, more than its budget of {_MAX_CELLS}")
    pts = np.asarray(front.points, dtype=float).reshape(n, m)
    axes = tuple(
        np.concatenate(([-np.inf], np.sort(pts[:, j]), [front.reference[j]])) for j in range(m)
    )
    h = np.full((n + 1,) * (m - 1), np.inf)
    for i in np.argsort(-pts[:, m - 1], kind="stable"):
        a = pts[i]
        block = tuple(
            slice(int(np.searchsorted(axes[j], a[j], side="left")), None) for j in range(m - 1)
        )
        np.minimum(h[block], a[m - 1], out=h[block])
    return GridStructure(axes=axes, h_array=h)


def grid_decompose(front: Front) -> BoxDecomposition:
    """Materialize every nonempty nondominated grid cell as a box.

    A cell is emitted when its lower corner is not weakly dominated and it
    has positive width on every axis; cells come in lexicographic order of
    their lower ranks. The union of the boxes is exactly the nondominated
    region bounded by the reference point. Intended for verification and
    moderate n^m; the EHVI entry point streams instead of materializing.
    """
    g = build_grid(front)
    breaks = np.stack(g.axes)
    wide = breaks[:, 1:] > breaks[:, :-1]
    cells = (breaks[-1, :-1] < g.h_array[..., None]) & functools.reduce(np.logical_and.outer, wide)
    lower = np.argwhere(cells)
    return BoxDecomposition(breaks, lower, lower + 1)


def ehvi_grid(front: Front, belief: GaussianBelief) -> EhviResult:
    """EHVI as the sum of box integrals over all nondominated grid cells.

    Every one of the (n+1)^m cells is visited. The per-cell integrand is a
    product of per-axis psi differences, so whole cell blocks are evaluated
    as outer products; blocks larger than _CHUNK elements are split along
    leading axes. The reported box count is the number of emitted cells
    (nondominated lower corner, positive width on every axis), matching
    grid_decompose.
    """
    if belief.m != front.m:
        raise DimensionError(f"front has m={front.m} but belief has m={belief.m}")
    g = build_grid(front)
    m, n = front.m, front.n
    k = n + 1
    diffs = []
    widths = []
    for j in range(m):
        p = psi(g.axes[j], belief.mean[j], belief.stddev[j])
        diffs.append(np.maximum(p[1:] - p[:-1], 0.0))
        widths.append(g.axes[j][1:] > g.axes[j][:-1])
    lower_m = g.axes[m - 1][:k]  # cell lower bounds along the last axis

    lead = 0
    block = k**m
    while block > _CHUNK and lead < m - 1:
        block //= k
        lead += 1
    # Outer products over the trailing axes are shared by every leading prefix.
    # A huge stddev overflows them to inf, which times a zero factor is nan.
    # The factors are finite, so every nan cell has a zero factor and is
    # zeroed, as integrate_boxes zeroes such boxes.
    value_tail = diffs[m - 1]
    width_tail = widths[m - 1]
    for j in range(m - 2, lead - 1, -1):
        with np.errstate(over="ignore", invalid="ignore"):
            value_tail = np.multiply.outer(diffs[j], value_tail)
        width_tail = np.logical_and.outer(widths[j], width_tail)
    value_tail[np.isnan(value_tail)] = 0.0

    total = 0.0
    count = 0
    for prefix in itertools.product(range(k), repeat=lead):
        scale = 1.0
        prefix_wide = True
        for j, i in enumerate(prefix):
            scale *= float(diffs[j][i])  # a Python float overflows to inf silently
            prefix_wide = prefix_wide and bool(widths[j][i])
        hs = np.asarray(g.h_array[prefix])
        mask = lower_m < hs[..., None]
        if scale > 0.0:
            with np.errstate(over="ignore"):
                cells = float(np.where(mask, value_tail, 0.0).sum())
            if cells > 0.0:  # an overflowed scale times zero cells would be nan
                total += scale * cells
        if prefix_wide:
            count += int((mask & width_tail).sum())
    return EhviResult(value=total, boxes=count)
