"""WFG recursion for the dominated region (any m >= 2).

The dominated measure of a point list decomposes as

    H(A) = sum_i H_I(a_i, {a_{i+1}, ...})
    H_I(a, S) = measure(box(a, r)) - H(nondominated(limit(S, a)))

with limit the componentwise maximum (While, Bradstreet & Barone, IEEE TEC
2012). Any measure that is a product of per-axis factors of the box works:
Lebesgue volume gives the exact hypervolume, and the closed-form Gaussian
box integral gives the dominated-region integral that ehvi_wfg subtracts
from the full-region integral.

The recursion runs on the breakpoint ranks of core.rank_form, the rank form
that sweep_boxes (clm3's sweep at m = 3) shares: coordinates are replaced by
ranks, and box measures by products of per-axis factors looked up by rank
in tables built from the (m, n+2) breakpoints.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .core import EhviResult, Front, Vector, as_vector, nondominated_sorted, rank_form
from .errors import DimensionError, ParameterError, ReferenceBoundError
from .gaussian import GaussianBelief, psi

# Most point tuples the recursion may limit in one run. Time tracks this
# count, at 4-6 us per tuple for m = 3 to 8 on a 2-core x86-64 host, where
# the box-measure count does not (m = 3, n = 1000: 3 s for 20k boxes), so a
# refused input stops after about 5 s. The largest run of the tests and of
# the README's `ehvi bench` command (m = 3, n = 300) limits 52k tuples.
_MAX_LIMITED = 1 << 20


def _check_bound(points: list[Vector], reference: Vector) -> None:
    if not all(math.isfinite(x) for p in (reference, *points) for x in p):
        raise ParameterError("reference and point coordinates must be finite")
    for p in points:
        if len(p) != len(reference):
            raise DimensionError(f"point {p} has {len(p)} coordinates, expected {len(reference)}")
        if not all(x < r for x, r in zip(p, reference)):
            raise ReferenceBoundError(f"point {p} is not strictly inside the bound {reference}")


def _wfg_rec(pts: list[tuple], table: list[list[float]], counter: list[int]) -> float:
    """Signed recursion over lex-sorted, mutually nondominated rank tuples.

    table[j][rank] is the measure factor of axis j for a box whose lower
    bound sits at that rank (upper bound always the reference). counter[0]
    accumulates box-measure evaluations and counter[1] the tuples limited;
    ParameterError once those exceed _MAX_LIMITED.
    """
    total = 0.0
    npts = len(pts)
    counter[0] += npts
    counter[1] += npts * (npts - 1) // 2  # point i limits the npts-1-i after it
    if counter[1] > _MAX_LIMITED:
        raise ParameterError(f"wfg needs to limit more than its budget of {_MAX_LIMITED} point tuples")
    last = npts - 1
    for i in range(npts):
        a = pts[i]
        t = 1.0
        for rk, col in zip(a, table):
            t *= col[rk]
        if i < last:
            if i == last - 1:
                unique = {tuple(map(max, pts[last], a))}
            else:
                unique = {tuple(map(max, s, a)) for s in pts[i + 1 :]}
            if len(unique) == 1:
                counter[0] += 1
                s = 1.0
                for rk, col in zip(unique.pop(), table):
                    s *= col[rk]
                t -= s
            else:
                limited = nondominated_sorted(sorted(unique))
                if len(limited) == 2:
                    # same three boxes the recursion would emit, minus the frame
                    counter[0] += 3
                    x, y = limited
                    sx = sy = sz = 1.0
                    for j, col in enumerate(table):
                        xr, yr = x[j], y[j]
                        sx *= col[xr]
                        sy *= col[yr]
                        sz *= col[xr if xr >= yr else yr]
                    t -= sx + sy - sz
                else:
                    t -= _wfg_rec(limited, table, counter)
        total += t
    return total


def _rank_tuples(ranks: np.ndarray) -> list[tuple]:
    """The distinct, mutually nondominated rows of a rank_form rank array, lex-sorted.

    Ranks are order-isomorphic to coordinates, and componentwise max never
    leaves the per-axis breakpoints, so the whole recursion runs on small
    integers with measure factors looked up in per-axis tables.
    """
    return nondominated_sorted(sorted(set(map(tuple, ranks.tolist()))))


def _volume(points: np.ndarray | list[Vector], reference: Vector) -> float:
    if not len(points):
        return 0.0
    breaks, ranks = rank_form(points, reference)
    table = (breaks[:, -1:] - breaks).tolist()
    return _wfg_rec(_rank_tuples(ranks), table, [0, 0])


def dominated_volume(points: Sequence[Sequence[float]], reference: Sequence[float]) -> float:
    """Lebesgue measure of the union of boxes [p, r); accepts any list of finite points."""
    ref = as_vector(reference)
    pts = [as_vector(p) for p in points]
    _check_bound(pts, ref)
    return _volume(pts, ref)


def hypervolume(front: Front) -> float:
    """Exact dominated hypervolume of the front within its reference bound."""
    return _volume(front.coords, front.reference)


def ehvi_wfg(front: Front, belief: GaussianBelief) -> EhviResult:
    """EHVI as the full-region integral minus the recursive dominated-region integral."""
    if belief.m != front.m:
        raise DimensionError(f"front has m={front.m} but belief has m={belief.m}")
    breaks, ranks = rank_form(front.coords, front.reference)
    # one psi evaluation over every axis's breakpoints; the last column is
    # the reference, so its product is the full-region integral
    p = psi(breaks, np.array(belief.mean)[:, None], np.array(belief.stddev)[:, None])
    full = math.prod(p[:, -1].tolist())
    table = np.maximum(p[:, -1:] - p, 0.0).tolist()
    counter = [0, 0]
    dominated = _wfg_rec(_rank_tuples(ranks), table, counter)
    return EhviResult(value=max(full - dominated, 0.0), boxes=counter[0])
