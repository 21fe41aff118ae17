"""WFG recursion for the dominated region (any m >= 2).

The dominated measure of a point list decomposes as

    H(A) = sum_i H_I(a_i, {a_{i+1}, ...})
    H_I(a, S) = measure(box(a, r)) - H(nondominated(limit(S, a)))

with limit the componentwise maximum (While, Bradstreet & Barone, IEEE TEC
2012). Any measure that is a product of per-axis factors of the box works:
Lebesgue volume gives the exact hypervolume, and the closed-form Gaussian
box integral gives the dominated-region integral that ehvi_wfg subtracts
from the full-region integral.

The recursion runs on per-axis ranks: coordinates are replaced by their
rank among the axis's distinct values, and box measures by products from
precomputed per-axis factor tables.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .core import EhviResult, Front, Vector, as_vector, nondominated_sorted
from .errors import DimensionError, ReferenceBoundError
from .gaussian import GaussianBelief, full_region_integral, psi_vec


def limit(s: Sequence[float], a: Sequence[float]) -> Vector:
    """Componentwise maximum of two vectors."""
    if len(s) != len(a):
        raise DimensionError(f"cannot limit vectors of length {len(s)} and {len(a)}")
    return tuple(max(x, y) for x, y in zip(s, a))


def _check_bound(points: list[Vector], reference: Vector) -> None:
    for p in points:
        if len(p) != len(reference):
            raise DimensionError(f"point {p} has {len(p)} coordinates, expected {len(reference)}")
        if not all(x < r for x, r in zip(p, reference)):
            raise ReferenceBoundError(f"point {p} is not strictly inside the bound {reference}")


def _wfg_rec(pts: list[tuple], table: list[list[float]], counter: list[int]) -> float:
    """Signed recursion over lex-sorted, mutually nondominated rank tuples.

    table[j][rank] is the measure factor of axis j for a box whose lower
    bound sits at that rank (upper bound always the reference). counter[0]
    accumulates box-measure evaluations.
    """
    total = 0.0
    npts = len(pts)
    counter[0] += npts
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


def _rank_form(points: Sequence[Vector]) -> tuple[list[tuple], list[list[float]]]:
    """The nondominated rank tuples of the points and the sorted distinct values of every axis.

    Rank i on axis j stands for the value uniqs[j][i]. Per-axis ranks are
    order-isomorphic to values, and componentwise max never leaves the
    per-axis value sets, so the whole recursion runs on small integers with
    measure factors looked up in per-axis tables instead of recomputed.
    """
    uniqs = [sorted(set(col)) for col in zip(*points)]
    rank_maps = [{v: i for i, v in enumerate(uniq)} for uniq in uniqs]
    pts = sorted({tuple(rm[x] for rm, x in zip(rank_maps, p)) for p in points})
    return nondominated_sorted(pts), uniqs


def dominated_volume(points: Sequence[Sequence[float]], reference: Sequence[float]) -> float:
    """Lebesgue measure of the union of boxes [p, r); accepts any point list."""
    ref = as_vector(reference)
    pts = [as_vector(p) for p in points]
    _check_bound(pts, ref)
    if not pts:
        return 0.0
    rank_pts, uniqs = _rank_form(pts)
    table = [[r - v for v in uniq] for r, uniq in zip(ref, uniqs)]
    return _wfg_rec(rank_pts, table, [0])


def hypervolume(front: Front) -> float:
    """Exact dominated hypervolume of the front within its reference bound."""
    return dominated_volume(front.points, front.reference)


def exclusive_volume(
    y: Sequence[float], points: Sequence[Sequence[float]], reference: Sequence[float]
) -> float:
    """Volume of box(y, r) not already dominated by the given points."""
    ref = as_vector(reference)
    vec = as_vector(y)
    _check_bound([vec], ref)
    vol = 1.0
    for x, r in zip(vec, ref):
        vol *= r - x
    if points:
        vol -= dominated_volume([limit(a, vec) for a in points], ref)
    return max(vol, 0.0)


def ehvi_wfg(front: Front, belief: GaussianBelief) -> EhviResult:
    """EHVI as the full-region integral minus the recursive dominated-region integral."""
    if belief.m != front.m:
        raise DimensionError(f"front has m={front.m} but belief has m={belief.m}")
    full = full_region_integral(front.frame, belief)
    if front.n == 0:
        return EhviResult(value=full, boxes=0)
    rank_pts, uniqs = _rank_form(front.points)

    # one vectorized psi evaluation covers every axis table plus its
    # reference value, so per-axis numpy overhead does not dominate small n
    flat: list[float] = []
    mus: list[float] = []
    sds: list[float] = []
    for r, mu, sd, uniq in zip(front.reference, belief.mean, belief.stddev, uniqs):
        flat.extend(uniq)
        flat.append(r)
        mus.extend([mu] * (len(uniq) + 1))
        sds.extend([sd] * (len(uniq) + 1))
    vals = psi_vec(np.asarray(flat), np.asarray(mus), np.asarray(sds))
    table: list[list[float]] = []
    off = 0
    for uniq in uniqs:
        k = len(uniq)
        block = vals[off : off + k + 1]
        table.append(np.maximum(block[k] - block[:k], 0.0).tolist())
        off += k + 1

    counter = [0]
    dominated = _wfg_rec(rank_pts, table, counter)
    return EhviResult(value=max(full - dominated, 0.0), boxes=counter[0])
