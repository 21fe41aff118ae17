"""WFG recursion for the dominated region (any m >= 2), as signed corners, for EHVI.

The dominated measure of a point list decomposes as

    H(A) = sum_i H_I(a_i, {a_{i+1}, ...})
    H_I(a, S) = measure(box(a, r)) - H(nondominated(limit(S, a)))

with limit the componentwise maximum (While, Bradstreet & Barone, IEEE TEC
2012). Unrolled, H(A) is a signed sum of the measures of boxes (c, r], one
per corner c. The recursion only chooses the corners and their signs and
never evaluates a measure: ehvi_wfg integrates the full box (-inf, r] and
the negated corners in one gaussian.integrate_boxes pass for any batch of
beliefs. It serves EHVI only, as a reference; the library's hypervolume
comes from the sweep boxes. It runs on core.rank_form's breakpoint ranks,
which sweep_boxes shares: a corner is a tuple of ranks into the (m, n+2)
breakpoints, and componentwise max never leaves them.
"""

from __future__ import annotations

import numpy as np

from .core import BoxDecomposition, EhviResult, Front, Vector, nondominated_sorted, rank_form
from .errors import DimensionError, ParameterError
from .gaussian import GaussianBelief, integrate_boxes, integration_plan

# Most point tuples the recursion may limit in one run. Time tracks this
# count, at 2-4.5 us per tuple for m = 3 to 10 on a 2-core x86-64 host,
# where the corner count does not (m = 3, n = 1000: 2.2 s for 20k corners),
# so a refused input stops after about 5 s. The corners live until they are
# integrated: generate_front(8, 80, 0) makes 649k from 737k tuples in 2.7 s
# and 90 MiB of peak resident memory, and (10, 44, 0), about the largest
# admitted front, 1.01M from 946k in 3.6 s and 170 MiB. The largest run of
# the tests and of `ehvi bench` in the README (m = 3, n = 300) limits 52k.
_MAX_LIMITED = 1 << 20


def _wfg_rec(pts: list[tuple], sign: int, corners: list[int], signs: list[int], counter: list[int]) -> None:
    """Append the corners, flattened, and signs of sign * H(pts), in recursion order.

    pts are lex-sorted, mutually nondominated rank tuples. Each point's
    corner comes first, then the terms of the later points it limits, with
    the opposite sign. counter[0] accumulates the tuples limited;
    ParameterError once it exceeds _MAX_LIMITED.
    """
    counter[0] += len(pts) * (len(pts) - 1) // 2  # point i limits the ones after it
    if counter[0] > _MAX_LIMITED:
        raise ParameterError(f"wfg needs to limit more than its budget of {_MAX_LIMITED} point tuples")
    for i, a in enumerate(pts):
        corners.extend(a)
        signs.append(sign)
        unique = {tuple(map(max, s, a)) for s in pts[i + 1 :]}
        if len(unique) == 1:
            corners.extend(unique.pop())
            signs.append(-sign)
        elif unique:
            limited = nondominated_sorted(sorted(unique))
            if len(limited) == 2:
                # the three terms the recursion would emit, without limiting again
                x, y = limited
                corners += (*x, *y, *map(max, x, y))
                signs += (-sign, -sign, sign)
            else:
                _wfg_rec(limited, -sign, corners, signs, counter)


def _rank_tuples(ranks: np.ndarray) -> list[tuple]:
    """The distinct, mutually nondominated rows of a rank_form rank array, lex-sorted.

    Ranks order exactly as the coordinates do, so the recursion on them
    emits the same terms, each corner a tuple of small breakpoint indices.
    """
    return nondominated_sorted(sorted(set(map(tuple, ranks.tolist()))))


def wfg_boxes(points: np.ndarray | list[Vector], reference: Vector) -> tuple[BoxDecomposition, np.ndarray]:
    """The full box (-inf, r] with sign +1, then each WFG term's box (corner, r] with its sign negated.

    A measure summed over the boxes with these signs is the measure of the
    region below r that no point weakly dominates. The recursion appends
    each corner's ranks to one flat list, 8 m bytes per corner, as the ranks
    are the rank tuples' own int objects.
    """
    m = len(reference)
    breaks, ranks = rank_form(points, reference)
    corners, signs = [0] * m, [1]
    if len(ranks):
        _wfg_rec(_rank_tuples(ranks), -1, corners, signs, [0])
    lower = np.array(corners, dtype=np.intp).reshape(-1, m)
    # every box ends at the reference, the last breakpoint
    upper = np.broadcast_to(np.intp(breaks.shape[1] - 1), lower.shape)
    return BoxDecomposition(breaks, lower, upper), np.array(signs, dtype=float)


def ehvi_wfg(front: Front, belief: GaussianBelief) -> EhviResult:
    """EHVI over the full box and the signed WFG corners, clamped at 0; reports the corners."""
    if belief.m != front.m:
        raise DimensionError(f"front has m={front.m} but belief has m={belief.m}")
    plan = integration_plan(*wfg_boxes(front.coords, front.reference))
    value = integrate_boxes(plan, (belief.mean,), (belief.stddev,))[0]
    return EhviResult(value=max(float(value), 0.0), boxes=plan.count - 1)
