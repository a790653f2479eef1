"""Pareto dominance, nondominated filtering, and front/set extraction.

Minimization orientation throughout: v dominates w when v is componentwise
no larger, strictly when it is smaller somewhere.  The nondominated filter
first drops the vectors that the one of least coordinate sum strictly
dominates, then stably sorts the rest lexicographically once, so equal
vectors form runs.
With two objectives a sweep keeps each distinct vector whose second
coordinate is strictly below the running minimum of the earlier ones (Kung,
Luccio & Preparata 1975).  With three or more, a divide-and-conquer
recursion solves both halves of the sorted vectors, then keeps the second
half's survivors that no first-half survivor strictly dominates.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


# Below this size the recursion (d >= 3 only) switches to the quadratic scan;
# any small constant is correct, this one is just fast.
_SCAN_CUTOFF = 16


def _strictly_dominated_mask(points: np.ndarray, against: np.ndarray) -> np.ndarray:
    """For each row of `points`, whether some row of `against` strictly dominates it."""
    out = np.zeros(len(points), dtype=bool)
    # chunk the broadcast so memory stays flat when both sides are large
    step = max(1, int(4e6) // max(1, len(against)))
    for i in range(0, len(points), step):
        chunk = points[i : i + step, None, :]
        le = np.all(against[None, :, :] <= chunk, axis=2)
        lt = np.any(against[None, :, :] < chunk, axis=2)
        out[i : i + step] = np.any(le & lt, axis=1)
    return out


def _find_front(points: np.ndarray) -> np.ndarray:
    """Ascending indices of the nondominated rows of distinct, lexsorted `points`."""
    if len(points) <= _SCAN_CUTOFF:
        return np.flatnonzero(~_strictly_dominated_mask(points, points))
    half = len(points) // 2
    r = _find_front(points[:half])
    s = half + _find_front(points[half:])
    keep = ~_strictly_dominated_mask(points[s], points[r])
    return np.concatenate([r, s[keep]])


def kung_front(vectors, return_refs: bool = False):
    """Nondominated subset of a set of d-vectors, one row per distinct vector.

    The result equals the set of input vectors not strictly dominated by any
    input vector, in lexicographic order; with two objectives the first
    strictly increases and the second strictly decreases along it.  With
    `return_refs`, also returns for each front row the ascending indices of
    the input rows equal to it.  A row with a NaN raises ValueError.
    """
    pts = np.asarray(vectors, dtype=float)
    if pts.ndim != 2:
        pts = pts.reshape(len(pts), -1)
    if np.isnan(pts).any():
        raise ValueError(f"row {np.isnan(pts).any(axis=1).argmax()} has a NaN")
    if len(pts) == 0:
        return (pts, []) if return_refs else pts
    # the row of least coordinate sum usually dominates most rows; a strictly
    # dominated row is never on the front nor equal to a front row, so it can
    # go before the sort, and the survivors keep their ascending indices
    # (column by column: reducing along a short axis 1 is several times slower)
    cols = pts.T
    with np.errstate(invalid="ignore"):
        # inf + -inf sums to NaN and argmin picks it: any row is a sound anchor
        anchor = pts[sum(cols).argmin()]
    no_worse = np.logical_and.reduce([c >= a for c, a in zip(cols, anchor)])
    worse = np.logical_or.reduce([c > a for c, a in zip(cols, anchor)])
    rows = np.flatnonzero(~(no_worse & worse))
    # stable lexsort on (first coord, then second, ...): no row can strictly
    # dominate an earlier one, and equal rows form runs of ascending indices
    order = rows[np.lexsort(pts[rows].T[::-1])]
    srt = pts[order]
    new = np.ones(len(srt), dtype=bool)
    new[1:] = np.any(srt[1:] != srt[:-1], axis=1)
    starts = np.flatnonzero(new)
    distinct = srt[starts]
    if pts.shape[1] == 2:
        second = distinct[:, 1]
        keep = np.ones(len(distinct), dtype=bool)
        keep[1:] = second[1:] < np.minimum.accumulate(second)[:-1]
        idx = np.flatnonzero(keep)
    else:
        idx = _find_front(distinct)
    front = distinct[idx]
    if not return_refs:
        return front
    stops = np.append(starts[1:], len(srt))
    return front, [order[starts[k] : stops[k]] for k in idx]


@dataclass(frozen=True)
class FrontPoint:
    """A nondominated objective vector plus the atlas cells achieving it."""

    objective: tuple[float, ...]
    cell_refs: tuple[int, ...]


@dataclass(frozen=True)
class ParetoResult:
    """A front, and the ``lo``/``hi`` rows of its cells' boxes (its set).

    The rows hold one box per ref, in front order: the refs of the first
    point, then those of the second, and so on.
    """

    front: tuple[FrontPoint, ...]
    los: np.ndarray = field(compare=False, repr=False)
    his: np.ndarray = field(compare=False, repr=False)


def pf_ps(atlas) -> ParetoResult:
    """Front of an image atlas, with the cells behind each front point.

    Every cell whose value equals a front objective is among that point's
    ``cell_refs``, so the boxes of the refs are the full preimage of the
    front.  The boxes are copied, so the result keeps nothing of the atlas.
    """
    vals, refs = kung_front(atlas.alphas, return_refs=True)
    points = (FrontPoint(tuple(v), tuple(int(r) for r in rs)) for v, rs in zip(vals, refs))
    rows = np.concatenate([np.empty(0, dtype=np.intp), *refs])
    return ParetoResult(tuple(points), atlas.los[rows], atlas.his[rows])
