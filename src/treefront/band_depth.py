"""Band depth for two-dimensional posterior fronts.

The dominated region of a front is bounded below-left by a staircase; a
front sits in the band of two others when its region is wedged between
their intersection and union.  Exact band depth tests that set relation
directly via staircase heights at every breakpoint.  The modified variant
relaxes containment to a fixed grid of axis-aligned cut lines and averages,
per cut, the fraction of front pairs whose heights sandwich the target's
height; ranks turn that count into an O(N log N)-per-cut computation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .random_sets import CPF, CloudPoint, PFCloud


class Staircase:
    """Lower-left boundary of the region weakly dominated by a point set.

    Queries along either axis run in O(log n): h(axis=1, t) is the least
    second coordinate attainable at first coordinate t, +inf when the cut
    misses the region entirely.
    """

    def __init__(self, points):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.shape[1] != 2:
            raise ValueError("staircases are defined for two objectives only")
        order1 = np.lexsort((pts[:, 1], pts[:, 0]))
        self._x1 = pts[order1, 0]
        self._min2 = np.minimum.accumulate(pts[order1, 1])
        order2 = np.lexsort((pts[:, 0], pts[:, 1]))
        self._x2 = pts[order2, 1]
        self._min1 = np.minimum.accumulate(pts[order2, 0])

    @staticmethod
    def from_cpf(cpf: CPF) -> "Staircase":
        return Staircase(cpf.objectives())

    @property
    def breaks1(self) -> np.ndarray:
        return self._x1

    @property
    def breaks2(self) -> np.ndarray:
        return self._x2

    def h(self, axis: int, values) -> np.ndarray:
        """Boundary height at each cut value; +inf where undefined."""
        values = np.atleast_1d(np.asarray(values, dtype=float))
        if axis == 1:
            keys, mins = self._x1, self._min2
        elif axis == 2:
            keys, mins = self._x2, self._min1
        else:
            raise ValueError("axis must be 1 or 2")
        idx = np.searchsorted(keys, values, side="right") - 1
        out = np.full(len(values), np.inf)
        valid = idx >= 0
        out[valid] = mins[idx[valid]]
        return out


def h_cut(stair: Staircase, axis: int, value: float) -> float:
    """Scalar staircase height along one cut line."""
    return float(stair.h(axis, [value])[0])


def band_contains(ci: CPF, cj: CPF, ck: CPF) -> bool:
    """Exact test that ci's region sits between cj,ck's intersection and union.

    The three boundary heights are step functions with jumps only at front
    point coordinates, so checking every breakpoint along both axes decides
    the set relation exactly; +inf heights compare as largest.
    """
    for c in (ci, cj, ck):
        if c.objectives().shape[1] != 2:
            raise ValueError("band containment implemented for two objectives only")
    si, sj, sk = Staircase.from_cpf(ci), Staircase.from_cpf(cj), Staircase.from_cpf(ck)
    for axis in (1, 2):
        cuts = np.concatenate(
            [
                s.breaks1 if axis == 1 else s.breaks2
                for s in (si, sj, sk)
            ]
        )
        cuts = np.unique(cuts)
        hi_ = si.h(axis, cuts)
        hj_ = sj.h(axis, cuts)
        hk_ = sk.h(axis, cuts)
        lo_band = np.minimum(hj_, hk_)
        hi_band = np.maximum(hj_, hk_)
        if np.any(hi_ < lo_band) or np.any(hi_ > hi_band):
            return False
    return True


@dataclass(frozen=True)
class DepthResult:
    """Depths per front plus the descending-depth order (ties: lower draw)."""

    depths: np.ndarray
    ranking: np.ndarray


def _rank_descending(depths: np.ndarray, cpfs: Sequence[CPF]) -> np.ndarray:
    keys = sorted(range(len(cpfs)), key=lambda i: (-depths[i], cpfs[i].draw_index, i))
    return np.array(keys, dtype=int)


def band_depth(cpfs: Sequence[CPF]) -> DepthResult:
    """Fraction of front pairs whose band contains each front (exact test)."""
    n = len(cpfs)
    if n < 2:
        raise ValueError("need at least two fronts")
    pairs = n * (n - 1) // 2
    depths = np.zeros(n)
    for i, ci in enumerate(cpfs):
        count = 0
        for j in range(n - 1):
            for k in range(j + 1, n):
                if band_contains(ci, cpfs[j], cpfs[k]):
                    count += 1
        depths[i] = count / pairs
    return DepthResult(depths, _rank_descending(depths, cpfs))


def modified_band_depth(cpfs: Sequence[CPF], q: int = 201) -> DepthResult:
    """Cut-line band depth averaged over q lines per output axis.

    Per cut line, each front is scored by its boundary-height rank: with
    r_max the count of heights <= own and r_min the competition rank, the
    pair count is r_max*(N - r_min + 1) - (r_max - r_min + 1)^2, normalized
    by the number of unordered front pairs.  Ties (including +inf heights)
    share min/max ranks, which keeps the count identity exact for repeated
    heights.
    """
    n = len(cpfs)
    if n < 2:
        raise ValueError("need at least two fronts")
    if q < 2:
        raise ValueError("need at least two cut lines")
    stairs = [Staircase.from_cpf(c) for c in cpfs]
    all_pts = np.vstack([c.objectives() for c in cpfs])
    t = np.linspace(all_pts[:, 0].min(), all_pts[:, 0].max(), q)
    s = np.linspace(all_pts[:, 1].min(), all_pts[:, 1].max(), q)
    M = np.empty((2 * q, n))
    for j, st in enumerate(stairs):
        M[:q, j] = st.h(1, t)
        M[q:, j] = st.h(2, s)

    r_min = np.empty_like(M, dtype=int)
    r_max = np.empty_like(M, dtype=int)
    for i in range(2 * q):
        row = M[i]
        srt = np.sort(row)
        r_min[i] = np.searchsorted(srt, row, side="left") + 1
        r_max[i] = np.searchsorted(srt, row, side="right")

    pairs = n * (n - 1) // 2
    T = (r_max * (n - r_min + 1) - (r_max - r_min + 1) ** 2) / pairs
    depths = T.mean(axis=0)
    return DepthResult(depths, _rank_descending(depths, cpfs))


def pf_cloud_mbd(cpfs: Sequence[CPF], depths: DepthResult, alpha_mbd: float) -> PFCloud:
    """Union of the ceil(alpha * N) deepest fronts, annotated by depth rank."""
    if not 0.0 < alpha_mbd < 1.0:
        raise ValueError("alpha_mbd must be in (0, 1)")
    n = len(cpfs)
    if len(depths.depths) != n:
        raise ValueError("depth result does not match the front sample")
    n_keep = math.ceil(alpha_mbd * n)
    points = []
    for rank_pos, idx in enumerate(depths.ranking[:n_keep], start=1):
        cpf = cpfs[int(idx)]
        for fp in cpf.points:
            points.append(
                CloudPoint(fp.objective, cpf.draw_index, fp.cell_refs, depth_rank=rank_pos)
            )
    return PFCloud(tuple(points))
