"""Attainment-based uncertainty quantification over posterior fronts.

Each posterior draw yields a conditional Pareto front (CPF); the closure of
the region its points weakly dominate is one realization of a random closed
set.  The empirical attainment function counts how many realizations
contain a query point, and the point cloud keeps CPF points whose
attainment sits in a central band.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .pareto import FrontPoint, ParetoResult
from .trees import Hyperrectangle


class CellRefError(LookupError):
    """A cloud point references a cell that is not behind its draw's front."""


@dataclass(frozen=True)
class CPF:
    """Conditional Pareto front of one posterior draw, with its set boxes.

    ``los``/``his`` hold one box row per cell ref, in front order, as
    ``pf_ps`` copies them from the atlas; a CPF built from bare objectives
    has no refs and no rows.
    """

    draw_index: int
    points: tuple[FrontPoint, ...]
    los: np.ndarray = field(default_factory=lambda: np.empty((0, 0)), compare=False, repr=False)
    his: np.ndarray = field(default_factory=lambda: np.empty((0, 0)), compare=False, repr=False)

    @property
    def n_i(self) -> int:
        return len(self.points)

    def objectives(self) -> np.ndarray:
        return np.array([p.objective for p in self.points])

    @cached_property
    def _rows(self) -> dict[int, int]:
        refs = (r for fp in self.points for r in fp.cell_refs)
        return {r: k for k, r in enumerate(refs)}

    def box(self, ref: int) -> Hyperrectangle:
        """Box of front cell ``ref``, new on every call, as ``ImageAtlas.box`` builds one."""
        try:
            k = self._rows[ref]
        except KeyError:
            raise CellRefError(f"cell {ref} is not a front cell") from None
        return Hyperrectangle(tuple(self.los[k]), tuple(self.his[k]))

    @staticmethod
    def from_result(draw_index: int, result: ParetoResult) -> "CPF":
        return CPF(draw_index, result.front, result.los, result.his)

    @staticmethod
    def from_points(draw_index: int, objectives) -> "CPF":
        """CPF from bare objective vectors (no preimage bookkeeping)."""
        pts = tuple(FrontPoint(tuple(map(float, row)), ()) for row in np.atleast_2d(objectives))
        return CPF(draw_index, pts)


@dataclass(frozen=True)
class ObjectiveBox:
    """Smallest box containing a set of objective points."""

    bounds: tuple[tuple[float, float], ...]

    @staticmethod
    def from_points(points) -> "ObjectiveBox":
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return ObjectiveBox(tuple((float(lo), float(hi)) for lo, hi in zip(pts.min(0), pts.max(0))))

    @property
    def d(self) -> int:
        return len(self.bounds)


@dataclass(frozen=True)
class CloudPoint:
    objective: tuple[float, ...]
    draw_index: int
    cell_refs: tuple[int, ...]
    eaf: Optional[float] = None
    depth_rank: Optional[int] = None


@dataclass(frozen=True)
class PFCloud:
    points: tuple[CloudPoint, ...]

    def objectives(self) -> np.ndarray:
        if not self.points:
            return np.empty((0, 0))
        return np.array([p.objective for p in self.points])

    def __len__(self) -> int:
        return len(self.points)


@dataclass(frozen=True)
class SourcedBox:
    box: Hyperrectangle
    draw_index: int


@dataclass(frozen=True)
class PSCloud:
    boxes: tuple[SourcedBox, ...]

    def __len__(self) -> int:
        return len(self.boxes)


def eaf(cpfs: Sequence[CPF], y) -> float:
    """Fraction of the CPFs whose dominated region contains y."""
    if len(cpfs) == 0:
        raise ValueError("need at least one CPF")
    return float(_eaf_batch(cpfs, np.asarray(y, dtype=float)[None])[0])


def _eaf_batch(cpfs: Sequence[CPF], queries: np.ndarray) -> np.ndarray:
    """EAF at many query points at once."""
    counts = np.zeros(len(queries))
    for c in cpfs:
        pts = c.objectives()
        if pts.size == 0:
            continue
        # point q is attained iff some CPF point is <= q componentwise
        contained = np.zeros(len(queries), dtype=bool)
        for p in pts:
            contained |= np.all(queries >= p, axis=1)
        counts += contained
    return counts / len(cpfs)


def require_rs_band(n: int, alpha_rs: float) -> None:
    """Raise ValueError unless some attainment k/n lies in the RS band.

    Attainments over n draws are k/n, computed and banded as in pf_cloud_rs;
    with none in the band every RS cloud is empty.
    """
    lo, hi = 0.5 - alpha_rs / 2.0, 0.5 + alpha_rs / 2.0
    att = np.arange(1, n + 1) / n
    if not np.any((lo <= att) & (att <= hi)):
        raise ValueError(f"n_draws={n} with alpha_rs={alpha_rs}: "
                         f"no attainment k/{n} lies in the RS band [{lo}, {hi}]")


def pf_cloud_rs(cpfs: Sequence[CPF], alpha_rs: float) -> PFCloud:
    """CPF points whose empirical attainment lies in the central band.

    The band [0.5 - alpha/2, 0.5 + alpha/2] is closed at both ends, which
    keeps the alpha -> 1 limit meaningful.
    """
    if not 0.0 < alpha_rs < 1.0:
        raise ValueError("alpha_rs must be in (0, 1)")
    lo = 0.5 - alpha_rs / 2.0
    hi = 0.5 + alpha_rs / 2.0
    all_points = [(c, fp) for c in cpfs for fp in c.points]
    if not all_points:
        return PFCloud(())
    queries = np.array([fp.objective for _, fp in all_points])
    values = _eaf_batch(cpfs, queries)
    kept = []
    for (c, fp), val in zip(all_points, values):
        if lo <= val <= hi:
            kept.append(CloudPoint(fp.objective, c.draw_index, fp.cell_refs, eaf=float(val)))
    return PFCloud(tuple(kept))


def ps_cloud(cloud: PFCloud, cpfs: Sequence[CPF]) -> PSCloud:
    """Union of the set boxes behind every cloud point, read from its draw's CPF."""
    by_draw = {c.draw_index: c for c in cpfs}
    boxes = []
    for pt in cloud.points:
        try:
            cpf = by_draw[pt.draw_index]
        except KeyError:
            raise CellRefError(f"no front for draw {pt.draw_index}") from None
        boxes += [SourcedBox(cpf.box(ref), pt.draw_index) for ref in pt.cell_refs]
    return PSCloud(tuple(boxes))
