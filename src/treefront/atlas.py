"""Exact finite image of tree ensembles as (value, box) cells.

A sum of trees is piecewise constant, so a multi-output ensemble attains
finitely many values; each value is attained on an axis-aligned box and the
boxes partition the domain.  Cells are built by folding trees in one at a
time: the current cells are routed down the tree's splits, and each leaf
keeps the cells whose boxes meet its own, clipped to it.  A cell reaches
only the leaves it meets, so no empty intersection is ever formed, and the
cell count stays at the number of realizable regions instead of the full
product over leaves.

Cells with coincident values but different boxes stay distinct, so preimage
queries can return every box mapping to a given image point.
"""

from __future__ import annotations

import numpy as np

from .trees import Domain, Ensemble, Hyperrectangle, Leaf, MultiEnsemble, Node


class ImageAtlas:
    """Array-backed list of image cells of a multi-output ensemble."""

    def __init__(self, alphas: np.ndarray, los: np.ndarray, his: np.ndarray, domain: Domain):
        self._alphas = np.asarray(alphas, dtype=float)
        self._los = np.asarray(los, dtype=float)
        self._his = np.asarray(his, dtype=float)
        if not (len(self._alphas) == len(self._los) == len(self._his)):
            raise ValueError("cell arrays disagree in length")
        self.domain = domain

    @property
    def alphas(self) -> np.ndarray:
        """(n_cells, d) array of image values, raw units."""
        return self._alphas

    @property
    def los(self) -> np.ndarray:
        """(n_cells, p) array of the cells' lower box corners."""
        return self._los

    @property
    def his(self) -> np.ndarray:
        """(n_cells, p) array of the cells' upper box corners."""
        return self._his

    @property
    def d(self) -> int:
        return self._alphas.shape[1]

    def __len__(self) -> int:
        return len(self._alphas)

    def box(self, i: int) -> Hyperrectangle:
        return Hyperrectangle(tuple(self._los[i]), tuple(self._his[i]))

    def total_volume(self) -> float:
        return float(np.prod(self._his - self._los, axis=1).sum())

    def contains_point_index(self, x) -> int:
        """Index of the unique cell whose box contains x; -1 if none."""
        x = np.asarray(x, dtype=float)
        dom_hi = self.domain.hi
        below = (x >= self._los)
        above = (x < self._his) | ((self._his >= dom_hi) & (x <= self._his))
        hits = np.nonzero(np.all(below & above, axis=1))[0]
        if len(hits) == 0:
            return -1
        if len(hits) > 1:
            raise AssertionError(f"point {x} in {len(hits)} cells; partition broken")
        return int(hits[0])

    def with_alphas(self, alphas: np.ndarray) -> "ImageAtlas":
        """Same partition, new values (e.g. after a monotone output transform)."""
        alphas = np.asarray(alphas, dtype=float)
        if alphas.shape != self._alphas.shape:
            raise ValueError("replacement alphas have wrong shape")
        return ImageAtlas(alphas, self._los, self._his, self.domain)


def _route(node: Node, cells: np.ndarray, rows: np.ndarray, p: int, clips: dict,
           out: list) -> None:
    """Append to out, for each leaf under node in left-to-right order, the
    given rows of cells whose boxes meet the leaf's box, the columns to clip
    them on, and the leaf value.

    A cell row packs lo | hi | sums.  At a split (v, c) a row goes left when
    its lo[v] < c and right when its hi[v] > c, which is exactly when its box
    meets that side; rows stay ascending on both sides.  clips maps each lo
    or hi column that a cut on the path bounds to the path's tightest cut on
    it.  Every other column already lies inside the leaf's box, since cells
    lie inside the domain, so clipping it would change nothing.
    """
    if not len(rows):
        return
    if isinstance(node, Leaf):
        out.append((rows, clips, node.mu))
        return
    v, cut = node.var, node.cut
    # a valid tree's cut lies strictly inside the path's box, so it is the tightest bound
    _route(node.left, cells, rows[cells[rows, v] < cut], p, {**clips, p + v: cut}, out)
    _route(node.right, cells, rows[cells[rows, p + v] > cut], p, {**clips, v: cut}, out)


def _fold(ensembles: tuple[Ensemble, ...], domain: Domain):
    """Refine the domain against every tree of every ensemble.

    Each tree routes the current cells to its leaves (see _route).  The next
    cells are each leaf's rows, clipped to its box and with its value added,
    leaf after leaf from left to right.  Returns (sums, los, his) where
    sums[:, j] accumulates ensemble j's leaf values in tree order, still in
    scaled units.  The trees were validated when their ensembles were built.
    """
    p = domain.p
    width = 2 * p + len(ensembles)
    # rows are gathered as opaque fixed-size records, which numpy copies about
    # twice as fast as it fancy-indexes the rows of a float matrix; the bytes
    # are the same
    record = np.dtype((np.void, 8 * width))
    cells = np.concatenate([domain.lo, domain.hi, np.zeros(len(ensembles))]).reshape(1, width)
    for j, ens in enumerate(ensembles):
        for tree in ens.trees:
            leaves: list = []
            _route(tree.root, cells, np.arange(len(cells)), p, {}, leaves)
            order = np.concatenate([rows for rows, _, _ in leaves])
            cells = cells.view(record)[order, 0].view(np.float64).reshape(-1, width)
            at = 0
            for rows, clips, mu in leaves:
                block = cells[at:at + len(rows)]
                for c, cut in clips.items():
                    clip = np.maximum if c < p else np.minimum
                    clip(block[:, c], cut, out=block[:, c])
                block[:, 2 * p + j] += mu
                at += len(rows)
    return cells[:, 2 * p:].copy(), cells[:, :p].copy(), cells[:, p:2 * p].copy()


def multi_cells(me: MultiEnsemble) -> ImageAtlas:
    """Image atlas of a multi-output ensemble.

    Values are un-transformed to raw units once per cell, after all leaf
    sums are accumulated in scaled units.
    """
    sums, los, his = _fold(me.outputs, me.domain)
    alphas = np.empty_like(sums)
    for j, ens in enumerate(me.outputs):
        alphas[:, j] = ens.transform.to_raw(sums[:, j])
    return ImageAtlas(alphas, los, his, me.domain)
