"""Reference implementations that tests compare the package against."""

import enum
import json
from typing import Iterable, Optional

import numpy as np

from treefront import CPF, ImageAtlas
from treefront.trees import Domain, Ensemble, Hyperrectangle, tree_leaf_regions


def intersect_boxes(a: Hyperrectangle, b: Hyperrectangle) -> Optional[Hyperrectangle]:
    """Componentwise intersection; None when empty under the half-open rule."""
    if a.p != b.p:
        raise ValueError(f"dimension mismatch: {a.p} vs {b.p}")
    lo = tuple(max(x, y) for x, y in zip(a.lo, b.lo))
    hi = tuple(min(x, y) for x, y in zip(a.hi, b.hi))
    if any(l >= h for l, h in zip(lo, hi)):
        return None
    return Hyperrectangle(lo, hi)


class Dominance(enum.Enum):
    NONE = 0
    WEAK = 1
    STRICT = 2


def dominates(v, w) -> Dominance:
    """Relation of v over w: WEAK if v <= w everywhere, STRICT if also < somewhere."""
    v = np.asarray(v, dtype=float)
    w = np.asarray(w, dtype=float)
    if v.shape != w.shape:
        raise ValueError(f"length mismatch: {v.shape} vs {w.shape}")
    if not np.all(v <= w):
        return Dominance.NONE
    if np.any(v < w):
        return Dominance.STRICT
    return Dominance.WEAK


def dpsc_contains(cpf: CPF, y) -> bool:
    """Whether y lies in the closed dominated region of the CPF."""
    y = np.asarray(y, dtype=float)
    pts = cpf.objectives()
    if pts.size == 0:
        return False
    return bool(np.any(np.all(pts <= y, axis=1)))


def leaf_box_fold(ensembles: tuple[Ensemble, ...], domain: Domain):
    """The atlas fold by intersecting every cell with every leaf box.

    Returns (sums, los, his) in the layout of treefront.atlas._fold, which
    must match it byte for byte: same cells, same order, same float sums.
    """
    p = domain.p
    d = len(ensembles)
    los = domain.lo.reshape(1, p)
    his = domain.hi.reshape(1, p)
    sums = np.zeros((1, d))
    for j, ens in enumerate(ensembles):
        for tree in ens.trees:
            regions = tree_leaf_regions(tree, domain)
            new_lo, new_hi, new_sum = [], [], []
            for box, mu in regions:
                lo = np.maximum(los, np.array(box.lo))
                hi = np.minimum(his, np.array(box.hi))
                keep = np.all(lo < hi, axis=1)
                if not np.any(keep):
                    continue
                s = sums[keep].copy()
                s[:, j] += mu
                new_lo.append(lo[keep])
                new_hi.append(hi[keep])
                new_sum.append(s)
            los = np.vstack(new_lo)
            his = np.vstack(new_hi)
            sums = np.vstack(new_sum)
    return sums, los, his


def dict_atlas_writer(path, entries: Iterable[tuple[int, ImageAtlas, Optional[CPF]]]) -> None:
    """The atlas file writer that builds each record as Python dicts and lists.

    treefront.fileio.write_atlas_file must write the same bytes.
    """
    with open(path, "w", newline="\n") as fh:
        for draw_index, atlas, cpf in entries:
            # tolist() yields Python floats, which json writes with the same
            # repr as the numpy floats they come from
            rec = {
                "draw_index": draw_index,
                "cells": [
                    {"alpha": alpha, "box": {"lo": lo, "hi": hi}}
                    for alpha, lo, hi in zip(atlas.alphas.tolist(), atlas.los.tolist(),
                                             atlas.his.tolist())
                ],
            }
            if cpf is not None:
                rec["front"] = [
                    {"objective": list(fp.objective), "cell_refs": list(fp.cell_refs)}
                    for fp in cpf.points
                ]
                rec["set_boxes"] = [
                    {"lo": atlas.los[r].tolist(), "hi": atlas.his[r].tolist()}
                    for fp in cpf.points for r in fp.cell_refs
                ]
            fh.write(json.dumps(rec) + "\n")
            del atlas, rec  # before the next entry is built
