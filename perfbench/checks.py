"""Output checks written apart from the code they check.

Each function takes plain arrays and returns a list of failure messages; an
empty list means the check passed.  Fronts come from a sort and running
minimum sweep, attainment from a brute-force recount, distances from a full
pairwise computation: none of them calls into treefront.
"""

from __future__ import annotations

import math

import numpy as np

REL = 1e-9
MAX_MESSAGES = 5


def close(a, b) -> bool:
    """Equal to within REL relative to max(1, |b|)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return bool(np.all(np.abs(a - b) <= REL * np.maximum(1.0, np.abs(b))))


def front_2d(values) -> np.ndarray:
    """Nondominated distinct rows of an (n, 2) array.

    Rows sorted by (first, second); the least second coordinate of each
    distinct first coordinate survives when it is below the running minimum
    of the second coordinate over all smaller first coordinates.
    """
    v = np.unique(np.asarray(values, dtype=float).reshape(-1, 2), axis=0)
    if len(v) == 0:
        return v
    first = np.ones(len(v), dtype=bool)
    first[1:] = v[1:, 0] != v[:-1, 0]
    g = v[first]
    before = np.minimum.accumulate(np.concatenate([[np.inf], g[:-1, 1]]))
    return g[g[:, 1] < before]


def _rows(a) -> list[tuple]:
    return sorted(map(tuple, np.asarray(a, dtype=float).reshape(len(a), -1).tolist()))


def latin(design) -> list[str]:
    """Every column of an n-point design has one point in each of n strata."""
    design = np.asarray(design, dtype=float)
    n = len(design)
    out = []
    for j in range(design.shape[1]):
        strata = np.floor(design[:, j] * n).astype(int)
        if not np.array_equal(np.sort(strata), np.arange(n)):
            out.append(f"design column {j} is not a Latin hypercube column")
    return out


def containing_cell(los, his, dom_hi, x) -> np.ndarray:
    """Indices of the cells whose half-open box holds x (closed at the domain's upper edge)."""
    upper = (x < his) | ((his >= dom_hi) & (x <= his))
    return np.nonzero(np.all((x >= los) & upper, axis=1))[0]


def atlas_cells(alphas, los, his, dom_lo, dom_hi, inputs, evaluate) -> list[str]:
    """Cell volumes sum to the domain volume, and each input's cell value is
    the ensemble's value there (`evaluate` walks the trees)."""
    out = []
    volume = float(np.prod(np.asarray(dom_hi) - np.asarray(dom_lo)))
    total = float(np.prod(his - los, axis=1).sum())
    if not abs(total - volume) <= REL * volume:
        out.append(f"cell volumes sum to {total!r}, domain volume is {volume!r}")
    for x in inputs:
        hits = containing_cell(los, his, dom_hi, x)
        if len(hits) != 1:
            out.append(f"input {x.tolist()} lies in {len(hits)} cells")
        elif not close(alphas[hits[0]], evaluate(x)):
            out.append(f"cell value {alphas[hits[0]].tolist()} at {x.tolist()} "
                       f"differs from the tree walk {np.asarray(evaluate(x)).tolist()}")
        if len(out) >= MAX_MESSAGES:
            break
    return out


def front_and_refs(alphas, objectives, refs) -> list[str]:
    """The reported front equals the sweep's front over the cell values, and
    each point's cell references are exactly the cells holding that value."""
    expected = front_2d(alphas)
    got = np.asarray(objectives, dtype=float).reshape(-1, 2)
    if _rows(got) != _rows(expected):
        return [f"front of {len(got)} points differs from the sweep's {len(expected)} points"]
    out = []
    for obj, ref in zip(got, refs):
        want = np.nonzero(np.all(alphas == obj, axis=1))[0].tolist()
        if sorted(ref) != want:
            out.append(f"front point {obj.tolist()} refers to cells {sorted(ref)}, value held by {want}")
            if len(out) >= MAX_MESSAGES:
                break
    return out


def attainment(fronts: dict, points: np.ndarray) -> np.ndarray:
    """Share of the fronts with a point weakly below each query, by brute force."""
    counts = np.zeros(len(points))
    for front in fronts.values():
        hit = np.zeros(len(points), dtype=bool)
        for f in front:
            hit |= np.all(points >= f, axis=1)
        counts += hit
    return counts / len(fronts)


def rs_cloud(fronts: dict, alpha: float, cloud) -> list[str]:
    """The RS cloud holds exactly the front points whose recounted attainment
    lies in the closed band [0.5 - alpha/2, 0.5 + alpha/2], with that value.

    cloud: iterable of (draw_index, objective, eaf).
    """
    draws = [i for i, f in fronts.items() for _ in range(len(f))]
    pts = np.vstack([f for f in fronts.values()])
    att = attainment(fronts, pts)
    lo, hi = 0.5 - alpha / 2.0, 0.5 + alpha / 2.0
    keep = (att >= lo) & (att <= hi)
    expected = sorted((draws[k], *pts[k].tolist(), float(att[k])) for k in np.nonzero(keep)[0])
    got = sorted((int(i), *map(float, obj), float(e)) for i, obj, e in cloud)
    if len(got) != len(expected):
        return [f"RS cloud has {len(got)} points, the band holds {len(expected)}"]
    for g, e in zip(got, expected):
        if g[:3] != e[:3] or not abs(g[3] - e[3]) <= 1e-12:
            return [f"RS cloud point {g} differs from recount {e}"]
    return []


def mbd_cloud(fronts: dict, alpha: float, cloud) -> list[str]:
    """The MBD cloud is exactly ceil(alpha N) whole fronts, one depth rank each.

    cloud: iterable of (draw_index, objective, depth_rank).
    """
    want = math.ceil(alpha * len(fronts))
    groups: dict[int, list] = {}
    ranks: dict[int, set] = {}
    for i, obj, rank in cloud:
        groups.setdefault(int(i), []).append(tuple(map(float, obj)))
        ranks.setdefault(int(i), set()).add(int(rank))
    out = []
    if len(groups) != want:
        out.append(f"MBD cloud holds {len(groups)} fronts, expected ceil({alpha} * {len(fronts)}) = {want}")
    for i, pts in groups.items():
        if i not in fronts or sorted(pts) != _rows(fronts[i]):
            out.append(f"MBD cloud part from draw {i} is not that draw's whole front")
    all_ranks = sorted(r for rs in ranks.values() for r in rs)
    if any(len(rs) != 1 for rs in ranks.values()) or all_ranks != list(range(1, len(groups) + 1)):
        out.append("MBD depth ranks are not one distinct rank 1..k per front")
    return out[:MAX_MESSAGES]


def ps_boxes(boxes, expected, dom_lo, dom_hi) -> list[str]:
    """Set boxes lie inside the domain and are the boxes of the cells behind
    the cloud points.  boxes, expected: iterables of (draw_index, lo, hi)."""
    out = []
    dom_lo = np.asarray(dom_lo, dtype=float)
    dom_hi = np.asarray(dom_hi, dtype=float)
    rows = []
    for i, lo, hi in boxes:
        lo = np.asarray(lo, dtype=float)
        hi = np.asarray(hi, dtype=float)
        if not (np.all(lo >= dom_lo) and np.all(hi <= dom_hi) and np.all(lo < hi)):
            out.append(f"box {lo.tolist()}-{hi.tolist()} of draw {i} is not inside the domain")
            if len(out) >= MAX_MESSAGES:
                return out
        rows.append((int(i), *lo.tolist(), *hi.tolist()))
    want = sorted((int(i), *map(float, lo), *map(float, hi)) for i, lo, hi in expected)
    if sorted(rows) != want:
        out.append(f"{len(rows)} set boxes differ from the {len(want)} boxes of the referenced cells")
    return out


def coverage(cloud, truth) -> tuple[float, float]:
    """(mean distance from cloud to truth, mean distance from truth to cloud)."""
    a = np.asarray(cloud, dtype=float)
    b = np.asarray(truth, dtype=float)

    def directed(x, y):
        total = 0.0
        for k in range(0, len(x), 256):
            d2 = ((x[k:k + 256, None, :] - y[None, :, :]) ** 2).sum(axis=2)
            total += float(np.sqrt(d2.min(axis=1)).sum())
        return total / len(x)

    return directed(a, b), directed(b, a)


def coverage_matches(label, reported, recomputed, limit=None) -> list[str]:
    """Reported (over, under) equal the recomputation, and both are below limit."""
    out = []
    if not close(reported, recomputed):
        out.append(f"{label}: reported coverage {tuple(map(float, reported))} != recomputed {tuple(recomputed)}")
    if limit is not None and not max(recomputed) < limit:
        out.append(f"{label}: coverage {tuple(recomputed)} not below {limit}")
    return out
