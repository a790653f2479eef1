"""File formats: JSON-lines draw/atlas files and CSV tables.

Floats are written with their shortest round-trip repr, so rereading a file
recovers bitwise-identical values and rerunning a seeded command rewrites
byte-identical output.
"""

from __future__ import annotations

import csv
import json
import math
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .atlas import ImageAtlas
from .random_sets import CPF, PFCloud, PSCloud
from .sampler import PosteriorDraw
from .trees import (
    Domain,
    MultiEnsemble,
    domain_to_dict,
    ensemble_from_dict,
    ensemble_to_dict,
)


def write_draws(path, draws: Sequence[PosteriorDraw]) -> None:
    """One posterior draw per line: error variances plus the full ensembles."""
    with open(path, "w", newline="\n") as fh:
        for i, draw in enumerate(draws):
            rec = {
                "draw_index": i,
                "sigma2": list(map(float, draw.sigma2)),
                "domain": domain_to_dict(draw.me.domain),
                "outputs": [ensemble_to_dict(e) for e in draw.me.outputs],
            }
            fh.write(json.dumps(rec) + "\n")


def _read_records(path, build) -> Iterator:
    """``(line number, build(record))`` for each record of a JSON-lines file.

    A generator: each record is built when the caller asks for it.  Bad
    JSON, a missing field or a record that ``build`` rejects fails as
    ``<file>: line N: <reason>``, and a file with no records as
    ``<file>: no records``.
    """
    found = False
    with open(path) as fh:
        for n, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                value = build(json.loads(line))
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}: line {n}: {exc.msg} at column {exc.colno}") from None
            except KeyError as exc:
                raise ValueError(f"{path}: line {n}: missing field {exc}") from None
            except (TypeError, ValueError) as exc:
                raise ValueError(f"{path}: line {n}: {exc}") from None
            found = True
            yield n, value
            del value  # before the next record is built
    if not found:
        raise ValueError(f"{path}: no records")


def _draw_from_record(rec: dict) -> PosteriorDraw:
    ensembles = tuple(ensemble_from_dict(e) for e in rec["outputs"])
    return PosteriorDraw(MultiEnsemble(ensembles), np.array(rec["sigma2"]))


def read_draws(path) -> list[PosteriorDraw]:
    return [draw for _, draw in _read_records(path, _draw_from_record)]


def _cells_json(atlas: ImageAtlas) -> str:
    """The cell list of an atlas record, as ``json.dumps`` spells it.

    Box coordinates come from a few cuts per variable and values repeat
    across cells, so each distinct float is spelled once, by json itself,
    and one ``%s`` template per cell places the spellings.  Distinct means
    distinct bit pattern, which keeps ``-0.0`` apart from ``0.0``.
    """
    n, d = atlas.alphas.shape
    p = atlas.los.shape[1]
    block = np.hstack([atlas.alphas, atlas.los, atlas.his])
    bits, inverse = np.unique(block.view(np.int64).ravel(), return_inverse=True)
    # json spells NaN, Infinity and every finite float exactly as in a record
    words = json.dumps(bits.view(np.float64).tolist())[1:-1].split(", ")
    cell = '{"alpha": [%s], "box": {"lo": [%s], "hi": [%s]}}' % (
        ", ".join(["%s"] * d), ", ".join(["%s"] * p), ", ".join(["%s"] * p))
    return "[%s]" % ", ".join([cell] * n) % tuple(np.array(words, dtype=object)[inverse])


def write_atlas_file(path, entries: Iterable[tuple[int, ImageAtlas, Optional[CPF]]]) -> None:
    """One line per draw: its cells, optionally its front points and set boxes.

    The set boxes are the boxes of the front points' cells, in front order.
    Each line is written as soon as its entry arrives, so a generator of
    entries is never held whole.  A line has the bytes ``json.dumps`` gives
    the record ``{"draw_index", "cells": [{"alpha", "box": {"lo", "hi"}}],
    "front", "set_boxes"}``.
    """
    with open(path, "w", newline="\n") as fh:
        for draw_index, atlas, cpf in entries:
            line = '{"draw_index": %s, "cells": %s' % (json.dumps(draw_index), _cells_json(atlas))
            if cpf is not None:
                front = [
                    {"objective": list(fp.objective), "cell_refs": list(fp.cell_refs)}
                    for fp in cpf.points
                ]
                set_boxes = [{"lo": lo, "hi": hi}
                             for lo, hi in zip(cpf.los.tolist(), cpf.his.tolist())]
                line += ', "front": %s, "set_boxes": %s' % (json.dumps(front),
                                                           json.dumps(set_boxes))
            fh.write(line + "}\n")
            del atlas, line  # before the next entry is built


def _atlas_from_record(rec: dict) -> tuple[int, ImageAtlas]:
    cells = rec["cells"]
    if not cells:
        raise ValueError("record has no cells")
    alphas = np.array([c["alpha"] for c in cells], dtype=float)
    los = np.array([c["box"]["lo"] for c in cells], dtype=float)
    his = np.array([c["box"]["hi"] for c in cells], dtype=float)
    domain = Domain(tuple(zip(los.min(axis=0), his.max(axis=0))))
    return int(rec["draw_index"]), ImageAtlas(alphas, los, his, domain)


def read_atlas_file(path) -> Iterator[tuple[int, ImageAtlas]]:
    """Rebuild each draw's atlas; the domain is the union of its cell boxes.

    A generator: each atlas is built when the caller asks for it and is
    dropped here before the next one is built, so a caller that keeps no
    atlas holds one at a time.  A draw index that two records share fails
    as ``<file>: line N: draw_index I repeats line M``.
    """
    first_line: dict[int, int] = {}
    for n, entry in _read_records(path, _atlas_from_record):
        i = entry[0]
        m = first_line.setdefault(i, n)
        if m != n:
            raise ValueError(f"{path}: line {n}: draw_index {i} repeats line {m}")
        yield entry
        del entry  # before the next record is built


# ---------------------------------------------------------------------------
# CSV tables


def _fmt(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return repr(float(x))


def write_csv(path, header: Sequence[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) if not isinstance(v, str) else v for v in row])


def write_pf_cloud_csv(path, cloud: PFCloud, annotation: str, d: int) -> None:
    """Cloud points of d objectives with their attainment value or depth rank."""
    if annotation not in ("eaf", "depth_rank"):
        raise ValueError("annotation must be 'eaf' or 'depth_rank'")
    header = [f"y{j + 1}" for j in range(d)] + [annotation, "draw_index"]
    rows = []
    for pt in cloud.points:
        ann = pt.eaf if annotation == "eaf" else pt.depth_rank
        rows.append(list(pt.objective) + [ann, pt.draw_index])
    write_csv(path, header, rows)


def write_ps_boxes_csv(path, ps: PSCloud, p: int) -> None:
    """Boxes of p inputs, one row each, with the draw they come from."""
    header = []
    for j in range(p):
        header += [f"lo{j + 1}", f"hi{j + 1}"]
    header.append("draw_index")
    rows = []
    for entry in ps.boxes:
        row = []
        for j in range(p):
            row += [entry.box.lo[j], entry.box.hi[j]]
        row.append(entry.draw_index)
        rows.append(row)
    write_csv(path, header, rows)


def write_depths_csv(path, cpf_draw_indices: Sequence[int], depths) -> None:
    rows = [[int(i), float(v)] for i, v in zip(cpf_draw_indices, depths)]
    write_csv(path, ["draw_index", "depth"], rows)


def write_points_csv(path, points: np.ndarray) -> None:
    points = np.atleast_2d(points)
    header = [f"y{j + 1}" for j in range(points.shape[1])]
    write_csv(path, header, points)


def read_points_csv(path) -> np.ndarray:
    """Coordinate columns (y1.., or box lo/hi columns reduced to centroids).

    Every field must be a finite number, and the table needs a data row; an
    error names the file, and the line and column of a bad field."""
    with open(path) as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        rows = [_dataset_row(path, reader.line_num, header, r) for r in reader if r]
    ycols = [i for i, name in enumerate(header) if name.startswith("y")]
    locols = [i for i, name in enumerate(header) if name.startswith("lo")]
    hicols = [i for i, name in enumerate(header) if name.startswith("hi")]
    if not ycols and not (locols and len(locols) == len(hicols)):
        raise ValueError(f"no coordinate columns found in {path}")
    if not rows:
        raise ValueError(f"{path}: no data rows")
    data = np.array(rows, dtype=float)
    if ycols:
        return data[:, ycols]
    return (data[:, locols] + data[:, hicols]) / 2.0


def read_dataset_csv(path):
    """Training table with header x1..xp,y1..yd; returns (X, Y).  The inputs'
    bounding box becomes the model domain and each output is scaled by its
    range, so it needs two rows, finite numbers in every field of every row,
    and no constant column.  An error names the file, and the line and
    column of a bad field."""
    with open(path) as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        rows = [_dataset_row(path, reader.line_num, header, r) for r in reader if r]
    xcols = [i for i, name in enumerate(header) if name.startswith("x")]
    ycols = [i for i, name in enumerate(header) if name.startswith("y")]
    if not xcols or not ycols:
        raise ValueError(f"{path}: expected header columns x1..xp and y1..yd")
    if len(rows) < 2:
        raise ValueError(f"{path}: need at least 2 data rows, found {len(rows)}")
    data = np.array(rows, dtype=float).reshape(len(rows), len(header))
    for kind, cols in (("input", xcols), ("output", ycols)):
        for i in cols:
            if data[:, i].min() == data[:, i].max():
                raise ValueError(f"{path}: {kind} column {header[i]} is constant")
    return data[:, xcols], data[:, ycols]


def _dataset_row(path, line: int, header: Sequence[str], fields: Sequence[str]) -> list[float]:
    if len(fields) != len(header):
        raise ValueError(f"{path}: line {line} has {len(fields)} fields, expected {len(header)}")
    row = []
    for name, field in zip(header, fields):
        try:
            value = float(field)
        except ValueError:
            raise ValueError(f"{path}: line {line}, column {name}: {field!r} is not a number") from None
        if not math.isfinite(value):
            raise ValueError(f"{path}: line {line}, column {name}: {field!r} is not finite")
        row.append(value)
    return row
