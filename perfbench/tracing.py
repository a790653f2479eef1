"""In-memory span tracer for the treefront pipeline.

The tracer wraps treefront's public functions at every name a caller looks
them up by: `harness.multi_cells`, `cli.multi_cells` and `atlas.multi_cells`
all get the same wrapper, and each call records a span named after the
module that defines the function ("atlas.multi_cells").  A span is
(name, start, end, parent); spans stay in memory and are written out when the
run ends.  The wrappers also count work (cells, front points, queries) from
argument and result sizes, and can keep every call's arguments and result so
the benchmark can check them afterwards.

Nothing here draws from a random generator or alters an argument or result,
so a traced round produces the same outputs as an untraced one.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

# Public functions wrapped, as (defining module, attribute).  The span name is
# "<module>.<attribute>"; the module is the layer.
TARGETS = (
    ("harness", "run_scenario"),
    ("harness", "run_turning"),
    ("harness", "maximin_lhs"),
    ("harness", "generate_data"),
    ("harness", "extract_cpfs"),
    ("sampler", "fit_multi_bart"),
    ("trees", "tree_leaf_regions"),
    ("atlas", "multi_cells"),
    ("pareto", "pf_ps"),
    ("pareto", "kung_front"),
    ("random_sets", "pf_cloud_rs"),
    ("random_sets", "ps_cloud"),
    ("band_depth", "modified_band_depth"),
    ("band_depth", "pf_cloud_mbd"),
    ("metrics", "coverage"),
    ("metrics", "ps_cloud_to_points"),
    ("fileio", "write_draws"),
    ("fileio", "read_draws"),
    ("fileio", "write_atlas_file"),
    ("fileio", "read_atlas_file"),
    ("fileio", "read_dataset_csv"),
    ("fileio", "read_points_csv"),
    ("fileio", "write_csv"),
    ("fileio", "write_pf_cloud_csv"),
    ("fileio", "write_ps_boxes_csv"),
    ("fileio", "write_depths_csv"),
)
# Methods wrapped on their class, as (module, class, method).
METHOD_TARGETS = (
    ("benchmarks", "Benchmark", "true_front"),
    ("benchmarks", "Benchmark", "true_set"),
)

CSV_SPANS = (
    "fileio.read_dataset_csv",
    "fileio.read_points_csv",
    "fileio.write_csv",
    "fileio.write_pf_cloud_csv",
    "fileio.write_ps_boxes_csv",
    "fileio.write_depths_csv",
)

# Time metrics: inclusive time of the outermost spans of the listed names.
TIME_METRICS = {
    "harness.lhs_s": ("harness.maximin_lhs",),
    "sampler.fit_s": ("sampler.fit_multi_bart",),
    "trees.leaf_regions_s": ("trees.tree_leaf_regions",),
    "atlas.multi_cells_s": ("atlas.multi_cells",),
    "pareto.pf_ps_s": ("pareto.pf_ps",),
    "pareto.kung_front_s": ("pareto.kung_front",),
    "random_sets.pf_cloud_rs_s": ("random_sets.pf_cloud_rs",),
    "random_sets.ps_cloud_s": ("random_sets.ps_cloud",),
    "band_depth.mbd_s": ("band_depth.modified_band_depth",),
    "band_depth.cloud_s": ("band_depth.pf_cloud_mbd",),
    "metrics.coverage_s": ("metrics.coverage",),
    "benchmarks.truth_s": ("benchmarks.true_front", "benchmarks.true_set"),
    "fileio.write_draws_s": ("fileio.write_draws",),
    "fileio.read_draws_s": ("fileio.read_draws",),
    "fileio.write_atlas_s": ("fileio.write_atlas_file",),
    "fileio.read_atlas_s": ("fileio.read_atlas_file",),
    "fileio.csv_s": CSV_SPANS,
    "cli.fit_s": ("cli.fit",),
    "cli.extract_s": ("cli.extract",),
    "cli.uq_rs_s": ("cli.uq_rs",),
    "cli.uq_mbd_s": ("cli.uq_mbd",),
    "cli.metrics_s": ("cli.metrics",),
}

# Every per-layer metric the traced run reports: name -> (unit, better).
PER_LAYER = {
    "harness.lhs_s": ("s", "lower"),
    "harness.lhs_swaps": ("count", "lower"),
    "harness.lhs_us_per_swap": ("us", "lower"),
    "harness.self_s": ("s", "lower"),
    "sampler.fit_s": ("s", "lower"),
    "sampler.sweeps": ("count", "lower"),
    "sampler.ms_per_sweep": ("ms", "lower"),
    "sampler.topology_changes_per_sweep": ("count", "higher"),
    "trees.leaf_regions_s": ("s", "lower"),
    "trees.leaf_regions_calls": ("count", "lower"),
    "atlas.multi_cells_s": ("s", "lower"),
    "atlas.ms_per_draw": ("ms", "lower"),
    "atlas.cells_per_draw": ("count", "lower"),
    "atlas.cells_per_s": ("1/s", "higher"),
    "pareto.pf_ps_s": ("s", "lower"),
    "pareto.kung_front_s": ("s", "lower"),
    "pareto.front_points_per_draw": ("count", "lower"),
    "pareto.cells_filtered_per_s": ("1/s", "higher"),
    "random_sets.pf_cloud_rs_s": ("s", "lower"),
    "random_sets.eaf_queries": ("count", "lower"),
    "random_sets.eaf_comparisons": ("count", "lower"),
    "random_sets.rs_cloud_points": ("count", "lower"),
    "random_sets.ps_cloud_s": ("s", "lower"),
    "random_sets.ps_boxes": ("count", "lower"),
    "band_depth.mbd_s": ("s", "lower"),
    "band_depth.cloud_s": ("s", "lower"),
    "band_depth.height_queries": ("count", "lower"),
    "band_depth.mbd_cloud_points": ("count", "lower"),
    "metrics.coverage_s": ("s", "lower"),
    "metrics.distance_pairs": ("count", "lower"),
    "benchmarks.truth_s": ("s", "lower"),
    "fileio.write_draws_s": ("s", "lower"),
    "fileio.read_draws_s": ("s", "lower"),
    "fileio.write_atlas_s": ("s", "lower"),
    "fileio.read_atlas_s": ("s", "lower"),
    "fileio.csv_s": ("s", "lower"),
    "fileio.draws_mib": ("MiB", "lower"),
    "fileio.atlas_mib": ("MiB", "lower"),
    "cli.fit_s": ("s", "lower"),
    "cli.extract_s": ("s", "lower"),
    "cli.uq_rs_s": ("s", "lower"),
    "cli.uq_mbd_s": ("s", "lower"),
    "cli.metrics_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.unattributed_s": ("s", "lower"),
}


# -- work counters, computed from argument and result sizes ----------------


def _count_lhs(tracer, a, result):
    # maximin_lhs runs `restarts` climbs of n_swaps proposals each, with
    # n_swaps = min(40 n, 4000) when the caller leaves it unset
    swaps = a["n_swaps"] if a["n_swaps"] is not None else min(40 * a["n"], 4000)
    tracer.counts["harness.lhs_swaps"] += a["restarts"] * swaps


def _count_fit(tracer, a, result):
    cfg = a["cfg"]
    tracer.counts["sampler.sweeps"] += (cfg.n_burn + cfg.n_draws) * a["dataset"].d
    tracer.fits.append(result)


def _count_cells(tracer, a, result):
    tracer.counts["atlas.draws"] += 1
    tracer.counts["atlas.cells"] += len(result)


def _count_front(tracer, a, result):
    tracer.counts["pareto.draws"] += 1
    tracer.counts["pareto.front_points"] += len(result.front)


def _count_kung(tracer, a, result):
    tracer.counts["pareto.kung_rows"] += len(a["vectors"])


def _count_rs(tracer, a, result):
    q = sum(len(c.points) for c in a["cpfs"])
    tracer.counts["random_sets.eaf_queries"] += q
    # the attainment count compares every query with every front point
    tracer.counts["random_sets.eaf_comparisons"] += q * q
    tracer.counts["random_sets.rs_cloud_points"] += len(result)


def _count_ps(tracer, a, result):
    tracer.counts["random_sets.ps_boxes"] += len(result)


def _count_mbd(tracer, a, result):
    tracer.counts["band_depth.height_queries"] += 2 * a["q"] * len(a["cpfs"])


def _count_mbd_cloud(tracer, a, result):
    tracer.counts["band_depth.mbd_cloud_points"] += len(result)


def _count_coverage(tracer, a, result):
    tracer.counts["metrics.distance_pairs"] += 2 * len(a["cloud"]) * len(a["truth"])


def _count_draws_file(tracer, a, result):
    tracer.counts["fileio.draws_bytes"] += os.path.getsize(a["path"])


def _count_atlas_file(tracer, a, result):
    tracer.counts["fileio.atlas_bytes"] += os.path.getsize(a["path"])


POST = {
    "harness.maximin_lhs": _count_lhs,
    "sampler.fit_multi_bart": _count_fit,
    "atlas.multi_cells": _count_cells,
    "pareto.pf_ps": _count_front,
    "pareto.kung_front": _count_kung,
    "random_sets.pf_cloud_rs": _count_rs,
    "random_sets.ps_cloud": _count_ps,
    "band_depth.modified_band_depth": _count_mbd,
    "band_depth.pf_cloud_mbd": _count_mbd_cloud,
    "metrics.coverage": _count_coverage,
    "fileio.write_draws": _count_draws_file,
    "fileio.write_atlas_file": _count_atlas_file,
}


class Tracer:
    """Records spans and counts while installed; restores every name on uninstall.

    record: keep a span per wrapped call.  capture: keep each call's bound
    arguments and result under its span name, for the output checks.
    """

    def __init__(self, record: bool, capture: bool = False):
        self.record = record
        self.capture = capture
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.fits: list = []
        self.calls: dict[str, list] = {}
        self.missing: list[str] = []
        self._patches: list = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "treefront" or name.startswith("treefront.")]
        for layer, attr in TARGETS:
            fn = getattr(sys.modules.get(f"treefront.{layer}"), attr, None)
            if fn is None:
                self.missing.append(f"{layer}.{attr}")
                continue
            wrapper = self._wrap(f"{layer}.{attr}", fn)
            bound = [(m, k) for m in modules for k, v in vars(m).items() if v is fn]
            for m, k in bound:
                self._patches.append((m, k, fn))
                setattr(m, k, wrapper)
        for layer, cls_name, attr in METHOD_TARGETS:
            cls = getattr(sys.modules.get(f"treefront.{layer}"), cls_name, None)
            fn = cls.__dict__.get(attr) if cls is not None else None
            if fn is None:
                self.missing.append(f"{layer}.{cls_name}.{attr}")
                continue
            self._patches.append((cls, attr, fn))
            setattr(cls, attr, self._wrap(f"{layer}.{attr}", fn))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def _wrap(self, name, fn):
        post = POST.get(name)
        sig = inspect.signature(fn)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with tracer.span(name):
                result = fn(*args, **kwargs)
            if post is not None or tracer.capture:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                if post is not None:
                    post(tracer, bound.arguments, result)
                if tracer.capture:
                    tracer.calls.setdefault(name, []).append((bound.arguments, result))
            return result

        return traced

    @contextmanager
    def span(self, name: str):
        """A span around a wrapped call, or one the benchmark opens itself
        (a round, a CLI command)."""
        if not self.record:
            yield
            return
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[idx][1] = start
            self.spans[idx][2] = end


# -- analysis ----------------------------------------------------------------


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def outermost_time(spans, names) -> float:
    """Inclusive time of spans named in `names` that no such span encloses."""
    names = set(names)
    total = 0.0
    for name, start, end, parent in spans:
        if name not in names:
            continue
        while parent >= 0 and spans[parent][0] not in names:
            parent = spans[parent][3]
        if parent < 0:
            total += end - start
    return total


def layer_self_times(spans) -> dict[str, float]:
    """Self time summed per layer (the span name's module part)."""
    out: dict[str, float] = {}
    for (name, *_), own in zip(spans, self_times(spans)):
        layer = name.split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + own
    return out


def span_table(spans) -> dict[str, dict]:
    """Per span name: calls, inclusive seconds, self seconds."""
    out: dict[str, dict] = {}
    for (name, start, end, _), own in zip(spans, self_times(spans)):
        row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += own
    return out


def _shape(node):
    """Tree structure without leaf values."""
    if not hasattr(node, "var"):
        return None
    return (node.var, node.cut, _shape(node.left), _shape(node.right))


def topology_changes_per_sweep(fits) -> float:
    """Trees (all outputs) whose structure differs between consecutive kept draws."""
    changes = 0
    pairs = 0
    for draws in fits:
        if len(draws) < 2:
            continue
        pairs += len(draws) - 1
        for j in range(draws[0].me.d):
            prev = None
            for draw in draws:
                cur = [_shape(t.root) for t in draw.me.outputs[j].trees]
                if prev is not None:
                    changes += sum(a != b for a, b in zip(prev, cur))
                prev = cur
    return changes / pairs if pairs else 0.0


def _ratio(num, den, scale=1.0) -> float:
    return num / den * scale if den else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced round (trace.* are filled in by the caller)."""
    spans, c = tracer.spans, tracer.counts
    out = {name: outermost_time(spans, names) for name, names in TIME_METRICS.items()}
    selfs = layer_self_times(spans)
    out["harness.self_s"] = selfs.get("harness", 0.0)
    out["cli.self_s"] = selfs.get("cli", 0.0)
    out["harness.lhs_swaps"] = c["harness.lhs_swaps"]
    out["harness.lhs_us_per_swap"] = _ratio(out["harness.lhs_s"], c["harness.lhs_swaps"], 1e6)
    out["sampler.sweeps"] = c["sampler.sweeps"]
    out["sampler.ms_per_sweep"] = _ratio(out["sampler.fit_s"], c["sampler.sweeps"], 1e3)
    out["sampler.topology_changes_per_sweep"] = topology_changes_per_sweep(tracer.fits)
    out["trees.leaf_regions_calls"] = sum(1 for s in spans if s[0] == "trees.tree_leaf_regions")
    out["atlas.ms_per_draw"] = _ratio(out["atlas.multi_cells_s"], c["atlas.draws"], 1e3)
    out["atlas.cells_per_draw"] = _ratio(c["atlas.cells"], c["atlas.draws"])
    out["atlas.cells_per_s"] = _ratio(c["atlas.cells"], out["atlas.multi_cells_s"])
    out["pareto.front_points_per_draw"] = _ratio(c["pareto.front_points"], c["pareto.draws"])
    out["pareto.cells_filtered_per_s"] = _ratio(c["pareto.kung_rows"], out["pareto.kung_front_s"])
    for key in ("random_sets.eaf_queries", "random_sets.eaf_comparisons",
                "random_sets.rs_cloud_points", "random_sets.ps_boxes",
                "band_depth.height_queries", "band_depth.mbd_cloud_points",
                "metrics.distance_pairs"):
        out[key] = c[key]
    out["fileio.draws_mib"] = c["fileio.draws_bytes"] / 2 ** 20
    out["fileio.atlas_mib"] = c["fileio.atlas_bytes"] / 2 ** 20
    return out
