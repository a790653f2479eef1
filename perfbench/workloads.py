"""The benchmark's workloads: inputs from a seed, one timed round, output checks.

A round is one whole pipeline call on fixed inputs, so every round of a run
does the same work and yields the same outputs.  `fingerprint` condenses a
round's outputs so later rounds can be compared with the checked one;
`check` maps each stage of a round to the failures found in its outputs.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
from pathlib import Path

import numpy as np

import checks
from treefront import cli, harness
from treefront.benchmarks import get_benchmark, unit_scale
from treefront.harness import Scenario
from treefront.sampler import BartConfig
from treefront.trees import eval_multi

COVERAGE_LIMIT = 0.10


def _sample(n: int, k: int) -> list[int]:
    """k indices spread evenly over range(n), first and last included."""
    return sorted(set(np.linspace(0, n - 1, min(n, k)).round().astype(int).tolist()))


def _digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()


def _cloud_rows(cloud):
    return [(p.draw_index, p.objective, p.cell_refs, p.eaf, p.depth_rank) for p in cloud.points]


def _box_rows(ps):
    return [(e.draw_index, e.box.lo, e.box.hi) for e in ps.boxes]


def _bounds(atlas):
    """(los, his) arrays of an atlas's cell boxes, read through its box() accessor."""
    boxes = [atlas.box(i) for i in range(len(atlas))]
    return np.array([b.lo for b in boxes], dtype=float), np.array([b.hi for b in boxes], dtype=float)


def _unchecked(failures, stages, why):
    """Fail each stage whose outputs could not be checked."""
    for stage in stages:
        failures[stage].append(f"not checked: {why}")


def _cell_boxes(alphas, los, his, draw, objective):
    """(draw, lo, hi) of every cell whose value equals objective."""
    hit = np.nonzero(np.all(alphas == np.asarray(objective, dtype=float), axis=1))[0]
    return [(draw, los[k].tolist(), his[k].tolist()) for k in hit]


def _check_fit(fit_calls, stage_out):
    if len(fit_calls) != 1:
        stage_out.append(f"{len(fit_calls)} fit_multi_bart calls captured, expected 1")
    for a, draws in fit_calls:
        cfg, data = a["cfg"], a["dataset"]
        if len(draws) != cfg.n_draws:
            stage_out.append(f"fit returned {len(draws)} draws, asked for {cfg.n_draws}")
        for draw in draws:
            sig = np.asarray(draw.sigma2, dtype=float)
            if (draw.me.d != data.d or any(e.m != cfg.m for e in draw.me.outputs)
                    or sig.shape != (data.d,) or not np.all(np.isfinite(sig) & (sig > 0))):
                stage_out.append("a draw has the wrong shape or a non-positive error variance")
                break


def _check_extraction(calls, eval_draws, failures):
    """Atlas and front checks on every draw; the tree-walk check on a sample.

    Returns {draw: (alphas, los, his)} of the atlases the fronts were taken
    from, and {draw: front} from the benchmark's own sweep; both are empty
    unless every draw's atlas and front were captured and matched up.

    Assumes the call shape of the pipeline: one fit_multi_bart, then per draw
    one multi_cells on that draw's ensemble and one pf_ps on that atlas.
    """
    out = failures["extract"]
    fit_calls = calls.get("sampler.fit_multi_bart", [])
    if len(fit_calls) != 1:
        out.append(f"{len(fit_calls)} fit_multi_bart calls captured, expected 1")
        return {}, {}
    (fit_args, draws), = fit_calls
    atlas_calls = calls.get("atlas.multi_cells", [])
    front_calls = calls.get("pareto.pf_ps", [])
    if len(atlas_calls) != len(draws) or len(front_calls) != len(draws):
        out.append(f"{len(atlas_calls)} atlases and {len(front_calls)} fronts for {len(draws)} draws")
        return {}, {}
    inputs = fit_args["dataset"].inputs
    sampled = set(_sample(len(draws), eval_draws))
    cells, fronts = {}, {}
    for i, ((a, atlas), (fa, result), draw) in enumerate(zip(atlas_calls, front_calls, draws)):
        me = a["me"]
        if me is not draw.me:
            out.append(f"atlas {i} was not built from draw {i}")
            continue
        los, his = _bounds(atlas)
        dom = me.domain
        out += checks.atlas_cells(
            atlas.alphas, los, his, dom.lo, dom.hi,
            inputs if i in sampled else inputs[:0],
            lambda x, me=me: eval_multi(me, x),
        )
        alphas = atlas.alphas
        if fa["atlas"] is not atlas:
            out.append(f"front {i} not taken on atlas {i}")
        objs = [p.objective for p in result.front]
        refs = [p.cell_refs for p in result.front]
        out += checks.front_and_refs(alphas, objs, refs)
        cells[i] = (alphas, los, his)
        fronts[i] = checks.front_2d(alphas)
    if len(fronts) != len(draws):
        return {}, {}
    return cells, fronts


def _expected_boxes(cloud_points, cells):
    expected = []
    for draw, obj in cloud_points:
        alphas, los, his = cells[draw]
        expected += _cell_boxes(alphas, los, his, draw, obj)
    return expected


class ScenarioWorkload:
    """`run_scenario` on one benchmark at one size: LHS, fit, extraction, both
    clouds, set clouds and coverage against the analytic front and set."""

    stages = ("lhs", "fit", "extract", "rs", "mbd", "ps", "coverage")

    def __init__(self, name, benchmark, n, burn, draws, lhs_restarts, eval_draws):
        self.name = name
        self.benchmark, self.n = benchmark, n
        self.burn, self.draws, self.lhs_restarts = burn, draws, lhs_restarts
        self.eval_draws = eval_draws

    def setup(self, seed, workdir):
        return Scenario(
            benchmark=self.benchmark, n=self.n, noise_mult=0.0, replicates=1,
            alpha_rs=0.25, alpha_mbd=0.5, mbd_cuts=201,
            bart=BartConfig(m=30, n_burn=self.burn, n_draws=self.draws),
            seed=seed, lhs_restarts=self.lhs_restarts, truth_samples=1000,
        )

    def run(self, sc, tracer):
        return harness.run_scenario(sc)

    def fingerprint(self, report, inputs) -> str:
        rows = [(r.replicate, r.method, r.target, r.overcoverage, r.undercoverage) for r in report.rows]
        arts = [(_cloud_rows(a.rs_cloud), _box_rows(a.rs_ps), _cloud_rows(a.mbd_cloud),
                 _box_rows(a.mbd_ps), a.depths.depths.tolist()) for a in report.artifacts]
        return _digest((rows, arts))

    def check(self, sc, report, calls) -> dict:
        failures = {s: [] for s in self.stages}
        for _, design in calls.get("harness.maximin_lhs", []):
            failures["lhs"] += checks.latin(design)
        _check_fit(calls.get("sampler.fit_multi_bart", []), failures["fit"])
        cells, fronts = _check_extraction(calls, self.eval_draws, failures)
        if not fronts:
            _unchecked(failures, ("rs", "mbd", "ps", "coverage"), "no fronts to check against")
            return failures
        art = report.artifacts[0]
        failures["rs"] += checks.rs_cloud(
            fronts, sc.alpha_rs, [(p.draw_index, p.objective, p.eaf) for p in art.rs_cloud.points])
        failures["mbd"] += checks.mbd_cloud(
            fronts, sc.alpha_mbd, [(p.draw_index, p.objective, p.depth_rank) for p in art.mbd_cloud.points])
        p = cells[0][1].shape[1]
        for cloud, ps in ((art.rs_cloud, art.rs_ps), (art.mbd_cloud, art.mbd_ps)):
            expected = _expected_boxes([(q.draw_index, q.objective) for q in cloud.points], cells)
            failures["ps"] += checks.ps_boxes(
                [(e.draw_index, e.box.lo, e.box.hi) for e in ps.boxes], expected, np.zeros(p), np.ones(p))
        bench = unit_scale(get_benchmark(sc.benchmark))
        truth = {"pf": bench.true_front(sc.truth_samples), "ps": bench.true_set(sc.truth_samples)}
        clouds = {"rs": (art.rs_cloud, art.rs_ps), "mbd": (art.mbd_cloud, art.mbd_ps)}
        for row in report.rows:
            cloud, ps = clouds[row.method]
            if row.target == "pf":
                pts = np.array([q.objective for q in cloud.points])
            else:
                pts = np.array([(np.array(e.box.lo) + np.array(e.box.hi)) / 2.0 for e in ps.boxes])
            failures["coverage"] += checks.coverage_matches(
                f"{row.method} {row.target}", (row.overcoverage, row.undercoverage),
                checks.coverage(pts, truth[row.target]))
        return failures


def _read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], np.array([[float(v) for v in r] for r in rows[1:] if r], dtype=float)


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def _walk(outputs, x):
    """Raw value of each output's ensemble at x, from the draws file's trees."""
    vals = []
    for ens in outputs:
        total = 0.0
        for node in ens["trees"]:
            while "mu" not in node:
                node = node["left"] if x[node["var"]] < node["cut"] else node["right"]
            total += node["mu"]
        vals.append(ens["center"] + ens["scale"] * total)
    return np.array(vals)


class CliWorkload:
    """The file workflow through `cli.main` on each of several training sets:
    fit, extract --front, uq rs, uq mbd, metrics on the MBD cloud.

    Cells per draw differ by about 12% (spread over seeds) from one training
    set to the next, so a round runs the workflow on several sets drawn from
    the seed: their total work varies less between seeds than one set's.
    """

    commands = ("fit", "extract", "uq_rs", "uq_mbd", "metrics")

    def __init__(self, name, n, burn, draws, sets, eval_draws):
        self.name = name
        self.n, self.burn, self.draws, self.eval_draws = n, burn, draws, eval_draws
        self.sets = sets
        # one operation per command on one training set
        self.stages = tuple(f"set{k}.{c}" for k in range(sets) for c in self.commands)

    def setup(self, seed, workdir):
        workdir = Path(workdir)
        rng = np.random.default_rng(seed)
        n = self.n
        bench = unit_scale(get_benchmark("mop2"))
        truth = workdir / "truth.csv"
        _write_csv(truth, ["y1", "y2"], bench.true_front(1000))
        sets = []
        for k in range(self.sets):
            X = np.column_stack([(rng.permutation(n) + rng.random(n)) / n for _ in range(2)])
            d = workdir / f"set{k}"
            out = d / "out"
            out.mkdir(parents=True, exist_ok=True)
            _write_csv(d / "train.csv", ["x1", "x2", "y1", "y2"], np.hstack([X, bench.evaluate(X)]))
            f = {key: str(out / v) for key, v in (("draws", "draws.jsonl"), ("atlas", "atlas.jsonl"),
                                                 ("uq", "uq"), ("cov", "cov.csv"))}
            argv = {
                "fit": ["fit", "--data", str(d / "train.csv"), "--out", f["draws"],
                        "--burn", str(self.burn), "--draws", str(self.draws),
                        "--seed", str(seed * self.sets + k)],
                "extract": ["extract", "--draws", f["draws"], "--out", f["atlas"], "--front"],
                "uq_rs": ["uq", "--atlas", f["atlas"], "--method", "rs", "--alpha", "0.25",
                          "--out-dir", f["uq"]],
                "uq_mbd": ["uq", "--atlas", f["atlas"], "--method", "mbd", "--alpha", "0.5",
                           "--cuts", "201", "--out-dir", f["uq"]],
                "metrics": ["metrics", "--cloud", str(Path(f["uq"]) / "mbd_pf_cloud.csv"),
                            "--truth", str(truth), "--out", f["cov"]],
            }
            sets.append({"X": X, "out": out, "argv": argv})
        return {"truth": truth, "sets": sets}

    def run(self, inputs, tracer):
        codes = {}
        for k, st in enumerate(inputs["sets"]):
            for c in self.commands:
                with tracer.span(f"cli.{c}"), contextlib.redirect_stdout(io.StringIO()):
                    codes[f"set{k}.{c}"] = cli.main(st["argv"][c])
        return codes

    def fingerprint(self, codes, inputs) -> str:
        files = sorted(p for st in inputs["sets"] for p in Path(st["out"]).rglob("*") if p.is_file())
        return _digest((codes, [(str(p), hashlib.sha256(p.read_bytes()).hexdigest()) for p in files]))

    def check(self, inputs, codes, calls) -> dict:
        failures = {s: [] for s in self.stages}
        _, truth = _read_csv(inputs["truth"])
        for k, st in enumerate(inputs["sets"]):
            self._check_set(st, truth, {c: codes[f"set{k}.{c}"] for c in self.commands},
                            {c: failures[f"set{k}.{c}"] for c in self.commands})
        return failures

    def _check_set(self, st, truth, codes, failures):
        """Checks of one training set's files; failures maps each command to its list."""
        for c, code in codes.items():
            if code != 0:
                failures[c].append(f"command exited with {code}")
        if any(failures.values()):
            _unchecked(failures, [c for c in self.commands if not failures[c]], "a command failed")
            return
        out = Path(st["out"])
        X = st["X"]
        dom_lo, dom_hi = X.min(axis=0), X.max(axis=0)

        with open(out / "draws.jsonl") as fh:
            draw_recs = [json.loads(line) for line in fh if line.strip()]
        if len(draw_recs) != self.draws or any(
                len(r["outputs"]) != 2 or any(len(e["trees"]) != 30 for e in r["outputs"])
                or not all(s > 0 and math.isfinite(s) for s in r["sigma2"]) for r in draw_recs):
            failures["fit"].append(f"draws file does not hold {self.draws} draws of 2 x 30 trees")
            _unchecked(failures, self.commands[1:], "the draws file is wrong")
            return

        with open(out / "atlas.jsonl") as fh:
            atlas_recs = [json.loads(line) for line in fh if line.strip()]
        if [r["draw_index"] for r in atlas_recs] != list(range(self.draws)):
            failures["extract"].append("atlas file does not hold one record per draw in order")
            _unchecked(failures, self.commands[2:], "the atlas file is wrong")
            return
        sampled = set(_sample(self.draws, self.eval_draws))
        cells, fronts = {}, {}
        ext = failures["extract"]
        for i, rec in enumerate(atlas_recs):
            alphas = np.array([c["alpha"] for c in rec["cells"]], dtype=float)
            los = np.array([c["box"]["lo"] for c in rec["cells"]], dtype=float)
            his = np.array([c["box"]["hi"] for c in rec["cells"]], dtype=float)
            ext += checks.atlas_cells(alphas, los, his, dom_lo, dom_hi, X if i in sampled else X[:0],
                                      lambda x, o=draw_recs[i]["outputs"]: _walk(o, x))
            front = rec.get("front", [])
            ext += checks.front_and_refs(alphas, [p["objective"] for p in front],
                                         [p["cell_refs"] for p in front])
            want = [(los[r].tolist(), his[r].tolist()) for p in front for r in p["cell_refs"]]
            if [(b["lo"], b["hi"]) for b in rec.get("set_boxes", [])] != want:
                ext.append(f"set boxes of draw {i} are not the boxes of its front cells")
            cells[i] = (alphas, los, his)
            fronts[i] = checks.front_2d(alphas)

        uq = out / "uq"
        for c, prefix, alpha in (("uq_rs", "rs", 0.25), ("uq_mbd", "mbd", 0.5)):
            header, cloud = _read_csv(uq / f"{prefix}_pf_cloud.csv")
            rows = [(int(r[3]), (r[0], r[1]), r[2]) for r in cloud]
            if prefix == "rs":
                failures[c] += checks.rs_cloud(fronts, alpha, rows)
            else:
                failures[c] += checks.mbd_cloud(fronts, alpha, [(i, o, int(k)) for i, o, k in rows])
            _, boxes = _read_csv(uq / f"{prefix}_ps_boxes.csv")
            failures[c] += checks.ps_boxes(
                [(int(b[4]), (b[0], b[2]), (b[1], b[3])) for b in boxes],
                _expected_boxes([(i, o) for i, o, _ in rows], cells), dom_lo, dom_hi)
        _, depths = _read_csv(uq / "depths.csv")
        if len(depths) != self.draws:
            failures["uq_mbd"].append(f"depths file has {len(depths)} rows for {self.draws} draws")

        _, mbd = _read_csv(uq / "mbd_pf_cloud.csv")
        _, cov = _read_csv(out / "cov.csv")
        failures["metrics"] += checks.coverage_matches(
            "metrics mbd pf", tuple(cov[0]), checks.coverage(mbd[:, :2], truth), COVERAGE_LIMIT)


WORKLOADS = {
    w.name: w for w in (
        ScenarioWorkload("dtlz2m_p4", "dtlz2m", n=128, burn=60, draws=8, lhs_restarts=1,
                         eval_draws=3),
        CliWorkload("mop2_cli", n=128, burn=20, draws=25, sets=4, eval_draws=4),
    )
}
