"""End-to-end experiment pipeline: designs, noisy data, scenario runs.

A scenario fixes a benchmark, sample size, noise multiplier, and UQ
settings; each replicate draws a maximin Latin hypercube design, generates
noisy observations, fits the per-output tree ensembles, extracts every
posterior draw's exact front, builds both uncertainty clouds, and scores
them against the analytic front/set.  Replicate streams are derived from
(seed, replicate index), so results do not depend on execution order.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional

import numpy as np

from .atlas import ImageAtlas, multi_cells
from .band_depth import DepthResult, modified_band_depth, pf_cloud_mbd
from .benchmarks import Benchmark, get_benchmark, unit_scale
from .metrics import coverage, ps_cloud_to_points
from .pareto import pf_ps
from .random_sets import CPF, ObjectiveBox, PFCloud, PSCloud, pf_cloud_rs, ps_cloud, require_rs_band
from .sampler import BartConfig, Dataset, as_generator, fit_multi_bart


def maximin_lhs(n: int, p: int, rng, restarts: int = 8,
                n_swaps: Optional[int] = None) -> np.ndarray:
    """Latin hypercube on the unit cube, tuned for large minimum distance.

    Each of ``restarts`` random hypercubes is improved by hill-climbing on
    within-column swaps (which preserve the one-point-per-stratum property);
    the candidate with the largest minimum pairwise distance wins.

    A swap moves design rows ``i1`` and ``i2`` only, so the minimum distance
    can rise only when every pair at the current minimum includes one of
    them.  Any other swap is rejected before a distance is computed; its
    random draws are taken first, so the design does not depend on the
    shortcut.
    """
    if n < 2:
        raise ValueError("need at least two design points")
    if restarts < 1:
        raise ValueError(f"restarts={restarts} must be >= 1")
    gen = as_generator(rng)
    if n_swaps is None:
        n_swaps = min(40 * n, 4000)

    best = None
    best_min = -np.inf
    for _ in range(restarts):
        design = np.empty((n, p))
        for j in range(p):
            design[:, j] = (gen.permutation(n) + gen.random(n)) / n
        d2 = _sq_dists(design)
        cur_min = d2.min()
        min_pairs = np.argwhere(d2 == cur_min).tolist()
        for _ in range(n_swaps):
            j = int(gen.integers(p))
            i1, i2 = gen.choice(n, size=2, replace=False).tolist()
            if any(i1 not in pair and i2 not in pair for pair in min_pairs):
                continue
            design[i1, j], design[i2, j] = design[i2, j], design[i1, j]
            old_r1, old_r2 = d2[i1].copy(), d2[i2].copy()
            _update_rows(d2, design, i1, i2)
            new_min = d2.min()
            if new_min > cur_min:
                cur_min = new_min
                min_pairs = np.argwhere(d2 == cur_min).tolist()
            else:
                design[i1, j], design[i2, j] = design[i2, j], design[i1, j]
                d2[i1], d2[:, i1] = old_r1, old_r1
                d2[i2], d2[:, i2] = old_r2, old_r2
        if cur_min > best_min:
            best_min = cur_min
            best = design.copy()
    return best


def _sq_dists(design: np.ndarray) -> np.ndarray:
    diff = design[:, None, :] - design[None, :, :]
    d2 = np.sum(diff * diff, axis=2)
    np.fill_diagonal(d2, np.inf)
    return d2


def _update_rows(d2: np.ndarray, design: np.ndarray, i1: int, i2: int) -> None:
    for i in (i1, i2):
        row = np.sum((design - design[i]) ** 2, axis=1)
        row[i] = np.inf
        d2[i] = row
        d2[:, i] = row


def generate_data(bench: Benchmark, design: np.ndarray, noise_mult: float,
                  rng) -> Dataset:
    """Observations f(x) + noise with per-output variance scaled off the
    benchmark's variance constants."""
    if noise_mult < 0:
        raise ValueError("noise multiplier must be nonnegative")
    design = np.asarray(design, dtype=float)
    f = bench.evaluate(design)
    if noise_mult > 0:
        if bench.output_variances is None:
            raise ValueError(f"benchmark {bench.name!r} has no variance constants for noise")
        gen = as_generator(rng)
        sd = np.sqrt(noise_mult * np.asarray(bench.output_variances))
        f = f + gen.standard_normal(f.shape) * sd
    return Dataset(design, f, bench.domain)


@dataclass(frozen=True)
class Scenario:
    """One cell of the simulation grid, plus desk-scale knobs."""

    benchmark: str
    n: int
    noise_mult: float = 0.0
    replicates: int = 1
    alpha_rs: float = 0.25
    alpha_mbd: float = 0.5
    mbd_cuts: int = 201
    bart: BartConfig = field(default_factory=BartConfig)
    seed: int = 0
    lhs_restarts: int = 8
    truth_samples: int = 1000

    def __post_init__(self):
        for name in ("replicates", "lhs_restarts"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name}={getattr(self, name)} must be >= 1")
        if self.n < 2 * self.bart.min_leaf_obs:
            raise ValueError("sample size too small for the leaf-size floor")
        if self.noise_mult < 0:
            raise ValueError("noise multiplier must be nonnegative")
        for name in ("alpha_rs", "alpha_mbd"):
            if not 0.0 < getattr(self, name) < 1.0:
                raise ValueError(f"{name}={getattr(self, name)} must be in (0, 1)")
        require_rs_band(self.bart.n_draws, self.alpha_rs)


@dataclass(frozen=True)
class CoverageRow:
    replicate: int
    method: str
    target: str
    overcoverage: float
    undercoverage: float


@dataclass(frozen=True)
class ReplicateArtifacts:
    replicate: int
    objective_box: ObjectiveBox  # span of the replicate's training outputs
    rs_cloud: PFCloud
    rs_ps: PSCloud
    mbd_cloud: PFCloud
    mbd_ps: PSCloud
    depths: DepthResult


@dataclass(frozen=True)
class ScenarioReport:
    scenario: Scenario
    rows: tuple[CoverageRow, ...]
    artifacts: tuple[ReplicateArtifacts, ...]
    timings: dict

    def median(self, method: str, target: str, metric: str) -> float:
        vals = [
            getattr(r, metric)
            for r in self.rows
            if r.method == method and r.target == target
        ]
        return float(np.median(vals))


def extract_cpfs(draws, output_map: Optional[Callable] = None
                 ) -> Iterator[tuple[int, ImageAtlas, CPF]]:
    """Index, atlas and exact front of each posterior draw, one draw at a time.

    A generator: a draw's atlas is built only when the caller asks for the
    next draw, and the generator drops its own reference before building the
    next one, so a caller that keeps no atlas holds one at a time.

    ``output_map``, if given, maps each atlas's values before the front is
    taken; it must be increasing in every output, so that it carries fronts
    to fronts, and the atlases yielded hold the mapped values.
    """
    for i, draw in enumerate(draws):
        atlas = multi_cells(draw.me)
        if output_map is not None:
            atlas = atlas.with_alphas(output_map(atlas.alphas))
        yield i, atlas, CPF.from_result(i, pf_ps(atlas))
        del atlas


def _fronts(draws, output_map: Optional[Callable] = None) -> list[CPF]:
    """Every draw's front and set boxes, with one full atlas alive at a time."""
    cpfs: list[CPF] = []
    for _, atlas, cpf in extract_cpfs(draws, output_map):
        cpfs.append(cpf)
        del atlas  # before the next draw's atlas is built
    return cpfs


def _replicate_run(bench: Benchmark, sc: Scenario, rep: int):
    ss = np.random.SeedSequence([sc.seed, rep])
    s_design, s_noise, s_fit = ss.spawn(3)
    design = maximin_lhs(sc.n, bench.p, s_design, sc.lhs_restarts)
    data = generate_data(bench, design, sc.noise_mult, s_noise)
    draws = fit_multi_bart(data, sc.bart, s_fit)
    cpfs = _fronts(draws)

    rs_cloud = pf_cloud_rs(cpfs, sc.alpha_rs)
    if len(rs_cloud) == 0:
        raise RuntimeError(
            f"replicate {rep}: no front point fell in the attainment band"
        )
    depth_res = modified_band_depth(cpfs, sc.mbd_cuts)
    mbd_cloud = pf_cloud_mbd(cpfs, depth_res, sc.alpha_mbd)
    rs_ps = ps_cloud(rs_cloud, cpfs)
    mbd_ps = ps_cloud(mbd_cloud, cpfs)
    obox = ObjectiveBox.from_points(data.outputs)
    return ReplicateArtifacts(rep, obox, rs_cloud, rs_ps, mbd_cloud, mbd_ps, depth_res)


def run_scenario(sc: Scenario) -> ScenarioReport:
    """Full replicate loop with coverage metrics against the analytic truth."""
    bench = unit_scale(get_benchmark(sc.benchmark))
    truth_front = bench.true_front(sc.truth_samples)
    truth_set = bench.true_set(sc.truth_samples)

    rows: list[CoverageRow] = []
    artifacts: list[ReplicateArtifacts] = []
    timings: dict = {}
    t0 = time.perf_counter()
    for rep in range(sc.replicates):
        t_rep = time.perf_counter()
        art = _replicate_run(bench, sc, rep)
        artifacts.append(art)
        for method, cloud, psc in (
            ("rs", art.rs_cloud, art.rs_ps),
            ("mbd", art.mbd_cloud, art.mbd_ps),
        ):
            pf_over, pf_under = coverage(cloud.objectives(), truth_front)
            ps_pts = ps_cloud_to_points(psc)
            ps_over, ps_under = coverage(ps_pts, truth_set)
            rows.append(CoverageRow(rep, method, "pf", pf_over, pf_under))
            rows.append(CoverageRow(rep, method, "ps", ps_over, ps_under))
        timings[f"replicate_{rep}"] = time.perf_counter() - t_rep
    timings["total"] = time.perf_counter() - t0
    return ScenarioReport(sc, tuple(rows), tuple(artifacts), timings)


@dataclass(frozen=True)
class TurningResult:
    cloud: PFCloud
    ps: PSCloud
    depths: DepthResult
    overcoverage: float
    undercoverage: float


def run_turning(
    n: int = 1500,
    draws: int = 2000,
    burn: int = 1000,
    seed: int = 0,
    alpha_mbd: float = 0.5,
    mbd_cuts: int = 201,
    lhs_restarts: int = 4,
    m: int = 30,
) -> TurningResult:
    """Machining-cost study: fit in log-cost space, report in cost space.

    Both costs have sharp peaks near the low-speed/low-feed corner, so the
    ensembles are trained on log costs; the exponential is applied to the
    atlas values before front extraction, which is sound because the map is
    increasing and cells are constants.  Depth-based UQ only.
    """
    if n < 100:
        raise ValueError("turning study needs at least 100 design points")
    bench = get_benchmark("turning")
    ss = np.random.SeedSequence([seed])
    s_design, s_fit = ss.spawn(2)

    unit = maximin_lhs(n, bench.p, s_design, lhs_restarts)
    design = bench.domain.lo + (bench.domain.hi - bench.domain.lo) * unit
    costs = bench.evaluate(design)
    data = Dataset(design, np.log(costs), bench.domain)

    cfg = BartConfig(m=m, n_burn=burn, n_draws=draws)
    posterior = fit_multi_bart(data, cfg, s_fit)

    cpfs = _fronts(posterior, np.exp)
    depth_res = modified_band_depth(cpfs, mbd_cuts)
    cloud = pf_cloud_mbd(cpfs, depth_res, alpha_mbd)
    psc = ps_cloud(cloud, cpfs)

    # score in unit-scaled objective space so the two costs weigh equally
    ranges = bench.output_ranges()
    lo = np.array([r[0] for r in ranges])
    span = np.array([r[1] - r[0] for r in ranges])
    scaled_cloud = (cloud.objectives() - lo) / span
    truth = unit_scale(bench).true_front(1000)
    over, under = coverage(scaled_cloud, truth)
    return TurningResult(cloud, psc, depth_res, over, under)
