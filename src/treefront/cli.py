"""Command-line entry points: fit, extract, uq, metrics, simulate."""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from . import fileio
from .atlas import multi_cells
from .band_depth import modified_band_depth, pf_cloud_mbd
from .benchmarks import get_benchmark
from .harness import Scenario, extract_cpfs, run_scenario
from .metrics import coverage
from .pareto import pf_ps
from .random_sets import CPF, pf_cloud_rs, ps_cloud, require_rs_band
from .sampler import BartConfig, Dataset, fit_multi_bart
from .trees import Domain


def _bart_config(args) -> BartConfig:
    return BartConfig(
        m=args.m,
        kappa=args.kappa,
        nu=args.nu,
        lam=getattr(args, "lambda"),
        n_cutpoints=args.cuts,
        min_leaf_obs=args.min_leaf,
        n_burn=args.burn,
        n_draws=args.draws,
    )


def _add_bart_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--m", type=int, default=30)
    parser.add_argument("--kappa", type=float, default=1.0)
    parser.add_argument("--nu", type=float, default=3.0)
    parser.add_argument("--lambda", type=float, default=0.0001)
    parser.add_argument("--cuts", type=int, default=30)
    parser.add_argument("--min-leaf", type=int, default=10, dest="min_leaf")
    parser.add_argument("--burn", type=int, default=1000)
    parser.add_argument("--draws", type=int, default=500)
    parser.add_argument("--seed", type=int, default=0)


def cmd_fit(args) -> int:
    X, Y = fileio.read_dataset_csv(args.data)
    # the training table is the only information available, so the model
    # domain is the observed bounding box of the inputs
    domain = Domain(tuple((float(lo), float(hi)) for lo, hi in zip(X.min(0), X.max(0))))
    dataset = Dataset(X, Y, domain)
    draws = fit_multi_bart(dataset, _bart_config(args), args.seed)
    fileio.write_draws(args.out, draws)
    print(f"wrote {len(draws)} draws to {args.out}")
    return 0


def cmd_extract(args) -> int:
    draws = fileio.read_draws(args.draws_file)
    # both are generators, so each atlas is written and dropped before the
    # next one is built
    if args.front:
        entries = extract_cpfs(draws)
    else:
        entries = ((i, multi_cells(draw.me), None) for i, draw in enumerate(draws))
    fileio.write_atlas_file(args.out, entries)
    print(f"wrote {len(draws)} atlases to {args.out}")
    return 0


def cmd_uq(args) -> int:
    cpfs = []
    for i, atlas in fileio.read_atlas_file(args.atlas):
        cpfs.append(CPF.from_result(i, pf_ps(atlas)))
        d, p = atlas.d, atlas.domain.p
        del atlas  # before the next record's atlas is built
    if args.method == "rs":
        require_rs_band(len(cpfs), args.alpha)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if args.method == "rs":
        cloud = pf_cloud_rs(cpfs, args.alpha)
        fileio.write_pf_cloud_csv(out_dir / "rs_pf_cloud.csv", cloud, "eaf", d)
        fileio.write_ps_boxes_csv(out_dir / "rs_ps_boxes.csv", ps_cloud(cloud, cpfs), p)
    elif args.method == "mbd":
        depths = modified_band_depth(cpfs, args.cuts)
        cloud = pf_cloud_mbd(cpfs, depths, args.alpha)
        fileio.write_pf_cloud_csv(out_dir / "mbd_pf_cloud.csv", cloud, "depth_rank", d)
        fileio.write_ps_boxes_csv(out_dir / "mbd_ps_boxes.csv", ps_cloud(cloud, cpfs), p)
        fileio.write_depths_csv(
            out_dir / "depths.csv", [c.draw_index for c in cpfs], depths.depths
        )
    else:
        raise ValueError(f"unknown method {args.method!r}")
    print(f"wrote {args.method} cloud ({len(cloud)} points) to {out_dir}")
    return 0


def cmd_metrics(args) -> int:
    cloud = fileio.read_points_csv(args.cloud)
    truth = fileio.read_points_csv(args.truth)
    over, under = coverage(cloud, truth)
    fileio.write_csv(args.out, ["overcoverage", "undercoverage"], [[over, under]])
    print(f"overcoverage={over!r} undercoverage={under!r}")
    return 0


def cmd_simulate(args) -> int:
    sc = Scenario(
        benchmark=args.bench,
        n=args.n,
        noise_mult=args.noise,
        replicates=args.reps,
        alpha_rs=args.alpha_rs,
        alpha_mbd=args.alpha_mbd,
        mbd_cuts=args.mbd_cuts,
        bart=BartConfig(m=args.m, n_burn=args.burn, n_draws=args.draws),
        seed=args.seed,
    )
    report = run_scenario(sc)
    bench = get_benchmark(sc.benchmark)
    out_dir = Path(args.out)
    clouds = out_dir / "clouds"
    clouds.mkdir(parents=True, exist_ok=True)

    rows = [
        [r.replicate, r.method, r.target, r.overcoverage, r.undercoverage]
        for r in report.rows
    ]
    fileio.write_csv(
        out_dir / "report.csv",
        ["replicate", "method", "target", "overcoverage", "undercoverage"],
        rows,
    )
    for art in report.artifacts:
        tag = f"rep{art.replicate:03d}"
        fileio.write_pf_cloud_csv(clouds / f"{tag}_rs_pf.csv", art.rs_cloud, "eaf", bench.d)
        fileio.write_ps_boxes_csv(clouds / f"{tag}_rs_ps_boxes.csv", art.rs_ps, bench.p)
        fileio.write_pf_cloud_csv(clouds / f"{tag}_mbd_pf.csv", art.mbd_cloud, "depth_rank",
                                  bench.d)
        fileio.write_ps_boxes_csv(clouds / f"{tag}_mbd_ps_boxes.csv", art.mbd_ps, bench.p)
        fileio.write_depths_csv(
            clouds / f"{tag}_depths.csv",
            range(len(art.depths.depths)),
            art.depths.depths,
        )
    config = dataclasses.asdict(sc)
    with open(out_dir / "config.json", "w", newline="\n") as fh:
        json.dump(config, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for method in ("rs", "mbd"):
        for target in ("pf", "ps"):
            med_o = report.median(method, target, "overcoverage")
            med_u = report.median(method, target, "undercoverage")
            print(f"{method} {target}: median overcoverage={med_o:.4f} undercoverage={med_u:.4f}")
    print(f"timing: total={report.timings['total']:.1f}s")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treefront",
        description="Pareto front/set estimation with tree-ensemble posteriors",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="fit per-output ensembles to a CSV dataset")
    p_fit.add_argument("--data", required=True, help="CSV with columns x1..xp,y1..yd")
    p_fit.add_argument("--out", required=True, help="output draws file (JSON lines)")
    _add_bart_flags(p_fit)
    p_fit.set_defaults(func=cmd_fit)

    p_ext = sub.add_parser("extract", help="image cells (and fronts) of each draw")
    p_ext.add_argument("--draws", required=True, dest="draws_file")
    p_ext.add_argument("--out", required=True)
    p_ext.add_argument("--front", action="store_true", help="include front/set per draw")
    p_ext.set_defaults(func=cmd_extract)

    p_uq = sub.add_parser("uq", help="uncertainty clouds from an atlas file")
    p_uq.add_argument("--atlas", required=True)
    p_uq.add_argument("--method", choices=["rs", "mbd"], required=True)
    p_uq.add_argument("--alpha", type=float, required=True)
    p_uq.add_argument("--cuts", type=int, default=201, help="cut lines per axis (mbd)")
    p_uq.add_argument("--out-dir", default=".", dest="out_dir")
    p_uq.set_defaults(func=cmd_uq)

    p_met = sub.add_parser("metrics", help="coverage of a cloud CSV against a truth CSV")
    p_met.add_argument("--cloud", required=True)
    p_met.add_argument("--truth", required=True)
    p_met.add_argument("--out", required=True)
    p_met.set_defaults(func=cmd_metrics)

    p_sim = sub.add_parser("simulate", help="replicated benchmark scenario")
    p_sim.add_argument("--bench", required=True)
    p_sim.add_argument("--n", type=int, required=True)
    p_sim.add_argument("--noise", type=float, default=0.0)
    p_sim.add_argument("--reps", type=int, default=1)
    p_sim.add_argument("--draws", type=int, default=500)
    p_sim.add_argument("--burn", type=int, default=1000)
    p_sim.add_argument("--m", type=int, default=30)
    p_sim.add_argument("--alpha-rs", type=float, default=0.25, dest="alpha_rs")
    p_sim.add_argument("--alpha-mbd", type=float, default=0.5, dest="alpha_mbd")
    p_sim.add_argument("--mbd-cuts", type=int, default=201, dest="mbd_cuts")
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--out", required=True)
    p_sim.set_defaults(func=cmd_simulate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # diagnostic line + nonzero exit, no traceback spam
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
