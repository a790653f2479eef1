#!/usr/bin/env python3
"""Machining-cost application: depth-based UQ clouds for the turning problem.

Fits the two cost surfaces in log space, extracts exact fronts per posterior
draw, and writes the 50% depth clouds.  The historical comparison point uses
n=15300; n=1500 approximates an expensive-simulator budget.  Full scale
(--n 1500 --draws 2000) takes tens of minutes single-threaded.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from treefront import get_benchmark, run_turning
from treefront.fileio import write_depths_csv, write_pf_cloud_csv, write_ps_boxes_csv


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=1500)
    ap.add_argument("--draws", type=int, default=2000)
    ap.add_argument("--burn", type=int, default=1000)
    ap.add_argument("--alpha-mbd", type=float, default=0.5, dest="alpha_mbd")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", default="turning_results")
    args = ap.parse_args()

    res = run_turning(
        n=args.n, draws=args.draws, burn=args.burn,
        alpha_mbd=args.alpha_mbd, seed=args.seed,
    )
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    bench = get_benchmark("turning")
    write_pf_cloud_csv(out_dir / "pf_cloud.csv", res.cloud, "depth_rank", bench.d)
    write_ps_boxes_csv(out_dir / "ps_boxes.csv", res.ps, bench.p)
    write_depths_csv(out_dir / "depths.csv", range(len(res.depths.depths)), res.depths.depths)
    print(f"cloud: {len(res.cloud)} points, {len(res.ps)} preimage boxes")
    print(f"unit-scaled overcoverage={res.overcoverage:.4f} undercoverage={res.undercoverage:.4f}")
    print(f"wrote {out_dir}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
