"""Run every workload repeatedly and report how steady each end-to-end metric is.

    python3 perfbench/steady.py --runs 10          # steadiness check
    python3 perfbench/steady.py --runs 1           # one run of each workload

Run k of every workload in BENCHMARK.json uses seed k (1..--runs) and its
run_seconds; workloads take turns so that a slow spell of the machine is
shared among them.  For each workload and end-to-end metric it prints the
median, the quartiles (statistics.quantiles, n=4) and the spread
(q3 - q1) / median next to the metric's bound from BENCHMARK.json, plus
operations attempted and failed.  With --out the raw results are written as
JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return dict(json.loads(lines[-1]), log=lines[:-1])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description="steadiness of the end-to-end metrics")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--out", help="write every run's result here as JSON")
    args = p.parse_args(argv)
    names = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    results = {w: [] for w in names}
    for seed in range(1, args.runs + 1):
        for w in names:
            res = run_once(w, seed, seconds)
            results[w].append(res)
            vals = ", ".join(f"{m}={v['value']:.4f} {v['unit']}" for m, v in res["metrics"].items())
            print(f"run {seed}/{args.runs} {w} seed {seed}: {vals}; "
                  f"attempted {res['attempted']}, failed {res['failed']}, correct {res['correct']}",
                  flush=True)

    steady = True
    print(f"\n{'workload':<15}{'metric':<14}{'unit':<6}{'median':>11}{'q1':>11}{'q3':>11}"
          f"{'spread':>9}{'bound':>7}  verdict")
    for w in names:
        runs = results[w]
        if set(runs[0]["metrics"]) != set(bounds):
            print(f"{w}: metrics {sorted(runs[0]['metrics'])} differ from BENCHMARK.json {sorted(bounds)}")
            steady = False
        for m in bounds:
            vals = [r["metrics"][m]["value"] for r in runs if m in r["metrics"]]
            if not vals:
                continue
            q1, med, q3 = quartiles(vals)
            spread = (q3 - q1) / med
            # process start is noisier than the timed work: setup_s needs a
            # spread inside its bound, the others under a third of it
            ok = spread < (bounds[m] if m == "setup_s" else bounds[m] / 3)
            steady &= ok
            unit = runs[0]["metrics"][m]["unit"]
            print(f"{w:<15}{m:<14}{unit:<6}{med:>11.4f}{q1:>11.4f}{q3:>11.4f}{spread:>9.3f}"
                  f"{bounds[m]:>7.2f}  {'ok' if ok else 'UNSTEADY'}")
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        correct = all(r["correct"] for r in runs)
        print(f"{w:<15}operations: attempted {sum(r['attempted'] for r in runs)}, "
              f"failed {sum(r['failed'] for r in runs)}, failed shares {shares}, all correct {correct}")
        steady &= correct and len(shares) == 1
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps({"seconds": seconds, "results": results}, indent=1) + "\n")
    print("\nsteady" if steady else "\nNOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
