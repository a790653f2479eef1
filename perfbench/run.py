"""Benchmark of treefront's exact-front pipeline, one workload per call.

    python3 perfbench/run.py --workload dtlz2m_p4 --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout.  Each workload runs in fresh worker
processes with treefront imported from src/ and BLAS/OpenMP pinned to one
thread.  With --trace 0 the last line of output is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {setup_s, wall_s, peak_rss_mib}}

and with --trace 1 the metrics are the per-layer ones, and the spans go to
perfbench/traces/<workload>-seed<seed>.json.  setup_s is the median over
several worker starts: the extra ones set up and exit.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("dtlz2m_p4", "mop2_cli")
SETUPS = 9  # worker starts whose set-up time is measured, the timed one included
TIME_LIMIT_S = 170.0  # whole run, set-ups and the checked round included

UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mib": "MiB"}


def worker_env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(args, workdir: Path, extra: list, timeout: float) -> dict:
    result = workdir / "result.json"
    result.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", str(workdir), "--result", str(result)] + extra
    cmd += ["--t0", repr(time.monotonic())]
    proc = subprocess.run(cmd, env=worker_env(), timeout=timeout)
    if proc.returncode != 0 or not result.is_file():
        raise RuntimeError(f"worker for {args.workload} exited with {proc.returncode}")
    return json.loads(result.read_text())


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="treefront pipeline benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "treefront" / "__init__.py").is_file():
        print(f"perfbench: no treefront sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + TIME_LIMIT_S
    workdir = HERE / "_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUPS - 1):
                setups.append(run_worker(args, workdir, ["--setup-only"],
                                         deadline - time.monotonic())["setup_s"])
        extra = []
        if args.trace:
            extra = ["--trace-file", str(HERE / "traces" / f"{args.workload}-seed{args.seed}.json")]
        res = run_worker(args, workdir, extra, deadline - time.monotonic())
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        metrics = {k: {"value": res["metrics"].get(k, 0.0), "unit": unit}
                   for k, (unit, _) in tracing.PER_LAYER.items()}
    else:
        setups.append(res["setup_s"])
        values = dict(res["metrics"], setup_s=statistics.median(setups))
        metrics = {k: {"value": values[k], "unit": UNITS[k]} for k in UNITS if k in values}
        if "rounds" in res:
            print(f"{args.workload}: {len(res['rounds'])} rounds, wall_s mean of "
                  f"{[round(w, 4) for w in res['rounds']]}; setup_s median of "
                  f"{[round(s, 4) for s in setups]}")
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
