"""One benchmark process: set up a workload, time whole rounds, check outputs.

Started by run.py with treefront's sources on PYTHONPATH and every BLAS and
OpenMP pool pinned to one thread.  It writes one JSON object to --result:

* --setup-only: {"setup_s"} and nothing else is run;
* --trace 0: setup_s, the mean round wall time, peak resident set, counts;
* --trace 1: rounds alternate untraced and traced; the per-layer metrics of
  the fastest traced round, the tracing overhead, and a trace file.

After the timed rounds one more round runs with its calls captured, and its
outputs are checked.  Every timed round must reproduce that round's outputs
exactly, so the checks speak for all of them.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path
from time import perf_counter

import tracing
import workloads


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--t0", type=float, required=True, help="time.monotonic() when the process was started")
    p.add_argument("--workdir", required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--trace-file")
    p.add_argument("--setup-only", action="store_true")
    return p.parse_args(argv)


def timed_rounds(wl, inputs, seconds, trace):
    """Whole rounds until `seconds` have passed (at least two of each kind)."""
    rounds = []  # dicts: wall_s, traced, fingerprint, metrics, spans
    start = perf_counter()
    while True:
        traced = bool(trace) and len(rounds) % 2 == 1
        tracer = tracing.Tracer(record=traced)
        if traced:
            tracer.install()
        try:
            t0 = perf_counter()
            with tracer.span("bench.round"):
                out = wl.run(inputs, tracer)
            wall = perf_counter() - t0
        finally:
            tracer.uninstall()
        rnd = {"wall_s": wall, "traced": traced, "fingerprint": wl.fingerprint(out, inputs)}
        del out
        if traced:
            rnd["metrics"] = tracing.layer_metrics(tracer)
            rnd["spans"] = tracer.spans
            rnd["missing"] = tracer.missing
        rounds.append(rnd)
        kinds = 2 if trace else 1
        if perf_counter() - start >= seconds and len(rounds) >= 2 * kinds:
            return rounds


def checked_round(wl, inputs):
    """One more round with every call captured, then the output checks."""
    tracer = tracing.Tracer(record=False, capture=True)
    tracer.install()
    try:
        out = wl.run(inputs, tracer)
    finally:
        tracer.uninstall()
    return wl.fingerprint(out, inputs), wl.check(inputs, out, tracer.calls)


def trace_report(wl, args, rounds):
    """Per-layer metrics of the fastest traced round, plus the trace file."""
    plain = [r["wall_s"] for r in rounds if not r["traced"]]
    traced = [r for r in rounds if r["traced"]]
    best = min(traced, key=lambda r: r["wall_s"])
    spans = best["spans"]
    untraced_wall = min(plain)
    metrics = dict(best["metrics"])
    metrics["trace.wall_s"] = best["wall_s"]
    metrics["trace.overhead_s"] = best["wall_s"] - untraced_wall
    own = tracing.self_times(spans)
    metrics["trace.unattributed_s"] = sum(o for s, o in zip(spans, own) if s[0] == "bench.round")
    layers = tracing.layer_self_times(spans)
    layer_sum = sum(v for k, v in layers.items() if k != "bench")
    print(f"{wl.name}: tracing overhead {metrics['trace.overhead_s']:.4f} s "
          f"(fastest traced round {best['wall_s']:.4f} s, fastest untraced {untraced_wall:.4f} s); "
          f"layer self times sum to {layer_sum:.4f} s")
    if best["missing"]:
        print(f"{wl.name}: not traced, missing from treefront: {', '.join(best['missing'])}")
    if args.trace_file:
        t0 = spans[0][1] if spans else 0.0
        doc = {
            "workload": wl.name,
            "seed": args.seed,
            "round_walls_s": [{"wall_s": r["wall_s"], "traced": r["traced"]} for r in rounds],
            "per_layer": metrics,
            "layer_self_s": layers,
            "span_table": tracing.span_table(spans),
            "spans": [[name, start - t0, end - t0, parent] for name, start, end, parent in spans],
        }
        path = Path(args.trace_file)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc, indent=1) + "\n")
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    wl = workloads.WORKLOADS[args.workload]
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    inputs = wl.setup(args.seed, workdir)
    setup_s = time.monotonic() - args.t0
    result = {"setup_s": setup_s}
    if args.setup_only:
        Path(args.result).write_text(json.dumps(result))
        return 0

    n_stages = len(wl.stages)
    try:
        rounds = timed_rounds(wl, inputs, args.seconds, args.trace)
    except Exception:  # a program fault: report it as failed operations
        traceback.print_exc()
        result.update(correct=False, attempted=n_stages, failed=n_stages, metrics={})
        Path(args.result).write_text(json.dumps(result))
        return 0
    peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    fingerprint, failures = checked_round(wl, inputs)
    bad_stages = sum(1 for msgs in failures.values() if msgs)
    for stage, msgs in failures.items():
        for msg in msgs:
            print(f"{wl.name}: check failed in {stage}: {msg}", file=sys.stderr)
    failed = bad_stages
    for r in rounds:
        if r["fingerprint"] != fingerprint:
            print(f"{wl.name}: a timed round's outputs differ from the checked round's", file=sys.stderr)
            failed += n_stages
        else:
            failed += bad_stages
    result.update(correct=failed == 0, attempted=(len(rounds) + 1) * n_stages, failed=failed)
    if args.trace:
        result["metrics"] = trace_report(wl, args, rounds)
    else:
        walls = [r["wall_s"] for r in rounds]
        # the mean, not the median: the host's speed changes in phases of
        # seconds to a minute, and the mean weighs each phase by its length
        # where the median of a few rounds jumps from one phase to another
        result["metrics"] = {"wall_s": statistics.fmean(walls), "peak_rss_mib": peak_mib}
        result["rounds"] = walls
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
