"""Run one pass of a workload through coopsearch.cli.main in this process.

    PYTHONPATH=src python3 perfbench/child.py --workload paper-tables --seed 0 \
        --workers 2 --outdir .perfbench_out/pass [--trace]

Writes each call's artifact to OUTDIR/<name>.csv and prints one JSON line: each
call's wall times and exit code, each pass's total (imports excluded), this
process's peak RSS and, with --trace, the layer metrics and exact counts of a
traced pass.  With --min-seconds the pass repeats until the passes add up to
that long, so short workloads give more samples per process.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import time
import traceback
from pathlib import Path

import numpy as np

import tracer as tracing
import workloads


def run_pass(calls, workers: int, outdir: Path, tracer: tracing.Tracer | None = None):
    """Make every call once; return each call's wall time and exit code."""
    from coopsearch import cli

    main = tracer.wrap(cli.main, "cli.main") if tracer else cli.main
    outdir.mkdir(parents=True, exist_ok=True)
    seconds, rcs = {}, {}
    for call in calls:
        argv = [*call.argv, "--workers", str(workers), "--output", str(outdir / f"{call.name}.csv")]
        start = time.perf_counter()
        try:
            rcs[call.name] = main(argv)
        except Exception:  # a crashing call is a failed operation; the pass goes on
            traceback.print_exc()
            rcs[call.name] = -1
        seconds[call.name] = time.perf_counter() - start
    return seconds, rcs


def traced_pass(calls, outdir: Path):
    """One-worker pass with every layer wrapped; raises TraceError on a count mismatch."""
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        seconds, rcs = run_pass(calls, 1, outdir, tracer)
    layers, counts = tracing.layer_metrics(tracer.spans)
    tracing.check_counts(counts, workloads.expected_counts(calls))
    return seconds, rcs, layers, counts


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workers", type=int, required=True)
    parser.add_argument("--outdir", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--min-seconds", type=float, default=0.0,
                        help="repeat the pass until the passes add up to this long")
    args = parser.parse_args()

    calls = workloads.build(args.workload, args.seed)
    result = {}
    if args.trace:
        seconds, rcs, result["layers"], result["counts"] = traced_pass(calls, args.outdir)
        passes = [seconds]
    else:
        passes = []
        while not passes or sum(sum(p.values()) for p in passes) < args.min_seconds:
            seconds, rcs = run_pass(calls, args.workers, args.outdir)
            passes.append(seconds)
    result.update(
        call_s={c.name: [p[c.name] for p in passes] for c in calls},
        wall_s=[sum(p.values()) for p in passes],
        rcs=rcs,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        python=platform.python_version(),
        numpy=np.__version__,
    )
    print(json.dumps(result))


if __name__ == "__main__":
    main()
