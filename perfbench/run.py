"""coopsearch benchmark: end-to-end metrics, or per-layer metrics from a traced run.

    python3 perfbench/run.py --workload paper-tables --seed 0 --seconds 55 --trace 0

Run it from the root of a checkout: each pass runs in a fresh interpreter that
imports coopsearch from ./src, one process at a time, with at most nproc worker
threads.  --trace 0 repeats rounds of set-up probes, a --workers nproc pass and a
--workers 1 pass for about --seconds; --trace 1 makes one untraced and one traced
pass, both at --workers 1.  Every artifact goes through the correctness gate
(gate.py).  The last line of stdout is the result; the line before it holds
provenance, the samples behind each metric and the gate's findings.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import gate
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PER_PAIR = 2
PASS_SECONDS = 3.0  # a measuring child repeats its pass until it has timed this long
CHILD_TIMEOUT_S = 150
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "wall_s_1w": "s",
    "scaling_eff": "ratio",
    "trials_per_s": "1/s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "cli.parse_s": "s",
    "cli.render_s": "s",
    "cli.self_s": "s",
    "harness.plans": "count",
    "harness.chunks": "count",
    "harness.self_s": "s",
    "harness.self_ms_per_chunk": "ms",
    "model.sample_calls": "count",
    "model.sample_ms_per_chunk": "ms",
    **{f"simulation.{k}.{m}": u for k in ("one_directional", "two_directional", "grouped", "proportional")
       for m, u in (("calls", "count"), ("ms_per_chunk", "ms"))},
    "simulation.agent_trials": "count",
    "simulation.bytes_computed": "bytes",
    "allocation.estimate_length_pmf_s": "s",
    "allocation.gap_samples": "count",
    "analytics.speed_sum_inverse_mean_s": "s",
    "analytics.speed_sum_inverse_mean_calls": "count",
    "analytics.terms": "count",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}


class BenchError(RuntimeError):
    """The benchmark could not measure; no result is printed."""


def child_env() -> dict[str, str]:
    return {**os.environ, "PYTHONPATH": str(ROOT / "src")}


def run_child(workload: str, seed: int, workers: int, outdir: Path, *options: str) -> dict:
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload, "--seed", str(seed),
           "--workers", str(workers), "--outdir", str(outdir), *options]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=child_env(), timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"pass failed with exit code {proc.returncode}: {' '.join(cmd)}")
    return json.loads(proc.stdout.splitlines()[-1])


def setup_time(argv) -> float:
    """Seconds from spawning an interpreter to its first parsed CLI config."""
    code = f"import coopsearch\nfrom coopsearch.cli import parse_config\nparse_config({list(argv)!r})\nprint('ready', flush=True)"
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE, text=True, env=child_env()) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.wait(timeout=CHILD_TIMEOUT_S)
    if line.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"set-up probe failed with exit code {proc.returncode}")
    return elapsed


def summary(values: list[float]) -> dict:
    """Median, sample count, and the highest percentile with at least ten samples above it."""
    out = {"median": statistics.median(values), "n": len(values), "percentile": None, "samples": values}
    for q in (99, 95, 90, 75, 50):
        if len(values) * (1 - q / 100) >= 10:
            out["percentile"] = {f"p{q}": statistics.quantiles(values, n=100)[q - 1]}
            break
    return out


def measure(args, calls, check: gate.Tally, work: Path) -> dict:
    """Alternate set-up probes, a --workers nproc pass and a --workers 1 pass.

    A wall metric is the sum over calls of each call's fastest time in the run.
    Contention from other tenants of a shared machine only ever slows a call, and
    comes in bursts, so the fastest of a call's samples varies far less from run
    to run than their median does.
    """
    setup, passes, rss = [], {"nproc": [], "1w": []}, []
    start = time.perf_counter()
    while True:
        pair_start = time.perf_counter()
        setup += [setup_time(calls[0].argv) for _ in range(SETUP_PER_PAIR)]
        dirs = {label: work / f"{label}-{len(rss)}" for label in passes}
        pair = {label: run_child(args.workload, args.seed, workers, dirs[label], "--min-seconds", str(PASS_SECONDS))
                for label, workers in (("nproc", workloads.NPROC), ("1w", 1))}
        check.record(dirs["1w"], pair["1w"])
        check.record(dirs["nproc"], pair["nproc"], same_as=dirs["1w"])
        for label, result in pair.items():
            passes[label].append(result)
            shutil.rmtree(dirs[label])
        rss.append(pair["1w"]["peak_rss_mb"])
        if time.perf_counter() - start + (time.perf_counter() - pair_start) > args.seconds:
            break
    walls = {label: sum(min(t for p in runs for t in p["call_s"][c.name]) for c in calls)
             for label, runs in passes.items()}
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": walls["nproc"],
        "wall_s_1w": walls["1w"],
        "scaling_eff": walls["1w"] / (workloads.NPROC * walls["nproc"]),
        "trials_per_s": sum(p.trials for c in calls for p in c.plans) / walls["nproc"],
        "peak_rss_mb": statistics.median(rss),
    }
    samples = {"setup_s": setup, "pass_s": [t for p in passes["nproc"] for t in p["wall_s"]],
               "pass_s_1w": [t for p in passes["1w"] for t in p["wall_s"]], "peak_rss_mb": rss}
    return {"metrics": metrics, "samples": {k: summary(v) for k, v in samples.items()},
            "python": pair["1w"]["python"], "numpy": pair["1w"]["numpy"]}


def trace(args, calls, check: gate.Tally, work: Path, expected_counts: dict) -> dict:
    one = run_child(args.workload, args.seed, 1, work / "1w")
    traced = run_child(args.workload, args.seed, 1, work / "traced", "--trace")
    check.record(work / "1w", one)
    check.record(work / "traced", traced, same_as=work / "1w")
    if traced["counts"] != expected_counts:
        raise BenchError(f"traced counts {traced['counts']} differ from stored counts {expected_counts}")
    values = {**traced["layers"], **traced["counts"],
              "trace.wall_s": traced["wall_s"][0], "trace.overhead_s": traced["wall_s"][0] - one["wall_s"][0]}
    metrics = {k: values[k] for k in PER_LAYER}
    return {"metrics": metrics, "wall_s_1w": one["wall_s"][0], "counts": traced["counts"],
            "python": one["python"], "numpy": one["numpy"]}


def provenance(args) -> dict:
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "cli_seed": args.seed % workloads.REFERENCE_SEEDS,
        "nproc": workloads.NPROC,
        "commit": commit,
        "src_sha256": src.hexdigest(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (ROOT / "src" / "coopsearch" / "__init__.py").is_file():
        print(f"perfbench: no coopsearch sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    references = json.loads((HERE / "references.json").read_text())
    digests = references["digests"].get(args.workload, {}).get(str(args.seed % workloads.REFERENCE_SEEDS))
    calls = workloads.build(args.workload, args.seed)
    check = gate.Tally(calls, digests)
    (ROOT / ".perfbench_out").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=ROOT / ".perfbench_out"))
    try:
        if args.trace:
            detail = trace(args, calls, check, work, references["counts"][args.workload])
        else:
            detail = measure(args, calls, check, work)
    except (BenchError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    units = PER_LAYER if args.trace else END_TO_END
    metrics = {k: {"value": v, "unit": units[k]} for k, v in detail.pop("metrics").items()}
    detail.update(provenance(args), failed_frac=check.failed / check.attempted, problems=check.problems[:50])
    print(json.dumps(detail))
    print(json.dumps({"correct": check.failed == 0, "attempted": check.attempted, "failed": check.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
