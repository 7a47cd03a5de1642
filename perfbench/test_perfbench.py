"""Tiny-scale smoke run of the benchmark's tracer and correctness gate.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import child  # noqa: E402
import gate  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

TRIALS = 40_000  # two chunks, the second one short


def tiny_calls():
    law = workloads.DEFAULT_LAW
    return [
        workloads.pl_hist("gap_histograms", (2, 5), 2000, 0),
        workloads.sweep("homogeneous_random", "random", (2, 3), 1.0, TRIALS, 0, analytic=True),
        workloads.sweep("heterogeneous_grouped_2", "grouped-2", (2, 4), law, TRIALS, 0),
        workloads.compare("matched_counts", (("grouped-1", 3), ("proportional", 3)), law, TRIALS, 0),
        workloads.simulate("wide_two_directional", "two-directional", 5, law, TRIALS, 0),
        workloads.expected("closed_form_proportional", "proportional", (2, 3), workloads.five_atom_law(0)),
    ]


@pytest.fixture(scope="module")
def passes(tmp_path_factory):
    """A --workers 2 pass and a traced --workers 1 pass of the tiny workload."""
    calls = tiny_calls()
    root = tmp_path_factory.mktemp("passes")
    _, rcs_nproc = child.run_pass(calls, 2, root / "nproc")
    _, rcs_1w, layers, counts = child.traced_pass(calls, root / "1w")
    digests = {c.name: gate.digest((root / "1w" / f"{c.name}.csv").read_text()) for c in calls if c.digest}
    return calls, root, {"nproc": rcs_nproc, "1w": rcs_1w}, layers, counts, digests


def gate_failures(calls, root, rcs, digests, nproc_dir=None):
    check = gate.Tally(calls, digests)
    check.record(root / "1w", {"rcs": rcs["1w"]})
    check.record(nproc_dir or root / "nproc", {"rcs": rcs["nproc"]}, same_as=root / "1w")
    return check


def test_clean_passes_have_no_failures(passes):
    calls, root, rcs, _, counts, digests = passes
    check = gate_failures(calls, root, rcs, digests)
    assert (check.attempted, check.failed, check.problems) == (2 * len(calls), 0, [])
    assert counts == workloads.expected_counts(calls)
    assert counts["harness.chunks"] == 2 * counts["harness.plans"]
    assert counts["analytics.terms"] == workloads.compositions(2, 5) + workloads.compositions(3, 5)


def test_corrupted_artifact_fails(passes, tmp_path):
    calls, root, rcs, _, _, digests = passes
    nproc = tmp_path / "nproc"
    shutil.copytree(root / "nproc", nproc)
    path = nproc / "homogeneous_random.csv"
    rows = gate.read_table(path.read_text())
    path.write_text(path.read_text().replace(rows[0]["mean"], repr(2 * float(rows[0]["mean"]))))
    assert gate.check_content(calls[1], path.read_text())  # the z-bound catches it without a digest
    check = gate_failures(calls, root, rcs, digests, nproc)
    assert check.failed == 1 and check.failed / check.attempted > 0


def test_worker_count_mismatch_fails(passes, tmp_path):
    calls, root, rcs, _, _, digests = passes
    nproc = tmp_path / "nproc"
    shutil.copytree(root / "nproc", nproc)
    # a closed-form table has no digest and a blank line leaves its values intact
    with open(nproc / "closed_form_proportional.csv", "a") as f:
        f.write("\n")
    check = gate_failures(calls, root, rcs, digests, nproc)
    assert check.failed == 1
    assert check.problems == ["closed_form_proportional: 1w and nproc artifacts differ"]


def test_missing_span_fails_trace(tmp_path):
    calls = tiny_calls()
    spans = tracer.Tracer()
    with tracer.installed(spans):
        from coopsearch import harness

        harness.one_directional_times = harness.one_directional_times.__wrapped__
        child.run_pass(calls, 1, tmp_path, spans)
    _, counts = tracer.layer_metrics(spans.spans)
    with pytest.raises(tracer.TraceError, match="simulation.one_directional.calls"):
        tracer.check_counts(counts, workloads.expected_counts(calls))


def test_traced_layers_are_reported(passes):
    _, _, _, layers, counts, _ = passes
    reported = set(layers) | set(counts) | {"trace.wall_s", "trace.overhead_s"}
    assert set(run.PER_LAYER) <= reported
    assert layers["model.sample_ms_per_chunk"] > 0 and counts["model.sample_calls"] > 0


def test_metric_names_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)


def test_no_result_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "closed-form", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
