"""Regenerate references.json: Monte-Carlo artifact digests and the exact counts.

    python3 perfbench/make_references.py

Digests are recorded for every CLI seed 0..REFERENCE_SEEDS-1 of each workload
with Monte-Carlo artifacts, from a --workers nproc pass whose values pass the
gate.  Rerun it only when the workloads change, or when a change to the random
stream is deliberate and documented; otherwise a digest mismatch is a failure.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import gate
import workloads
from run import HERE, ROOT, run_child


def main() -> int:
    digests, problems = {}, []
    (ROOT / ".perfbench_out").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=ROOT / ".perfbench_out"))
    try:
        for workload in ("paper-tables", "wide-agents"):
            for seed in range(workloads.REFERENCE_SEEDS):
                calls = workloads.build(workload, seed)
                outdir = work / f"{workload}-{seed}"
                rcs = run_child(workload, seed, workloads.NPROC, outdir)["rcs"]
                texts = {c.name: (outdir / f"{c.name}.csv").read_text() for c in calls if rcs[c.name] == 0}
                problems += [p for c in calls for p in (gate.check_content(c, texts[c.name]) if c.name in texts
                                                        else [f"{c.name}: exit code {rcs[c.name]}"])]
                digests.setdefault(workload, {})[str(seed)] = {
                    c.name: gate.digest(texts[c.name]) for c in calls if c.digest and c.name in texts
                }
                print(workload, seed, file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1
    counts = {w: workloads.expected_counts(workloads.build(w, 0)) for w in workloads.WORKLOADS}
    (HERE / "references.json").write_text(json.dumps({"digests": digests, "counts": counts}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
