"""Regenerate every headline table as plot-ready CSV.

Each output file carries a `# config:` line that regenerates it byte for byte
through the `coopsearch` CLI.  Full scale (a million trials per point) takes a
few minutes; pass --trials 100000 for a quick pass.
"""

import argparse
import sys
from pathlib import Path

from coopsearch.cli import main as cli_main

HOMOGENEOUS_METHODS = ("equal", "semi-equal", "random")
HETEROGENEOUS_STRATEGIES = (
    "one-directional",
    "two-directional",
    "grouped-2",
    "grouped-3",
    "grouped-4",
    "proportional",
)
MATCHED_COUNTS = "grouped-1:23,grouped-2:14,grouped-3:12,grouped-4:11,proportional:10"


def run(argv: list[str], out: Path) -> None:
    rc = cli_main(argv + ["--output", str(out)])
    if rc != 0:
        sys.exit(f"command failed ({rc}): {' '.join(argv)}")
    print(out)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", type=Path, default=Path("results"))
    parser.add_argument("--trials", type=int, default=1_000_000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workers", type=int, default=None)
    args = parser.parse_args()

    args.outdir.mkdir(parents=True, exist_ok=True)
    common = ["--trials", str(args.trials), "--seed", str(args.seed)]
    if args.workers is not None:
        common += ["--workers", str(args.workers)]

    # gap-length histograms under random starts, estimate next to the exact law
    run(["pl-hist", "--agents", "2,5,10,20,30"] + common, args.outdir / "gap_histograms.csv")

    # homogeneous agents (V=1): the three division methods, analytic overlay
    for method in HOMOGENEOUS_METHODS:
        run(
            ["sweep", "--agents", "2:32", "--strategy", method, "--speeds", "1.0", "--with-analytic"]
            + common,
            args.outdir / f"homogeneous_{method.replace('-', '_')}.csv",
        )

    # heterogeneous agents (default speed pmf): the search strategies
    for strategy in HETEROGENEOUS_STRATEGIES:
        run(
            ["sweep", "--agents", "4:32:4", "--strategy", strategy] + common,
            args.outdir / f"heterogeneous_{strategy.replace('-', '_')}.csv",
        )

    # agent counts matched so the strategies deliver comparable mean times
    run(["compare", "--targets", MATCHED_COUNTS] + common, args.outdir / "matched_counts.csv")

    # closed forms alone, no simulation
    for method in ("equal", "semi-equal", "random", "proportional"):
        run(
            ["expected", "--agents", "2:32", "--strategy", method],
            args.outdir / f"closed_form_{method.replace('-', '_')}.csv",
        )


if __name__ == "__main__":
    main()
