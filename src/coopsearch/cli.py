"""Command-line front end: run the estimators and emit plot-ready tables.

Every output file carries a provenance header whose config line, fed back to the
CLI, regenerates the file byte for byte.  The echo is canonical: defaults are
materialized, agent ranges expanded, and --output/--workers excluded (they do
not affect content).
"""

from __future__ import annotations

import argparse
import json
import shlex
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .allocation import estimate_length_pmf, spacing_pmf_oracle
from .harness import (
    STRATEGIES,
    StrategySpec,
    TrialPlan,
    closed_form,
    compare_strategies,
    method_name,
    parallel_map,
    resolve_method,
    run_trials,
    sweep_m,
)
from .model import RegionSpec, SpeedDistribution

__all__ = [
    "OPTIONS",
    "OutputRecord",
    "cmd_pl_hist",
    "cmd_expected",
    "cmd_simulate",
    "cmd_sweep",
    "cmd_compare",
    "main",
]

DEFAULT_SPEEDS = "0.5:0.3,1.0:0.3,1.375:0.4"
DEFAULT_TARGETS = "one-directional:23,two-directional:14,grouped-3:12,grouped-4:11,proportional:10"
DEFAULT_HIST_AGENTS = "2,5,10,20,30"
AGENTS_HELP = "agent counts m1,m2,... or the range lo:hi[:step], hi included"
STAT_COLUMNS = ("strategy", "m", "mean", "stderr", "ci95", "trials", "seed")


class CliError(ValueError):
    """Configuration problem; reported as a diagnostic with exit code 2."""


@dataclass(frozen=True)
class OutputRecord:
    """One command's table plus the provenance needed to regenerate it."""

    columns: tuple[str, ...]
    rows: tuple[tuple, ...]
    config_line: str

    def render(self, fmt: str) -> str:
        if fmt == "structured":
            doc = {
                "artifact": f"coopsearch {__version__}",
                "config": self.config_line,
                "columns": list(self.columns),
                "rows": [list(r) for r in self.rows],
            }
            return json.dumps(doc, indent=2) + "\n"
        lines = [f"# coopsearch {__version__}", f"# config: {self.config_line}"]
        lines.append(",".join(self.columns))
        for row in self.rows:
            lines.append(",".join("" if v is None else str(v) for v in row))
        return "\n".join(lines) + "\n"


def _items(text: str, option: str) -> list[str]:
    """The comma-separated entries of an option's text, blank entries dropped."""
    items = [t.strip() for t in text.split(",") if t.strip()]
    if not items:
        raise CliError(f"empty {option} value {text!r}")
    return items


def _parse_speeds(text: str) -> SpeedDistribution | tuple[float, ...]:
    items = _items(text, "--speeds")
    pairs = [t.split(":", 1) for t in items]
    if len({len(pair) for pair in pairs}) > 1:
        raise CliError(f"--speeds mixes v:mass pairs with bare values: {text!r}")
    try:
        if len(pairs[0]) == 2:
            return SpeedDistribution(tuple((float(v), float(p)) for v, p in pairs))
        return tuple(float(t) for t in items)
    except ValueError as e:
        raise CliError(f"bad --speeds value {text!r}: {e}") from None


def _speeds_text(speeds: SpeedDistribution | tuple[float, ...]) -> str:
    if isinstance(speeds, SpeedDistribution):
        return ",".join(f"{v}:{p}" for v, p in speeds.atoms)
    return ",".join(map(str, speeds))


def _parse_agents(text: str) -> tuple[int, ...]:
    """`m1,m2,...`, or the range `lo:hi[:step]` with hi included and step >= 1."""
    ranged = ":" in text
    bad = f"bad --agents value {text!r}, expected m1,m2,... or lo:hi[:step], lo <= hi, step >= 1"
    parts = text.split(":") if ranged else _items(text, "--agents")
    try:
        values = [int(t) for t in parts]
    except ValueError:
        raise CliError(bad) from None
    if not ranged:
        return tuple(values)
    lo, hi, step = (values + [1])[:3]
    if len(values) > 3 or step < 1 or hi < lo:
        raise CliError(bad)
    return tuple(range(lo, hi + 1, step))


def _parse_targets(text: str) -> tuple[tuple[str, int], ...]:
    out = []
    for item in _items(text, "--targets"):
        token, sep, m_text = item.rpartition(":")
        if not sep:
            raise CliError(f"bad --targets entry {item!r}, expected method:m")
        try:
            m = int(m_text)
        except ValueError:
            raise CliError(f"bad agent count in --targets entry {item!r}") from None
        out.append((token.strip(), m))
    return tuple(out)


def _every(*commands: str, **kwargs) -> dict[str, dict]:
    """The same argparse keywords for each of `commands`."""
    return {command: kwargs for command in commands}


_ALL = ("pl-hist", "expected", "simulate", "sweep", "compare")
_SAMPLING = ("pl-hist", "simulate", "sweep", "compare")  # the commands that draw samples
_SEARCHING = ("expected", "simulate", "sweep", "compare")  # the commands that model agent speeds

# (flag, {command: argparse keywords}, echo), one row per option, in echo order.
# `echo` writes an option's canonical value into the config line; a set store_true
# flag echoes bare, and a row without `echo` never appears in the config line.
OPTIONS = (
    ("--region-length", _every(*_ALL, type=float, default=1000.0), str),
    (
        "--agents",
        {
            "pl-hist": {"default": DEFAULT_HIST_AGENTS, "help": AGENTS_HELP},
            "simulate": {"required": True, "help": "one agent count m"},
            **_every("expected", "sweep", default="2:32", help=AGENTS_HELP),
        },
        lambda agents: ",".join(str(m) for m in agents),
    ),
    (
        "--targets",
        _every("compare", default=DEFAULT_TARGETS),
        lambda targets: ",".join(f"{token}:{m}" for token, m in targets),
    ),
    (
        "--strategy",
        {
            "expected": {"default": "equal"},
            **_every("simulate", "sweep", default="one-directional"),
        },
        str,
    ),
    (
        "--allocation",
        {"pl-hist": {"default": "random", "choices": ("random",)}, **_every("simulate", "sweep")},
        str,
    ),
    (
        "--speeds",
        _every(*_SEARCHING, default=DEFAULT_SPEEDS, help="v:mass pmf pairs or bare fixed speeds"),
        _speeds_text,
    ),
    ("--trials", _every(*_SAMPLING, type=int, default=1_000_000), str),
    ("--seed", _every(*_SAMPLING, type=int, default=0), str),
    ("--with-analytic", _every("sweep", action="store_true"), str),
    ("--format", _every(*_ALL, choices=("dsv", "structured"), default="dsv"), str),
    ("--workers", _every(*_ALL, type=int), None),
    ("--output", _every(*_ALL), None),
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coopsearch",
        description="Cooperative exhaustive search on a circular region: "
        "analytic expected times and Monte-Carlo strategy comparison.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    subparsers = {name: sub.add_parser(name, help=cmd.__doc__) for name, cmd in _COMMANDS.items()}
    for flag, takes, _ in OPTIONS:
        for command, kwargs in takes.items():
            subparsers[command].add_argument(flag, **kwargs)
    return parser


def parse_config(argv=None) -> argparse.Namespace:
    """Parse argv into the validated, canonical namespace the command runs on.

    argparse's own errors exit through SystemExit; every other configuration error
    raises CliError.  The region, the speed law and every trial plan the command
    uses are built here, so their own checks validate the input.
    """
    ns = _build_parser().parse_args(argv)
    try:
        return _validated(ns)
    except ValueError as e:
        raise CliError(str(e)) from None


def _canonical(token: str, allocation: str | None = None) -> tuple[str, StrategySpec, str]:
    """A method token's canonical name, strategy and allocation.

    An allocation name stays as it is; a strategy is named by its StrategySpec,
    so grouped_03 and grouped-+3 both become grouped-3.
    """
    strategy, allocation = resolve_method(token, allocation)
    name = method_name(token)
    return (name if name == allocation else str(strategy)), strategy, allocation


def _validated(ns: argparse.Namespace) -> argparse.Namespace:
    """Replace each option's text with its canonical value, checking it on the way."""
    ns.region_length = RegionSpec(ns.region_length).length
    if ns.workers is not None and ns.workers < 1:
        raise CliError(f"--workers must be positive, got {ns.workers}")
    if "speeds" in ns:
        ns.speeds = _parse_speeds(ns.speeds)
    if "agents" in ns:
        ns.agents = _parse_agents(ns.agents)
    if "targets" in ns:
        ns.targets = tuple((_canonical(token)[0], m) for token, m in _parse_targets(ns.targets))
    if "strategy" in ns:
        allocation = getattr(ns, "allocation", None)
        ns.strategy, strategy, ns.allocation = _canonical(ns.strategy, allocation)

    if ns.command == "pl-hist":
        if any(m < 2 for m in ns.agents):
            raise CliError(f"pl-hist needs m >= 2, got {ns.agents}")
        if ns.trials < 1 or ns.seed < 0:
            raise CliError(f"pl-hist needs --trials >= 1, --seed >= 0; got {ns.trials}, {ns.seed}")
        return ns
    if ns.command == "simulate" and len(ns.agents) != 1:
        raise CliError(f"simulate takes a single --agents value, got {ns.agents}")
    if ns.command == "sweep" and any(b <= a for a, b in zip(ns.agents, ns.agents[1:])):
        raise CliError(f"agent counts must be strictly increasing, got {ns.agents}")
    if ns.command == "expected":
        if not isinstance(ns.speeds, SpeedDistribution):
            if len(ns.speeds) != 1:
                raise CliError("expected needs a speed pmf (v:mass pairs) or a single shared speed")
            ns.speeds = SpeedDistribution.point_mass(ns.speeds[0])
        if ns.allocation not in STRATEGIES[strategy.kind].closed_forms:
            raise CliError(
                f"no closed form for strategy {ns.strategy!r}; use `coopsearch simulate` for it"
            )
    targets = ns.targets if "targets" in ns else [(ns.strategy, m) for m in ns.agents]
    for token, m in targets:
        _plan(ns, token, m)  # each trial plan the command uses, built for its checks
    return ns


def _config_line(ns: argparse.Namespace) -> str:
    parts = ["coopsearch", ns.command]
    for flag, takes, echo in OPTIONS:
        value = getattr(ns, flag[2:].replace("-", "_"), None)
        if echo is not None and ns.command in takes and value is not False:
            parts += [flag] if value is True else [flag, echo(value)]
    return " ".join(shlex.quote(p) for p in parts)


def _plan(ns: argparse.Namespace, method: str, m: int) -> TrialPlan:
    strategy, allocation = resolve_method(method, getattr(ns, "allocation", None))
    return TrialPlan(
        region=RegionSpec(ns.region_length),
        num_agents=m,
        strategy=strategy,
        allocation=allocation,
        speeds=ns.speeds,
        trials=getattr(ns, "trials", 1),
        base_seed=getattr(ns, "seed", 0),
    )


def _stat_row(method: str, m: int, stats, seed: int) -> tuple:
    return (method, m, stats.mean, stats.stderr, stats.ci95, stats.trials, seed)


def cmd_pl_hist(ns: argparse.Namespace) -> OutputRecord:
    """estimated vs exact gap-length histogram for random starts"""

    def estimate(m: int) -> np.ndarray:
        seed = np.random.SeedSequence(entropy=ns.seed, spawn_key=(m,))
        return estimate_length_pmf(ns.region_length, m, ns.trials, seed)

    rows = []
    for m, est in zip(ns.agents, parallel_map(estimate, ns.agents, ns.workers, lambda m: m)):
        oracle = spacing_pmf_oracle(ns.region_length, m)
        rows += [(m, k, float(e), float(o)) for k, (e, o) in enumerate(zip(est, oracle))]
    columns = ("m", "bin", "estimated_mass", "oracle_mass")
    return OutputRecord(columns, tuple(rows), _config_line(ns))


def cmd_expected(ns: argparse.Namespace) -> OutputRecord:
    """closed-form expected times, no simulation"""
    rows = tuple((ns.strategy, m, closed_form(_plan(ns, ns.strategy, m))) for m in ns.agents)
    return OutputRecord(("strategy", "m", "expected_time"), rows, _config_line(ns))


def cmd_simulate(ns: argparse.Namespace) -> OutputRecord:
    """Monte-Carlo estimate for one configuration"""
    m = ns.agents[0]
    stats = run_trials(_plan(ns, ns.strategy, m), workers=ns.workers)
    row = _stat_row(ns.strategy, m, stats, ns.seed)
    return OutputRecord(STAT_COLUMNS, (row,), _config_line(ns))


def cmd_sweep(ns: argparse.Namespace) -> OutputRecord:
    """Monte-Carlo sweep over agent counts"""
    # the closed forms come first, so one that cannot be evaluated fails before any simulation
    analytic = ns.with_analytic
    extra = [(closed_form(_plan(ns, ns.strategy, m)),) if analytic else () for m in ns.agents]
    columns = STAT_COLUMNS + (("analytic",) if analytic else ())
    swept = sweep_m(_plan(ns, ns.strategy, ns.agents[0]), ns.agents, workers=ns.workers)
    rows = tuple(_stat_row(ns.strategy, m, st, ns.seed) + e for (m, st), e in zip(swept, extra))
    return OutputRecord(columns, rows, _config_line(ns))


def cmd_compare(ns: argparse.Namespace) -> OutputRecord:
    """side-by-side strategy comparison at chosen agent counts"""
    region = RegionSpec(ns.region_length)
    table = compare_strategies(
        region, ns.speeds, ns.targets, trials=ns.trials, base_seed=ns.seed, workers=ns.workers
    )
    rows = tuple(_stat_row(method, m, stats, ns.seed) for method, m, stats in table)
    return OutputRecord(STAT_COLUMNS, rows, _config_line(ns))


_COMMANDS = {
    "pl-hist": cmd_pl_hist,
    "expected": cmd_expected,
    "simulate": cmd_simulate,
    "sweep": cmd_sweep,
    "compare": cmd_compare,
}


def main(argv=None) -> int:
    try:
        ns = parse_config(argv)
    except SystemExit as e:  # argparse has printed its usage error, or --help
        return e.code
    except CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    try:
        text = _COMMANDS[ns.command](ns).render(ns.format)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    if ns.output:
        Path(ns.output).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
