"""Command-line front end: run the estimators and emit plot-ready tables.

Every output file carries a provenance header whose config line, fed back to the
CLI, regenerates the file byte for byte.  The echo is canonical: defaults are
materialized, agent ranges expanded, and --output/--workers excluded (they do
not affect content).
"""

from __future__ import annotations

import argparse
import functools
import json
import shlex
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .allocation import estimate_length_pmf, spacing_pmf_oracle
from .harness import (
    TrialPlan,
    _require_increasing,
    closed_form,
    compare_strategies,
    parallel_map,
    resolve_method,
    run_trials,
    sweep_m,
)
from .model import RegionSpec, SpeedDistribution

DEFAULT_SPEEDS = "0.5:0.3,1.0:0.3,1.375:0.4"
DEFAULT_TARGETS = "one-directional:23,two-directional:14,grouped-3:12,grouped-4:11,proportional:10"
DEFAULT_HIST_AGENTS = "2,5,10,20,30"
AGENTS_HELP = "agent counts m1,m2,... or the range lo:hi[:step], hi included"
STAT_COLUMNS = ("strategy", "m", "mean", "stderr", "ci95", "trials", "seed")

# what a command returns: its column names and one row per output line
Table = tuple[tuple[str, ...], list[tuple]]


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


def _items(text: str) -> list[str]:
    """The comma-separated entries of an option's text, blank entries dropped."""
    items = [t.strip() for t in text.split(",") if t.strip()]
    if not items:
        raise argparse.ArgumentTypeError(f"empty value {text!r}")
    return items


def _parse_speeds(text: str) -> SpeedDistribution | tuple[float, ...]:
    items = _items(text)
    pairs = [t.split(":", 1) for t in items]
    if len({len(pair) for pair in pairs}) > 1:
        raise argparse.ArgumentTypeError(f"{text!r} mixes v:mass pairs with bare values")
    try:
        if len(pairs[0]) == 2:
            return SpeedDistribution(tuple((float(v), float(p)) for v, p in pairs))
        return tuple(float(t) for t in items)
    except ValueError as e:
        raise argparse.ArgumentTypeError(f"bad value {text!r}: {e}") from None


def _speeds_text(speeds: SpeedDistribution | tuple[float, ...]) -> str:
    if isinstance(speeds, SpeedDistribution):
        return ",".join(f"{v}:{p}" for v, p in speeds.atoms)
    return ",".join(map(str, speeds))


def _parse_agents(text: str) -> tuple[int, ...]:
    """`m1,m2,...`, or the range `lo:hi[:step]` with hi included and step >= 1."""
    ranged = ":" in text
    bad = f"bad value {text!r}, expected m1,m2,... or lo:hi[:step], lo <= hi, step >= 1"
    parts = text.split(":") if ranged else _items(text)
    try:
        values = [int(t) for t in parts]
    except ValueError:
        raise argparse.ArgumentTypeError(bad) from None
    if not ranged:
        return tuple(values)
    lo, hi, step = (values + [1])[:3]
    if len(values) > 3 or step < 1 or hi < lo:
        raise argparse.ArgumentTypeError(bad)
    return tuple(range(lo, hi + 1, step))


def _parse_targets(text: str) -> tuple[tuple[str, int], ...]:
    out = []
    for item in _items(text):
        try:
            token, m_text = item.rsplit(":", 1)
            out.append((token.strip(), int(m_text)))
        except ValueError:
            raise argparse.ArgumentTypeError(f"bad entry {item!r}, expected method:m") from None
    return tuple(out)


def _int_at_least(least: int):
    """The `type` of an integer option whose value is at least `least`."""

    def integer(text: str) -> int:  # argparse names it in "invalid integer value: ..."
        if (value := int(text)) < least:
            raise argparse.ArgumentTypeError(f"bad value {text!r}, expected an integer >= {least}")
        return value

    return integer


def _every(*commands: str, **kwargs) -> dict[str, dict]:
    """The same argparse keywords for each of `commands`."""
    return {command: kwargs for command in commands}


_ALL = ("pl-hist", "expected", "simulate", "sweep", "compare")
_SAMPLING = ("pl-hist", "simulate", "sweep", "compare")  # the commands that draw samples
_SEARCHING = ("expected", "simulate", "sweep", "compare")  # the commands that model agent speeds

# (flag, {command: argparse keywords}, echo), one row per option, in echo order.
# A `type` keyword reads the option's text into its canonical value, or raises
# argparse.ArgumentTypeError; `echo` writes that value into the config line.  A set
# store_true flag echoes bare, and a row without `echo` is never echoed.
OPTIONS = (
    ("--region-length", _every(*_ALL, type=float, default=1000.0), str),
    (
        "--agents",
        {
            "pl-hist": {"type": _parse_agents, "default": DEFAULT_HIST_AGENTS, "help": AGENTS_HELP},
            "simulate": {"type": _parse_agents, "required": True, "help": "one agent count m"},
            **_every("expected", "sweep", type=_parse_agents, default="2:32", help=AGENTS_HELP),
        },
        lambda agents: ",".join(str(m) for m in agents),
    ),
    (
        "--targets",
        _every("compare", type=_parse_targets, default=DEFAULT_TARGETS),
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
        _every(
            *_SEARCHING, type=_parse_speeds, default=DEFAULT_SPEEDS, help="v:mass pmf pairs or bare fixed speeds"
        ),
        _speeds_text,
    ),
    ("--trials", _every(*_SAMPLING, type=_int_at_least(1), default=1_000_000), str),
    ("--seed", _every(*_SAMPLING, type=_int_at_least(0), default=0), str),
    ("--with-analytic", _every("sweep", action="store_true"), str),
    ("--format", _every(*_ALL, choices=("dsv", "structured"), default="dsv"), str),
    ("--workers", _every(*_ALL, type=_int_at_least(1)), None),
    ("--output", _every(*_ALL), None),
)


@functools.cache  # one parser per process: parsing leaves it as it was built
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coopsearch",
        description="Cooperative exhaustive search on a circular region: "
        "analytic expected times and Monte-Carlo strategy comparison.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    subparsers = {name: sub.add_parser(name, help=cmd.__doc__) for name, cmd in _COMMANDS.items()}
    for subparser in subparsers.values():  # parse_config reports a failed check through it
        subparser.set_defaults(error=subparser.error)
    for flag, takes, _ in OPTIONS:
        for command, kwargs in takes.items():
            subparsers[command].add_argument(flag, **kwargs)
    return parser


def parse_config(argv=None) -> argparse.Namespace:
    """Parse argv into the validated, canonical namespace the command runs on.

    The one configuration phase.  Option text becomes its canonical value through its
    OPTIONS row's `type`; the region, method tokens, command checks, trial plans, printed
    closed forms and exact gap laws are built here, so the library's own rules check them.
    Any bad configuration, an argument the command does not take included, exits through
    the command's argparse `error`: its usage line, `error:` and the message, SystemExit 2.
    `ns.plans` (one per output row), `ns.closed_forms` and `ns.oracles` keep what is built.
    """
    ns, unknown = _build_parser().parse_known_args(argv)
    if unknown:
        ns.error(f"unrecognized arguments: {' '.join(unknown)}")
    try:
        region = RegionSpec(ns.region_length)
        # each output row's (name, strategy, allocation) and m, every token resolved once
        if "targets" in ns:
            methods = [(resolve_method(token), m) for token, m in ns.targets]
            ns.targets = tuple((name, m) for (name, _, _), m in methods)
        if "strategy" in ns:
            method = resolve_method(ns.strategy, getattr(ns, "allocation", None))
            ns.strategy, strategy, ns.allocation = method
            methods = [(method, m) for m in ns.agents]

        if ns.command == "pl-hist":  # each m's exact gap law; building it checks m and L
            ns.oracles = [spacing_pmf_oracle(ns.region_length, m) for m in ns.agents]
            return ns
        if ns.command == "simulate" and len(ns.agents) != 1:
            raise ValueError(f"simulate takes a single --agents value, got {ns.agents}")
        if ns.command == "sweep":
            _require_increasing(ns.agents)
        if ns.command == "expected" and not isinstance(ns.speeds, SpeedDistribution):
            if len(ns.speeds) != 1:
                raise ValueError("expected needs a speed pmf (v:mass pairs) or a single shared speed")
            ns.speeds = SpeedDistribution.point_mass(ns.speeds[0])
        # the plans the command runs, one per output row; building them checks them
        trials, seed = getattr(ns, "trials", 1), getattr(ns, "seed", 0)
        ns.plans = [
            TrialPlan(region, m, strategy, allocation, ns.speeds, trials, seed)
            for (_, strategy, allocation), m in methods
        ]
        # the closed forms the command prints, so one out of float range is a configuration error
        if ns.command == "expected" or getattr(ns, "with_analytic", False):
            ns.closed_forms = [closed_form(plan) for plan in ns.plans]
        if ns.command == "expected" and None in ns.closed_forms:
            raise ValueError(f"no closed form for strategy {ns.strategy!r}; use `coopsearch simulate` for it")
    except ValueError as e:
        ns.error(str(e))
    return ns


def _config_line(ns: argparse.Namespace) -> str:
    parts = ["coopsearch", ns.command]
    for flag, takes, echo in OPTIONS:
        value = getattr(ns, flag[2:].replace("-", "_"), None)
        if echo is not None and ns.command in takes and value is not False:
            parts += [flag] if value is True else [flag, echo(value)]
    return " ".join(shlex.quote(p) for p in parts)


def _stat_row(method: str, m: int, stats, seed: int) -> tuple:
    return (method, m, stats.mean, stats.stderr, stats.ci95, stats.trials, seed)


def cmd_pl_hist(ns: argparse.Namespace) -> Table:
    """estimated vs exact gap-length histogram for random starts"""

    def estimate(m: int) -> np.ndarray:
        seed = np.random.SeedSequence(entropy=ns.seed, spawn_key=(m,))
        return estimate_length_pmf(ns.region_length, m, ns.trials, seed)

    rows = []
    estimates = parallel_map(estimate, ns.agents, ns.workers, lambda m: m)
    for m, est, oracle in zip(ns.agents, estimates, ns.oracles):
        rows += [(m, k, float(e), float(o)) for k, (e, o) in enumerate(zip(est, oracle))]
    return ("m", "bin", "estimated_mass", "oracle_mass"), rows


def cmd_expected(ns: argparse.Namespace) -> Table:
    """closed-form expected times, no simulation"""
    rows = [(ns.strategy, plan.num_agents, value) for plan, value in zip(ns.plans, ns.closed_forms)]
    return ("strategy", "m", "expected_time"), rows


def cmd_simulate(ns: argparse.Namespace) -> Table:
    """Monte-Carlo estimate for one configuration"""
    (plan,) = ns.plans
    stats = run_trials(plan, workers=ns.workers)
    return STAT_COLUMNS, [_stat_row(ns.strategy, plan.num_agents, stats, ns.seed)]


def cmd_sweep(ns: argparse.Namespace) -> Table:
    """Monte-Carlo sweep over agent counts"""
    extra = [(value,) for value in ns.closed_forms] if ns.with_analytic else [()] * len(ns.plans)
    columns = STAT_COLUMNS + (("analytic",) if ns.with_analytic else ())
    swept = sweep_m(ns.plans, workers=ns.workers)
    return columns, [_stat_row(ns.strategy, m, st, ns.seed) + e for (m, st), e in zip(swept, extra)]


def cmd_compare(ns: argparse.Namespace) -> Table:
    """side-by-side strategy comparison at chosen agent counts"""
    stats = compare_strategies(ns.plans, workers=ns.workers)
    return STAT_COLUMNS, [_stat_row(method, m, st, ns.seed) for (method, m), st in zip(ns.targets, stats)]


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
    try:
        columns, rows = _COMMANDS[ns.command](ns)
        text = OutputRecord(columns, tuple(rows), _config_line(ns)).render(ns.format)
        if ns.output:
            Path(ns.output).write_text(text)
    except (ValueError, OSError) as e:  # OSError: an --output that cannot be written
        print(f"error: {e}", file=sys.stderr)
        return 1
    if not ns.output:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
