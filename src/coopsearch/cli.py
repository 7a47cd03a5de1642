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
    resolve_method,
    run_trials,
    sweep_m,
)
from .model import RegionSpec, SpeedDistribution

__all__ = [
    "ExperimentConfig",
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
STAT_COLUMNS = ("strategy", "m", "mean", "stderr", "ci95", "trials", "seed")


class CliError(ValueError):
    """Configuration problem; reported as a diagnostic with exit code 2."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully validated invocation: everything the command needs, nothing implicit."""

    command: str
    region_length: float
    agents: tuple[int, ...]
    method: str | None
    allocation: str | None
    speeds: SpeedDistribution | tuple[float, ...] | None
    trials: int
    seed: int
    workers: int | None
    output: str | None
    fmt: str
    with_analytic: bool
    targets: tuple[tuple[str, int], ...] | None


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
            lines.append(",".join(_cell(v) for v in row))
        return "\n".join(lines) + "\n"


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _fmt_float(value: float) -> str:
    return repr(float(value))


def _parse_speeds(text: str) -> SpeedDistribution | tuple[float, ...]:
    items = [t.strip() for t in text.split(",") if t.strip()]
    if not items:
        raise CliError(f"empty --speeds value {text!r}")
    has_mass = [":" in t for t in items]
    try:
        if all(has_mass):
            atoms = []
            for t in items:
                v, p = t.split(":", 1)
                atoms.append((float(v), float(p)))
            return SpeedDistribution(tuple(atoms))
        if any(has_mass):
            raise CliError(f"--speeds mixes v:mass pairs with bare values: {text!r}")
        return tuple(float(t) for t in items)
    except CliError:
        raise
    except ValueError as e:
        raise CliError(f"bad --speeds value {text!r}: {e}") from None


def _speeds_text(speeds: SpeedDistribution | tuple[float, ...]) -> str:
    if isinstance(speeds, SpeedDistribution):
        return ",".join(f"{_fmt_float(v)}:{_fmt_float(p)}" for v, p in speeds.atoms)
    return ",".join(_fmt_float(v) for v in speeds)


def _parse_agents(ns) -> tuple[int, ...]:
    listed = getattr(ns, "agents", None)
    ranged = getattr(ns, "agents_range", None)
    if listed is not None and ranged is not None:
        raise CliError("give --agents or --agents-range, not both")
    if listed is not None:
        try:
            values = tuple(int(t) for t in listed.split(",") if t.strip())
        except ValueError:
            raise CliError(f"bad --agents value {listed!r}") from None
        if not values:
            raise CliError(f"bad --agents value {listed!r}")
        return values
    if ranged is not None:
        parts = ranged.split(":")
        if len(parts) not in (2, 3):
            raise CliError(f"bad --agents-range value {ranged!r}, expected start:stop[:step]")
        try:
            lo, hi = int(parts[0]), int(parts[1])
            step = int(parts[2]) if len(parts) == 3 else 1
        except ValueError:
            raise CliError(f"bad --agents-range value {ranged!r}") from None
        if step < 1 or hi < lo:
            raise CliError(f"bad --agents-range value {ranged!r}")
        return tuple(range(lo, hi + 1, step))
    return ()


def _parse_targets(text: str) -> tuple[tuple[str, int], ...]:
    out = []
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        token, sep, m_text = item.rpartition(":")
        if not sep:
            raise CliError(f"bad --targets entry {item!r}, expected method:m")
        try:
            m = int(m_text)
        except ValueError:
            raise CliError(f"bad agent count in --targets entry {item!r}") from None
        out.append((token.strip(), m))
    if not out:
        raise CliError(f"empty --targets value {text!r}")
    return tuple(out)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coopsearch",
        description="Cooperative exhaustive search on a circular region: "
        "analytic expected times and Monte-Carlo strategy comparison.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *, speeds=True, trials=True):
        p.add_argument("--region-length", type=float, default=1000.0)
        if speeds:
            p.add_argument("--speeds", default=DEFAULT_SPEEDS, help="v:mass pmf pairs or bare fixed speeds")
        if trials:
            p.add_argument("--trials", type=int, default=1_000_000)
            p.add_argument("--seed", type=int, default=0)
        p.add_argument("--workers", type=int, default=None)
        p.add_argument("--output", default=None)
        p.add_argument("--format", dest="fmt", choices=("dsv", "structured"), default="dsv")

    p = sub.add_parser("pl-hist", help="estimated vs exact gap-length histogram for random starts")
    p.add_argument("--agents", default=DEFAULT_HIST_AGENTS)
    p.add_argument("--allocation", default="random")
    common(p, speeds=False)

    p = sub.add_parser("expected", help="closed-form expected times, no simulation")
    p.add_argument("--agents", default=None)
    p.add_argument("--agents-range", default=None)
    p.add_argument("--strategy", default="equal")
    common(p, trials=False)

    p = sub.add_parser("simulate", help="Monte-Carlo estimate for one configuration")
    p.add_argument("--agents", required=True)
    p.add_argument("--strategy", default="one-directional")
    p.add_argument("--allocation", default=None)
    common(p)

    p = sub.add_parser("sweep", help="Monte-Carlo sweep over agent counts")
    p.add_argument("--agents", default=None)
    p.add_argument("--agents-range", default=None)
    p.add_argument("--strategy", default="one-directional")
    p.add_argument("--allocation", default=None)
    p.add_argument("--with-analytic", action="store_true")
    common(p)

    p = sub.add_parser("compare", help="side-by-side strategy comparison at chosen agent counts")
    p.add_argument("--targets", default=DEFAULT_TARGETS)
    common(p)
    return parser


def parse_config(argv=None) -> ExperimentConfig:
    """Parse argv into a config; every configuration error raises CliError.

    The region, the speed law and every trial plan the command uses are built
    here, so their own checks validate the input.
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


def _validated(ns) -> ExperimentConfig:
    command = ns.command
    region_length = RegionSpec(float(ns.region_length)).length
    trials = getattr(ns, "trials", 1)
    seed = getattr(ns, "seed", 0)
    if ns.workers is not None and ns.workers < 1:
        raise CliError(f"--workers must be positive, got {ns.workers}")
    speeds = _parse_speeds(ns.speeds) if hasattr(ns, "speeds") else None
    agents = _parse_agents(ns)
    method = getattr(ns, "strategy", None)
    allocation = getattr(ns, "allocation", None)
    targets = _parse_targets(ns.targets) if hasattr(ns, "targets") else None

    if command == "pl-hist":
        if allocation != "random":
            raise CliError(f"pl-hist needs random allocation, got {allocation!r}")
        if any(m < 2 for m in agents):
            raise CliError(f"pl-hist needs m >= 2, got {agents}")
        if trials < 1 or seed < 0:
            raise CliError(f"pl-hist needs --trials >= 1 and --seed >= 0, got {trials} and {seed}")
    elif command == "compare":
        targets = tuple((_canonical(token)[0], m) for token, m in targets)
    else:
        agents = agents or tuple(range(2, 33))
        if command == "simulate" and len(agents) != 1:
            raise CliError(f"simulate takes a single --agents value, got {agents}")
        if command == "sweep" and any(b <= a for a, b in zip(agents, agents[1:])):
            raise CliError(f"agent counts must be strictly increasing, got {agents}")
        if command == "expected" and not isinstance(speeds, SpeedDistribution):
            if len(speeds) != 1:
                raise CliError("expected needs a speed pmf (v:mass pairs) or a single shared speed")
            speeds = SpeedDistribution.point_mass(speeds[0])
        method, strategy, allocation = _canonical(method, allocation)
        if command == "expected" and allocation not in STRATEGIES[strategy.kind].closed_forms:
            raise CliError(f"no closed form for strategy {method!r}; use `coopsearch simulate` for it")

    cfg = ExperimentConfig(
        command=command,
        region_length=region_length,
        agents=agents,
        method=method,
        allocation=allocation,
        speeds=speeds,
        trials=trials,
        seed=seed,
        workers=ns.workers,
        output=ns.output,
        fmt=ns.fmt,
        with_analytic=getattr(ns, "with_analytic", False),
        targets=targets,
    )
    if command != "pl-hist":
        for token, m in targets or [(method, m) for m in agents]:
            _plan(cfg, token, m)  # each trial plan the command uses, built for its checks
    return cfg


def _config_line(cfg: ExperimentConfig) -> str:
    parts = ["coopsearch", cfg.command, "--region-length", _fmt_float(cfg.region_length)]
    if cfg.command == "pl-hist":
        parts += ["--agents", ",".join(str(m) for m in cfg.agents)]
        parts += ["--allocation", "random"]
        parts += ["--trials", str(cfg.trials), "--seed", str(cfg.seed)]
    elif cfg.command == "expected":
        parts += ["--agents", ",".join(str(m) for m in cfg.agents)]
        parts += ["--strategy", cfg.method, "--speeds", _speeds_text(cfg.speeds)]
    elif cfg.command == "simulate":
        parts += ["--agents", str(cfg.agents[0]), "--strategy", cfg.method]
        if cfg.allocation is not None:
            parts += ["--allocation", cfg.allocation]
        parts += ["--speeds", _speeds_text(cfg.speeds)]
        parts += ["--trials", str(cfg.trials), "--seed", str(cfg.seed)]
    elif cfg.command == "sweep":
        parts += ["--agents", ",".join(str(m) for m in cfg.agents)]
        parts += ["--strategy", cfg.method]
        if cfg.allocation is not None:
            parts += ["--allocation", cfg.allocation]
        parts += ["--speeds", _speeds_text(cfg.speeds)]
        parts += ["--trials", str(cfg.trials), "--seed", str(cfg.seed)]
        if cfg.with_analytic:
            parts.append("--with-analytic")
    elif cfg.command == "compare":
        parts += ["--targets", ",".join(f"{t}:{m}" for t, m in cfg.targets)]
        parts += ["--speeds", _speeds_text(cfg.speeds)]
        parts += ["--trials", str(cfg.trials), "--seed", str(cfg.seed)]
    parts += ["--format", cfg.fmt]
    return " ".join(shlex.quote(p) for p in parts)


def cmd_pl_hist(cfg: ExperimentConfig) -> OutputRecord:
    rows = []
    for m in cfg.agents:
        seed = np.random.SeedSequence(entropy=cfg.seed, spawn_key=(m,))
        est = estimate_length_pmf(cfg.region_length, m, cfg.trials, seed)
        oracle = spacing_pmf_oracle(cfg.region_length, m)
        for k, (e_mass, o_mass) in enumerate(zip(est.masses, oracle.masses)):
            rows.append((m, k, float(e_mass), float(o_mass)))
    return OutputRecord(
        columns=("m", "bin", "estimated_mass", "oracle_mass"),
        rows=tuple(rows),
        config_line=_config_line(cfg),
    )


def cmd_expected(cfg: ExperimentConfig) -> OutputRecord:
    rows = tuple((cfg.method, m, closed_form(_plan(cfg, cfg.method, m))) for m in cfg.agents)
    return OutputRecord(
        columns=("strategy", "m", "expected_time"),
        rows=rows,
        config_line=_config_line(cfg),
    )


def _plan(cfg: ExperimentConfig, method: str, m: int) -> TrialPlan:
    strategy, allocation = resolve_method(method, cfg.allocation)
    return TrialPlan(
        region=RegionSpec(cfg.region_length),
        num_agents=m,
        strategy=strategy,
        allocation=allocation,
        speeds=cfg.speeds,
        trials=cfg.trials,
        base_seed=cfg.seed,
    )


def _stat_row(method: str, m: int, stats, seed: int) -> tuple:
    return (method, m, stats.mean, stats.stderr, stats.ci95, stats.trials, seed)


def cmd_simulate(cfg: ExperimentConfig) -> OutputRecord:
    m = cfg.agents[0]
    stats = run_trials(_plan(cfg, cfg.method, m), workers=cfg.workers)
    row = _stat_row(cfg.method, m, stats, cfg.seed)
    return OutputRecord(columns=STAT_COLUMNS, rows=(row,), config_line=_config_line(cfg))


def cmd_sweep(cfg: ExperimentConfig) -> OutputRecord:
    columns = STAT_COLUMNS + (("analytic",) if cfg.with_analytic else ())
    rows = []
    template = _plan(cfg, cfg.method, cfg.agents[0])
    for m, stats in sweep_m(template, cfg.agents, workers=cfg.workers):
        row = _stat_row(cfg.method, m, stats, cfg.seed)
        if cfg.with_analytic:
            row += (closed_form(_plan(cfg, cfg.method, m)),)
        rows.append(row)
    return OutputRecord(columns=columns, rows=tuple(rows), config_line=_config_line(cfg))


def cmd_compare(cfg: ExperimentConfig) -> OutputRecord:
    table = compare_strategies(
        RegionSpec(cfg.region_length),
        cfg.speeds,
        cfg.targets,
        trials=cfg.trials,
        base_seed=cfg.seed,
        workers=cfg.workers,
    )
    rows = tuple(_stat_row(method, m, stats, cfg.seed) for method, m, stats in table)
    return OutputRecord(columns=STAT_COLUMNS, rows=rows, config_line=_config_line(cfg))


_COMMANDS = {
    "pl-hist": cmd_pl_hist,
    "expected": cmd_expected,
    "simulate": cmd_simulate,
    "sweep": cmd_sweep,
    "compare": cmd_compare,
}


def main(argv=None) -> int:
    try:
        cfg = parse_config(argv)
    except CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    try:
        record = _COMMANDS[cfg.command](cfg)
        text = record.render(cfg.fmt)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    if cfg.output:
        Path(cfg.output).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
