"""Monte-Carlo trial runner, summary statistics, sweeps over m, and strategy comparison.

Every strategy kind is declared once, in STRATEGIES: the allocations it runs on,
its batch kernel, and its closed-form means.  Plan validation, `resolve_method` (the
one reader of a method token), the kernel dispatch and `closed_form` all read that
table.  Each fixed division is declared once, in `allocation._FIXED_DIVISIONS`: the
sweep allocations, a chunk's fixed starts row and the one-directional closed forms on
it read that table, so this module names no division of its own.

Reproducibility contract: results are bit-identical for identical plans at any worker
count.  Trials are processed in fixed-size chunks; chunk k of a plan draws from
default_rng(SeedSequence(entropy=base_seed, spawn_key=(stream, k))), and partial sums
are folded in chunk order with compensated summation.  A chunk's stream is its random
starts, sampled speeds and solution positions, in that order.  The kernel loop reads
the starts and the speeds as drawn rows, in row order, a row block per draw, so no
(trials, m) array is built: the starts from the chunk's generator and the speeds from
one advanced past them; the solution positions, drawn before the kernel runs, from one
advanced past both.

Scheduling: a sweep or comparison runs its plans concurrently, one plan per pool
thread, largest plan first; each plan's chunks run in order on its thread.  A single
plan spreads its chunks over the pool instead.  Both go through `parallel_map`.
"""

from __future__ import annotations

import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from .allocation import _FIXED_DIVISIONS
from .analytics import (
    expected_time_independent,
    expected_time_proportional_resampled,
    expected_time_random_starts,
)
from .model import (
    RegionSpec, SpeedDistribution, _drawn_starts, _require_finite_positive, _require_positive_int
)
from .simulation import (
    grouped_times,
    one_directional_times,
    proportional_times,
    two_directional_times,
)

__all__ = [
    "StrategySpec",
    "TrialPlan",
    "SummaryStats",
    "resolve_method",
    "run_trials",
    "sweep_m",
    "compare_strategies",
]

# fixed chunk size is part of the determinism contract: changing it changes streams
CHUNK_TRIALS = 32768
# below this a time's square is subnormal or zero
_SMALLEST_SQUARABLE = math.sqrt(sys.float_info.min)


@dataclass(frozen=True)
class StrategyKind:
    """One strategy kind: the allocations it runs on (the default first), its batch
    kernel `(starts, speeds, x, L, spec) -> times`, and the exact mean
    `(L, m, speed law) -> float` for each allocation that has a closed form."""

    allocations: tuple[str, ...]
    kernel: Callable[..., np.ndarray]
    closed_forms: Mapping[str, Callable[[float, int, SpeedDistribution], float]] = field(
        default_factory=dict
    )


_SWEEP_ALLOCATIONS = ("random", *_FIXED_DIVISIONS)

# The kernels are looked up as module globals when a chunk runs, not captured here,
# so a wrapper installed on this module's *_times names sees every call.
STRATEGIES = {
    "one-directional": StrategyKind(
        _SWEEP_ALLOCATIONS,
        lambda starts, speeds, x, L, spec: one_directional_times(starts, speeds, x, L),
        {
            "random": expected_time_random_starts,
            **{
                name: lambda L, m, law, pmf=pmf: expected_time_independent(law, pmf(L, m), m, L)
                for name, (_, pmf) in _FIXED_DIVISIONS.items()
            },
        },
    ),
    "two-directional": StrategyKind(
        _SWEEP_ALLOCATIONS,
        lambda starts, speeds, x, L, spec: two_directional_times(starts, speeds, x, L),
    ),
    "grouped": StrategyKind(
        _SWEEP_ALLOCATIONS,
        lambda starts, speeds, x, L, spec: grouped_times(starts, speeds, x, L, spec.group_size),
    ),
    "proportional": StrategyKind(
        ("proportional",),
        lambda starts, speeds, x, L, spec: proportional_times(speeds, x, L),
        {"proportional": lambda L, m, law: expected_time_proportional_resampled(L, law, m)},
    ),
}


@dataclass(frozen=True)
class StrategySpec:
    """Which cooperation strategy a trial uses; grouped carries its group size."""

    kind: str
    group_size: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in STRATEGIES:
            raise ValueError(f"unknown strategy kind {self.kind!r}, expected one of {tuple(STRATEGIES)}")
        if self.kind == "grouped":
            _require_positive_int(self.group_size, "group_size")
        elif self.group_size is not None:
            raise ValueError(f"group_size only applies to grouped, not {self.kind!r}")

    def __str__(self) -> str:
        if self.kind == "grouped":
            return f"grouped-{self.group_size}"
        return self.kind


def _require_runs_on(strategy: StrategySpec, allocation: str) -> None:
    allowed = STRATEGIES[strategy.kind].allocations
    if allocation not in allowed:
        raise ValueError(
            f"strategy {strategy} does not run on {allocation!r} allocation (supported: {allowed})"
        )


def _require_increasing(ms: Sequence[int]) -> None:
    """The one rule for a sweep's agent counts: at least one, and strictly increasing."""
    if not ms or any(b <= a for a, b in zip(ms, ms[1:])):
        raise ValueError(f"agent counts must be non-empty and strictly increasing, got {list(ms)}")


@dataclass(frozen=True)
class TrialPlan:
    """Everything needed to reproduce one Monte-Carlo estimate.

    `speeds` is either a SpeedDistribution (redrawn i.i.d. per trial) or a fixed
    tuple of speeds (length m, or length 1 to share one speed).  The agent count
    is the seed stream, so sweep points stay decoupled no matter which subsets
    are run.
    """

    region: RegionSpec
    num_agents: int
    strategy: StrategySpec
    allocation: str
    speeds: SpeedDistribution | tuple[float, ...]
    trials: int
    base_seed: int = 0

    def __post_init__(self) -> None:
        _require_positive_int(self.num_agents, "num_agents")
        _require_runs_on(self.strategy, self.allocation)
        if self.strategy.kind == "grouped" and self.strategy.group_size > self.num_agents:
            raise ValueError(
                f"group size {self.strategy.group_size} exceeds agent count {self.num_agents}"
            )
        _require_positive_int(self.trials, "trials")
        # held as Python ints: PCG64.advance fails on a numpy integer's stream skip
        object.__setattr__(self, "num_agents", int(self.num_agents))
        object.__setattr__(self, "trials", int(self.trials))
        if isinstance(self.base_seed, bool) or not (
            isinstance(self.base_seed, (int, np.integer)) and self.base_seed >= 0
        ):
            raise ValueError(f"base_seed must be a non-negative integer, got {self.base_seed!r}")
        if isinstance(self.speeds, SpeedDistribution):
            return
        if not isinstance(self.speeds, tuple) or not self.speeds:
            raise ValueError("fixed speeds must be a non-empty tuple")
        if len(self.speeds) not in (1, self.num_agents):
            raise ValueError(
                f"fixed speeds must have length 1 or {self.num_agents}, got {len(self.speeds)}"
            )
        for v in self.speeds:
            _require_finite_positive(v, "speeds")


@dataclass(frozen=True)
class SummaryStats:
    """Mean time with its uncertainty."""

    mean: float
    stderr: float
    trials: int
    minimum: float
    maximum: float

    def __post_init__(self) -> None:
        _require_positive_int(self.trials, "trials")
        slack = 1e-9 * max(1.0, abs(self.mean))
        if not (self.minimum <= self.mean + slack and self.mean <= self.maximum + slack):
            raise ValueError(
                f"mean {self.mean!r} outside [{self.minimum!r}, {self.maximum!r}]"
            )

    @property
    def ci95(self) -> float:
        """Half-width of the 95% confidence interval, 1.96 * stderr."""
        return 1.96 * self.stderr


def resolve_method(token: str, allocation: str | None = None) -> tuple[str, StrategySpec, str]:
    """The canonical name, strategy and allocation of a method token.

    The token is read trimmed, in lower case, with hyphens for underscores.  The name
    of a one-directional allocation (equal, semi-equal, random) means a one-directional
    sweep over it, and names itself.  A strategy name takes its kind's default
    allocation, or `allocation` when given, which the kind must run on; it is named by
    its StrategySpec, so grouped_03 and grouped-+3 are both grouped-3.  The name this
    returns, with the same allocation, resolves to the same triple.
    """
    name = token.strip().lower().replace("_", "-")
    if name in STRATEGIES["one-directional"].allocations:
        if allocation is not None and allocation != name:
            raise ValueError(f"method {token!r} implies allocation {name!r}, got {allocation!r}")
        return name, StrategySpec("one-directional"), name
    kind, sep, size = name.partition("-")
    if kind != "grouped":
        strategy = StrategySpec(name)
    elif not sep:
        raise ValueError("grouped strategy needs a size, e.g. 'grouped-3'")
    else:
        try:
            size = int(size)
        except ValueError:
            raise ValueError(f"bad group size in strategy {token!r}") from None
        strategy = StrategySpec("grouped", size)
    if allocation is None:
        allocation = STRATEGIES[strategy.kind].allocations[0]
    _require_runs_on(strategy, allocation)
    return str(strategy), strategy, allocation


def closed_form(plan: TrialPlan) -> float | None:
    """Closed-form mean time for the plan's strategy and allocation, or None if it has none.

    One-directional forms are the no-overtake model, a bound under heterogeneous
    speeds.  A closed form takes a speed law: one fixed shared speed counts as its
    point mass, and fixed per-agent speeds have no closed form here.
    """
    form = STRATEGIES[plan.strategy.kind].closed_forms.get(plan.allocation)
    law = plan.speeds
    if not isinstance(law, SpeedDistribution):
        if len(law) > 1:
            return None
        law = SpeedDistribution.point_mass(law[0])
    return None if form is None else form(plan.region.length, plan.num_agents, law)


def parallel_map(fn: Callable, items: Sequence, workers: int | None, size: Callable) -> list:
    """[fn(item) for item in items] on min(workers, len(items)) threads.

    Items are submitted largest `size` first (ties in the given order), so the longest
    job does not start last; results come back in the given order.  With one thread
    every call runs on the calling thread, in the given order.  `workers=None` means
    one thread per CPU.
    """
    if workers is None:
        workers = os.cpu_count() or 1
    _require_positive_int(workers, "workers")
    threads = min(workers, len(items))
    if threads <= 1:
        return [fn(item) for item in items]
    order = sorted(range(len(items)), key=lambda i: size(items[i]), reverse=True)
    with ThreadPoolExecutor(max_workers=threads) as pool:
        futures = {i: pool.submit(fn, items[i]) for i in order}
        return [futures[i].result() for i in range(len(items))]


def _chunk_rng(plan: TrialPlan, chunk_index: int, skip: int = 0) -> np.random.Generator:
    """Chunk `chunk_index`'s generator, advanced past the first `skip` draws of its stream."""
    ss = np.random.SeedSequence(entropy=plan.base_seed, spawn_key=(plan.num_agents, chunk_index))
    return np.random.Generator(np.random.PCG64(ss).advance(skip))  # default_rng(ss), advanced


def _chunk_partial(plan: TrialPlan, chunk_index: int, count: int) -> tuple[float, float, float, float]:
    L = plan.region.length
    m = plan.num_agents
    drawn = 0
    if plan.allocation == "random":
        starts = _drawn_starts(_chunk_rng(plan, chunk_index), L, (count, m))
        drawn += count * m
    elif plan.allocation == "proportional":
        starts = None
    else:
        starts = np.broadcast_to(_FIXED_DIVISIONS[plan.allocation][0](L, m), (count, m))

    law = plan.speeds
    if isinstance(law, SpeedDistribution) and not law.is_degenerate():
        speeds = law.sample(_chunk_rng(plan, chunk_index, drawn), (count, m))
        drawn += count * m
    else:  # one speed for every agent, or one per agent: a row all trials share
        row = law.speeds if isinstance(law, SpeedDistribution) else np.array(law, dtype=float)
        speeds = np.broadcast_to(row, (count, m))

    x = _chunk_rng(plan, chunk_index, drawn).uniform(0.0, L, count)

    with np.errstate(over="ignore"):  # run_trials rejects times and squares out of range
        times = STRATEGIES[plan.strategy.kind].kernel(starts, speeds, x, L, plan.strategy)
        return float(np.sum(times)), float(np.sum(times * times)), float(times.min()), float(times.max())


def run_trials(plan: TrialPlan, workers: int | None = None) -> SummaryStats:
    """Estimate the mean time-to-solution under `plan`; bit-identical at any worker count."""
    n_chunks = -(-plan.trials // CHUNK_TRIALS)
    counts = [CHUNK_TRIALS] * n_chunks
    counts[-1] = plan.trials - CHUNK_TRIALS * (n_chunks - 1)
    partials = parallel_map(
        lambda k: _chunk_partial(plan, k, counts[k]), range(n_chunks), workers, counts.__getitem__
    )

    n = plan.trials
    total = math.fsum(p[0] for p in partials)
    total_sq = math.fsum(p[1] for p in partials)
    maximum = max(p[3] for p in partials)
    # the standard error needs the squared times: past about 1e154 they overflow,
    # and below about 1e-154 every one of them loses its digits to underflow
    if not math.isfinite(total_sq) or 0.0 < maximum < _SMALLEST_SQUARABLE:
        raise ValueError(
            f"simulated times up to {maximum!r} are out of range for a float64 variance; "
            "rescale the region length or the speeds"
        )
    mean = total / n
    if n > 1:
        var = max((total_sq - n * mean * mean) / (n - 1), 0.0)
    else:
        var = 0.0
    return SummaryStats(
        mean=mean,
        stderr=math.sqrt(var / n),
        trials=n,
        minimum=min(p[2] for p in partials),
        maximum=maximum,
    )


def compare_strategies(plans: Sequence[TrialPlan], workers: int | None = None) -> tuple[SummaryStats, ...]:
    """run_trials for each plan, one stats per plan in the given order.

    Each plan runs through this module's run_trials global, so a wrapper sees every
    plan.  Several plans run concurrently, each one's chunks in order on its thread;
    a single plan spreads its chunks over the workers instead.
    """
    if not plans:
        raise ValueError("compare needs at least one plan")
    per_plan = workers if len(plans) == 1 else 1
    return tuple(
        parallel_map(
            lambda plan: run_trials(plan, workers=per_plan), plans, workers, lambda p: p.num_agents * p.trials
        )
    )


def sweep_m(plans: Sequence[TrialPlan], workers: int | None = None) -> tuple[tuple[int, SummaryStats], ...]:
    """(m, stats) for each plan, its agent counts strictly increasing; per-m seed
    streams keep the points independent and stable."""
    ms = [plan.num_agents for plan in plans]
    _require_increasing(ms)
    return tuple(zip(ms, compare_strategies(plans, workers)))
