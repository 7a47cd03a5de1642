"""Per-trial time-to-solution mechanics for each cooperation strategy.

Scalar simulate_* functions are the reference semantics; the *_times kernels
vectorize them over batches of trials and must agree with the scalar path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .allocation import allocate_proportional
from .model import _BLOCK_ENTRIES, AgentProfile, RegionSpec, SolutionPlacement, wrap_distance

if TYPE_CHECKING:
    from .harness import StrategySpec

__all__ = [
    "GroupingPolicy",
    "TrialSetup",
    "TrialOutcome",
    "simulate_one_directional",
    "simulate_two_directional",
    "simulate_grouped",
    "simulate_proportional",
    "no_overtake_condition",
    "one_directional_times",
    "two_directional_times",
    "grouped_times",
    "proportional_times",
]


@dataclass(frozen=True)
class GroupingPolicy:
    """Groups are consecutive runs of sorted starts; the last group may be smaller."""

    group_size: int

    def __post_init__(self) -> None:
        if not (isinstance(self.group_size, (int, np.integer)) and self.group_size >= 1):
            raise ValueError(f"group_size must be a positive integer, got {self.group_size!r}")


@dataclass(frozen=True)
class TrialSetup:
    """One trial's full configuration: region, agents, solution position, strategy."""

    region: RegionSpec
    agents: tuple[AgentProfile, ...]
    solution: SolutionPlacement
    strategy: StrategySpec

    def __post_init__(self) -> None:
        if not self.agents:
            raise ValueError("trial needs at least one agent")
        ids = set()
        for a in self.agents:
            if a.agent_id in ids:
                raise ValueError(f"duplicate agent_id {a.agent_id}")
            ids.add(a.agent_id)
            self.region.require(a.start, f"start of agent {a.agent_id}")
        self.region.require(self.solution.position, "solution position")
        if self.strategy.kind == "grouped" and self.strategy.group_size > len(self.agents):
            raise ValueError(
                f"group size {self.strategy.group_size} exceeds agent count {len(self.agents)}"
            )


@dataclass(frozen=True)
class TrialOutcome:
    """Result of one trial: elapsed time, which agent found the solution, its group."""

    time_to_solution: float
    finder: int
    finder_group: int | None = None

    def __post_init__(self) -> None:
        if not (math.isfinite(self.time_to_solution) and self.time_to_solution >= 0):
            raise ValueError(f"time_to_solution must be finite and non-negative, got {self.time_to_solution!r}")


def _require_kind(setup: TrialSetup, kind: str) -> None:
    if setup.strategy.kind != kind:
        raise ValueError(f"setup strategy is {setup.strategy.kind!r}, expected {kind!r}")


def simulate_one_directional(setup: TrialSetup) -> TrialOutcome:
    """Every agent sweeps clockwise at full speed forever; first arrival wins.

    Ties break to the lowest agent_id.
    """
    _require_kind(setup, "one-directional")
    x = setup.solution.position
    t, finder = min(
        (wrap_distance(a.start, x, setup.region) / a.speed, a.agent_id) for a in setup.agents
    )
    return TrialOutcome(t, finder)


def simulate_two_directional(setup: TrialSetup) -> TrialOutcome:
    """Every agent sweeps both ways at half speed forever; first arrival wins."""
    _require_kind(setup, "two-directional")
    x = setup.solution.position
    t, finder = min(
        (
            min(wrap_distance(a.start, x, setup.region), wrap_distance(x, a.start, setup.region))
            / (0.5 * a.speed),
            a.agent_id,
        )
        for a in setup.agents
    )
    return TrialOutcome(t, finder)


def simulate_grouped(setup: TrialSetup, policy: GroupingPolicy) -> TrialOutcome:
    """Agents sorted by start form consecutive groups of `group_size` (last possibly
    smaller).  A group's region runs from its first member's start to the next group's
    first start; the group sweeps it at the pooled rate sum(v), so the point at
    clockwise offset d from the region start is reached at time d / sum(v).  The finder
    is the member whose speed-proportional share of the region contains the solution,
    shares laid out in sorted-start order.
    """
    _require_kind(setup, "grouped")
    n = policy.group_size
    if setup.strategy.group_size != n:
        raise ValueError(
            f"policy group size {n} disagrees with strategy {setup.strategy.group_size}"
        )
    L = setup.region.length
    x = setup.solution.position
    members = sorted(setup.agents, key=lambda a: (a.start, a.agent_id))
    m = len(members)
    groups = [members[i : i + n] for i in range(0, m, n)]
    G = len(groups)

    def region_len_of(g: int) -> float:
        # sorted boundaries tile the circle; the last group takes the wrap remainder,
        # so coincident boundaries put the full arc on the last of the tied groups
        if G == 1:
            return L
        if g == G - 1:
            return L - groups[g][0].start + groups[0][0].start
        return (groups[g + 1][0].start - groups[g][0].start) % L

    owner = None
    for g, group in enumerate(groups):
        b = group[0].start
        region_len = region_len_of(g)
        offset = (x - b) % L
        if offset >= L:
            offset = math.nextafter(L, 0.0)
        if offset < region_len:
            owner = (g, group, region_len, offset)
            break
    if owner is None:
        # float sliver at a boundary: charge the group whose start is nearest behind x;
        # among groups sharing that start the last one owns the arc, as in region_len_of
        g = min(reversed(range(G)), key=lambda k: (x - groups[k][0].start) % L)
        group = groups[g]
        owner = (g, group, region_len_of(g), (x - group[0].start) % L)

    g, group, region_len, offset = owner
    rate = float(np.sum(np.array([a.speed for a in group])))
    t = offset / rate
    finder = group[-1].agent_id
    cum = 0.0
    for a in group:
        cum += a.speed / rate * region_len
        if offset < cum:
            finder = a.agent_id
            break
    return TrialOutcome(t, finder, finder_group=g)


def simulate_proportional(region: RegionSpec, speeds, x: float) -> TrialOutcome:
    """Speed-proportional arcs from 0; each agent sweeps its own arc at full speed.

    All arcs complete simultaneously at L / sum(speeds), the worst-case time.
    """
    alloc = allocate_proportional(region, speeds)
    region.require(x, "solution position")
    owner = alloc.owner_of(x)
    arc = alloc.arcs[owner]
    offset = (x - arc.start) % region.length
    return TrialOutcome(offset / list(speeds)[owner], owner)


def no_overtake_condition(v_min: float, v_max: float, l_min: float, l_max: float) -> bool:
    """Whether the slowest agent always finishes its arc before the fastest invades:
    v_max / v_min < (l_min + l_max) / l_max."""
    for v in (v_min, v_max):
        if not (math.isfinite(v) and v > 0):
            raise ValueError(f"speeds must be finite and positive, got {v!r}")
    if not (0 <= l_min <= l_max and l_max > 0):
        raise ValueError(f"need 0 <= l_min <= l_max with l_max > 0, got {l_min!r}, {l_max!r}")
    return v_max / v_min < (l_min + l_max) / l_max


def _require_in_region(a: np.ndarray, length: float, what: str) -> None:
    # min and max carry a NaN through, and the comparison then rejects it
    if a.size and not (a.min() >= 0.0 and a.max() < length):
        raise ValueError(f"{what} outside [0, {length})")


def _check_batch(starts: np.ndarray, speeds: np.ndarray, x: np.ndarray, length: float) -> None:
    if starts.ndim != 2 or starts.shape != speeds.shape:
        raise ValueError(f"starts/speeds must share shape (trials, m), got {starts.shape} and {speeds.shape}")
    if x.shape != (starts.shape[0],):
        raise ValueError(f"x must have shape ({starts.shape[0]},), got {x.shape}")
    if length <= 0:
        raise ValueError(f"region length must be positive, got {length!r}")
    _require_in_region(x, length, "solution positions")


def _row_blocks(trials: int, m: int):
    """Row slices of about _BLOCK_ENTRIES entries, so a block's temporaries stay in cache."""
    step = max(1, _BLOCK_ENTRIES // m)
    for lo in range(0, trials, step):
        yield slice(lo, min(lo + step, trials))


def _wrap_offsets(a: np.ndarray, length: float) -> np.ndarray:
    d = a % length
    return np.where(d >= length, np.nextafter(length, 0.0), d)


def one_directional_times(
    starts: np.ndarray, speeds: np.ndarray, x: np.ndarray, length: float
) -> np.ndarray:
    """Batch of one-directional trial times; rows are trials, columns agents.

    Starts and solution positions must lie in [0, length), else ValueError.
    """
    _check_batch(starts, speeds, x, length)
    out = np.empty(len(x))
    top = np.nextafter(length, 0.0)
    for rows in _row_blocks(*starts.shape):
        s = starts[rows]
        _require_in_region(s, length, "agent starts")
        d = x[rows, None] - s
        # |d| < length, so this is `d % length` bit for bit; d + length can still
        # round up to length, which the clamp turns into the largest offset below it
        d += length * (d < 0)
        np.minimum(d, top, out=d)
        d /= speeds[rows]
        d.min(axis=1, out=out[rows])
    return out


def two_directional_times(
    starts: np.ndarray, speeds: np.ndarray, x: np.ndarray, length: float
) -> np.ndarray:
    """Batch of two-directional trial times (both ways at half speed).

    Starts and solution positions must lie in [0, length), else ValueError.
    """
    _check_batch(starts, speeds, x, length)
    out = np.empty(len(x))
    for rows in _row_blocks(*starts.shape):
        s = starts[rows]
        _require_in_region(s, length, "agent starts")
        # the nearer way round is min(|d|, length - |d|); length - |d| rounds to
        # length only when |d| is tiny, and then |d| is the minimum anyway
        d = x[rows, None] - s
        np.abs(d, out=d)
        np.minimum(d, length - d, out=d)
        d /= 0.5 * speeds[rows]
        d.min(axis=1, out=out[rows])
    return out


def _grouped_block(
    starts: np.ndarray, speeds: np.ndarray, x: np.ndarray, length: float, group_size: int
) -> np.ndarray:
    trials = starts.shape[0]
    order = np.argsort(starts, axis=1, kind="stable")
    s = np.take_along_axis(starts, order, axis=1)
    v = np.take_along_axis(speeds, order, axis=1)
    bounds = s[:, ::group_size]
    G = bounds.shape[1]
    # owner group: largest boundary at or before x, wrapping to the last group
    pos = (bounds <= x[:, None]).sum(axis=1) - 1
    pos = np.where(pos < 0, G - 1, pos)
    rates = np.empty((trials, G))
    for g in range(G):
        rates[:, g] = v[:, g * group_size : (g + 1) * group_size].sum(axis=1)
    rows = np.arange(trials)
    offset = _wrap_offsets(x - bounds[rows, pos], length)
    return offset / rates[rows, pos]


def grouped_times(
    starts: np.ndarray, speeds: np.ndarray, x: np.ndarray, length: float, group_size: int
) -> np.ndarray:
    """Batch of grouped-strategy trial times at pooled per-group sweep rates.

    Starts and solution positions must lie in [0, length), else ValueError.
    """
    _check_batch(starts, speeds, x, length)
    trials, m = starts.shape
    if not 1 <= group_size <= m:
        raise ValueError(f"group size {group_size} out of range for {m} agents")
    out = np.empty(trials)
    for rows in _row_blocks(trials, m):
        s = starts[rows]
        _require_in_region(s, length, "agent starts")
        out[rows] = _grouped_block(s, speeds[rows], x[rows], length, group_size)
    return out


def _proportional_block(speeds: np.ndarray, x: np.ndarray, length: float) -> np.ndarray:
    trials = speeds.shape[0]
    total = speeds.sum(axis=1)
    lengths = speeds * (length / total)[:, None]
    left = np.concatenate([np.zeros((trials, 1)), np.cumsum(lengths, axis=1)[:, :-1]], axis=1)
    offs = _wrap_offsets(x[:, None] - left, length)
    hit = offs < lengths
    owner = np.argmax(hit, axis=1)
    sliver = ~hit.any(axis=1)
    if sliver.any():
        owner[sliver] = np.argmin(offs[sliver], axis=1)
    rows = np.arange(trials)
    return offs[rows, owner] / speeds[rows, owner]


def proportional_times(speeds: np.ndarray, x: np.ndarray, length: float) -> np.ndarray:
    """Batch of proportional-allocation trial times; starts are implied by the arcs.

    Solution positions must lie in [0, length), else ValueError.
    """
    if speeds.ndim != 2:
        raise ValueError(f"speeds must have shape (trials, m), got {speeds.shape}")
    if x.shape != (speeds.shape[0],):
        raise ValueError(f"x must have shape ({speeds.shape[0]},), got {x.shape}")
    _require_in_region(x, length, "solution positions")
    out = np.empty(len(x))
    for rows in _row_blocks(*speeds.shape):
        out[rows] = _proportional_block(speeds[rows], x[rows], length)
    return out
