"""The benchmark's workloads: the CLI calls each one makes and the work they imply.

Every call is listed here rather than taken from scripts/reproduce_results.py, so
an edit to that script cannot change what the benchmark measures.  Alongside its
argv, each call records the Monte-Carlo plans, gap histograms and closed-form
enumerations it should cause; the traced run checks its span counts against
these, and the correctness gate uses the speed law and method to pick oracles.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

NPROC = os.cpu_count() or 1
# mirrors coopsearch.harness.CHUNK_TRIALS, which is part of the artifact contract
CHUNK_TRIALS = 32768
REGION_LENGTH = 1000.0
DEFAULT_LAW = ((0.5, 0.3), (1.0, 0.3), (1.375, 0.4))
# Monte-Carlo workloads run CLI seed `seed % REFERENCE_SEEDS`, so every workload
# seed has stored reference digests (see make_references.py)
REFERENCE_SEEDS = 16
WORKLOADS = ("paper-tables", "wide-agents", "closed-form")


@dataclass(frozen=True)
class Plan:
    """One TrialPlan the harness runs: the kernel it reaches and its size."""

    kernel: str
    m: int
    trials: int
    sampled: bool  # speeds redrawn per trial through SpeedDistribution.sample

    @property
    def chunks(self) -> int:
        return -(-self.trials // CHUNK_TRIALS)


@dataclass(frozen=True)
class Call:
    """One CLI invocation; `name` is its artifact's file stem."""

    name: str
    argv: tuple[str, ...]
    law: tuple[tuple[float, float], ...] | float | None  # speed pmf, a shared fixed speed, or none
    plans: tuple[Plan, ...] = ()
    hists: tuple[tuple[int, int], ...] = ()  # (m, trials) per estimate_length_pmf call
    enumerations: tuple[int, ...] = ()  # n per speed_sum_inverse_mean call
    digest: bool = False  # Monte-Carlo artifact, checked against stored digests


def kernel_of(method: str) -> str:
    if method in ("equal", "semi-equal", "random", "one-directional"):
        return "one_directional"
    if method.startswith("grouped-"):
        return "grouped"
    return method.replace("-", "_")


def _stem(prefix: str, method: str) -> str:
    return f"{prefix}_{method.replace('-', '_')}"


def _law_text(law) -> str:
    if isinstance(law, float):
        return repr(law)
    return ",".join(f"{v!r}:{p!r}" for v, p in law)


def _plans(methods_ms, law, trials) -> tuple[Plan, ...]:
    sampled = not isinstance(law, float) and len(law) > 1
    return tuple(Plan(kernel_of(meth), m, trials, sampled) for meth, m in methods_ms)


def pl_hist(name, agents, trials, seed) -> Call:
    argv = ("pl-hist", "--agents", ",".join(map(str, agents)), "--trials", str(trials), "--seed", str(seed))
    return Call(name, argv, None, hists=tuple((m, trials) for m in agents), digest=True)


def sweep(name, method, agents, law, trials, seed, analytic=False) -> Call:
    argv = ("sweep", "--agents", ",".join(map(str, agents)), "--strategy", method,
            "--speeds", _law_text(law), "--trials", str(trials), "--seed", str(seed))
    argv += ("--with-analytic",) if analytic else ()
    return Call(name, argv, law, _plans([(method, m) for m in agents], law, trials), digest=True)


def compare(name, targets, law, trials, seed) -> Call:
    argv = ("compare", "--targets", ",".join(f"{t}:{m}" for t, m in targets),
            "--speeds", _law_text(law), "--trials", str(trials), "--seed", str(seed))
    return Call(name, argv, law, _plans(targets, law, trials), digest=True)


def simulate(name, method, m, law, trials, seed) -> Call:
    argv = ("simulate", "--agents", str(m), "--strategy", method,
            "--speeds", _law_text(law), "--trials", str(trials), "--seed", str(seed))
    return Call(name, argv, law, _plans([(method, m)], law, trials), digest=True)


def expected(name, method, agents, law) -> Call:
    argv = ("expected", "--agents", ",".join(map(str, agents)), "--strategy", method, "--speeds", _law_text(law))
    enumerations = tuple(agents) if method == "proportional" else ()
    return Call(name, argv, law, enumerations=enumerations)


def paper_tables(seed: int) -> list[Call]:
    """The 15 calls of reproduce_results.py at 34,464 trials: one full chunk and the
    1696-trial tail that --trials 100000 also leaves, so a run holds several passes."""
    s, t = seed % REFERENCE_SEEDS, CHUNK_TRIALS + 1696
    calls = [pl_hist("gap_histograms", (2, 5, 10, 20, 30), t, s)]
    for method in ("equal", "semi-equal", "random"):
        calls.append(sweep(_stem("homogeneous", method), method, range(2, 33), 1.0, t, s, analytic=True))
    for method in ("one-directional", "two-directional", "grouped-2", "grouped-3", "grouped-4", "proportional"):
        calls.append(sweep(_stem("heterogeneous", method), method, range(4, 33, 4), DEFAULT_LAW, t, s))
    targets = (("grouped-1", 23), ("grouped-2", 14), ("grouped-3", 12), ("grouped-4", 11), ("proportional", 10))
    calls.append(compare("matched_counts", targets, DEFAULT_LAW, t, s))
    for method in ("equal", "semi-equal", "random", "proportional"):
        calls.append(expected(_stem("closed_form", method), method, range(2, 33), DEFAULT_LAW))
    return calls


def wide_agents(seed: int) -> list[Call]:
    """Large m, heterogeneous speeds, random starts: 2 chunks, a whole number per worker."""
    s, t = seed % REFERENCE_SEEDS, 2 * CHUNK_TRIALS
    return [simulate(_stem("wide", method), method, 256, DEFAULT_LAW, t, s)
            for method in ("one-directional", "two-directional")]


def five_atom_law(seed: int) -> tuple[tuple[float, float], ...]:
    """A seeded 5-atom law: speeds on a 1/8 grid in [0.25, 2], masses in thousandths."""
    rng = np.random.default_rng(seed)
    speeds = np.sort(rng.choice(np.arange(2, 17) / 8.0, size=5, replace=False))
    cuts = np.sort(rng.choice(np.arange(1, 20), size=4, replace=False)) * 50
    masses = np.diff(np.concatenate(([0], cuts, [1000])))
    return tuple((float(v), int(p) / 1000) for v, p in zip(speeds, masses))


def closed_form(seed: int) -> list[Call]:
    """expected for all four methods over m=2..32 with a 5-atom law.

    The proportional column enumerates sum_m C(m+4, 4) = 435,891 compositions.
    It is split by m into four calls of 0.15 to 0.45 s each, so every timed call
    is short enough to be sampled several times in a run.
    """
    law = five_atom_law(seed)
    calls = [expected(_stem("closed_form", method), method, range(2, 33), law)
             for method in ("equal", "semi-equal", "random")]
    for lo, hi in ((2, 26), (27, 29), (30, 31), (32, 32)):
        calls.append(expected(f"closed_form_proportional_{lo}_{hi}", "proportional", range(lo, hi + 1), law))
    return calls


def build(workload: str, seed: int) -> list[Call]:
    return {"paper-tables": paper_tables, "wide-agents": wide_agents, "closed-form": closed_form}[workload](seed)


def expected_counts(calls: list[Call]) -> dict[str, int]:
    """Span counts and work counts the traced run must reproduce exactly."""
    plans = [p for c in calls for p in c.plans]
    return {
        "cli.calls": len(calls),
        "harness.plans": len(plans),
        "harness.chunks": sum(p.chunks for p in plans),
        "model.sample_calls": sum(p.chunks for p in plans if p.sampled),
        **{
            f"simulation.{k}.calls": sum(p.chunks for p in plans if p.kernel == k)
            for k in ("one_directional", "two_directional", "grouped", "proportional")
        },
        "simulation.agent_trials": sum(p.trials * p.m for p in plans),
        "simulation.bytes_computed": sum(kernel_bytes(p.kernel, p.trials, p.m) for p in plans),
        "allocation.estimate_length_pmf_calls": sum(len(c.hists) for c in calls),
        "allocation.gap_samples": sum(m * t for c in calls for m, t in c.hists),
        "analytics.speed_sum_inverse_mean_calls": sum(len(c.enumerations) for c in calls),
        "analytics.terms": sum(compositions(n, len(c.law)) for c in calls for n in c.enumerations),
    }


def compositions(n: int, atoms: int) -> int:
    """Terms speed_sum_inverse_mean enumerates for n draws from an `atoms`-atom law."""
    return math.comb(n + atoms - 1, atoms - 1)


def kernel_bytes(kernel: str, trials: int, m: int) -> int:
    """Bytes of a kernel's float64 operands and result, from their shapes (computed).

    Starts and speeds are (trials, m), x and the result (trials,); the proportional
    kernel takes no starts.  Temporaries inside the kernel are not counted.
    """
    matrices = 1 if kernel == "proportional" else 2
    return 8 * trials * (matrices * m + 2)
