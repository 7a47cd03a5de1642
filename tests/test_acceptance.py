"""Acceptance gate: every shipped guarantee, run at full scale.

One test per criterion; each records a PASS/FAIL line that the terminal
summary prints after the run.  Scale: L=1000, one million trials per
simulated point, seed 0 throughout.  Simulated means are cached so criteria
that share a configuration reuse the same run.
"""

import math
from collections import Counter
from functools import lru_cache

import numpy as np
import pytest

import oracles
from coopsearch.allocation import (
    estimate_length_pmf,
    length_pmf_semi_equal,
    semi_equal_starts,
    spacing_pmf_oracle,
)
from coopsearch.analytics import (
    expected_time_proportional_resampled,
    expected_time_random_starts,
    mean_inverse_speed,
)
from coopsearch.cli import main
from coopsearch.harness import TrialPlan, closed_form, resolve_method, run_trials
from coopsearch.model import RegionSpec, SpeedDistribution
from coopsearch.simulation import proportional_times

L = 1000.0
REGION = RegionSpec(L)
TRIALS = 1_000_000
MIXED = SpeedDistribution(((0.5, 0.3), (1.0, 0.3), (1.375, 0.4)))
UNIT = SpeedDistribution.point_mass(1.0)


def closed_unit(token: str, m: int) -> float:
    """The closed-form mean for unit-speed agents, as `coopsearch expected` gives it."""
    return closed_form(TrialPlan(REGION, m, *resolve_method(token)[1:], UNIT, 1, 0))


@lru_cache(maxsize=None)
def sim(token: str, m: int, speeds_key: str = "mixed"):
    _, strategy, allocation = resolve_method(token)
    speeds = MIXED if speeds_key == "mixed" else UNIT
    plan = TrialPlan(REGION, m, strategy, allocation, speeds, TRIALS, 0)
    return run_trials(plan)


def test_criterion_1_equal_subregions(criterion_report):
    worst = 0.0
    worst_m = None
    for m in (1, 2, 4, 8, 16, 32, 10):
        stats = sim("equal", m, "unit")
        rel = abs(stats.mean - L / (2 * m)) / (L / (2 * m))
        if rel > worst:
            worst, worst_m = rel, m
    ok = worst < 0.01
    criterion_report(1, ok, f"max rel dev {worst:.2e} at m={worst_m} (bound 1%)")
    assert ok


def test_criterion_2_semi_equal(criterion_report):
    # realized length multiset equals the two-point law exactly, every m
    for m in range(1, 65):
        want = Counter()
        for value, mass in zip(*length_pmf_semi_equal(L, m)):
            count = mass * m
            assert math.isclose(count, round(count), abs_tol=1e-9)
            want[value] = round(count)
        got = Counter(oracles.successor_gaps(semi_equal_starts(L, m), L))
        assert got == want, f"m={m}"

    # analytic ordering against the even split, equality exactly at powers of two
    for m in range(1, 65):
        semi = closed_unit("semi-equal", m)
        even = closed_unit("equal", m)
        if m & (m - 1) == 0:
            assert semi == even, f"m={m}"
        else:
            assert semi > even, f"m={m}"

    worst = 0.0
    worst_m = None
    for m in (3, 4, 5, 6, 10, 16, 24):
        stats = sim("semi-equal", m, "unit")
        want = closed_unit("semi-equal", m)
        rel = abs(stats.mean - want) / want
        if rel > worst:
            worst, worst_m = rel, m
    ok = worst < 0.01
    criterion_report(
        2, ok, f"multisets exact for m 1..64; max sim rel dev {worst:.2e} at m={worst_m}"
    )
    assert ok


def test_criterion_3a_random_gap_histogram(criterion_report):
    worst_ratio = 0.0
    worst_m = None
    for m in (2, 5, 10, 20, 30):
        seed = np.random.SeedSequence(entropy=0, spawn_key=(m,))
        est = estimate_length_pmf(L, m, TRIALS, seed)
        oracle = spacing_pmf_oracle(L, m)
        dev = np.max(np.abs(est - oracle))
        se_max = math.sqrt(np.max(oracle * (1 - oracle)) / (TRIALS * m))
        ratio = dev / (5 * se_max)
        if ratio > worst_ratio:
            worst_ratio, worst_m = ratio, m

    # shape facts behind the deviation bound
    two = spacing_pmf_oracle(L, 2)
    assert np.ptp(two) < 1e-15  # uniform gap law for two points
    three = spacing_pmf_oracle(L, 3)
    steps = np.diff(three)
    assert np.all(steps < 0)  # linear decrease
    assert np.max(np.abs(np.diff(steps))) < 1e-15

    ok = worst_ratio < 1.0
    criterion_report(
        "3a", ok, f"max |dev| = {worst_ratio:.2f} of the 5-stderr budget, worst m={worst_m}"
    )
    assert ok


def test_criterion_3b_random_equal_equivalences(criterion_report):
    pairs = ((19, 50.0), (31, 31.25))
    worst = 0.0
    for m, want in pairs:
        rel = abs(sim("random", m, "unit").mean - want) / want
        worst = max(worst, rel)
    ok = worst < 0.02
    criterion_report(
        "3b", ok, f"random m=19 vs 50, m=31 vs 31.25: max rel dev {worst:.2e} (bound 2%)"
    )
    assert ok


def test_criterion_4_mean_inverse_speed(criterion_report):
    got = mean_inverse_speed(MIXED)
    dev = abs(got - 1.19091)
    ok = dev < 5e-6
    criterion_report(4, ok, f"E(1/v) = {got!r}, dev {dev:.2e} (bound 5e-6)")
    assert ok


def test_criterion_5_proportional(criterion_report):
    # every agent finishes its arc at the same instant: length/speed == L/sum(v)
    rng = np.random.default_rng(5)
    for _ in range(50):
        m = int(rng.integers(1, 12))
        v = rng.choice(MIXED.speeds, p=MIXED.masses, size=m)
        starts, lengths = oracles.proportional_arcs(v, L)
        finish = np.array(lengths) / v
        assert np.allclose(finish, L / v.sum(), rtol=1e-12, atol=0.0)
        # the kernel lays out the same arcs: each owner reaches a point just short
        # of its arc's end just short of L / sum(v)
        x = np.array(starts) + (1 - 1e-9) * np.array(lengths)
        times = proportional_times(np.tile(v, (m, 1)), x, L)
        assert np.allclose(times, L / v.sum(), rtol=1e-8, atol=0.0)

    # the simulated per-trial time never exceeds that bound and comes arbitrarily close
    n = 200_000
    v = rng.choice(MIXED.speeds, p=MIXED.masses, size=(n, 10))
    x = rng.uniform(0.0, L, n)
    times = proportional_times(v, x, L)
    bound = L / v.sum(axis=1)
    assert np.all(times <= bound * (1 + 1e-12))
    assert np.max(times / bound) > 1 - 1e-4

    stats = sim("proportional", 10)
    want = expected_time_proportional_resampled(L, MIXED, 10)
    rel = abs(stats.mean - want) / want
    ok = rel < 0.01
    criterion_report(
        5, ok, f"worst time == L/sum(v); sim mean {stats.mean:.4f} vs {want:.4f}, rel dev {rel:.2e}"
    )
    assert ok


def test_criterion_6_strategy_ordering(criterion_report):
    worst_slack = -math.inf
    detail_m = None
    for m in (8, 16, 24, 32):
        one = sim("one-directional", m)
        two = sim("two-directional", m)
        slack = two.mean - one.mean - 2 * (one.ci95 + two.ci95)
        if slack > worst_slack:
            worst_slack, detail_m = slack, ("one>=two", m)
        grouped = [sim(f"grouped-{n}", m) for n in (1, 2, 3, 4)]
        for a, b in zip(grouped, grouped[1:]):
            slack = b.mean - a.mean - 2 * (a.ci95 + b.ci95)
            if slack > worst_slack:
                worst_slack, detail_m = slack, ("grouped", m)
    ok = worst_slack <= 0
    criterion_report(
        6, ok, f"orderings hold within 2 CI widths; tightest margin {-worst_slack:.4f} at {detail_m}"
    )
    assert ok


QUINTUPLE = (
    ("one-directional", 23),
    ("two-directional", 14),
    ("grouped-3", 12),
    ("grouped-4", 11),
    ("proportional", 10),
)


def quintuple_spread(targets):
    means = {f"{t}:{m}": sim(t, m).mean for t, m in targets}
    grand = sum(means.values()) / len(means)
    spread = max(abs(v - grand) / grand for v in means.values())
    return means, grand, spread


@pytest.mark.xfail(
    strict=True,
    reason="splitting each sweep into two half-speed passes leaves the per-agent "
    "time distribution unchanged under uniform random starts, so the "
    "two-directional point stays on the one-directional curve and the "
    "published agent counts cannot agree within 10%",
)
def test_criterion_7_equivalence_quintuple(criterion_report):
    means, grand, spread = quintuple_spread(QUINTUPLE)
    ok = spread <= 0.10
    shown = ", ".join(f"{k}={v:.1f}" for k, v in means.items())
    criterion_report(7, ok, f"spread {spread:.0%} of grand mean {grand:.1f} ({shown})")
    assert ok


def test_criterion_7_supplementary_grouped_family(criterion_report):
    # replacing the two odd entries with their grouped counterparts at the same
    # agent counts gives a quintuple that does agree
    targets = (
        ("grouped-1", 23),
        ("grouped-2", 14),
        ("grouped-3", 12),
        ("grouped-4", 11),
        ("proportional", 10),
    )
    means, grand, spread = quintuple_spread(targets)
    ok = spread <= 0.10
    shown = ", ".join(f"{k}={v:.1f}" for k, v in means.items())
    criterion_report(
        "7 (supplementary)", ok, f"spread {spread:.0%} of grand mean {grand:.1f} ({shown})"
    )
    assert ok


def test_criterion_8_one_directional_soundness(criterion_report):
    # with mixed speeds the analytic form is a no-overtake bound, which the mean must
    # not pass; at unit speed nothing overtakes, so L/(m+1) is the exact mean, and a
    # one-sided check against it would pass by chance about half the time
    worst = -math.inf
    worst_m = None
    for m in (8, 16, 23, 24, 32):
        stats = sim("one-directional", m)
        bound = expected_time_random_starts(L, m, MIXED)
        excess = (stats.mean - bound) / bound
        if excess > worst:
            worst, worst_m = excess, m
    worst_z = 0.0
    worst_unit = None
    for m in (19, 31):
        stats = sim("one-directional", m, "unit")
        z = abs(stats.mean - L / (m + 1)) / stats.stderr
        if z > worst_z:
            worst_z, worst_unit = z, m
    ok = worst <= 0 and worst_z <= 5
    criterion_report(
        8,
        ok,
        f"mixed: sim mean <= analytic, closest margin {-worst:.2%} at m={worst_m}; "
        f"unit: max |z| = {worst_z:.2f} against L/(m+1) (bound 5) at m={worst_unit}",
    )
    assert ok


def test_criterion_9_reproducibility(criterion_report, tmp_path):
    argv = [
        "compare",
        "--targets",
        "one-directional:6,grouped-2:6,proportional:5",
        "--trials",
        "200000",
        "--seed",
        "11",
    ]
    texts = []
    for name, extra in (("a", ["--workers", "1"]), ("b", ["--workers", "3"]), ("c", [])):
        out = tmp_path / f"{name}.csv"
        assert main(argv + extra + ["--output", str(out)]) == 0
        texts.append(out.read_bytes())
    ok = texts[0] == texts[1] == texts[2]
    criterion_report(9, ok, "byte-identical across reruns and worker counts")
    assert ok
