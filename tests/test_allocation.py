"""Allocators and the subregion-length laws they induce."""

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from coopsearch.allocation import (
    _FIXED_DIVISIONS,
    estimate_length_pmf,
    length_pmf_equal,
    length_pmf_semi_equal,
    semi_equal_starts,
    spacing_pmf_oracle,
)
from coopsearch.harness import (
    StrategySpec,
    TrialPlan,
    _chunk_rng,
    closed_form,
    resolve_method,
    run_trials,
)
from coopsearch.model import _BLOCK_ENTRIES, RegionSpec
from coopsearch.simulation import grouped_times, proportional_times

R = RegionSpec(1000.0)
L = 1000.0


def equal_starts(m):
    starts, _ = _FIXED_DIVISIONS["equal"]
    return starts(L, m).tolist()


def test_allocate_equal():
    starts = equal_starts(4)
    assert starts == [0.0, 250.0, 500.0, 750.0]
    assert oracles.successor_gaps(starts, L) == [250.0] * 4
    assert oracles.successor_gaps(equal_starts(1), L) == [L]


def test_owner_of():
    starts = equal_starts(4)
    assert oracles.arc_owner(starts, 0.0) == 0
    assert oracles.arc_owner(starts, 249.999) == 0
    assert oracles.arc_owner(starts, 250.0) == 1  # boundary belongs to the next arc
    assert oracles.arc_owner(starts, 999.5) == 3
    # x before every start wraps to the last arc; an empty arc owns nothing
    assert oracles.arc_owner([100.0, 600.0], 50.0) == 1
    assert oracles.arc_owner([0.0, 500.0, 500.0], 700.0) == 2


def _split_largest_oracle(length: float, m: int) -> list[float]:
    """Insert points one at a time, bisecting the largest arc, earliest start on ties."""
    starts = [0.0]
    for _ in range(m - 1):
        pts = sorted(starts)
        arcs = []
        for i, s in enumerate(pts):
            nxt = pts[(i + 1) % len(pts)]
            arc_len = (nxt - s) % length if len(pts) > 1 else length
            arcs.append((s, arc_len))
        split_start, split_len = max(arcs, key=lambda a: (a[1], -a[0]))
        starts.append(split_start + split_len / 2)
    return starts


def test_semi_equal_starts_match_split_oracle():
    for m in range(1, 65):
        got = sorted(semi_equal_starts(L, m))
        oracle = sorted(_split_largest_oracle(L, m))
        assert got == oracle, f"halving sequence diverges from split oracle at m={m}"


def test_semi_equal_starts_insertion_order():
    assert semi_equal_starts(L, 6).tolist() == [0.0, 500.0, 250.0, 750.0, 125.0, 375.0]


def _halving_loop_oracle(length: float, m: int) -> list[float]:
    """The halving scheme level by level: level n appends (2j + 1) L/2^n for j = 0, 1, ..."""
    starts = [0.0]
    level = 1
    while len(starts) < m:
        step = length / (2**level)
        for j in range(2 ** (level - 1)):
            if len(starts) == m:
                break
            starts.append((2 * j + 1) * step)
        level += 1
    return starts


@pytest.mark.parametrize("length", [1000.0, 0.1, 1 / 3, 12345.678901, 1e155, 1e300])
def test_semi_equal_starts_match_halving_loop_bit_for_bit(length):
    # the closed form forms the loop's product for each point, so every bit agrees,
    # in insertion order, past the crossings of several powers of two
    for m in [*range(1, 301), 1023, 1024, 1025, 4097]:
        got = semi_equal_starts(length, m)
        assert got.dtype == np.float64
        assert got.tolist() == _halving_loop_oracle(length, m), f"L={length!r} m={m}"


@pytest.mark.parametrize("name", list(_FIXED_DIVISIONS))
def test_fixed_division_contract(name):
    # a division declared in allocation runs one-directional on itself, its starts row
    # realizes its length law, it has a closed form, and that form is the simulated
    # mean: equal speeds never overtake
    assert resolve_method(name) == (name, StrategySpec("one-directional"), name)
    starts, length_pmf = _FIXED_DIVISIONS[name]
    realized = Counter(oracles.successor_gaps(starts(L, 10).tolist(), L))  # 10: not 2^n
    assert realized == {v: round(p * 10) for v, p in zip(*length_pmf(L, 10))}
    plan = TrialPlan(R, 8, *resolve_method(name)[1:], (1.0,), 20_000)
    want = closed_form(plan)
    assert want is not None
    stats = run_trials(plan)
    assert abs(stats.mean - want) < 5 * stats.stderr, (name, stats, want)


def test_semi_equal_lengths_match_pmf_exactly():
    # the realized length multiset is exactly the analytic law, every m
    for m in range(1, 65):
        realized = Counter(oracles.successor_gaps(semi_equal_starts(L, m), L))
        predicted = Counter()
        for value, mass in zip(*length_pmf_semi_equal(L, m)):
            predicted[value] = round(mass * m)
        assert realized == predicted, f"length multiset mismatch at m={m}"


def test_length_pmf_semi_equal_two_point_form():
    values, masses = length_pmf_semi_equal(L, 10)  # 8 < 10 < 16
    assert values.tolist() == [125.0, 62.5]
    assert masses.tolist() == [6 / 10, 4 / 10]
    assert length_pmf_semi_equal(L, 16)[0].tolist() == [62.5]
    assert length_pmf_semi_equal(L, 1)[0].tolist() == [1000.0]
    for m in (1, 10, 16):  # a numpy integer count, which has no bit_length, gives the same law
        got, want = length_pmf_semi_equal(L, np.int64(m)), length_pmf_semi_equal(L, m)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))


@given(st.integers(min_value=1, max_value=256))
def test_semi_equal_mean_length(m):
    mean = math.fsum(v * p for v, p in zip(*length_pmf_semi_equal(L, m)))
    assert math.isclose(mean, L / m, rel_tol=1e-12)


@given(st.integers(min_value=1, max_value=128))
def test_semi_equal_starts_are_distinct_dyadics(m):
    starts = semi_equal_starts(L, m)
    assert len(set(starts)) == m
    assert starts[0] == 0.0
    assert all(0.0 <= s < L for s in starts)


def random_starts(m, seed):
    """Chunk 0's start draw for a random-allocation plan."""
    plan = TrialPlan(R, m, *resolve_method("random")[1:], (1.0,), 1, seed)
    return _chunk_rng(plan, 0).uniform(0.0, L, m)


def test_allocate_random_is_seeded():
    a, b, c = random_starts(7, 123), random_starts(7, 123), random_starts(7, 124)
    assert list(a) == list(b)
    assert list(a) != list(c)
    assert math.isclose(sum(oracles.successor_gaps(list(a), L)), L, rel_tol=1e-12)


def test_allocate_random_gap_structure():
    starts = random_starts(5, 99)
    gaps = np.array(oracles.successor_gaps(list(starts), L))
    # each arc runs exactly to the next start clockwise
    for s, gap in zip(starts, gaps):
        nearest = min((t - s) % L for t in starts if t != s)
        assert math.isclose(gap, nearest, rel_tol=1e-12)
    # which is the region the grouped kernel gives a group of one
    x = (starts + 0.5 * gaps) % L
    times = grouped_times(np.tile(starts, (5, 1)), np.ones((5, 5)), x, L, 1)
    np.testing.assert_allclose(times, 0.5 * gaps, rtol=1e-9)


def test_allocate_proportional():
    # arcs [0, 250) and [250, 1000) for speeds 1 and 3, each swept in L / sum(v) = 250
    x = np.array([0.0, 249.999, 250.0, np.nextafter(L, 0.0)])
    times = proportional_times(np.tile([1.0, 3.0], (4, 1)), x, L)
    np.testing.assert_allclose(times, [0.0, 249.999, 0.0, 250.0], rtol=1e-12)
    assert oracles.proportional_arcs([1.0, 3.0], L) == ([0.0, 250.0], [250.0, 750.0])
    with pytest.raises(ValueError):  # speeds are checked where the plan is built
        TrialPlan(R, 2, *resolve_method("proportional")[1:], (1.0, -2.0), 1)


def test_length_pmf_equal():
    values, masses = length_pmf_equal(L, 8)
    assert values.tolist() == [125.0]
    assert masses.tolist() == [1.0]


def test_spacing_pmf_oracle_m2_uniform():
    masses = spacing_pmf_oracle(L, 2)
    assert masses.shape == (1000,)
    np.testing.assert_allclose(masses, 1e-3, rtol=1e-9)


def test_spacing_pmf_oracle_m3_linear():
    masses = spacing_pmf_oracle(L, 3)
    second_diff = np.diff(masses, n=2)
    assert np.abs(second_diff).max() < 1e-12
    assert np.all(np.diff(masses) < 0)


def test_spacing_pmf_oracle_normalized_and_monotone():
    for m in (2, 5, 10, 20, 30):
        masses = spacing_pmf_oracle(L, m)
        assert math.isclose(math.fsum(masses), 1.0, rel_tol=1e-9)
        if m >= 3:
            assert all(b < a for a, b in zip(masses, masses[1:]))
    for m in (1, 0, 2.5, True):  # a gap needs two points, and a count is an integer
        with pytest.raises(ValueError):
            spacing_pmf_oracle(L, m)


def test_histogram_bin_budget():
    # 10**6 unit bins fit: L = 1e6 is the largest region a gap histogram takes
    masses = spacing_pmf_oracle(1e6, 2)
    assert masses.shape == (10**6,)
    assert math.isclose(math.fsum(masses), 1.0, rel_tol=1e-9)
    for length in (1e6 + 0.5, 1e6 + 1, 1e300, math.inf, math.nan, 0.0):
        with pytest.raises(ValueError, match="gap histogram"):
            spacing_pmf_oracle(length, 2)
        with pytest.raises(ValueError, match="gap histogram"):
            estimate_length_pmf(length, 2, 10, 0)


@pytest.mark.parametrize("length", [True, np.True_], ids=["True", "np.True_"])
def test_histogram_length_is_not_a_bool(length):
    # a bool passes the bin budget's range check as L = 1, so the length rule rejects it
    with pytest.raises(ValueError, match="region length"):
        spacing_pmf_oracle(length, 3)
    with pytest.raises(ValueError, match="region length"):
        estimate_length_pmf(length, 3, 10, 0)


@pytest.mark.parametrize("count", [0, 2.5, True])
def test_estimate_length_pmf_counts_are_positive_integers(count):
    with pytest.raises(ValueError, match="positive integer"):
        estimate_length_pmf(L, count, 10, 0)
    with pytest.raises(ValueError, match="positive integer"):
        estimate_length_pmf(L, 3, count, 0)


def test_estimate_length_pmf_deterministic():
    a = estimate_length_pmf(L, 5, 20_000, 42)
    b = estimate_length_pmf(L, 5, 20_000, 42)
    np.testing.assert_array_equal(a, b)
    assert math.isclose(math.fsum(a), 1.0, rel_tol=1e-9)
    assert a.shape == (1000,)  # unit bins over [0, L)


def test_estimate_length_pmf_mean_tracks_oracle():
    for m in (2, 10):
        est = estimate_length_pmf(L, m, 50_000, 3)
        midpoints = np.arange(est.size) + 0.5
        assert abs(np.dot(midpoints, est) - L / m) < 2.0


def test_estimate_length_pmf_matches_oracle_loosely():
    # full-precision 5 stderr bound is the acceptance gate; smoke it at small scale
    trials, m = 100_000, 5
    est = estimate_length_pmf(L, m, trials, 0)
    oracle = spacing_pmf_oracle(L, m)
    dev = np.abs(est - oracle)
    se_max = math.sqrt(max(p * (1 - p) for p in oracle) / (trials * m))
    assert dev.max() < 5 * se_max


def test_estimate_length_pmf_chunking_invariant():
    for m in (2, 4, 7, 30):
        trials = 3 * (_BLOCK_ENTRIES // m) + 123  # three full row blocks and a ragged fourth
        # the same seed drawn in one pass, without row blocks: identical histogram
        expected = oracles.one_shot_length_pmf(L, m, trials, 9)
        np.testing.assert_array_equal(estimate_length_pmf(L, m, trials, 9), expected)
