"""Per-trial mechanics: worked examples, invariants, and scalar-vs-kernel agreement."""

import math
import tracemalloc
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from coopsearch.allocation import semi_equal_starts
from coopsearch.harness import StrategySpec, resolve_method
from coopsearch.model import _BLOCK_ENTRIES, _row_blocks
from coopsearch.simulation import (
    grouped_times,
    one_directional_times,
    proportional_times,
    two_directional_times,
)
from coopsearch.simulation import (
    _SWEEP_COLUMNS,
    _grouped_block,
    _proportional_block,
    _reduce_rows,
)

L = 1000.0
ONE = StrategySpec("one-directional")
TWO = StrategySpec("two-directional")


def test_strategy_spec_parse():
    # a strategy token is read into its StrategySpec by resolve_method
    assert resolve_method("one_directional")[1] == ONE
    assert resolve_method("grouped-3")[1] == StrategySpec("grouped", 3)
    assert str(StrategySpec("grouped", 4)) == "grouped-4"
    assert str(TWO) == "two-directional"
    for token in ("grouped", "grouped-x", "sideways"):
        with pytest.raises(ValueError):
            resolve_method(token)
    with pytest.raises(ValueError):
        StrategySpec("one-directional", 3)
    with pytest.raises(ValueError):
        StrategySpec("grouped", 0)


def test_one_directional_examples():
    assert oracles.one_directional([0, 500], [1, 1], 750, L) == (250.0, 1)
    assert oracles.one_directional([0, 500], [5, 1], 600, L) == (100.0, 1)
    # the fast agent overtakes into its neighbor's arc
    assert oracles.one_directional([0, 500], [5, 1], 900, L) == (180.0, 0)


def test_two_directional_examples():
    assert oracles.two_directional([0], [2], 10, L) == (10.0, 0)
    assert oracles.two_directional([0, 500], [2, 1], 600, L) == (200.0, 1)
    # symmetric meeting: both arrive at t=500, tie goes to the lower id
    assert oracles.two_directional([0, 500], [1, 1], 750, L) == (500.0, 0)


def test_grouped_pooled_rate():
    # one group of everyone: offset 800 at pooled rate 4; the solution sits past
    # the first member's proportional share
    assert oracles.grouped([0, 300], [1, 3], 800, L, 2) == (200.0, 1)


def test_grouped_single_member_groups():
    assert oracles.grouped([0, 500], [1, 1], 750, L, 1) == (250.0, 1)


def test_grouped_ragged_last_group():
    # m=3, n=2: groups {0,400} and {700}; regions [0,700) and [700,1000)
    t, finder = oracles.grouped([0, 400, 700], [1, 2, 3], 650, L, 2)
    assert math.isclose(t, 650 / 3, rel_tol=1e-12)
    assert finder == 1  # first group; shares: [0, 233.3) to agent 0, rest to agent 1

    t, finder = oracles.grouped([0, 400, 700], [1, 2, 3], 800, L, 2)
    assert math.isclose(t, 100 / 3, rel_tol=1e-12)
    assert finder == 2  # the ragged last group


def test_grouped_full_group_time_is_uniform():
    # n = m: time should be uniform on [0, L/sum(v)] whatever the starts are
    rng = np.random.default_rng(5)
    trials = 40_000
    starts = rng.uniform(0, L, (trials, 3))
    speeds = np.broadcast_to(np.array([1.0, 3.0, 4.0]), (trials, 3))
    x = rng.uniform(0, L, trials)
    t = grouped_times(starts, speeds, x, L, 3)
    bound = L / 8.0
    assert t.max() <= bound and t.min() >= 0
    assert abs(t.mean() - bound / 2) < 3 * bound / math.sqrt(12 * trials)
    # quartiles of a uniform law
    q1, q3 = np.quantile(t, [0.25, 0.75])
    assert abs(q1 - bound / 4) < 1.0 and abs(q3 - 3 * bound / 4) < 1.0


def test_proportional_examples():
    t, finder = oracles.proportional([1.0, 3.0], 500.0, L)
    assert finder == 1
    assert math.isclose(t, 250 / 3, rel_tol=1e-12)
    t, finder = oracles.proportional([1.0, 3.0], 249.999, L)
    assert finder == 0
    assert math.isclose(t, 249.999, rel_tol=1e-12)
    assert oracles.proportional([2.0], 100.0, L) == (50.0, 0)
    # boundary belongs to the next arc
    assert oracles.proportional([1.0, 3.0], 250.0, L) == (0.0, 1)


positions = st.floats(min_value=0.0, max_value=L, exclude_max=True, allow_nan=False)
speeds_st = st.floats(min_value=0.05, max_value=20.0, allow_nan=False)


@st.composite
def trial_inputs(draw, min_agents=1, max_agents=8):
    m = draw(st.integers(min_value=min_agents, max_value=max_agents))
    starts = draw(st.lists(positions, min_size=m, max_size=m))
    speeds = draw(st.lists(speeds_st, min_size=m, max_size=m))
    x = draw(positions)
    return starts, speeds, x


@given(trial_inputs())
def test_sweep_time_bounds(inputs):
    starts, speeds, x = inputs
    t1, _ = oracles.one_directional(starts, speeds, x, L)
    t2, _ = oracles.two_directional(starts, speeds, x, L)
    vmin = min(speeds)
    assert t1 <= L / vmin * (1 + 1e-12)
    assert t2 <= L / (vmin / 2) * (1 + 1e-12)


@given(st.integers(min_value=1, max_value=12), positions)
@example(m=3, x=999.9999999999999)  # x / (L / m) rounds up to 3.0 here
def test_homogeneous_no_overtake_finder(m, x):
    # equal speeds, equal arcs: the arc owner always wins
    starts = [i * L / m for i in range(m)]
    _, finder = oracles.one_directional(starts, [1.0] * m, x, L)
    owner = max(i for i, s in enumerate(starts) if s <= x)
    assert finder == owner


def no_overtake_condition(v_min, v_max, l_min, l_max):
    """Whether the slowest agent always finishes its arc before the fastest invades:
    v_max / v_min < (l_min + l_max) / l_max."""
    return v_max / v_min < (l_min + l_max) / l_max


@given(
    st.integers(min_value=1, max_value=12),
    st.lists(st.floats(min_value=1.0, max_value=1.45), min_size=12, max_size=12),
    positions,
)
def test_no_overtake_condition(m, speeds, x):
    # semi-equal arcs take two lengths, l and l/2, so speeds within a factor 1.5
    # meet the condition and the arc owner finds every solution
    starts = semi_equal_starts(L, m)
    speeds = speeds[:m]
    lengths = oracles.successor_gaps(starts, L)
    assert no_overtake_condition(min(speeds), max(speeds), min(lengths), max(lengths))
    t, finder = oracles.one_directional(starts, speeds, x, L)
    owner = oracles.arc_owner(starts, x)
    assert finder == owner
    assert t == oracles.wrap_distance(starts[owner], x, L) / speeds[owner]
    # past the bound a fast agent overtakes into its neighbor's arc
    assert not no_overtake_condition(1.0, 5.0, 500.0, 500.0)
    assert oracles.one_directional([0, 500], [5, 1], 900, L)[1] == 0


@given(trial_inputs())
@settings(max_examples=150)
def test_one_directional_kernel_matches_scalar(inputs):
    starts, speeds, x = inputs
    scalar, _ = oracles.one_directional(starts, speeds, x, L)
    batch = one_directional_times(
        np.array([starts]), np.array([speeds]), np.array([x]), L
    )
    assert math.isclose(batch[0], scalar, rel_tol=1e-12, abs_tol=1e-12)


@given(trial_inputs())
@settings(max_examples=150)
def test_two_directional_kernel_matches_scalar(inputs):
    starts, speeds, x = inputs
    scalar, _ = oracles.two_directional(starts, speeds, x, L)
    batch = two_directional_times(
        np.array([starts]), np.array([speeds]), np.array([x]), L
    )
    assert math.isclose(batch[0], scalar, rel_tol=1e-12, abs_tol=1e-12)


@given(trial_inputs(min_agents=2), st.integers(min_value=1, max_value=8))
@settings(max_examples=150)
# agents 0 and 1 share a start, so x sits on the float sliver of the wrap group
@example(inputs=([1.0, 1.0, 6.865236922756406e-199], [1.0, 2.0, 1.0], 0.0), n=1)
def test_grouped_kernel_matches_scalar(inputs, n):
    starts, speeds, x = inputs
    m = len(starts)
    n = min(n, m)
    scalar, _ = oracles.grouped(starts, speeds, x, L, n)
    batch = grouped_times(np.array([starts]), np.array([speeds]), np.array([x]), L, n)
    assert math.isclose(batch[0], scalar, rel_tol=1e-12, abs_tol=1e-12)


@given(trial_inputs())
@settings(max_examples=150)
# x is exactly agent 2's arc start: found there at time 0, not charged to agent 1
@example(inputs=([0.0] * 4, [0.5, 1.375, 0.5, 1.375], 500.0))
def test_proportional_kernel_matches_scalar(inputs):
    _, speeds, x = inputs
    scalar, _ = oracles.proportional(speeds, x, L)
    batch = proportional_times(np.array([speeds]), np.array([x]), L)
    assert math.isclose(batch[0], scalar, rel_tol=1e-12, abs_tol=1e-12)


def test_kernels_reject_bad_shapes():
    with pytest.raises(ValueError):
        one_directional_times(np.zeros((3, 2)), np.ones((2, 2)), np.zeros(3), L)
    with pytest.raises(ValueError):
        one_directional_times(np.zeros((3, 2)), np.ones((3, 2)), np.zeros(4), L)
    with pytest.raises(ValueError):
        grouped_times(np.zeros((3, 2)), np.ones((3, 2)), np.zeros(3), L, 5)


@pytest.mark.parametrize(
    "length", [np.inf, np.nan, True, np.True_], ids=["inf", "nan", "True", "np.True_"]
)
def test_kernels_reject_bad_region_length(length):
    starts, speeds, x = np.zeros((3, 2)), np.ones((3, 2)), np.zeros(3)
    kernels = (
        lambda: one_directional_times(starts, speeds, x, length),
        lambda: two_directional_times(starts, speeds, x, length),
        lambda: grouped_times(starts, speeds, x, length, 2),
        lambda: proportional_times(speeds, x, length),
    )
    for kernel in kernels:
        with pytest.raises(ValueError, match="region length"):
            kernel()


@pytest.mark.parametrize("group_size", [True, np.True_, 2.0, 0], ids=["True", "np.True_", "2.0", "0"])
def test_grouped_rejects_bad_group_size(group_size):
    # a group size is a count: a bool or a float is no more 1 or 2 than 0 is
    with pytest.raises(ValueError, match="group size"):
        grouped_times(np.zeros((3, 2)), np.ones((3, 2)), np.zeros(3), L, group_size)


def test_simulations_are_pure():
    starts, speeds = [0, 400, 700], [1, 2, 3]
    a = oracles.grouped(starts, speeds, 650, L, 2)
    assert oracles.grouped(starts, speeds, 650, L, 2) == a
    assert (starts, speeds) == ([0, 400, 700], [1, 2, 3])


# Bit-identity of the row-blocked kernels against the whole-batch wrap formulas
# they replaced, kept here as plain-function oracles.

def wrap_offsets_oracle(a, length):
    d = a % length
    return np.where(d >= length, np.nextafter(length, 0.0), d)


def one_directional_oracle(starts, speeds, x, length):
    return (wrap_offsets_oracle(x[:, None] - starts, length) / speeds).min(axis=1)


def two_directional_oracle(starts, speeds, x, length):
    fwd = wrap_offsets_oracle(x[:, None] - starts, length)
    bwd = wrap_offsets_oracle(starts - x[:, None], length)
    return (np.minimum(fwd, bwd) / (0.5 * speeds)).min(axis=1)


def proportional_arc_starts_oracle(speeds, length):
    lengths = speeds * (length / speeds.sum(axis=1))[:, None]
    left = np.cumsum(lengths, axis=1)[:, :-1]
    return np.concatenate([np.zeros((len(speeds), 1)), left], axis=1), lengths


def proportional_oracle(speeds, x, length):
    """The owner lookup the one-directional sweep replaced: the first arc whose
    wrapped offset lies below its length, else the nearest arc start behind x."""
    left, lengths = proportional_arc_starts_oracle(speeds, length)
    offs = wrap_offsets_oracle(x[:, None] - left, length)
    hit = offs < lengths
    owner = np.argmax(hit, axis=1)
    sliver = ~hit.any(axis=1)
    owner[sliver] = np.argmin(offs[sliver], axis=1)
    rows = np.arange(len(x))
    return offs[rows, owner] / speeds[rows, owner]


def grouped_oracle(starts, speeds, x, length, group_size):
    """The grouped kernel before the owner-only gather: a stable sort of every row,
    the whole speed matrix gathered in sorted order, and one sum per group."""
    order = np.argsort(starts, axis=1, kind="stable")
    sorted_speeds = np.take_along_axis(speeds, order, axis=1)
    bounds = np.take_along_axis(starts, order[:, ::group_size], axis=1)
    G = bounds.shape[1]
    pos = (bounds <= x[:, None]).sum(axis=1) - 1
    pos[pos < 0] = G - 1
    rates = np.empty((len(x), G))
    for g in range(G):
        sorted_speeds[:, g * group_size : (g + 1) * group_size].sum(axis=1, out=rates[:, g])
    rows = np.arange(len(x))
    return wrap_offsets_oracle(x - bounds[rows, pos], length) / rates[rows, pos]


def adversarial_batch(m, seed):
    """Random trials over four row blocks, the last one ragged, with edge positions planted."""
    rng = np.random.default_rng(seed)
    trials = 3 * max(1, _BLOCK_ENTRIES // m) + 17
    assert len(list(_row_blocks(trials, m))) >= 4
    starts = rng.uniform(0, L, (trials, m))
    speeds = rng.choice([0.5, 1.0, 1.375, 3.7], size=(trials, m))
    x = rng.uniform(0, L, trials)
    top = np.nextafter(L, 0.0)
    x[0:4] = 0.0
    x[4:8] = top
    starts[8:12] = x[8:12, None]  # x == start
    starts[12:16] = np.nextafter(x[12:16, None], 0.0)  # start one ulp below x
    starts[16:20] = np.nextafter(x[16:20, None], L)  # start one ulp above x
    starts[20:24], x[20:24] = 0.0, top
    starts[24:28], x[24:28] = top, 0.0
    starts[28:32], x[28:32] = top, np.nextafter(top, 0.0)
    starts[32:36], x[32:36] = 1e-300, 0.0  # x - start + L rounds up to L
    # the same edges again in the last block, which is ragged
    starts[-4:], x[-4:] = top, 0.0
    return starts, speeds, x


# both sides of the column-sweep cutoffs: sums (_SUM_SWEEP_COLUMNS = 7), and minima
# and grouped owner counts (_SWEEP_COLUMNS = 32); both sides of the 8-bit limit on a
# shared start row's count of starts at or before x, at most 255 and at most 256 (x one
# ulp below L); at m = 3 the short tied row of test_grouped_kernel_bit_identical is
# [2, 0, 2] * L / 3
AGENT_COUNTS = [1, 2, 3, 4, 7, 8, 9, 16, 17, 31, 32, 33, 255, 256]


@pytest.mark.parametrize("m", AGENT_COUNTS)
def test_row_minimum_matches_row_reduction(m):
    rng = np.random.default_rng(m)
    d = rng.choice([0.0, 0.1, 0.3, 2.5, np.inf], size=(500, m)) + rng.uniform(0, 1e-3, (500, m))
    d[::3] = 7.0  # rows of equal entries
    got = _reduce_rows(np.minimum, d, np.empty(len(d)), _SWEEP_COLUMNS)
    assert np.array_equal(got, d.min(axis=1))


@pytest.mark.parametrize("m", AGENT_COUNTS)
def test_one_directional_kernel_bit_identical(m):
    starts, speeds, x = adversarial_batch(m, seed=m)
    got = one_directional_times(starts, speeds, x, L)
    assert np.array_equal(got, one_directional_oracle(starts, speeds, x, L))
    # fixed starts and shared speeds arrive as broadcast views
    fixed = np.broadcast_to(np.arange(m) * (L / m), starts.shape)
    unit = np.broadcast_to(np.array([1.0]), starts.shape)
    got = one_directional_times(fixed, unit, x, L)
    assert np.array_equal(got, one_directional_oracle(fixed, unit, x, L))


def same_bits(got, want):
    return np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("m", AGENT_COUNTS)
def test_one_directional_shared_speed_bit_identical(m):
    # one speed for every agent (all strides 0) divides each trial's least offset once;
    # a start row that every trial shares finds that offset without a (trials, m) array
    starts, _, x = adversarial_batch(m, seed=500 + m)
    starts[:2, 0], x[:2] = 0.0, -0.0  # x - start is -0.0, which the wrap makes 0.0
    rng = np.random.default_rng(m)
    rows = {
        "equal": np.arange(m) * (L / m),
        "semi-equal": np.array(semi_equal_starts(L, m)),
        "shuffled": rng.permutation(rng.uniform(0, L, m)),
        "tied": np.resize([2.0, 0.0, 2.0, 1.0, 0.0], m) * (L / 3),
        "zero": np.resize([-0.0, 0.0, L / 2, 0.0, -0.0], m),
    }
    speeds = (1.0, 1.375, 0.1, 3.0, -1.0)  # a negative speed takes the general path
    for v in speeds:
        shared = np.broadcast_to(np.float64(v), starts.shape)
        got = one_directional_times(starts, shared, x, L)
        assert same_bits(got, one_directional_oracle(starts, shared, x, L)), ("random", v)
    for name, row in rows.items():
        # x on each start, one ulp either side of it, one ulp below L, and -0.0
        planted = [row, np.nextafter(row, 0.0), np.nextafter(row, L), [np.nextafter(L, 0.0), -0.0]]
        on_row = np.concatenate([x, *planted])
        fixed = np.broadcast_to(row, (len(on_row), m))
        for v in speeds:
            shared = np.broadcast_to(np.float64(v), fixed.shape)
            got = one_directional_times(fixed, shared, on_row, L)
            assert same_bits(got, one_directional_oracle(fixed, shared, on_row, L)), (name, v)


def test_one_directional_shared_speed_empty_batch():
    got = one_directional_times(np.empty((0, 3)), np.broadcast_to(1.0, (0, 3)), np.empty(0), L)
    assert got.shape == (0,)
    row = np.broadcast_to(np.arange(3.0), (0, 3))
    assert one_directional_times(row, np.broadcast_to(1.0, (0, 3)), np.empty(0), L).shape == (0,)


@pytest.mark.parametrize("m", AGENT_COUNTS)
def test_two_directional_kernel_bit_identical(m):
    starts, speeds, x = adversarial_batch(m, seed=100 + m)
    got = two_directional_times(starts, speeds, x, L)
    assert np.array_equal(got, two_directional_oracle(starts, speeds, x, L))
    fixed = np.broadcast_to(np.arange(m) * (L / m), starts.shape)
    unit = np.broadcast_to(np.array([1.0]), starts.shape)
    got = two_directional_times(fixed, unit, x, L)
    assert np.array_equal(got, two_directional_oracle(fixed, unit, x, L))


@pytest.mark.parametrize("m", AGENT_COUNTS)
def test_proportional_kernel_bit_identical(m):
    _, speeds, x = adversarial_batch(m, seed=300 + m)
    # plant x on a random arc start, other than 0 where there is one, and one ulp
    # either side of it
    left, _ = proportional_arc_starts_oracle(speeds, L)
    rows = np.arange(40, len(x) - 4)
    start = left[rows, np.random.default_rng(m).integers(min(1, m - 1), m, len(rows))]
    at, below, above = rows[0::4], rows[1::4], rows[2::4]
    x[at] = start[0::4]
    x[below] = np.nextafter(start[1::4], 0.0)
    x[above] = np.nextafter(start[2::4], L)
    got = proportional_times(speeds, x, L)
    assert np.all(got[at] == 0.0)
    rest = np.setdiff1d(np.arange(len(x)), at)
    assert np.array_equal(got[rest], proportional_oracle(speeds, x, L)[rest])


# tiny last speeds: the oracle's last arc starts at L, or rounds past it for
# (3.0, 1.1, 1e-17), where the kernel clamps the start at L
@pytest.mark.parametrize("row", [(1.0, 1e-17), (1.0, 1.0, 1e-17), (3.0, 1.1, 1e-17)])
def test_proportional_kernel_last_arc_at_length(row):
    _, _, x = adversarial_batch(len(row), seed=7)
    speeds = np.broadcast_to(np.array(row), (len(x), len(row)))
    assert proportional_arc_starts_oracle(speeds[:1], L)[0][0, -1] >= L
    got = proportional_times(speeds, x, L)
    assert np.all(np.isfinite(got)) and np.all(got >= 0.0)
    assert np.array_equal(got, proportional_oracle(speeds, x, L))


def one_pass(block, starts, speeds, x):
    out = np.empty(len(x))
    block(starts, speeds, x, L, np.empty((2, *speeds.shape)), out)
    return out


def tied_batch(m, seed):
    """An adversarial batch with speeds whose sum depends on its order, ties among the
    starts inside groups and across group boundaries, and x on agent starts."""
    starts, _, x = adversarial_batch(m, seed)
    rng = np.random.default_rng(seed)
    speeds = rng.choice([0.1, 0.2, 0.3, 0.7, 1.375, 3.7], size=starts.shape)
    few = slice(40, len(x) // 2)
    starts[few] = rng.integers(0, 3, starts[few].shape) * (L / 3)  # many ties per row
    pairs = slice(len(x) // 2, len(x) // 2 + 200)
    starts[pairs, 1::2] = starts[pairs, 0:-1:2]  # neighbours in id order share a start
    on = slice(len(x) // 2 + 200, len(x) // 2 + 260)
    x[on] = starts[on, rng.integers(0, m)]  # x on an agent's start, often a boundary
    return starts, speeds, x


@pytest.mark.parametrize("m", AGENT_COUNTS)
def test_grouped_kernel_bit_identical(m):
    starts, speeds, x = tied_batch(m, seed=400 + m)
    x[0:2] = -0.0  # x[2:4] stay 0.0
    fixed = np.broadcast_to(np.arange(m) * (L / m), starts.shape)
    fixed_speeds = np.broadcast_to(np.resize([0.1, 0.2, 0.3, 0.7], m), starts.shape)
    # a broadcast row with ties must take the stable order too
    tied_row = np.broadcast_to(np.resize([2.0, 0.0, 2.0, 1.0, 0.0], m) * (L / 3), starts.shape)
    # -0.0 and 0.0 tie, and either may be a group's first start
    zero_row = np.broadcast_to(np.resize([-0.0, 0.0, L / 2, 0.0, -0.0], m), starts.shape)
    # a Fortran-ordered batch is read in its logical row order
    f_starts, f_speeds = np.asfortranarray(starts), np.asfortranarray(speeds)

    # group sizes on both sides of the width-8 switch in the sum, ragged or not
    for n in range(1, min(m, 12) + 1):
        want = grouped_oracle(starts, speeds, x, L, n)
        assert same_bits(grouped_times(starts, speeds, x, L, n), want), n
        assert same_bits(grouped_times(f_starts, f_speeds, x, L, n), want), n
        for row in (fixed, tied_row, zero_row):
            got = grouped_times(row, fixed_speeds, x, L, n)
            assert same_bits(got, grouped_oracle(row, fixed_speeds, x, L, n)), n
            got = grouped_times(row, speeds, x, L, n)
            assert same_bits(got, grouped_oracle(row, speeds, x, L, n)), n


@pytest.mark.parametrize("m", [2, 5, 33])
def test_grouped_tie_only_across_rows_keeps_bits(m):
    # each row's largest start equals the next row's smallest, so the flat sorted block
    # has equal neighbours while no row has a tie: the per-row check runs and finds none
    rng = np.random.default_rng(600 + m)
    starts = np.sort(rng.uniform(0, L, 3000 * m)).reshape(-1, m)  # rows in ascending runs
    starts[1:, 0] = starts[:-1, -1]
    starts = rng.permuted(starts, axis=1)
    speeds = rng.choice([0.1, 0.2, 0.3, 0.7, 1.375, 3.7], size=starts.shape)
    x = rng.uniform(0, L, len(starts))
    srt = np.sort(starts, axis=1)
    flat = srt.reshape(-1)
    assert not (srt[:, 1:] == srt[:, :-1]).any() and (flat[1:] == flat[:-1]).sum() >= len(starts) - 1
    for n in range(1, m + 1):
        assert same_bits(grouped_times(starts, speeds, x, L, n), grouped_oracle(starts, speeds, x, L, n)), n


@pytest.mark.parametrize(
    "kernel",
    [
        one_directional_times,
        two_directional_times,
        lambda s, v, x, L: grouped_times(s, v, x, L, 2),
        lambda s, v, x, L: proportional_times(v, x, L),
        lambda s, v, x, L: one_directional_times(s, np.broadcast_to(1.5, v.shape), x, L),
        lambda s, v, x, L: one_directional_times(np.broadcast_to(s[0], s.shape), np.broadcast_to(1.5, v.shape), x, L),
    ],
    ids=["one-directional", "two-directional", "grouped", "proportional", "shared-speed", "shared-row"],
)
def test_kernel_outputs_are_fresh_arrays(kernel):
    # callers keep the times, several calls' at once, so no output is a workspace buffer
    starts, speeds, x = adversarial_batch(5, seed=9)
    first = kernel(starts, speeds, x, L)
    second = kernel(starts, speeds, x, L)
    assert not np.shares_memory(first, second)
    assert same_bits(first, second)


@pytest.mark.parametrize("m", [2, 7, 256])
def test_grouped_and_proportional_blocks_match_one_pass(m):
    starts, speeds, x = adversarial_batch(m, seed=200 + m)
    for n in sorted(n for n in {1, 2, 3, 4, 8, 9, m} if n <= m):
        got = grouped_times(starts, speeds, x, L, n)
        assert np.array_equal(got, one_pass(partial(_grouped_block, n), starts, speeds, x))
    got = proportional_times(speeds, x, L)
    assert np.array_equal(got, one_pass(_proportional_block, None, speeds, x))


@pytest.mark.parametrize("m", [16, 256])
@pytest.mark.parametrize(
    "kernel",
    [one_directional_times, two_directional_times, lambda s, v, x, L: proportional_times(v, x, L)],
    ids=["one-directional", "two-directional", "proportional"],
)
def test_kernel_call_allocates_its_work_pair_and_little_else(kernel, m):
    # a call works in its thread's pair of (rows, m) float arrays and fills its output;
    # what a block allocates besides (the wrap's bool mask, proportional's row sums)
    # stays under half a float block, so no block builds a (rows, m) float temporary
    trials = 32768
    rng = np.random.default_rng(m)
    starts, speeds, x = rng.uniform(0, L, (trials, m)), rng.uniform(0.5, 2, (trials, m)), rng.uniform(0, L, trials)
    block = next(_row_blocks(trials, m)).stop * m * 8
    tracemalloc.start()
    try:
        kernel(starts, speeds, x, L)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * block + trials * 8 + block / 2, (peak - 2 * block - trials * 8) / block


@pytest.mark.parametrize("bad", [L, -1.0, np.nextafter(L, np.inf), np.nan, np.inf])
def test_kernels_reject_positions_outside_region(bad):
    starts, speeds, x = adversarial_batch(7, seed=3)
    kernels = (
        lambda s, x: one_directional_times(s, speeds, x, L),
        lambda s, x: two_directional_times(s, speeds, x, L),
        lambda s, x: grouped_times(s, speeds, x, L, 2),
    )
    for kernel in kernels:
        bad_x = x.copy()
        bad_x[5] = bad
        with pytest.raises(ValueError, match="outside"):
            kernel(starts, bad_x)
        bad_starts = starts.copy()
        bad_starts[-1, 3] = bad  # in the last row block, not the first
        with pytest.raises(ValueError, match="outside"):
            kernel(bad_starts, x)
        # fixed starts arrive as one broadcast row
        row = np.arange(7) * (L / 7)
        row[3] = bad
        with pytest.raises(ValueError, match="outside"):
            kernel(np.broadcast_to(row, starts.shape), x)
    bad_x = x.copy()
    bad_x[-1] = bad
    with pytest.raises(ValueError, match="outside"):
        proportional_times(speeds, bad_x, L)
