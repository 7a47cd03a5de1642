"""Core value types: wrap distance, region and speed-law validation, the speed draw."""

import math
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from coopsearch.model import _BLOCK_ENTRIES, RegionSpec, SpeedDistribution, _drawn_starts, _row_blocks, _step
from coopsearch.simulation import one_directional_times

L = 1000.0


def wrap_distance(start, target):
    """One-directional kernel time of a single unit-speed agent: its wrap distance to the target."""
    t = one_directional_times(np.array([[start]]), np.array([[1.0]]), np.array([target]), L)[0]
    assert t == oracles.wrap_distance(start, target, L)
    return t


def test_wrap_distance_basic():
    assert wrap_distance(0.0, 750.0) == 750.0
    assert wrap_distance(750.0, 0.0) == 250.0
    assert wrap_distance(333.25, 333.25) == 0.0


positions = st.floats(min_value=0.0, max_value=L, exclude_max=True, allow_nan=False)


@given(positions, positions)
def test_wrap_distance_in_range(a, b):
    d = wrap_distance(a, b)
    assert 0.0 <= d < L


@given(positions, positions)
def test_wrap_distances_complement(a, b):
    if a == b:
        assert wrap_distance(a, b) == 0.0
    else:
        total = wrap_distance(a, b) + wrap_distance(b, a)
        assert math.isclose(total, L, rel_tol=1e-12)


def test_region_validation():
    # the smallest normal length is refused: L * u rounds up to L there
    for bad in (0.0, -1.0, math.inf, math.nan, True, np.True_, sys.float_info.min):
        with pytest.raises(ValueError):
            RegionSpec(bad)


def test_draws_stay_below_every_admitted_length():
    # a drawn start or x is L * u with u <= 1 - 2**-53, so the kernels need not check it
    top, least = np.nextafter(1.0, 0.0), np.nextafter(sys.float_info.min, np.inf)
    for length in (least, 2.0**-1021, 1.0, 1000.0, 1024.0, sys.float_info.max):
        RegionSpec(float(length))
        assert length * top < length
    assert sys.float_info.min * top == sys.float_info.min


MIXED = SpeedDistribution(((0.5, 0.3), (1.0, 0.3), (1.375, 0.4)))


def test_speed_distribution_mixed_profile():
    assert abs(math.fsum(v * p for v, p in MIXED.atoms) - 1.0) < 1e-12
    assert not MIXED.is_degenerate()
    np.testing.assert_array_equal(MIXED.speeds, [0.5, 1.0, 1.375])
    np.testing.assert_array_equal(MIXED.masses, [0.3, 0.3, 0.4])


def test_speed_distribution_point_mass():
    pm = SpeedDistribution.point_mass(2.0)
    assert pm.is_degenerate()
    assert math.fsum(v * p for v, p in pm.atoms) == 2.0


def test_speed_distribution_validation():
    with pytest.raises(ValueError):
        SpeedDistribution(())
    with pytest.raises(ValueError):
        SpeedDistribution(((1.0, 0.5), (2.0, 0.6)))  # masses sum past 1
    with pytest.raises(ValueError):
        SpeedDistribution(((1.0, 0.5), (1.0, 0.5)))  # duplicate atom
    with pytest.raises(ValueError):
        SpeedDistribution(((0.0, 1.0),))
    with pytest.raises(ValueError, match="below L"):
        SpeedDistribution.point_mass(sys.float_info.min)  # the length rule
    with pytest.raises(ValueError):
        SpeedDistribution(((1.0, 0.0), (2.0, 1.0)))  # zero mass atom
    for flag in (True, np.True_):  # a speed or a mass is a number, and a bool is not one
        with pytest.raises(ValueError):
            SpeedDistribution(((flag, 1.0),))
        with pytest.raises(ValueError):
            SpeedDistribution(((1.0, flag),))


def test_speed_distribution_sampling():
    rng = np.random.default_rng(11)
    source = MIXED.sample(rng, (500, 4))
    draws = source[:]
    assert source.shape == draws.shape == (500, 4)
    values = set(np.unique(draws))
    assert values <= {0.5, 1.0, 1.375}
    # all three atoms appear in 2000 draws
    assert len(values) == 3


TEN_ATOMS = SpeedDistribution(tuple((0.25 * (i + 1), 0.1) for i in range(10)))
TINY_MASS = SpeedDistribution(((1.0, 1.0 - 1e-12), (2.0, 1e-12)))
# the largest count of cdf edges at or below u is 255 and 256, either side of the 8-bit limit
WIDE_LAWS = [SpeedDistribution(tuple((0.5 + i / 256, 1 / k) for i in range(k))) for k in (256, 257)]


# m = 256 as in a wide chunk: 24 whole kernel row blocks and a ragged 25th
MULTI_BLOCK = (24 * (_BLOCK_ENTRIES // 256) + 5, 256)


@pytest.mark.parametrize(
    "law",
    [SpeedDistribution.point_mass(1.5), MIXED, TEN_ATOMS, TINY_MASS, *WIDE_LAWS],
    ids=["1", "3", "10", "tiny", "256", "257"],
)
@pytest.mark.parametrize(
    "size",
    [(1, n) for n in (1, 7, _BLOCK_ENTRIES, _BLOCK_ENTRIES + 3, 3 * _BLOCK_ENTRIES - 1)]
    + [(3, 5), (257, 300), MULTI_BLOCK],
    ids=lambda size: str(size[1]) if size[0] == 1 else None,  # a single row is named by its length
)
def test_speed_sample_follows_choice_stream(law, size):
    # the drawn speeds are Generator.choice's stream bit for bit, read whole or in
    # ragged in-order slices (at MULTI_BLOCK some cross a kernel block's end, and some
    # span several blocks; a single row longer than _BLOCK_ENTRIES is one draw), and
    # once read they leave the generator where choice does
    ref = np.random.default_rng(23)
    want = ref.choice(law.speeds, size=size, p=law.masses)
    after = ref.random()
    cuts, step = [0], 0
    while cuts[-1] < want.shape[0]:
        cuts.append(min(want.shape[0], cuts[-1] + (1, 3, 997, 4099)[step % 4]))
        step += 1
    for reads in ([slice(None)], [slice(a, b) for a, b in zip(cuts, cuts[1:])]):
        rng = np.random.default_rng(23)
        source = law.sample(rng, size)
        assert source.shape == want.shape
        got = np.concatenate([source[rows].copy() for rows in reads])
        assert np.array_equal(got, want)
        assert rng.random() == after


def test_drawn_starts_and_speeds_read_interleaved_match_one_shot_draws():
    # a kernel block holds a read of each source at once, and each source fills its own
    # buffer of the thread's workspace, so no read overwrites the other's rows
    want_starts = np.random.default_rng(5).uniform(0, L, MULTI_BLOCK)
    want_speeds = np.random.default_rng(6).choice(MIXED.speeds, size=MULTI_BLOCK, p=MIXED.masses)
    starts = _drawn_starts(np.random.default_rng(5), L, MULTI_BLOCK)
    speeds = MIXED.sample(np.random.default_rng(6), MULTI_BLOCK)
    for k, rows in enumerate(_row_blocks(*MULTI_BLOCK)):
        if k % 2:
            v, s = speeds[rows], starts[rows]
        else:
            s, v = starts[rows], speeds[rows]
        assert np.array_equal(s, want_starts[rows]) and np.array_equal(v, want_speeds[rows]), k


@pytest.mark.parametrize(
    "edges",
    [[], [0.5], [0.25, 0.5, 0.5, 0.75], [-0.0, 0.0, 0.0], np.arange(255) / 256, np.arange(256) / 256],
    ids=["none", "one", "tied", "zeros", "255", "256"],
)
def test_step_is_levels_at_searchsorted(edges):
    # values on each edge, one ulp either side of it, below the first and above the last;
    # 255 and 256 edges put the largest count either side of the 8-bit limit
    edges = np.asarray(edges, dtype=float)
    ends = [edges.min(initial=0.0) - 1.0, edges.max(initial=0.0) + 1.0, -np.inf, np.inf]
    values = np.concatenate([edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf), ends])
    levels = np.arange(len(edges) + 1) * 1.5 - 2.0
    want = levels[np.searchsorted(edges, values, "right")]
    assert np.array_equal(_step(edges, levels, values), want)
    out = values.copy()
    assert _step(edges, levels, out, out=out) is out
    assert np.array_equal(out, want)
