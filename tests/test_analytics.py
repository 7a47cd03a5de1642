"""Closed-form expected times against hand-computed oracles and identities."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from coopsearch.allocation import length_pmf_equal, length_pmf_semi_equal, semi_equal_starts
from coopsearch.analytics import (
    expected_time_independent,
    expected_time_proportional_resampled,
    expected_time_random_starts,
    mean_inverse_speed,
    second_moment,
    speed_sum_inverse_mean,
)
from coopsearch.harness import TrialPlan, closed_form, resolve_method
from coopsearch.model import RegionSpec, SpeedDistribution
from coopsearch.simulation import proportional_times

L = 1000.0
MIXED = SpeedDistribution(((0.5, 0.3), (1.0, 0.3), (1.375, 0.4)))
MIXED_MEAN = math.fsum(v * p for v, p in MIXED.atoms)  # E(v) = 1
UNIT = SpeedDistribution.point_mass(1.0)


def closed(method, m, speed=1.0, length=L):
    """The STRATEGIES table's closed form for `method` with m agents of one shared speed."""
    plan = TrialPlan(RegionSpec(length), m, *resolve_method(method)[1:], (speed,), 1)
    return closed_form(plan)


def solution_in_region_prob(pmf, m, length):
    """Chance that the solution lands in a subregion of the given length: m * P(l) * l / L."""
    return m * math.fsum(p for v, p in zip(*pmf) if v == length) * length / L


def test_mean_inverse_speed_mixed_profile():
    # 0.3/0.5 + 0.3/1.0 + 0.4/1.375 = 131/110
    assert math.isclose(mean_inverse_speed(MIXED), 131 / 110, rel_tol=1e-14)


def test_mean_inverse_speed_exceeds_inverse_mean():
    # Jensen: E(1/v) >= 1/E(v), strict for a non-degenerate law
    assert mean_inverse_speed(MIXED) > 1 / MIXED_MEAN
    assert mean_inverse_speed(UNIT) == 1.0


def test_second_moment_hand_values():
    assert second_moment(length_pmf_equal(L, 4)) == 62500.0
    assert second_moment(length_pmf_semi_equal(L, 3)) == 125000.0
    assert second_moment(length_pmf_semi_equal(L, 5)) == 43750.0
    assert second_moment(length_pmf_semi_equal(L, 10)) == 10937.5


def test_solution_in_region_prob():
    semi3 = length_pmf_semi_equal(L, 3)
    assert math.isclose(solution_in_region_prob(semi3, 3, 500.0), 0.5, rel_tol=1e-12)
    assert math.isclose(solution_in_region_prob(semi3, 3, 250.0), 0.5, rel_tol=1e-12)
    assert solution_in_region_prob(semi3, 3, 111.0) == 0.0
    # the law's hit chances are the shares of the circle the halving starts give each length
    for m in (3, 5, 10, 23):
        pmf = length_pmf_semi_equal(L, m)
        gaps = oracles.successor_gaps(semi_equal_starts(L, m), L)
        for value in pmf[0]:
            share = math.fsum(g for g in gaps if g == value) / L
            assert math.isclose(solution_in_region_prob(pmf, m, value), share, rel_tol=1e-12)


@given(st.integers(min_value=1, max_value=200))
def test_region_probabilities_total_one(m):
    pmf = length_pmf_semi_equal(L, m)
    total = math.fsum(solution_in_region_prob(pmf, m, v) for v in pmf[0])
    assert math.isclose(total, 1.0, rel_tol=1e-12)


def test_joint_product_matches_independent_form():
    # the joint form m/(2L) * sum p(v, l) l^2 / v over the product law factorizes
    for m in (2, 5, 10):
        pmf = length_pmf_semi_equal(L, m)
        joint = math.fsum(
            pv * pl * l * l / v for v, pv in MIXED.atoms for l, pl in zip(*pmf)
        )
        assert math.isclose(
            m / (2.0 * L) * joint,
            expected_time_independent(MIXED, pmf, m, L),
            rel_tol=1e-12,
        )


def test_expected_time_equal():
    assert closed("equal", 4) == 125.0
    assert closed("equal", 10) == 50.0
    assert closed("equal", 10, speed=2.0) == 25.0


def test_expected_time_semi_equal_hand_values():
    assert closed("semi-equal", 3) == 187.5
    assert closed("semi-equal", 5) == 109.375
    assert closed("semi-equal", 10) == 54.6875


def test_semi_equal_dominates_equal():
    for m in range(1, 65):
        semi = closed("semi-equal", m)
        equal = closed("equal", m)
        if m & (m - 1) == 0:  # power of two
            assert semi == equal
        else:
            assert semi > equal


def test_expected_time_random_starts():
    # E(l^2) = 2L^2/(m(m+1)) makes the unit-speed mean L/(m+1)
    assert math.isclose(expected_time_random_starts(L, 19, UNIT), 50.0, rel_tol=1e-12)
    assert math.isclose(expected_time_random_starts(L, 31, UNIT), 31.25, rel_tol=1e-12)
    # the two homogeneous equivalences: random needs roughly twice the agents
    assert expected_time_random_starts(L, 19, UNIT) == closed("equal", 10)
    assert expected_time_random_starts(L, 31, UNIT) == closed("equal", 16)


def test_expected_time_random_starts_heterogeneous():
    value = expected_time_random_starts(L, 23, MIXED)
    assert math.isclose(value, 1000 * (131 / 110) / 24, rel_tol=1e-12)


def test_expected_time_proportional():
    # fixed speeds: every point is found by L / sum(v), uniformly, so the mean is
    # L / (2 sum(v)); the kernel's times are linear on each arc, so the midpoint
    # rule over unit bins (arc ends fall on bin edges) gives that mean exactly
    x = np.arange(1000) + 0.5
    for speeds, want in (([1.0, 3.0], 125.0), ([1.0], 500.0)):
        times = proportional_times(np.tile(speeds, (x.size, 1)), x, L)
        assert math.isclose(times.mean(), want, rel_tol=1e-12)


def test_speed_sum_inverse_mean_single_draw():
    assert math.isclose(speed_sum_inverse_mean(MIXED, 1), mean_inverse_speed(MIXED), rel_tol=1e-14)


def test_speed_sum_inverse_mean_two_draws():
    # full enumeration by hand over the 6 unordered pairs
    hand = (
        0.09 / 1.0
        + 0.09 / 2.0
        + 0.16 / 2.75
        + 0.18 / 1.5
        + 0.24 / 1.875
        + 0.24 / 2.375
    )
    assert math.isclose(speed_sum_inverse_mean(MIXED, 2), hand, rel_tol=1e-12)


def test_speed_sum_inverse_mean_refuses_huge_enumeration():
    # C(32 + 9, 9) = 350,343,565 terms for 10 atoms at n=32: an error, not hours of work
    law = SpeedDistribution(tuple((1.0 + k / 10, 0.1) for k in range(10)))
    with pytest.raises(ValueError, match="350343565 terms"):
        speed_sum_inverse_mean(law, 32)


@pytest.mark.parametrize("count", [0, 2.5, True])
def test_counts_are_positive_integers(count):
    # a float or bool count once ran, or failed with TypeError deep in the enumeration
    with pytest.raises(ValueError, match="positive integer"):
        expected_time_random_starts(L, count, MIXED)
    with pytest.raises(ValueError, match="positive integer"):
        expected_time_independent(MIXED, length_pmf_equal(L, 4), count, L)
    with pytest.raises(ValueError, match="positive integer"):
        speed_sum_inverse_mean(MIXED, count)
    with pytest.raises(ValueError, match="positive integer"):
        expected_time_proportional_resampled(L, MIXED, count)


@pytest.mark.parametrize("length", [True, np.True_, math.nan, math.inf, 0, -1])
def test_region_lengths_take_the_length_rule(length):
    # a bool once ran as L = 1: expected_time_random_starts(True, 3, UNIT) returned 0.25
    calls = [
        lambda: expected_time_independent(UNIT, length_pmf_equal(L, 3), 3, length),
        lambda: expected_time_random_starts(length, 3, UNIT),
        lambda: expected_time_proportional_resampled(length, UNIT, 3),
        lambda: length_pmf_equal(length, 3),
        lambda: length_pmf_semi_equal(length, 3),
        lambda: semi_equal_starts(length, 3),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="region length"):
            call()


def spread_law(atoms):
    """`atoms` equally likely speeds 0.5, 0.75, 1.0, ..."""
    return SpeedDistribution(tuple((0.5 + k / 4, 1 / atoms) for k in range(atoms)))


@pytest.mark.parametrize("atoms", [1, 3, 5, 10])
@pytest.mark.parametrize("n", [1, 2, 6])
def test_enumeration_matches_recursive_oracle(atoms, n):
    law = spread_law(atoms)
    # the same terms in the same order: bit for bit, not just close
    assert speed_sum_inverse_mean(law, n) == oracles.speed_sum_inverse_mean(law.atoms, n)


@pytest.mark.parametrize(
    "law, n",
    [
        (spread_law(300), 2),
        (spread_law(2000), 1),  # as deep a walk as atoms, far past the recursion limit
        (SpeedDistribution(((1.0, 1.0 - 1e-12), (2.0, 1e-12))), 32),  # its last terms underflow to 0
        (SpeedDistribution.point_mass(1.5), 7),
        # speeds and masses off the dyadic grid, where regrouping a term's products or
        # its division, or summing its speed terms without fsum, moves the last bit
        (MIXED, 3),
        (SpeedDistribution(((0.3, 0.1), (0.7, 0.2), (1.1, 0.3), (2.9, 0.4))), 12),
        (SpeedDistribution(((2.5, 0.25), (0.7, 0.25), (0.1, 0.5))), 4),
    ],
    ids=["300-atoms", "2000-atoms", "tiny-mass", "point-mass", "mixed", "irregular", "fsum"],
)
def test_enumeration_matches_oracle_on_edge_laws(law, n):
    assert speed_sum_inverse_mean(law, n) == oracles.speed_sum_inverse_mean(law.atoms, n)


@pytest.mark.parametrize("total, parts", [(0, 3), (1, 1), (3, 1), (4, 3), (5, 4), (2, 6)])
def test_oracle_compositions_are_every_count_vector_in_order(total, parts):
    every = [c for c in itertools.product(range(total + 1), repeat=parts) if sum(c) == total]
    assert list(oracles.compositions(total, parts)) == every  # product runs in lexicographic order


def test_speed_sum_inverse_mean_point_mass():
    assert math.isclose(speed_sum_inverse_mean(SpeedDistribution.point_mass(2.0), 5), 0.1, rel_tol=1e-14)


def test_speed_sum_inverse_mean_jensen_and_decay():
    prev = None
    for n in range(1, 9):
        val = speed_sum_inverse_mean(MIXED, n)
        assert val >= 1.0 / (n * MIXED_MEAN)
        if prev is not None:
            assert val < prev
        prev = val


def test_expected_time_proportional_resampled():
    # point-mass speeds reduce to the equal-division value
    assert math.isclose(
        expected_time_proportional_resampled(L, SpeedDistribution.point_mass(1.0), 10),
        closed("equal", 10),
        rel_tol=1e-12,
    )
    # resampling penalty: mean of L/(2 S) exceeds L/(2 E(S)) by Jensen
    value = expected_time_proportional_resampled(L, MIXED, 10)
    assert value > L / (2 * 10 * MIXED_MEAN)
    assert math.isclose(value, 500.0 * speed_sum_inverse_mean(MIXED, 10), rel_tol=1e-14)


@given(
    st.floats(min_value=10.0, max_value=1e5),
    st.integers(min_value=1, max_value=40),
    st.sampled_from([0.25, 1.0, 3.5]),
)
def test_expected_times_scale_linearly_in_length(length, m, c):
    # all closed forms are homogeneous of degree 1 in L
    for method in ("equal", "semi-equal"):
        assert math.isclose(
            closed(method, m, length=c * length), c * closed(method, m, length=length), rel_tol=1e-9
        )
    assert math.isclose(
        expected_time_random_starts(c * length, m, MIXED),
        c * expected_time_random_starts(length, m, MIXED),
        rel_tol=1e-9,
    )
    assert math.isclose(
        expected_time_proportional_resampled(c * length, MIXED, m),
        c * expected_time_proportional_resampled(length, MIXED, m),
        rel_tol=1e-9,
    )
