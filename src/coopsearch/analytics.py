"""Closed-form expected search times for the region-division strategies."""

from __future__ import annotations

import math
from typing import Iterator

import numpy as np

from .model import SpeedDistribution

__all__ = [
    "mean_inverse_speed",
    "second_moment",
    "expected_time_independent",
    "expected_time_random_starts",
    "expected_time_proportional_resampled",
    "speed_sum_inverse_mean",
]


def mean_inverse_speed(speed_pmf: SpeedDistribution) -> float:
    """E(1/v) under the speed law."""
    return math.fsum(p / v for v, p in speed_pmf.atoms)


def second_moment(length_pmf: tuple[np.ndarray, np.ndarray]) -> float:
    """E(l^2) under a (lengths, masses) law."""
    vals, masses = length_pmf
    return float(np.dot(vals * vals, masses))


def expected_time_independent(
    speed_pmf: SpeedDistribution,
    length_pmf: tuple[np.ndarray, np.ndarray],
    m: int,
    region_length: float,
) -> float:
    """Mean search time m/(2L) * E(1/v) * E(l^2) when speed and a (lengths, masses)
    length law are independent."""
    if m < 1:
        raise ValueError(f"agent count must be positive, got {m}")
    return (
        m
        / (2.0 * region_length)
        * mean_inverse_speed(speed_pmf)
        * second_moment(length_pmf)
    )


def expected_time_random_starts(
    region_length: float, m: int, speed_pmf: SpeedDistribution
) -> float:
    """Uniform random starts: gap lengths have E(l^2) = 2L^2 / (m (m+1)) exactly,
    so the factorized mean m/(2L) * E(1/v) * E(l^2) is L * E(1/v) / (m + 1)."""
    if m < 1:
        raise ValueError(f"agent count must be positive, got {m}")
    L = region_length
    return m / (2.0 * L) * mean_inverse_speed(speed_pmf) * (2.0 * L * L / (m * (m + 1)))


# about 10 us a term on a 10-atom law, so seconds of work at the cap; the largest
# enumeration any table needs is 58,905 terms (m=32, 5 atoms)
_MAX_TERMS = 10**6


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


def speed_sum_inverse_mean(speed_pmf: SpeedDistribution, n: int) -> float:
    """E[1 / (v_1 + ... + v_n)] for n independent draws from the speed law.

    Exact enumeration over count vectors; C(n + k - 1, k - 1) terms for k atoms.
    More than _MAX_TERMS terms raises ValueError rather than run for hours.
    """
    if n < 1:
        raise ValueError(f"draw count must be positive, got {n}")
    speeds = [v for v, _ in speed_pmf.atoms]
    masses = [p for _, p in speed_pmf.atoms]
    terms = math.comb(n + len(speeds) - 1, len(speeds) - 1)
    if terms > _MAX_TERMS:
        raise ValueError(
            f"E[1/sum(v)] for {n} draws of a {len(speeds)}-atom speed law "
            f"enumerates {terms} terms, more than {_MAX_TERMS}"
        )
    acc = 0.0
    for counts in _compositions(n, len(speeds)):
        coef = 1
        rem = n
        for c in counts:
            coef *= math.comb(rem, c)
            rem -= c
        prob = coef * math.prod(p**c for p, c in zip(masses, counts))
        total_speed = math.fsum(c * v for c, v in zip(counts, speeds))
        acc += prob / total_speed
    return acc


def expected_time_proportional_resampled(
    region_length: float, speed_pmf: SpeedDistribution, m: int
) -> float:
    """Mean of L / (2 sum(v)) when the m speeds are redrawn from the law each trial."""
    return region_length / 2.0 * speed_sum_inverse_mean(speed_pmf, m)
