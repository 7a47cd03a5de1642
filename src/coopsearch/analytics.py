"""Closed-form expected search times for the region-division strategies."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .allocation import LengthDistribution, length_pmf_equal, length_pmf_semi_equal
from .model import SpeedDistribution

__all__ = [
    "JointSpeedLengthPmf",
    "mean_inverse_speed",
    "second_moment",
    "solution_in_region_prob",
    "expected_time_joint",
    "expected_time_independent",
    "expected_time_equal",
    "expected_time_semi_equal",
    "expected_time_random_starts",
    "expected_time_proportional",
    "expected_time_proportional_resampled",
    "speed_sum_inverse_mean",
]


@dataclass(frozen=True)
class JointSpeedLengthPmf:
    """Joint law of (agent speed, subregion length) as (speed, length, mass) atoms."""

    atoms: tuple[tuple[float, float, float], ...]

    def __post_init__(self) -> None:
        if not self.atoms:
            raise ValueError("joint pmf needs at least one atom")
        for v, l, p in self.atoms:
            if not (math.isfinite(v) and v > 0):
                raise ValueError(f"speed must be finite and positive, got {v!r}")
            if not (math.isfinite(l) and l >= 0):
                raise ValueError(f"length must be finite and non-negative, got {l!r}")
            if not (math.isfinite(p) and p >= 0):
                raise ValueError(f"mass must be finite and non-negative, got {p!r}")
        total = math.fsum(p for _, _, p in self.atoms)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"joint masses must sum to 1, got {total!r}")

    @classmethod
    def product(cls, speed_pmf: SpeedDistribution, length_pmf: LengthDistribution) -> "JointSpeedLengthPmf":
        """Independent product law; binned length laws contribute their bin midpoints."""
        lvals = length_pmf.support_values()
        lmass = length_pmf.masses_array()
        atoms = tuple(
            (float(v), float(l), float(pv * pl))
            for v, pv in speed_pmf.atoms
            for l, pl in zip(lvals, lmass)
        )
        return cls(atoms)


def mean_inverse_speed(speed_pmf: SpeedDistribution) -> float:
    """E(1/v) under the speed law."""
    return math.fsum(p / v for v, p in speed_pmf.atoms)


def second_moment(length_pmf: LengthDistribution) -> float:
    """E(l^2) under the length law (bin midpoints for binned laws)."""
    vals = length_pmf.support_values()
    return float(np.dot(vals * vals, length_pmf.masses_array()))


def solution_in_region_prob(
    length_pmf: LengthDistribution, m: int, region_length: float, length: float
) -> float:
    """Probability that the uniformly placed solution lands in a subregion of the given length.

    A length-l subregion is hit with chance l/L, and m agents hold length l with
    total rate m * P(l), so the answer is m * P(l) * l / L.
    """
    if m < 1:
        raise ValueError(f"agent count must be positive, got {m}")
    return m * length_pmf.mass_at(length) * length / region_length


def expected_time_joint(joint: JointSpeedLengthPmf, m: int, region_length: float) -> float:
    """Mean search time m/(2L) * sum p(v,l) * l^2 / v for exhaustive in-region sweeps."""
    if m < 1:
        raise ValueError(f"agent count must be positive, got {m}")
    acc = math.fsum(p * l * l / v for v, l, p in joint.atoms)
    return m / (2.0 * region_length) * acc


def expected_time_independent(
    speed_pmf: SpeedDistribution, length_pmf: LengthDistribution, m: int, region_length: float
) -> float:
    """Mean search time m/(2L) * E(1/v) * E(l^2) when speed and length are independent."""
    if m < 1:
        raise ValueError(f"agent count must be positive, got {m}")
    return (
        m
        / (2.0 * region_length)
        * mean_inverse_speed(speed_pmf)
        * second_moment(length_pmf)
    )


def expected_time_equal(region_length: float, m: int, speed: float) -> float:
    """Equal division, common speed: L / (2 m v)."""
    if not (math.isfinite(speed) and speed > 0):
        raise ValueError(f"speed must be finite and positive, got {speed!r}")
    return expected_time_independent(
        SpeedDistribution.point_mass(speed), length_pmf_equal(region_length, m), m, region_length
    )


def expected_time_semi_equal(region_length: float, m: int, speed: float) -> float:
    """Halving division, common speed."""
    if not (math.isfinite(speed) and speed > 0):
        raise ValueError(f"speed must be finite and positive, got {speed!r}")
    return expected_time_independent(
        SpeedDistribution.point_mass(speed),
        length_pmf_semi_equal(region_length, m),
        m,
        region_length,
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


def expected_time_proportional(region_length: float, speeds) -> float:
    """Speed-proportional division for a fixed speed vector: every point is found by
    time L / sum(v), uniformly, so the mean is L / (2 sum(v))."""
    v = np.asarray(list(speeds), dtype=float)
    if v.size == 0 or not np.all(np.isfinite(v) & (v > 0)):
        raise ValueError(f"speeds must be finite and positive, got {v!r}")
    return region_length / (2.0 * float(v.sum()))


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
    """
    if n < 1:
        raise ValueError(f"draw count must be positive, got {n}")
    speeds = [v for v, _ in speed_pmf.atoms]
    masses = [p for _, p in speed_pmf.atoms]
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
