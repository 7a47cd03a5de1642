"""Closed-form expected search times for the region-division strategies."""

from __future__ import annotations

import math
import sys

import numpy as np

from .model import SpeedDistribution, _require_finite_positive, _require_positive_int

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
    with np.errstate(over="ignore", invalid="ignore"):  # callers reject a result out of range
        return float(np.dot(vals * vals, masses))


def _in_range(value: float, what: str) -> float:
    """`value` if it is a finite normal float; a subnormal has lost its digits."""
    if not (math.isfinite(value) and value >= sys.float_info.min):
        raise ValueError(
            f"{what} is {value!r}, out of range for a float64 closed form; "
            "rescale the region length or the speeds"
        )
    return value


def _factorized_mean(
    m: int, region_length: float, speed_pmf: SpeedDistribution, length_second_moment: float
) -> float:
    """m/(2L) * E(1/v) * E(l^2), evaluated left to right, for E(l^2) and the mean in range."""
    _require_finite_positive(region_length, "region length")
    _in_range(length_second_moment, "E(l^2)")
    mean = m / (2.0 * region_length) * mean_inverse_speed(speed_pmf) * length_second_moment
    return _in_range(mean, "the expected time")


def expected_time_independent(
    speed_pmf: SpeedDistribution,
    length_pmf: tuple[np.ndarray, np.ndarray],
    m: int,
    region_length: float,
) -> float:
    """Mean search time m/(2L) * E(1/v) * E(l^2) when speed and a (lengths, masses)
    length law are independent."""
    _require_positive_int(m, "agent count")
    return _factorized_mean(m, region_length, speed_pmf, second_moment(length_pmf))


def expected_time_random_starts(
    region_length: float, m: int, speed_pmf: SpeedDistribution
) -> float:
    """Uniform random starts: gap lengths have E(l^2) = 2L^2 / (m (m+1)) exactly,
    so the factorized mean m/(2L) * E(1/v) * E(l^2) is L * E(1/v) / (m + 1)."""
    _require_positive_int(m, "agent count")
    L = region_length
    return _factorized_mean(m, L, speed_pmf, 2.0 * L * L / (m * (m + 1)))


# about 1.5-2 us a term on a 10-atom law (2-vCPU VM), so about 2 s at the cap; the largest
# enumeration any table needs is 58,905 terms (m=32, 5 atoms)
_MAX_TERMS = 10**6


def speed_sum_inverse_mean(speed_pmf: SpeedDistribution, n: int) -> float:
    """E[1 / (v_1 + ... + v_n)] for n independent draws from the speed law.

    Exact enumeration over count vectors; C(n + k - 1, k - 1) terms for k atoms.
    More than _MAX_TERMS terms raises ValueError rather than run for hours, and so
    does a term out of range for a float64.  One depth-first walk extends each
    prefix of counts once for every term below it; a prefix that has used all n
    draws is a term, since the atoms after it would only multiply by p**0 = 1.0 and
    add 0.0 to the fsum.
    """
    _require_positive_int(n, "draw count")
    atoms = speed_pmf.atoms
    terms = math.comb(n + len(atoms) - 1, len(atoms) - 1)
    if terms > _MAX_TERMS:
        raise ValueError(
            f"E[1/sum(v)] for {n} draws of a {len(atoms)}-atom speed law "
            f"enumerates {terms} terms, more than {_MAX_TERMS}"
        )
    acc = 0.0
    stack = [(0, n, 1, 1.0, ())]  # (next atom, draws left, coefficient, probability, speed terms)
    while stack:
        i, rem, coef, prob, parts = stack.pop()
        if rem == 0:
            try:
                acc += coef * prob / math.fsum(parts)
            except OverflowError:  # a coefficient past 2**1024, or fsum's running sum
                raise ValueError(
                    f"E[1/sum(v)] for {n} draws of a {len(atoms)}-atom speed law has a term "
                    "out of range for a float64"
                ) from None
            continue
        v, p = atoms[i]
        low = rem if i == len(atoms) - 1 else 0  # the last atom takes every draw left
        for c in range(rem, low - 1, -1):  # pushed high to low, popped in lexicographic order
            parts_c = (*parts, c * v) if c else parts
            stack.append((i + 1, rem - c, coef * math.comb(rem, c), prob * p**c, parts_c))
    return acc


def expected_time_proportional_resampled(
    region_length: float, speed_pmf: SpeedDistribution, m: int
) -> float:
    """Mean of L / (2 sum(v)) when the m speeds are redrawn from the law each trial."""
    _require_finite_positive(region_length, "region length")
    return _in_range(region_length / 2.0 * speed_sum_inverse_mean(speed_pmf, m), "the expected time")
