"""Region divisions: where each fixed division puts its agents, and the subregion-length
law of each division.  Every fixed division is declared once, in _FIXED_DIVISIONS."""

from __future__ import annotations

import math

import numpy as np

from .model import _drawn_starts, _require_finite_positive, _require_positive_int, _row_blocks

__all__ = [
    "length_pmf_equal",
    "length_pmf_semi_equal",
    "estimate_length_pmf",
    "spacing_pmf_oracle",
]

# unit bins a gap histogram may have; every table uses L = 1000
_MAX_BINS = 10**6


def _bin_count(region_length: float) -> int:
    """How many unit bins [k, k+1) cover a gap of up to L; past _MAX_BINS, ValueError."""
    if not 0 < region_length <= _MAX_BINS:
        raise ValueError(
            f"gap histogram needs 0 < L <= {_MAX_BINS} (one bin per unit), got {region_length!r}"
        )
    _require_finite_positive(region_length, "region length")
    return math.ceil(region_length)


def semi_equal_starts(length: float, m: int) -> np.ndarray:
    """Boundary points of the halving scheme: each new point bisects the earliest largest arc.

    The first agent anchors at 0; level k contributes the odd multiples of L/2^k in
    increasing order, until m points exist, so agent i >= 1 sits at (2i - 2^k + 1) L/2^k
    with k the bit length of i.  All points are exact binary fractions of L.
    """
    _require_positive_int(m, "agent count")
    _require_finite_positive(length, "region length")
    i = np.arange(1, m)
    scale = 2.0 ** np.frexp(i)[1]  # 2^k, k the bit length of i
    return np.concatenate(([0.0], (2 * i - scale + 1) * (length / scale)))


def length_pmf_equal(region_length: float, m: int) -> tuple[np.ndarray, np.ndarray]:
    """(lengths, masses) of the equal division: every subregion is L/m."""
    _require_positive_int(m, "agent count")
    _require_finite_positive(region_length, "region length")
    return np.array([region_length / m]), np.array([1.0])


def length_pmf_semi_equal(region_length: float, m: int) -> tuple[np.ndarray, np.ndarray]:
    """(lengths, masses) of the halving scheme.

    For 2^n < m < 2^(n+1) mass (2^(n+1) - m)/m sits at L/2^n and (2m - 2^(n+1))/m
    at L/2^(n+1); at m = 2^n everything is equal.
    """
    _require_positive_int(m, "agent count")
    _require_finite_positive(region_length, "region length")
    n = int(m).bit_length() - 1  # 2^n <= m < 2^(n+1); a numpy integer has no bit_length
    if m == 2**n:
        return np.array([region_length / 2**n]), np.array([1.0])
    long_count = 2 ** (n + 1) - m
    short_count = 2 * (m - 2**n)
    return (
        np.array([region_length / 2**n, region_length / 2 ** (n + 1)]),
        np.array([long_count / m, short_count / m]),
    )


# Each fixed division, declared once: name -> (its starts row (L, m) -> ndarray in agent
# order, its length law (L, m) -> (lengths, masses)); the harness learns them only here.
_FIXED_DIVISIONS = {
    "equal": (lambda length, m: np.arange(m) * (length / m), length_pmf_equal),
    "semi-equal": (semi_equal_starts, length_pmf_semi_equal),
}


def estimate_length_pmf(region_length: float, m: int, trials: int, seed) -> np.ndarray:
    """Monte-Carlo masses of gap lengths under uniform random starts; bin k is [k, k+1).

    Starts come a row block at a time from one drawn start source, each block sorted
    in place; uniform draws fill in C order, so the histogram is the one a single
    (trials, m) draw would give.
    """
    _require_positive_int(m, "agent count")
    _require_positive_int(trials, "trials")
    nbins = _bin_count(region_length)
    starts = _drawn_starts(np.random.default_rng(seed), region_length, (trials, m))
    counts = np.zeros(nbins, dtype=np.int64)
    for rows in _row_blocks(trials, m):
        s = starts[rows]
        s.sort(axis=1)
        gaps = np.empty_like(s)
        gaps[:, :-1] = np.diff(s, axis=1)
        gaps[:, -1] = region_length - s[:, -1] + s[:, 0]
        idx = np.clip(np.floor(gaps).astype(np.int64), 0, nbins - 1)
        counts += np.bincount(idx.ravel(), minlength=nbins)
    return counts / counts.sum()


def spacing_pmf_oracle(region_length: float, m: int) -> np.ndarray:
    """Exact unit-bin masses of one gap between m uniform points on the circle.

    A gap exceeds g with probability (1 - g/L)^(m-1), so bin [k, k+1) carries
    (1 - k/L)^(m-1) - (1 - (k+1)/L)^(m-1).
    """
    _require_positive_int(m, "agent count")
    if m < 2:
        raise ValueError(f"gap law needs at least 2 points, got m={m}")
    L = region_length
    k = np.arange(_bin_count(L), dtype=float)
    hi = np.minimum(k + 1.0, L)
    return (1.0 - k / L) ** (m - 1) - (1.0 - hi / L) ** (m - 1)
