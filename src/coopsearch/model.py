"""Core value types: the circular region and the agents' speed law, and the row blocks
that the batch kernels, the random starts and the sampled speeds share: the starts and
the speeds are drawn rows, each drawn as a kernel reads its row block."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["RegionSpec", "SpeedDistribution"]

# entries per block in the drawn rows, the batch kernels and the gap histogram:
# 512 KB per float64 temporary, which keeps a block's working set in cache
_BLOCK_ENTRIES = 1 << 16


def _row_blocks(trials: int, m: int):
    """Row slices of about _BLOCK_ENTRIES entries, so a block's temporaries stay in cache."""
    step = max(1, _BLOCK_ENTRIES // m)
    for lo in range(0, trials, step):
        yield slice(lo, min(lo + step, trials))


class _DrawnRows:
    """The rows of the one-shot draw `fill(rng.random(shape))`, drawn in row order as a
    reader asks for them, exactly the rows of each read, into one reused buffer.
    `rng.random` fills in C order, so rows drawn one _BLOCK_ENTRIES piece at a time,
    each piece mapped in place by `fill`, are the one-shot stream.  A read is a view of
    the buffer, valid until the next read."""

    def __init__(self, rng: np.random.Generator, shape: tuple[int, ...], fill) -> None:
        self.shape, self._rng, self._fill = shape, rng, fill
        self._next = 0  # the next row to read
        self._buf = np.empty((0, *shape[1:]))

    def __getitem__(self, rows: slice) -> np.ndarray:
        start, stop, step = rows.indices(self.shape[0])
        if (start, step) != (self._next, 1):
            raise IndexError(f"rows are drawn in row order: next row {self._next}, got {rows}")
        self._next = stop = max(start, stop)
        if stop - start > len(self._buf):
            self._buf = np.empty((stop - start, *self.shape[1:]))
        drawn = self._buf[: stop - start]
        flat = drawn.reshape(-1)
        for lo in range(0, flat.size, _BLOCK_ENTRIES):
            self._fill(self._rng.random(out=flat[lo : lo + _BLOCK_ENTRIES]))
        return drawn


def _drawn_starts(rng: np.random.Generator, length: float, shape: tuple[int, int]) -> _DrawnRows:
    """Uniform random starts, `rng.uniform(0, length, shape)` bit for bit, a row block
    at a time: numpy's uniform(0, L) is 0.0 + L * u, the same bits as L * u."""
    return _DrawnRows(rng, shape, lambda u: np.multiply(u, length, out=u))


def _require_positive_int(value, name: str) -> None:
    """The one rule for a count: an int or numpy integer, at least 1, and not a bool."""
    if isinstance(value, bool) or not (isinstance(value, (int, np.integer)) and value >= 1):
        raise ValueError(f"{name} must be a positive integer, got {value!r}")


def _require_finite_positive(value, name: str) -> None:
    """The one rule for a length or a speed: finite, above 0, and not a bool."""
    if isinstance(value, (bool, np.bool_)) or not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be finite and positive, got {value!r}")


@dataclass(frozen=True)
class RegionSpec:
    """Circular (wrap-around) search region; positions live on [0, length)."""

    length: float

    def __post_init__(self) -> None:
        _require_finite_positive(self.length, "region length")


@dataclass(frozen=True)
class SpeedDistribution:
    """Discrete probability law over agent speeds.

    `atoms` is a tuple of (speed, mass) pairs; masses must sum to 1.
    """

    atoms: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        if not self.atoms:
            raise ValueError("speed distribution needs at least one atom")
        seen = set()
        for speed, mass in self.atoms:
            _require_finite_positive(speed, "speed atom")
            if isinstance(mass, (bool, np.bool_)) or not (math.isfinite(mass) and 0 < mass <= 1):
                raise ValueError(f"mass for speed {speed} must lie in (0, 1], got {mass!r}")
            if speed in seen:
                raise ValueError(f"duplicate speed atom {speed}")
            seen.add(speed)
        total = math.fsum(mass for _, mass in self.atoms)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"speed masses must sum to 1, got {total!r}")

    @classmethod
    def point_mass(cls, speed: float) -> "SpeedDistribution":
        return cls(((speed, 1.0),))

    @property
    def speeds(self) -> np.ndarray:
        return np.array([s for s, _ in self.atoms], dtype=float)

    @property
    def masses(self) -> np.ndarray:
        return np.array([p for _, p in self.atoms], dtype=float)

    def sample(self, rng: np.random.Generator, size: int | tuple[int, ...]) -> _DrawnRows:
        """I.i.d. speeds as drawn rows, which a kernel reads one row block at a time,
        each read drawing just its rows: read in row order, they are bit for bit
        `rng.choice(self.speeds, size, p=self.masses)`, and after the last row `rng` is
        where `choice` leaves it.

        Like `choice`, this inverts the normalized cdf at `rng.random` draws, and it
        finds each index by counting the cdf edges at or below u, which is
        `cdf.searchsorted(u, "right")` without the search.
        """
        shape = (size,) if isinstance(size, (int, np.integer)) else tuple(size)
        cdf = self.masses.cumsum()
        cdf /= cdf[-1]
        speeds = self.speeds
        # one piece's counts, in the narrowest integer type, which streams less memory
        counts = np.empty(min(_BLOCK_ENTRIES, math.prod(shape)), np.min_scalar_type(len(cdf) - 1))

        def fill(u: np.ndarray) -> None:
            idx = np.greater_equal(u, cdf[0], out=counts[: u.size])
            for edge in cdf[1:-1]:  # u < 1 == cdf[-1], so the last edge never counts
                np.add(idx, u >= edge, out=idx)
            # every count is a valid index, so "clip" only skips the bounds check
            np.take(speeds, idx, out=u, mode="clip")

        return _DrawnRows(rng, shape, fill)

    def is_degenerate(self) -> bool:
        return len(self.atoms) == 1
