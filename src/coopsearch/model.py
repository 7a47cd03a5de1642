"""Core value types: the circular region and the agents' speed law, and the row blocks
that the speed draw, the random starts and the batch kernels share."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["RegionSpec", "SpeedDistribution"]

# entries per block in the speed draw, the batch kernels and the gap histogram:
# 512 KB per float64 temporary, which keeps a block's working set in cache
_BLOCK_ENTRIES = 1 << 16


def _row_blocks(trials: int, m: int):
    """Row slices of about _BLOCK_ENTRIES entries, so a block's temporaries stay in cache."""
    step = max(1, _BLOCK_ENTRIES // m)
    for lo in range(0, trials, step):
        yield slice(lo, min(lo + step, trials))


class _DrawnStarts:
    """Uniform random starts, `rng.uniform(0, L, shape)` bit for bit, drawn a row block
    at a time as a reader asks for them, in row order, into one reused buffer.  numpy's
    uniform(0, L) is 0.0 + L * u, the same bits as `rng.random` scaled by L."""

    def __init__(self, rng: np.random.Generator, length: float, shape: tuple[int, int]) -> None:
        self.shape, self._rng, self._length = shape, rng, length
        self._next, self._buf = 0, np.empty((0, shape[1]))

    def __getitem__(self, rows: slice) -> np.ndarray:
        start, stop, step = rows.indices(self.shape[0])
        if (start, step) != (self._next, 1):
            raise IndexError(f"random starts are drawn in row order: next row {self._next}, got {rows}")
        if stop - start > len(self._buf):
            self._buf = np.empty((stop - start, self.shape[1]))
        block = self._rng.random(out=self._buf[: stop - start])
        block *= self._length
        self._next = stop
        return block


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

    def sample(self, rng: np.random.Generator, size: int | tuple[int, ...]) -> np.ndarray:
        """I.i.d. speeds, equal bit for bit to `rng.choice(self.speeds, size, p=self.masses)`
        and leaving `rng` in the same state.

        Like `choice`, this inverts the normalized cdf at `rng.random` draws, but it
        draws them a block at a time straight into the output, which C-order fill
        makes the same stream, and finds each index by counting the cdf edges at or
        below u, which is `cdf.searchsorted(u, "right")` without the search.
        """
        cdf = self.masses.cumsum()
        cdf /= cdf[-1]
        speeds = self.speeds
        flat = np.empty(size).reshape(-1)
        small = np.min_scalar_type(len(cdf) - 1)  # narrow counts stream less memory
        counts = np.empty(min(_BLOCK_ENTRIES, flat.size), small)  # one block's, once per call
        for lo in range(0, flat.size, _BLOCK_ENTRIES):
            u = rng.random(out=flat[lo : lo + _BLOCK_ENTRIES])
            idx = np.greater_equal(u, cdf[0], out=counts[: u.size])
            for edge in cdf[1:-1]:  # u < 1 == cdf[-1], so the last edge never counts
                np.add(idx, u >= edge, out=idx)
            # every count is a valid index, so "clip" only skips the bounds check
            np.take(speeds, idx, out=u, mode="clip")
        return flat.reshape(size)

    def is_degenerate(self) -> bool:
        return len(self.atoms) == 1
