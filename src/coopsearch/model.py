"""Core value types: the circular region and the agents' speed law, and what the kernels
and the draws share: row blocks, drawn rows that are read a row block per draw in row
order, and _step, the one edge-count lookup behind the speed draw and a shared start row."""

from __future__ import annotations

import math
import sys
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
    """The rows of the one-shot draw `fill(rng.random(shape))`, drawn as a reader asks
    for them.  A reader reads in row order, one row block at a time; each read is one
    `rng.random` draw of its rows into one reused buffer, mapped in place by `fill`,
    and since `rng.random` fills in C order, in-order reads are the one-shot stream.
    A read is a view of the buffer, valid until the next read."""

    def __init__(self, rng: np.random.Generator, shape: tuple[int, int], fill) -> None:
        self.shape, self._rng, self._fill = shape, rng, fill
        self._buf = np.empty((0, shape[1]))

    def __getitem__(self, rows: slice) -> np.ndarray:
        count = len(range(*rows.indices(self.shape[0])))
        if count > len(self._buf):
            self._buf = np.empty((count, self.shape[1]))
        self._fill(self._rng.random(out=self._buf[:count].reshape(-1)))
        return self._buf[:count]


def _step(edges: np.ndarray, levels: np.ndarray, values: np.ndarray, out=None) -> np.ndarray:
    """`levels[k]`, k the count of the ascending `edges` at or below each value, which is
    `levels[edges.searchsorted(values, "right")]` by one pass per edge, with no search;
    the counts take the narrowest type that holds len(edges), which streams less memory."""
    k = np.empty(values.shape, np.min_scalar_type(len(edges)))
    if len(edges):  # the first pass writes every count, so none is zeroed before it
        np.greater_equal(values, edges[0], out=k)
    for edge in edges[1:]:
        np.add(k, values >= edge, out=k)
    # a count is a valid index, so "clip" only skips the bounds check; with no edges, k
    # is left unwritten, and "clip" maps every entry to 0, the one level there is
    return np.take(levels, k, out=out, mode="clip")


def _drawn_starts(rng: np.random.Generator, length: float, shape: tuple[int, int]) -> _DrawnRows:
    """Uniform random starts, `rng.uniform(0, length, shape)` bit for bit, a row block
    at a time: numpy's uniform(0, L) is 0.0 + L * u, the same bits as L * u."""
    return _DrawnRows(rng, shape, lambda u: np.multiply(u, length, out=u))


def _require_positive_int(value, name: str) -> None:
    """The one rule for a count: an int or numpy integer, at least 1, and not a bool."""
    if isinstance(value, bool) or not (isinstance(value, (int, np.integer)) and value >= 1):
        raise ValueError(f"{name} must be a positive integer, got {value!r}")


def _require_finite_positive(value, name: str) -> None:
    """The one rule for a length or a speed: finite, above the smallest normal float, and
    not a bool.  A draw uniform(0, L) = L * u, u <= 1 - 2**-53, must stay below L: at a
    subnormal L, and at the smallest normal one, it can round up to L."""
    if isinstance(value, (bool, np.bool_)) or not (math.isfinite(value) and value > sys.float_info.min):
        raise ValueError(
            f"{name} must be finite and above {sys.float_info.min!r}, so that a draw L * u "
            f"stays below L, got {value!r}"
        )


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

    def sample(self, rng: np.random.Generator, shape: tuple[int, int]) -> _DrawnRows:
        """I.i.d. (trials, m) speeds as drawn rows, which a kernel reads one row block at
        a time, each read drawing just its rows: read in row order, they are bit for bit
        `rng.choice(self.speeds, shape, p=self.masses)`, and after the last row `rng` is
        where `choice` leaves it.

        Like `choice`, this inverts the normalized cdf at `rng.random` draws u: a read
        maps its u in place by _step, the shared edge-count lookup, over the cdf's edges
        but the last (u < 1 == cdf[-1], so it never counts).  That is one pass per edge,
        so a k-atom law makes k - 1 passes over each block.
        """
        cdf, speeds = self.masses.cumsum(), self.speeds
        cdf /= cdf[-1]
        return _DrawnRows(rng, shape, lambda u: _step(cdf[:-1], speeds, u, out=u))

    def is_degenerate(self) -> bool:
        return len(self.atoms) == 1
