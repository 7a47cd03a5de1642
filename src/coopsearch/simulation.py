"""Batch kernels: the time to solution of each cooperation strategy over a batch of trials.

Each *_times kernel takes (trials, m) arrays of agent speeds and starts (the
proportional arcs fix their own starts) and the trials' solution positions, and
returns one time per trial.  The scalar play-outs they are checked against live
with the tests, in tests/oracles.py.
"""

from __future__ import annotations

import numpy as np

from .model import _BLOCK_ENTRIES

__all__ = [
    "one_directional_times",
    "two_directional_times",
    "grouped_times",
    "proportional_times",
]


def _require_in_region(a: np.ndarray, length: float, what: str) -> None:
    # min and max carry a NaN through, and the comparison then rejects it
    if a.size and not (a.min() >= 0.0 and a.max() < length):
        raise ValueError(f"{what} outside [0, {length})")


def _check_batch(starts: np.ndarray, speeds: np.ndarray, x: np.ndarray, length: float) -> None:
    if starts.ndim != 2 or starts.shape != speeds.shape:
        raise ValueError(f"starts/speeds must share shape (trials, m), got {starts.shape} and {speeds.shape}")
    if x.shape != (starts.shape[0],):
        raise ValueError(f"x must have shape ({starts.shape[0]},), got {x.shape}")
    if length <= 0:
        raise ValueError(f"region length must be positive, got {length!r}")
    _require_in_region(x, length, "solution positions")


def _row_blocks(trials: int, m: int):
    """Row slices of about _BLOCK_ENTRIES entries, so a block's temporaries stay in cache."""
    step = max(1, _BLOCK_ENTRIES // m)
    for lo in range(0, trials, step):
        yield slice(lo, min(lo + step, trials))


def _wrap_offsets(a: np.ndarray, length: float) -> np.ndarray:
    d = a % length
    return np.where(d >= length, np.nextafter(length, 0.0), d)


def one_directional_times(
    starts: np.ndarray, speeds: np.ndarray, x: np.ndarray, length: float
) -> np.ndarray:
    """Batch of one-directional trial times; rows are trials, columns agents.

    Starts and solution positions must lie in [0, length), else ValueError.
    """
    _check_batch(starts, speeds, x, length)
    out = np.empty(len(x))
    top = np.nextafter(length, 0.0)
    for rows in _row_blocks(*starts.shape):
        s = starts[rows]
        _require_in_region(s, length, "agent starts")
        d = x[rows, None] - s
        # |d| < length, so this is `d % length` bit for bit; d + length can still
        # round up to length, which the clamp turns into the largest offset below it
        d += length * (d < 0)
        np.minimum(d, top, out=d)
        d /= speeds[rows]
        d.min(axis=1, out=out[rows])
    return out


def two_directional_times(
    starts: np.ndarray, speeds: np.ndarray, x: np.ndarray, length: float
) -> np.ndarray:
    """Batch of two-directional trial times (both ways at half speed).

    Starts and solution positions must lie in [0, length), else ValueError.
    """
    _check_batch(starts, speeds, x, length)
    out = np.empty(len(x))
    for rows in _row_blocks(*starts.shape):
        s = starts[rows]
        _require_in_region(s, length, "agent starts")
        # the nearer way round is min(|d|, length - |d|); length - |d| rounds to
        # length only when |d| is tiny, and then |d| is the minimum anyway
        d = x[rows, None] - s
        np.abs(d, out=d)
        np.minimum(d, length - d, out=d)
        d /= 0.5 * speeds[rows]
        d.min(axis=1, out=out[rows])
    return out


def _grouped_block(
    starts: np.ndarray, speeds: np.ndarray, x: np.ndarray, length: float, group_size: int
) -> np.ndarray:
    trials = starts.shape[0]
    order = np.argsort(starts, axis=1, kind="stable")
    s = np.take_along_axis(starts, order, axis=1)
    v = np.take_along_axis(speeds, order, axis=1)
    bounds = s[:, ::group_size]
    G = bounds.shape[1]
    # owner group: largest boundary at or before x, wrapping to the last group
    pos = (bounds <= x[:, None]).sum(axis=1) - 1
    pos = np.where(pos < 0, G - 1, pos)
    rates = np.empty((trials, G))
    for g in range(G):
        rates[:, g] = v[:, g * group_size : (g + 1) * group_size].sum(axis=1)
    rows = np.arange(trials)
    offset = _wrap_offsets(x - bounds[rows, pos], length)
    return offset / rates[rows, pos]


def grouped_times(
    starts: np.ndarray, speeds: np.ndarray, x: np.ndarray, length: float, group_size: int
) -> np.ndarray:
    """Batch of grouped-strategy trial times at pooled per-group sweep rates.

    Starts and solution positions must lie in [0, length), else ValueError.
    """
    _check_batch(starts, speeds, x, length)
    trials, m = starts.shape
    if not 1 <= group_size <= m:
        raise ValueError(f"group size {group_size} out of range for {m} agents")
    out = np.empty(trials)
    for rows in _row_blocks(trials, m):
        s = starts[rows]
        _require_in_region(s, length, "agent starts")
        out[rows] = _grouped_block(s, speeds[rows], x[rows], length, group_size)
    return out


def _proportional_block(speeds: np.ndarray, x: np.ndarray, length: float) -> np.ndarray:
    trials = speeds.shape[0]
    total = speeds.sum(axis=1)
    lengths = speeds * (length / total)[:, None]
    left = np.concatenate([np.zeros((trials, 1)), np.cumsum(lengths, axis=1)[:, :-1]], axis=1)
    offs = _wrap_offsets(x[:, None] - left, length)
    hit = offs < lengths
    owner = np.argmax(hit, axis=1)
    sliver = ~hit.any(axis=1)
    if sliver.any():
        owner[sliver] = np.argmin(offs[sliver], axis=1)
    rows = np.arange(trials)
    return offs[rows, owner] / speeds[rows, owner]


def proportional_times(speeds: np.ndarray, x: np.ndarray, length: float) -> np.ndarray:
    """Batch of proportional-allocation trial times; starts are implied by the arcs.

    Solution positions must lie in [0, length), else ValueError.
    """
    if speeds.ndim != 2:
        raise ValueError(f"speeds must have shape (trials, m), got {speeds.shape}")
    if x.shape != (speeds.shape[0],):
        raise ValueError(f"x must have shape ({speeds.shape[0]},), got {x.shape}")
    _require_in_region(x, length, "solution positions")
    out = np.empty(len(x))
    for rows in _row_blocks(*speeds.shape):
        out[rows] = _proportional_block(speeds[rows], x[rows], length)
    return out
