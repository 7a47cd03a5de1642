"""Batch kernels: the time to solution of each cooperation strategy over a batch of trials.

Each *_times kernel takes (trials, m) agent speeds and starts, arrays or drawn
rows, and the trials' solution positions, and returns one time per trial.  They
share one batch check, made once at entry (drawn starts are L * u with u < 1, in
[0, L) by construction), and one driver, which only runs the formula in row order per
block of about _BLOCK_ENTRIES entries, one read of a drawn source each, in its
thread's "work" pair of (rows, m) float arrays; the (rows, m) temporaries a block still
allocates are _lift's bool mask and grouped's argsort.  The times are a fresh array,
since callers keep them.  numpy pays a fixed cost per row when it reduces along a short
row, so a row of at most _SWEEP_COLUMNS entries takes its minimum, or grouped's count
of the group starts at or before x, a column at a time, and so does the sum of a row
of at most _SUM_SWEEP_COLUMNS speeds.

When every agent views one positive speed v (all strides 0: a point-mass law or one
fixed speed), the one-directional block takes each trial's least lifted offset
first, and the kernel clamps it below L and divides it by v once.  Both steps are
monotone, so they commute with the minimum, and no offset is -0.0, so the bits are
the general path's; a negative speed reverses the order and takes the general path.
On a start row that every trial shares, the least offset is the one back to the last
start at or before x, so no (rows, m) array is built.

The grouped kernel sorts each row's starts with the default sort, and only rows
with a tie sort again, stably, because the stable order is the contract; a block
looks for ties row by row only when its flat sorted starts hold an equal pair.  Each
row's order holds flat indices into the block, so the sorted starts, the owner
group's first start and its members' speeds come from np.take on flat arrays, the
speeds of a group of at most _SUM_SWEEP_COLUMNS members one member at a time.

Proportional allocation lays speed-proportional arcs head to tail from 0, and
each agent sweeps its own arc one way.  Every arc takes L / sum(v), so the first
arrival over all agents is the owner's; a solution exactly at an arc start is
found at time 0.  The scalar play-outs the kernels are checked against live with
the tests, in tests/oracles.py.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from .model import _require_finite_positive, _require_positive_int, _row_blocks, _scratch, _step

# rows of at most this many entries take their minimum, and grouped counts its
# boundaries at or before x, a column at a time
_SWEEP_COLUMNS = 32
# numpy's add.reduce sums a row of at most this many entries left to right, as a
# column sweep does, and a longer one pairwise
_SUM_SWEEP_COLUMNS = 7


def _reduce_rows(ufunc, d: np.ndarray, out: np.ndarray, sweep_width: int) -> np.ndarray:
    """`ufunc.reduce(d, axis=1, out=out)`.  Rows of at most `sweep_width` entries are
    reduced one column at a time instead, because numpy pays a fixed cost per row
    when it reduces along short rows; a caller picks a width at which the two agree
    bit for bit."""
    if d.shape[1] > sweep_width:
        return ufunc.reduce(d, axis=1, out=out)
    out[...] = d[:, 0]
    for j in range(1, d.shape[1]):
        ufunc(out, d[:, j], out=out)
    return out


def _require_in_region(a: np.ndarray, length: float, what: str) -> None:
    # min and max carry a NaN through, and the comparison then rejects it
    if a.size and not (a.min() >= 0.0 and a.max() < length):
        raise ValueError(f"{what} outside [0, {length})")


def _check_batch(starts, speeds, x: np.ndarray, length: float) -> None:
    """Check a batch's shapes, its solution positions and its starts: an array whole, a
    row that every trial shares by that row, and drawn starts not at all, since L * u < L
    for u < 1 at every length the rule admits; `starts` is None for a kernel that places
    its own."""
    if len(speeds.shape) != 2 or (starts is not None and starts.shape != speeds.shape):
        shapes = speeds.shape if starts is None else (starts.shape, speeds.shape)
        raise ValueError(f"starts/speeds must share shape (trials, m), got {shapes}")
    trials, m = speeds.shape
    if x.shape != (trials,):
        raise ValueError(f"x must have shape ({trials},), got {x.shape}")
    _require_finite_positive(length, "region length")
    _require_in_region(x, length, "solution positions")
    if isinstance(starts, np.ndarray):
        _require_in_region(starts[:1] if _is_row(starts) else starts, length, "agent starts")


def _is_row(a) -> bool:
    """Whether `a` is one row that every trial shares, a stride-0 broadcast: fixed starts."""
    return isinstance(a, np.ndarray) and a.strides[0] == 0


def _run_blocks(block, starts, speeds: np.ndarray, x: np.ndarray, length: float) -> np.ndarray:
    """Fill one time per trial of a checked batch by `block(s, v, x, length, work, out)`
    per row block, `work` a pair of (rows, m) arrays; `starts` is None for a kernel that
    places its own."""
    trials, m = speeds.shape
    out = np.empty(trials)
    for rows in _row_blocks(trials, m):
        s = None if starts is None else starts[rows]
        # the thread's pair: freed (rows, m) temporaries would be trimmed and faulted in again
        work = _scratch("work", 2, rows.stop - rows.start, m)
        block(s, speeds[rows], x[rows], length, work, out[rows])
    return out


def _lift(d: np.ndarray, length: float, scratch: np.ndarray | None = None) -> None:
    """d + length where d < 0, in place, with `scratch` (d's shape) for the offsets; the
    rest gain 0.0, which turns -0.0 into 0.0."""
    d += np.multiply(length, d < 0, out=scratch)


def _wrap(d: np.ndarray, length: float, scratch: np.ndarray | None = None) -> None:
    """`d % length` in place, bit for bit, for |d| < length.  d + length can round up to
    length, which the clamp turns into the largest offset below it."""
    _lift(d, length, scratch)
    np.minimum(d, np.nextafter(length, 0.0), out=d)


def _one_directional_block(s, v, x, length, work, out, shared=False) -> None:
    # `shared`: every agent has one speed, so the offsets are only lifted, and the
    # caller clamps each row's minimum and divides it by that speed once
    d, e = work
    np.subtract(x[:, None], s, out=d)
    if shared:
        _lift(d, length, e)
    else:
        _wrap(d, length, e)
        d /= v
    _reduce_rows(np.minimum, d, out, _SWEEP_COLUMNS)


def _lifted_min_row(row: np.ndarray, x: np.ndarray, length: float) -> np.ndarray:
    """The shared-speed block's minima for a start row that every trial shares: the offset
    back to the last start at or before x, wrapping to the largest start when there is
    none.  That offset is at most x, and a start s ahead of x lifts to at least x: s < L
    leaves room for x - s's rounding error, so fl(fl(x - s) + L) >= x."""
    srt = np.sort(row)
    # with k starts at or before x, the last of them is srt[k - 1], and k = 0 wraps to srt[-1]
    d = _step(srt, np.concatenate((srt[-1:], srt)), x)
    np.subtract(x, d, out=d)
    _lift(d, length)
    return d


def _shared_speed(speeds):
    """The one speed that every agent views (all strides 0), if it is positive, else None."""
    if isinstance(speeds, np.ndarray) and speeds.size and not any(speeds.strides) and speeds[0, 0] > 0:
        return speeds[0, 0]
    return None


def _two_directional_block(s, v, x, length, work, out) -> None:
    # the nearer way round is min(|d|, length - |d|); length - |d| rounds to
    # length only when |d| is tiny, and then |d| is the minimum anyway
    d, e = work
    np.subtract(x[:, None], s, out=d)
    np.abs(d, out=d)
    np.minimum(d, np.subtract(length, d, out=e), out=d)
    d /= np.multiply(v, 0.5, out=e)
    _reduce_rows(np.minimum, d, out, _SWEEP_COLUMNS)


def _grouped_block(group_size, s, v, x, length, work, out) -> None:
    trials, m = s.shape
    offsets = np.arange(0, trials * m, m)[:, None]  # row r's first entry in the flat block
    order = np.argsort(s, axis=1)
    order += offsets
    # every index is valid, so "clip" only lets take write `out` without a buffer
    srt = np.take(s, order, out=work[0], mode="clip")
    # only equal starts have another sorted order, and the stable one is the contract;
    # srt keeps the first: ties differ at most in the sign of 0.0, which _wrap erases;
    # the flat neighbours include each row's, so a block with no equal pair skips the rows
    flat = srt.reshape(-1)
    if (flat[1:] == flat[:-1]).any() and (tie := srt[:, 1:] == srt[:, :-1]).any():
        tied = tie.any(axis=1)
        order[tied] = np.argsort(s[tied], axis=1, kind="stable") + offsets[tied]
    bounds = srt[:, ::group_size]  # each group's first start
    G = bounds.shape[1]
    # owner group: largest boundary at or before x, wrapping to the last group
    pos = _reduce_rows(np.add, bounds <= x[:, None], np.empty(trials, np.intp), _SWEEP_COLUMNS) - 1
    pos[pos < 0] = G - 1
    first = offsets[:, 0] + pos * group_size  # the owner group's first member in `order`
    np.subtract(x, np.take(srt, first), out=out)
    _wrap(out, length)
    # the owner group's speeds, summed in sorted order at that group's own width
    ragged = m - (G - 1) * group_size
    parts = [(slice(None), group_size)]
    if ragged < group_size:
        parts = [(pos < G - 1, group_size), (pos == G - 1, ragged)]
    for r, width in parts:
        f = first[r]
        if width > _SUM_SWEEP_COLUMNS:  # numpy sums a row this wide pairwise
            total = np.take(v, np.take(order, f[:, None] + np.arange(width))).sum(axis=1)
        else:  # left to right, as numpy sums a short row, but with no (rows, width) gather
            total = np.take(v, np.take(order, f))
            for j in range(1, width):
                total += np.take(v, np.take(order, f + j))
        out[r] /= total


def _proportional_block(_, v, x, length, work, out) -> None:
    # arcs of length v * L / sum(v) head to tail from 0; the starts are the running
    # sums, clamped at L where rounding carries a start past it
    d, e = work
    total = _reduce_rows(np.add, v, np.empty(len(x)), _SUM_SWEEP_COLUMNS)
    np.multiply(v, (length / total)[:, None], out=e)
    np.cumsum(e[:, :-1], axis=1, out=d[:, 1:])
    d[:, 0] = 0.0
    np.minimum(d, length, out=d)
    _one_directional_block(d, v, x, length, work, out)


def one_directional_times(
    starts: np.ndarray, speeds: np.ndarray, x: np.ndarray, length: float
) -> np.ndarray:
    """Batch of one-directional trial times; rows are trials, columns agents.

    Starts and solution positions must lie in [0, length), else ValueError.
    """
    _check_batch(starts, speeds, x, length)
    v = _shared_speed(speeds)
    if v is None:
        return _run_blocks(_one_directional_block, starts, speeds, x, length)
    if _is_row(starts):
        out = _lifted_min_row(starts[0], x, length)
    else:
        out = _run_blocks(partial(_one_directional_block, shared=True), starts, speeds, x, length)
    np.minimum(out, np.nextafter(length, 0.0), out=out)
    out /= v
    return out


def two_directional_times(
    starts: np.ndarray, speeds: np.ndarray, x: np.ndarray, length: float
) -> np.ndarray:
    """Batch of two-directional trial times (both ways at half speed).

    Starts and solution positions must lie in [0, length), else ValueError.
    """
    _check_batch(starts, speeds, x, length)
    return _run_blocks(_two_directional_block, starts, speeds, x, length)


def grouped_times(
    starts: np.ndarray, speeds: np.ndarray, x: np.ndarray, length: float, group_size: int
) -> np.ndarray:
    """Batch of grouped-strategy trial times at pooled per-group sweep rates.

    Starts and solution positions must lie in [0, length), else ValueError.
    """
    _require_positive_int(group_size, "group size")
    if group_size > speeds.shape[-1]:
        raise ValueError(f"group size {group_size} out of range for {speeds.shape[-1]} agents")
    _check_batch(starts, speeds, x, length)
    return _run_blocks(partial(_grouped_block, group_size), starts, speeds, x, length)


def proportional_times(speeds: np.ndarray, x: np.ndarray, length: float) -> np.ndarray:
    """Batch of proportional-allocation trial times; each agent sweeps its
    speed-proportional arc one way from the arc's start.

    Solution positions must lie in [0, length), else ValueError.
    """
    _check_batch(None, speeds, x, length)
    return _run_blocks(_proportional_block, None, speeds, x, length)
