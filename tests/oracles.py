"""Scalar reference play-outs of one trial, and exact means, that the kernels are checked against.

Each simulator takes one trial's agent starts and speeds (indexed by agent id),
the solution position x and the region length L, all positions in [0, L), and
returns (time to solution, finder id); grouped also takes the group size, and
proportional takes no starts because its arcs fix them.  They share no code
with the batch kernels in coopsearch.simulation.  The one-shot gap histogram and
the term-by-term sum over count vectors are the references for the row-block
histogram and the depth-first walk in analytics.speed_sum_inverse_mean.
"""

import math

import numpy as np


def wrap_distance(start: float, target: float, L: float) -> float:
    """Distance from `start` to `target` moving in the positive direction, with wrap."""
    d = (target - start) % L
    # float residue can round up to exactly L when the true gap is just below it
    if d >= L:
        d = math.nextafter(L, 0.0)
    return d


def one_directional(starts, speeds, x, L):
    """Every agent sweeps clockwise at full speed forever; first arrival wins.

    Ties break to the lowest agent id.
    """
    return min((wrap_distance(s, x, L) / v, i) for i, (s, v) in enumerate(zip(starts, speeds)))


def two_directional(starts, speeds, x, L):
    """Every agent sweeps both ways at half speed forever; first arrival wins.

    Ties break to the lowest agent id.
    """
    return min(
        (min(wrap_distance(s, x, L), wrap_distance(x, s, L)) / (0.5 * v), i)
        for i, (s, v) in enumerate(zip(starts, speeds))
    )


def grouped(starts, speeds, x, L, group_size):
    """Agents sorted by start form consecutive groups of `group_size` (last possibly
    smaller).  A group's region runs from its first member's start to the next group's
    first start; the group sweeps it at the pooled rate sum(v), so the point at
    clockwise offset d from the region start is reached at time d / sum(v).  The finder
    is the member whose speed-proportional share of the region contains the solution,
    shares laid out in sorted-start order.
    """
    n = group_size
    members = sorted(range(len(starts)), key=lambda i: (starts[i], i))
    groups = [members[i : i + n] for i in range(0, len(members), n)]
    G = len(groups)

    def region_len_of(g: int) -> float:
        # sorted boundaries tile the circle; the last group takes the wrap remainder,
        # so coincident boundaries put the full arc on the last of the tied groups
        if G == 1:
            return L
        if g == G - 1:
            return L - starts[groups[g][0]] + starts[groups[0][0]]
        return (starts[groups[g + 1][0]] - starts[groups[g][0]]) % L

    owner = None
    for g, group in enumerate(groups):
        region_len = region_len_of(g)
        offset = wrap_distance(starts[group[0]], x, L)
        if offset < region_len:
            owner = (group, region_len, offset)
            break
    if owner is None:
        # float sliver at a boundary: charge the group whose start is nearest behind x;
        # among groups sharing that start the last one owns the arc, as in region_len_of
        g = min(reversed(range(G)), key=lambda k: (x - starts[groups[k][0]]) % L)
        group = groups[g]
        owner = (group, region_len_of(g), (x - starts[group[0]]) % L)

    group, region_len, offset = owner
    rate = float(np.sum(np.array([speeds[i] for i in group])))
    finder = group[-1]
    cum = 0.0
    for i in group:
        cum += speeds[i] / rate * region_len
        if offset < cum:
            finder = i
            break
    return offset / rate, finder


def successor_gaps(starts, L):
    """Each start's distance to the next start clockwise, the arc its agent owns
    (all of L for a single start)."""
    if len(starts) == 1:
        return [L]
    order = sorted(range(len(starts)), key=lambda i: starts[i])
    gaps = [0.0] * len(starts)
    for a, b in zip(order, order[1:]):
        gaps[a] = starts[b] - starts[a]
    gaps[order[-1]] = L - starts[order[-1]] + starts[order[0]]
    return gaps


def proportional_arcs(speeds, L):
    """Speed-proportional arcs laid head to tail from 0, as (starts, lengths).

    Every agent then needs the same time L / sum(speeds) to sweep its arc.
    """
    v = np.asarray(list(speeds), dtype=float)
    lengths = v * (L / v.sum())
    starts = np.concatenate([[0.0], np.cumsum(lengths)])[:-1]
    return [float(s) for s in starts], [float(l) for l in lengths]


def arc_owner(arc_starts, x):
    """Agent whose arc contains x.  Each arc runs from its start up to the next start
    clockwise, half-open, so the owner's start is the nearest at or behind x: the
    largest start at or below x, or the largest of all when x lies before every start.
    Among equal starts only the last arc is non-empty, so the highest id wins.
    """
    behind = [i for i, s in enumerate(arc_starts) if s <= x] or range(len(arc_starts))
    return max(behind, key=lambda i: (arc_starts[i], i))


def proportional(speeds, x, L):
    """Speed-proportional arcs from 0; each agent sweeps its own arc at full speed.

    All arcs complete simultaneously at L / sum(speeds), the worst-case time.
    """
    arc_starts, _ = proportional_arcs(speeds, L)
    owner = arc_owner(arc_starts, x)
    return ((x - arc_starts[owner]) % L) / list(speeds)[owner], owner


def random_start_mean(L, speed_atoms, m):
    """Exact mean time for m agents at i.i.d. uniform starts with i.i.d. speeds from
    the (speed, mass) atoms, one- or two-directional, overtaking included.

    Each agent's time to x is U(0, L)/v in either sweep (two-directional halves
    both the distance and the speed), so P(T > t) = (sum_k p_k (1 - t v_k/L)^+)^m
    and E[T] is its integral over t >= 0.  Between the breakpoints L/v_k the
    integrand is a polynomial of degree m, which Gauss-Legendre with m + 1 nodes
    integrates exactly.
    """
    nodes, weights = np.polynomial.legendre.leggauss(m + 1)
    edges = sorted({0.0} | {L / v for v, _ in speed_atoms})
    total = 0.0
    for a, b in zip(edges, edges[1:]):
        t = 0.5 * (b - a) * nodes + 0.5 * (a + b)
        survive = sum(p * np.maximum(1.0 - t * v / L, 0.0) for v, p in speed_atoms)
        total += 0.5 * (b - a) * float(np.dot(weights, survive**m))
    return total


def one_shot_length_pmf(L, m, trials, seed):
    """Unit-bin gap masses from one (trials, m) draw of uniform starts, sorted at once."""
    s = np.sort(np.random.default_rng(seed).uniform(0.0, L, (trials, m)), axis=1)
    gaps = np.column_stack([np.diff(s, axis=1), L - s[:, -1] + s[:, 0]])
    nbins = math.ceil(L)
    idx = np.clip(np.floor(gaps).astype(np.int64), 0, nbins - 1)
    counts = np.bincount(idx.ravel(), minlength=nbins)
    return counts / counts.sum()


def compositions(total: int, parts: int):
    """Every `parts` non-negative counts that sum to `total`, in lexicographic order.

    A vector is its leading zeros, its first nonzero count and the rest, and more
    leading zeros come first, so the recursion is one level per nonzero count, not
    one per part: a law of thousands of atoms at small `total` stays shallow.
    """
    if total == 0:
        yield (0,) * parts
        return
    for zeros in reversed(range(parts)):
        for head in range(1, total + 1):
            for rest in compositions(total - head, parts - zeros - 1):
                yield (0,) * zeros + (head,) + rest


def speed_sum_inverse_mean(speed_atoms, n):
    """E[1/(v_1 + ... + v_n)] term by term: for each count vector, in lexicographic
    order, its multinomial coefficient times the product of p**c over every atom,
    over the fsum of c * v over every atom."""
    speeds = [v for v, _ in speed_atoms]
    masses = [p for _, p in speed_atoms]
    acc = 0.0
    for counts in compositions(n, len(speed_atoms)):
        coef = 1
        rem = n
        for c in counts:
            coef *= math.comb(rem, c)
            rem -= c
        prob = coef * math.prod(p**c for p, c in zip(masses, counts))
        acc += prob / math.fsum(c * v for c, v in zip(counts, speeds))
    return acc
