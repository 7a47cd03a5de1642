"""Trial runner: determinism, statistics, sweeps, comparisons."""

import math
import multiprocessing
import os
import resource
import sys
import threading
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import oracles
from coopsearch import harness, model, simulation
from coopsearch.allocation import semi_equal_starts
from coopsearch.analytics import expected_time_random_starts
from coopsearch.harness import (
    CHUNK_TRIALS,
    STRATEGIES,
    StrategySpec,
    SummaryStats,
    TrialPlan,
    closed_form,
    compare_strategies,
    resolve_method,
    run_trials,
    sweep_m,
)
from coopsearch.model import RegionSpec, SpeedDistribution
from coopsearch.simulation import (
    grouped_times,
    one_directional_times,
    proportional_times,
    two_directional_times,
)

R = RegionSpec(1000.0)
L = 1000.0
MIXED = SpeedDistribution(((0.5, 0.3), (1.0, 0.3), (1.375, 0.4)))
UNIT = (1.0,)
ONE = StrategySpec("one-directional")


def plan(m=10, strategy=ONE, allocation="equal", speeds=UNIT, trials=20_000, seed=0):
    return TrialPlan(R, m, strategy, allocation, speeds, trials, seed)


def method_plans(targets, trials, seed=0, speeds=MIXED):
    """One plan per (method, m) target, as `compare --targets` builds them."""
    return [TrialPlan(R, m, *resolve_method(token)[1:], speeds, trials, seed) for token, m in targets]


def test_plan_validation():
    with pytest.raises(ValueError):
        plan(allocation="sideways")
    with pytest.raises(ValueError):  # proportional strategy needs its own allocation
        plan(strategy=StrategySpec("proportional"), allocation="random")
    with pytest.raises(ValueError):  # and nothing else runs on it
        plan(strategy=ONE, allocation="proportional")
    with pytest.raises(ValueError):
        plan(m=2, strategy=StrategySpec("grouped", 3), allocation="random")
    with pytest.raises(ValueError):
        plan(trials=0)
    for count in (True, 2.5, 0):  # a count is an integer, and a bool is not one
        with pytest.raises(ValueError):
            plan(m=count)
        with pytest.raises(ValueError):
            plan(trials=count)
    with pytest.raises(ValueError):
        plan(seed=-1)
    with pytest.raises(ValueError):
        plan(seed=True)
    for flag in (True, np.True_):
        with pytest.raises(ValueError):
            plan(speeds=(flag,))
    with pytest.raises(ValueError):
        plan(speeds=(1.0, 2.0))  # wrong length for m=10
    with pytest.raises(ValueError):
        plan(speeds=())


@pytest.mark.parametrize("speeds", [MIXED, (0.5, 1.0, 1.0, 2.0, 1.375)], ids=["sampled", "fixed"])
@pytest.mark.parametrize("allocation", ["random", "equal", "semi-equal"])
def test_numpy_integer_counts_run_as_ints(allocation, speeds):
    # the count rule takes numpy integers; a plan holding one once crashed in
    # PCG64.advance on its stream skip, and the semi-equal closed form on bit_length
    want = plan(5, ONE, allocation, speeds, trials=40_000, seed=3)
    got = plan(np.int64(5), ONE, allocation, speeds, trials=np.int64(40_000), seed=3)
    assert (type(got.num_agents), type(got.trials)) == (int, int)
    assert repr(run_trials(got)) == repr(run_trials(want))  # same bits, same types
    assert closed_form(got) == closed_form(want)


def test_resolve_method():
    assert resolve_method("equal") == ("equal", ONE, "equal")
    assert resolve_method("random") == ("random", ONE, "random")
    assert resolve_method("one_directional") == ("one-directional", ONE, "random")
    two = StrategySpec("two-directional")
    assert resolve_method("two-directional", "equal") == ("two-directional", two, "equal")
    assert resolve_method("grouped-3") == ("grouped-3", StrategySpec("grouped", 3), "random")
    prop = StrategySpec("proportional")
    assert resolve_method("proportional") == ("proportional", prop, "proportional")
    # trimmed, lower case, hyphens for underscores; a strategy is named by its spec
    assert resolve_method(" Semi_Equal ") == ("semi-equal", ONE, "semi-equal")
    for token in ("grouped_03", "grouped-+3", " GROUPED-3"):
        assert resolve_method(token)[0] == "grouped-3"
    assert str(StrategySpec("grouped", 4)) == "grouped-4"
    assert str(two) == "two-directional"
    bad = [("equal", "random"), ("proportional", "equal"), ("one-directional", "proportional")]
    bad += [(token, None) for token in ("diagonal", "grouped", "grouped-x", "grouped-0", "groupedx")]
    for token, allocation in bad:
        with pytest.raises(ValueError):
            resolve_method(token, allocation)
    with pytest.raises(ValueError):
        StrategySpec("one-directional", 3)
    with pytest.raises(ValueError):
        StrategySpec("grouped", 0)


def test_resolved_names_resolve_to_themselves():
    # what lets an echoed config line regenerate its file
    cases = [(name, None) for name in STRATEGIES["one-directional"].allocations]
    for kind, table in STRATEGIES.items():
        names = [f"grouped-{n}" for n in range(1, 5)] if kind == "grouped" else [kind]
        cases += [(name, allocation) for name in names for allocation in table.allocations]
    for token, allocation in cases:
        name, _, allocation = method = resolve_method(token, allocation)
        assert resolve_method(name, allocation) == method, token


@pytest.mark.parametrize("kind", list(STRATEGIES))
def test_kernels_called_through_harness_globals(kind, monkeypatch):
    # perfbench/tracer.py wraps harness.<kind>_times, so the dispatch must look them up per call
    name = kind.replace("-", "_") + "_times"
    kernel = getattr(harness, name)
    calls = []

    def counting(*args):
        calls.append(args[0].shape)
        return kernel(*args)

    monkeypatch.setattr(harness, name, counting)
    strategy = StrategySpec("grouped", 2) if kind == "grouped" else StrategySpec(kind)
    allocation = STRATEGIES[kind].allocations[0]
    run_trials(plan(m=4, strategy=strategy, allocation=allocation, speeds=MIXED, trials=100))
    assert calls == [(100, 4)]


def test_run_trials_deterministic_repeat():
    p = plan(trials=50_000)
    assert run_trials(p) == run_trials(p)


def test_run_trials_worker_independence():
    # ragged final chunk on purpose
    p = plan(m=6, allocation="random", speeds=MIXED, trials=CHUNK_TRIALS + 7)
    results = {run_trials(p, workers=w) for w in (1, 2, 5)}
    assert len(results) == 1


ONE_SHOT_KERNELS = {
    "one-directional": lambda s, v, x, n: one_directional_times(s, v, x, L),
    "two-directional": lambda s, v, x, n: two_directional_times(s, v, x, L),
    "grouped": lambda s, v, x, n: grouped_times(s, v, x, L, n),
    "proportional": lambda s, v, x, n: proportional_times(v, x, L),
}


def one_shot_chunks(p):
    """Each chunk's times from the documented stream layout, drawn the plain way: the
    chunk's generator draws all its starts, then all its speeds, then x, each at once."""
    m = p.num_agents
    chunks = []
    for k, lo in enumerate(range(0, p.trials, CHUNK_TRIALS)):
        shape = (min(CHUNK_TRIALS, p.trials - lo), m)
        rng = np.random.default_rng(np.random.SeedSequence(entropy=p.base_seed, spawn_key=(m, k)))
        starts = None  # proportional places its own
        if p.allocation == "random":
            starts = rng.uniform(0, L, shape)
        elif p.allocation == "equal":
            starts = np.broadcast_to(np.arange(m) * (L / m), shape)
        elif p.allocation == "semi-equal":
            starts = np.broadcast_to(np.array(semi_equal_starts(L, m)), shape)
        law = p.speeds
        if isinstance(law, SpeedDistribution) and not law.is_degenerate():
            speeds = rng.choice(law.speeds, size=shape, p=law.masses)
        else:  # one shared speed or one per agent, and no draw
            speeds = np.broadcast_to(law.speeds if isinstance(law, SpeedDistribution) else law, shape)
        x = rng.uniform(0, L, shape[0])
        chunks.append(ONE_SHOT_KERNELS[p.strategy.kind](starts, speeds, x, p.strategy.group_size))
    return chunks


def test_run_trials_chunk_seed_contract():
    # random starts and sampled speeds are drawn as the kernel reads them, each from the
    # chunk's generator advanced past what comes before it, and x from one advanced
    # past both; every plan still matches one-shot draws of the stream, over a full
    # and a ragged chunk, bit for bit
    point = SpeedDistribution.point_mass(1.375)
    methods = [
        ("one-directional", "random"),
        ("two-directional", "random"),
        ("grouped-3", "random"),
        ("proportional", "proportional"),
        ("one-directional", "equal"),
        ("two-directional", "semi-equal"),
        ("grouped-3", "equal"),
    ]
    two_chunks = CHUNK_TRIALS + 1000
    cases = [
        (m, method, speeds, two_chunks)
        for m in (1, 3)
        for method in methods
        for speeds in (MIXED, UNIT, point, tuple(np.resize([0.5, 1.375, 1.0], m)))
    ]
    # at m = 256 a chunk's speeds span many kernel blocks: every kind on sampled speeds,
    # so x's offset is checked past them, and the advance with no speed draw after it
    cases += [(256, method, MIXED, two_chunks) for method in methods[:4]]
    cases += [(256, methods[0], UNIT, two_chunks), (256, methods[2], point, two_chunks)]
    cases += [(256, methods[6], MIXED, two_chunks)]
    # past _BLOCK_ENTRIES agents each kernel block is a single row, drawn in one call:
    # every kind on random starts and sampled speeds, over a few trials
    cases += [(model._BLOCK_ENTRIES + 1, method, MIXED, 3) for method in methods[:4]]
    for m, (method, allocation), speeds, trials in cases:
        _, strategy, _ = resolve_method(method)
        if strategy.kind == "grouped" and strategy.group_size > m:
            continue
        p = plan(m, strategy, allocation, speeds, trials=trials, seed=42)
        got = run_trials(p)
        times = one_shot_chunks(p)
        case = (m, method, allocation, speeds)
        assert got.mean == math.fsum(float(np.sum(t)) for t in times) / p.trials, case
        assert got.minimum == min(t.min() for t in times), case
        assert got.maximum == max(t.max() for t in times), case


@pytest.mark.parametrize("length", [1e-300, 1.0, 512.0000000000001, 1000.0, 1e300])
def test_uniform_starts_are_scaled_random_draws(length):
    # numpy's uniform(0, L) is 0.0 + L * u, the same bits as L * u
    def rng():
        return np.random.default_rng(11)

    assert np.array_equal(length * rng().random(5000), rng().uniform(0, length, 5000))
    # the drawn start source gives the one-shot draw, block by block over a ragged tail
    source = model._drawn_starts(rng(), length, (1000, 5))
    blocks = [source[rows].copy() for rows in (slice(0, 400), slice(400, 800), slice(800, 1000))]
    assert np.array_equal(np.concatenate(blocks), rng().uniform(0, length, (1000, 5)))


@pytest.mark.parametrize(
    "method", ["one-directional", "two-directional", "grouped-3", "equal", "proportional"]
)
def test_random_starts_do_not_take_a_chunk_array(method):
    # the starts and the sampled speeds are drawn one kernel row block at a time, as the
    # kernel reads them, so a chunk at m = 256 holds no (trials, m) array (a whole draw
    # of either took one, 67 MB) and no multi-block draw buffer
    _, strategy, allocation = resolve_method(method)
    p = plan(256, strategy, allocation, MIXED, trials=CHUNK_TRIALS)
    chunk_array_bytes = CHUNK_TRIALS * 256 * 8
    tracemalloc.start()
    try:
        run_trials(p, workers=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < chunk_array_bytes / 12, peak / chunk_array_bytes


def test_seed_changes_result():
    a = run_trials(plan(allocation="random", trials=10_000, seed=0))
    b = run_trials(plan(allocation="random", trials=10_000, seed=1))
    assert a.mean != b.mean


def test_equal_homogeneous_matches_oracle():
    stats = run_trials(plan(m=10, trials=200_000))
    assert abs(stats.mean - 50.0) < 3 * stats.stderr
    assert stats.minimum >= 0
    assert stats.maximum <= 100.0 + 1e-9  # nobody needs more than its own arc here


def test_ci_coverage_over_seeds():
    # fixed seed set, so this is a deterministic regression of CI calibration
    hits = 0
    seeds = range(20)
    for s in seeds:
        st = run_trials(plan(m=10, trials=20_000, seed=s))
        if abs(st.mean - 50.0) <= st.ci95:
            hits += 1
    assert hits >= 0.9 * len(seeds)


def test_fixed_speed_equals_point_mass_distribution():
    a = run_trials(plan(m=8, allocation="random", speeds=(2.0,), trials=30_000))
    b = run_trials(plan(m=8, allocation="random", speeds=SpeedDistribution.point_mass(2.0), trials=30_000))
    assert a == b


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("allocation", ["equal", "semi-equal", "random"])
def test_shared_speed_path_matches_per_agent_speeds(allocation, workers, monkeypatch):
    # one shared speed reaches the kernel as an all-stride-0 broadcast and takes its own
    # path; the same speed once per agent is a stride-8 row and takes the general one
    taken = []
    shared_speed = simulation._shared_speed

    def recording(speeds):
        taken.append(shared_speed(speeds))
        return taken[-1]

    monkeypatch.setattr(simulation, "_shared_speed", recording)
    for m in (2, 7, 33):
        for v in (1.375, 0.1):
            base = plan(m=m, allocation=allocation, trials=40_000, seed=m)
            taken.clear()
            want = repr(run_trials(replace(base, speeds=(v,) * m), workers))
            assert taken == [None, None]  # 40,000 trials are 2 chunks
            for speeds in ((v,), SpeedDistribution.point_mass(v)):
                taken.clear()
                assert repr(run_trials(replace(base, speeds=speeds), workers)) == want, (m, v, speeds)
                assert taken == [v, v]


def test_proportional_plan():
    p = plan(
        m=10,
        strategy=StrategySpec("proportional"),
        allocation="proportional",
        speeds=MIXED,
        trials=100_000,
    )
    stats = run_trials(p)
    # worst case cannot exceed L / min possible speed sum
    assert stats.maximum <= L / (10 * 0.5) + 1e-9
    assert stats.mean > L / (2 * 10 * 1.375)


def test_summary_stats_invariants():
    assert SummaryStats(mean=5.0, stderr=1.0, trials=10, minimum=0.0, maximum=10.0).ci95 == 1.96
    with pytest.raises(ValueError):
        SummaryStats(mean=50.0, stderr=1.0, trials=10, minimum=0.0, maximum=10.0)


def test_sweep_m_matches_individual_runs():
    sweep = sweep_m([plan(m=m, allocation="random", speeds=MIXED, trials=30_000) for m in (2, 5, 9)])
    assert [m for m, _ in sweep] == [2, 5, 9]
    # each point identical to a standalone run at that m: seed substreams decouple them
    solo = run_trials(plan(m=5, allocation="random", speeds=MIXED, trials=30_000))
    assert dict(sweep)[5] == solo


def test_sweep_m_rejects_bad_values():
    with pytest.raises(ValueError):
        sweep_m([])
    with pytest.raises(ValueError):
        sweep_m([plan(m=4, trials=1000), plan(m=4, trials=1000)])
    with pytest.raises(ValueError):
        sweep_m([plan(m=8, trials=1000), plan(m=2, trials=1000)])


def test_sweep_homogeneous_tracks_oracle():
    for m, stats in sweep_m([plan(m=m, trials=60_000) for m in (1, 2, 4, 8)]):
        assert abs(stats.mean - L / (2 * m)) < 4 * stats.stderr


def test_mean_decreases_with_doubling():
    for token in ("equal", "random", "grouped-2", "proportional"):
        entries = dict(sweep_m(method_plans([(token, m) for m in (4, 8, 16)], 40_000)))
        for a, b in ((4, 8), (8, 16)):
            sa, sb = entries[a], entries[b]
            assert sb.mean < sa.mean + 2 * (sa.ci95 + sb.ci95), token


def on_fresh_thread(fn):
    """fn() on a new thread, whose workspace starts empty."""
    result = []
    thread = threading.Thread(target=lambda: result.append(fn()))
    thread.start()
    thread.join(timeout=120)
    assert not thread.is_alive() and result
    return result[0]


def test_workspace_reused_smaller_keeps_every_plan():
    # one thread runs the plans in turn: its buffers grow past one block at m = 65537,
    # then serve smaller plans; each plan's stats are those of its own fresh thread
    plans = [
        plan(3, StrategySpec("grouped", 2), "random", MIXED, CHUNK_TRIALS + 7),
        plan(model._BLOCK_ENTRIES + 1, ONE, "random", MIXED, trials=3),
        plan(5, StrategySpec("proportional"), "proportional", MIXED, trials=2000),
    ]
    got = compare_strategies(plans, workers=1)
    assert list(got) == [on_fresh_thread(lambda p=p: run_trials(p, workers=1)) for p in plans]


def test_workspaces_stay_per_thread_under_fast_switching():
    # more pool threads than cores, switching as often as the interpreter allows: a
    # buffer that one thread could hand to another would change some plan's stats
    targets = [("grouped-3", 9), ("two-directional", 6), ("proportional", 7), ("random", 5), ("one-directional", 4)]
    plans = method_plans(targets, CHUNK_TRIALS + 7, 11)
    want = compare_strategies(plans, workers=1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        assert compare_strategies(plans, workers=5) == want
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.skipif(not hasattr(resource, "RUSAGE_THREAD"), reason="needs per-thread rusage (Linux)")
@pytest.mark.parametrize(
    "method, m, speeds",
    [
        ("one-directional", 16, MIXED),
        ("two-directional", 16, MIXED),
        ("grouped-3", 16, MIXED),
        ("proportional", 16, MIXED),
        ("random", 16, UNIT),
        ("one-directional", 256, MIXED),
    ],
    ids=["one-directional", "two-directional", "grouped-3", "proportional", "shared-speed", "one-directional-256"],
)
def test_repeated_plan_takes_no_page_faults(method, m, speeds):
    # a thread keeps its chunk buffers, so once a plan has run, running it again maps
    # no new memory; freed per-chunk buffers were trimmed and faulted in again each time
    _, strategy, allocation = resolve_method(method)
    p = plan(m, strategy, allocation, speeds, trials=40_000)  # two chunks
    for _ in range(2):
        run_trials(p, workers=1)
    before = resource.getrusage(resource.RUSAGE_THREAD).ru_minflt
    run_trials(p, workers=1)
    assert resource.getrusage(resource.RUSAGE_THREAD).ru_minflt - before < 64


def test_compare_strategies_rows():
    rows = compare_strategies(method_plans([("grouped-3", 6), ("proportional", 5)], 20_000))
    assert len(rows) == 2
    assert all(stats.trials == 20_000 for stats in rows)
    with pytest.raises(ValueError):
        compare_strategies([])


def test_plans_identical_at_any_worker_count():
    # two chunks per plan, and targets out of m order, so largest-first submission
    # differs from the given order; rows must still come back in the given order
    targets = [("grouped-2", 14), ("one-directional", 3), ("proportional", 10)]
    trials = CHUNK_TRIALS + 7
    plans = method_plans(targets, trials, 3)
    compared = {w: compare_strategies(plans, workers=w) for w in (1, 2, 5)}
    assert compared[1] == compared[2] == compared[5]
    assert list(compared[1]) == [run_trials(p, workers=1) for p in plans]

    plans = [plan(m=m, allocation="random", speeds=MIXED, trials=trials) for m in (2, 5, 9)]
    swept = {w: sweep_m(plans, workers=w) for w in (1, 2, 5)}
    assert swept[1] == swept[2] == swept[5]
    assert [m for m, _ in swept[1]] == [2, 5, 9]


def test_one_worker_runs_every_kernel_on_calling_thread(monkeypatch):
    # a traced benchmark run wraps the kernels and rejects spans from other threads
    kernel = harness.one_directional_times
    threads = []

    def recording(*args):
        threads.append(threading.get_ident())
        return kernel(*args)

    monkeypatch.setattr(harness, "one_directional_times", recording)
    trials = CHUNK_TRIALS + 7
    sweep_m([plan(m=m, allocation="random", speeds=MIXED, trials=trials) for m in (2, 5)], workers=1)
    compare_strategies(method_plans([("random", 4), ("equal", 3)], trials), workers=1)
    run_trials(plan(m=3, trials=trials), workers=1)
    assert threads == [threading.get_ident()] * 10


def test_bad_worker_count_rejected_before_any_plan_runs(monkeypatch):
    ran = []
    monkeypatch.setattr(harness, "run_trials", lambda *args, **kwargs: ran.append(args))
    with pytest.raises(ValueError):
        sweep_m([plan(m=2, trials=1000), plan(m=4, trials=1000)], workers=0)
    with pytest.raises(ValueError):
        sweep_m([plan(m=2, trials=1000)], workers=0)
    with pytest.raises(ValueError):
        compare_strategies(method_plans([("random", 4), ("proportional", 3)], 1000), workers=0)
    assert ran == []


@pytest.mark.parametrize("workers", [1, 2, 5])
def test_parallel_map_order_and_thread_count(workers):
    threads = set()

    def square(k):
        threads.add(threading.get_ident())
        return k * k

    items = [3, 9, 1, 7]
    assert harness.parallel_map(square, items, workers, lambda k: k) == [9, 81, 1, 49]
    assert len(threads) <= min(workers, len(items))
    with pytest.raises(ValueError):
        harness.parallel_map(square, items, 0, lambda k: k)


@pytest.mark.skipif(not hasattr(resource, "RUSAGE_SELF"), reason="needs process rusage")
def test_warm_pool_keeps_its_threads_and_their_workspaces(monkeypatch):
    # the pool for a worker count outlives each call: a warm call runs on threads that
    # ran before, whose buffers are mapped, so it maps no new memory anywhere in the
    # process; m divides _BLOCK_ENTRIES, so every plan asks for buffers of one size
    kernel = harness.one_directional_times
    threads = []

    def recording(*args):
        threads.append(threading.current_thread())  # a Thread object: idents are reused
        return kernel(*args)

    monkeypatch.setattr(harness, "one_directional_times", recording)
    plans = [plan(m=m, allocation="random", speeds=MIXED, trials=40_000) for m in (2, 4, 8, 16)]
    for _ in range(2):
        sweep_m(plans, workers=2)
    warm, threads[:] = set(threads), []
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    sweep_m(plans, workers=2)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert len(threads) == 8 and set(threads) <= warm
    assert threading.current_thread() not in warm
    assert faults < 64


def test_parallel_map_waits_for_every_item():
    # a failure is raised only once every submitted item has finished, and the pool
    # serves the next call as before
    finished = []

    def job(k):
        if k == 0:
            raise ValueError("item 0")
        time.sleep(0.2)
        finished.append(k)
        return k

    with pytest.raises(ValueError, match="item 0"):
        harness.parallel_map(job, [0, 1], 2, lambda k: k)
    assert finished == [1]
    assert harness.parallel_map(lambda k: k * k, [3, 1, 2], 2, lambda k: k) == [9, 1, 4]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork (POSIX)")
def test_forked_child_builds_its_own_pool():
    # the child inherits the parent's pool but none of its threads: without its own
    # pool, the child's first 2-worker run would wait for ever
    p = plan(m=5, allocation="random", speeds=MIXED, trials=CHUNK_TRIALS + 7)
    want = repr(run_trials(p, workers=2))
    ctx = multiprocessing.get_context("fork")
    reader, writer = ctx.Pipe(duplex=False)
    child = ctx.Process(target=lambda: writer.send(repr(run_trials(p, workers=2))))
    child.start()
    got = reader.recv() if reader.poll(timeout=60) else None
    child.join(timeout=10)
    alive = child.is_alive()
    if alive:
        child.kill()
        child.join()
    assert not alive and child.exitcode == 0
    assert got == want


def test_compare_homogeneous_equivalence_smoke():
    rows = compare_strategies(method_plans([("equal", 10), ("random", 19)], 150_000, speeds=UNIT))
    means = [stats.mean for stats in rows]
    assert abs(means[0] - means[1]) / means[0] < 0.02


def test_one_directional_mean_below_analytic_bound():
    for m in (5, 12):
        stats = run_trials(TrialPlan(R, m, ONE, "random", MIXED, 100_000, 0))
        assert stats.mean <= expected_time_random_starts(L, m, MIXED)


@pytest.mark.parametrize("speeds", [MIXED, UNIT], ids=["mixed", "unit"])
@pytest.mark.parametrize("strategy", [ONE, StrategySpec("two-directional")], ids=str)
def test_random_start_mean_matches_exact_oracle(strategy, speeds):
    # overtaking included, so this is an equality up to sampling error, not a bound
    atoms = speeds.atoms if isinstance(speeds, SpeedDistribution) else ((speeds[0], 1.0),)
    for m in (1, 2, 10, 23):
        exact = oracles.random_start_mean(L, atoms, m)
        if speeds == UNIT:
            assert math.isclose(exact, L / (m + 1), rel_tol=1e-12)
        else:
            assert exact <= expected_time_random_starts(L, m, speeds)
        stats = run_trials(plan(m=m, strategy=strategy, allocation="random", speeds=speeds, trials=200_000))
        z = (stats.mean - exact) / stats.stderr
        assert abs(z) < 4, (m, stats.mean, exact, z)
