"""In-memory spans around the calls into each coopsearch module, and the layer metrics.

The wrappers replace the module-level names that callers look up, so they see
every call without any change to the program.  Spans nest by call stack, which is
only meaningful on one thread: traced runs use --workers 1, and a span opened
from another thread raises.
"""

from __future__ import annotations

import contextlib
import functools
import threading
import time

from workloads import compositions, kernel_bytes

KERNELS = ("one_directional", "two_directional", "grouped", "proportional")


class TraceError(RuntimeError):
    """The trace does not account for the work the workload implies."""


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, attrs]
        self._stack: list[int] = []
        self._thread = threading.get_ident()

    def wrap(self, fn, name, attrs=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if threading.get_ident() != self._thread:
                raise TraceError(f"span {name} opened off the tracing thread; trace with --workers 1")
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self.spans.append([name, 0.0, 0.0, parent, attrs(*args) if attrs else {}])
            self._stack.append(index)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.spans[index][1:3] = start, time.perf_counter()
                self._stack.pop()

        return traced


def _plan_attrs(plan, *_):
    return {"m": plan.num_agents, "trials": plan.trials}


def _kernel_attrs(kernel):
    def attrs(first, *_):  # (trials, m) starts, or speeds for the proportional kernel
        n, m = first.shape
        return {"agent_trials": n * m, "bytes": kernel_bytes(kernel, n, m)}

    return attrs


def _hist_attrs(_length, m, trials, *_):
    return {"gap_samples": m * trials}


def _enumeration_attrs(pmf, n, *_):
    return {"terms": compositions(n, len(pmf.atoms))}


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Wrap coopsearch's module-level names for the duration of the block."""
    from coopsearch import analytics, cli, harness, model

    targets = [
        (cli, "parse_config", "cli.parse_config", None),
        (cli.OutputRecord, "render", "cli.render", None),
        (cli, "run_trials", "harness.run_trials", _plan_attrs),
        (harness, "run_trials", "harness.run_trials", _plan_attrs),
        (cli, "sweep_m", "harness.sweep_m", None),
        (cli, "compare_strategies", "harness.compare_strategies", None),
        (model.SpeedDistribution, "sample", "model.sample", None),
        (cli, "estimate_length_pmf", "allocation.estimate_length_pmf", _hist_attrs),
        (analytics, "speed_sum_inverse_mean", "analytics.speed_sum_inverse_mean", _enumeration_attrs),
    ]
    targets += [(harness, f"{k}_times", f"simulation.{k}", _kernel_attrs(k)) for k in KERNELS]
    originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _, _ in targets]
    try:
        for owner, attr, name, attrs in targets:
            setattr(owner, attr, tracer.wrap(getattr(owner, attr), name, attrs))
        yield tracer
    finally:
        for owner, attr, fn in originals:
            setattr(owner, attr, fn)


def layer_metrics(spans: list[list]) -> tuple[dict[str, float], dict[str, int]]:
    """Per-layer metrics and the exact counts behind them.

    A span's self time is its duration minus the durations of its child spans.
    """
    total: dict[str, float] = {}
    self_time: dict[str, float] = {}
    calls: dict[str, int] = {}
    sums: dict[str, int] = {}
    for name, start, end, parent, attrs in spans:
        duration = end - start
        total[name] = total.get(name, 0.0) + duration
        self_time[name] = self_time.get(name, 0.0) + duration
        calls[name] = calls.get(name, 0) + 1
        if parent is not None:
            pname = spans[parent][0]
            self_time[pname] -= duration
        for key, value in attrs.items():
            sums[key] = sums.get(key, 0) + value

    def per_call_ms(name):
        return 1000.0 * total.get(name, 0.0) / calls[name] if calls.get(name) else 0.0

    chunks = sum(calls.get(f"simulation.{k}", 0) for k in KERNELS)
    harness_self = sum((v for k, v in self_time.items() if k.startswith("harness.")), 0.0)
    counts = {
        "cli.calls": calls.get("cli.main", 0),
        "harness.plans": calls.get("harness.run_trials", 0),
        "harness.chunks": chunks,
        "model.sample_calls": calls.get("model.sample", 0),
        **{f"simulation.{k}.calls": calls.get(f"simulation.{k}", 0) for k in KERNELS},
        "simulation.agent_trials": sums.get("agent_trials", 0),
        "simulation.bytes_computed": sums.get("bytes", 0),
        "allocation.estimate_length_pmf_calls": calls.get("allocation.estimate_length_pmf", 0),
        "allocation.gap_samples": sums.get("gap_samples", 0),
        "analytics.speed_sum_inverse_mean_calls": calls.get("analytics.speed_sum_inverse_mean", 0),
        "analytics.terms": sums.get("terms", 0),
    }
    metrics = {
        "cli.parse_s": total.get("cli.parse_config", 0.0),
        "cli.render_s": total.get("cli.render", 0.0),
        "cli.self_s": self_time.get("cli.main", 0.0),
        "harness.self_s": harness_self,
        "harness.self_ms_per_chunk": 1000.0 * harness_self / chunks if chunks else 0.0,
        "model.sample_ms_per_chunk": per_call_ms("model.sample"),
        **{f"simulation.{k}.ms_per_chunk": per_call_ms(f"simulation.{k}") for k in KERNELS},
        "allocation.estimate_length_pmf_s": total.get("allocation.estimate_length_pmf", 0.0),
        "analytics.speed_sum_inverse_mean_s": total.get("analytics.speed_sum_inverse_mean", 0.0),
    }
    return metrics, counts


def check_counts(measured: dict[str, int], expected: dict[str, int]) -> None:
    """Raise unless every traced count equals its arithmetic expectation."""
    wrong = {k: (measured.get(k), v) for k, v in expected.items() if measured.get(k) != v}
    if wrong:
        lines = "\n".join(f"  {k}: traced {got}, expected {want}" for k, (got, want) in sorted(wrong.items()))
        raise TraceError(f"trace does not match the workload:\n{lines}")
