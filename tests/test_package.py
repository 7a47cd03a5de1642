"""The package's public names, and the names the benchmark's tracer wraps."""

import pytest

import coopsearch
from coopsearch import allocation, analytics, cli, harness, model, simulation

PACKAGE_API = {
    "__version__",
    "RegionSpec",
    "SpeedDistribution",
    "length_pmf_equal",
    "length_pmf_semi_equal",
    "estimate_length_pmf",
    "spacing_pmf_oracle",
    "mean_inverse_speed",
    "second_moment",
    "expected_time_independent",
    "expected_time_random_starts",
    "expected_time_proportional_resampled",
    "speed_sum_inverse_mean",
    "StrategySpec",
    "TrialPlan",
    "SummaryStats",
    "resolve_method",
    "run_trials",
    "sweep_m",
    "compare_strategies",
}


def test_package_api_is_pinned():
    # the package star-imports its modules, so a name a module adds to its
    # __all__ (a kernel, semi_equal_starts) would join the API unnoticed
    assert set(coopsearch.__all__) == PACKAGE_API
    assert len(coopsearch.__all__) == len(PACKAGE_API)
    namespace = {}
    exec("from coopsearch import *", namespace)
    for name in coopsearch.__all__:
        assert name in namespace
        assert getattr(coopsearch, name) is namespace[name]
    for module in (cli, simulation):  # not re-exported, so they declare no API list
        assert not hasattr(module, "__all__"), module.__name__


# (owner, attribute) for every name perfbench/tracer.py wraps, where it looks them up
TRACED = [
    (cli, "parse_config"),
    (cli.OutputRecord, "render"),
    (cli, "run_trials"),
    (cli, "sweep_m"),
    (cli, "compare_strategies"),
    (cli, "estimate_length_pmf"),
    (harness, "run_trials"),
    (harness, "one_directional_times"),
    (harness, "two_directional_times"),
    (harness, "grouped_times"),
    (harness, "proportional_times"),
    (model.SpeedDistribution, "sample"),
    (analytics, "speed_sum_inverse_mean"),
]


@pytest.mark.parametrize("owner, attr", TRACED, ids=[f"{o.__name__}.{a}" for o, a in TRACED])
def test_traced_names_exist(owner, attr):
    assert callable(getattr(owner, attr))


def test_cli_calls_the_library_functions_the_tracer_wraps():
    # the tracer wraps cli's own binding of each name, so it must be the library's function
    for name in ("run_trials", "sweep_m", "compare_strategies"):
        assert getattr(cli, name) is getattr(harness, name)
    assert cli.estimate_length_pmf is allocation.estimate_length_pmf
