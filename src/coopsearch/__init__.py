"""Cooperative exhaustive search on a circular region.

Analytic expected-search-time formulas and a Monte-Carlo harness for comparing
region-division methods (equal, semi-equal, random, proportional) and sweep
strategies (one-directional, two-directional, grouped, proportional), for
homogeneous and heterogeneous agent speeds.
"""

__version__ = "0.1.0"

from .allocation import (
    estimate_length_pmf,
    length_pmf_equal,
    length_pmf_semi_equal,
    spacing_pmf_oracle,
)
from .analytics import (
    expected_time_independent,
    expected_time_proportional_resampled,
    expected_time_random_starts,
    mean_inverse_speed,
    second_moment,
    speed_sum_inverse_mean,
)
from .harness import (
    StrategySpec,
    SummaryStats,
    TrialPlan,
    compare_strategies,
    resolve_method,
    run_trials,
    sweep_m,
)
from .model import RegionSpec, SpeedDistribution

__all__ = [
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
]
