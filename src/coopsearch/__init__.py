"""Cooperative exhaustive search on a circular region.

Analytic expected-search-time formulas and a Monte-Carlo harness for comparing
region-division methods (equal, semi-equal, random, proportional) and sweep
strategies (one-directional, two-directional, grouped, proportional), for
homogeneous and heterogeneous agent speeds.
"""

__version__ = "0.1.0"

from .allocation import (
    Allocation,
    Arc,
    LengthDistribution,
    allocate_equal,
    allocate_proportional,
    allocate_random,
    allocate_semi_equal,
    estimate_length_pmf,
    length_pmf_equal,
    length_pmf_semi_equal,
    spacing_pmf_oracle,
)
from .analytics import (
    JointSpeedLengthPmf,
    expected_time_equal,
    expected_time_independent,
    expected_time_joint,
    expected_time_proportional,
    expected_time_proportional_resampled,
    expected_time_random_starts,
    expected_time_semi_equal,
    mean_inverse_speed,
    second_moment,
    solution_in_region_prob,
    speed_sum_inverse_mean,
)
from .harness import (
    CompareRow,
    StrategySpec,
    SummaryStats,
    SweepResult,
    TrialPlan,
    compare_strategies,
    resolve_method,
    run_trials,
    sweep_m,
)
from .model import (
    AgentProfile,
    RegionSpec,
    SolutionPlacement,
    SpeedDistribution,
    wrap_distance,
)
from .simulation import (
    GroupingPolicy,
    TrialOutcome,
    TrialSetup,
    no_overtake_condition,
    simulate_grouped,
    simulate_one_directional,
    simulate_proportional,
    simulate_two_directional,
)

__all__ = [
    "__version__",
    "RegionSpec",
    "AgentProfile",
    "SpeedDistribution",
    "SolutionPlacement",
    "wrap_distance",
    "Arc",
    "Allocation",
    "LengthDistribution",
    "allocate_equal",
    "allocate_semi_equal",
    "allocate_random",
    "allocate_proportional",
    "length_pmf_equal",
    "length_pmf_semi_equal",
    "estimate_length_pmf",
    "spacing_pmf_oracle",
    "JointSpeedLengthPmf",
    "mean_inverse_speed",
    "second_moment",
    "solution_in_region_prob",
    "expected_time_joint",
    "expected_time_independent",
    "expected_time_equal",
    "expected_time_semi_equal",
    "expected_time_random_starts",
    "expected_time_proportional",
    "expected_time_proportional_resampled",
    "speed_sum_inverse_mean",
    "StrategySpec",
    "GroupingPolicy",
    "TrialSetup",
    "TrialOutcome",
    "simulate_one_directional",
    "simulate_two_directional",
    "simulate_grouped",
    "simulate_proportional",
    "no_overtake_condition",
    "TrialPlan",
    "SummaryStats",
    "SweepResult",
    "CompareRow",
    "resolve_method",
    "run_trials",
    "sweep_m",
    "compare_strategies",
]
