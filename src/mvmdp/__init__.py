"""Exact mean-variance analysis of finite-horizon MDPs.

The package answers questions about the terminal cumulative reward of a
finite-horizon MDP with rational data, all in exact arithmetic: which
(mean, variance) pairs some policy achieves, the minimum-variance frontier
and its grid approximation, which terminal values can be forced surely, and
how the four policy classes (state or reward-aware, deterministic or
randomized) differ in power.
"""

from .errors import (
    AugmentationLimitError,
    EngineDisagreementError,
    EnumerationLimitError,
    InputFormatError,
    MvmdpError,
    PolicyCoverageError,
)
from .frequency import (
    FrequencyVector,
    build_polytope,
    check_frequency,
    exact_pair_feasible,
    frequencies_to_policy,
    mean_fixed_var_bounded,
    min_q_over_interval,
    policy_frequencies,
    terminal_lower_hull,
)
from .games import (
    class_feasibility,
    class_separation_report,
    enumerate_policies,
    gen_3sat,
    gen_subset_sum,
    zero_variance_values,
)
from .geometry import MomentPolygon, hausdorff_sq, prune_polygon
from .model import (
    DEFAULT_NODE_CAP,
    Mdp,
    PolicySpec,
    augment,
    check_policy,
    evaluate_policy,
    make_mdp,
    validate,
)
from .rationals import Rat, rat, rat_str, rationalize_float
from .serialize import dump, dumps, load, loads
from .setdp import (
    compute_pmq,
    exact_frontier,
    max_variance,
    min_variance,
)
from .tradeoff import (
    MeanCurve,
    TradeoffCurve,
    approximate_lambda_star,
    approximate_v_star,
    curve_rows,
    discretize_rewards,
    general_reward_v_hat,
    write_curve_csv,
)

__version__ = "0.1.0"

__all__ = [
    "AugmentationLimitError",
    "DEFAULT_NODE_CAP",
    "EngineDisagreementError",
    "EnumerationLimitError",
    "FrequencyVector",
    "InputFormatError",
    "Mdp",
    "MeanCurve",
    "MomentPolygon",
    "MvmdpError",
    "PolicyCoverageError",
    "PolicySpec",
    "Rat",
    "TradeoffCurve",
    "approximate_lambda_star",
    "approximate_v_star",
    "augment",
    "build_polytope",
    "check_frequency",
    "check_policy",
    "class_feasibility",
    "class_separation_report",
    "compute_pmq",
    "curve_rows",
    "discretize_rewards",
    "dump",
    "dumps",
    "enumerate_policies",
    "evaluate_policy",
    "exact_frontier",
    "exact_pair_feasible",
    "frequencies_to_policy",
    "gen_3sat",
    "gen_subset_sum",
    "general_reward_v_hat",
    "hausdorff_sq",
    "load",
    "loads",
    "make_mdp",
    "max_variance",
    "mean_fixed_var_bounded",
    "min_q_over_interval",
    "min_variance",
    "policy_frequencies",
    "prune_polygon",
    "rat",
    "rat_str",
    "rationalize_float",
    "terminal_lower_hull",
    "validate",
    "write_curve_csv",
    "zero_variance_values",
]
