"""Exact mean-variance analysis of finite-horizon MDPs.

The package answers questions about the terminal cumulative reward of a
finite-horizon MDP with rational data, all in exact arithmetic: which
(mean, variance) pairs some policy achieves, the minimum-variance frontier
and its grid approximation, which terminal values can be forced surely, and
how the four policy classes (state or reward-aware, deterministic or
randomized) differ in power.

Every name in `__all__` is importable from the package root, but `import
mvmdp` loads no submodule: a public name, or a submodule such as
`mvmdp.setdp`, is imported on first use (PEP 562) and then cached here. A
process pays only for the engines it calls.
"""

from importlib import import_module

__version__ = "0.1.0"

# Each submodule and the public names it defines.
_EXPORTS = {
    "errors": (
        "AugmentationLimitError", "EngineDisagreementError",
        "EnumerationLimitError", "InputFormatError", "MvmdpError",
        "PolicyCoverageError",
    ),
    "frequency": (
        "FrequencyVector", "build_polytope", "check_frequency",
        "exact_pair_feasible", "frequencies_to_policy",
        "mean_fixed_var_bounded", "min_q_over_interval", "policy_frequencies",
        "terminal_lower_hull",
    ),
    "games": (
        "class_feasibility", "class_separation_report", "enumerate_policies",
        "gen_3sat", "gen_subset_sum", "zero_variance_values",
    ),
    "geometry": ("MomentPolygon", "hausdorff_sq", "prune_polygon"),
    "lp": (),
    "model": (
        "DEFAULT_NODE_CAP", "Mdp", "PolicySpec", "augment", "check_policy",
        "evaluate_policy", "make_mdp", "validate",
    ),
    "rationals": ("Rat", "rat", "rat_str", "rationalize_float"),
    "serialize": ("dump", "dumps", "load", "loads"),
    "setdp": ("compute_pmq", "exact_frontier", "max_variance", "min_variance"),
    "tradeoff": (
        "MeanCurve", "TradeoffCurve", "approximate_lambda_star",
        "approximate_v_star", "discretize_rewards", "general_reward_v_hat",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    if name in _EXPORTS:
        value = import_module(f"{__name__}.{name}")
    elif name in _HOME:
        value = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS, *__all__})
