"""End-to-end acceptance gate.

Nine independent checks, each printing one "criterion N (...): PASS" or
"... FAIL" line (run pytest with -s to see them as they happen). Numeric
comparisons are exact rational equality or exact inequalities throughout;
no check uses a floating-point tolerance.
"""

import pytest

from corpus import (
    deep_instances,
    has_balancing_partition,
    integer_instances,
    rational_instances,
    subset_sum_vectors,
)
from mvmdp.fixtures import (
    forked_path,
    offset_chain,
    one_shot_two_arms,
    two_point_stage,
)
from mvmdp.frequency import (
    exact_pair_feasible,
    frequencies_to_policy,
    mean_fixed_var_bounded,
    min_q_over_interval,
    terminal_lower_hull,
)
from mvmdp.games import (
    class_separation_report,
    enumerate_policies,
    gen_subset_sum,
    zero_variance_values,
)
from mvmdp.geometry import MomentPolygon, hausdorff_sq
from mvmdp.lp import LpStatus
from mvmdp.model import evaluate_policy
from mvmdp.rationals import Rat
from mvmdp.setdp import compute_pmq, exact_frontier, max_variance
from mvmdp.tradeoff import approximate_v_star, discretize_rewards


def _conclude(number: int, label: str, failures: list) -> None:
    status = "FAIL" if failures else "PASS"
    print(f"criterion {number} ({label}): {status}")
    assert not failures, f"criterion {number} ({label}): {failures[:3]}"


@pytest.fixture(scope="module")
def integer_corpus():
    return integer_instances()


@pytest.fixture(scope="module")
def integer_polygons(integer_corpus):
    return [(mdp, compute_pmq(mdp)) for mdp in integer_corpus]


def test_acceptance_exact_polygon_matches_policy_hull(integer_polygons):
    failures = []
    for idx, (mdp, polygon) in enumerate(integer_polygons):
        pairs = [
            (mean, second)
            for _, mean, second, _ in enumerate_policies(mdp, "TSW")
        ]
        hull = MomentPolygon.of(pairs)
        if set(polygon.vertices) != set(hull.vertices):
            failures.append((idx, polygon.vertices, hull.vertices))
    _conclude(1, "moment polygon equals enumerated policy hull", failures)


def test_acceptance_lower_vertices_match_interval_lp(integer_polygons):
    failures = []
    for idx, (mdp, polygon) in enumerate(integer_polygons):
        for mean, second in polygon.lower_chain():
            status, value = min_q_over_interval(mdp, mean, mean)
            if status is not LpStatus.OPTIMAL or value != second:
                failures.append((idx, str(mean), str(second), str(value)))
    _conclude(2, "lower vertices reproduced by the interval LP", failures)


def test_acceptance_tradeoff_sandwich(integer_polygons):
    failures = []
    for idx, (mdp, polygon) in enumerate(integer_polygons[:50]):
        frontier = exact_frontier(polygon)
        # The curve is a function of the MDP and the lower chain, so the LP
        # engine's chain matching the polygon's checks the curve against it.
        if terminal_lower_hull(mdp) != polygon.lower_chain():
            failures.append((idx, "lp hull"))
        for eps in (Rat(1), Rat(1, 2), Rat(1, 4)):
            curve = approximate_v_star(mdp, eps, eps)
            for lam in curve.grid:
                got = curve.value(lam)
                exact = frontier.value(lam)
                if exact is not None and (got is None or got > exact):
                    failures.append((idx, str(eps), str(lam), "over"))
                shifted = frontier.value(lam - eps)
                if shifted is None:
                    if got is not None:
                        failures.append((idx, str(eps), str(lam), "finite"))
                elif got is not None and got < shifted - eps:
                    failures.append((idx, str(eps), str(lam), "under"))
    _conclude(3, "approximate curve sandwiched by the exact one", failures)


def test_acceptance_flooring_distance_bound():
    failures = []
    for idx, mdp in enumerate(rational_instances()):
        exact = compute_pmq(mdp)
        bound_base = 2 * mdp.reward_bound * mdp.horizon * mdp.horizon
        for step in (Rat(1, 2), Rat(1, 4)):
            moved = compute_pmq(discretize_rewards(mdp, step))
            bound = bound_base * step
            if hausdorff_sq(exact, moved) > bound * bound:
                failures.append((idx, str(step)))
    _conclude(4, "flooring moves the polygon at most 2KT^2*step", failures)


def test_acceptance_forcible_zero_matches_partition():
    failures = []
    for values in subset_sum_vectors():
        result = zero_variance_values(gen_subset_sum(values))
        forced = any(v == 0 for v in result.achievable_values)
        if forced != has_balancing_partition(values):
            failures.append(values)
    _conclude(5, "forcible zero iff a balancing partition exists", failures)


def test_acceptance_class_separation_patterns():
    failures = []
    report = class_separation_report(one_shot_two_arms(), Rat(1, 8), Rat(1, 2))
    if report["TS"].feasible or not report["TS_U"].feasible:
        failures.append("state-deterministic vs state-randomized")
    report = class_separation_report(offset_chain(), Rat(1), Rat(0))
    if report["TS_U"].feasible or not report["TSW"].feasible:
        failures.append("state-randomized vs reward-aware")
    report = class_separation_report(forked_path(Rat(1, 4)), Rat(1, 4), Rat(1, 2))
    if report["TSW"].feasible or not report["TSW_U"].feasible:
        failures.append("reward-aware deterministic vs randomized")
    _conclude(6, "the three class-separation patterns", failures)


def test_acceptance_max_variance_even_mixture():
    failures = []
    mdp = two_point_stage()
    value, (mean, _) = max_variance(compute_pmq(mdp))
    if value != Rat(1, 4) or mean != Rat(1, 2):
        failures.append((str(value), str(mean)))
    else:
        ok, z = exact_pair_feasible(mdp, mean, value)
        pmf = frequencies_to_policy(mdp, z).action_pmf(0, "s0", Rat(0))
        if not ok or sorted(pmf.values()) != [Rat(1, 2), Rat(1, 2)]:
            failures.append(("witness", str(dict(pmf))))
    _conclude(7, "max variance 1/4 at the even two-point mixture", failures)


def test_acceptance_pruning_distance_and_size():
    failures = []
    for idx, (mdp, exact) in enumerate(deep_instances()):
        assert len(exact.vertices) >= 20
        for budget in (Rat(1, 2), Rat(1, 4)):
            pruned = compute_pmq(mdp, prune_eps=budget)
            if hausdorff_sq(exact, pruned) > budget * budget:
                failures.append((idx, str(budget), "distance"))
            if len(pruned.vertices) > len(exact.vertices):
                failures.append((idx, str(budget), "size"))
    _conclude(8, "pruned polygons stay close and small", failures)


def test_acceptance_witness_policies_reproduce_moments(integer_polygons):
    failures = []
    for idx, (mdp, polygon) in enumerate(integer_polygons[:60]):
        for mean, second in polygon.vertices:
            variance = second - mean * mean
            for op in (exact_pair_feasible, mean_fixed_var_bounded):
                ok, z = op(mdp, mean, variance)
                if not ok:
                    failures.append((idx, op.__name__, str(mean), "infeasible"))
                    continue
                claimed = (
                    z.terminal_mean(mdp.horizon),
                    z.terminal_second_moment(mdp.horizon),
                )
                ev = evaluate_policy(mdp, frequencies_to_policy(mdp, z))
                if (ev.mean, ev.second_moment) != claimed:
                    failures.append((idx, op.__name__, str(mean), "moments"))
    _conclude(9, "witness frequencies replay to the same moments", failures)
