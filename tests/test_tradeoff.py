import csv
import io
import random

import pytest

from corpus import (
    _rescale_rewards,
    integer_instances,
    random_mdp,
    rational_instances,
)
from mvmdp import tradeoff
from mvmdp.cli import run
from mvmdp.fixtures import all_zero, offset_chain, one_shot_two_arms
from mvmdp.frequency import terminal_lower_hull
from mvmdp.games import enumerate_policies
from mvmdp.geometry import hausdorff_sq
from mvmdp.model import evaluate_policy, make_mdp
from mvmdp.rationals import Rat, ZERO
from mvmdp.serialize import dumps
from mvmdp.setdp import ExactFrontier, compute_pmq, exact_frontier
from mvmdp.tradeoff import (
    approximate_lambda_star,
    approximate_v_star,
    discretize_rewards,
    general_reward_v_hat,
)


def _sure_reward_mdp(value, horizon=1):
    transitions = {}
    rewards = {}
    for t in range(horizon):
        transitions[(t, "s", "a")] = {"s": 1}
        rewards[(t, "s", "a")] = {value: 1}
    return make_mdp(
        horizon=horizon,
        states=("s",),
        initial_state="s",
        actions={"s": ("a",)},
        transitions=transitions,
        rewards=rewards,
    )


_DENOMINATORS = (2, 3, 4, 6, 12)


def _random_rational_mdp(rng, max_states=2, max_actions=2, max_horizon=2):
    # Values stay in [-2, 2] with denominators <= 12; instances are redrawn
    # until some reward has magnitude >= 1, since the flooring bounds below
    # are stated relative to the reward bound and need the grid step to be
    # small against it.
    while True:
        horizon = rng.randrange(1, max_horizon + 1)
        n = rng.randrange(1, max_states + 1)
        states = tuple(f"s{i}" for i in range(n))
        actions = {
            s: tuple(f"a{j}" for j in range(rng.randrange(1, max_actions + 1)))
            for s in states
        }
        transitions = {}
        rewards = {}
        for t in range(horizon):
            for s in states:
                for a in actions[s]:
                    targets = rng.sample(states, rng.randrange(1, n + 1))
                    weights = [rng.randrange(1, 4) for _ in targets]
                    total = sum(weights)
                    transitions[(t, s, a)] = {
                        s2: Rat(wt, total) for s2, wt in zip(targets, weights)
                    }
                    den = rng.choice(_DENOMINATORS)
                    values = rng.sample(
                        range(-2 * den, 2 * den + 1), rng.randrange(1, 3)
                    )
                    weights = [rng.randrange(1, 4) for _ in values]
                    total = sum(weights)
                    rewards[(t, s, a)] = {
                        Rat(v, den): Rat(wt, total)
                        for v, wt in zip(values, weights)
                    }
        mdp = make_mdp(
            horizon=horizon,
            states=states,
            initial_state=states[0],
            actions=actions,
            transitions=transitions,
            rewards=rewards,
        )
        if mdp.reward_bound >= 1:
            return mdp


def _assert_suffix_nondecreasing(values):
    for a, b in zip(values, values[1:]):
        if a is None:
            assert b is None
        else:
            assert b is None or b >= a


def test_one_shot_grid_layout():
    curve = approximate_v_star(one_shot_two_arms(), Rat(3, 4), Rat(3, 4))
    assert curve.mean_bound == 2
    assert curve.delta == Rat(1, 8)
    assert curve.epsilon == Rat(3, 4)
    assert curve.grid[0] == -2
    assert curve.grid[-2] <= 2 < curve.grid[-1]
    assert len(curve.grid) == 34
    assert len(curve.qhat) == len(curve.uhat) == len(curve.cell_values) == 33


def test_one_shot_sandwich_at_half():
    mdp = one_shot_two_arms()
    frontier = exact_frontier(compute_pmq(mdp))
    assert frontier.value(Rat(1, 2)) == Rat(3, 4)
    curve = approximate_v_star(mdp, Rat(3, 4), Rat(3, 4))
    got = curve.value(Rat(1, 2))
    assert got <= Rat(3, 4)
    assert got >= Rat(-3, 4)


def test_one_shot_underestimate_at_grid_points():
    mdp = one_shot_two_arms()
    frontier = exact_frontier(compute_pmq(mdp))
    curve = approximate_v_star(mdp, Rat(3, 4), Rat(3, 4))
    for lam in curve.grid:
        exact = frontier.value(lam)
        got = curve.value(lam)
        if exact is None:
            continue
        assert got is not None
        assert got <= exact


def test_negative_sure_reward_underestimate():
    # Sole policy earns -1 surely, so the curve at its leftmost feasible
    # point must report exactly zero variance, not a positive estimate.
    mdp = _sure_reward_mdp(-1)
    frontier = exact_frontier(compute_pmq(mdp))
    assert frontier.value(-1) == ZERO
    curve = approximate_v_star(mdp, 1, 1)
    assert curve.value(-1) == ZERO
    for lam in curve.grid:
        exact = frontier.value(lam)
        if exact is not None:
            got = curve.value(lam)
            assert got is not None and got <= exact


def test_positive_cells_use_right_endpoint_square():
    curve = approximate_v_star(one_shot_two_arms(), 1, 1)
    seen = 0
    for i, u in enumerate(curve.uhat):
        lo, hi = curve.grid[i], curve.grid[i + 1]
        if u is None or lo < 0:
            continue
        assert u == curve.qhat[i] - hi * hi
        seen += 1
    assert seen > 0


def test_constant_extension_below_grid():
    curve = approximate_v_star(one_shot_two_arms(), 1, 1)
    assert curve.value(-5) == curve.value(curve.grid[0])
    assert curve.value(-5) == curve.cell_values[0]


def test_infinite_past_reachable_means():
    curve = approximate_v_star(one_shot_two_arms(), 1, 1)
    # Means stop at 1; all cells from there on are infeasible.
    assert curve.value(Rat(3, 2)) is None
    assert curve.value(curve.grid[-1] + 1) is None


def test_left_cell_owns_shared_endpoint():
    curve = approximate_v_star(one_shot_two_arms(), 1, 1)
    # grid step 1/6; the cell [1, 7/6] is the last feasible one.
    k = curve.grid.index(Rat(7, 6))
    assert curve.cell_values[k - 1] is not None
    assert curve.cell_values[k] is None
    assert curve.value(Rat(7, 6)) == curve.cell_values[k - 1]


def test_all_zero_rewards_degenerate():
    curve = approximate_v_star(all_zero(), 1, 1)
    assert curve.epsilon == ZERO
    assert curve.value(0) == ZERO
    assert curve.value(-3) == ZERO
    assert curve.value(Rat(1, 1000)) is None
    mean_curve = approximate_lambda_star(all_zero(), 1, 1)
    assert mean_curve.mean_for(0) == ZERO
    assert mean_curve.mean_for(5) == ZERO
    assert mean_curve.mean_for(Rat(-1, 2)) is None


def test_vhat_nondecreasing_across_cells():
    for mdp in (one_shot_two_arms(), offset_chain()):
        curve = approximate_v_star(mdp, Rat(1, 2), Rat(1, 2))
        _assert_suffix_nondecreasing(curve.cell_values)


def test_cell_estimates_below_frontier_samples():
    mdp = offset_chain()
    hull = terminal_lower_hull(mdp)
    assert hull == compute_pmq(mdp).lower_chain()
    curve = approximate_v_star(mdp, Rat(1, 2), Rat(1, 2))
    front = ExactFrontier.of_chain(hull)
    checked = 0
    for i, u in enumerate(curve.uhat):
        if u is None:
            continue
        lo, hi = curve.grid[i], curve.grid[i + 1]
        for lam in (lo, (lo + hi) / 2, hi):
            q = front.second_moment(lam)
            if q is None:
                continue
            assert u <= q - lam * lam
            checked += 1
    assert checked > 0


def test_step_rule_mixed_tolerances():
    mdp = one_shot_two_arms()
    assert approximate_v_star(mdp, Rat(3, 4), Rat(1, 16)).delta == Rat(1, 16)
    assert approximate_v_star(mdp, Rat(3, 4), 1).delta == Rat(1, 8)
    # Huge tolerances clamp the step at the mean bound.
    wide = approximate_v_star(mdp, 100, 100)
    assert wide.delta == 2
    assert wide.value(0) is not None


def test_grid_cell_cap(monkeypatch):
    mdp = one_shot_two_arms()
    # KT = 2: epsilon 1/10^9 asks for a step of 1/(6 * 10^9), so 2.4 * 10^10
    # cells, refused before any of them is built.
    for build in (approximate_v_star, approximate_lambda_star):
        with pytest.raises(ValueError, match="cells"):
            build(mdp, Rat(1, 10**9), 1)
    # The count is known up front: a grid of exactly the cap is built, one
    # more cell is refused.
    cells = len(approximate_v_star(mdp, Rat(1, 2), Rat(1, 2)).qhat)
    monkeypatch.setattr(tradeoff, "MAX_GRID_CELLS", cells)
    assert len(approximate_v_star(mdp, Rat(1, 2), Rat(1, 2)).qhat) == cells
    monkeypatch.setattr(tradeoff, "MAX_GRID_CELLS", cells - 1)
    with pytest.raises(ValueError, match="cells"):
        approximate_v_star(mdp, Rat(1, 2), Rat(1, 2))


def test_tolerance_and_reward_validation():
    mdp = one_shot_two_arms()
    for bad in (0, -1, Rat(-1, 2)):
        with pytest.raises(ValueError):
            approximate_v_star(mdp, bad, 1)
        with pytest.raises(ValueError):
            approximate_lambda_star(mdp, 1, bad)
        with pytest.raises(ValueError):
            general_reward_v_hat(mdp, bad, bad)
    # Rational rewards are taken as they are: a sure 1/2 has no variance,
    # so both curves sit within their slack of that point.
    fractional = _sure_reward_mdp(Rat(1, 2))
    curve = approximate_v_star(fractional, 1, 1)
    assert -curve.epsilon <= curve.value(Rat(1, 2)) <= ZERO
    mean_curve = approximate_lambda_star(fractional, 1, 1)
    lam_hat = mean_curve.mean_for(mean_curve.epsilon)
    assert Rat(1, 2) - mean_curve.delta <= lam_hat <= Rat(1, 2)


def test_sandwich_property_random():
    # Integer and rational rewards alike: the grid never uses integrality.
    rng = random.Random(0x7D41)
    mdps = [random_mdp(rng) for _ in range(12)]
    mdps += [_random_rational_mdp(rng) for _ in range(8)]
    for mdp in mdps:
        polygon = compute_pmq(mdp)
        frontier = exact_frontier(polygon)
        assert terminal_lower_hull(mdp) == polygon.lower_chain()
        for eps in (Rat(1), Rat(1, 2)):
            curve = approximate_v_star(mdp, eps, eps)
            for lam in curve.grid:
                got = curve.value(lam)
                exact = frontier.value(lam)
                if exact is not None:
                    assert got is not None and got <= exact
                shifted = frontier.value(lam - eps)
                if shifted is None:
                    assert got is None
                else:
                    assert got is None or got >= shifted - eps


def test_lambda_star_one_shot():
    mdp = one_shot_two_arms()
    curve = approximate_lambda_star(mdp, Rat(1, 4), Rat(1, 4))
    assert curve.delta == Rat(1, 24)
    assert curve.mean_for(1) == 1
    assert curve.mean_for(0) == ZERO
    assert curve.mean_for(-1) is None
    frontier = exact_frontier(compute_pmq(mdp))
    lam_hat = curve.mean_for(Rat(1, 2))
    assert lam_hat is not None and lam_hat >= ZERO
    assert frontier.value(lam_hat) <= Rat(1, 2)


def test_lambda_star_offset_chain_zero_budget():
    # The largest mean forcible with zero variance is exactly 1.
    curve = approximate_lambda_star(offset_chain(), Rat(1, 4), Rat(1, 4))
    got = curve.mean_for(0)
    assert got <= 1
    assert got == 1
    assert curve.mean_for(Rat(1, 4)) == Rat(3, 2)
    _assert_suffix_nondecreasing(curve.suffix_caps)


def test_lambda_star_guarantees_random():
    rng = random.Random(0x51B3)
    mdps = [random_mdp(rng) for _ in range(10)]
    mdps += [_random_rational_mdp(rng) for _ in range(8)]
    for mdp in mdps:
        polygon = compute_pmq(mdp)
        frontier = exact_frontier(polygon)
        assert terminal_lower_hull(mdp) == polygon.lower_chain()
        curve = approximate_lambda_star(mdp, Rat(1, 2), Rat(1, 2))
        # Soundness: every reported mean is reachable within the budget.
        for budget in (ZERO, Rat(1, 4), Rat(1), Rat(4)):
            lam_hat = curve.mean_for(budget)
            if lam_hat is None:
                continue
            exact = frontier.value(lam_hat)
            assert exact is not None and exact <= budget
        # Completeness at the polygon's own lower vertices.
        for m, q in polygon.lower_chain():
            lam_hat = curve.mean_for(q - m * m + curve.epsilon)
            assert lam_hat is not None
            assert lam_hat >= m - curve.delta


def test_discretize_examples():
    mixed = _sure_reward_mdp(0)
    mixed = make_mdp(
        horizon=1,
        states=("s",),
        initial_state="s",
        actions={"s": ("a",)},
        transitions={("s", "a"): {"s": 1}},
        rewards={("s", "a"): {Rat(1, 3): Rat(1, 2), Rat(2, 3): Rat(1, 2)}},
    )
    disc = discretize_rewards(mixed, Rat(1, 2))
    assert disc.rewards[(0, "s", "a")] == {ZERO: Rat(1, 2), Rat(1, 2): Rat(1, 2)}
    assert disc.transitions == mixed.transitions

    negative = _sure_reward_mdp(Rat(-1, 3))
    assert discretize_rewards(negative, Rat(1, 2)).rewards[(0, "s", "a")] == {
        Rat(-1, 2): 1
    }

    integral = one_shot_two_arms()
    assert discretize_rewards(integral, 1).rewards == integral.rewards

    with pytest.raises(ValueError):
        discretize_rewards(integral, 0)


def test_discretize_merges_mass():
    mdp = make_mdp(
        horizon=1,
        states=("s",),
        initial_state="s",
        actions={"s": ("a",)},
        transitions={("s", "a"): {"s": 1}},
        rewards={
            ("s", "a"): {Rat(1, 3): Rat(1, 2), Rat(1, 4): Rat(1, 4), ZERO: Rat(1, 4)}
        },
    )
    disc = discretize_rewards(mdp, Rat(1, 2))
    assert disc.rewards[(0, "s", "a")] == {ZERO: Rat(1)}


def test_discretization_coupling_on_ts_policies():
    rng = random.Random(0xA0C7)
    for _ in range(10):
        mdp = _random_rational_mdp(rng)
        reward_cap = mdp.reward_bound
        horizon = mdp.horizon
        for step in (Rat(1, 2), Rat(1, 4)):
            disc = discretize_rewards(mdp, step)
            q_bound = 2 * reward_cap * horizon * horizon * step
            for spec, mean, second, _ in enumerate_policies(mdp, "TS"):
                moved = evaluate_policy(disc, spec)
                drift = mean - moved.mean
                assert ZERO <= drift <= horizon * step
                assert abs(second - moved.second_moment) <= q_bound


def test_discretization_polygon_distance():
    rng = random.Random(0xB2E9)
    for _ in range(8):
        mdp = _random_rational_mdp(rng)
        exact = compute_pmq(mdp)
        for step in (Rat(1, 2), Rat(1, 4)):
            moved = compute_pmq(discretize_rewards(mdp, step))
            bound = 2 * mdp.reward_bound * mdp.horizon * mdp.horizon * step
            assert hausdorff_sq(exact, moved) <= bound * bound


def test_general_reward_pipeline_example():
    mdp = make_mdp(
        horizon=1,
        states=("s",),
        initial_state="s",
        actions={"s": ("a",)},
        transitions={("s", "a"): {"s": 1}},
        rewards={("s", "a"): {Rat(1, 3): Rat(1, 2), Rat(2, 3): Rat(1, 2)}},
    )
    eps = Rat(4, 3)
    curve = general_reward_v_hat(mdp, eps, eps)
    # Rewards floor to halves (step min(eps/4KT^2, nu/2T) = 1/2), so
    # KT = 1/2 and delta = (eps/2) / 3KT.
    assert curve.delta == Rat(4, 9)
    frontier = exact_frontier(compute_pmq(mdp))
    assert frontier.value(Rat(1, 2)) == Rat(1, 36)
    for lam in list(curve.grid) + [ZERO, Rat(1, 2), Rat(1, 4)]:
        got = curve.value(lam)
        upper = frontier.value(lam + eps)
        if upper is not None:
            assert got is not None and got <= upper + eps
        lower = frontier.value(lam - eps)
        if lower is not None:
            assert got is None or got >= lower - eps


def test_general_reward_sandwich_random():
    rng = random.Random(0xC55A)
    for _ in range(6):
        mdp = _random_rational_mdp(rng)
        frontier = exact_frontier(compute_pmq(mdp))
        eps = Rat(1)
        curve = general_reward_v_hat(mdp, eps, eps)
        for lam in curve.grid:
            got = curve.value(lam)
            upper = frontier.value(lam + eps)
            if upper is not None:
                assert got is not None and got <= upper + eps
            lower = frontier.value(lam - eps)
            if lower is not None:
                assert got is None or got >= lower - eps


def test_general_reward_integer_short_circuit():
    mdp = one_shot_two_arms()
    assert general_reward_v_hat(mdp, 1, 1) == approximate_v_star(
        mdp, Rat(1, 2), Rat(1, 2)
    )


def _scaled_pipeline(mdp, epsilon, nu):
    # The paper's route: floor, rescale the rewards to integers, build the
    # integer grid, then map means back by the step and moments by its square.
    horizon = mdp.horizon
    step = min(
        epsilon / (4 * mdp.reward_bound * horizon * horizon), nu / (2 * horizon)
    )
    scaled = _rescale_rewards(discretize_rewards(mdp, step), 1 / step)
    assert scaled.integer_rewards()
    inner = approximate_v_star(scaled, epsilon / 2 / step**2, nu / 2 / step)
    sq = step * step

    def var(v):
        return None if v is None else v * sq

    return tradeoff.TradeoffCurve(
        mean_bound=inner.mean_bound * step,
        delta=inner.delta * step,
        epsilon=inner.epsilon * sq,
        grid=tuple(lam * step for lam in inner.grid),
        qhat=tuple(map(var, inner.qhat)),
        uhat=tuple(map(var, inner.uhat)),
        cell_values=tuple(map(var, inner.cell_values)),
    )


def test_general_reward_matches_integer_rescaling():
    # Flooring and building on the rational grid gives the very curve the
    # rescale-to-integers route gives, field for field.
    pairs = ((Rat(1), Rat(1)), (Rat(1, 2), Rat(1, 3)), (Rat(2), Rat(1, 4)))
    for mdp in rational_instances():
        assert not mdp.integer_rewards()
        for eps, nu in pairs:
            assert general_reward_v_hat(mdp, eps, nu) == _scaled_pipeline(
                mdp, eps, nu
            )


def test_general_reward_all_zero():
    assert general_reward_v_hat(all_zero(), 1, 1).value(0) == ZERO


def test_csv_rows_and_writer(capsys, tmp_path):
    # The CLI renders the curve: one CSV row per grid cell, the exact p/q
    # columns and then their float twins.
    mdp = one_shot_two_arms()
    curve = approximate_v_star(mdp, 1, 1)
    path = tmp_path / "one_shot.json"
    path.write_text(dumps(mdp))
    assert run(["frontier", str(path), "--epsilon", "1", "--nu", "1"]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0] == (
        "lambda_lo,lambda_hi,qhat,uhat,vhat,"
        "lambda_lo_float,lambda_hi_float,qhat_float,uhat_float,vhat_float"
    )
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == len(curve.grid) - 1
    assert len(lines) == len(rows) + 1
    assert rows[0]["lambda_lo"] == "-2"
    assert rows[0]["qhat"] == "inf"
    assert rows[0]["qhat_float"] == "inf"
    assert rows[0]["vhat"] != "inf"
    origin = curve.grid.index(ZERO)
    assert rows[origin]["qhat"] == "0"
    assert rows[origin]["qhat_float"] == "0.0"


def test_polygon_hull_matches_lp_hull_on_integer_corpus():
    # The grid reads the lower boundary off the moment polygon, and a curve
    # is a function of the MDP and that chain; the occupation-measure LP hull
    # must be the same chain, and its cell minima the curve's qhat.
    for mdp in integer_instances(count=50):
        hull = terminal_lower_hull(mdp)
        assert hull == compute_pmq(mdp).lower_chain()
        front = ExactFrontier.of_chain(hull)
        for eps, nu in ((Rat(1), Rat(1)), (Rat(1, 2), Rat(1, 3))):
            curve = approximate_v_star(mdp, eps, nu)
            cells = zip(curve.grid, curve.grid[1:])
            assert curve.qhat == tuple(
                front.min_second_moment(lo, hi) for lo, hi in cells
            )
