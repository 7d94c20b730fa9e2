import random

import pytest

import corpus
from mvmdp import model
from mvmdp.errors import AugmentationLimitError, PolicyCoverageError
from mvmdp.fixtures import all_zero, forked_path, offset_chain, one_shot_two_arms
from mvmdp.model import (
    PolicySpec,
    augment,
    check_policy,
    evaluate_policy,
    make_mdp,
    per_node,
    per_state,
    reach,
    validate,
)
from mvmdp.rationals import Rat, rat


def test_fixture_instances_validate_clean():
    for mdp in (one_shot_two_arms(), offset_chain(), forked_path(rat(1, 4)), all_zero()):
        assert validate(mdp) == []


def test_validate_flags_bad_probability_sum():
    mdp = make_mdp(
        horizon=1,
        states=["s0", "end"],
        initial_state="s0",
        actions={"s0": ["a"], "end": ["stay"]},
        transitions={("s0", "a"): {"end": rat(9, 10)}, ("end", "stay"): {"end": 1}},
        rewards={("s0", "a"): {0: 1}, ("end", "stay"): {0: 1}},
    )
    report = validate(mdp)
    assert len(report) == 1
    assert report[0].location == (0, "s0", "a")
    assert "9/10" in report[0].message


def test_validate_flags_missing_row_and_unknown_state():
    mdp = make_mdp(
        horizon=2,
        states=["s0"],
        initial_state="s0",
        actions={"s0": ["a"]},
        transitions={(0, "s0", "a"): {"s0": 1}, (1, "s0", "a"): {"ghost": 1}},
        rewards={("s0", "a"): {0: 1}},
    )
    messages = {(v.location, v.message) for v in validate(mdp)}
    assert any("unknown state" in m for loc, m in messages if loc == (1, "s0", "a"))


def test_validate_flags_unknown_initial_state():
    mdp = make_mdp(
        horizon=1,
        states=["s0"],
        initial_state="elsewhere",
        actions={"s0": ["a"]},
        transitions={("s0", "a"): {"s0": 1}},
        rewards={("s0", "a"): {0: 1}},
    )
    assert any("initial state" in v.message for v in validate(mdp))


def test_augment_one_shot_layer_values():
    mdp = one_shot_two_arms()
    aug = augment(mdp)
    assert aug.layers[0] == (("s0", Rat(0)),)
    assert sorted({w for _, w in aug.layers[1]}) == [Rat(0), Rat(2)]
    assert mdp.integer_rewards()


def test_augment_zero_rewards_single_value_layers():
    aug = augment(all_zero(horizon=4))
    for t in range(5):
        assert sorted({w for _, w in aug.layers[t]}) == [Rat(0)]


def test_augment_is_deterministic():
    mdp = forked_path(rat(1, 3))
    assert augment(mdp) == augment(mdp)


def test_augment_respects_node_cap():
    with pytest.raises(AugmentationLimitError):
        augment(forked_path(rat(1, 2)), max_nodes=3)


def test_reach_walks_the_augmented_layers():
    assert per_state("s", 5) == ("s", 0)
    assert per_node("s", 5) == ("s", 5)
    mdps = (
        corpus.integer_instances(40)
        + corpus.rational_instances(10)
        + [mdp for mdp, _ in corpus.deep_instances(5)]
    )
    for mdp in mdps:
        layers = augment(mdp).layers
        nodes = reach(mdp, per_node)
        states = reach(mdp, per_state)
        assert len(nodes) == len(states) == len(layers) == mdp.horizon + 1
        den = mdp.reward_den
        order = {s: i for i, s in enumerate(mdp.states)}
        for layer, by_node, by_state, walked in zip(
            layers, nodes, states, _rational_walk(mdp)
        ):
            # reach walks rewards as integers W = w * D over the reward
            # denominator, and lists each layer's keys in state order, then
            # by W: augment's layers, in augment's order.
            assert all(type(w) is int for _, w in by_node)
            assert by_node == [(s, w * den) for s, w in layer]
            assert by_node == sorted(
                ((s, int(w * den)) for s, w in walked),
                key=lambda sw: (order[sw[0]], sw[1]),
            )
            # Folded into its state, each reachable (t, state) is one key
            # (s, 0), in state order.
            reached = {s for s, _ in walked}
            assert by_state == [(s, 0) for s in mdp.states if s in reached]


def _rational_walk(mdp) -> list:
    """The reachable (state, cumulative reward) nodes of each step, summed
    as Rats: the walk `reach` did before it ran on integers."""
    layer = {(mdp.initial_state, Rat(0))}
    layers = [layer]
    for t in range(mdp.horizon):
        layer = {
            (s2, w + r)
            for s, w in layer
            for a in mdp.actions[s]
            for s2, _, r, _ in mdp.int_branches(t, s, a)
        }
        layers.append(layer)
    return layers


def test_reach_walks_rewards_over_one_integer_frame():
    mdp = corpus.mixed_frame_mdp(3)
    # 5/11 has probability 0, so only 2, 3 and 7 enter the denominator.
    assert mdp.reward_den == 42
    assert [(r, step) for _, step, r, _ in mdp.int_branches(0, "s0", "a")] == [
        (Rat(1, 2), 21), (Rat(-1, 3), -14), (Rat(1, 2), 21), (Rat(-1, 3), -14)
    ]
    assert [step for _, step, _, _ in mdp.int_branches(2, "s1", "a")] == [
        126, -14, 126, -14
    ]
    layers = augment(mdp).layers
    assert [set(layer) for layer in layers] == _rational_walk(mdp)
    order = {s: i for i, s in enumerate(mdp.states)}
    for layer in layers:
        assert list(layer) == sorted(layer, key=lambda sw: (order[sw[0]], sw[1]))
        assert all(type(w) is Rat for _, w in layer)
    assert [len(layer) for layer in layers] == [1, 5, 16, 35]
    for by_node in reach(mdp, per_node):
        assert all(type(w) is int for _, w in by_node)


def test_augment_integer_bound():
    mdp = offset_chain()
    aug = augment(mdp)
    bound = mdp.reward_bound
    for t, layer in enumerate(aug.layers):
        for _, w in layer:
            assert w.denominator == 1
            assert abs(w) <= bound * t


def test_evaluate_pure_safe_arm():
    mdp = one_shot_two_arms()
    res = evaluate_policy(mdp, PolicySpec("TS", {(0, "s0"): "a"}))
    assert (res.mean, res.second_moment, res.variance) == (0, 0, 0)


def test_evaluate_pure_risky_arm():
    mdp = one_shot_two_arms()
    res = evaluate_policy(mdp, PolicySpec("TS", {(0, "s0"): "b"}))
    assert (res.mean, res.second_moment, res.variance) == (1, 2, 1)


def test_evaluate_quarter_mixture():
    mdp = one_shot_two_arms()
    policy = PolicySpec("TS_U", {(0, "s0"): {"a": rat(3, 4), "b": rat(1, 4)}})
    res = evaluate_policy(mdp, policy)
    assert res.mean == rat(1, 4)
    assert res.second_moment == rat(1, 2)
    assert res.variance == rat(7, 16)
    assert res.terminal == {Rat(0): rat(7, 8), Rat(2): rat(1, 8)}


def test_evaluate_offset_chain_compensating_rule():
    mdp = offset_chain()
    policy = PolicySpec(
        "TSW",
        {
            (0, "s0", Rat(0)): "a2",
            (1, "s1", Rat(0)): "a4",
            (1, "s1", Rat(1)): "a3",
        },
    )
    res = evaluate_policy(mdp, policy)
    assert (res.mean, res.second_moment, res.variance) == (1, 1, 0)
    assert res.terminal == {Rat(1): Rat(1)}


def test_evaluate_missing_rule_names_decision_point():
    mdp = offset_chain()
    policy = PolicySpec("TSW", {(0, "s0", Rat(0)): "a2"})
    with pytest.raises(PolicyCoverageError) as err:
        evaluate_policy(mdp, policy)
    assert "s1" in str(err.value)


def test_check_policy_reports_bad_distribution():
    mdp = one_shot_two_arms()
    bad = PolicySpec("TS_U", {(0, "s0"): {"a": rat(1, 2), "b": rat(1, 3)}})
    assert any("sum to" in v.message for v in check_policy(mdp, bad))
    unknown = PolicySpec("TS", {(0, "s0"): "c"})
    assert any("unknown action" in v.message for v in check_policy(mdp, unknown))


def _random_mdp(rng: random.Random):
    n_states = rng.randint(1, 3)
    states = [f"s{i}" for i in range(n_states)]
    horizon = rng.randint(1, 3)
    actions = {s: [f"a{j}" for j in range(rng.randint(1, 2))] for s in states}
    transitions = {}
    rewards = {}
    for t in range(horizon):
        for s in states:
            for a in actions[s]:
                support = rng.sample(states, rng.randint(1, n_states))
                weights = [rng.randint(1, 3) for _ in support]
                total = sum(weights)
                transitions[(t, s, a)] = {
                    s2: rat(wt, total) for s2, wt in zip(support, weights)
                }
                values = rng.sample(range(-2, 3), rng.randint(1, 2))
                rweights = [rng.randint(1, 3) for _ in values]
                rtotal = sum(rweights)
                rewards[(t, s, a)] = {
                    rat(v): rat(wt, rtotal) for v, wt in zip(values, rweights)
                }
    return make_mdp(horizon, states, states[0], actions, transitions, rewards)


def _random_tsw_u_policy(rng: random.Random, mdp, aug):
    rule = {}
    for t in range(mdp.horizon):
        for s, w in aug.layers[t]:
            acts = mdp.actions[s]
            weights = [rng.randint(0, 3) for _ in acts]
            if sum(weights) == 0:
                weights[0] = 1
            total = sum(weights)
            rule[(t, s, w)] = {a: rat(wt, total) for a, wt in zip(acts, weights)}
    return PolicySpec("TSW_U", rule)


def test_moment_identities_on_random_instances():
    rng = random.Random(2101)
    for _ in range(40):
        mdp = _random_mdp(rng)
        assert validate(mdp) == []
        aug = augment(mdp)
        policy = _random_tsw_u_policy(rng, mdp, aug)
        res = evaluate_policy(mdp, policy)
        assert res.variance == res.second_moment - res.mean * res.mean
        assert res.variance >= 0
        assert abs(res.mean) <= mdp.mean_bound
        assert res.second_moment <= mdp.mean_bound * mdp.mean_bound
        assert sum(res.terminal.values()) == 1


def test_behavioral_policy_equals_mixture_of_deterministic_ones():
    # A randomized reward-aware rule induces the same terminal law as mixing
    # the deterministic rules obtained by fixing each decision independently.
    import itertools

    rng = random.Random(7)
    mdp = offset_chain()
    aug = augment(mdp)
    policy = _random_tsw_u_policy(rng, mdp, aug)
    points = sorted(policy.rule)
    assert len(points) <= 8
    mixed: dict = {}
    for choice in itertools.product(*(mdp.actions[p[1]] for p in points)):
        weight = Rat(1)
        for point, a in zip(points, choice):
            weight *= policy.rule[point].get(a, Rat(0))
        if weight == 0:
            continue
        det = PolicySpec("TSW", dict(zip(points, choice)))
        res = evaluate_policy(mdp, det)
        for w, m in res.terminal.items():
            mixed[w] = mixed.get(w, Rat(0)) + weight * m
    direct = evaluate_policy(mdp, policy).terminal
    assert {w: m for w, m in mixed.items() if m != 0} == direct


def _kernel_mdp():
    return make_mdp(
        horizon=1,
        states=["s", "x", "y"],
        initial_state="s",
        actions={"s": ["a"], "x": ["stay"], "y": ["stay"]},
        transitions={
            ("s", "a"): {"x": rat(1, 3), "y": 0, "s": rat(2, 3)},
            ("x", "stay"): {"x": 1},
            ("y", "stay"): {"y": 1},
        },
        rewards={
            ("s", "a"): {5: 0, 1: rat(1, 4), -2: rat(3, 4)},
            ("x", "stay"): {0: 1},
            ("y", "stay"): {0: 1},
        },
    )


def _rational_branches(mdp, t, s, a) -> tuple:
    """int_branches(t, s, a) with the integer reward dropped: (next_state,
    reward, p * g) per branch."""
    return tuple((s2, r, pg) for s2, _, r, pg in mdp.int_branches(t, s, a))


def test_branches_skip_zero_mass_and_multiply():
    mdp = _kernel_mdp()
    assert _rational_branches(mdp, 0, "s", "a") == (
        ("x", 1, rat(1, 12)),
        ("x", -2, rat(1, 4)),
        ("s", 1, rat(1, 6)),
        ("s", -2, rat(1, 2)),
    )
    assert mdp.int_branches(0, "s", "a") is mdp.int_branches(0, "s", "a")
    assert _rational_branches(mdp, 0, "y", "stay") == (("y", 0, 1),)


def test_branches_cache_is_per_instance():
    mdp = _kernel_mdp()
    mdp.int_branches(0, "s", "a")
    rewards = dict(mdp.rewards)
    rewards[(0, "s", "a")] = {7: 1}
    other = mdp.with_rewards(rewards)
    assert _rational_branches(other, 0, "s", "a") == (
        ("x", 7, rat(1, 3)),
        ("s", 7, rat(2, 3)),
    )


def _half_reward_mdp(reward):
    return make_mdp(
        horizon=1,
        states=["s"],
        initial_state="s",
        actions={"s": ["a"]},
        transitions={("s", "a"): {"s": 1}},
        rewards={("s", "a"): {reward: 1}},
    )


def test_with_rewards_starts_with_fresh_caches():
    # A copy of the instance would carry reward_den 2 and the reward-1/2
    # branches over to the reward-1/3 MDP.
    mdp = _half_reward_mdp(rat(1, 2))
    assert mdp.reward_den == 2
    assert _rational_branches(mdp, 0, "s", "a") == (("s", rat(1, 2), 1),)
    assert mdp.int_branches(0, "s", "a") == (("s", 1, rat(1, 2), 1),)
    other = mdp.with_rewards({(0, "s", "a"): {rat(1, 3): rat(1)}})
    assert other.reward_den == 3
    assert _rational_branches(other, 0, "s", "a") == (("s", rat(1, 3), 1),)
    assert other.int_branches(0, "s", "a") == (("s", 1, rat(1, 3), 1),)
    assert other == _half_reward_mdp(rat(1, 3))
    # The original keeps its own rewards and caches.
    assert mdp.reward_den == 2
    assert mdp.int_branches(0, "s", "a") == (("s", 1, rat(1, 2), 1),)


def test_mdp_equality_ignores_filled_caches():
    filled, empty = _kernel_mdp(), _kernel_mdp()
    filled.int_branches(0, "s", "a")
    assert filled.reward_den == 1
    assert filled == empty and empty == filled
    sevens = {**filled.rewards, (0, "s", "a"): {rat(7): rat(1)}}
    assert filled != filled.with_rewards(sevens)
    assert filled != "an mdp"


@pytest.mark.parametrize("table", ["transitions", "rewards"])
@pytest.mark.parametrize("stationary_first", [True, False])
def test_make_mdp_rejects_stationary_and_per_step_overlap(table, stationary_first):
    dynamics = {
        "transitions": {("s", "a"): {"s": 1}},
        "rewards": {("s", "a"): {0: 1}},
    }
    row = {"s": 1} if table == "transitions" else {5: 1}
    entries = [(("s", "a"), dynamics[table][("s", "a")]), ((1, "s", "a"), row)]
    if not stationary_first:
        entries.reverse()
    dynamics[table] = dict(entries)
    with pytest.raises(ValueError, match="overlap"):
        make_mdp(
            horizon=2,
            states=["s"],
            initial_state="s",
            actions={"s": ["a"]},
            **dynamics,
        )


def test_make_mdp_shares_one_row_across_stationary_steps():
    mdp = make_mdp(
        horizon=4,
        states=["s"],
        initial_state="s",
        actions={"s": ["a", "b"]},
        transitions={
            ("s", "a"): {"s": 1},
            **{(t, "s", "b"): {"s": 1} for t in range(4)},
        },
        rewards={
            ("s", "a"): {0: 1},
            **{(t, "s", "b"): {1: 1} for t in range(4)},
        },
    )
    for table in (mdp.transitions, mdp.rewards):
        assert table[(0, "s", "a")] is table[(3, "s", "a")]
        assert table[(0, "s", "b")] is not table[(3, "s", "b")]
        assert table[(0, "s", "b")] == table[(3, "s", "b")]


def test_make_mdp_refuses_oversized_dynamics_before_expanding(monkeypatch):
    # Two rows (a transition row and a reward pmf) per step and (state,
    # action) pair, declared or keyed by a stationary entry, against the
    # node cap read at call time.
    monkeypatch.setattr(model, "DEFAULT_NODE_CAP", 16)

    def build(horizon, extra=()):
        table = {("s", a): {"s": 1} for a in ("a", "b", *extra)}
        rewards = {key: {0: 1} for key in table}
        return make_mdp(horizon, ["s"], "s", {"s": ["a", "b"]}, table, rewards)

    assert len(build(4).transitions) == 8
    with pytest.raises(ValueError, match="18 dynamics rows, above the cap 16"):
        build(3, extra=("ghost",))
    with pytest.raises(ValueError, match="20 dynamics rows, above the cap 16"):
        build(5)


def test_make_mdp_refuses_a_horizon_at_the_node_cap(monkeypatch):
    # Without actions there is no row for the row check to count, yet
    # validate would loop over every step.
    with pytest.raises(
        ValueError, match="horizon 10000000 is not below the node cap 1000000"
    ):
        make_mdp(10**7, ("s",), "s", {"s": ()}, {}, {})
    monkeypatch.setattr(model, "DEFAULT_NODE_CAP", 5)
    with pytest.raises(ValueError, match="horizon 5 is not below the node cap 5"):
        make_mdp(5, ("s",), "s", {"s": ()}, {}, {})
    assert make_mdp(4, ("s",), "s", {"s": ()}, {}, {}).horizon == 4


def test_make_mdp_refuses_a_bad_dynamics_key():
    with pytest.raises(ValueError, match=r"bad dynamics key \('s',\)"):
        make_mdp(1, ["s"], "s", {"s": ["a"]}, {("s",): {"s": 1}}, {})


def test_policy_spec_refuses_an_unknown_class():
    with pytest.raises(ValueError, match="unknown policy class 'TSX'"):
        PolicySpec("TSX", {})


def test_check_policy_reports_randomized_unknown_and_negative_entries():
    policy = PolicySpec("TS_U", {(0, "s0"): {"a": rat(3, 2), "c": rat(-1, 2)}})
    assert [str(v) for v in check_policy(one_shot_two_arms(), policy)] == [
        "[0, s0] unknown action 'c'",
        "[0, s0] negative action probability -1/2",
    ]


@pytest.mark.parametrize("use", [evaluate_policy, check_policy])
@pytest.mark.parametrize("probs", [(0.3, 0.7), (True, 0)], ids=["float", "bool"])
def test_policy_probabilities_refuse_floats_and_bools(use, probs):
    # At 0.3/0.7 the mean would be the float 0.7 and the variance
    # 0.9099999999999999, and check_policy would pass the policy.
    rule = {(0, "s0"): dict(zip("ab", probs))}
    with pytest.raises(TypeError, match="exact rational"):
        use(one_shot_two_arms(), PolicySpec("TS_U", rule))


def test_policy_probabilities_enter_as_exact_rationals():
    mdp = one_shot_two_arms()
    policy = PolicySpec("TS_U", {(0, "s0"): {"a": "3/10", "b": [7, 10]}})
    assert all(type(p) is Rat for p in policy.rule[(0, "s0")].values())
    assert check_policy(mdp, policy) == []
    res = evaluate_policy(mdp, policy)
    assert (res.mean, res.variance) == (rat(7, 10), rat(91, 100))


@pytest.mark.parametrize(
    "horizon, step",
    [(1, 0.5), (1, True), (True, 0), (1.0, 0)],
    ids=["step-float", "step-bool", "horizon-bool", "horizon-float"],
)
def test_make_mdp_refuses_non_integer_horizons_and_steps(horizon, step):
    # int() would read step 0.5 as 0 and horizon True as 1, and both MDPs
    # would validate clean.
    key = (step, "s", "a")
    with pytest.raises(ValueError, match="must be an integer"):
        make_mdp(horizon, ["s"], "s", {"s": ["a"]}, {key: {"s": 1}}, {key: {0: 1}})
