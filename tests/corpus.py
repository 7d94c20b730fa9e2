"""Seeded instance samplers shared by the acceptance tests, the small
random MDPs of the engine tests (`random_mdp`), the per-node reference for
the zero-variance game, the per-node moment recursion that checks the
pruned `compute_pmq` (`per_node_pmq`), the rational forward walk that checks
`evaluate_policy` (`rational_evaluation`), the policy-by-policy reference
for the TS, TSW and TS_U searches (`decision_choices`), and MDP JSON texts
that repeat a name (`REPEATED_NAMES`).

Every sampler is deterministic for a given seed, so the acceptance run is
reproducible. Rejection rules keep the instances at desk scale: the integer
family caps the augmented node count and the reward-aware policy count so
exhaustive enumeration stays cheap; the rational family redraws until the
reward bound is at least 1 so flooring steps are small against it; the deep
family keeps only instances whose exact moment polygon has at least 20
vertices, the regime the pruning guarantee is about.
"""

import random
from itertools import combinations, product

from mvmdp.errors import AugmentationLimitError
from mvmdp.geometry import MomentPolygon, hull_of_union, prune_polygon, sheared_sum
from mvmdp.model import (
    Mdp,
    PolicySpec,
    augment,
    evaluate_policy,
    make_mdp,
    per_node,
    reach,
)
from mvmdp.rationals import Rat, ZERO, rat
from mvmdp.setdp import check_stage_size, compute_pmq

SEED = 20260822

_DENOMINATORS = (2, 3, 4, 6, 12)


def _draw(rng, max_states, max_actions, horizon_range, reward_values,
          support_sizes):
    horizon = rng.randrange(horizon_range[0], horizon_range[1] + 1)
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
                size = min(rng.choice(support_sizes), len(reward_values))
                values = rng.sample(reward_values, size)
                weights = [rng.randrange(1, 4) for _ in values]
                total = sum(weights)
                rewards[(t, s, a)] = {
                    Rat(v): Rat(wt, total) for v, wt in zip(values, weights)
                }
    return make_mdp(
        horizon=horizon,
        states=states,
        initial_state="s0",
        actions=actions,
        transitions=transitions,
        rewards=rewards,
    )


def random_mdp(rng, max_states=2, max_actions=2, max_horizon=3, spread=2):
    """Horizon, states and actions drawn up to the given bounds; each
    (t, s, a) moves to a random subset of the states and draws one or two
    integer rewards in [-spread, spread], with random small-integer
    weights."""
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
                values = rng.sample(
                    range(-spread, spread + 1), rng.randrange(1, 3)
                )
                weights = [rng.randrange(1, 4) for _ in values]
                total = sum(weights)
                rewards[(t, s, a)] = {
                    Rat(v): Rat(wt, total) for v, wt in zip(values, weights)
                }
    return make_mdp(
        horizon=horizon,
        states=states,
        initial_state=states[0],
        actions=actions,
        transitions=transitions,
        rewards=rewards,
    )


def _tsw_policy_count(mdp: Mdp, aug) -> int:
    count = 1
    for t in range(mdp.horizon):
        for s, _ in aug.layer(t):
            count *= len(mdp.actions[s])
            if count > 10**9:
                return count
    return count


def integer_instances(count: int = 200, seed: int = SEED) -> list:
    """Integer rewards in {-2..2}, |S| <= 3, |A| <= 2, T <= 3.

    Rejected if the augmented space needs more than 150 nodes or the
    reward-aware deterministic class has more than 1024 policies.
    """
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        mdp = _draw(rng, 3, 2, (1, 3), range(-2, 3), (1, 2, 3))
        try:
            aug = augment(mdp, max_nodes=150)
        except AugmentationLimitError:
            continue
        if _tsw_policy_count(mdp, aug) > 1024:
            continue
        out.append(mdp)
    return out


def rational_instances(count: int = 20, seed: int = SEED) -> list:
    """Rewards in [-2, 2] with denominators <= 12 and reward bound >= 1."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        den = rng.choice(_DENOMINATORS)
        scaled = [v for v in range(-2 * den, 2 * den + 1)]
        mdp = _draw(rng, 2, 2, (1, 3), scaled, (1, 2))
        mdp = _rescale_rewards(mdp, Rat(1, den))
        if mdp.reward_bound < 1:
            continue
        try:
            augment(mdp, max_nodes=200)
        except AugmentationLimitError:
            continue
        out.append(mdp)
    return out


def _rescale_rewards(mdp: Mdp, factor: Rat) -> Mdp:
    rewards = {
        key: {value * factor: mass for value, mass in pmf.items()}
        for key, pmf in mdp.rewards.items()
    }
    return mdp.with_rewards(rewards)


def deep_instances(count: int = 10, seed: int = SEED) -> list:
    """(mdp, exact polygon) pairs with T = 5, rewards in {-3..3}, and an
    exact moment polygon of at least 20 vertices."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        mdp = _draw(rng, 3, 2, (5, 5), range(-3, 4), (2, 3))
        polygon = compute_pmq(mdp)
        if len(polygon.vertices) >= 20:
            out.append((mdp, polygon))
    return out


def mixed_frame_mdp(horizon: int) -> Mdp:
    """Two states whose positive-probability rewards mix denominators and
    signs (1/2, -1/3, 2/7 and 3, so a reward denominator of 42), with a
    zero-probability reward 5/11 that must not enter that denominator."""
    half, third, sevenths = Rat(1, 2), Rat(-1, 3), Rat(2, 7)
    return make_mdp(
        horizon=horizon,
        states=("s0", "s1"),
        initial_state="s0",
        actions={"s0": ("a", "b"), "s1": ("a", "b")},
        transitions={
            ("s0", "a"): {"s0": Rat(1, 2), "s1": Rat(1, 2)},
            ("s0", "b"): {"s1": 1},
            ("s1", "a"): {"s0": Rat(1, 3), "s1": Rat(2, 3)},
            ("s1", "b"): {"s1": 1},
        },
        rewards={
            ("s0", "a"): {half: Rat(1, 3), third: Rat(2, 3), Rat(5, 11): 0},
            ("s0", "b"): {sevenths: 1},
            ("s1", "a"): {3: Rat(1, 2), third: Rat(1, 2)},
            ("s1", "b"): {half: Rat(1, 4), sevenths: Rat(3, 4)},
        },
    )


def subset_sum_vectors(count: int = 30, seed: int = SEED) -> list:
    """Positive integer vectors, n <= 12, entries <= 20.

    Every other vector is a doubled multiset, which always admits a balancing
    partition, so both answers stay well represented.
    """
    rng = random.Random(seed)
    out = []
    for k in range(count):
        if k % 2 == 0:
            half = [rng.randrange(1, 21) for _ in range(rng.randrange(1, 7))]
            out.append(half + half)
        else:
            out.append(
                [rng.randrange(1, 21) for _ in range(rng.randrange(1, 13))]
            )
    return out


def has_balancing_partition(values) -> bool:
    """Independent check: some subset holds exactly half the total."""
    total = sum(values)
    if total % 2:
        return False
    target = total // 2
    return any(
        sum(combo) == target
        for r in range(len(values) + 1)
        for combo in combinations(values, r)
    )


def rational_evaluation(mdp, policy) -> tuple:
    """(terminal, mean, second moment, variance) of a policy from a forward
    walk that sums cumulative rewards as Rats, over branches built here
    from the transition rows and reward pmfs: a reference for
    `evaluate_policy`, which walks `reach`'s integers."""
    dist = {(mdp.initial_state, ZERO): Rat(1)}
    for t in range(mdp.horizon):
        nxt = {}
        for (s, w), mass in dist.items():
            for a, pa in policy.action_pmf(t, s, w).items():
                if pa == 0:
                    continue
                key = (t, s, a)
                for s2, p in mdp.transitions[key].items():
                    for r, g in mdp.rewards[key].items():
                        if p > 0 and g > 0:
                            node = (s2, w + r)
                            nxt[node] = nxt.get(node, ZERO) + mass * pa * p * g
        dist = nxt
    terminal = {}
    for (_, w), mass in dist.items():
        terminal[w] = terminal.get(w, ZERO) + mass
    mean = sum((w * m for w, m in terminal.items()), ZERO)
    second = sum((w * w * m for w, m in terminal.items()), ZERO)
    return terminal, mean, second, second - mean * mean


# A valid MDP JSON text, and three edits of it that each repeat one name in
# one object, where json.loads alone would keep the last value.
VALID_DOCUMENT = (
    '{"horizon": 1, "states": ["s"], "initial_state": "s", '
    '"actions": {"s": ["a", "b"]}, '
    '"transitions": [{"s": "s", "a": "a", "rows": {"s": [1, 1]}}, '
    '{"s": "s", "a": "b", "rows": {"s": [1, 1]}}], '
    '"rewards": [{"s": "s", "a": "a", "pmf": [[[1, 1], [1, 1]]]}, '
    '{"s": "s", "a": "b", "pmf": [[[0, 1], [1, 1]]]}]}'
)
REPEATED_NAMES = {
    "top level": (
        "horizon",
        VALID_DOCUMENT.replace('"horizon": 1,', '"horizon": 1, "horizon": 2,'),
    ),
    "actions": (
        "s",
        VALID_DOCUMENT.replace('{"s": ["a", "b"]}', '{"s": ["b"], "s": ["a", "b"]}'),
    ),
    "rows": (
        "s",
        VALID_DOCUMENT.replace('{"s": [1, 1]}', '{"s": [1, 2], "s": [1, 1]}', 1),
    ),
}


def per_node_game(mdp) -> tuple:
    """The zero-variance game on augmented nodes, as (win, root, policies).

    win[t] maps each node (s, w) to the set of terminal values forcible
    from it; root is that set at the initial node, and the forcing policy
    at k takes, at each reached node, the first action all of whose
    children keep k.
    """
    aug = augment(mdp)
    win = [None] * (mdp.horizon + 1)
    win[mdp.horizon] = {(s, w): {w} for s, w in aug.layer(mdp.horizon)}
    for t in reversed(range(mdp.horizon)):
        win[t] = {}
        for s, w in aug.layer(t):
            forcible = set()
            for a in mdp.actions[s]:
                children = [
                    win[t + 1][(s2, w + r)]
                    for s2, _, r, _ in mdp.int_branches(t, s, a)
                ]
                forcible |= set.intersection(*children)
            win[t][(s, w)] = forcible
    root = win[0][(mdp.initial_state, ZERO)]
    policies = {}
    for k in sorted(root):
        rule = {}
        frontier = {(mdp.initial_state, ZERO)}
        for t in range(mdp.horizon):
            nxt = set()
            for s, w in sorted(frontier):
                a = next(
                    a for a in mdp.actions[s]
                    if all(k in win[t + 1][(s2, w + r)]
                           for s2, _, r, _ in mdp.int_branches(t, s, a))
                )
                rule[(t, s, w)] = a
                nxt.update(
                    (s2, w + r) for s2, _, r, _ in mdp.int_branches(t, s, a)
                )
            frontier = nxt
        policies[k] = PolicySpec("TSW", rule)
    return win, root, policies


def per_node_layers(mdp, prune_eps=None) -> list:
    """The stage layers of the recursion over augmented nodes, the
    horizon's first, one absolute polygon per node (s, W), W an integer
    over the reward denominator: the horizon's nodes are their sure
    points, and node (s, W)'s polygon is the hull over actions of the
    pg-weighted sums of its children (s', W + R)'s polygons. With
    prune_eps, every stage-t node polygon (t < horizon) is pruned to
    (prune_eps / (2 * horizon))^2 right after its stage, and a stage over
    `setdp.MAX_STAGE_SIZE` vertices before pruning raises
    AugmentationLimitError, as in `compute_pmq`.
    """
    threshold_sq = None
    if prune_eps is not None:
        per_stage = rat(prune_eps) / (2 * max(mdp.horizon, 1))
        threshold_sq = per_stage * per_stage
    stages = reach(mdp, per_node)
    den = mdp.reward_den
    layer = {key: MomentPolygon.sure(key[1], den) for key in stages[-1]}
    layers = [layer]
    for t in reversed(range(mdp.horizon)):
        out = {}
        for s, w in stages[t]:
            out[(s, w)] = hull_of_union([
                sheared_sum([
                    (layer[(s2, w + step)], pg, ZERO)
                    for s2, step, _, pg in mdp.int_branches(t, s, a)
                ])
                for a in mdp.actions[s]
            ])
        vertices = sum(len(poly.points) for poly in out.values())
        check_stage_size(t, vertices, "moment polygons", "vertices")
        if threshold_sq is not None:
            out = {key: prune_polygon(poly, threshold_sq)
                   for key, poly in out.items()}
        layer = out
        layers.append(layer)
    return layers


def per_node_pmq(mdp, prune_eps=None) -> MomentPolygon:
    """The root moment polygon of per_node_layers."""
    return per_node_layers(mdp, prune_eps)[-1][(mdp.initial_state, 0)]


def simplex_grid(k: int, m: int):
    """Every k-vector of nonnegative integers summing to m, lexicographically,
    by recursion on the first entry."""
    if k == 1:
        yield (m,)
        return
    for first in range(m + 1):
        for rest in simplex_grid(k - 1, m - first):
            yield (first,) + rest


def decision_choices(mdp, class_tag: str, resolution: int = 1) -> tuple:
    """(points, choices) of the TS, TSW or TS_U search, read off `augment`:
    the points are (t, state) for TS and TS_U and (t, state, reward) for
    TSW, each layer in state order and then reward order; a point's choices
    are its actions, or for TS_U its grid vectors with positive entries
    only."""
    layers = augment(mdp).layers[:mdp.horizon]
    if class_tag == "TSW":
        points = [(t, s, w) for t, layer in enumerate(layers) for s, w in layer]
    else:
        points = list(dict.fromkeys(
            (t, s) for t, layer in enumerate(layers) for s, _ in layer
        ))
    choices = [mdp.actions[point[1]] for point in points]
    if class_tag == "TS_U":
        choices = [
            [
                {a: Rat(c, resolution) for a, c in zip(acts, combo) if c}
                for combo in simplex_grid(len(acts), resolution)
            ]
            for acts in choices
        ]
    return points, choices


def policy_by_policy_feasibility(mdp, class_tag, lam, cap, resolution=1):
    """(feasible, witness, detail) of `class_feasibility` for TS, TSW and
    TS_U, from one `evaluate_policy` per policy in product order over
    `decision_choices`."""
    grid = class_tag == "TS_U"
    points, choices = decision_choices(mdp, class_tag, resolution)
    for combo in product(*choices):
        policy = PolicySpec(class_tag, dict(zip(points, combo)))
        ev = evaluate_policy(mdp, policy)
        if ev.mean >= lam and ev.variance <= cap:
            found = "grid" if grid else "enumerated"
            return True, policy, f"{found} witness with mean {ev.mean}"
    if grid:
        return False, None, f"no witness found at resolution {resolution}"
    return False, None, "exhaustive enumeration"
