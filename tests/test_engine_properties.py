"""Cross-engine property tests on hypothesis-drawn MDPs: the
occupation-measure LP against the moment polygon recursion, and the
per-state zero-variance game against its per-node reference.

Each MDP has at most two states, two actions per state and horizon 3. Its
rewards are integers or, in about half of the draws, halves and thirds as
well. The LP's lower hull must equal the polygon's lower chain vertex for
vertex, and the interval LP (whose mean window is an explicit slack row)
must give the frontier's least second moment on each drawn window, with an
infeasible window matching None. The DP behind every witness's vertex
policies must reach every vertex of the root polygon: for a drawn
direction strictly inside the vertex's normal cone, the deterministic
policy that minimizes E[c0 R + c1 R^2] must replay to exactly that vertex.
So any two such directions give policies that agree wherever they are
played. A witness at a drawn convex combination of three root vertices
must replay to exactly that point and satisfy every row of the occupation
polytope.

The polygon recursion is also checked against itself and against
enumeration: pruning with a zero budget runs it per augmented node and
must give the per-state root polygon, since a zero budget drops no vertex
of a strictly convex polygon; at any budget the pruned walk, which keys
states until a stage has a polygon pruning could thin and holds each
key's polygon relative to its reward, must give the root of the
recursion that keeps one absolute polygon per node
(`corpus.per_node_pmq`); and the root polygon must be the hull of the
(mean, second moment) pairs of every deterministic TSW policy. Every row
of the TS and TSW enumerations must hold its policy's own exact mean,
second moment and variance, with the policies in product order over the
decision points.

The zero-variance game keeps one forcible set per (t, state); on every
augmented node it must give the same sets and forcing policies as the
game played node by node.

`evaluate_policy` walks integer rewards over the reward denominator; for a
drawn TS, TSW, TS_U or TSW_U rule it must give the terminal law and
moments of the walk that sums rewards as Rats, and `policy_frequencies`
must put that same law on the horizon's nodes.
"""

from itertools import product

import pytest

pytest.importorskip(
    "hypothesis", reason="property tests need hypothesis (the [test] extra)"
)

from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from corpus import (  # noqa: E402
    _tsw_policy_count,
    decision_choices,
    per_node_game,
    per_node_pmq,
    rational_evaluation,
)
from mvmdp.frequency import (  # noqa: E402
    build_polytope,
    check_frequency,
    exact_pair_feasible,
    frequencies_to_policy,
    min_q_over_interval,
    policy_frequencies,
    supporting_policy,
    terminal_lower_hull,
)
from mvmdp.games import (  # noqa: E402
    _forcible_sets,
    enumerate_policies,
    zero_variance_values,
)
from mvmdp.geometry import MomentPolygon  # noqa: E402
from mvmdp.lp import LpStatus  # noqa: E402
from mvmdp.model import (  # noqa: E402
    PolicySpec,
    augment,
    evaluate_policy,
    make_mdp,
    per_node,
    reach,
)
from mvmdp.rationals import Rat  # noqa: E402
from mvmdp.setdp import compute_pmq, exact_frontier  # noqa: E402

PROPERTY = settings(
    max_examples=100, deadline=None, derandomize=True, database=None
)


@st.composite
def mdps(draw):
    horizon = draw(st.integers(1, 3))
    states = [f"s{i}" for i in range(draw(st.integers(1, 2)))]
    actions = {s: [f"a{j}" for j in range(draw(st.integers(1, 2)))] for s in states}
    denominators = draw(st.sampled_from(((1,), (1, 2, 3))))
    values = st.builds(Rat, st.integers(-3, 3), st.sampled_from(denominators))
    transitions, rewards = {}, {}
    for t in range(horizon):
        for s in states:
            for a in actions[s]:
                weights = draw(
                    st.lists(st.integers(0, 2), min_size=len(states),
                             max_size=len(states)).filter(any)
                )
                transitions[(t, s, a)] = {
                    s2: Rat(w, sum(weights)) for s2, w in zip(states, weights) if w
                }
                support = draw(st.lists(values, min_size=1, max_size=2, unique=True))
                rewards[(t, s, a)] = {v: Rat(1, len(support)) for v in support}
    return make_mdp(horizon, states, "s0", actions, transitions, rewards)


@PROPERTY
@given(mdps(), st.data())
def test_lp_engine_matches_the_polygon_engine(mdp, data):
    polygon = compute_pmq(mdp)
    assert polygon.lower_chain() == terminal_lower_hull(mdp)
    frontier = exact_frontier(polygon)
    # Windows on a grid of eighths over [lam_min - 1, lam_max + 1], so they
    # fall inside, across and outside the achievable means.
    start = frontier.lam_min - 1
    step = (frontier.lam_max - frontier.lam_min + 2) / 8
    for _ in range(3):
        lo = start + step * data.draw(st.integers(0, 8))
        hi = lo + step * data.draw(st.integers(0, 8))
        status, value = min_q_over_interval(mdp, lo, hi)
        expected = frontier.min_second_moment(lo, hi)
        if expected is None:
            assert (status, value) == (LpStatus.INFEASIBLE, None)
        else:
            assert (status, value) == (LpStatus.OPTIMAL, expected)


def _direction_at_vertex(vs, i, data):
    """A drawn direction (c0, c1) such that vs[i] alone minimizes
    c0 m + c1 q over the canonical polygon vs: a positive combination of
    the inward normals of the vertex's two edges; at a segment's end, any
    direction with a positive component towards the other end; at a point,
    any direction."""
    coefficient = st.integers(1, 9)
    if len(vs) == 1:
        return data.draw(st.integers(-9, 9)), data.draw(st.integers(-9, 9))
    if len(vs) == 2:
        (m0, q0), (m1, q1) = vs[i], vs[1 - i]
        along, across = data.draw(coefficient), data.draw(st.integers(-9, 9))
        return (along * (m1 - m0) - across * (q1 - q0),
                along * (q1 - q0) + across * (m1 - m0))

    def inward(a, b):
        return a[1] - b[1], b[0] - a[0]

    before = inward(vs[i - 1], vs[i])
    after = inward(vs[i], vs[(i + 1) % len(vs)])
    k0, k1 = data.draw(coefficient), data.draw(coefficient)
    return k0 * before[0] + k1 * after[0], k0 * before[1] + k1 * after[1]


@PROPERTY
@given(mdps(), st.data())
def test_supporting_policy_reaches_every_vertex(mdp, data):
    polygon = compute_pmq(mdp)
    layers = reach(mdp, per_node)
    vs = polygon.vertices
    for i, vertex in enumerate(vs):
        rule = supporting_policy(mdp, layers, _direction_at_vertex(vs, i, data))
        rule = {(t, s, Rat(w, mdp.reward_den)): a for (t, s, w), a in rule.items()}
        ev = evaluate_policy(mdp, PolicySpec("TSW", rule))
        assert (ev.mean, ev.second_moment) == vertex


@PROPERTY
@given(mdps(), st.data())
def test_mixture_witness_replays_at_interior_points(mdp, data):
    # Positive weights on three distinct vertices of a strictly convex
    # polygon put the target strictly inside it; a point or a segment
    # uses all its vertices.
    polygon = compute_pmq(mdp)
    vs = polygon.vertices
    k = min(3, len(vs))
    picks = [vs[i] for i in data.draw(st.lists(
        st.integers(0, len(vs) - 1), min_size=k, max_size=k, unique=True
    ))]
    weights = [data.draw(st.integers(1, 9)) for _ in picks]
    total = sum(weights)
    m = sum(w * p[0] for w, p in zip(weights, picks)) / total
    q = sum(w * p[1] for w, p in zip(weights, picks)) / total
    ok, z = exact_pair_feasible(mdp, m, q - m * m, polygon)
    assert ok
    assert check_frequency(build_polytope(mdp), z) == []
    ev = evaluate_policy(mdp, frequencies_to_policy(mdp, z))
    assert (ev.mean, ev.second_moment) == (m, q)


@PROPERTY
@given(mdps())
def test_zero_budget_per_node_recursion_matches_the_per_state_one(mdp):
    assert compute_pmq(mdp, 0) == compute_pmq(mdp)


@PROPERTY
@given(mdps(), st.sampled_from((0, Rat(1, 100), Rat(1, 9), Rat(1, 2), 3)))
def test_pruned_walk_matches_the_per_node_recursion(mdp, eps):
    assert compute_pmq(mdp, eps) == per_node_pmq(mdp, eps)


@PROPERTY
@given(mdps())
def test_root_polygon_is_the_hull_of_deterministic_tsw_policies(mdp):
    assume(_tsw_policy_count(mdp, augment(mdp)) <= 2000)
    moments = [(m, q) for _, m, q, _ in enumerate_policies(mdp, "TSW")]
    assert compute_pmq(mdp) == MomentPolygon.of(moments)


@PROPERTY
@given(mdps(), st.sampled_from(("TS", "TSW")))
def test_enumerated_rows_are_their_policies_evaluations(mdp, tag):
    assume(_tsw_policy_count(mdp, augment(mdp)) <= 2000)
    points, choices = decision_choices(mdp, tag)
    rows = enumerate_policies(mdp, tag)
    assert [policy for policy, _, _, _ in rows] == [
        PolicySpec(tag, dict(zip(points, combo))) for combo in product(*choices)
    ]
    for policy, mean, second, variance in rows:
        ev = evaluate_policy(mdp, policy)
        assert (mean, second, variance) == (ev.mean, ev.second_moment, ev.variance)


@PROPERTY
@given(mdps())
def test_per_state_game_matches_the_per_node_game(mdp):
    # Every reached node (t, s, w) can force exactly w + G(t, s), G(t, s)
    # holding integers over D, and the forcing policies are the
    # reference's, rule for rule.
    win, root, policies = per_node_game(mdp)
    forcible = _forcible_sets(mdp)
    den = mdp.reward_den
    for t, layer in enumerate(win):
        for (s, w), values in layer.items():
            assert values == {w + Rat(v, den) for v in forcible[t][s]}
    result = zero_variance_values(mdp)
    assert result.achievable_values == root
    assert result.winning_policy == policies


@st.composite
def covering_policies(draw, mdp):
    """A rule of a drawn class at every reachable decision point: an action,
    or for TS_U and TSW_U integer weights over the actions, some of them
    zero."""
    tag = draw(st.sampled_from(("TS", "TSW", "TS_U", "TSW_U")))
    points, choices = decision_choices(mdp, tag.removesuffix("_U"))
    rule = {}
    for point, acts in zip(points, choices):
        if tag.endswith("_U"):
            weights = draw(st.lists(
                st.integers(0, 3), min_size=len(acts), max_size=len(acts)
            ).filter(any))
            rule[point] = {a: Rat(c, sum(weights)) for a, c in zip(acts, weights)}
        else:
            rule[point] = draw(st.sampled_from(acts))
    return PolicySpec(tag, rule)


@PROPERTY
@given(mdps(), st.data())
def test_evaluate_policy_matches_the_rational_walk(mdp, data):
    policy = data.draw(covering_policies(mdp))
    terminal, mean, second, variance = rational_evaluation(mdp, policy)
    ev = evaluate_policy(mdp, policy)
    assert ev.terminal == terminal
    assert (ev.mean, ev.second_moment, ev.variance) == (mean, second, variance)
    z = policy_frequencies(mdp, policy)
    marginal = {}
    for (t, _, w), mass in z.z_x.items():
        if t == mdp.horizon:
            marginal[w] = marginal.get(w, 0) + mass
    assert marginal == terminal
