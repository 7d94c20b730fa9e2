import itertools
import json
import random
import sys

import pytest

from corpus import (
    deep_instances,
    integer_instances,
    mixed_frame_mdp,
    random_mdp,
    rational_instances,
)
from mvmdp import frequency, geometry, lp, model
from mvmdp.cli import run
from mvmdp.errors import EngineDisagreementError, PolicyCoverageError
from mvmdp.fixtures import (
    all_zero,
    forked_path,
    offset_chain,
    one_shot_two_arms,
    two_point_stage,
)
from mvmdp.frequency import (
    build_polytope,
    check_frequency,
    exact_pair_feasible,
    frequencies_to_policy,
    mean_fixed_var_bounded,
    min_q_over_interval,
    policy_frequencies,
    terminal_lower_hull,
)
from mvmdp.lp import LpSolution, LpStatus, solve
from mvmdp.model import PolicySpec, augment, evaluate_policy, make_mdp
from mvmdp.rationals import Rat
from mvmdp.serialize import dumps
from mvmdp.setdp import (
    backward_walk,
    ExactFrontier,
    compute_pmq,
    exact_frontier,
    max_variance,
    min_variance,
)


def test_skeleton_counts_one_stage():
    mdp = two_point_stage()
    sk = build_polytope(mdp)
    # 2 action vars, 3 marginal vars; 1 mass + 1 coupling + 2 flow rows.
    assert len(sk.sa_keys) == 2
    assert len(sk.x_keys) == 3
    assert len(sk.rows) == 4


def test_skeleton_keys_are_the_augmented_nodes_in_their_order():
    # The skeleton keys its variables on reach's integer rewards; mapped
    # through W / D they are augment's nodes in augment's order, so every
    # LP over the skeleton keeps its columns and pivot path.
    mdps = rational_instances() + [mixed_frame_mdp(3)]
    assert mdps[-1].reward_den == 42
    for mdp in mdps:
        sk = build_polytope(mdp)
        den = mdp.reward_den
        layers = augment(mdp).layers
        assert all(type(w) is int for _, _, w in sk.x_keys)
        assert [(t, s, Rat(w, den)) for t, s, w in sk.x_keys] == [
            (t, s, w) for t, layer in enumerate(layers) for s, w in layer
        ]
        assert [(t, s, Rat(w, den), a) for t, s, w, a in sk.sa_keys] == [
            (t, s, w, a)
            for t, layer in enumerate(layers[:mdp.horizon])
            for s, w in layer
            for a in mdp.actions[s]
        ]


def test_check_frequency_reports_entries_outside_the_polytope():
    mdp = one_shot_two_arms()
    sk = build_polytope(mdp)
    z = policy_frequencies(mdp, PolicySpec("TS", {(0, "s0"): "b"}))
    assert check_frequency(sk, z) == []
    # Zero-valued entries off the variables are zeros, and still pass:
    # an unreachable node and an action s0 does not have.
    z.z_x[(1, "s0", 0)] = 0
    z.z_sa[(0, "s0", 0, "bogus")] = Rat(0)
    assert check_frequency(sk, z) == []
    # Nonzero ones are problems: an unreachable node, an unknown action at
    # an unreachable reward, and a reward off the 1/D grid (D = 1 here).
    strays = [
        ((0, "s0", 99, "bogus"), -3),
        ((1, "s0", 12345), 7),
        ((1, "end", Rat(1, 2)), Rat(1, 5)),
    ]
    z.z_x[(1, "s0", 12345)] = 7
    z.z_sa[(0, "s0", 99, "bogus")] = -3
    z.z_x[(1, "end", Rat(1, 2))] = Rat(1, 5)
    problems = check_frequency(sk, z)
    assert [p for p in problems if "not a variable" in p] == [
        f"entry {key} = {value} is not a variable" for key, value in strays
    ]


def test_check_frequency_reports_negative_entries_and_residuals():
    mdp = one_shot_two_arms()
    sk = build_polytope(mdp)
    z = policy_frequencies(mdp, PolicySpec("TS", {(0, "s0"): "b"}))
    # Arm a at -1 and b at 2 still sum to the root's mass of 1, but send
    # 0 and 1 to the two terminal nodes, which hold 1/2 each.
    z.z_sa[(0, "s0", Rat(0), "a")] = Rat(-1)
    z.z_sa[(0, "s0", Rat(0), "b")] = Rat(2)
    assert check_frequency(sk, z) == [
        "negative entry", "row 2 residual 1/2", "row 3 residual -1/2",
    ]


def test_no_engine_calls_augment(monkeypatch, capsys, tmp_path):
    # The answers and output the same calls gave while the witnesses, the
    # skeleton and augment-stats still walked augment's layers.
    def refused(*args, **kwargs):
        raise AssertionError("augment called")

    mdp = mixed_frame_mdp(2)
    path = tmp_path / "mixed.json"
    path.write_text(dumps(mdp))
    # In mvmdp.model and in every loaded mvmdp module that imported it.
    real = model.augment
    for name, module in list(sys.modules.items()):
        if name.startswith("mvmdp") and getattr(module, "augment", None) is real:
            monkeypatch.setattr(module, "augment", refused)
    mean = Rat(689, 2268)
    variance = Rat(1004231, 5143824)
    ok, z = exact_pair_feasible(mdp, mean, variance)
    assert ok and (len(z.z_x), len(z.z_sa)) == (15, 8)
    ev = evaluate_policy(mdp, frequencies_to_policy(mdp, z))
    assert (ev.mean, ev.variance) == (mean, variance)
    ok, z = mean_fixed_var_bounded(mdp, mean, 1)
    assert ok
    assert z.terminal_second_moment(mdp.horizon) == Rat(3585784, 15300495)
    assert terminal_lower_hull(mdp) == [
        (Rat(29, 336), Rat(35843, 127008)),
        (Rat(605, 3024), Rat(23003, 127008)),
        (Rat(5, 8), Rat(313, 784)),
        (Rat(34, 21), Rat(2381, 441)),
    ]
    assert min_q_over_interval(mdp, Rat(1, 2), 1) == (
        LpStatus.OPTIMAL, Rat(506347, 1511160)
    )
    assert run(["augment-stats", str(path)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert (out["node_count"], out["layer_sizes"]) == (22, [1, 5, 16])


def test_all_zero_polytope_is_a_point():
    mdp = all_zero(horizon=2)
    sk = build_polytope(mdp)
    sol = sk.run()
    assert sol.status is LpStatus.OPTIMAL
    z = sk.solution_vector(sol)
    assert all(v == 1 for v in z.z_sa.values())
    assert all(v == 1 for v in z.z_x.values())
    assert check_frequency(sk, z) == []


def test_layer_masses_sum_to_one():
    mdp = forked_path(Rat(1, 3))
    sk = build_polytope(mdp)
    sol = sk.run(objective=sk.sm_coeffs)
    z = sk.solution_vector(sol)
    for t in range(mdp.horizon + 1):
        mass = sum(m for (tt, _, _), m in z.z_x.items() if tt == t)
        assert mass == 1


def test_exact_pair_examples():
    mdp = one_shot_two_arms()
    assert exact_pair_feasible(mdp, 0, 0)[0]
    assert exact_pair_feasible(mdp, 1, 1)[0]
    assert exact_pair_feasible(mdp, Rat(1, 2), Rat(3, 4))[0]
    assert not exact_pair_feasible(mdp, 1, 0)[0]
    assert not exact_pair_feasible(mdp, 2, 0)[0]


def test_exact_pair_witness_round_trip():
    mdp = one_shot_two_arms()
    ok, z = exact_pair_feasible(mdp, Rat(1, 2), Rat(3, 4))
    assert ok
    sk = build_polytope(mdp)
    assert check_frequency(sk, z) == []
    assert z.terminal_mean(mdp.horizon) == Rat(1, 2)
    assert z.terminal_second_moment(mdp.horizon) == Rat(3, 4) + Rat(1, 4)
    policy = frequencies_to_policy(mdp, z)
    ev = evaluate_policy(mdp, policy)
    assert ev.mean == Rat(1, 2)
    assert ev.variance == Rat(3, 4)


def test_exact_zero_variance_pair_on_offset_chain():
    ok, z = exact_pair_feasible(offset_chain(), 1, 0)
    assert ok
    policy = frequencies_to_policy(offset_chain(), z)
    ev = evaluate_policy(offset_chain(), policy)
    assert (ev.mean, ev.variance) == (1, 0)
    assert ev.terminal == {1: 1}


def test_mean_fixed_var_bounded_examples():
    mdp = one_shot_two_arms()
    ok, z = mean_fixed_var_bounded(mdp, Rat(1, 4), Rat(1, 2))
    assert ok
    ev = evaluate_policy(mdp, frequencies_to_policy(mdp, z))
    assert ev.mean == Rat(1, 4)
    assert ev.variance <= Rat(1, 2)
    assert not mean_fixed_var_bounded(mdp, Rat(1, 4), Rat(1, 4))[0]
    # Mean beyond the reward budget: reward_bound * horizon is 2 here.
    assert not mean_fixed_var_bounded(mdp, 3, 100)[0]


def test_min_q_over_interval_examples():
    mdp = one_shot_two_arms()
    assert min_q_over_interval(mdp, 0, 1) == (LpStatus.OPTIMAL, 0)
    assert min_q_over_interval(mdp, Rat(1, 2), 1) == (LpStatus.OPTIMAL, 1)
    assert min_q_over_interval(mdp, 1, 1) == (LpStatus.OPTIMAL, 2)
    status, value = min_q_over_interval(mdp, 2, 3)
    assert status is LpStatus.INFEASIBLE
    assert value is None
    with pytest.raises(ValueError):
        min_q_over_interval(mdp, 1, 0)


def test_warm_start_agrees_with_cold_solve():
    mdp = offset_chain()
    sk = build_polytope(mdp)
    warm = sk.run(objective=sk.sm_coeffs)
    cold = solve(sk.problem(objective=sk.sm_coeffs))
    assert warm.status is cold.status is LpStatus.OPTIMAL
    assert warm.value == cold.value == 0


def test_hull_one_shot():
    assert terminal_lower_hull(one_shot_two_arms()) == [(0, 0), (1, 2)]


def test_hull_offset_chain():
    # Deterministic reward-aware policies reach (0,0), (1/2,1/2), (1,1),
    # (1,2), (3/2,5/2); only three survive as lower-boundary corners.
    hull = terminal_lower_hull(offset_chain())
    assert hull == [(0, 0), (1, 1), (Rat(3, 2), Rat(5, 2))]


def test_hull_single_point():
    assert terminal_lower_hull(all_zero(horizon=3)) == [(0, 0)]


def test_hull_interval_minimum_queries():
    front = ExactFrontier.of_chain(terminal_lower_hull(one_shot_two_arms()))
    assert front.min_second_moment(0, 1) == 0
    assert front.min_second_moment(Rat(1, 2), 1) == 1
    assert front.min_second_moment(Rat(3, 4), Rat(3, 4)) == Rat(3, 2)
    assert front.min_second_moment(-5, 5) == 0
    assert front.min_second_moment(2, 3) is None


def _deterministic_reward_aware_policies(mdp, aug, cap=256):
    points = [
        (t, s, w) for t in range(mdp.horizon) for s, w in aug.layers[t]
    ]
    size = 1
    for t, s, w in points:
        size *= len(mdp.actions[s])
        if size > cap:
            return None
    out = []
    for combo in itertools.product(*(mdp.actions[s] for _, s, _ in points)):
        out.append(PolicySpec("TSW", dict(zip(points, combo))))
    return out


def _lower_hull_of_points(points):
    best = {}
    for lam, q in points:
        if lam not in best or q < best[lam]:
            best[lam] = q
    pts = sorted(best.items())
    if len(pts) == 1:
        return list(pts)
    chain = []
    for p in pts:
        while len(chain) >= 2:
            (x0, y0), (x1, y1) = chain[-2], chain[-1]
            if (x1 - x0) * (p[1] - y0) - (y1 - y0) * (p[0] - x0) <= 0:
                chain.pop()
            else:
                break
        chain.append(p)
    return chain


def test_hull_matches_policy_enumeration():
    rng = random.Random(20260822)
    checked = 0
    while checked < 25:
        mdp = random_mdp(rng)
        aug = augment(mdp)
        policies = _deterministic_reward_aware_policies(mdp, aug)
        if policies is None:
            continue
        points = []
        for policy in policies:
            ev = evaluate_policy(mdp, policy)
            points.append((ev.mean, ev.second_moment))
        expected = _lower_hull_of_points(points)
        assert terminal_lower_hull(mdp) == expected
        checked += 1


def test_policy_frequencies_lie_in_polytope():
    rng = random.Random(7)
    for _ in range(15):
        mdp = random_mdp(rng, max_states=3)
        aug = augment(mdp)
        sk = build_polytope(mdp)
        rule = {}
        for t in range(mdp.horizon):
            for s, w in aug.layers[t]:
                acts = mdp.actions[s]
                weights = [rng.randrange(0, 3) for _ in acts]
                if sum(weights) == 0:
                    weights[0] = 1
                total = sum(weights)
                rule[(t, s, w)] = {
                    a: Rat(wt, total) for a, wt in zip(acts, weights)
                }
        policy = PolicySpec("TSW_U", rule)
        z = policy_frequencies(mdp, policy)
        assert check_frequency(sk, z) == []
        ev = evaluate_policy(mdp, policy)
        assert z.terminal_mean(mdp.horizon) == ev.mean
        assert z.terminal_second_moment(mdp.horizon) == ev.second_moment


def test_policy_frequencies_rejects_an_unknown_action():
    mdp = one_shot_two_arms()
    policy = PolicySpec("TS_U", {(0, "s0"): {"a": Rat(1, 2), "zzz": Rat(1, 2)}})
    with pytest.raises(PolicyCoverageError) as frequencies_err:
        policy_frequencies(mdp, policy)
    with pytest.raises(PolicyCoverageError) as evaluate_err:
        evaluate_policy(mdp, policy)
    assert str(frequencies_err.value) == str(evaluate_err.value)


def test_interval_minimum_is_monotone_in_the_window():
    rng = random.Random(99)
    for _ in range(8):
        mdp = random_mdp(rng)
        hull = terminal_lower_hull(mdp)
        lam_min, lam_max = hull[0][0], hull[-1][0]
        status, wide = min_q_over_interval(mdp, lam_min, lam_max)
        assert status is LpStatus.OPTIMAL
        mid = (lam_min + lam_max) / 2
        status, narrow = min_q_over_interval(mdp, mid, lam_max)
        assert status is LpStatus.OPTIMAL
        assert wide <= narrow
        front = ExactFrontier.of_chain(hull)
        assert wide == front.min_second_moment(lam_min, lam_max)
        assert narrow == front.min_second_moment(mid, lam_max)


def test_exact_pair_implies_bounded_query():
    rng = random.Random(3)
    for _ in range(6):
        mdp = random_mdp(rng)
        hull = terminal_lower_hull(mdp)
        lam, q = hull[-1]
        ok, _ = exact_pair_feasible(mdp, lam, q - lam * lam)
        assert ok
        ok, _ = mean_fixed_var_bounded(mdp, lam, q - lam * lam)
        assert ok


def _moment_targets(polygon) -> list:
    """Every vertex and edge midpoint, one interior point, and three points
    just outside: below the lower chain, above the upper chain and right of
    the largest mean."""
    vs = polygon.vertices
    out = list(vs)
    out += [((a[0] + b[0]) / 2, (a[1] + b[1]) / 2) for a, b in zip(vs, vs[1:] + vs[:1])]
    if len(vs) >= 3:
        out.append((sum(m for m, _ in vs) / len(vs), sum(q for _, q in vs) / len(vs)))
    lower, upper = polygon.lower_chain(), polygon.upper_chain()
    m, q = lower[len(lower) // 2]
    out.append((m, q - Rat(1, 7)))
    m, q = upper[len(upper) // 2]
    out.append((m, q + Rat(1, 7)))
    m, q = lower[-1]
    out.append((m + Rat(1, 7), q))
    return out


def _replayed(mdp, sk, sol) -> tuple:
    """The moments the LP solution claims, checked against its witness."""
    z = sk.solution_vector(sol)
    claimed = (z.terminal_mean(mdp.horizon), z.terminal_second_moment(mdp.horizon))
    ev = evaluate_policy(mdp, frequencies_to_policy(mdp, z))
    assert (ev.mean, ev.second_moment) == claimed
    return claimed


def test_mixture_witness_agrees_with_the_two_row_lp():
    # The two-row occupation LP (mean = m, second moment = q), solved from
    # the first-action start, is the reference: at every target both it and
    # the vertex mixture exist exactly when the polygon holds the target,
    # and both witnesses replay to it.
    for mdp in integer_instances()[:60]:
        stages = dict(backward_walk(mdp))
        polygon = stages[0][(mdp.initial_state, 0)]
        sk = build_polytope(mdp)
        for m, q in _moment_targets(polygon):
            prob = sk.problem(extra_rows=[(sk.mean_coeffs, m), (sk.sm_coeffs, q)])
            lp = solve(prob, initial_basis=sk._warm)
            ok, z = exact_pair_feasible(mdp, m, q - m * m, stages)
            feasible = polygon.contains((m, q))
            assert (lp.status is LpStatus.OPTIMAL) == feasible
            assert ok == feasible
            if feasible:
                assert _replayed(mdp, sk, lp) == (m, q)
                ev = evaluate_policy(mdp, frequencies_to_policy(mdp, z))
                assert (ev.mean, ev.second_moment) == (m, q)


def _counting_vertex_policies(monkeypatch) -> list:
    """Record the direction of every vertex_policy call the witness
    makes."""
    calls = []
    rule = frequency.vertex_policy

    def counted(mdp, stages, direction):
        calls.append(direction)
        return rule(mdp, stages, direction)

    monkeypatch.setattr(frequency, "vertex_policy", counted)
    return calls


def test_mixture_witnesses_lie_in_the_polytope(monkeypatch):
    # On all three corpora, every vertex, edge midpoint and interior target
    # (every seventh vertex or midpoint on the deep corpus) gets a witness
    # that satisfies every row of the occupation polytope, mixes at most
    # three vertex policies and replays exactly.
    calls = _counting_vertex_policies(monkeypatch)
    cases = [(mdp, 1) for mdp in integer_instances()[:40] + rational_instances()]
    cases += [(mdp, 7) for mdp, _ in deep_instances()[:4]]
    for mdp, stride in cases:
        stages = dict(backward_walk(mdp))
        polygon = stages[0][(mdp.initial_state, 0)]
        sk = build_polytope(mdp)
        targets = _moment_targets(polygon)[:-3]
        for m, q in targets[:-1:stride] + targets[-1:]:
            calls.clear()
            ok, z = exact_pair_feasible(mdp, m, q - m * m, stages)
            assert ok
            assert 1 <= len(calls) <= 3
            assert check_frequency(sk, z) == []
            claimed = (z.terminal_mean(mdp.horizon), z.terminal_second_moment(mdp.horizon))
            assert claimed == (m, q)
            policy = frequencies_to_policy(mdp, z)
            ev = evaluate_policy(mdp, policy)
            assert (ev.mean, ev.second_moment) == (m, q)
            # The policy's forward walk meets the witness's nodes alone.
            assert policy_frequencies(mdp, policy) == z


def _one_step(arms: dict):
    """One decision at s0, one arm per action with its reward law."""
    actions = {"s0": list(arms), "end": ["stay"]}
    transitions = {(0, "s0", a): {"end": 1} for a in arms}
    rewards = {(0, "s0", a): law for a, law in arms.items()}
    return make_mdp(1, ["s0", "end"], "s0", actions, transitions, rewards)


@pytest.mark.parametrize(
    "arms, shape",
    [
        ({"a": {0: 1}}, [(0, 0)]),
        ({"a": {0: 1}, "b": {-1: Rat(1, 2), 1: Rat(1, 2)}}, [(0, 0), (0, 1)]),
        ({"a": {0: 1}, "b": {1: 1}}, [(0, 0), (1, 1)]),
        ({"a": {0: 1}, "b": {1: 1}, "c": {2: 1}}, [(0, 0), (1, 1), (2, 4)]),
    ],
    ids=["point", "vertical-segment", "sloped-segment", "triangle"],
)
def test_mixture_witness_on_degenerate_polygons(arms, shape, monkeypatch):
    # Every vertex takes one vertex policy, a point inside an edge two and
    # the triangle's centroid three; a segment's midpoint mixes its two
    # ends evenly.
    mdp = _one_step(arms)
    stages = dict(backward_walk(mdp))
    vs = stages[0][(mdp.initial_state, 0)].vertices
    assert list(vs) == [(Rat(m), Rat(q)) for m, q in shape]
    calls = _counting_vertex_policies(monkeypatch)
    ends = list(zip(vs, vs[1:] + vs[:1])) if len(vs) == 3 else zip(vs, vs[1:])
    targets = [(v, 1) for v in vs]
    targets += [(((a[0] + b[0]) / 2, (a[1] + b[1]) / 2), 2) for a, b in ends]
    if len(vs) == 3:
        targets.append(((sum(m for m, _ in vs) / 3, sum(q for _, q in vs) / 3), 3))
    sk = build_polytope(mdp)
    for target, used in targets:
        calls.clear()
        m, q = target
        ok, z = exact_pair_feasible(mdp, m, q - m * m, stages)
        assert ok and len(calls) == used
        assert check_frequency(sk, z) == []
        policy = frequencies_to_policy(mdp, z)
        ev = evaluate_policy(mdp, policy)
        assert (ev.mean, ev.second_moment) == target
        if used == 2 and len(vs) == 2:
            assert sorted(policy.rule[(0, "s0", 0)].values()) == [Rat(1, 2)] * 2


def test_witness_weighs_one_triangle_without_phase_1(monkeypatch):
    # On roots of three or more vertices every witness solves one LP over
    # the three vertices of the fan triangle that holds its target, and
    # its only pivots are the full basis's three.
    problems, pivots, phases = [], [], []
    solve_lp, pivot, bland = frequency.solve, lp._pivot, lp._bland

    def spied_solve(problem, initial_basis=None):
        problems.append(problem)
        return solve_lp(problem, initial_basis)

    def spied_pivot(rows, rhs, basis, r, jc):
        pivots.append((r, jc))
        return pivot(rows, rhs, basis, r, jc)

    def spied_bland(rows, rhs, basis, ncols):
        phases.append(ncols)
        return bland(rows, rhs, basis, ncols)

    monkeypatch.setattr(frequency, "solve", spied_solve)
    monkeypatch.setattr(lp, "_pivot", spied_pivot)
    monkeypatch.setattr(lp, "_bland", spied_bland)
    checked = 0
    for mdp in integer_instances()[:20] + [mdp for mdp, _ in deep_instances()[:1]]:
        stages = dict(backward_walk(mdp))
        polygon = stages[0][(mdp.initial_state, 0)]
        if len(polygon.vertices) < 3:
            continue
        for m, q in _moment_targets(polygon)[:-3]:
            for log in (problems, pivots, phases):
                log.clear()
            ok, z = exact_pair_feasible(mdp, m, q - m * m, stages)
            assert ok
            (prob,) = problems
            assert prob.num_vars == 3 and len(prob.rows) == 3
            # Phase 2 alone, with no artificial column, and no pivot past
            # the basis's own.
            assert phases == [3] and len(pivots) == 3
            checked += 1
    assert checked > 50


def test_targets_outside_the_polygon_run_no_lp(monkeypatch):
    def no_lp(*args, **kwargs):
        raise AssertionError("an LP ran")

    monkeypatch.setattr(frequency, "solve", no_lp)
    for mdp in integer_instances()[:20]:
        polygon = compute_pmq(mdp)
        for m, q in _moment_targets(polygon)[-3:]:
            assert not polygon.contains((m, q))
            assert exact_pair_feasible(mdp, m, q - m * m) == (False, None)
        lower = polygon.lower_chain()
        past = lower[-1][0] + Rat(1, 7)
        assert mean_fixed_var_bounded(mdp, past, 10**6) == (False, None)
        m, q = lower[len(lower) // 2]
        assert mean_fixed_var_bounded(mdp, m, q - m * m - Rat(1, 7)) == (
            False,
            None,
        )


def test_witness_functions_raise_when_the_lp_disagrees(monkeypatch):
    monkeypatch.setattr(
        frequency, "solve", lambda *args, **kwargs: LpSolution(LpStatus.INFEASIBLE)
    )
    mdp = one_shot_two_arms()
    with pytest.raises(EngineDisagreementError, match="occupation LP"):
        exact_pair_feasible(mdp, Rat(1, 2), Rat(3, 4))
    with pytest.raises(EngineDisagreementError, match="occupation LP"):
        mean_fixed_var_bounded(mdp, Rat(1, 4), 1)


def test_bounded_witness_raises_when_the_polygon_misses_its_chain(monkeypatch):
    # The lower-chain point must lie in the polygon; a polygon that does
    # not hold it is a disagreement, not an infeasible answer.
    monkeypatch.setattr(geometry.MomentPolygon, "locate", lambda self, p: None)
    with pytest.raises(EngineDisagreementError, match="its frontier"):
        mean_fixed_var_bounded(one_shot_two_arms(), Rat(1, 4), 1)


def test_witness_raises_when_a_vertex_policy_misses_its_vertex(monkeypatch):
    # Every vertex policy replaced by the one for the lowest second moment:
    # the mixture then misses a target between the two arms.
    rule = frequency.vertex_policy
    monkeypatch.setattr(
        frequency,
        "vertex_policy",
        lambda mdp, stages, direction: rule(mdp, stages, (0, 1)),
    )
    with pytest.raises(EngineDisagreementError, match="vertex policies"):
        exact_pair_feasible(one_shot_two_arms(), Rat(1, 2), Rat(3, 4))


def test_bounded_witness_is_the_least_variance_at_the_mean():
    # Inside a lower-chain edge the least second moment at mean lam is the
    # chain's own point; every cap at or above its variance gets a witness
    # that replays to exactly that point, not to some point under the cap.
    checked = 0
    for mdp in integer_instances()[:40]:
        frontier = exact_frontier(compute_pmq(mdp))
        chain = frontier.chain
        for (m0, _), (m1, _) in zip(chain, chain[1:]):
            lam = (2 * m0 + m1) / 3
            q = frontier.second_moment(lam)
            floor = q - lam * lam
            for cap in (floor, floor + Rat(1, 3), floor + 5):
                ok, z = mean_fixed_var_bounded(mdp, lam, cap)
                assert ok
                ev = evaluate_policy(mdp, frequencies_to_policy(mdp, z))
                assert (ev.mean, ev.second_moment) == (lam, q)
                checked += 1
            assert not mean_fixed_var_bounded(mdp, lam, floor - Rat(1, 9))[0]
    assert checked > 0


def test_variance_extreme_witnesses_on_deep_instances():
    # Exact witnesses at both variance extremes of T = 5 instances with at
    # least 20 polygon vertices; five of the ten max-variance peaks lie
    # inside an upper-chain edge rather than at a vertex.
    inside_edges = 0
    for mdp, polygon in deep_instances():
        for value, (m, q) in (min_variance(polygon), max_variance(polygon)):
            inside_edges += (m, q) not in polygon.vertices
            ok, z = exact_pair_feasible(mdp, m, value)
            assert ok
            ev = evaluate_policy(mdp, frequencies_to_policy(mdp, z))
            assert (ev.mean, ev.variance) == (m, value)
    assert inside_edges > 0
