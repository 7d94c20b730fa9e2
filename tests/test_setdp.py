import importlib.util
import itertools
import random
from pathlib import Path

import pytest

import corpus
from mvmdp import setdp
from mvmdp.errors import AugmentationLimitError
from mvmdp.fixtures import (
    all_zero,
    offset_chain,
    one_shot_two_arms,
    two_point_stage,
)
from mvmdp.frequency import min_q_over_interval
from mvmdp.geometry import MomentPolygon, hausdorff_sq, prune_polygon
from mvmdp.lp import LpStatus
from mvmdp.model import PolicySpec, augment, evaluate_policy, make_mdp, reach
from mvmdp.rationals import Rat, ZERO, rat
from mvmdp.serialize import load
from mvmdp.setdp import (
    backward_step,
    compute_pmq,
    exact_frontier,
    max_variance,
    min_variance,
    per_node,
    per_state,
)

SEGMENT = MomentPolygon.of([(0, 0), (1, 2)])
GEN_POOL = Path(__file__).resolve().parents[1] / "perfbench" / "gen_pool.py"


def _layers(mdp, place):
    """The unpruned stage layers backward_step builds under place, the
    horizon's first, each polygon moved to the plane: key (s, b) holds its
    polygon relative to b, so it is sheared by b (b = 0 per state). reach's
    keys (s, b) carry b as an integer over the reward denominator."""
    stages = reach(mdp, place)
    den = mdp.reward_den
    rel = {key: MomentPolygon.sure(0) for key in stages[mdp.horizon]}
    layers = [rel]
    for t in reversed(range(mdp.horizon)):
        rel = backward_step(mdp, t, rel, stages[t], place)
        layers.append(rel)
    return [{key: poly.sheared(key[1], den) for key, poly in layer.items()}
            for layer in layers]


def test_backward_step_one_shot():
    mdp = one_shot_two_arms()
    state = {(s, 0): MomentPolygon.point(0, 0) for s in ("s0", "end")}
    out = backward_step(mdp, 0, state, [("s0", 0)], per_state)
    # Arm a pins (0,0); arm b averages (0,0) and (2,4) into (1,2).
    assert out[("s0", 0)] == SEGMENT
    nodes = {key: MomentPolygon.point(0, 0) for key in reach(mdp, per_node)[1]}
    out = backward_step(mdp, 0, nodes, [("s0", 0)], per_node)
    assert out[("s0", 0)] == SEGMENT
    # A child is read in its own frame and sheared by its reward: the
    # node (end, 2) holding (1, 1) stands for the moment point (3, 9).
    nodes[("end", 2)] = MomentPolygon.point(1, 1)
    out = backward_step(mdp, 0, nodes, [("s0", 0)], per_node)
    assert out[("s0", 0)] == MomentPolygon.of([(0, 0), (Rat(3, 2), Rat(9, 2))])


def test_backward_step_missing_child():
    mdp = one_shot_two_arms()
    nodes = {("end", 2): MomentPolygon.point(0, 0)}
    for rel, place in (({}, per_state), (nodes, per_node)):
        with pytest.raises(KeyError, match=r"missing moment set for \(1, end, 0\)"):
            backward_step(mdp, 0, rel, [("s0", 0)], place)
    with pytest.raises(KeyError, match=r"missing moment set for \(1, end, 1/3\)"):
        backward_step(make_mdp(
            horizon=1, states=("s0", "end"), initial_state="s0",
            actions={"s0": ("a",), "end": ("stay",)},
            transitions={("s0", "a"): {"end": 1}, ("end", "stay"): {"end": 1}},
            rewards={("s0", "a"): {Rat(1, 3): 1}, ("end", "stay"): {0: 1}},
        ), 0, {}, [("s0", 0)], per_node)


def test_backward_step_shares_one_sum_per_state_and_children():
    # offset_chain's stage-1 nodes (s1, 0) and (s1, 1) read (end, 0) and
    # (end, 1), and (end, 1) and (end, 2).
    mdp = offset_chain()
    stages = reach(mdp, per_node)
    states = _layers(mdp, per_state)[1]
    origin = MomentPolygon.sure(0)
    nodes = {key: origin for key in stages[2]}
    out = backward_step(mdp, 1, nodes, stages[1], per_node)
    assert out[("s1", 0)] is out[("s1", 1)]
    assert out[("s1", 0)] == states[("s1", 0)]
    # Sharing keys on the children's values, so an equal copy still shares.
    nodes[("end", 2)] = MomentPolygon.sure(0)
    assert nodes[("end", 2)] is not origin
    out = backward_step(mdp, 1, nodes, stages[1], per_node)
    assert out[("s1", 0)] is out[("s1", 1)]
    # A node with a different child gets its own polygon.
    nodes[("end", 2)] = MomentPolygon.point(5, 25)
    changed = backward_step(mdp, 1, nodes, stages[1], per_node)
    assert changed[("s1", 0)] == out[("s1", 0)]
    assert changed[("s1", 1)] == MomentPolygon.of([(0, 0), (6, 36)])
    # On any node layer whose children all hold their state's polygon,
    # every state's nodes get one object, its state polygon.
    for mdp in corpus.integer_instances(15) + corpus.rational_instances(3):
        stages = reach(mdp, per_node)
        by_state = _layers(mdp, per_state)[::-1]
        for t in range(mdp.horizon):
            nodes = {(s, w): by_state[t + 1][(s, 0)] for s, w in stages[t + 1]}
            out = backward_step(mdp, t, nodes, stages[t], per_node)
            for s, _ in stages[t]:
                assert len({id(poly) for (s2, _), poly in out.items()
                            if s2 == s}) == 1
            assert {(s, 0): poly for (s, _), poly in out.items()} == by_state[t]


def test_node_polygons_are_sheared_state_polygons():
    # Node (t, s, w)'s polygon is S_w of its state's reward-to-go polygon,
    # as backward_step builds it per node and as the recursion over
    # absolute node polygons does.
    for mdp in corpus.integer_instances(15) + corpus.rational_instances(3):
        by_state = _layers(mdp, per_state)
        by_node = _layers(mdp, per_node)
        assert by_node == corpus.per_node_layers(mdp)
        for states, nodes in zip(by_state, by_node):
            assert {key[0] for key in nodes} == {key[0] for key in states}
            for (s, w), poly in nodes.items():
                assert states[(s, 0)].scale(1, Rat(w, mdp.reward_den)) == poly


def test_backward_step_identical_actions_idempotent():
    mdp = make_mdp(
        horizon=1,
        states=("s0", "end"),
        initial_state="s0",
        actions={"s0": ("a", "b"), "end": ("stay",)},
        transitions={("s0", "a"): {"end": 1}, ("s0", "b"): {"end": 1},
                     ("end", "stay"): {"end": 1}},
        rewards={("s0", "a"): {1: 1}, ("s0", "b"): {1: 1},
                 ("end", "stay"): {0: 1}},
    )
    assert compute_pmq(mdp) == MomentPolygon.point(1, 1)


def test_compute_pmq_examples():
    assert compute_pmq(one_shot_two_arms()) == SEGMENT
    assert compute_pmq(all_zero(horizon=3)) == MomentPolygon.point(0, 0)
    polygon = compute_pmq(offset_chain())
    assert polygon.contains((1, 1))
    assert polygon.contains((0, 0))
    assert polygon == MomentPolygon.of(
        [(0, 0), (1, 1), (Rat(3, 2), Rat(5, 2)), (1, 2)]
    )


def test_pruned_roots_over_mixed_reward_denominators():
    # Per-node keys are integer rewards over the denominator 42; the
    # pruned roots are the ones the Rat-keyed recursion gave, vertex for
    # vertex, and stay within the budget of the exact root.
    mdp = corpus.mixed_frame_mdp(3)
    expected = {
        Rat(1, 3): [
            ("659/2016", "62851/127008"), ("9533/18144", "9913/23814"),
            ("27/28", "1485/1568"), ("1145/504", "18805/2352"),
            ("164/63", "15413/1323"), ("275/108", "41165/3528"),
            ("1565/1512", "980879/190512"),
        ],
        Rat(1, 10): [
            ("659/2016", "62851/127008"), ("6619/18144", "166081/381024"),
            ("9533/18144", "9913/23814"), ("27/28", "1485/1568"),
            ("1145/504", "18805/2352"), ("164/63", "15413/1323"),
            ("275/108", "41165/3528"), ("433/378", "540853/95256"),
            ("2963/3024", "1860931/381024"), ("9713/18144", "541073/254016"),
        ],
    }
    exact = compute_pmq(mdp)
    assert len(exact.vertices) == 15
    for eps, vertices in expected.items():
        pruned = compute_pmq(mdp, eps)
        assert pruned.vertices == tuple((rat(m), rat(q)) for m, q in vertices)
        assert hausdorff_sq(pruned, exact) <= eps * eps
    assert compute_pmq(mdp, 0) == exact


def test_exact_frontier_one_shot():
    front = exact_frontier(SEGMENT)
    assert front.value(0) == 0
    assert front.value(Rat(1, 2)) == Rat(3, 4)
    assert front.value(1) == 1
    assert front.value(-5) == 0
    assert front.value(Rat(1001, 1000)) is None
    # The frontier on [0, 1] is the parabola through the segment's ends.
    for k in range(5):
        lam = Rat(k, 4)
        assert front.value(lam) == 2 * lam - lam * lam


def test_exact_frontier_singleton():
    front = exact_frontier(MomentPolygon.point(0, 0))
    assert front.value(0) == 0
    assert front.value(-1) == 0
    assert front.value(Rat(1, 10)) is None


def test_exact_frontier_offset_chain():
    front = exact_frontier(compute_pmq(offset_chain()))
    assert front.value(1) == 0
    assert front.value(0) == 0
    assert front.value(Rat(3, 2)) == Rat(1, 4)


def test_min_variance_examples():
    assert min_variance(SEGMENT) == (0, (0, 0))
    shifted = MomentPolygon.of([(1, 2), (2, 6)])
    assert min_variance(shifted) == (1, (1, 2))


def test_max_variance_examples():
    assert max_variance(SEGMENT) == (1, (1, 2))
    mixture = compute_pmq(two_point_stage())
    assert mixture == MomentPolygon.of([(0, 0), (1, 1)])
    assert max_variance(mixture) == (Rat(1, 4), (Rat(1, 2), Rat(1, 2)))
    assert max_variance(MomentPolygon.point(0, 0)) == (0, (0, 0))


def _deterministic_points(mdp, aug, cap=512):
    nodes = [(t, s, w) for t in range(mdp.horizon) for s, w in aug.layers[t]]
    size = 1
    for _, s, _ in nodes:
        size *= len(mdp.actions[s])
        if size > cap:
            return None
    points = []
    for combo in itertools.product(*(mdp.actions[s] for _, s, _ in nodes)):
        ev = evaluate_policy(mdp, PolicySpec("TSW", dict(zip(nodes, combo))))
        points.append((ev.mean, ev.second_moment))
    return points


def test_pmq_equals_policy_enumeration_hull():
    rng = random.Random(20260822)
    checked = 0
    while checked < 15:
        mdp = corpus.random_mdp(rng, max_states=3)
        points = _deterministic_points(mdp, augment(mdp))
        if points is None:
            continue
        assert compute_pmq(mdp) == MomentPolygon.of(points)
        checked += 1


def test_lower_vertices_agree_with_lp():
    rng = random.Random(5)
    for _ in range(6):
        mdp = corpus.random_mdp(rng)
        polygon = compute_pmq(mdp)
        for lam, q in polygon.lower_chain():
            status, value = min_q_over_interval(mdp, lam, lam)
            assert status is LpStatus.OPTIMAL
            assert value == q


def test_intermediate_sets_respect_moment_geometry():
    rng = random.Random(11)
    for _ in range(8):
        mdp = corpus.random_mdp(rng, max_states=3)
        bound = mdp.mean_bound
        for place in (per_state, per_node):
            for layer in _layers(mdp, place):
                for poly in layer.values():
                    for m, q in poly.vertices:
                        assert q >= m * m
                        assert -bound <= m <= bound
                        assert 0 <= q <= bound * bound


def test_frontier_matches_deterministic_witnesses():
    rng = random.Random(23)
    checked = 0
    while checked < 8:
        mdp = corpus.random_mdp(rng)
        points = _deterministic_points(mdp, augment(mdp))
        if points is None:
            continue
        polygon = compute_pmq(mdp)
        front = exact_frontier(polygon)
        assert front.value(front.lam_min) == min_variance(polygon)[0]
        for mean, second in points:
            v = front.value(mean)
            assert v is not None
            assert v <= second - mean * mean
        # Sampled monotonicity in the threshold.
        samples = [front.lam_min + Rat(k, 7) * (front.lam_max - front.lam_min)
                   for k in range(8)]
        values = [front.value(lam) for lam in samples]
        assert all(a <= b for a, b in zip(values, values[1:]))
        checked += 1


def test_min_variance_matches_enumeration():
    rng = random.Random(31)
    checked = 0
    while checked < 8:
        mdp = corpus.random_mdp(rng)
        points = _deterministic_points(mdp, augment(mdp))
        if points is None:
            continue
        polygon = compute_pmq(mdp)
        value, witness = min_variance(polygon)
        assert value == min(q - m * m for m, q in points)
        # The frontier's first entry agrees with a scan of every vertex,
        # ties going to the leftmost.
        scan = min(polygon.vertices, key=lambda v: (v[1] - v[0] * v[0], v[0]))
        assert (value, witness) == (scan[1] - scan[0] * scan[0], scan)
        assert value >= 0
        assert witness in points
        checked += 1


def test_pruned_mode_stays_close():
    rng = random.Random(41)
    for _ in range(6):
        mdp = corpus.random_mdp(rng, max_states=3, max_horizon=4)
        exact = compute_pmq(mdp)
        for eps in (Rat(1, 2), Rat(1, 4)):
            pruned = compute_pmq(mdp, prune_eps=eps)
            assert hausdorff_sq(exact, pruned) <= eps * eps
            assert len(pruned.vertices) <= len(exact.vertices)


def test_negative_prune_budget_is_rejected():
    with pytest.raises(ValueError, match="nonnegative"):
        compute_pmq(offset_chain(), prune_eps=Rat(-1, 2))


def test_pruning_a_horizon_zero_mdp_keeps_its_root_point():
    # No stage to prune: any budget returns the exact point (0, 0).
    mdp = all_zero(horizon=0)
    for eps in (0, Rat(1, 3), 5):
        assert compute_pmq(mdp, prune_eps=eps) == compute_pmq(mdp)
    assert compute_pmq(mdp) == MomentPolygon.point(0, 0)


def test_prune_eps_zero_is_exact():
    mdp = offset_chain()
    assert compute_pmq(mdp, prune_eps=0) == compute_pmq(mdp)


def _reference_pmq(mdp, prune_eps=None):
    """The backward recursion on the sort-and-hull route: each Minkowski
    step is MomentPolygon.of of the pairwise vertex sums, each union is
    MomentPolygon.of of every action polygon's vertices, and each pruned
    polygon is re-canonicalized by MomentPolygon.of. The prune budget per
    stage is compute_pmq's."""
    threshold_sq = None
    if prune_eps is not None:
        per_stage = Rat(prune_eps) / (2 * mdp.horizon)
        threshold_sq = per_stage * per_stage
    aug = augment(mdp)
    layer = {
        (s, w): MomentPolygon.point(w, w * w) for s, w in aug.layer(mdp.horizon)
    }
    for t in reversed(range(mdp.horizon)):
        out = {}
        for s, w in aug.layer(t):
            points = []
            for a in mdp.actions[s]:
                total = MomentPolygon.point(0, 0)
                for s2, _, r, pg in mdp.int_branches(t, s, a):
                    child = layer[(s2, w + r)].scale(pg)
                    total = MomentPolygon.of(
                        [(x0 + x1, y0 + y1)
                         for x0, y0 in total.vertices
                         for x1, y1 in child.vertices]
                    )
                points.extend(total.vertices)
            poly = MomentPolygon.of(points)
            if threshold_sq is not None:
                poly = MomentPolygon.of(
                    prune_polygon(poly, threshold_sq).vertices
                )
            out[(s, w)] = poly
        layer = out
    return layer[(mdp.initial_state, ZERO)]


def test_compute_pmq_matches_the_sort_and_hull_recursion():
    mdps = corpus.integer_instances(40) + corpus.rational_instances(3)
    sizes = []
    for mdp in mdps:
        for eps in (None, Rat(1, 4)):
            got = compute_pmq(mdp, prune_eps=eps)
            assert got.vertices == _reference_pmq(mdp, eps).vertices
            sizes.append(len(got.vertices))
    assert sum(n >= 3 for n in sizes) >= 10 and max(sizes) >= 8


def test_compute_pmq_vertices_are_rats():
    # Every stage stays on integers; the root's vertices are built from
    # them, and each of its coordinates must be a Rat, never an int.
    # The fixtures add roots the kernels hand through unchanged: a horizon-0
    # point, one action, one branch.
    fixtures = [all_zero(horizon=0), all_zero(horizon=3), one_shot_two_arms(),
                offset_chain()]
    mdps = corpus.integer_instances() + corpus.rational_instances() + fixtures
    for mdp in mdps:
        for eps in (None, 0, Rat(1, 4), 1):
            got = compute_pmq(mdp, prune_eps=eps)
            for v in got.vertices:
                assert all(type(c) is Rat and not isinstance(c, int) for c in v)


def test_compute_pmq_builds_rationals_for_the_root_only(monkeypatch):
    # No stage reads its vertices, so the returned root is the only polygon
    # whose Rat pairs get built, exact or pruned.
    built = []
    read = MomentPolygon.vertices.fget

    def counted(poly):
        if poly._vertices is None:
            built.append(poly)
        return read(poly)

    monkeypatch.setattr(MomentPolygon, "vertices", property(counted))
    mdps = corpus.integer_instances(8) + corpus.rational_instances(4)
    for mdp in mdps + [offset_chain(), one_shot_two_arms()]:
        for eps in (None, Rat(1, 4)):
            built.clear()
            root = compute_pmq(mdp, prune_eps=eps)
            assert built == []
            assert len(root.vertices) == len(root.points)
            assert built == [root]


@pytest.mark.parametrize("eps", [0.1, 0.0, True])
def test_compute_pmq_refuses_a_float_or_bool_budget(eps):
    with pytest.raises(TypeError, match="exact rational"):
        compute_pmq(offset_chain(), prune_eps=eps)


def test_stage_vertex_cap(monkeypatch):
    mdp = offset_chain()
    largest = max(
        sum(len(p.vertices) for p in layer.values())
        for layer in _layers(mdp, per_state)[1:]
    )
    monkeypatch.setattr(setdp, "MAX_STAGE_SIZE", largest)
    compute_pmq(mdp)
    monkeypatch.setattr(setdp, "MAX_STAGE_SIZE", largest - 1)
    with pytest.raises(AugmentationLimitError, match=f"hold {largest} vert"):
        compute_pmq(mdp)


def _stress_instances():
    """gen_pool.stress_instance(Random(k), T) for T in 3, 5, 7 and k in
    2, 3: the benchmark's rational-reward family, whose pruned walk
    switches from state keys to node keys over several reward
    denominators."""
    spec = importlib.util.spec_from_file_location("perfbench_gen_pool", GEN_POOL)
    gen_pool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen_pool)
    return [gen_pool.stress_instance(random.Random(k), horizon)
            for horizon in (3, 5, 7) for k in (2, 3)]


PRUNE_BUDGETS = (0, Rat(1, 100), Rat(1, 9), Rat(1, 2), 3)


def _triangle_first():
    """Three arms paying 0, 1 and 2 surely: the root, (0, 0), (1, 1) and
    (2, 4), is the first polygon with three vertices, and a budget of 3
    thins it to a segment."""
    return make_mdp(
        horizon=1,
        states=("s0", "end"),
        initial_state="s0",
        actions={"s0": ("a", "b", "c"), "end": ("stay",)},
        transitions={("s0", "a"): {"end": 1}, ("s0", "b"): {"end": 1},
                     ("s0", "c"): {"end": 1}, ("end", "stay"): {"end": 1}},
        rewards={("s0", "a"): {0: 1}, ("s0", "b"): {1: 1},
                 ("s0", "c"): {2: 1}, ("end", "stay"): {0: 1}},
    )


def test_pruned_walk_matches_the_per_node_recursion():
    # The walk keys states until pruning can bite and nodes after; its
    # root must be the per-node recursion's, vertex for vertex, at every
    # budget.
    mdps = (corpus.integer_instances(60) + corpus.rational_instances(20)
            + [mdp for mdp, _ in corpus.deep_instances(4)]
            + [corpus.mixed_frame_mdp(3), _triangle_first()]
            + _stress_instances())
    moved = 0
    for mdp in mdps:
        exact = compute_pmq(mdp)
        for eps in PRUNE_BUDGETS:
            got = compute_pmq(mdp, eps)
            assert got == corpus.per_node_pmq(mdp, eps)
            moved += got != exact
    # Enough roots moved under pruning that node keys were pruned.
    assert moved >= 50
    # The benchmark's pruned polygon-stress queries, whole polygons.
    for name in ("stress-t5-0", "stress-t6-0"):
        mdp = load(GEN_POOL.parent / "pool" / "polygon-stress" / f"{name}.json")
        for eps in (Rat(1, 7), Rat(1, 8), Rat(1, 9)):
            assert compute_pmq(mdp, eps) == corpus.per_node_pmq(mdp, eps)


def test_pruned_stage_cap_fires_where_the_per_node_recursion_does(monkeypatch):
    # Every stage total the per-node recursion checks, and one less as the
    # cap: the walk must raise at the same stage with the same text.
    cap = setdp.MAX_STAGE_SIZE
    for mdp in [corpus.mixed_frame_mdp(3)] + _stress_instances()[2:4]:
        for eps in (Rat(1, 9), 1):
            monkeypatch.setattr(setdp, "MAX_STAGE_SIZE", cap)
            totals = []
            check = corpus.check_stage_size
            monkeypatch.setattr(
                corpus, "check_stage_size",
                lambda t, size, *rest: totals.append(size) or check(t, size, *rest),
            )
            corpus.per_node_pmq(mdp, eps)
            monkeypatch.setattr(corpus, "check_stage_size", check)
            assert len(totals) == mdp.horizon
            for size in totals:
                monkeypatch.setattr(setdp, "MAX_STAGE_SIZE", size - 1)
                with pytest.raises(AugmentationLimitError) as want:
                    corpus.per_node_pmq(mdp, eps)
                with pytest.raises(AugmentationLimitError) as got:
                    compute_pmq(mdp, eps)
                assert str(got.value) == str(want.value)
            monkeypatch.setattr(setdp, "MAX_STAGE_SIZE", max(totals))
            assert compute_pmq(mdp, eps) == corpus.per_node_pmq(mdp, eps)
