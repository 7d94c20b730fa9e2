import itertools
import math
import random
import tracemalloc
from collections import defaultdict

import pytest

from corpus import (
    decision_choices,
    deep_instances,
    integer_instances,
    mixed_frame_mdp,
    per_node_game,
    policy_by_policy_feasibility,
    random_mdp,
    rational_instances,
    simplex_grid,
    subset_sum_vectors,
)
from mvmdp import frequency, games, model
from mvmdp.errors import (
    AugmentationLimitError,
    EngineDisagreementError,
    EnumerationLimitError,
)
from mvmdp.fixtures import (
    all_zero,
    forked_path,
    offset_chain,
    one_shot_two_arms,
)
from mvmdp.frequency import (
    build_polytope,
    exact_pair_feasible,
    frequencies_to_policy,
    min_q_over_interval,
)
from mvmdp.games import (
    class_feasibility,
    class_separation_report,
    enumerate_policies,
    gen_3sat,
    gen_subset_sum,
    zero_variance_values,
)
from mvmdp.lp import LpSolution, LpStatus, solve
from mvmdp.model import PolicySpec, evaluate_policy, make_mdp, validate
from mvmdp.rationals import Rat
from mvmdp.setdp import compute_pmq, min_variance


def test_zero_variance_offset_chain():
    result = zero_variance_values(offset_chain())
    assert result.achievable_values == {0, 1}
    for k, policy in result.winning_policy.items():
        assert policy.policy_class == "TSW"
        ev = evaluate_policy(offset_chain(), policy)
        assert (ev.mean, ev.second_moment, ev.variance) == (k, k * k, 0)


def test_zero_variance_one_shot():
    result = zero_variance_values(one_shot_two_arms())
    assert result.achievable_values == {0}


def test_zero_variance_all_zero():
    assert zero_variance_values(all_zero(horizon=3)).achievable_values == {0}


def test_enumerate_ts_one_shot():
    table = enumerate_policies(one_shot_two_arms(), "TS")
    stats = sorted((j, q, v) for _, j, q, v in table)
    assert stats == [(0, 0, 0), (1, 2, 1)]


def test_enumerate_ts_offset_chain():
    table = enumerate_policies(offset_chain(), "TS")
    assert len(table) == 4
    # Under a hard zero-variance requirement the best mean is zero.
    assert max(j for _, j, _, v in table if v == 0) == 0


def test_enumerate_tsw_offset_chain():
    table = enumerate_policies(offset_chain(), "TSW")
    assert len(table) == 8
    assert any((j, q, v) == (1, 1, 0) for _, j, q, v in table)


def test_enumerate_cap(monkeypatch):
    monkeypatch.setattr(games, "DEFAULT_POLICY_CAP", 3)
    with pytest.raises(EnumerationLimitError):
        enumerate_policies(offset_chain(), "TSW")


@pytest.mark.parametrize("tag", ["TS", "TSW", "TS_U"])
def test_policy_cap_bounds_every_searched_class(monkeypatch, tag):
    monkeypatch.setattr(games, "DEFAULT_POLICY_CAP", 1)
    with pytest.raises(EnumerationLimitError, match="more than 1 "):
        class_feasibility(offset_chain(), tag, -100, 100)


def test_grid_cap_counts_before_building_any_vector(monkeypatch):
    built = []
    grid = games._simplex_grid

    def spied(k, m):
        built.append((k, m))
        return grid(k, m)

    monkeypatch.setattr(games, "_simplex_grid", spied)
    with pytest.raises(EnumerationLimitError, match="grid policies"):
        class_feasibility(offset_chain(), "TS_U", 0, 1, grid_resolution=10**9)
    assert built == []


@pytest.mark.parametrize("resolution", [0, -5])
def test_grid_resolution_below_one_is_refused_before_any_search(
    resolution, monkeypatch
):
    # For every class, and for the separation report, which would otherwise
    # run the TS and TSW searches before reaching TS_U.
    walks = []
    walk = games._DecisionWalk

    def spied(*args):
        walks.append(args)
        return walk(*args)

    monkeypatch.setattr(games, "_DecisionWalk", spied)
    mdp = one_shot_two_arms()
    for tag in ("TS", "TSW", "TS_U", "TSW_U"):
        with pytest.raises(ValueError, match="grid resolution must be at least 1"):
            class_feasibility(mdp, tag, 0, 1, grid_resolution=resolution)
    with pytest.raises(ValueError, match="grid resolution must be at least 1"):
        class_separation_report(mdp, 0, 1, grid_resolution=resolution)
    assert walks == []


def test_state_only_searches_count_time_state_pairs(monkeypatch):
    # One state and rewards {0, 1} each step: 4 (t, state) pairs over a
    # horizon of 3, but 10 augmented (state, reward) nodes. The node cap
    # bounds the TSW search's nodes and the TS and TS_U searches' pairs.
    mdp = make_mdp(
        horizon=3,
        states=("s",),
        initial_state="s",
        actions={"s": ("go",)},
        transitions={("s", "go"): {"s": 1}},
        rewards={("s", "go"): {0: Rat(1, 2), 1: Rat(1, 2)}},
    )
    monkeypatch.setattr(model, "DEFAULT_NODE_CAP", 5)
    for tag in ("TS", "TS_U"):
        entry = class_feasibility(mdp, tag, 0, 1)
        assert entry.feasible and entry.detail.endswith("with mean 3/2")
    with pytest.raises(AugmentationLimitError):
        class_feasibility(mdp, "TSW", 0, 1)


@pytest.mark.parametrize(
    "tag,found", [("TS", "enumerated"), ("TSW", "enumerated"), ("TS_U", "grid")]
)
def test_searches_at_horizon_zero_find_the_empty_policy(tag, found):
    # No decision point: the one, empty policy earns 0 surely.
    entry = class_feasibility(all_zero(horizon=0), tag, 0, 0)
    assert entry == games.ClassFeasibility(
        True, PolicySpec(tag, {}), f"{found} witness with mean 0"
    )


def test_ts_u_witness_lists_only_positive_probabilities():
    # Mean 1 needs arm b surely: the grid vector (0, 16), whose rule must not
    # list arm a at probability 0.
    entry = class_feasibility(one_shot_two_arms(), "TS_U", 1, 1)
    assert entry.witness.rule == {(0, "s0"): {"b": Rat(1)}}


def _combinations_grid(k: int, m: int):
    """The grid as the search once listed it, dense and in lexicographic
    order: the gaps around k - 1 bars placed among m + k - 1 slots."""
    if k == 1:
        yield (m,)
        return
    end = m + k - 1
    for bars in itertools.combinations(range(end), k - 1):
        yield tuple(b - a - 1 for a, b in zip((-1,) + bars, bars + (end,)))


def test_simplex_grid_order_matches_the_recursive_walk():
    for k in range(1, 7):
        for m in range(8):
            dense = []
            for option in games._simplex_grid(k, m):
                # Only positive entries, by increasing index.
                assert all(c > 0 for _, c in option)
                assert [a for a, _ in option] == sorted({a for a, _ in option})
                vector = [0] * k
                for a, c in option:
                    vector[a] = c
                dense.append(tuple(vector))
            assert dense == list(_combinations_grid(k, m))
            assert dense == list(simplex_grid(k, m))
            assert len(dense) == math.comb(m + k - 1, k - 1)


def _two_arms(ra, rb):
    return make_mdp(
        horizon=1,
        states=("s",),
        initial_state="s",
        actions={"s": ("a", "b")},
        transitions={("s", "a"): {"s": 1}, ("s", "b"): {"s": 1}},
        rewards={("s", "a"): {ra: 1}, ("s", "b"): {rb: 1}},
    )


def test_ts_u_grid_is_made_on_each_pass():
    # The first of the 10^5 + 1 grid vectors, b surely, meets the target:
    # the search holds no list of the vectors, so it finds it in bounded
    # memory. The witnesses are those the listed grid gave.
    tracemalloc.start()
    try:
        entry = class_feasibility(_two_arms(0, 0), "TS_U", 0, 0,
                                  grid_resolution=10**5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert entry == games.ClassFeasibility(
        True, PolicySpec("TS_U", {(0, "s"): {"b": Rat(1)}}),
        "grid witness with mean 0",
    )
    entry = class_feasibility(_two_arms(1, 0), "TS_U", Rat(1, 3), Rat(2, 9),
                              grid_resolution=999)
    assert entry.witness.rule == {(0, "s"): {"a": Rat(1, 3), "b": Rat(2, 3)}}


def test_enumerate_rejects_unknown_class():
    with pytest.raises(ValueError):
        enumerate_policies(offset_chain(), "TSW_U")


def test_game_agrees_with_tsw_enumeration():
    rng = random.Random(20260822)
    for _ in range(20):
        mdp = random_mdp(rng)
        result = zero_variance_values(mdp)
        zero_var_means = {
            j for _, j, _, v in enumerate_policies(mdp, "TSW") if v == 0
        }
        assert result.achievable_values == zero_var_means


def test_game_agrees_with_polygon_minimum():
    rng = random.Random(9)
    for _ in range(12):
        mdp = random_mdp(rng, max_states=3)
        game_zero = bool(zero_variance_values(mdp).achievable_values)
        polygon_zero = min_variance(compute_pmq(mdp))[0] == 0
        assert game_zero == polygon_zero


def _has_balanced_signs(values):
    sums = {0}
    for v in values:
        sums = {s + v for s in sums} | {s - v for s in sums}
    return 0 in sums


def test_game_matches_the_per_node_game():
    # The rational, mixed-frame and deep instances have reward denominators
    # D up to 42, so the forcing walk's rule keys W / D are checked off the
    # integer frame.
    mdps = (
        integer_instances(100)
        + [gen_subset_sum(values) for values in subset_sum_vectors()]
        + rational_instances(20)
        + [mixed_frame_mdp(h) for h in (1, 2, 3)]
        + [mdp for mdp, _ in deep_instances(4)]
    )
    forcing = 0
    for mdp in mdps:
        _, root, policies = per_node_game(mdp)
        result = zero_variance_values(mdp)
        assert result.achievable_values == root
        assert result.winning_policy == policies
        forcing += bool(root)
    assert 40 <= forcing < len(mdps)


def test_subset_sum_examples():
    assert 0 in zero_variance_values(gen_subset_sum([1, 2, 3])).achievable_values
    assert 0 not in zero_variance_values(gen_subset_sum([1, 1, 3])).achievable_values
    assert 0 not in zero_variance_values(gen_subset_sum([5])).achievable_values


def test_subset_sum_forcing_policy_replay():
    mdp = gen_subset_sum([1, 2, 3])
    result = zero_variance_values(mdp)
    ev = evaluate_policy(mdp, result.winning_policy[0])
    assert (ev.mean, ev.variance) == (0, 0)


def test_subset_sum_random_cross_check():
    rng = random.Random(123)
    for _ in range(15):
        values = [rng.randrange(1, 9) for _ in range(rng.randrange(1, 8))]
        expected = _has_balanced_signs(values)
        mdp = gen_subset_sum(values)
        assert validate(mdp) == []
        found = 0 in zero_variance_values(mdp).achievable_values
        assert found == expected


def test_subset_sum_validation():
    with pytest.raises(ValueError):
        gen_subset_sum([])
    with pytest.raises(ValueError):
        gen_subset_sum([0])
    with pytest.raises(ValueError):
        gen_subset_sum([3, -1])


def _ts_zero_variance_exists(mdp):
    return any(v == 0 for _, _, _, v in enumerate_policies(mdp, "TS"))


def test_3sat_satisfiable():
    mdp = gen_3sat([(1, 2, 3)])
    assert validate(mdp) == []
    assert _ts_zero_variance_exists(mdp)


def test_3sat_unsatisfiable():
    mdp = gen_3sat([(1, 1, 1), (-1, -1, -1)])
    assert not _ts_zero_variance_exists(mdp)


def test_3sat_mixed_instance():
    # (x1 or x2) and (not x1 or x2) and (not x2 or x3): satisfiable.
    mdp = gen_3sat([(1, 2, 2), (-1, 2, 2), (-2, 3, 3)])
    assert _ts_zero_variance_exists(mdp)


def test_3sat_empty_formula():
    mdp = gen_3sat([])
    assert validate(mdp) == []
    assert _ts_zero_variance_exists(mdp)


def test_3sat_states_are_the_variables_that_occur():
    big = 10**9
    mdp = gen_3sat([(1, 2, big), (-1, -2, -big)])
    assert [s for s in mdp.states if s.startswith("var")] == [
        "var1", "var2", f"var{big}"
    ]
    assert validate(mdp) == []
    assert _ts_zero_variance_exists(mdp)


def test_3sat_padding_matches_explicit_repetition():
    assert gen_3sat([(2,)]) == gen_3sat([(2, 2, 2)])


def test_3sat_validation():
    with pytest.raises(ValueError):
        gen_3sat([(0, 1, 2)])
    with pytest.raises(ValueError):
        gen_3sat([()])
    with pytest.raises(ValueError):
        gen_3sat([(1, 2, 3, 4)])


def test_separation_one_shot():
    report = class_separation_report(
        one_shot_two_arms(), Rat(1, 8), Rat(1, 2)
    )
    assert not report["TS"].feasible
    assert report["TS_U"].feasible
    witness = report["TS_U"].witness
    ev = evaluate_policy(one_shot_two_arms(), witness)
    assert ev.mean >= Rat(1, 8)
    assert ev.variance <= Rat(1, 2)
    assert report["TSW_U"].feasible


def test_separation_offset_chain():
    report = class_separation_report(offset_chain(), 1, 0)
    assert not report["TS"].feasible
    assert not report["TS_U"].feasible
    assert report["TS_U"].detail == "no witness found at resolution 16"
    assert report["TSW"].feasible
    ev = evaluate_policy(offset_chain(), report["TSW"].witness)
    assert (ev.mean, ev.variance) == (1, 0)
    assert report["TSW_U"].feasible


def test_separation_forked_path():
    mdp = forked_path(Rat(1, 4))
    report = class_separation_report(mdp, Rat(1, 4), Rat(1, 2))
    assert not report["TSW"].feasible
    assert report["TSW_U"].feasible
    ev = evaluate_policy(mdp, report["TSW_U"].witness)
    assert ev.mean >= Rat(1, 4)
    assert ev.variance <= Rat(1, 2)


def test_separation_containments():
    rng = random.Random(77)
    floors = [Rat(-1), Rat(0), Rat(1, 2), Rat(1)]
    caps = [Rat(0), Rat(1, 4), Rat(1)]
    for _ in range(10):
        mdp = random_mdp(rng, max_horizon=2)
        report = class_separation_report(
            mdp, rng.choice(floors), rng.choice(caps), grid_resolution=4
        )
        ts = report["TS"].feasible
        ts_u = report["TS_U"].feasible
        tsw = report["TSW"].feasible
        tsw_u = report["TSW_U"].feasible
        assert not ts or ts_u
        assert not ts or tsw
        assert not ts_u or tsw_u
        assert not tsw or tsw_u


def _target(rng, polygon):
    """A seeded (mean floor, variance cap) around the polygon's mean range."""
    means = [m for m, _ in polygon.vertices]
    lo, hi = min(means) - 1, max(means) + 1
    lam = lo + (hi - lo) * Rat(rng.randrange(0, 9), 8)
    return lam, Rat(rng.randrange(0, 9), 4)


def test_tsw_u_verdict_is_lp_at_floor_or_tsw_enumeration():
    rng = random.Random(303)
    verdicts = []
    for mdp in integer_instances(30):
        polygon = compute_pmq(mdp)
        tsw = enumerate_policies(mdp, "TSW")
        for _ in range(2):
            lam, cap = _target(rng, polygon)
            entry = class_feasibility(mdp, "TSW_U", lam, cap)
            # The occupation LP is the status reference, not the polygon.
            status, floor = min_q_over_interval(mdp, lam, lam)
            at_floor = status is LpStatus.OPTIMAL and floor - lam * lam <= cap
            by_tsw = any(m >= lam and v <= cap for _, m, _, v in tsw)
            assert entry.feasible == (at_floor or by_tsw)
            verdicts.append(entry.feasible)
            if entry.feasible:
                assert entry.witness.policy_class == "TSW_U"
                ev = evaluate_policy(mdp, entry.witness)
                assert ev.mean >= lam
                assert ev.variance <= cap
            else:
                assert entry.witness is None
    assert True in verdicts and False in verdicts


def test_exact_pair_feasible_agrees_with_polygon_contains():
    # The two-row occupation LP (mean = m, second moment = q) is the status
    # reference; where it is feasible, the mixture witness and the LP's own
    # both replay to (m, q).
    rng = random.Random(505)
    inside = []
    for mdp in integer_instances(30):
        polygon = compute_pmq(mdp)
        sk = build_polytope(mdp)
        for _ in range(2):
            a = rng.choice(polygon.vertices)
            b = rng.choice(polygon.vertices)
            m = (a[0] + b[0]) / 2
            v = (a[1] + b[1]) / 2 - m * m + Rat(rng.randrange(-1, 2), 4)
            q = v + m * m
            ok, z = exact_pair_feasible(mdp, m, v)
            prob = sk.problem(extra_rows=[(sk.mean_coeffs, m), (sk.sm_coeffs, q)])
            lp = solve(prob, initial_basis=sk._warm)
            assert ok == (lp.status is LpStatus.OPTIMAL)
            assert ok == polygon.contains((m, q))
            if ok:
                for witness in (z, sk.solution_vector(lp)):
                    ev = evaluate_policy(mdp, frequencies_to_policy(mdp, witness))
                    assert (ev.mean, ev.second_moment) == (m, q)
            inside.append(ok)
    assert True in inside and False in inside


def test_class_feasibility_rejects_unknown_class():
    with pytest.raises(ValueError, match="TSX"):
        class_feasibility(offset_chain(), "TSX", 0, 1)


def test_tsw_u_raises_when_the_engines_disagree(monkeypatch):
    monkeypatch.setattr(
        frequency, "solve", lambda *args, **kwargs: LpSolution(LpStatus.INFEASIBLE)
    )
    with pytest.raises(AssertionError, match="disagree"):
        class_feasibility(offset_chain(), "TSW_U", 1, 0)


def _plus_minus_chain():
    """s0 --go--> s1 paying +1 or -1 at 1/2 each; at s1, up pays +1 and down
    pays -1, both into end. Forcing 0 takes down at W = +1 and up at
    W = -1: 4 nodes, over 3 (t, state) pairs."""
    return make_mdp(
        horizon=2,
        states=("s0", "s1", "end"),
        initial_state="s0",
        actions={"s0": ("go",), "s1": ("up", "down"), "end": ("stay",)},
        transitions={
            ("s0", "go"): {"s1": 1},
            ("s1", "up"): {"end": 1},
            ("s1", "down"): {"end": 1},
            ("end", "stay"): {"end": 1},
        },
        rewards={
            ("s0", "go"): {1: Rat(1, 2), -1: Rat(1, 2)},
            ("s1", "up"): {1: 1},
            ("s1", "down"): {-1: 1},
            ("end", "stay"): {0: 1},
        },
    )


def test_forcing_walk_counts_its_nodes_against_the_cap(monkeypatch):
    mdp = _plus_minus_chain()
    result = zero_variance_values(mdp)
    assert result.winning_policy == {
        0: PolicySpec("TSW", {
            (0, "s0", 0): "go", (1, "s1", 1): "down", (1, "s1", -1): "up",
        }),
    }
    assert sum(map(len, model.reach(mdp, model.per_state))) == 3
    # The game's (t, state) pairs fit a cap of 3; the walk's 4 nodes do not.
    monkeypatch.setattr(model, "DEFAULT_NODE_CAP", 3)
    with pytest.raises(
        AugmentationLimitError,
        match="augmented space exceeds 3 nodes at layer 2",
    ):
        zero_variance_values(mdp)


def test_forcing_policy_raises_a_typed_disagreement():
    # A win table that forces nothing contradicts a value said to be forcible.
    mdp = offset_chain()
    win = [defaultdict(frozenset) for _ in range(mdp.horizon + 1)]
    with pytest.raises(EngineDisagreementError, match="no forcing action"):
        games._forcing_policy(mdp, win, 0)


def test_ts_and_tsw_deciders_match_the_list_scan():
    rng = random.Random(707)
    verdicts = []
    for mdp in integer_instances(30):
        polygon = compute_pmq(mdp)
        for tag in ("TS", "TSW"):
            policies = enumerate_policies(mdp, tag)
            for _ in range(2):
                lam, cap = _target(rng, polygon)
                entry = class_feasibility(mdp, tag, lam, cap)
                first = next(
                    ((p, m) for p, m, _, v in policies if m >= lam and v <= cap),
                    None,
                )
                verdicts.append(entry.feasible)
                if first is None:
                    assert entry == games.ClassFeasibility(
                        False, None, "exhaustive enumeration"
                    )
                else:
                    assert entry == games.ClassFeasibility(
                        True, first[0], f"enumerated witness with mean {first[1]}"
                    )
    assert True in verdicts and False in verdicts


def test_enumeration_decider_stops_at_the_first_witness(monkeypatch):
    leaves = []
    walk = games._DecisionWalk.leaves

    def counted(self):
        for leaf in walk(self):
            leaves.append(leaf)
            yield leaf

    monkeypatch.setattr(games._DecisionWalk, "leaves", counted)
    mdp = offset_chain()
    assert len(enumerate_policies(mdp, "TSW")) > 1
    leaves.clear()
    entry = class_feasibility(mdp, "TSW", -100, 100)
    assert entry.feasible and len(leaves) == 1
    monkeypatch.setattr(games, "DEFAULT_POLICY_CAP", 1)
    with pytest.raises(EnumerationLimitError):
        class_feasibility(mdp, "TSW", -100, 100)
    assert len(leaves) == 1


@pytest.mark.parametrize(
    "lam, cap, feasible, detail",
    [
        (0, 1, True, "enumerated witness with mean 29/336"),
        (1, 2, False, "exhaustive enumeration"),
        (Rat(1, 2), Rat(1, 4), True, "enumerated witness with mean 5/8"),
        (2, 5, False, "exhaustive enumeration"),
    ],
)
def test_tsw_search_over_mixed_reward_denominators(lam, cap, feasible, detail):
    # The walk keys its decision points on integer rewards over the
    # denominator 42; the rule keys and the answers are the Rat-keyed ones
    # (verdicts and details as the Rat-keyed walk gave them, and the
    # witness is the reference scan's).
    mdp = mixed_frame_mdp(2)
    entry = class_feasibility(mdp, "TSW", lam, cap)
    assert (entry.feasible, entry.detail) == (feasible, detail)
    assert (entry.feasible, entry.witness, entry.detail) == (
        policy_by_policy_feasibility(mdp, "TSW", lam, cap)
    )
    if feasible:
        assert Rat(-1, 3) in {w for _, _, w in entry.witness.rule}


def test_searched_classes_match_the_policy_by_policy_scan():
    # The walk against one evaluate_policy per policy in product order:
    # same verdict, same first witness and same detail. The reference
    # scans a class only up to 5,000 policies, to bound the test's time;
    # past DEFAULT_POLICY_CAP the walk must refuse the class.
    rng = random.Random(1818)
    mdps = integer_instances(60) + rational_instances(20)
    verdicts = []
    compared = set()
    for index, mdp in enumerate(mdps):
        polygon = compute_pmq(mdp)
        lam, cap = _target(rng, polygon)
        for tag, resolution in (
            ("TS", 1), ("TSW", 1), ("TS_U", 1), ("TS_U", 2), ("TS_U", 3)
        ):
            _, choices = decision_choices(mdp, tag, resolution)
            count = math.prod(len(c) for c in choices)
            if count > games.DEFAULT_POLICY_CAP:
                with pytest.raises(EnumerationLimitError):
                    class_feasibility(mdp, tag, lam, cap, resolution)
                continue
            if count > 5000:
                continue
            entry = class_feasibility(mdp, tag, lam, cap, resolution)
            expected = policy_by_policy_feasibility(mdp, tag, lam, cap, resolution)
            assert (entry.feasible, entry.witness, entry.detail) == expected
            verdicts.append(entry.feasible)
            compared.add(index)
    assert True in verdicts and False in verdicts
    assert len(compared & set(range(60))) == 60
    assert len(compared - set(range(60))) >= 10


@pytest.mark.parametrize(
    "build",
    [
        lambda: gen_subset_sum([Rat(29, 10), 3]),
        lambda: gen_subset_sum([2.9, 3]),
        lambda: gen_subset_sum([True, 3]),
        lambda: gen_3sat([(1.7, 2, 3)]),
        lambda: gen_3sat([(1, 2, False)]),
    ],
    ids=["subset-rat", "subset-float", "subset-bool", "3sat-float", "3sat-bool"],
)
def test_generators_refuse_non_integers(build):
    # int() would build the chain with the value 2, and read the literal 1.
    with pytest.raises(ValueError, match="must be integers"):
        build()


@pytest.mark.parametrize("resolution", [True, 2.0, "4"])
def test_grid_resolution_must_be_an_integer(resolution, monkeypatch):
    # True would search at resolution 1; checked for every class before any
    # search, as a resolution below 1 is.
    walks = []
    walk = games._DecisionWalk
    monkeypatch.setattr(
        games, "_DecisionWalk", lambda *args: walks.append(args) or walk(*args)
    )
    mdp = one_shot_two_arms()
    for tag in ("TS", "TSW", "TS_U", "TSW_U"):
        with pytest.raises(ValueError, match="grid resolution must be an integer"):
            class_feasibility(mdp, tag, 0, 1, grid_resolution=resolution)
    with pytest.raises(ValueError, match="grid resolution must be an integer"):
        class_separation_report(mdp, 0, 1, grid_resolution=resolution)
    assert walks == []
