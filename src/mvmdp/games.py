"""Zero-variance reachability game, policy enumeration, class separations,
and hardness-reduction instance generators.

The zero-variance question (can the cumulative reward be made equal to some
constant k surely?) is a reachability game on the augmented graph: the
controller picks actions, an adversary picks any positive-probability
branch. What can be forced from (t, s, w) is w plus what can be forced from
(t, s) with nothing earned, so one backward pass over the (t, state) pairs
`model.reach` walks answers the question for every k and every node at once.
Each forcing policy is read off the one forward walk, `model.occupation`,
so its nodes count against `model.DEFAULT_NODE_CAP`. The game runs on
`reach`'s integers: a value or a cumulative reward is an integer K over
D = `Mdp.reward_den`, and the Rat K / D is built only where it leaves the
game (`GameResult`).

Policy enumeration is the brute-force oracle used to validate the optimizing
modules on small instances: one depth-first walk over the reachable decision
points yields every TS or TSW policy, or every TS_U grid policy, in product
order with its exact terminal mean and second moment. It carries each
stage's moments (P, E[W 1{key}], E[W^2 1{key}]) per (state) or (state,
reward) key forward under the choices made so far, so a policy costs a few
additions at its last decision point, not an evaluation from scratch.
"""

from __future__ import annotations

import math

from .errors import EngineDisagreementError, EnumerationLimitError
from .model import (
    Mdp,
    PolicySpec,
    make_mdp,
    occupation,
    per_node,
    per_state,
    reach,
)
from .rationals import Rat, ZERO, ONE, is_integer, rat
from .setdp import backward_walk, check_stage_size, exact_frontier

DEFAULT_POLICY_CAP = 10**6


class GameResult:
    """Forcible terminal values and a deterministic forcing policy for each:
    the game's integers K over D = `Mdp.reward_den`, built as the Rat K / D
    here, as are the forcing policies' rule keys."""

    __slots__ = ("achievable_values", "winning_policy")

    def __init__(self, achievable_values: frozenset, winning_policy: dict):
        self.achievable_values = achievable_values
        self.winning_policy = winning_policy


def zero_variance_values(mdp: Mdp) -> GameResult:
    """All k such that the cumulative reward can be forced to equal k.

    The values forcible from node (t, s, w) are w + G(t, s), where
    G(T, s) = {0} and earlier G(t, s) is the union over actions of the
    intersection over positive-probability branches (s', r) of
    r + G(t+1, s'). A stage whose sets hold more than setdp.MAX_STAGE_SIZE
    values in total, or a forcing policy (`_forcing_policy`) that reaches
    more than model.DEFAULT_NODE_CAP nodes, raises AugmentationLimitError.
    """
    den = mdp.reward_den
    forcible = _forcible_sets(mdp)
    policies = {
        Rat(k, den): _forcing_policy(mdp, forcible, k)
        for k in sorted(forcible[0][mdp.initial_state])
    }
    return GameResult(achievable_values=frozenset(policies), winning_policy=policies)


def _forcible_sets(mdp: Mdp) -> list:
    """G(t, s) of `zero_variance_values` for each reachable (t, s), as one
    {state: frozenset} per step; each integer K in G(t, s) stands for K / D,
    and a branch adds its integer reward R (`Mdp.int_branches`)."""
    stages = reach(mdp, per_state)
    horizon = mdp.horizon
    forcible: list = [None] * (horizon + 1)
    forcible[horizon] = {s: frozenset((0,)) for s, _ in stages[horizon]}
    for t in reversed(range(horizon)):
        layer = {}
        for s, _ in stages[t]:
            values = set()
            for a in mdp.actions[s]:
                common = None
                for s2, step, _, _ in mdp.int_branches(t, s, a):
                    child = {step + v for v in forcible[t + 1][s2]}
                    common = child if common is None else common & child
                    if not common:
                        break
                if common:
                    values |= common
            layer[s] = frozenset(values)
        size = sum(len(values) for values in layer.values())
        check_stage_size(t, size, "forcible sets", "values")
        forcible[t] = layer
    return forcible


def _forcing_policy(mdp: Mdp, forcible: list, k: int) -> PolicySpec:
    """The policy forcing K / D, read off `model.occupation`'s walk on
    integer nodes (s, W): at each node reached, the first action whose
    branches (s', R) all keep K - W - R in G(t+1, s'). Rule keys carry
    W / D."""
    den = mdp.reward_den

    def force(t, s, w):
        for a in mdp.actions[s]:
            if all(k - w - r in forcible[t + 1][s2]
                   for s2, r, _, _ in mdp.int_branches(t, s, a)):
                return {a: ONE}
        raise EngineDisagreementError(
            f"no forcing action at ({t}, {s}, {Rat(w, den)})"
        )

    rule = {
        (t, s, Rat(w, den)): flows[0][0]
        for t, s, w, _, flows in occupation(mdp, force, ONE)
        if flows
    }
    return PolicySpec("TSW", rule)


def enumerate_policies(mdp: Mdp, class_tag: str) -> list:
    """Every deterministic policy of the class with its exact (J, Q, V), in
    product order over the decision points (`_DecisionWalk`).

    class_tag is "TS" (decides per reachable (t, state)) or "TSW" (per
    reachable (t, state, cumulative reward)). More than DEFAULT_POLICY_CAP
    policies raise EnumerationLimitError.
    """
    if class_tag not in ("TS", "TSW"):
        raise ValueError(f"enumeration covers TS and TSW, not {class_tag!r}")
    walk = _DecisionWalk(mdp, class_tag, 1)
    return [
        (walk.policy(), mean, second, second - mean * mean)
        for mean, second in walk.leaves()
    ]


class _DecisionWalk:
    """Every TS, TSW or TS_U grid policy, lazily, in product order over the
    reachable decision points, each with its exact terminal mean and second
    moment, from one depth-first walk instead of one evaluation per policy.

    The points are the keys (state, b) `reach` lists with `per_state`
    ((t, state), for TS and TS_U) or `per_node` ((t, state, reward), for
    TSW, the reward built as a Rat from `reach`'s integer b), stage by
    stage, each stage in `reach`'s order. A point with k actions has
    C(resolution + k - 1, k - 1) options: its actions (k, at resolution 1)
    or its TS_U grid vectors, each an option of positive entries (action
    index, c) for probability c / resolution. Their product is checked
    against DEFAULT_POLICY_CAP before anything else is built. A point's
    options are made on each pass over them (`_options`), so the walk holds
    none but the ones chosen, and a rule dict is built only by `policy`.

    The walk carries, for each key of a stage, the exact moments (P,
    E[W 1{key}], E[W^2 1{key}]) under the options chosen so far; a branch
    (s', r, pg) pushes them one stage forward as pg * (p, m1 + r p,
    m2 + 2 r m1 + r^2 p). On entering a stage for a given prefix it pushes
    each point's moments through each action once, over the resolution; an
    option then adds sum_a c_a * push_a to the next stage. The last stage
    pushes every key into one terminal pair, so a leaf reads (mean, second
    moment) there.
    """

    def __init__(self, mdp: Mdp, class_tag: str, resolution: int):
        self.mdp = mdp
        self.class_tag = class_tag
        self.resolution = resolution
        self.horizon = mdp.horizon
        place = per_node if class_tag == "TSW" else per_state
        stages = reach(mdp, place)
        total = 1
        for stage in stages[:mdp.horizon]:
            for s, _ in stage:
                k = len(mdp.actions[s])
                total *= math.comb(resolution + k - 1, k - 1)
                if total > DEFAULT_POLICY_CAP:
                    noun = "grid" if class_tag == "TS_U" else class_tag
                    raise EnumerationLimitError(
                        f"more than {DEFAULT_POLICY_CAP} {noun} policies"
                    )
        self.points = []
        self.chosen = []
        # Per stage, one (position, slot, per-action branch sums, action
        # count) per point; a key's slot is 3 * its index in the stage.
        self.stages = []
        for t in range(mdp.horizon):
            slot = None
            if t + 1 < mdp.horizon:
                slot = {key: 3 * i for i, key in enumerate(stages[t + 1])}
            entries = []
            for i, (s, base) in enumerate(stages[t]):
                acts = mdp.actions[s]
                sums = [
                    _branch_sums(mdp, t, s, a, base, place, slot, resolution)
                    for a in acts
                ]
                entries.append((len(self.points), 3 * i, sums, len(acts)))
                if place is per_node:
                    self.points.append((t, s, Rat(base, mdp.reward_den)))
                else:
                    self.points.append((t, s))
                self.chosen.append(next(self._options(len(acts))))
            self.stages.append(entries)

    def _options(self, k: int):
        """A point's k actions as options ((a, 1),), or its TS_U grid
        vectors in lexicographic order (`_simplex_grid`)."""
        if self.class_tag == "TS_U":
            return _simplex_grid(k, self.resolution)
        return (((a, 1),) for a in range(k))

    def leaves(self):
        """(mean, second moment) of every policy, in product order; `policy`
        names the one just yielded."""
        if not self.horizon:  # the one, empty policy earns 0 surely
            return self._advance(0, [ZERO, ZERO])
        return self._advance(0, [ONE, ZERO, ZERO])

    def policy(self) -> PolicySpec:
        """The policy of the leaf last yielded."""
        grid = self.class_tag == "TS_U"
        rule = {}
        for point, option in zip(self.points, self.chosen):
            acts = self.mdp.actions[point[1]]
            if grid:
                rule[point] = {
                    acts[a]: Rat(c, self.resolution) for a, c in option
                }
            else:
                rule[point] = acts[option[0][0]]
        return PolicySpec(self.class_tag, rule)

    def _advance(self, t: int, dist: list):
        """Leaves below stage t, whose keys carry the moments dist. Each
        point with one action, so one option, is pushed at once; the others
        become the (position, action count, pushes) levels `_choose`
        branches on, with pushes None where the prefix gives the point no
        mass. A stage with no level is passed through without branching."""
        while t < self.horizon:
            last = t + 1 == self.horizon
            acc = [ZERO] * (2 if last else 3 * len(self.stages[t + 1]))
            levels = []
            for position, j, sums, k in self.stages[t]:
                pushes = None
                if dist[j]:
                    pushes = _pushes(sums, *dist[j:j + 3], last)
                if k > 1:
                    levels.append((position, k, pushes))
                elif pushes is not None:
                    _add(acc, self.chosen[position], pushes)
            if levels:
                yield from self._choose(t, levels, 0, acc)
                return
            dist, t = acc, t + 1
        yield dist[0], dist[1]

    def _choose(self, t: int, levels: list, n: int, acc: list):
        """Leaves below level n of stage t, one option of the level at a
        time; acc holds what the earlier levels added to stage t + 1."""
        position, k, pushes = levels[n]
        chosen = self.chosen
        deeper = n + 1 < len(levels)
        leaf = not deeper and t + 1 == self.horizon
        for option in self._options(k):
            chosen[position] = option
            if pushes is None:
                nxt = acc
            else:
                nxt = acc.copy()
                _add(nxt, option, pushes)
            if leaf:
                yield nxt[0], nxt[1]
            elif deeper:
                yield from self._choose(t, levels, n + 1, nxt)
            else:
                yield from self._advance(t + 1, nxt)


def _branch_sums(mdp: Mdp, t: int, s, a, base, place, slot, resolution) -> list:
    """Action a's branches (s', R, r, pg) at (t, s) grouped by the next
    stage's slot, the one of key place(s', base + R) (`reach`'s integer
    rewards, base the point's b), as (slot, g0, g1, 2 g1, g2) with
    gi = sum pg r^i / resolution; with slot None every branch goes to the
    terminal pair at 0."""
    grouped: dict = {}
    for s2, step, r, pg in mdp.int_branches(t, s, a):
        k = 0 if slot is None else slot[place(s2, base + step)]
        sums = grouped.setdefault(k, [ZERO, ZERO, ZERO])
        sums[0] += pg
        sums[1] += pg * r
        sums[2] += pg * r * r
    out = []
    for k, sums in grouped.items():
        if resolution > 1:
            sums = [g / resolution for g in sums]
        g0, g1, g2 = sums
        out.append((k, g0, g1, g1 + g1, g2))
    return out


def _pushes(sums: list, p, m1, m2, last: bool) -> list:
    """Per action, the nonzero (index, delta) that moments (p, m1, m2) at a
    point add to the next stage through that action's branch sums: to a
    slot's (p, m1, m2), or to the terminal (mean, second moment) pair when
    last."""
    out = []
    for action in sums:
        entries = []
        for k, g0, g1, g1x2, g2 in action:
            deltas = (g0 * m1 + g1 * p, g0 * m2 + g1x2 * m1 + g2 * p)
            if not last:
                deltas = (g0 * p,) + deltas
            entries.extend((i, d) for i, d in enumerate(deltas, k) if d)
        out.append(entries)
    return out


def _add(acc: list, option: tuple, pushes: list) -> None:
    """acc += sum over the option's (action, c) of c * that action's pushes:
    its probability c / resolution times the action's deltas."""
    for a, c in option:
        for i, d in pushes[a]:
            acc[i] += d if c == 1 else d * c


def _simplex_grid(k: int, m: int):
    """Every k-vector of nonnegative integers summing to m, in lexicographic
    order, each as its positive entries (index, c). The successor of a
    vector moves one unit from its last positive entry (p, c), p > 0, to
    index p - 1 and puts the other c - 1 units on index k - 1; the last
    vector is (m, 0, ..., 0). A vector costs its entry count, and nothing
    is sized by the number of vectors."""
    option = ((k - 1, m),) if m else ()
    while True:
        yield option
        if not option or option[-1][0] == 0:
            return
        *head, (p, c) = option
        if head and head[-1][0] == p - 1:
            head[-1] = (p - 1, head[-1][1] + 1)
        else:
            head.append((p - 1, 1))
        if c > 1:
            head.append((k - 1, c - 1))
        option = tuple(head)


class ClassFeasibility:
    __slots__ = ("feasible", "witness", "detail")

    def __init__(self, feasible: bool, witness: PolicySpec | None, detail: str):
        self.feasible = feasible
        self.witness = witness
        self.detail = detail

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.feasible, self.witness, self.detail)
                == (other.feasible, other.witness, other.detail))


def class_separation_report(
    mdp: Mdp,
    mean_floor,
    variance_cap,
    grid_resolution: int = 16,
) -> dict:
    """{class tag: ClassFeasibility} for (mean >= mean_floor, variance <=
    variance_cap) in the order TS, TSW, TS_U, TSW_U, each decided on its own
    by class_feasibility, the enumerations first."""
    return {
        tag: class_feasibility(
            mdp, tag, mean_floor, variance_cap, grid_resolution
        )
        for tag in ("TS", "TSW", "TS_U", "TSW_U")
    }


def class_feasibility(
    mdp: Mdp,
    class_tag: str,
    mean_floor,
    variance_cap,
    grid_resolution: int = 16,
) -> ClassFeasibility:
    """Is there a class_tag policy with mean >= mean_floor and variance <=
    variance_cap?

    TS and TSW are decided exactly by enumeration. TS_U searches behavioral
    probabilities on a grid with grid_resolution levels per simplex: sound
    when it finds a witness, inconclusive otherwise (reported as no witness
    found at that resolution). Both are one `_DecisionWalk` in product
    order, stopped at the first policy that meets the target, whose rule is
    built then and only then; DEFAULT_POLICY_CAP caps both searches. TSW_U
    is decided exactly by the root moment polygon's frontier, which gives
    the least variance at mean >= mean_floor and a point (m, q) attaining
    it; exact_pair_feasible at that point gives the witness. A
    grid_resolution that is not an int, or is below 1, raises ValueError
    for every class, before any search.
    """
    if not is_integer(grid_resolution):
        raise ValueError(
            f"grid resolution must be an integer, got {grid_resolution!r}"
        )
    if grid_resolution < 1:
        raise ValueError("grid resolution must be at least 1")
    lam = rat(mean_floor)
    cap = rat(variance_cap)
    if class_tag in ("TS", "TSW", "TS_U"):
        grid = class_tag == "TS_U"
        walk = _DecisionWalk(mdp, class_tag, grid_resolution if grid else 1)
        for mean, second in walk.leaves():
            if mean >= lam and second - mean * mean <= cap:
                found = "grid" if grid else "enumerated"
                return ClassFeasibility(
                    True, walk.policy(), f"{found} witness with mean {mean}"
                )
        if grid:
            return ClassFeasibility(
                False, None, f"no witness found at resolution {grid_resolution}"
            )
        return ClassFeasibility(False, None, "exhaustive enumeration")
    if class_tag != "TSW_U":
        raise ValueError(f"unknown policy class {class_tag!r}")
    stages = dict(backward_walk(mdp))
    best = exact_frontier(stages[0][(mdp.initial_state, 0)]).argmin(lam)
    if best is None or best[0] > cap:
        return ClassFeasibility(
            False, None, f"least variance at mean >= {lam} exceeds the cap"
        )
    from .frequency import exact_pair_feasible, frequencies_to_policy

    value, (mean, _) = best
    _, z = exact_pair_feasible(mdp, mean, value, stages)
    return ClassFeasibility(
        True,
        frequencies_to_policy(mdp, z),
        f"occupation-measure witness with mean {mean}",
    )


def gen_subset_sum(values) -> Mdp:
    """Walk instance: one fair coin step to an absorbing exit, else a chain
    where step i adds or subtracts values[i]. Forcing total 0 surely needs
    the exit branch's 0 and a sign assignment balancing the values, which
    must be positive ints (anything else raises ValueError)."""
    values = list(values)
    if not all(map(is_integer, values)):
        raise ValueError(f"values must be integers, got {values!r}")
    if not values:
        raise ValueError("need at least one value")
    if any(v <= 0 for v in values):
        raise ValueError("values must be positive")
    n = len(values)
    items = tuple(f"item{i}" for i in range(1, n + 1))
    states = ("toss",) + items + ("done", "out")
    actions = {"toss": ("go",), "done": ("stay",), "out": ("stay",)}
    transitions = {
        ("toss", "go"): {"out": Rat(1, 2), "item1": Rat(1, 2)},
        ("done", "stay"): {"done": ONE},
        ("out", "stay"): {"out": ONE},
    }
    rewards = {
        ("toss", "go"): {ZERO: ONE},
        ("done", "stay"): {ZERO: ONE},
        ("out", "stay"): {ZERO: ONE},
    }
    for i, value in enumerate(values, start=1):
        state = f"item{i}"
        target = f"item{i + 1}" if i < n else "done"
        actions[state] = ("plus", "minus")
        transitions[(state, "plus")] = {target: ONE}
        transitions[(state, "minus")] = {target: ONE}
        rewards[(state, "plus")] = {Rat(value): ONE}
        rewards[(state, "minus")] = {Rat(-value): ONE}
    return make_mdp(
        horizon=n + 1,
        states=states,
        initial_state="toss",
        actions=actions,
        transitions=transitions,
        rewards=rewards,
    )


def gen_3sat(clauses) -> Mdp:
    """Satisfiability instance over signed integer literals (3 per clause,
    shorter clauses padded by repeating the last literal); a literal that
    is not a nonzero int raises ValueError.

    One uniform draw sends the process to an absorbing exit or to a clause;
    at a clause, picking a literal pays its sign; at the literal's variable,
    the truth choice pays the opposite sign iff it satisfies that literal.
    A state-only deterministic policy has identically zero total reward iff
    its truth assignment satisfies every clause.
    """
    padded = []
    for clause in clauses:
        lits = list(clause)
        if not all(map(is_integer, lits)):
            raise ValueError(f"literals must be integers, got {clause!r}")
        if not lits or len(lits) > 3:
            raise ValueError("clauses need one to three literals")
        if any(l == 0 for l in lits):
            raise ValueError("literals are nonzero signed integers")
        while len(lits) < 3:
            lits.append(lits[-1])
        padded.append(tuple(lits))
    m = len(padded)
    clause_states = tuple(f"clause{j}" for j in range(1, m + 1))
    # Only the variables that occur get a state, so the state count is set
    # by the clause list, not by the largest literal.
    var_ids = sorted({abs(l) for c in padded for l in c})
    var_states = tuple(f"var{i}" for i in var_ids)
    states = ("draw",) + clause_states + var_states + ("out",)
    actions = {"draw": ("go",), "out": ("stay",)}
    share = Rat(1, m + 1)
    first = {"out": share}
    for cs in clause_states:
        first[cs] = share
    transitions = {
        ("draw", "go"): first,
        ("out", "stay"): {"out": ONE},
    }
    rewards = {
        ("draw", "go"): {ZERO: ONE},
        ("out", "stay"): {ZERO: ONE},
    }
    for cs, lits in zip(clause_states, padded):
        actions[cs] = ("lit1", "lit2", "lit3")
        for name, lit in zip(actions[cs], lits):
            transitions[(cs, name)] = {f"var{abs(lit)}": ONE}
            rewards[(cs, name)] = {Rat(1 if lit > 0 else -1): ONE}
    for vs in var_states:
        actions[vs] = ("set_true", "set_false")
        transitions[(vs, "set_true")] = {"out": ONE}
        transitions[(vs, "set_false")] = {"out": ONE}
        rewards[(vs, "set_true")] = {Rat(-1): ONE}
        rewards[(vs, "set_false")] = {ONE: ONE}
    return make_mdp(
        horizon=3,
        states=states,
        initial_state="draw",
        actions=actions,
        transitions=transitions,
        rewards=rewards,
    )
