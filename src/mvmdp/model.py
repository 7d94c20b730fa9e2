"""Finite-horizon MDP model with exact rational dynamics.

An Mdp is a fixed-horizon process: at each step t < horizon the process sits
in a state s, an action a from actions[s] is taken, a reward is drawn from the
pmf rewards[(t, s, a)], and the next state is drawn independently from
transitions[(t, s, a)]. Performance of a policy is measured through the
terminal cumulative reward: its mean, second moment and variance.

Policies come in four classes, named by what the decision rule may observe:

    TS     deterministic,  sees (t, state)
    TS_U   randomized,     sees (t, state)
    TSW    deterministic,  sees (t, state, cumulative reward)
    TSW_U  randomized,     sees (t, state, cumulative reward)

All probabilities and rewards are exact rationals; evaluation is exact.
`reach` is the one forward reachability walk, and every engine walks it:
over augmented (state, cumulative reward) nodes, or over (t, state) pairs
alone. It walks rewards as integers: each positive-probability reward is an
integer numerator over the MDP's reward denominator D (`Mdp.reward_den`,
the least common denominator of those rewards), so a node's cumulative
reward W / D is carried as W, on the one branch table `Mdp.int_branches`.
Each layer it returns is one list of keys (state, b), b the node's W
(`per_node`) or 0 (`per_state`), sorted in state order and then by b, and
every engine reads that list as it is. `occupation` is the one forward
walk of a policy's mass over those nodes, for `evaluate_policy`,
`frequency` and the zero-variance game's forcing policies. `augment` is
the rational view of `reach`, which no engine calls.

The value classes here (`Mdp`, `Violation`, `AugmentedSpace`, `PolicySpec`,
`PolicyEvaluation`) are plain classes: `__slots__` (except `Mdp`, whose
cached `reward_den` needs a `__dict__`) and an explicit `__init__`, so no
method is generated at import. Only `Mdp`, `AugmentedSpace` and `PolicySpec`
define `__eq__`, field by field, as their callers compare them.
"""

from __future__ import annotations

import math
from functools import cached_property, partial

from .errors import AugmentationLimitError, PolicyCoverageError
from .rationals import Rat, ZERO, ONE, is_integer, rat

POLICY_CLASSES = ("TS", "TS_U", "TSW", "TSW_U")
RANDOMIZED_CLASSES = ("TS_U", "TSW_U")
REWARD_AWARE_CLASSES = ("TSW", "TSW_U")

DEFAULT_NODE_CAP = 10**6


class Mdp:
    """Finite-horizon MDP. All maps are total over 0 <= t < horizon.

    transitions: (t, s, a) -> {next_state: probability}
    rewards:     (t, s, a) -> {reward_value: probability}
    Entries with probability zero may be present; int_branches() skips them.
    No field is reassigned after construction: the branch table and
    `reward_den` are filled from them once. Equality compares the six
    fields and ignores those caches.
    """

    def __init__(self, horizon: int, states: tuple[str, ...],
                 initial_state: str, actions: dict[str, tuple[str, ...]],
                 transitions: dict[tuple[int, str, str], dict[str, Rat]],
                 rewards: dict[tuple[int, str, str], dict[Rat, Rat]]):
        self.horizon = horizon
        self.states = states
        self.initial_state = initial_state
        self.actions = actions
        self.transitions = transitions
        self.rewards = rewards
        self._table = {}

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (
            (self.horizon, self.states, self.initial_state, self.actions,
             self.transitions, self.rewards)
            == (other.horizon, other.states, other.initial_state,
                other.actions, other.transitions, other.rewards)
        )

    def with_rewards(self, rewards: dict) -> Mdp:
        """This MDP with its reward table replaced: a new Mdp, so its branch
        table and reward_den start empty."""
        return Mdp(self.horizon, self.states, self.initial_state,
                   self.actions, self.transitions, rewards)

    @cached_property
    def reward_den(self) -> int:
        """D: the least common denominator of the positive-probability
        reward values (1 if none), computed once."""
        return math.lcm(*(
            int(value.denominator)
            for pmf in self.rewards.values()
            for value, prob in pmf.items()
            if prob > 0
        ))

    def int_branches(self, t: int, s: str, a: str) -> tuple:
        """Positive-probability branches of the factored kernel at (t, s, a).

        One (next_state, R, reward, p * g) per next state s2 with
        p = transitions[(t, s, a)][s2] > 0 and reward with
        g = rewards[(t, s, a)][reward] > 0, R = reward * reward_den; next
        states in row order, rewards in pmf order within each. Computed
        once per (t, s, a) and cached: the MDP's one branch table.
        """
        key = (t, s, a)
        out = self._table.get(key)
        if out is None:
            den = self.reward_den
            pmf = [
                (int(r.numerator) * (den // int(r.denominator)), r, g)
                for r, g in self.rewards[key].items() if g > 0
            ]
            out = tuple(
                (s2, step, r, p * g)
                for s2, p in self.transitions[key].items() if p > 0
                for step, r, g in pmf
            )
            self._table[key] = out
        return out

    @property
    def reward_bound(self) -> Rat:
        """Largest |reward value| carrying positive probability (0 if none)."""
        bound = ZERO
        for pmf in self.rewards.values():
            for value, prob in pmf.items():
                if prob > 0 and abs(value) > bound:
                    bound = abs(value)
        return bound

    @property
    def mean_bound(self) -> Rat:
        """reward_bound * horizon; |terminal cumulative reward| never exceeds it."""
        return self.reward_bound * self.horizon

    def integer_rewards(self) -> bool:
        return self.reward_den == 1


def make_mdp(horizon, states, initial_state, actions, transitions, rewards) -> Mdp:
    """Normalizing constructor: coerces numbers to Rat and keys to canonical form.

    transitions/rewards may be keyed (t, s, a) or (s, a); (s, a) entries are
    expanded to every step (stationary dynamics), all steps sharing the one
    converted row, since no row of an Mdp is ever mutated. A step covered by
    both a stationary and a per-step entry raises ValueError: neither may win
    silently. So does a horizon at or above DEFAULT_NODE_CAP (read at call
    time; every walk keeps horizon + 1 nonempty layers), or one giving the
    two tables more than DEFAULT_NODE_CAP rows in all, one transition row
    and one reward pmf per step and (state, action) pair, declared or keyed
    by a stationary entry; both are checked before anything is expanded.
    """
    if not is_integer(horizon):
        raise ValueError(f"horizon must be an integer, got {horizon!r}")
    if horizon >= DEFAULT_NODE_CAP:
        raise ValueError(
            f"horizon {horizon} is not below the node cap {DEFAULT_NODE_CAP}"
        )
    states = tuple(states)
    actions = {s: tuple(acts) for s, acts in actions.items()}
    pairs = {(s, a) for s, acts in actions.items() for a in acts}
    pairs.update(k for table in (transitions, rewards) for k in table if len(k) == 2)
    rows = 2 * horizon * len(pairs)
    if rows > DEFAULT_NODE_CAP:
        raise ValueError(
            f"horizon {horizon} with {len(pairs)} (state, action) pairs gives "
            f"{rows} dynamics rows, above the cap {DEFAULT_NODE_CAP}"
        )

    def expand(table, convert_key, what):
        out = {}
        for key, row in table.items():
            if len(key) == 3:
                t, s, a = key
                if not is_integer(t):
                    raise ValueError(f"{what} step must be an integer, got {t!r}")
                steps = (t,)
            elif len(key) == 2:
                s, a = key
                steps = range(horizon)
            else:
                raise ValueError(f"bad dynamics key {key!r}")
            converted = convert_key(row)
            for t in steps:
                if (t, s, a) in out:
                    raise ValueError(
                        f"{what} for ({s!r}, {a!r}) at step {t} given twice: "
                        "stationary and per-step entries overlap"
                    )
                out[(t, s, a)] = converted
        return out

    transitions = expand(
        transitions, lambda row: {s2: rat(p) for s2, p in row.items()}, "transitions"
    )
    rewards = expand(
        rewards, lambda pmf: {rat(v): rat(p) for v, p in pmf.items()}, "rewards"
    )
    return Mdp(horizon, states, initial_state, actions, transitions, rewards)


class Violation:
    """One validation failure, locating the offending (t, s, a) when applicable."""

    __slots__ = ("location", "message")

    def __init__(self, location: tuple, message: str):
        self.location = location
        self.message = message

    def __str__(self) -> str:
        where = ", ".join(str(p) for p in self.location)
        return f"[{where}] {self.message}" if self.location else self.message


def validate(mdp: Mdp) -> list[Violation]:
    """Every invariant violation; empty list iff the Mdp is well-formed."""
    out: list[Violation] = []
    state_set = set(mdp.states)
    if mdp.horizon < 1:
        out.append(Violation((), f"horizon must be >= 1, got {mdp.horizon}"))
    if len(state_set) != len(mdp.states):
        out.append(Violation((), "duplicate state names"))
    if mdp.initial_state not in state_set:
        out.append(Violation((), f"initial state {mdp.initial_state!r} not a state"))
    for s in mdp.states:
        acts = mdp.actions.get(s)
        if not acts:
            out.append(Violation((s,), "state has no actions"))
        elif len(set(acts)) != len(acts):
            out.append(Violation((s,), "duplicate action names"))
    for s in mdp.actions:
        if s not in state_set:
            out.append(Violation((s,), "actions given for unknown state"))

    # A state without actions costs nothing per step.
    pairs = [(s, a) for s in mdp.states for a in mdp.actions.get(s, ())]
    for t in range(max(mdp.horizon, 0)):
        for s, a in pairs:
            loc = (t, s, a)
            row = mdp.transitions.get(loc)
            if row is None:
                out.append(Violation(loc, "missing transition row"))
            else:
                total = ZERO
                for s2, p in row.items():
                    if s2 not in state_set:
                        out.append(Violation(loc, f"transition to unknown state {s2!r}"))
                    if p < 0:
                        out.append(Violation(loc, f"negative transition probability {p}"))
                    total += p
                if total != 1:
                    out.append(Violation(loc, f"transition probabilities sum to {total}, not 1"))
            pmf = mdp.rewards.get(loc)
            if pmf is None:
                out.append(Violation(loc, "missing reward pmf"))
            else:
                total = ZERO
                for _, p in pmf.items():
                    if p < 0:
                        out.append(Violation(loc, f"negative reward probability {p}"))
                    total += p
                if total != 1:
                    out.append(Violation(loc, f"reward probabilities sum to {total}, not 1"))

    for (t, s, a) in list(mdp.transitions) + list(mdp.rewards):
        if not (0 <= t < mdp.horizon):
            out.append(Violation((t, s, a), f"dynamics entry outside horizon 0..{mdp.horizon - 1}"))
        elif s not in state_set or a not in mdp.actions.get(s, ()):
            out.append(Violation((t, s, a), "dynamics entry for unknown state/action"))
    return out


def per_state(s, w) -> tuple:
    """Node (s, w) folds into its state: one key (s, 0) per reachable
    (t, state)."""
    return s, 0


def per_node(s, w) -> tuple:
    """Node (s, w) is its own key."""
    return s, w


def reach(mdp: Mdp, place, max_nodes: int | None = None) -> list:
    """Forward reachability: layers[t] lists the keys (s, b) reached at
    step t (t = 0..horizon), sorted in mdp.states order and then by b.

    Cumulative rewards are integers over mdp.reward_den: node (s, w) has
    earned w / reward_den, and a branch with integer reward R takes it to
    (s', w + R) (`Mdp.int_branches`). Node (s, w) lives at key
    place(s, w) = (s, b), and the walk goes on from it as if b had been
    earned. Rational rewards can make the node layers grow exponentially,
    hence the cap on the keys: more than max_nodes in all
    (DEFAULT_NODE_CAP, read at call time, when left out) raise
    AugmentationLimitError.
    """
    if max_nodes is None:
        max_nodes = DEFAULT_NODE_CAP
    order = {s: i for i, s in enumerate(mdp.states)}
    layer = [place(mdp.initial_state, 0)]
    layers = [layer]
    total = 1
    for t in range(mdp.horizon):
        nxt = set()
        for s, base in layer:
            for a in mdp.actions[s]:
                for s2, step, _, _ in mdp.int_branches(t, s, a):
                    nxt.add(place(s2, base + step))
        total += len(nxt)
        if total > max_nodes:
            raise AugmentationLimitError(
                f"augmented space exceeds {max_nodes} nodes at layer {t + 1}"
            )
        layer = sorted(nxt, key=lambda key: (order[key[0]], key[1]))
        layers.append(layer)
    return layers


class AugmentedSpace:
    """Reachable (state, cumulative reward) pairs, layered by step.

    layers[t] lists the pairs reachable at step t, t = 0..horizon; the order is
    deterministic (state order as in mdp.states, then reward value).
    """

    __slots__ = ("layers",)

    def __init__(self, layers: tuple[tuple[tuple[str, Rat], ...], ...]):
        self.layers = layers

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.layers == other.layers

    @property
    def node_count(self) -> int:
        return sum(len(layer) for layer in self.layers)

    def layer(self, t: int) -> tuple[tuple[str, Rat], ...]:
        return self.layers[t]


def augment(mdp: Mdp, max_nodes: int | None = None) -> AugmentedSpace:
    """The per_node walk of `reach`, with each reward built as a Rat
    here; max_nodes caps it as in `reach`."""
    den = mdp.reward_den
    layers = reach(mdp, per_node, max_nodes)
    return AugmentedSpace(layers=tuple(
        tuple((s, Rat(w, den)) for s, w in layer) for layer in layers
    ))


class PolicySpec:
    """A decision rule for one of the four policy classes.

    rule keys are (t, s) for TS/TS_U and (t, s, w) for TSW/TSW_U; values are an
    action name (deterministic classes) or {action: probability} (randomized).
    A randomized rule's probabilities enter through `rationals.rat`, here and
    only here, so a float or bool raises TypeError.
    """

    __slots__ = ("policy_class", "rule")

    def __init__(self, policy_class: str, rule: dict):
        if policy_class not in POLICY_CLASSES:
            raise ValueError(f"unknown policy class {policy_class!r}")
        self.policy_class = policy_class
        if self.randomized:
            rule = {k: {a: rat(p) for a, p in c.items()} for k, c in rule.items()}
        self.rule = rule

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.policy_class, self.rule) == (other.policy_class, other.rule)

    @property
    def randomized(self) -> bool:
        return self.policy_class in RANDOMIZED_CLASSES

    @property
    def reward_aware(self) -> bool:
        return self.policy_class in REWARD_AWARE_CLASSES

    def action_pmf(self, t: int, s: str, w) -> dict[str, Rat]:
        """Action distribution at a decision point; raises PolicyCoverageError."""
        key = (t, s, w) if self.reward_aware else (t, s)
        try:
            choice = self.rule[key]
        except KeyError:
            raise PolicyCoverageError(
                f"policy ({self.policy_class}) has no rule at {key}"
            ) from None
        if self.randomized:
            return choice
        return {choice: ONE}


def check_policy(mdp: Mdp, policy: PolicySpec) -> list[Violation]:
    """Static checks: known actions, distributions sum to 1 and are nonnegative."""
    out: list[Violation] = []
    for key, choice in policy.rule.items():
        s = key[1]
        acts = mdp.actions.get(s, ())
        if policy.randomized:
            total = ZERO
            for a, p in choice.items():
                if a not in acts:
                    out.append(Violation(key, f"unknown action {a!r}"))
                if p < 0:
                    out.append(Violation(key, f"negative action probability {p}"))
                total += p
            if total != 1:
                out.append(Violation(key, f"action probabilities sum to {total}, not 1"))
        else:
            if choice not in acts:
                out.append(Violation(key, f"unknown action {choice!r}"))
    return out


def played_actions(mdp: Mdp, policy: PolicySpec, t: int, s: str, w: int) -> dict:
    """The policy's positive-probability actions at `reach`'s integer node
    (t, s, W); a reward-aware rule is read at W / D. Raises
    PolicyCoverageError on a missing rule or an action s does not have."""
    if policy.reward_aware:
        w = Rat(w, mdp.reward_den)
    played = {}
    for a, pa in policy.action_pmf(t, s, w).items():
        if pa == 0:
            continue
        if a not in mdp.actions[s]:
            raise PolicyCoverageError(
                f"policy picks unknown action {a!r} at (t={t}, s={s})"
            )
        played[a] = pa
    return played


def occupation(mdp: Mdp, pmf, weight: Rat):
    """The one forward walk of a policy whose action law at integer node
    (t, s, W) is pmf(t, s, W), on `reach`'s integers: yields
    (t, s, W, mass, flows) for each node it reaches with nonzero mass, in
    the order the walk meets them. mass is weight times the node's
    probability, and flows lists (action, mass * pa), empty at the horizon.
    Reaching more than DEFAULT_NODE_CAP nodes raises as `reach` does.
    """
    total = 1
    dist = {(mdp.initial_state, 0): weight}
    for t in range(mdp.horizon + 1):
        nxt: dict = {}
        for (s, w), mass in dist.items():
            if mass == 0:
                continue
            if t == mdp.horizon:
                yield t, s, w, mass, ()
                continue
            flows = [(a, mass * pa) for a, pa in pmf(t, s, w).items()]
            yield t, s, w, mass, flows
            for a, flow in flows:
                for s2, step, _, pg in mdp.int_branches(t, s, a):
                    key = (s2, w + step)
                    nxt[key] = nxt.get(key, ZERO) + flow * pg
        total += len(nxt)
        if total > DEFAULT_NODE_CAP:
            raise AugmentationLimitError(f"augmented space exceeds "
                                         f"{DEFAULT_NODE_CAP} nodes at layer {t + 1}")
        dist = nxt


class PolicyEvaluation:
    """Exact performance of a policy: terminal-cumulative-reward statistics;
    terminal is the pmf of the terminal cumulative reward."""

    __slots__ = ("mean", "second_moment", "variance", "terminal")

    def __init__(self, mean: Rat, second_moment: Rat, variance: Rat,
                 terminal: dict[Rat, Rat]):
        self.mean = mean
        self.second_moment = second_moment
        self.variance = variance
        self.terminal = terminal


def evaluate_policy(mdp: Mdp, policy: PolicySpec) -> PolicyEvaluation:
    """Exact forward propagation of the joint (state, cumulative reward)
    law (`occupation`); terminal is keyed by the Rat W / D."""
    den = mdp.reward_den
    terminal: dict[Rat, Rat] = {}
    pmf = partial(played_actions, mdp, policy)
    for t, _, w, mass, _ in occupation(mdp, pmf, ONE):
        if t == mdp.horizon:
            w = Rat(w, den)
            terminal[w] = terminal.get(w, ZERO) + mass
    mean = sum((w * m for w, m in terminal.items()), ZERO)
    second = sum((w * w * m for w, m in terminal.items()), ZERO)
    return PolicyEvaluation(
        mean=mean,
        second_moment=second,
        variance=second - mean * mean,
        terminal=terminal,
    )
