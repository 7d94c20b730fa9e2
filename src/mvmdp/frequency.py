"""Occupation-measure polytope over the augmented space, and its LP queries.

For a policy, z_sa(t, (s, w), a) is the probability of being in state s with
accumulated reward w at step t and taking action a; z_x(t, (s, w)) is the
state marginal. Ranging over all history-dependent randomized policies, these
vectors form a polytope described exactly by:

    - nonnegativity,
    - unit mass on the initial point: z_x(0, (s0, 0)) = 1,
    - action-marginal coupling: sum_a z_sa(t, x, a) = z_x(t, x),
    - flow conservation through the factored kernel
      p_t(s'|s,a) * g_t(w'-w|s,a) into every layer-(t+1) point.

Unreachable (s, w) pairs are omitted entirely; the polytope over the reachable
layers is the same. Every terminal statistic of interest (mean and second
moment of the cumulative reward) is linear in z, which is what makes the
mean-variance questions below linear programs.

The skeleton and the forward walk (`model.occupation`) run on `reach`'s
integer nodes (s, W), w = W / D for D = `Mdp.reward_den`. The Rat W / D
is built only where a key leaves this module (a FrequencyVector's keys)
or meets a caller's (a given policy's rule, in `model.played_actions`).

Every query is a standard-form LP (equality rows, nonnegative columns): a
side condition such as "mean in [lo, hi]" is an extra row with its own
slack column. Skeletons are immutable after construction; each query builds
a fresh LpProblem, so concurrent queries against one skeleton are safe.

The witness queries (`exact_pair_feasible`, `mean_fixed_var_bounded`) take
their answer from the root moment polygon, and build the witness without
the polytope's constraint system: a mixture of at most three vertex
policies (`_moment_witness`), each a forward walk reading its actions off
the exact stage polygons (`vertex_policy`), which `frequencies_to_policy`
turns into one behavioural policy (Kuhn's theorem). The constraint system
backs the cross-check LPs (`terminal_lower_hull`, `min_q_over_interval`)
and `check_frequency`.
"""

from __future__ import annotations

from functools import partial

from .errors import EngineDisagreementError
from .geometry import MomentPolygon
from .lp import LpProblem, LpSolution, LpStatus, solve
from .model import Mdp, PolicySpec, occupation, per_node, played_actions, reach
from .rationals import Rat, ZERO, ONE, rat
from .setdp import backward_walk, exact_frontier


class FrequencyVector:
    """Occupation measures keyed (t, s, w, a) and (t, s, w), w a Rat."""

    __slots__ = ("z_sa", "z_x")

    def __init__(self, z_sa: dict, z_x: dict):
        self.z_sa = z_sa
        self.z_x = z_x

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.z_sa, self.z_x) == (other.z_sa, other.z_x)

    def terminal_mean(self, horizon: int) -> Rat:
        return sum(
            (w * m for (t, _, w), m in self.z_x.items() if t == horizon), ZERO
        )

    def terminal_second_moment(self, horizon: int) -> Rat:
        return sum(
            (w * w * m for (t, _, w), m in self.z_x.items() if t == horizon), ZERO
        )


class PolytopeSkeleton:
    """Constraint system of the polytope with a fixed variable order.

    Variables: one per z_sa entry (t < horizon), then one per z_x entry
    (t <= horizon), keyed (t, s, W, a) and (t, s, W) on `reach`'s integer
    rewards, each layer in `reach`'s (state, W) order. Rows: initial mass,
    couplings in layer order, flows in layer order. The ordering makes the
    policy that always takes the first action a triangular warm basis for
    the solver (`_warm`, row -> column): each coupling row takes its node's
    first action, and the mass and flow rows their node's z_x. Its basic
    values are that policy's occupation measure, and `run` starts from it.
    A query is a standard-form LP: these rows, then its own extra rows,
    over these columns and its own extra nonnegative columns.
    """

    def __init__(self, mdp: Mdp):
        self.mdp = mdp
        layers = reach(mdp, per_node)
        self.sa_keys = [
            (t, s, w, a)
            for t in range(mdp.horizon) for s, w in layers[t] for a in mdp.actions[s]
        ]
        self.x_keys = [(t, s, w) for t, layer in enumerate(layers) for s, w in layer]
        self.sa_index = {k: i for i, k in enumerate(self.sa_keys)}
        base = len(self.sa_keys)
        self.x_index = {k: base + i for i, k in enumerate(self.x_keys)}
        self.num_vars = base + len(self.x_keys)

        s0, w0 = layers[0][0]
        self.rows: list = [({self.x_index[(0, s0, w0)]: ONE}, ONE)]
        self._warm: dict[int, int] = {0: self.x_index[(0, s0, w0)]}
        for t in range(mdp.horizon):
            for s, w in layers[t]:
                coeffs = {self.sa_index[(t, s, w, a)]: ONE for a in mdp.actions[s]}
                coeffs[self.x_index[(t, s, w)]] = -ONE
                first = self.sa_index[(t, s, w, mdp.actions[s][0])]
                self._warm[len(self.rows)] = first
                self.rows.append((coeffs, ZERO))
        inflow: dict = {key: {} for key in self.x_keys if key[0] > 0}
        for var, (t, s, w, a) in enumerate(self.sa_keys):
            for s2, r, _, pg in mdp.int_branches(t, s, a):
                row = inflow[(t + 1, s2, w + r)]
                row[var] = row.get(var, ZERO) - pg
        for t in range(1, mdp.horizon + 1):
            for s, w in layers[t]:
                coeffs = dict(inflow[(t, s, w)])
                coeffs[self.x_index[(t, s, w)]] = ONE
                self._warm[len(self.rows)] = self.x_index[(t, s, w)]
                self.rows.append((coeffs, ZERO))

        horizon = mdp.horizon
        self.mean_coeffs = {
            self.x_index[(horizon, s, w)]: Rat(w, mdp.reward_den)
            for s, w in layers[horizon] if w != 0
        }
        self.sm_coeffs = {j: c * c for j, c in self.mean_coeffs.items()}

    def problem(
        self,
        objective: dict | None = None,
        extra_rows: list | None = None,
        extra_vars: int = 0,
    ) -> LpProblem:
        """Fresh LpProblem: base constraints plus optional extra rows/variables.

        extra_vars new nonnegative columns get indices num_vars,
        num_vars + 1, ...; extra rows may reference them.
        """
        prob = LpProblem(
            num_vars=self.num_vars + extra_vars,
            objective=objective or {},
            rows=self.rows,
        )
        for coeffs, rhs in extra_rows or []:
            prob.add_row(coeffs, rhs)
        return prob

    def solution_vector(self, sol: LpSolution) -> FrequencyVector:
        den, x = self.mdp.reward_den, sol.x

        def entries(index):
            return {k[:2] + (Rat(k[2], den),) + k[3:]: x[i] for k, i in index.items()}

        return FrequencyVector(z_sa=entries(self.sa_index), z_x=entries(self.x_index))

    def run(
        self,
        objective: dict | None = None,
        extra_rows: list | None = None,
        extra_vars: int = 0,
    ) -> LpSolution:
        prob = self.problem(objective, extra_rows, extra_vars)
        return solve(prob, initial_basis=self._warm)


def build_polytope(mdp: Mdp) -> PolytopeSkeleton:
    """Constraint skeleton (no objective) for the frequency polytope."""
    return PolytopeSkeleton(mdp)


def check_frequency(skeleton: PolytopeSkeleton, z: FrequencyVector) -> list[str]:
    """Exact constraint residual check; empty list iff z is in the polytope.
    A missing entry reads as 0, and a nonzero one with no variable (an
    unreachable node, a reward off the 1/D grid, an unknown action) fails."""
    problems = []
    den = skeleton.mdp.reward_den
    values = [ZERO] * skeleton.num_vars
    for entries, index in ((z.z_sa, skeleton.sa_index), (z.z_x, skeleton.x_index)):
        for key, v in entries.items():
            w = key[2] * den
            var = key[:2] + (int(w),) + key[3:] if w.denominator == 1 else None
            if var in index:
                values[index[var]] = v
            elif v != 0:
                problems.append(f"entry {key} = {v} is not a variable")
    if any(v < 0 for v in values):
        problems.append("negative entry")
    for idx, (coeffs, rhs) in enumerate(skeleton.rows):
        total = sum((c * values[j] for j, c in coeffs.items()), ZERO)
        if total != rhs:
            problems.append(f"row {idx} residual {total - rhs}")
    return problems


def exact_pair_feasible(
    mdp: Mdp, mean, variance, stages: dict | None = None
) -> tuple[bool, FrequencyVector | None]:
    """Is there a policy with exactly this (mean, variance) of the cumulative reward?

    Yes iff the root moment polygon holds (mean, variance + mean^2); only
    then is a witness built (`_moment_witness`) from stages, the exact
    `dict(backward_walk(mdp))`, which are built here when left out.
    """
    mean = rat(mean)
    second = rat(variance) + mean * mean
    stages = stages or dict(backward_walk(mdp))
    face = stages[0][(mdp.initial_state, 0)].locate((mean, second))
    if face is None:
        return False, None
    return True, _moment_witness(mdp, stages, face, mean, second)


def mean_fixed_var_bounded(
    mdp: Mdp, mean, variance_cap
) -> tuple[bool, FrequencyVector | None]:
    """Is there a policy with this exact mean and variance <= variance_cap?

    Yes iff the least variance at this mean, read off the root polygon's
    lower chain, is at most the cap; the witness attains that variance,
    from `exact_pair_feasible`, and a chain point the polygon misses raises
    EngineDisagreementError.
    """
    mean = rat(mean)
    cap = rat(variance_cap)
    stages = dict(backward_walk(mdp))
    second = exact_frontier(stages[0][(mdp.initial_state, 0)]).second_moment(mean)
    if second is None or second - mean * mean > cap:
        return False, None
    ok, z = exact_pair_feasible(mdp, mean, second - mean * mean, stages)
    if not ok:
        raise EngineDisagreementError(
            f"moment polygon and its frontier disagree: the lower chain holds "
            f"({mean}, {second}), the polygon does not"
        )
    return True, z


def _moment_witness(
    mdp: Mdp, stages: dict, face: tuple, mean: Rat, second: Rat
) -> FrequencyVector:
    """Occupation measure of a policy whose terminal moments are exactly
    (mean, second), a point of the root polygon of stages: a mixture of
    at most three vertex policies.

    face is what `MomentPolygon.locate` found for the point: the polygon
    triangle that holds it, or the point or segment that is its own face.
    A three-row LP over the face's vertices (`_vertex_weights`) gives the
    weights alpha. Each vertex of positive weight is attained by the
    policy `vertex_policy` reads off stages for its direction
    `MomentPolygon.inner_normal`, and z = sum alpha * (its occupation
    measure), one forward walk per policy. Occupation measures are linear
    under mixing, so z lies in the occupation polytope with exactly the
    target moments. An LP that finds the point infeasible, or a mixture
    that misses the target, raises EngineDisagreementError.
    """
    polygon = stages[0][(mdp.initial_state, 0)]
    sol = _vertex_weights(polygon, face, mean, second)
    if sol.status is not LpStatus.OPTIMAL:
        raise EngineDisagreementError(
            f"moment polygon and occupation LP disagree: the polygon holds "
            f"({mean}, {second}), the LP is {sol.status.value}"
        )
    z = FrequencyVector(z_sa={}, z_x={})
    for i, alpha in zip(face, sol.x):
        if alpha == 0:
            continue
        _add_occupation(mdp, vertex_policy(mdp, stages, polygon.inner_normal(i)), alpha, z)
    reached = (z.terminal_mean(mdp.horizon), z.terminal_second_moment(mdp.horizon))
    if reached != (mean, second):
        raise EngineDisagreementError(
            f"moment polygon and vertex policies disagree: the polygon holds "
            f"({mean}, {second}), the mixture reaches {reached}"
        )
    return z


def _vertex_weights(
    polygon: MomentPolygon, face: tuple, mean: Rat, second: Rat
) -> LpSolution:
    """Weights alpha >= 0 on the vertices of face, the face that
    `MomentPolygon.locate` found for (mean, second), with sum alpha = 1 and
    sum alpha * vertex = (mean, second). A standard-form LP gives them:
    one column per face vertex and these three rows.

    A triangle (0, k - 1, k) starts from its full basis, row j on column
    j, so phase 1 does not run and `solve` computes the barycentric
    weights exactly, checking that they are nonnegative. No pivot is
    zero: the triangle is not flat, and vertices[0] is the lexicographic
    minimum, so only the last vertex can share its mean, which the middle
    column never is. A point or a segment takes the cold start.
    """
    vs = polygon.vertices
    prob = LpProblem(num_vars=len(face))
    prob.add_row({j: ONE for j in range(len(face))}, ONE)
    prob.add_row({j: vs[i][0] for j, i in enumerate(face)}, mean)
    prob.add_row({j: vs[i][1] for j, i in enumerate(face)}, second)
    basis = {0: 0, 1: 1, 2: 2} if len(face) == 3 else None
    return solve(prob, initial_basis=basis)


def vertex_policy(mdp: Mdp, stages: dict, direction: tuple):
    """Action law pmf(t, s, W) of a deterministic TSW policy minimizing
    E[c0 R + c1 R^2], direction = (c0, c1) and R = W / D the terminal
    reward; a direction strictly inside a vertex's normal cone reaches that
    vertex. D^2 times the least objective from (t, s, W) is v(t, s, W) =
    c0 D W + c1 W^2 + D h(F(t, s), (c0 D + 2 c1 W, c1 D)), h(F, (a, b)) the
    least a m + b q over F, F(t, s) = stages[t][(s, 0)]. pmf takes the
    first action least in sum pg * v(t + 1, s', W + R) over its branches:
    the backward DP's own values and tie-break, at the nodes it reaches."""
    c1, den = direction[1], mdp.reward_den
    c0d, b = direction[0] * den, c1 * den

    def pmf(t, s, w):
        best = None
        for action in mdp.actions[s]:
            v = ZERO
            for s2, r, _, pg in mdp.int_branches(t, s, action):
                poly, w2 = stages[t + 1][(s2, 0)], w + r
                a = c0d + 2 * c1 * w2
                low = min(a * x + b * y for x, y in poly.points)
                v += pg * Rat(w2 * (c0d + c1 * w2) * poly.d + den * low, poly.d)
            if best is None or v < best:
                best, choice = v, action
        return {choice: ONE}

    return pmf


def min_q_over_interval(mdp: Mdp, lo, hi) -> tuple[LpStatus, Rat | None]:
    """Smallest achievable second moment with the mean confined to [lo, hi]."""
    lo = rat(lo)
    hi = rat(hi)
    if lo > hi:
        raise ValueError("empty interval")
    sk = build_polytope(mdp)
    sol = _min_q(sk, lo, hi)
    if sol.status is not LpStatus.OPTIMAL:
        return LpStatus.INFEASIBLE, None
    return LpStatus.OPTIMAL, sol.value


def _min_q(sk: PolytopeSkeleton, lo: Rat, hi: Rat) -> LpSolution:
    if lo == hi:
        return sk.run(objective=sk.sm_coeffs, extra_rows=[(sk.mean_coeffs, lo)])
    # mean - w = lo with the window 0 <= w <= hi - lo stated as w + s = hi - lo.
    window = sk.num_vars
    mean_row = dict(sk.mean_coeffs)
    mean_row[window] = -ONE
    return sk.run(
        objective=sk.sm_coeffs,
        extra_rows=[(mean_row, lo), ({window: ONE, window + 1: ONE}, hi - lo)],
        extra_vars=2,
    )


def frequencies_to_policy(mdp: Mdp, z: FrequencyVector) -> PolicySpec:
    """Behavioral policy with action law z_sa / z_x at each node of positive
    mass, holding only its actions of positive probability; nodes of zero
    mass, which the policy never reaches, get no rule.

    Evaluating the result reproduces z's terminal moments exactly.
    """
    rule = {}
    for (t, s, w), mass in z.z_x.items():
        if t >= mdp.horizon or mass == 0:
            continue
        played = ((a, z.z_sa.get((t, s, w, a), ZERO)) for a in mdp.actions[s])
        rule[(t, s, w)] = {a: pa / mass for a, pa in played if pa > 0}
    return PolicySpec("TSW_U", rule)


def policy_frequencies(mdp: Mdp, policy: PolicySpec) -> FrequencyVector:
    """Occupation measures induced by a policy: its forward walk
    (`model.occupation`, through `model.played_actions`), with entries only
    for the nodes that walk meets; `check_frequency` reads a missing entry
    as 0."""
    z = FrequencyVector(z_sa={}, z_x={})
    _add_occupation(mdp, partial(played_actions, mdp, policy), ONE, z)
    return z


def _add_occupation(mdp: Mdp, pmf, weight: Rat, z: FrequencyVector) -> None:
    """Add weight times the occupation measure of the policy whose action
    law at integer node (t, s, W) is pmf(t, s, W) into z: the masses and
    flows `model.occupation` yields, keyed by W / D."""
    den = mdp.reward_den
    z_x, z_sa = z.z_x, z.z_sa
    for t, s, w, mass, flows in occupation(mdp, pmf, weight):
        x = (t, s, Rat(w, den))
        z_x[x] = z_x.get(x, ZERO) + mass
        for a, flow in flows:
            sa = x + (a,)
            z_sa[sa] = z_sa.get(sa, ZERO) + flow


def terminal_lower_hull(mdp: Mdp) -> list[tuple[Rat, Rat]]:
    """Vertices of the lower boundary of the achievable (mean, second moment)
    set, left to right. Purely LP-driven (support directions with an exact
    lexicographic second stage), independent of the geometric DP engine.
    """
    sk = build_polytope(mdp)

    lo_sol = sk.run(objective=sk.mean_coeffs)
    hi_sol = sk.run(objective={j: -c for j, c in sk.mean_coeffs.items()})
    lam_min = lo_sol.value
    lam_max = -hi_sol.value
    q_at_min = _min_q(sk, lam_min, lam_min).value
    left = (lam_min, q_at_min)
    if lam_min == lam_max:
        return [left]
    q_at_max = _min_q(sk, lam_max, lam_max).value
    right = (lam_max, q_at_max)

    def support_objective(a: tuple, b: tuple) -> dict:
        # minimize (q1 - q2) * mean + (lam2 - lam1) * q: constant along the
        # chord a-b, smaller strictly below it.
        ca = a[1] - b[1]
        cb = b[0] - a[0]
        coeffs: dict = {}
        for j, c in sk.mean_coeffs.items():
            coeffs[j] = ca * c
        for j, c in sk.sm_coeffs.items():
            coeffs[j] = coeffs.get(j, ZERO) + cb * c
        return coeffs

    def between(a: tuple, b: tuple) -> list:
        coeffs = support_objective(a, b)
        sol = sk.run(objective=coeffs)
        f_star = sol.value
        f_chord = (a[1] - b[1]) * a[0] + (b[0] - a[0]) * a[1]
        if f_star == f_chord:
            return []
        # Lexicographic stage: leftmost point of the optimal face is a vertex.
        lam_sol = sk.run(objective=sk.mean_coeffs, extra_rows=[(coeffs, f_star)])
        lam_c = lam_sol.value
        q_c = (f_star - (a[1] - b[1]) * lam_c) / (b[0] - a[0])
        c = (lam_c, q_c)
        return between(a, c) + [c] + between(c, b)

    return [left] + between(left, right) + [right]
