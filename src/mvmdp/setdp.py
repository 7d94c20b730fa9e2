"""Backward recursion over achievable moment sets.

The achievable pairs (conditional terminal mean, conditional terminal second
moment) at augmented node (t, s, w) form a convex polygon. The future seen
from (t, s) does not depend on the reward w earned so far, so that polygon is
S_w(F(t, s)): the shear S_w(m, q) = (m + w, q + 2wm + w^2) adds w to every
terminal reward, and the state's reward-to-go polygon F(t, s) is (0, 0) at
the horizon and earlier the hull over actions of the probability-weighted
Minkowski sums of the children S_r(F(t+1, s')). The root polygon collects
every (mean, second moment) pair any randomized reward-aware policy can
achieve, and variance questions become one-dimensional optimizations over it:

    minimize q - m^2   concave, so attained at a polygon vertex;
    maximize q - m^2   linear in q, so attained on the upper boundary,
                       analytically per edge;
    v*(m0) = min variance subject to mean >= m0: piecewise, from the lower
             boundary and a suffix minimum over its vertices.

An action's branches are sheared, weighed and summed in one walk over
their children's edges (geometry.sheared_sum), and the actions' sums
hulled (geometry.hull_of_union). These and pruning (geometry.prune_polygon)
run on the integer frame every MomentPolygon holds, so no stage builds
rationals; only the root's vertices are built, when the caller reads them.

An optional pruning mode caps polygon growth: each stage polygon is greedily
thinned to a vertex subset within prune_eps/(2 * horizon) of the unpruned
stage polygon, which keeps the final polygon within prune_eps of exact.
Pruning does not commute with the shear, so that mode prunes every
augmented node's own polygon. But a node's polygon stays S_w(F(t, s))
until pruning drops a vertex at it or below it, so one walk serves both
modes. It keeps the state polygons F(t, s), and, per node pruning has
bitten, that node's own pruned polygon; a node with no bitten child is
its state polygon sheared (MomentPolygon.sheared), and only a node with
one builds its own sum. Exact mode is the walk with nothing bitten. The
walk reads `reach`'s layers, lists of keys (state, b): b is 0 per
(t, state), and per node it is W, the node's cumulative reward as an
integer over the MDP's reward denominator (`Mdp.reward_den`), so keys
hash and compare as ints.
"""

from __future__ import annotations

from bisect import bisect_left

from .errors import AugmentationLimitError
from .geometry import MomentPolygon, hull_of_union, prune_polygon, sheared_sum
from .model import Mdp, per_node, per_state, reach
from .rationals import Rat, ZERO, rat

# Largest total size of one stage, checked before pruning: the vertices of
# its moment polygons, or the values of its forcible sets in the game.
MAX_STAGE_SIZE = 10**6


def check_stage_size(t: int, size: int, holders: str, items: str) -> None:
    """Raise AugmentationLimitError if stage t holds more than MAX_STAGE_SIZE."""
    if size > MAX_STAGE_SIZE:
        raise AugmentationLimitError(
            f"stage-{t} {holders} hold {size} {items}, above the cap of "
            f"{MAX_STAGE_SIZE}"
        )


def backward_step(mdp: Mdp, t: int, state: dict, bitten: dict, stage: list) -> dict:
    """Stage-t polygons, one per key (s, b) of stage, from stage t+1's.

    Rewards are integers over D = mdp.reward_den, as `reach` walks them.
    state maps (s', 0) to the state polygon F(t+1, s'), and bitten maps
    each node (s', W) that pruning changed, at it or below it, to its own
    pruned polygon. Key (s, b)'s polygon is the hull over actions
    (hull_of_union) of the sums over branches (s', R, r, pg), each
    action's in one sheared_sum, of pg * bitten[(s', b+R)] for a bitten
    child and pg * S_{(b+R)/D}(F(t+1, s')) for any other. With nothing
    bitten, key (s, 0) gets F(t, s), and each shift is the branch's own
    reward r; only b != 0 builds a shift Rat(b + R, D).

    Zero-probability branches are skipped; a reachable child in neither
    map raises KeyError naming (t + 1, s', (b + R) / D).
    """
    den = mdp.reward_den
    out = {}
    for key in stage:
        s, base = key
        per_action = []
        for a in mdp.actions[s]:
            parts = []
            for s2, step, r, pg in mdp.int_branches(t, s, a):
                w = base + step
                child = bitten.get((s2, w)) if bitten else None
                if child is not None:
                    parts.append((child, pg, ZERO))
                    continue
                child = state.get((s2, 0))
                if child is None:
                    raise KeyError(
                        f"missing moment set for ({t + 1}, {s2}, {Rat(w, den)})"
                    )
                parts.append((child, pg, Rat(w, den) if base else r))
            per_action.append(sheared_sum(parts))
        out[key] = hull_of_union(per_action)
    return out


def _reads_bitten(mdp: Mdp, t: int, key: tuple, bitten: dict) -> bool:
    """Whether node key = (s, W) at stage t has a child in bitten."""
    s, base = key
    return any(
        (s2, base + step) in bitten
        for a in mdp.actions[s]
        for s2, step, _, _ in mdp.int_branches(t, s, a)
    )


def compute_pmq(mdp: Mdp, prune_eps=None) -> MomentPolygon:
    """The polygon of achievable (mean, second moment) pairs at the root.

    Stages are built backwards over the keys `reach` walks, each from the
    one after it only: per (t, state) when exact, per augmented node when
    pruned. With prune_eps set (a nonnegative exact rational), every
    node's stage-t polygon (t < horizon) is thinned right after its stage
    is computed, so earlier stages build on the pruned sets.

    A node is bitten when pruning dropped one of its vertices or it has a
    bitten child. The walk keeps F(t, s) for every state with a node that
    has no bitten child, since that node's polygon is F(t, s) sheared by
    its W, and the pruned polygon of every bitten node; only a node with a
    bitten child sums its own parts. Exact mode bites nothing. A stage
    whose nodes' polygons hold more than MAX_STAGE_SIZE vertices in total,
    before pruning, raises AugmentationLimitError. No stage builds its
    rationals, so the root's vertices are the only ones built, when the
    caller reads them.
    """
    threshold_sq = None
    if prune_eps is not None:
        prune_eps = rat(prune_eps)
        if prune_eps < 0:
            raise ValueError(f"prune budget must be nonnegative: {prune_eps}")
        # A horizon-0 MDP has no stage to prune and keeps its exact point.
        per_stage = prune_eps / (2 * max(mdp.horizon, 1))
        threshold_sq = per_stage * per_stage
    stages = reach(mdp, per_state if threshold_sq is None else per_node)
    den = mdp.reward_den
    origin = MomentPolygon.sure(0)
    state = {(s, 0): origin for s, _ in stages[-1]}
    bitten = {}
    for t in reversed(range(mdp.horizon)):
        clean, mixed = stages[t], []
        if bitten:
            clean = []
            for key in stages[t]:
                reads = _reads_bitten(mdp, t, key, bitten)
                (mixed if reads else clean).append(key)
        nodes = backward_step(mdp, t, state, bitten, mixed) if mixed else {}
        states = list(dict.fromkeys((s, 0) for s, _ in clean))
        state = backward_step(mdp, t, state, {}, states)
        vertices = sum(len(state[(s, 0)].points) for s, _ in clean) + sum(
            len(poly.points) for poly in nodes.values()
        )
        check_stage_size(t, vertices, "moment polygons", "vertices")
        if threshold_sq is not None:
            bitten = {
                key: prune_polygon(poly, threshold_sq)
                for key, poly in nodes.items()
            }
            for s, w in clean:
                poly = state[(s, 0)]
                # Pruning keeps every vertex of a point or a segment.
                if len(poly.points) > 2:
                    poly = poly.sheared(w, den)
                    kept = prune_polygon(poly, threshold_sq)
                    if len(kept.points) < len(poly.points):
                        bitten[(s, w)] = kept
    root = (mdp.initial_state, 0)
    return bitten[root] if root in bitten else state[root]


class ExactFrontier:
    """v(m0) = min variance subject to mean >= m0, exactly.

    chain is the lower boundary of the moment polygon, left to right, and
    best[i] = (variance, vertex) is the cheapest vertex of chain[i:]. Left of
    the chain v is constant at best[0]; past it v is +infinity (None). On the
    edge ending at chain[i], q - m^2 is concave, so the cheapest point with
    mean >= m0 is the boundary at m0 itself or the vertex best[i]. lowest is
    the mean of the chain's vertex with the least second moment.
    """

    __slots__ = ("chain", "best", "lowest")

    def __init__(self, chain: tuple, best: tuple, lowest: Rat):
        self.chain = chain
        self.best = best
        self.lowest = lowest

    @classmethod
    def of_chain(cls, chain) -> ExactFrontier:
        """Frontier of a lower boundary given as vertices left to right."""
        chain = tuple(chain)
        best = []
        for m, q in reversed(chain):
            value = q - m * m
            if not best or value <= best[-1][0]:
                best.append((value, (m, q)))
            else:
                best.append(best[-1])
        lowest = min(chain, key=lambda v: v[1])[0]
        return cls(chain=chain, best=tuple(reversed(best)), lowest=lowest)

    @property
    def lam_min(self) -> Rat:
        return self.chain[0][0]

    @property
    def lam_max(self) -> Rat:
        return self.chain[-1][0]

    def second_moment(self, m) -> Rat | None:
        """The boundary's q at mean m: the least second moment of any policy
        with mean exactly m; None when no policy has mean m."""
        m = rat(m)
        if not self.lam_min <= m <= self.lam_max:
            return None
        i = bisect_left(self.chain, m, key=lambda v: v[0])
        m1, q1 = self.chain[i]
        if m1 == m:
            return q1
        m0, q0 = self.chain[i - 1]
        return q0 + (q1 - q0) * (m - m0) / (m1 - m0)

    def min_second_moment(self, lo, hi) -> Rat | None:
        """Least second moment of any policy with mean in [lo, hi]; None
        when no policy has such a mean. The chain is convex, so that is the
        chain at its lowest vertex clamped into the interval. lo > hi
        raises ValueError."""
        lo = rat(lo)
        hi = rat(hi)
        if lo > hi:
            raise ValueError("empty interval")
        return self.second_moment(min(max(self.lowest, lo), hi))

    def argmin(self, lam) -> tuple | None:
        """(v(lam), (m, q)): an achievable pair with m >= lam attaining
        v(lam); None past the largest achievable mean."""
        lam = rat(lam)
        if lam > self.lam_max:
            return None
        if lam <= self.lam_min:
            return self.best[0]
        q = self.second_moment(lam)
        cut = q - lam * lam
        tail = self.best[bisect_left(self.chain, lam, key=lambda v: v[0])]
        return (cut, (lam, q)) if cut < tail[0] else tail

    def value(self, lam) -> Rat | None:
        hit = self.argmin(lam)
        return None if hit is None else hit[0]


def exact_frontier(polygon: MomentPolygon) -> ExactFrontier:
    return ExactFrontier.of_chain(polygon.lower_chain())


def min_variance(polygon: MomentPolygon) -> tuple:
    """Smallest q - m^2 over the polygon, with the leftmost vertex attaining
    it; concave, so a vertex of the lower chain does."""
    return exact_frontier(polygon).best[0]


def max_variance(polygon: MomentPolygon) -> tuple:
    """Largest q - m^2 over the polygon; the witness may sit inside an edge."""
    best = None
    witness = None
    for m, q in polygon.vertices:
        value = q - m * m
        if best is None or value > best:
            best, witness = value, (m, q)
    chain = polygon.upper_chain()
    for (m0, q0), (m1, q1) in zip(chain, chain[1:]):
        slope = (q1 - q0) / (m1 - m0)
        peak = slope / 2
        if m0 < peak < m1:
            q = q0 + slope * (peak - m0)
            value = q - peak * peak
            if value > best:
                best, witness = value, (peak, q)
    return best, witness
