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
augmented node's own polygon, in the plane. One walk serves both modes:
every key (s, b) holds its polygon relative to its own reward, so the
key's moment set is S_{b/D} of what it holds. A node then holds F(t, s)
until pruning drops a vertex at it or below it, and the nodes of one
state that read the same children share one polygon. The walk keys
(t, state) until a stage has a polygon pruning could thin and augmented
nodes from then on; exact mode keys states throughout. It reads
`reach`'s layers, lists of keys (state, b): b is 0 per (t, state), and
per node it is W, the node's cumulative reward as an integer over the
MDP's reward denominator D (`Mdp.reward_den`), so keys hash and compare
as ints.
"""

from __future__ import annotations

from bisect import bisect_left

from .errors import AugmentationLimitError
from .geometry import MomentPolygon, hull_of_union, prune_polygon, sheared_sum
from .model import Mdp, per_node, per_state, reach
from .rationals import Rat, rat

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


def backward_step(mdp: Mdp, t: int, rel: dict, stage: list, place) -> dict:
    """Stage-t polygons, one per key (s, b) of stage, each relative to b.

    Rewards are integers over D = mdp.reward_den, as `reach` walks them.
    rel maps each stage-(t+1) key (s', b') to its polygon in its own
    frame: the key's moment set is S_{b'/D}(rel[(s', b')]). A branch
    (s', R, r, pg) takes node (s, b) to (s', b + R), whose key is
    place(s', b + R). Shears are affine and pg sums to 1 over an action's
    branches, so key (s, b)'s own polygon is the hull over actions
    (hull_of_union) of the sums over branches, each action's in one
    sheared_sum, of pg * S_r(rel[place(s', b + R)]): b drops out. That
    polygon depends on s and its children's polygons only, so it is built
    once per distinct (s, children) in the call, keyed on the children's
    values, and every key that reads the same ones shares it.

    Zero-probability branches are skipped; a reachable child with no
    polygon raises KeyError naming (t + 1, s', (b + R) / D).
    """
    den = mdp.reward_den
    out = {}
    built = {}
    for key in stage:
        s, base = key
        per_action = []
        for a in mdp.actions[s]:
            parts = []
            for s2, step, r, pg in mdp.int_branches(t, s, a):
                child = rel.get(place(s2, base + step))
                if child is None:
                    raise KeyError(f"missing moment set for ({t + 1}, {s2}, "
                                   f"{Rat(base + step, den)})")
                parts.append((child, pg, r))
            per_action.append(parts)
        # reach(mdp, per_state) lists a state once a stage: nothing to share.
        shared = key if place is per_state else (
            s, tuple(part[0] for parts in per_action for part in parts))
        poly = built.get(shared)
        if poly is None:
            poly = built[shared] = hull_of_union(
                [sheared_sum(parts) for parts in per_action])
        out[key] = poly
    return out


def compute_pmq(mdp: Mdp, prune_eps=None) -> MomentPolygon:
    """The polygon of achievable (mean, second moment) pairs at the root.

    Stages are built backwards, each from the one after it only, and every
    key (s, b) holds its polygon relative to its own reward b / D
    (backward_step). The walk keys (t, state): b is 0, and the polygon is
    F(t, s). With prune_eps set (a nonnegative exact rational), every
    node's stage-t polygon (t < horizon) is thinned right after its stage
    is computed, in the plane, so earlier stages build on the pruned sets.
    Pruning keeps every vertex of a point or a segment, so the walk stays
    on states until a stage has a state polygon of three or more vertices.
    From that stage on it keys nodes (s, W): each node's polygon is moved
    to the plane with MomentPolygon.sheared(W, D) and pruned, and, when
    pruning dropped a vertex, moved back with sheared(-W, D). Exact mode
    stays on states.

    A stage whose nodes' polygons hold more than MAX_STAGE_SIZE vertices in
    total, before pruning, raises AugmentationLimitError; while the walk
    keys states, each node counts its state's polygon, and exact mode
    counts each state's once. No stage builds its rationals, so the
    root's vertices are the only ones built, when the caller reads them.
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
    place = per_state
    rel = dict.fromkeys([(s, 0) for s, _ in stages[-1]], MomentPolygon.sure(0))
    for t in reversed(range(mdp.horizon)):
        keys = list(dict.fromkeys(place(s, w) for s, w in stages[t]))
        rel = backward_step(mdp, t, rel, keys, place)
        vertices = sum(len(rel[place(s, w)].points) for s, w in stages[t])
        check_stage_size(t, vertices, "moment polygons", "vertices")
        if threshold_sq is not None and place is per_state and any(
                len(poly.points) > 2 for poly in rel.values()):
            place = per_node
            rel = {(s, w): rel[(s, 0)] for s, w in stages[t]}
        if place is per_node:
            for (s, w), poly in rel.items():
                if len(poly.points) > 2:
                    plane = poly.sheared(w, den)
                    kept = prune_polygon(plane, threshold_sq)
                    if len(kept.points) < len(plane.points):
                        rel[(s, w)] = kept.sheared(-w, den)
    return rel[(mdp.initial_state, 0)]


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
