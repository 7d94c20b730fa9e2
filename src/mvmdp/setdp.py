"""Backward recursion over achievable moment sets.

For each augmented node (s, w) at stage t, the set of achievable pairs
(conditional terminal mean, conditional terminal second moment) is a convex
polygon. At the horizon it is the single point (w, w^2); one stage earlier it
is the hull, over actions, of the probability-weighted Minkowski sums of the
child polygons. The root polygon at (initial state, 0) collects every
(mean, second moment) pair any randomized reward-aware policy can achieve,
and variance questions become one-dimensional optimizations over it:

    minimize q - m^2   concave, so attained at a polygon vertex;
    maximize q - m^2   linear in q, so attained on the upper boundary,
                       analytically per edge;
    v*(m0) = min variance subject to mean >= m0: piecewise, from the lower
             boundary and a suffix minimum over its vertices.

An optional pruning mode caps polygon growth: each stage polygon is greedily
thinned to a vertex subset within prune_eps/(2 * horizon) of the unpruned
stage polygon, which keeps the final polygon within prune_eps of exact.
"""

from __future__ import annotations

from dataclasses import dataclass

from .geometry import MomentPolygon, hull_of_union, minkowski_sum, prune_polygon
from .model import DEFAULT_NODE_CAP, Mdp, augment
from .rationals import Rat, ZERO


def boundary_set(w) -> MomentPolygon:
    """Moment set at the horizon: the cumulative reward is w surely."""
    w = Rat(w)
    return MomentPolygon.point(w, w * w)


def backward_step(
    mdp: Mdp, t: int, next_layer: dict, nodes=None
) -> dict:
    """Moment sets for stage-t nodes from the stage-(t+1) sets.

    nodes defaults to the reachable layer-t pairs (s, w). Zero-probability
    branches are skipped; a reachable child missing from next_layer raises
    KeyError naming (t + 1, state, cumulative reward).
    """
    if nodes is None:
        nodes = augment(mdp).layer(t)
    out = {}
    for s, w in nodes:
        per_action = []
        for a in mdp.actions[s]:
            total = MomentPolygon.point(0, 0)
            for s2, r, pg in mdp.branches(t, s, a):
                child = next_layer.get((s2, w + r))
                if child is None:
                    raise KeyError(
                        f"missing moment set for ({t + 1}, {s2}, {w + r})"
                    )
                total = minkowski_sum(total, child.scale(pg))
            per_action.append(total)
        out[(s, w)] = hull_of_union(per_action)
    return out


def moment_layers(
    mdp: Mdp, prune_eps=None, max_nodes: int = DEFAULT_NODE_CAP
) -> list:
    """All per-stage moment sets, index t -> {(s, w): MomentPolygon}.

    With prune_eps set, every stage-t polygon (t < horizon) is thinned right
    after it is computed, so later stages build on the pruned sets.
    """
    aug = augment(mdp, max_nodes=max_nodes)
    horizon = mdp.horizon
    threshold_sq = None
    if prune_eps is not None:
        per_stage = Rat(prune_eps) / (2 * horizon)
        threshold_sq = per_stage * per_stage
    layers: list = [None] * (horizon + 1)
    layers[horizon] = {(s, w): boundary_set(w) for s, w in aug.layer(horizon)}
    for t in reversed(range(horizon)):
        layer = backward_step(mdp, t, layers[t + 1], nodes=aug.layer(t))
        if threshold_sq is not None:
            layer = {
                key: prune_polygon(poly, threshold_sq)
                for key, poly in layer.items()
            }
        layers[t] = layer
    return layers


def compute_pmq(
    mdp: Mdp, prune_eps=None, max_nodes: int = DEFAULT_NODE_CAP
) -> MomentPolygon:
    """The polygon of achievable (mean, second moment) pairs at the root."""
    layers = moment_layers(mdp, prune_eps=prune_eps, max_nodes=max_nodes)
    return layers[0][(mdp.initial_state, ZERO)]


@dataclass(frozen=True)
class ExactFrontier:
    """v(m0) = min variance subject to mean >= m0, exactly.

    Constant at left_value for m0 <= lam_min, +infinity (None) past lam_max.
    Each piece covers one lower-boundary edge [lo, hi] with the boundary line
    q = c0 + c1 * m; the piece value is min(c0 + c1*m0 - m0^2, suffix) where
    suffix is the best vertex variance to the right of the edge.
    """

    lam_min: Rat
    lam_max: Rat
    left_value: Rat
    pieces: tuple

    def value(self, lam) -> Rat | None:
        lam = Rat(lam)
        if lam > self.lam_max:
            return None
        if lam <= self.lam_min:
            return self.left_value
        for lo, hi, c0, c1, suffix in self.pieces:
            if lo <= lam <= hi:
                cut = c0 + c1 * lam - lam * lam
                return cut if cut < suffix else suffix
        raise AssertionError("pieces do not cover the query point")


def exact_frontier(polygon: MomentPolygon) -> ExactFrontier:
    lower = polygon.lower_chain()
    values = [q - m * m for m, q in lower]
    suffixes = list(values)
    for i in range(len(suffixes) - 2, -1, -1):
        if suffixes[i + 1] < suffixes[i]:
            suffixes[i] = suffixes[i + 1]
    pieces = []
    for i in range(len(lower) - 1):
        (m0, q0), (m1, q1) = lower[i], lower[i + 1]
        c1 = (q1 - q0) / (m1 - m0)
        c0 = q0 - c1 * m0
        pieces.append((m0, m1, c0, c1, suffixes[i + 1]))
    return ExactFrontier(
        lam_min=lower[0][0],
        lam_max=lower[-1][0],
        left_value=suffixes[0],
        pieces=tuple(pieces),
    )


def min_variance(polygon: MomentPolygon) -> tuple:
    """Smallest q - m^2 over the polygon; concave, so a vertex attains it."""
    best = None
    witness = None
    for m, q in polygon.vertices:
        value = q - m * m
        if best is None or value < best:
            best, witness = value, (m, q)
    return best, witness


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
