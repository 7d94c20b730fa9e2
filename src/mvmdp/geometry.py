"""Exact convex polygon arithmetic in the (mean, second moment) plane.

Polygons are stored in a canonical form: counterclockwise order, strictly
convex position (no repeated or collinear vertices), starting at the
lexicographically smallest vertex. Canonical form makes equality comparisons
meaningful and keeps every operation deterministic. Degenerate polygons with
one vertex (a point) or two (a segment) are first-class citizens; the
backward recursion produces them constantly.

All coordinates are exact rationals. Distances appear only in squared form,
which keeps every comparison rational as well.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .rationals import Rat, ZERO


def _cross(o, a, b) -> Rat:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _hull(points) -> list:
    """Monotone chain, strict turns only; CCW starting at the lex-min point."""
    pts = sorted(set(points))
    if not pts:
        raise ValueError("no points")
    if len(pts) == 1:
        return pts
    lower: list = []
    for p in pts:
        while len(lower) >= 2 and _cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list = []
    for p in reversed(pts):
        while len(upper) >= 2 and _cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    out = lower[:-1] + upper[:-1]
    if len(out) < 2:
        # All points collinear: the two chain endpoints describe the segment.
        return [pts[0], pts[-1]]
    return out


@dataclass(frozen=True)
class MomentPolygon:
    """Convex polygon in canonical form. Build through of() or from_points()."""

    vertices: tuple

    @staticmethod
    def of(points) -> "MomentPolygon":
        pts = [(Rat(x), Rat(y)) for x, y in points]
        return MomentPolygon(tuple(_hull(pts)))

    @staticmethod
    def point(x, y) -> "MomentPolygon":
        return MomentPolygon(((Rat(x), Rat(y)),))

    def scale(self, alpha) -> "MomentPolygon":
        alpha = Rat(alpha)
        if alpha < 0:
            raise ValueError("negative scale")
        if alpha == 0:
            return MomentPolygon.point(0, 0)
        return MomentPolygon(
            tuple((alpha * x, alpha * y) for x, y in self.vertices)
        )

    def translate(self, dx, dy) -> "MomentPolygon":
        dx = Rat(dx)
        dy = Rat(dy)
        return MomentPolygon(
            tuple((x + dx, y + dy) for x, y in self.vertices)
        )

    def contains(self, point) -> bool:
        p = (Rat(point[0]), Rat(point[1]))
        vs = self.vertices
        if len(vs) == 1:
            return p == vs[0]
        if len(vs) == 2:
            a, b = vs
            if _cross(a, b, p) != 0:
                return False
            return min(a, b) <= p <= max(a, b)
        for i, a in enumerate(vs):
            b = vs[(i + 1) % len(vs)]
            if _cross(a, b, p) < 0:
                return False
        return True

    def lower_chain(self) -> list:
        """Lower boundary vertices left to right (strictly increasing x)."""
        vs = self.vertices
        chain = [vs[0]]
        for v in vs[1:]:
            if v[0] > chain[-1][0]:
                chain.append(v)
            else:
                break
        return chain

    def upper_chain(self) -> list:
        """Upper boundary vertices left to right (strictly increasing x).

        Walks the CCW cycle backwards (clockwise) from vertices[0]; a
        vertical left edge hands the start over to its top end.
        """
        vs = self.vertices
        chain = [vs[0]]
        for v in reversed(vs[1:]):
            if v[0] > chain[-1][0]:
                chain.append(v)
            elif v[0] == chain[0][0] and len(chain) == 1:
                chain[0] = v
            else:
                break
        return chain


def minkowski_sum(p: MomentPolygon, q: MomentPolygon) -> MomentPolygon:
    """Edge-wise merge of the two boundaries; exact.

    Both boundaries start at their lex-min vertex, so their edge directions
    each sweep the same angular window once; merging by angle and walking the
    combined fence traces the sum's boundary. The final hull pass only merges
    collinear steps (parallel edges from the two inputs).
    """
    if len(p.vertices) == 1:
        return q.translate(*p.vertices[0])
    if len(q.vertices) == 1:
        return p.translate(*q.vertices[0])

    def edge_list(poly):
        vs = poly.vertices
        k = len(vs)
        out = []
        for i in range(k):
            a, b = vs[i], vs[(i + 1) % k]
            out.append((b[0] - a[0], b[1] - a[1]))
        return out

    def half(d):
        # 0 for directions in (-90, 90] degrees, 1 for the rest; within the
        # sweep each polygon's edges have nondecreasing (half, angle).
        if d[0] > 0 or (d[0] == 0 and d[1] > 0):
            return 0
        return 1

    def before(u, v) -> bool:
        hu, hv = half(u), half(v)
        if hu != hv:
            return hu < hv
        return u[0] * v[1] - u[1] * v[0] > 0

    ep = edge_list(p)
    eq = edge_list(q)
    cur = (p.vertices[0][0] + q.vertices[0][0], p.vertices[0][1] + q.vertices[0][1])
    points = [cur]
    i = j = 0
    while i < len(ep) or j < len(eq):
        if j >= len(eq) or (i < len(ep) and before(ep[i], eq[j])):
            step = ep[i]
            i += 1
        else:
            step = eq[j]
            j += 1
        cur = (cur[0] + step[0], cur[1] + step[1])
        points.append(cur)
    return MomentPolygon.of(points)


def hull_of_union(polys) -> MomentPolygon:
    points = []
    for poly in polys:
        points.extend(poly.vertices)
    return MomentPolygon.of(points)


def point_segment_dist_sq(p, a, b) -> Rat:
    px, py = Rat(p[0]), Rat(p[1])
    ax, ay = a
    bx, by = b
    dx, dy = bx - ax, by - ay
    length_sq = dx * dx + dy * dy
    if length_sq == 0:
        ex, ey = px - ax, py - ay
        return ex * ex + ey * ey
    t = ((px - ax) * dx + (py - ay) * dy) / length_sq
    if t < 0:
        t = ZERO
    elif t > 1:
        t = Rat(1)
    ex = px - (ax + t * dx)
    ey = py - (ay + t * dy)
    return ex * ex + ey * ey


def point_polygon_dist_sq(p, poly: MomentPolygon) -> Rat:
    if poly.contains(p):
        return ZERO
    vs = poly.vertices
    if len(vs) == 1:
        return point_segment_dist_sq(p, vs[0], vs[0])
    best = None
    for i, a in enumerate(vs):
        b = vs[(i + 1) % len(vs)]
        d = point_segment_dist_sq(p, a, b)
        if best is None or d < best:
            best = d
    return best


def directed_hausdorff_sq(p: MomentPolygon, q: MomentPolygon) -> Rat:
    # x -> dist(x, q) is convex, so the max over p sits at a vertex of p.
    return max(point_polygon_dist_sq(v, q) for v in p.vertices)


def hausdorff_sq(p: MomentPolygon, q: MomentPolygon) -> Rat:
    return max(directed_hausdorff_sq(p, q), directed_hausdorff_sq(q, p))


def prune_polygon(poly: MomentPolygon, max_err_sq) -> MomentPolygon:
    """Greedy inner approximation: drop vertices while every dropped original
    vertex stays within the given squared Hausdorff distance of the result.

    Dropping vertex v merges its two edges into the chord joining its
    neighbors; v and every original vertex already charged to those edges are
    re-charged to the chord. The chord is a face of the pruned polygon, so
    charged distances bound the true point-to-polygon distances and the
    certificate stays sound. The result's vertex set is a subset of the
    original's, so it is contained in the original and only the
    original-to-pruned direction can be positive.
    """
    max_err_sq = Rat(max_err_sq)
    vs = poly.vertices
    n = len(vs)
    if n <= 2:
        return poly
    nxt = list(range(1, n)) + [0]
    prv = [n - 1] + list(range(n - 1))
    alive = [True] * n
    version = [0] * n
    # original points charged to the surviving edge (i, nxt[i])
    edge_load: list = [[] for _ in range(n)]

    def cost(i) -> Rat:
        a, b = vs[prv[i]], vs[nxt[i]]
        worst = point_segment_dist_sq(vs[i], a, b)
        for p in edge_load[prv[i]]:
            d = point_segment_dist_sq(p, a, b)
            if d > worst:
                worst = d
        for p in edge_load[i]:
            d = point_segment_dist_sq(p, a, b)
            if d > worst:
                worst = d
        return worst

    heap = []
    for i in range(n):
        heapq.heappush(heap, (cost(i), i, 0))
    remaining = n
    while heap and remaining > 1:
        err, i, stamp = heapq.heappop(heap)
        if not alive[i] or stamp != version[i]:
            continue
        if err > max_err_sq:
            break
        p, q = prv[i], nxt[i]
        alive[i] = False
        remaining -= 1
        edge_load[p] = edge_load[p] + edge_load[i] + [vs[i]]
        edge_load[i] = []
        nxt[p], prv[q] = q, p
        if p != q:
            for j in (p, q):
                version[j] += 1
                heapq.heappush(heap, (cost(j), j, version[j]))
    kept = []
    i = next(k for k in range(n) if alive[k])
    start = i
    while True:
        kept.append(vs[i])
        i = nxt[i]
        if i == start:
            break
    return MomentPolygon.of(kept)
