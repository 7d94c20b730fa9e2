"""Exact convex polygon arithmetic in the (mean, second moment) plane.

Polygons are stored in a canonical form: counterclockwise order, strictly
convex position (no repeated or collinear vertices), starting at the
lexicographically smallest vertex. Canonical form makes equality comparisons
meaningful and keeps every operation deterministic. Degenerate polygons with
one vertex (a point) or two (a segment) are first-class citizens; the
backward recursion produces them constantly.

All coordinates are exact rationals, held on integers: a MomentPolygon's
vertex i is points[i] / d, over the least common denominator d of its
coordinates, which shares no factor with all of them. That frame is
canonical, so equality and hashing compare (d, points), and the rational
vertices are built only when something reads them. Scaling by a positive
d keeps lexicographic order, the sign of every cross product and the
order of every squared distance, so the kernels below run on the integers
and skip the gcd normalization that every rational operation pays.
Distances appear only in squared form, which keeps every comparison
rational as well.

MomentPolygon.of builds canonical form from arbitrary points with a sort
and a monotone chain. The kernels of the backward recursion instead rely
on canonical input and emit canonical output directly: sheared_sum shears,
weighs and sums polygons by sorting all their edges by angle and walking
them once (minkowski_sum is its unit-weight, unsheared case), and it is
the one kernel that moves a polygon. hull_of_union merges the inputs'
lexicographic vertex runs, and prune_polygon keeps a subset of the
vertices in their cyclic order. None of them re-hulls, and only
sheared_sum sorts: each input's edges arrive as one sorted run, which the
sort merges. prune_polygon builds no rational: every distance it
measures is to one chord, so it is an integer numerator over the chord's
squared length (_scaled_dist_sq, which point_segment_dist_sq shares),
compared by cross-multiplying; given a shift c, between the vertices of
S_c(poly), so it prunes in the plane without moving the polygon there.
Every numeric argument a caller passes is coerced by rationals.rat,
which refuses floats and bools.
"""

from __future__ import annotations

import functools
import heapq
import math
from bisect import bisect_left

from .rationals import Rat, ZERO, rat


def _cross(o, a, b) -> Rat:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _chain(pts) -> list:
    """One monotone-chain pass over points in lexicographic order (or its
    reverse): the chain of strict left turns from the first point to the
    last. Repeated points are skipped."""
    out: list = []
    for p in pts:
        if out and p == out[-1]:
            continue
        while len(out) >= 2 and _cross(out[-2], out[-1], p) <= 0:
            out.pop()
        out.append(p)
    return out


def _hull(points) -> list:
    """Monotone chain, strict turns only; CCW starting at the lex-min point."""
    pts = sorted(points)
    if not pts:
        raise ValueError("no points")
    lower = _chain(pts)
    upper = _chain(reversed(pts))
    # Each chain ends where the other starts; one point is its own hull.
    return lower[:-1] + upper[:-1] or lower


class MomentPolygon:
    """Convex polygon in canonical form, vertex i at points[i] / d. Build
    through of(), point() or sure(); the kernels build the rest.

    d is positive and shares no factor with every coordinate at once.
    vertices (the Rat pairs) and edges are built on first read and then
    kept: the backward recursion
    sums one child polygon into every branch that reaches it, and reads no
    stage's rationals.
    """

    __slots__ = ("d", "points", "_vertices", "_edges")

    def __init__(self, d: int, points: tuple):
        self.d = d
        self.points = points
        self._vertices = None
        self._edges = None

    def __eq__(self, other):
        if not isinstance(other, MomentPolygon):
            return NotImplemented
        return self.d == other.d and self.points == other.points

    def __hash__(self):
        return hash((self.d, self.points))

    def __repr__(self):
        return f"MomentPolygon.of({list(self.vertices)!r})"

    @staticmethod
    def _framed(vertices) -> MomentPolygon:
        """The polygon with these canonical Rat vertices, on integers over
        their least common denominator, which shares no factor with all of
        them."""
        vertices = tuple(vertices)
        d = math.lcm(*(int(c.denominator) for v in vertices for c in v))
        return MomentPolygon(d, tuple(
            (int(x.numerator) * (d // int(x.denominator)),
             int(y.numerator) * (d // int(y.denominator)))
            for x, y in vertices
        ))

    @staticmethod
    def of(points) -> MomentPolygon:
        pts = [(rat(x), rat(y)) for x, y in points]
        return MomentPolygon._framed(_hull(pts))

    @staticmethod
    def point(x, y) -> MomentPolygon:
        return MomentPolygon._framed(((rat(x), rat(y)),))

    @staticmethod
    def sure(b, den: int = 1) -> MomentPolygon:
        """The moment point (w, w^2) of the sure reward w = b / den, b an
        exact rational or an int and den a positive int: over m^2 when
        w = n/m in lowest terms, which shares no factor with n m and n^2."""
        n, m = int(b.numerator), int(b.denominator) * den
        g = math.gcd(n, m)
        n, m = n // g, m // g
        return MomentPolygon(m * m, ((n * m, n * n),))

    @property
    def vertices(self) -> tuple:
        if self._vertices is None:
            d = self.d
            self._vertices = tuple(
                (Rat(x, d), Rat(y, d)) for x, y in self.points
            )
        return self._vertices

    @property
    def edges(self) -> list:
        if self._edges is None:
            self._edges = _edges(self.points)
        return self._edges

    def contains(self, point) -> bool:
        return self.locate(point) is not None

    def locate(self, point) -> tuple | None:
        """Indices of the vertices of a face that holds point, in increasing
        order, or None when point lies outside.

        With three or more vertices the face is a triangle of the fan from
        vertices[0]: (0, k - 1, k), found by bisection over the fan's rays,
        which turn counterclockwise. A point or a segment is its own face.
        """
        p = (rat(point[0]), rat(point[1]))
        vs = self.vertices
        if len(vs) == 1:
            return (0,) if p == vs[0] else None
        if len(vs) == 2:
            on = _cross(*vs, p) == 0 and min(vs) <= p <= max(vs)
            return (0, 1) if on else None
        # The wedge at vertices[0] spans less than 180 degrees, so its two
        # bounding rays decide whether p lies in it. Within it the rays with
        # p strictly to their right come last, and the first of them (or
        # the last ray) ends p's sector.
        v0 = vs[0]
        if _cross(v0, vs[1], p) < 0 or _cross(v0, vs[-1], p) > 0:
            return None
        k = bisect_left(
            range(2, len(vs) - 1), True,
            key=lambda i: _cross(v0, vs[i], p) < 0,
        ) + 2
        return (0, k - 1, k) if _cross(vs[k - 1], vs[k], p) >= 0 else None

    def inner_normal(self, i: int) -> tuple[int, int]:
        """Integers (c0, c1) such that vertices[i] alone minimizes
        c0 m + c1 q over the polygon.

        With three or more vertices this is the inward normal of the chord
        from vertices[i-1] to vertices[i+1], the sum of the inward normals
        of the vertex's two edges, so it lies strictly inside the vertex's
        normal cone. A segment's end takes the direction to the other end,
        and a point any direction: (0, 0).
        """
        vs = self.vertices
        if len(vs) == 1:
            return 0, 0
        if len(vs) == 2:
            (m0, q0), (m1, q1) = vs[i], vs[1 - i]
            c0, c1 = m1 - m0, q1 - q0
        else:
            (m0, q0), (m1, q1) = vs[i - 1], vs[(i + 1) % len(vs)]
            c0, c1 = q0 - q1, m1 - m0
        d = math.lcm(int(c0.denominator), int(c1.denominator))
        return int(c0 * d), int(c1 * d)

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


def _reduced(d: int, points: list) -> MomentPolygon:
    """The canonical polygon with vertices points / d, once the factor d
    shares with every coordinate is divided out."""
    g = math.gcd(d, *(c for v in points for c in v))
    if g > 1:
        d //= g
        points = [(x // g, y // g) for x, y in points]
    return MomentPolygon(d, tuple(points))


def _edges(vs) -> list:
    """(half, dx, dy) for each boundary edge of a canonical polygon.

    half is 0 for directions in (-90, 90] degrees and 1 for the rest. The
    boundary starts at the lex-min vertex, so the edges run in increasing
    (half, angle) order: the half-0 edges climb to the lex-max vertex and
    the half-1 edges come back. A point has no edges.
    """
    out = []
    for a, b in zip(vs, vs[1:] + vs[:1] if len(vs) > 1 else []):
        dx, dy = b[0] - a[0], b[1] - a[1]
        out.append((0 if dx > 0 or (dx == 0 and dy > 0) else 1, dx, dy))
    return out


def _turn_order(u, v) -> int:
    """Negative, zero or positive as edge u's direction comes before, with
    or after edge v's in (half, angle) order. Within a half every two
    directions lie less than 180 degrees apart, so the sign of their cross
    product orders them exactly. Neither edge may have zero length."""
    if u[0] != v[0]:
        return u[0] - v[0]
    cross = u[1] * v[2] - u[2] * v[1]
    return (cross < 0) - (cross > 0)


_BY_ANGLE = functools.cmp_to_key(_turn_order)


def sheared_sum(parts) -> MomentPolygon:
    """The Minkowski sum of weight * S_shift(poly) over the (poly, weight,
    shift) parts: weight a positive rational and shift a rational. No
    part gives the sum's identity, the point (0, 0).

    S_c(m, q) = (m + c, q + 2cm + c^2) adds c to every reward. On an edge
    it is linear, (dx, dy) -> (dx, dy + 2c dx), with determinant 1, so it
    keeps each edge's half and the order of the edges within a half: the
    sheared edges stay one sorted run, and only the lex-min vertex, which
    stays lex-min, is sheared as a point. With c = a/b and weight p/q, a
    part over d becomes, over q d b^2, the vertex
    (p b (b X + a d), p (b^2 Y + 2 a b X + a^2 d)) and the edges
    (p b^2 dx, p b (b dy + 2 a dx)).

    The parts are brought to one common denominator, their edges sorted by
    angle and walked once from the sum of their lex-min vertices. Parallel
    edges of different parts sort next to each other and make one step:
    the walk emits a vertex only where the next edge changes direction, so
    every turn is strict and the walk is already in canonical form.
    """
    terms = []
    for poly, weight, shift in parts:
        a, b = int(shift.numerator), int(shift.denominator)
        terms.append((int(weight.denominator) * poly.d * b * b, poly,
                      int(weight.numerator), a, b))
    if not terms:
        return MomentPolygon(1, ((0, 0),))
    d = math.lcm(*(term[0] for term in terms))
    x = y = 0
    edges: list = []
    for den, poly, p, a, b in terms:
        k = d // den * p
        kb = k * b
        x0, y0 = poly.points[0]
        x += kb * (b * x0 + a * poly.d)
        y += k * (b * (b * y0 + 2 * a * x0) + a * a * poly.d)
        kbb, a2 = kb * b, 2 * a
        edges += [
            (h, kbb * dx, kb * (b * dy + a2 * dx)) for h, dx, dy in poly.edges
        ]
    # Each part's edges are one sorted run, which the sort merges.
    edges.sort(key=_BY_ANGLE)
    points = [(x, y)]
    # The last edge closes the walk at its start, so it emits nothing.
    for e, after in zip(edges, edges[1:]):
        x += e[1]
        y += e[2]
        if _turn_order(e, after):
            points.append((x, y))
    return _reduced(d, points)


def hull_of_union(polys) -> MomentPolygon:
    """Convex hull of the union of polygons, in canonical form.

    A canonical polygon climbs in lexicographic order from vertices[0] to
    its lex-max vertex, along its lower boundary and any vertical right
    edge, and then descends back to vertices[0] along the rest. Every
    vertex of the union's lower chain lies on some input's climb and every
    vertex of its upper chain on some input's descent, so one
    monotone-chain pass over the merged climbs and one over the merged
    descents, on integers over one common denominator, give the hull, with
    no sort. A single input is its own hull.
    """
    if not polys:
        raise ValueError("no polygons")
    if len(polys) == 1:
        return polys[0]
    d = math.lcm(*(poly.d for poly in polys))
    climbs = []
    descents = []
    for poly in polys:
        k = d // poly.d
        vs = poly.points
        if k != 1:
            vs = [(k * x, k * y) for x, y in vs]
        n = 1
        while n < len(vs) and vs[n - 1] < vs[n]:
            n += 1
        climbs.append(vs[:n])
        descents.append(vs[n - 1:] + vs[:1])
    lower = _chain(heapq.merge(*climbs))
    upper = _chain(heapq.merge(*descents, reverse=True))
    return _reduced(d, lower[:-1] + upper[:-1] or lower)


def minkowski_sum(*polys: MomentPolygon) -> MomentPolygon:
    """Minkowski sum of any number of canonical polygons: sheared_sum with
    unit weights and no shear. A single input is its own sum, and a call
    with no input returns the point (0, 0).
    """
    if len(polys) == 1:
        return polys[0]
    return sheared_sum((poly, 1, 0) for poly in polys)


def _scaled_dist_sq(p, a, b, dx, dy, length):
    """length times the squared distance from p to the segment ab, where
    (dx, dy) = b - a and length is |b - a|^2, or 1 when a == b.

    With e = p - a, the nearest point is a when e.(dx, dy) <= 0, b when
    e.(dx, dy) >= length, and otherwise the foot of the perpendicular, at
    squared distance cross(e, (dx, dy))^2 / length (Lagrange's identity
    turns the projection formula into this). So every distance to one
    segment is a numerator over the same length, and integer coordinates
    give an integer.
    """
    ex, ey = p[0] - a[0], p[1] - a[1]
    dot = ex * dx + ey * dy
    if dot <= 0:
        return (ex * ex + ey * ey) * length
    if dot >= length:
        fx, fy = p[0] - b[0], p[1] - b[1]
        return (fx * fx + fy * fy) * length
    cross = ex * dy - ey * dx
    return cross * cross


def point_segment_dist_sq(p, a, b) -> Rat:
    """Squared distance from p to the segment ab (the point a when a == b),
    as a Rat: _scaled_dist_sq over the segment's squared length, so the
    result is exact for int coordinates too."""
    dx, dy = b[0] - a[0], b[1] - a[1]
    length = dx * dx + dy * dy or 1
    return rat(_scaled_dist_sq(p, a, b, dx, dy, length)) / length


def point_polygon_dist_sq(p, poly: MomentPolygon) -> Rat:
    if poly.contains(p):
        return ZERO
    vs = poly.vertices
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


class _Cost:
    """The exact cost num / length of a heap entry, ordered by
    cross-multiplying; compared only when two entries' float keys tie."""

    __slots__ = ("num", "length")

    def __init__(self, num: int, length: int):
        self.num = num
        self.length = length

    def __eq__(self, other):
        return self.num * other.length == other.num * self.length

    def __lt__(self, other):
        return self.num * other.length < other.num * self.length


def prune_polygon(poly: MomentPolygon, max_err_sq, shift=0) -> MomentPolygon:
    """Greedy inner approximation of S_shift(poly), kept in poly's frame:
    drop vertices of poly while every dropped vertex stays within the given
    squared Hausdorff distance of the result, both sheared by
    S_c(m, q) = (m + c, q + 2cm + c^2). The shear keeps lexicographic order
    and every turn, so costs are measured on the sheared vertices, over
    d b^2 for c = a/b (sheared_sum's vertex formula), and the vertices kept
    are poly's own; poly itself when none is dropped.

    Dropping vertex v merges its two edges into the chord joining its
    neighbors; v and every original vertex already charged to those edges are
    re-charged to the chord. The chord is a face of the pruned polygon, so
    charged distances bound the true point-to-polygon distances and the
    certificate stays sound. The result's vertex set is a subset of the
    original's, so it is contained in the original and only the
    original-to-pruned direction can be positive.

    The cheapest vertex goes first, ties to the lowest index. A vertex's
    cost is measured against one chord, so it is one integer numerator over
    the chord's squared length (_scaled_dist_sq), and it is compared with
    the budget by cross-multiplying; no rational is built. A vertex over
    the budget is not queued until a neighbor's removal changes its cost.
    """
    budget = rat(max_err_sq)
    if budget < 0:
        raise ValueError(f"prune budget must be nonnegative: {budget}")
    shift = rat(shift)
    pts = poly.points
    n = len(pts)
    if n <= 2:
        return poly
    d = poly.d
    at = pts
    if shift:
        a, b = int(shift.numerator), int(shift.denominator)
        ad, a2d, ab2, bb = a * d, a * a * d, 2 * a * b, b * b
        at = [(b * (b * x + ad), bb * y + ab2 * x + a2d) for x, y in pts]
        d *= bb
    # Costs run on the integers, so they carry d^2: num / length is within
    # the budget when num * den <= cap * length.
    cap = int(budget.numerator) * d * d
    den = int(budget.denominator)
    nxt = list(range(1, n)) + [0]
    prv = [n - 1] + list(range(n - 1))
    alive = [True] * n
    version = [0] * n
    # sheared original points charged to the surviving edge (i, nxt[i])
    edge_load: list = [[] for _ in range(n)]
    heap: list = []

    def push(i):
        a, b = at[prv[i]], at[nxt[i]]
        dx, dy = b[0] - a[0], b[1] - a[1]
        length = dx * dx + dy * dy or 1
        worst = _scaled_dist_sq(at[i], a, b, dx, dy, length)
        for load in (edge_load[prv[i]], edge_load[i]):
            for p in load:
                dist = _scaled_dist_sq(p, a, b, dx, dy, length)
                if dist > worst:
                    worst = dist
        over, limit = worst * den, cap * length
        if over <= limit:
            # cost / budget, correctly rounded into [0, 1], orders the heap;
            # the exact cost breaks ties between equal floats.
            key = over / limit if limit else 0.0
            heapq.heappush(heap, (key, _Cost(worst, length), i, version[i]))

    for i in range(n):
        push(i)
    remaining = n
    while heap and remaining > 1:
        _, _, i, stamp = heapq.heappop(heap)
        if not alive[i] or stamp != version[i]:
            continue
        p, q = prv[i], nxt[i]
        alive[i] = False
        remaining -= 1
        edge_load[p].extend(edge_load[i])
        edge_load[p].append(at[i])
        edge_load[i] = []
        nxt[p], prv[q] = q, p
        if p != q:
            for j in (p, q):
                version[j] += 1
                push(j)
    if remaining == n:
        return poly
    # The kept vertices are strictly convex and in CCW order already; the
    # walk starts at the lex-min one to make them canonical.
    start = min((k for k in range(n) if alive[k]), key=pts.__getitem__)
    kept = [pts[start]]
    i = nxt[start]
    while i != start:
        kept.append(pts[i])
        i = nxt[i]
    return _reduced(poly.d, kept)
