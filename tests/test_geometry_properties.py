"""Property tests for the canonical-form polygon kernel.

sheared_sum (with minkowski_sum, its unit-weight, unsheared case),
hull_of_union and prune_polygon read canonical input and emit canonical
output without a sort or a re-hull. Each is checked here against
MomentPolygon.of, which builds canonical form from arbitrary points:
sheared_sum against the hull of the sums of its parts' weighted, sheared
vertices. Every output must
hold the reduced integer frame that MomentPolygon.of builds, since
equality and hashing compare that frame. prune_polygon with a shift is
checked against the route it replaces: shear to the plane, prune there,
shear back.
Small coordinates on a coarse grid make points, segments, collinear
vertices, parallel edges and vertical edges common. Signed coordinates over
coprime and large denominators make each kernel's common denominator, the
one its integers run over, large and different for every input.

The direction behind each witness's vertex policies,
`MomentPolygon.inner_normal`, is checked here too: over a canonical
polygon, the linear function it gives must be least at its vertex and at
no other. So is the point locator behind `contains` and the witness's
vertex weights, `MomentPolygon.locate`, against an every-edge test.
"""

import heapq
import itertools
import math

import pytest

pytest.importorskip(
    "hypothesis", reason="property tests need hypothesis (the [test] extra)"
)

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from mvmdp.geometry import (  # noqa: E402
    MomentPolygon,
    hull_of_union,
    minkowski_sum,
    prune_polygon,
    sheared_sum,
)
from mvmdp.rationals import Rat  # noqa: E402

PROPERTY = settings(
    max_examples=300, deadline=None, derandomize=True, database=None
)

GRID = st.builds(Rat, st.integers(-4, 4), st.sampled_from((1, 2)))
MIXED = st.builds(
    Rat, st.integers(-60, 60), st.sampled_from((1, 3, 7, 12, 10**9 + 7))
)


@st.composite
def polygons(draw, coords=GRID):
    points = st.tuples(coords, coords)
    return MomentPolygon.of(draw(st.lists(points, min_size=1, max_size=8)))


any_polygon = st.one_of(polygons(GRID), polygons(MIXED))


@st.composite
def nested(draw, outer):
    """A polygon inside outer: some of its vertices and edge midpoints."""
    vs = outer.vertices
    edges = list(zip(vs, vs[1:] + vs[:1]))
    picked = draw(st.lists(st.sampled_from(vs), max_size=len(vs)))
    mids = [
        ((a[0] + b[0]) / 2, (a[1] + b[1]) / 2)
        for a, b in draw(st.lists(st.sampled_from(edges), max_size=3))
    ]
    return MomentPolygon.of(picked + mids or [vs[0]])


@st.composite
def families(draw, coords=GRID):
    """One to four polygons; each after the first is fresh, a repeat of an
    earlier one, or nested inside an earlier one."""
    out = [draw(polygons(coords))]
    for _ in range(draw(st.integers(0, 3))):
        earlier = draw(st.sampled_from(out))
        kind = draw(st.sampled_from(("fresh", "same", "nested")))
        if kind == "fresh":
            out.append(draw(polygons(coords)))
        elif kind == "same":
            out.append(earlier)
        else:
            out.append(draw(nested(earlier)))
    return out


any_family = st.one_of(families(GRID), families(MIXED))


def _assert_kernel_output(poly):
    """Canonical, in the reduced integer frame, with every vertex
    coordinate a Rat: no int of that frame leaks out."""
    assert poly.d > 0
    assert math.gcd(poly.d, *(c for v in poly.points for c in v)) == 1
    assert all(type(c) is Rat for v in poly.vertices for c in v)
    want = MomentPolygon.of(poly.vertices)
    assert (want.d, want.points) == (poly.d, poly.points)


WEIGHTS = st.sampled_from((1, Rat(1, 2), Rat(2, 3)))


@PROPERTY
@given(any_family, st.lists(WEIGHTS, min_size=4, max_size=4))
def test_minkowski_sum_is_the_hull_of_vertex_sums(family, weights):
    parts = [sheared_sum([(poly, w, 0)]) for poly, w in zip(family, weights)]
    got = minkowski_sum(*parts)
    assert got == MomentPolygon.of(
        [
            (sum(v[0] for v in pick), sum(v[1] for v in pick))
            for pick in itertools.product(*(p.vertices for p in parts))
        ]
    )
    _assert_kernel_output(got)
    p, q = family[0], parts[-1]
    got = minkowski_sum(p, q)
    assert got == MomentPolygon.of(
        [(a[0] + b[0], a[1] + b[1]) for a in p.vertices for b in q.vertices]
    )
    _assert_kernel_output(got)


@PROPERTY
@given(any_family)
def test_hull_of_union_is_the_hull_of_all_vertices(family):
    got = hull_of_union(family)
    assert got == MomentPolygon.of(
        [v for poly in family for v in poly.vertices]
    )
    _assert_kernel_output(got)


@st.composite
def shapes(draw):
    """A point, a segment or a polygon, on either grid."""
    coords = draw(st.sampled_from((GRID, MIXED)))
    size = draw(st.sampled_from((1, 2, 8)))
    points = st.tuples(coords, coords)
    return MomentPolygon.of(draw(st.lists(points, min_size=size, max_size=size)))


DENOMINATORS = st.sampled_from((1, 2, 3, 7, 12, 10**9 + 7))
POSITIVE = st.builds(Rat, st.integers(1, 12), DENOMINATORS)
SHIFTS = st.one_of(
    st.just(Rat(0)),
    st.builds(Rat, st.integers(-20, 20), st.just(1)),
    st.builds(Rat, st.integers(-20, 20), DENOMINATORS),
)


@PROPERTY
@given(st.lists(st.tuples(shapes(), POSITIVE, SHIFTS), max_size=4))
def test_sheared_sum_is_the_sum_of_scaled_polygons(parts):
    got = sheared_sum(parts)
    # A sum of convex polygons is the hull of its vertex sums, so the parts
    # are folded in one at a time: w * S_c(m, q) = w (m + c, q + 2cm + c^2).
    want = MomentPolygon.point(0, 0)
    for poly, w, c in parts:
        want = MomentPolygon.of(
            (x + w * (m + c), y + w * (q + (2 * m + c) * c))
            for x, y in want.vertices
            for m, q in poly.vertices
        )
    assert got.vertices == want.vertices
    _assert_kernel_output(got)


@PROPERTY
@given(MIXED)
def test_a_sure_reward_lifts_to_its_moment_point(b):
    got, want = MomentPolygon.sure(b), MomentPolygon.point(b, b * b)
    assert (got.d, got.points) == (want.d, want.points)
    assert got.vertices == want.vertices


def _rebuilt(poly):
    """poly again, through every constructor and kernel."""
    return [
        MomentPolygon.of(reversed(poly.vertices)),
        sheared_sum([(poly, Rat(1, 2), 0), (poly, Rat(1, 2), 0)]),
        sheared_sum([(sheared_sum([(poly, 1, Rat(-1, 3))]), 1, Rat(1, 3))]),
        minkowski_sum(poly, MomentPolygon.point(0, 0)),
        hull_of_union([poly, poly]),
        prune_polygon(poly, 0),
    ]


@PROPERTY
@given(any_polygon, any_polygon)
def test_polygons_are_equal_exactly_when_their_vertices_are(p, q):
    # Equality and hashing compare the integer frame, which is canonical.
    doubled = sheared_sum([(p, 2, 0)])
    for a, b in [(p, q), (p, doubled)] + [(p, r) for r in _rebuilt(p)]:
        assert (a == b) is (a.vertices == b.vertices)
        if a == b:
            assert hash(a) == hash(b)
    for r in _rebuilt(p):
        assert r == p


BUDGETS = st.sampled_from((0, Rat(1, 16), Rat(1, 4), 1, 4))


@PROPERTY
@given(any_polygon, BUDGETS)
def test_pruned_polygons_are_canonical(poly, budget):
    got = prune_polygon(poly, budget)
    _assert_kernel_output(got)
    assert set(got.vertices) <= set(poly.vertices)


@PROPERTY
@given(
    any_polygon,
    BUDGETS,
    st.builds(Rat, st.integers(1, 30), st.sampled_from((1, 2, 7, 10**9 + 7))),
    MIXED,
    MIXED,
)
def test_pruning_commutes_with_scaling_and_translation(poly, budget, k, u, v):
    # Distances scale by k and the vertex order is kept, so the same
    # vertices are dropped whatever common denominator each side runs over.
    def move(p):
        return MomentPolygon.of((k * x + u, k * y + v) for x, y in p.vertices)

    assert prune_polygon(move(poly), k * k * budget) == (
        move(prune_polygon(poly, budget))
    )


@PROPERTY
@given(any_polygon, BUDGETS, SHIFTS)
def test_shifted_pruning_is_pruning_in_the_plane(poly, budget, c):
    # S_c keeps the vertex order and every turn, so measuring the costs on
    # the sheared vertices drops what pruning S_c(poly) drops.
    got = prune_polygon(poly, budget, c)
    plane = prune_polygon(sheared_sum([(poly, 1, c)]), budget)
    assert got == sheared_sum([(plane, 1, -c)])
    _assert_kernel_output(got)
    assert set(got.vertices) <= set(poly.vertices)
    if len(got.points) == len(poly.points):
        assert got is poly
    for shift in (float(c), True, False):
        with pytest.raises(TypeError, match="exact rational"):
            prune_polygon(poly, budget, shift)


def _rational_dist_sq(p, a, b):
    """Squared distance from p to the segment ab as a Rat, through the
    quotient cross^2 / |b - a|^2 for an interior foot."""
    ex, ey = p[0] - a[0], p[1] - a[1]
    dx, dy = b[0] - a[0], b[1] - a[1]
    dot = ex * dx + ey * dy
    if dot <= 0:
        return ex * ex + ey * ey
    length_sq = dx * dx + dy * dy
    if dot >= length_sq:
        fx, fy = p[0] - b[0], p[1] - b[1]
        return fx * fx + fy * fy
    cross = ex * dy - ey * dx
    return Rat(cross * cross, length_sq)


def _rational_greedy(poly, budget):
    """The pruning greedy with a Rat cost per vertex, a heap of (cost,
    index, stamp) and a stop at the first live entry over the budget: the
    reference prune_polygon must match exactly."""
    pts = poly.points
    n = len(pts)
    if n <= 2:
        return poly
    budget = Rat(budget) * poly.d * poly.d
    nxt = list(range(1, n)) + [0]
    prv = [n - 1] + list(range(n - 1))
    alive = [True] * n
    version = [0] * n
    edge_load = [[] for _ in range(n)]

    def cost(i):
        a, b = pts[prv[i]], pts[nxt[i]]
        charged = [pts[i]] + edge_load[prv[i]] + edge_load[i]
        return max(_rational_dist_sq(p, a, b) for p in charged)

    heap = [(cost(i), i, 0) for i in range(n)]
    heapq.heapify(heap)
    remaining = n
    while heap and remaining > 1:
        err, i, stamp = heapq.heappop(heap)
        if not alive[i] or stamp != version[i]:
            continue
        if err > budget:
            break
        p, q = prv[i], nxt[i]
        alive[i] = False
        remaining -= 1
        edge_load[p] = edge_load[p] + edge_load[i] + [pts[i]]
        edge_load[i] = []
        nxt[p], prv[q] = q, p
        if p != q:
            for j in (p, q):
                version[j] += 1
                heapq.heappush(heap, (cost(j), j, version[j]))
    d = poly.d
    return MomentPolygon.of(
        (Rat(x, d), Rat(y, d)) for k, (x, y) in enumerate(pts) if alive[k]
    )


@st.composite
def symmetric_polygons(draw, coords=GRID):
    """Polygons mirrored in both axes, so mirrored vertices tie in cost and
    the index decides which goes first."""
    quadrant = draw(st.lists(st.tuples(coords, coords), min_size=1, max_size=4))
    return MomentPolygon.of(
        (sx * x, sy * y) for x, y in quadrant for sx in (1, -1) for sy in (1, -1)
    )


# 10**6 exceeds every squared distance the strategies draw, so the greedy
# goes down to one vertex, through the two-vertex remnant's zero-length
# chord.
ORACLE_BUDGETS = st.sampled_from((0, Rat(1, 16), Rat(1, 4), 1, 4, 10**6))


@PROPERTY
@given(
    st.one_of(any_polygon, symmetric_polygons(), symmetric_polygons(MIXED)),
    ORACLE_BUDGETS,
)
def test_prune_polygon_matches_the_rational_greedy(poly, budget):
    got = prune_polygon(poly, budget)
    want = _rational_greedy(poly, budget)
    assert (got.d, got.points) == (want.d, want.points)
    # A point or a segment is returned as it is.
    if len(poly.points) > 2:
        if budget == 10**6:
            assert len(got.points) == 1
        if budget == 0:
            assert got == poly


def test_pruning_breaks_float_ties_by_the_exact_cost():
    # B and C are adjacent with costs 1/5 - O(e) and 1/5 + O(e), e = 10^-18:
    # equal as floats, and the budget 1/2 lets only one of them go. The
    # exact order drops B (index 4) although C's index (3) is lower.
    e = Rat(1, 10**18)
    a, b, c = (0, 0), (1, 1), (2, 1 + e)
    poly = MomentPolygon.of([a, b, c, (3, 0), (Rat(3, 2), -10)])
    assert poly.vertices.index(b) == 4 and poly.vertices.index(c) == 3
    cost_b = _rational_dist_sq(b, a, c)
    cost_c = _rational_dist_sq(c, b, (3, 0))
    assert cost_b < cost_c and float(cost_b * 2) == float(cost_c * 2)
    got = prune_polygon(poly, Rat(1, 2))
    assert got == _rational_greedy(poly, Rat(1, 2))
    assert got == MomentPolygon.of([a, c, (3, 0), (Rat(3, 2), -10)])


@PROPERTY
@given(st.integers(-10**6, 10**6), st.integers(1, 10**6))
def test_a_sure_reward_over_a_denominator_is_its_moment_point(b, den):
    w = Rat(b, den)
    got, want = MomentPolygon.sure(b, den), MomentPolygon.sure(w)
    assert (got.d, got.points) == (want.d, want.points)
    assert got.vertices == ((w, w * w),)


@PROPERTY
@given(any_polygon)
def test_inner_normal_is_least_at_its_vertex_alone(poly):
    vs = poly.vertices
    for i, vertex in enumerate(vs):
        c0, c1 = poly.inner_normal(i)
        assert type(c0) is int and type(c1) is int
        least = c0 * vertex[0] + c1 * vertex[1]
        for j, (m, q) in enumerate(vs):
            if j != i:
                assert c0 * m + c1 * q > least


def _inside_every_edge(poly, p):
    """Reference containment: on the left of (or on) every edge."""
    vs = poly.vertices
    if len(vs) == 1:
        return p == vs[0]
    if len(vs) == 2:
        a, b = vs
        return _cross(a, b, p) == 0 and min(a, b) <= p <= max(a, b)
    return all(_cross(a, b, p) >= 0 for a, b in zip(vs, vs[1:] + vs[:1]))


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _face_weights(face, p):
    """Weights of p over the face's vertices (1, 2 or 3 of them), summing
    to 1, exactly; barycentric for a triangle."""
    if len(face) == 1:
        return [Rat(1)]
    if len(face) == 2:
        a, b = face
        dx, dy = b[0] - a[0], b[1] - a[1]
        t = ((p[0] - a[0]) * dx + (p[1] - a[1]) * dy) / (dx * dx + dy * dy)
        return [1 - t, t]
    a, b, c = face
    area = _cross(a, b, c)
    return [_cross(b, c, p) / area, _cross(c, a, p) / area, _cross(a, b, p) / area]


INTEGERS = st.integers(-4, 4)
NUDGE = Rat(1, 1000)


@st.composite
def located_points(draw):
    """A canonical polygon on integer points, the points inside it to
    locate (its vertices, edge midpoints and vertex mixtures, which put
    some on the fan's rays) and points just outside each edge (or next to
    a point)."""
    poly = MomentPolygon.of(
        draw(st.lists(st.tuples(INTEGERS, INTEGERS), min_size=1, max_size=8))
    )
    vs = poly.vertices
    inside = list(vs)
    outside = []
    if len(vs) == 1:
        outside += [(vs[0][0] + NUDGE, vs[0][1]), (vs[0][0], vs[0][1] - NUDGE)]
    # A segment's edges run both ways, so its two sides and ends are met.
    for a, b in zip(vs, vs[1:] + vs[:1]) if len(vs) > 1 else ():
        dx, dy = b[0] - a[0], b[1] - a[1]
        mid = ((a[0] + b[0]) / 2, (a[1] + b[1]) / 2)
        inside.append(mid)
        # (dy, -dx) points to the right of a -> b, out of the polygon; past
        # b along the edge is outside too, as the boundary turns left at b.
        outside.append((mid[0] + NUDGE * dy, mid[1] - NUDGE * dx))
        outside.append((b[0] + NUDGE * dx, b[1] + NUDGE * dy))
    for _ in range(draw(st.integers(0, 4))):
        size = st.lists(st.integers(0, 5), min_size=len(vs), max_size=len(vs))
        weights = draw(size)
        total = sum(weights)
        if total:
            inside.append(tuple(
                sum(w * v[k] for w, v in zip(weights, vs)) / total
                for k in (0, 1)
            ))
    return poly, inside, outside


@PROPERTY
@given(located_points())
def test_locate_finds_a_face_that_holds_the_point(case):
    poly, inside, outside = case
    vs = poly.vertices
    for p in outside:
        assert not _inside_every_edge(poly, p)
        assert poly.locate(p) is None and not poly.contains(p)
    for p in inside:
        assert _inside_every_edge(poly, p) and poly.contains(p)
        face = poly.locate(p)
        assert list(face) == sorted(set(face))
        if len(vs) >= 3:
            assert len(face) == 3 and face[0] == 0
            assert face[2] == face[1] + 1
        else:
            assert face == tuple(range(len(vs)))
        weights = _face_weights([vs[i] for i in face], p)
        assert all(w >= 0 for w in weights) and sum(weights) == 1
        assert tuple(
            sum(w * vs[i][k] for w, i in zip(weights, face)) for k in (0, 1)
        ) == p
