import random
from collections import Counter

import pytest

from mvmdp.fixtures import offset_chain
from mvmdp.frequency import (
    exact_pair_feasible,
    mean_fixed_var_bounded,
    min_q_over_interval,
)
from mvmdp.games import class_feasibility
from mvmdp.geometry import (
    MomentPolygon,
    directed_hausdorff_sq,
    hausdorff_sq,
    hull_of_union,
    minkowski_sum,
    point_polygon_dist_sq,
    point_segment_dist_sq,
    prune_polygon,
)
from mvmdp.rationals import Rat
from mvmdp.setdp import exact_frontier

SQUARE = MomentPolygon.of([(0, 0), (1, 0), (1, 1), (0, 1)])


def test_canonical_form_is_input_order_independent():
    a = MomentPolygon.of([(1, 1), (0, 0), (0, 1), (1, 0)])
    b = MomentPolygon.of([(0, 1), (1, 0), (1, 1), (0, 0), (0, 0)])
    assert a == b == SQUARE
    assert a.vertices == ((0, 0), (1, 0), (1, 1), (0, 1))


def test_collinear_and_interior_points_are_dropped():
    poly = MomentPolygon.of(
        [(0, 0), (2, 0), (1, 0), (2, 2), (0, 2), (1, 1), (0, 1)]
    )
    assert poly.vertices == ((0, 0), (2, 0), (2, 2), (0, 2))


def test_degenerate_polygons():
    assert MomentPolygon.of([(3, 4), (3, 4)]).vertices == ((3, 4),)
    seg = MomentPolygon.of([(0, 0), (2, 2), (1, 1)])
    assert seg.vertices == ((0, 0), (2, 2))


@pytest.mark.parametrize(
    "build",
    [
        lambda: MomentPolygon.of([(0.1, 0.2), (1, 1)]),
        lambda: MomentPolygon.of([(0, 0), (1, True)]),
        lambda: MomentPolygon.point(True, 0.5),
        lambda: MomentPolygon.point(0, 0.5),
        lambda: prune_polygon(SQUARE, 0, 0.5),
    ],
    ids=["of-float", "of-bool", "point-bool", "point-float", "shift-float"],
)
def test_polygons_refuse_floats_and_bools(build):
    # 0.1 would silently become 3602879701896397/36028797018963968.
    with pytest.raises(TypeError, match="exact rational"):
        build()


@pytest.mark.parametrize(
    "call",
    [
        lambda: SQUARE.contains((0.1, 0.1)),
        lambda: SQUARE.locate((0, True)),
        lambda: prune_polygon(SQUARE, 0.5),
        lambda: prune_polygon(SQUARE, False),
        lambda: prune_polygon(MomentPolygon.point(0, 0), 0.5),
        lambda: prune_polygon(MomentPolygon.of([(0, 0), (1, 1)]), True),
    ],
    ids=[
        "contains-float", "locate-bool", "prune-float", "prune-bool",
        "prune-point-float", "prune-segment-bool",
    ],
)
def test_polygon_queries_refuse_floats_and_bools(call):
    with pytest.raises(TypeError, match="exact rational"):
        call()


@pytest.mark.parametrize(
    "call",
    [
        lambda f: f.second_moment(0.5),
        lambda f: f.second_moment(True),
        lambda f: f.argmin(0.25),
        lambda f: f.value(False),
        # Both ends, not only the one the clamp keeps.
        lambda f: f.min_second_moment(2, 2.5),
        lambda f: f.min_second_moment(0.5, Rat(3, 4)),
        lambda f: f.min_second_moment(0, True),
    ],
    ids=["second-float", "second-bool", "argmin-float", "value-bool",
         "interval-hi-float", "interval-lo-float", "interval-hi-bool"],
)
def test_exact_frontier_refuses_floats_and_bools(call):
    with pytest.raises(TypeError, match="exact rational"):
        call(exact_frontier(SQUARE))


@pytest.mark.parametrize(
    "call",
    [
        lambda mdp: exact_pair_feasible(mdp, 0.5, 0),
        lambda mdp: exact_pair_feasible(mdp, 0, True),
        lambda mdp: mean_fixed_var_bounded(mdp, 0.5, 1),
        lambda mdp: mean_fixed_var_bounded(mdp, 0, 1.0),
        lambda mdp: min_q_over_interval(mdp, 0.1, 1),
        lambda mdp: min_q_over_interval(mdp, 0, True),
    ],
    ids=["pair-mean-float", "pair-variance-bool", "fixed-mean-float",
         "fixed-cap-float", "interval-lo-float", "interval-hi-bool"],
)
def test_frequency_queries_refuse_floats_and_bools(call):
    with pytest.raises(TypeError, match="exact rational"):
        call(offset_chain())


@pytest.mark.parametrize("tag", ["TS", "TSW", "TS_U", "TSW_U"])
@pytest.mark.parametrize("floor, cap", [(0.5, 1), (0, 0.5), (True, 1)])
def test_class_feasibility_refuses_floats_and_bools(tag, floor, cap):
    with pytest.raises(TypeError, match="exact rational"):
        class_feasibility(offset_chain(), tag, floor, cap)


def test_polygons_take_exact_rationals_in_every_form():
    assert MomentPolygon.point("1/2", (3, 4)) == MomentPolygon.point(
        Rat(1, 2), Rat(3, 4)
    )


def test_contains():
    assert SQUARE.contains((Rat(1, 2), Rat(1, 2)))
    assert SQUARE.contains((0, 0))
    assert SQUARE.contains((1, Rat(1, 2)))
    assert not SQUARE.contains((2, 0))
    assert not SQUARE.contains((Rat(1, 2), -Rat(1, 1000)))
    seg = MomentPolygon.of([(0, 0), (2, 2)])
    assert seg.contains((1, 1))
    assert not seg.contains((1, 2))
    assert not seg.contains((3, 3))
    pt = MomentPolygon.point(5, 5)
    assert pt.contains((5, 5))
    assert not pt.contains((5, 6))


def test_minkowski_squares():
    doubled = minkowski_sum(SQUARE, SQUARE)
    assert doubled == MomentPolygon.of([(0, 0), (2, 0), (2, 2), (0, 2)])


def test_minkowski_with_point_translates():
    assert minkowski_sum(SQUARE, MomentPolygon.point(2, 3)) == MomentPolygon.of(
        [(2, 3), (3, 3), (3, 4), (2, 4)]
    )


def test_minkowski_segments():
    horizontal = MomentPolygon.of([(0, 0), (1, 0)])
    vertical = MomentPolygon.of([(0, 0), (0, 1)])
    assert minkowski_sum(horizontal, vertical) == SQUARE
    diag_a = MomentPolygon.of([(0, 0), (1, 1)])
    diag_b = MomentPolygon.of([(0, 0), (2, 2)])
    assert minkowski_sum(diag_a, diag_b) == MomentPolygon.of([(0, 0), (3, 3)])


def test_minkowski_of_one_polygon_is_that_polygon():
    assert minkowski_sum(SQUARE) is SQUARE


def test_minkowski_of_points_is_a_point():
    points = [
        MomentPolygon.point(2, 3),
        MomentPolygon.point(-1, Rat(1, 2)),
        MomentPolygon.point(Rat(1, 3), 0),
    ]
    assert minkowski_sum(*points) == MomentPolygon.point(Rat(4, 3), Rat(7, 2))


def test_minkowski_of_nothing_is_the_origin():
    assert minkowski_sum() == MomentPolygon.point(0, 0)


def _pairwise_sum(p, q):
    return MomentPolygon.of(
        [(a[0] + b[0], a[1] + b[1]) for a in p.vertices for b in q.vertices]
    )


def _random_polygon(rng):
    pts = [
        (Rat(rng.randrange(-8, 9), rng.randrange(1, 4)),
         Rat(rng.randrange(-8, 9), rng.randrange(1, 4)))
        for _ in range(rng.randrange(1, 8))
    ]
    return MomentPolygon.of(pts)


def test_minkowski_matches_pairwise_hull():
    # Independent route: the sum of convex sets is the hull of vertex sums.
    rng = random.Random(20260822)
    for _ in range(40):
        p = _random_polygon(rng)
        q = _random_polygon(rng)
        assert minkowski_sum(p, q) == _pairwise_sum(p, q)


def test_hull_of_union():
    other = MomentPolygon.of([(3, 0), (4, 0), (4, 1), (3, 1)])
    merged = hull_of_union([SQUARE, other])
    assert merged == MomentPolygon.of([(0, 0), (4, 0), (4, 1), (0, 1)])


def test_chains_square():
    assert SQUARE.lower_chain() == [(0, 0), (1, 0)]
    assert SQUARE.upper_chain() == [(0, 1), (1, 1)]


def test_chains_triangle():
    tri = MomentPolygon.of([(0, 0), (2, 0), (1, 3)])
    assert tri.lower_chain() == [(0, 0), (2, 0)]
    assert tri.upper_chain() == [(0, 0), (1, 3), (2, 0)]


def test_chains_degenerate():
    vertical = MomentPolygon.of([(0, 0), (0, 2)])
    assert vertical.lower_chain() == [(0, 0)]
    assert vertical.upper_chain() == [(0, 2)]
    point = MomentPolygon.point(1, 1)
    assert point.lower_chain() == point.upper_chain() == [(1, 1)]


def _top_at(poly, x):
    """Largest y of the polygon on the vertical line through x."""
    vs = poly.vertices
    best = max(v[1] for v in vs if v[0] == x)
    for a, b in zip(vs, vs[1:] + vs[:1]):
        if a[0] != b[0] and min(a[0], b[0]) <= x <= max(a[0], b[0]):
            best = max(best, a[1] + (b[1] - a[1]) * (x - a[0]) / (b[0] - a[0]))
    return best


def test_upper_chain_matches_brute_force():
    # A vertex is on the upper boundary iff nothing of the polygon lies above
    # it. Few distinct x values make vertical left and right edges common.
    rng = random.Random(0x5EC7)
    vertical_left = vertical_right = 0
    for _ in range(300):
        pts = [
            (Rat(rng.randrange(-2, 3), rng.randrange(1, 3)),
             Rat(rng.randrange(-8, 9), rng.randrange(1, 4)))
            for _ in range(rng.randrange(1, 9))
        ]
        poly = MomentPolygon.of(pts)
        expected = sorted(v for v in poly.vertices if v[1] == _top_at(poly, v[0]))
        assert poly.upper_chain() == expected
        xs = [v[0] for v in poly.vertices]
        vertical_left += xs.count(min(xs)) == 2
        vertical_right += xs.count(max(xs)) == 2 and min(xs) != max(xs)
    assert vertical_left > 20 and vertical_right > 20


def test_point_segment_dist_sq():
    assert point_segment_dist_sq((0, 1), (0, 0), (2, 0)) == 1
    assert point_segment_dist_sq((-1, 1), (0, 0), (2, 0)) == 2
    assert point_segment_dist_sq((3, 0), (0, 0), (2, 0)) == 1
    assert point_segment_dist_sq((1, 0), (1, 0), (1, 0)) == 0
    # int coordinates projecting inside the segment give an exact Rat
    inside = point_segment_dist_sq((1, 1), (0, 0), (2, 0))
    assert inside == 1 and isinstance(inside, Rat)


def _projection_dist_sq(p, a, b):
    """Squared distance through the clamped projection parameter
    t = (p - a).(b - a) / |b - a|^2, the nearest point being a + t(b - a)."""
    (px, py), (ax, ay), (bx, by) = p, a, b
    dx, dy = bx - ax, by - ay
    length_sq = dx * dx + dy * dy
    if length_sq == 0:
        ex, ey = px - ax, py - ay
        return ex * ex + ey * ey
    t = min(max(((px - ax) * dx + (py - ay) * dy) / length_sq, 0), 1)
    ex, ey = px - (ax + t * dx), py - (ay + t * dy)
    return ex * ex + ey * ey


def test_point_segment_dist_sq_matches_projection_formula():
    # Five kinds of triple in turn: a zero-length segment, a point on the
    # segment, a point projecting onto a (t <= 0), a point projecting onto
    # b (t >= 1), and a free point. The endpoint kinds include t = 0 and
    # t = 1 exactly, where the two branches meet.
    rng = random.Random(0xD157)

    def coord():
        return Rat(rng.randrange(-12, 13), rng.randrange(1, 5))

    ts = Counter()
    for k in range(500):
        a = (coord(), coord())
        b = a if k % 5 == 0 else (coord(), coord())
        d = (b[0] - a[0], b[1] - a[1])
        normal = (-d[1], d[0])
        u = Rat(rng.randrange(-3, 4), rng.randrange(1, 4))
        if k % 5 == 1:
            t = Rat(rng.randrange(0, 7), 6)
            p = (a[0] + t * d[0], a[1] + t * d[1])
        elif k % 5 in (2, 3):
            s = Rat(rng.randrange(0, 4), rng.randrange(1, 3))
            t = -s if k % 5 == 2 else 1 + s
            p = (a[0] + t * d[0] + u * normal[0],
                 a[1] + t * d[1] + u * normal[1])
        else:
            p = (coord(), coord())
        got = point_segment_dist_sq(p, a, b)
        assert isinstance(got, Rat)
        assert got == _projection_dist_sq(p, a, b)
        if k % 5 == 1:
            assert got == 0
        if d != (0, 0) and k % 5 in (1, 2, 3):
            ts[min(max(t, 0), 1)] += 1
    assert ts[0] > 20 and ts[1] > 20 and sum(ts.values()) - ts[0] - ts[1] > 20


def test_point_polygon_dist_sq():
    assert point_polygon_dist_sq((Rat(1, 2), Rat(1, 2)), SQUARE) == 0
    assert point_polygon_dist_sq((2, Rat(1, 2)), SQUARE) == 1
    assert point_polygon_dist_sq((2, 2), SQUARE) == 2


def test_hausdorff_sq():
    assert hausdorff_sq(SQUARE, SQUARE) == 0
    moved = MomentPolygon.of([(3, 0), (4, 0), (4, 1), (3, 1)])
    assert hausdorff_sq(SQUARE, moved) == 9
    big = MomentPolygon.of([(0, 0), (2, 0), (2, 2), (0, 2)])
    tall_half = MomentPolygon.of([(0, 0), (1, 0), (1, 2), (0, 2)])
    assert directed_hausdorff_sq(tall_half, big) == 0
    assert hausdorff_sq(big, tall_half) == 1


PENTAGON = MomentPolygon.of([(0, 0), (4, 0), (4, 3), (2, 4), (0, 3)])


def test_prune_removes_shallow_vertex():
    # Dropping (2, 4) costs exactly distance 1 to the remaining top edge.
    pruned = prune_polygon(PENTAGON, 1)
    assert pruned == MomentPolygon.of([(0, 0), (4, 0), (4, 3), (0, 3)])


def test_prune_respects_tight_budget():
    assert prune_polygon(PENTAGON, Rat(1, 2)) == PENTAGON


def test_prune_is_an_inner_approximation():
    rng = random.Random(17)
    for _ in range(30):
        poly = _random_polygon(rng)
        budget = Rat(rng.randrange(0, 5), rng.randrange(1, 4))
        pruned = prune_polygon(poly, budget)
        assert set(pruned.vertices) <= set(poly.vertices)
        assert directed_hausdorff_sq(pruned, poly) == 0
        assert directed_hausdorff_sq(poly, pruned) <= budget


@pytest.mark.parametrize(
    "poly",
    [SQUARE, MomentPolygon.point(0, 0), MomentPolygon.of([(0, 0), (1, 1)])],
    ids=["square", "point", "segment"],
)
def test_prune_polygon_refuses_a_negative_budget(poly):
    # compute_pmq refuses a negative budget with the same message.
    with pytest.raises(ValueError, match="prune budget must be nonnegative"):
        prune_polygon(poly, -1)


def test_min_second_moment_refuses_an_empty_interval():
    # As min_q_over_interval does; the clamp would answer 0.
    with pytest.raises(ValueError, match="empty interval"):
        exact_frontier(SQUARE).min_second_moment(3, 1)
    assert exact_frontier(SQUARE).min_second_moment("1/2", "1/2") == 0
