"""Property tests for the canonical-form polygon kernel.

minkowski_sum, hull_of_union and prune_polygon read canonical input and
emit canonical output without a sort or a re-hull. Each is checked here
against MomentPolygon.of, which builds canonical form from arbitrary points.
Small coordinates on a coarse grid make points, segments, collinear
vertices, parallel edges and vertical edges common. Signed coordinates over
coprime and large denominators make each kernel's common denominator, the
one it lifts its input onto to run on integers, large and different for
every input.

The direction behind each witness's vertex policies, `_inner_normal`, is
checked here too: over a canonical polygon, the linear function it gives
must be least at its vertex and at no other.
"""

import itertools

import pytest

pytest.importorskip(
    "hypothesis", reason="property tests need hypothesis (the [test] extra)"
)

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from mvmdp.frequency import _inner_normal  # noqa: E402
from mvmdp.geometry import (  # noqa: E402
    MomentPolygon,
    hull_of_union,
    minkowski_sum,
    prune_polygon,
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
    """Canonical, with every coordinate a Rat: no int of a kernel's integer
    frame leaks out."""
    assert all(type(c) is Rat for v in poly.vertices for c in v)
    assert MomentPolygon.of(poly.vertices) == poly


WEIGHTS = st.sampled_from((1, Rat(1, 2), Rat(2, 3)))


@PROPERTY
@given(any_family, st.lists(WEIGHTS, min_size=4, max_size=4))
def test_minkowski_sum_is_the_hull_of_vertex_sums(family, weights):
    parts = [poly.scale(w) for poly, w in zip(family, weights)]
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
    # vertices are dropped whatever common denominator each side lifts to.
    moved = poly.scale(k).translate(u, v)
    assert prune_polygon(moved, k * k * budget) == (
        prune_polygon(poly, budget).scale(k).translate(u, v)
    )


@PROPERTY
@given(any_polygon)
def test_inner_normal_is_least_at_its_vertex_alone(poly):
    vs = poly.vertices
    for i, vertex in enumerate(vs):
        c0, c1 = _inner_normal(vs, i)
        assert type(c0) is int and type(c1) is int
        least = c0 * vertex[0] + c1 * vertex[1]
        for j, (m, q) in enumerate(vs):
            if j != i:
                assert c0 * m + c1 * q > least
