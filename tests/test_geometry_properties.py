"""Property tests for the canonical-form polygon kernel.

minkowski_sum, hull_of_union and prune_polygon read canonical input and
emit canonical output without a sort or a re-hull. Each is checked here
against MomentPolygon.of, which builds canonical form from arbitrary points.
Small coordinates on a coarse grid make points, segments, collinear
vertices, parallel edges and vertical edges common.
"""

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
)
from mvmdp.rationals import Rat  # noqa: E402

PROPERTY = settings(
    max_examples=300, deadline=None, derandomize=True, database=None
)

coords = st.builds(Rat, st.integers(-4, 4), st.sampled_from((1, 2)))
points = st.tuples(coords, coords)


@st.composite
def polygons(draw):
    return MomentPolygon.of(draw(st.lists(points, min_size=1, max_size=8)))


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
def families(draw):
    """One to four polygons; each after the first is fresh, a repeat of an
    earlier one, or nested inside an earlier one."""
    out = [draw(polygons())]
    for _ in range(draw(st.integers(0, 3))):
        earlier = draw(st.sampled_from(out))
        kind = draw(st.sampled_from(("fresh", "same", "nested")))
        if kind == "fresh":
            out.append(draw(polygons()))
        elif kind == "same":
            out.append(earlier)
        else:
            out.append(draw(nested(earlier)))
    return out


def _is_canonical(poly):
    return MomentPolygon.of(poly.vertices) == poly


@PROPERTY
@given(families(), st.sampled_from((1, Rat(1, 2), Rat(2, 3))))
def test_minkowski_sum_is_the_hull_of_vertex_sums(family, weight):
    p, q = family[0], family[-1].scale(weight)
    got = minkowski_sum(p, q)
    assert got == MomentPolygon.of(
        [(a[0] + b[0], a[1] + b[1]) for a in p.vertices for b in q.vertices]
    )
    assert _is_canonical(got)


@PROPERTY
@given(families())
def test_hull_of_union_is_the_hull_of_all_vertices(family):
    got = hull_of_union(family)
    assert got == MomentPolygon.of(
        [v for poly in family for v in poly.vertices]
    )
    assert _is_canonical(got)


@PROPERTY
@given(polygons(), st.sampled_from((0, Rat(1, 16), Rat(1, 4), 1, 4)))
def test_pruned_polygons_are_canonical(poly, budget):
    got = prune_polygon(poly, budget)
    assert _is_canonical(got)
    assert set(got.vertices) <= set(poly.vertices)
