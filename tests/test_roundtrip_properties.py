"""Round-trip properties of the two query paths over random families,
levels and rational points: locate_point returns a point w of the polygon
and a word whose value gamma is in the subgroup with gamma * w = z, and for
random members the traced word of express equals the Schreier word (both
are the unique normal form in the independent generators).  The tracer,
run from the first strictly interior base point, reaches random points and
points just beyond every elliptic vertex with no restart: locate_point's
retry from the next base point would otherwise hide a wrong crossing."""

from fractions import Fraction
from math import gcd

from hypothesis import example, given, settings, strategies as st

from modpoly.cosets import FAMILIES
from modpoly.reduce import (
    BASE_POINTS,
    ExactPoint,
    _trace,
    act,
    act_point,
    evaluate_word,
    express,
    lift,
    locate_point,
    reduce_word,
)

from oracles import built_polygon

# Gamma(N) has index about N^3 / 2, so its levels stop at 12 (index 576)
groups = st.sampled_from(FAMILIES).flatmap(
    lambda family: st.tuples(st.just(family), st.integers(1, 12 if family == "gamma" else 30)))
points = st.builds(ExactPoint,
                   st.fractions(min_value=-20, max_value=20, max_denominator=60),
                   st.fractions(min_value=Fraction(1, 60), max_value=20, max_denominator=60))

BOUNDED = settings(max_examples=150, deadline=None)


@BOUNDED
@given(groups, points)
@example(("gamma0", 1), ExactPoint(Fraction(7, 8), Fraction(3, 8)))
def test_locate_returns_a_polygon_point_and_a_member(group, z):
    poly = built_polygon(*group)
    w, word = locate_point(poly, z)
    gamma = evaluate_word(poly.generators, word)
    assert poly.contains(w.x, w.y**2)
    assert act_point(gamma, w) == z
    assert poly.system.member(gamma)


@BOUNDED
@given(groups, st.data())
def test_traced_word_is_the_schreier_word(group, data):
    poly = built_polygon(*group)
    gens = poly.generators
    syllables = st.tuples(st.integers(0, len(gens) - 1), st.sampled_from([-2, -1, 1, 2]))
    word = data.draw(st.lists(syllables, max_size=6))
    g = evaluate_word(gens, word)
    schreier = express(poly, g)
    assert schreier == reduce_word(word, gens)
    assert express(poly, g, use_trace=True) == schreier


def _first_base_point(poly):
    return next(p for p in BASE_POINTS if poly._contains(p, strict=True))


def _half_turn(vertex, point):
    """The point triple opposite point across the elliptic vertex (n, m, k):
    the image under the half-turn about the vertex, z -> (mz - n)/(kz - m),
    which lies on the geodesic from point through the vertex, as far beyond.
    The map has determinant nk - m^2 > 0, so it acts on triples by the
    symmetric square like any element of PSL2(Z)."""
    vn, vm, vk = vertex
    n, m, k = point
    out = (vm * vm * n - 2 * vm * vn * m + vn * vn * k,
           vm * vk * n - (vm * vm + vn * vk) * m + vn * vm * k,
           vk * vk * n - 2 * vk * vm * m + vm * vm * k)
    g = gcd(*out)
    return tuple(x // g for x in out)


@BOUNDED
@given(groups, points)
def test_trace_reaches_random_points_without_restart(group, z):
    poly = built_polygon(*group)
    target = lift(z.x, z.y**2)
    w, word = _trace(poly, _first_base_point(poly), target)
    assert poly._contains(w)
    assert act(evaluate_word(poly.generators, word), w) == target


@BOUNDED
@given(groups)
def test_trace_passes_elliptic_vertices_without_restart(group):
    # the travel segment leaves the polygon exactly at the vertex, where an
    # order-3 crossing must pick the rotation that re-enters the polygon
    poly = built_polygon(*group)
    source = _first_base_point(poly)
    vertices = {end[2] for side in poly.sides for end in (side.start, side.end)
                if end[0] == "ell"}
    for vertex in vertices:
        target = _half_turn(vertex, source)
        w, word = _trace(poly, source, target)
        assert poly._contains(w)
        assert act(evaluate_word(poly.generators, word), w) == target
