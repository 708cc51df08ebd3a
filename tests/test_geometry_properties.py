"""Property tests of the integer geodesic geometry: over random rational
points, cusps and S/U words, transforming a geodesic agrees exactly with
joining the transformed points, the meet of two crossing geodesics lies on
both, polygon membership agrees with a Fraction evaluation of every
side's half-plane, and the integer action on point triples agrees with the
Moebius action on Fractions, keeps triples primitive, preserves dot
products with transformed geodesics up to their sign, and sends i and
e^(i pi/3) to triples with nk - m^2 = 1 and 3."""

from fractions import Fraction
from functools import reduce
from math import gcd

from hypothesis import assume, given, settings, strategies as st

from modpoly.psl2 import IDENTITY, S, U, act_cusp
from modpoly.reduce import (
    I_POINT,
    RHO_POINT,
    ExactPoint,
    act,
    act_point,
    geodesic_between_cusps,
    meet,
    transform,
)

from oracles import (
    built_polygon,
    geodesic_eval_at,
    geodesic_through,
    lift_rational,
    reference_halfplanes,
)

coords = st.fractions(min_value=-20, max_value=20, max_denominator=60)
heights = st.fractions(min_value=Fraction(1, 60), max_value=20, max_denominator=60)
points = st.builds(ExactPoint, coords, heights)
# cusps as the reduced (p, q) pairs that geodesic_between_cusps takes
cusps = st.one_of(
    st.just((1, 0)),
    st.tuples(st.integers(-200, 200), st.integers(1, 200)).map(
        lambda c: act_cusp(IDENTITY, c)),
)
elements = st.lists(st.sampled_from([S, U, U * U]), max_size=16).map(
    lambda word: reduce(lambda g, h: g * h, word, IDENTITY))

BOUNDED = settings(max_examples=150, deadline=None)


@BOUNDED
@given(points, points, elements)
def test_transform_of_join_is_join_of_images(p, q, g):
    assume(p != q)
    image = geodesic_through(act_point(g, p), act_point(g, q))
    assert transform(geodesic_through(p, q), g.tuple()) == image


@BOUNDED
@given(cusps, cusps, elements)
def test_transform_of_cusp_geodesic_is_geodesic_of_images(c1, c2, g):
    assume(c1 != c2)
    assert (transform(geodesic_between_cusps(c1, c2), g.tuple())
            == geodesic_between_cusps(act_cusp(g, c1), act_cusp(g, c2)))


@BOUNDED
@given(points, points, points)
def test_meet_of_crossing_geodesics_lies_on_both(z, p, q):
    # two geodesics through z cross exactly at z unless they coincide
    assume(len({z, p, q}) == 3)
    g1, g2 = geodesic_through(z, p), geodesic_through(z, q)
    point = meet(g1, g2)
    if g1 == g2:
        assert point is None
        return
    n, m, k = point
    x, y2 = Fraction(m, k), Fraction(n * k - m * m, k * k)
    assert (x, y2) == (z.x, z.y**2)
    assert geodesic_eval_at(g1, x, y2) == 0 and geodesic_eval_at(g2, x, y2) == 0
    n2, m2, k2 = lift_rational(z.x, z.y**2)
    assert n * k2 == n2 * k and m * k2 == m2 * k


@BOUNDED
@given(st.sampled_from([("gamma0", 11), ("gamma", 3), ("gamma1", 5)]), points)
def test_contains_matches_fraction_evaluation(group, z):
    poly = built_polygon(*group)
    x, y2 = z.x, z.y**2
    values = [a * (x * x + y2) + b * x + c for a, b, c in reference_halfplanes(poly)]
    assert poly.contains(x, y2) == all(v >= 0 for v in values)
    assert poly.contains(x, y2, strict=True) == all(v > 0 for v in values)


def dot(u, v):
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


@BOUNDED
@given(points, elements)
def test_act_on_lifted_point_is_lift_of_image(z, g):
    w = act_point(g, z)
    assert act(g.tuple(), lift_rational(z.x, z.y**2)) == lift_rational(w.x, w.y**2)


@BOUNDED
@given(points, elements)
def test_act_keeps_triples_primitive(z, g):
    point = lift_rational(z.x, z.y**2)
    assert gcd(*point) == 1
    n, m, k = act(g.tuple(), point)
    assert gcd(n, m, k) == 1 and k > 0


@BOUNDED
@given(points, points, points, points, elements)
def test_act_preserves_dot_with_transformed_geodesic(p, q, z, w, g):
    # transform normalises the sign of its result, so the dot products agree
    # up to one sign for all points
    assume(p != q)
    geod = geodesic_through(p, q)
    image = transform(geod, g.tuple())
    before = [dot(geod, lift_rational(v.x, v.y**2)) for v in (z, w)]
    after = [dot(image, act(g.tuple(), lift_rational(v.x, v.y**2))) for v in (z, w)]
    assert after in (before, [-d for d in before])


@BOUNDED
@given(elements)
def test_elliptic_images_have_the_fixed_heights(g):
    for point, height in ((I_POINT, 1), (RHO_POINT, 3)):
        n, m, k = act(g.tuple(), point)
        assert gcd(n, m, k) == 1 and k > 0
        assert n * k - m * m == height
