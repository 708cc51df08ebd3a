"""Polygon membership by bisection on x against the full scan over every
side's half-plane (oracles.reference_contains), strict and non-strict: at
and next to every boundary vertex, on, inside and outside both walls, and at
random points; a coordinate that is not an int or a Fraction, or a point
not in H, is refused.  Besides the four stock groups, the level-1 and
level-2, -3 groups cover the walls other than a single even side: a left
wall split at an order-2 vertex, and right walls that are an odd half or an
e3 line."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from oracles import built_polygon, lift_rational, reference_contains, reference_halfplanes

GROUPS = [("gamma0", 1009), ("gamma", 7), ("gamma1", 13), ("gamma_upper1", 30),
          ("gamma0", 1), ("gamma_upper0", 2), ("gamma_upper0", 3)]

HEIGHTS2 = [Fraction(1, 10**12), Fraction(1, 10**6), Fraction(1, 100), Fraction(1, 4),
            Fraction(3, 4), Fraction(1), Fraction(4, 3), Fraction(10**4)]


def vertex_xy2(vertex):
    """(x, y^2) of a finite vertex: y^2 = 0 for a cusp (p, q)."""
    if len(vertex) == 2:
        return Fraction(*vertex), Fraction(0)
    n, m, k = vertex
    return Fraction(m, k), Fraction(n * k - m * m, k * k)


def finite_vertices(poly):
    """(x, y^2) of vertex j, the end of side left_wall + j, for j < M - 1."""
    sides, left = poly.sides, poly.left_wall
    return [vertex_xy2(sides[(left + j) % len(sides)].end) for j in range(len(sides) - 1)]


def assert_agrees(poly, halfplanes, x, y2):
    point = lift_rational(x, y2)
    for strict in (False, True):
        assert poly._contains(point, strict) == reference_contains(halfplanes, point, strict), \
            (x, y2, strict)


@pytest.mark.parametrize("group", GROUPS)
def test_contains_at_and_next_to_every_vertex(group):
    poly = built_polygon(*group)
    halfplanes = reference_halfplanes(poly)
    for x, y2 in finite_vertices(poly):
        if y2:
            # the elliptic vertex itself, and points next to it
            assert reference_contains(halfplanes, lift_rational(x, y2))
            assert not reference_contains(halfplanes, lift_rational(x, y2), strict=True)
            near = [(x, y2)] + [(x + dx, y2 * s)
                                for dx in (0, Fraction(1, 10**9), -Fraction(1, 10**9))
                                for s in (Fraction(999, 1000), Fraction(1001, 1000))]
        else:
            # above a cusp, and beside it
            near = [(x + dx, h) for dx in (0, Fraction(1, 10**9), -Fraction(1, 10**9))
                    for h in HEIGHTS2]
        for px, py2 in near:
            assert_agrees(poly, halfplanes, px, py2)


@pytest.mark.parametrize("group", GROUPS)
def test_contains_on_and_beside_both_walls(group):
    poly = built_polygon(*group)
    halfplanes = reference_halfplanes(poly)
    vertices = finite_vertices(poly)
    (x_min, y2_min), (x_max, y2_max) = vertices[0], vertices[-1]
    for x in (x_min, x_max):
        for dx in (0, Fraction(1, 10**9), -Fraction(1, 10**9)):
            for y2 in HEIGHTS2 + [y2_min, y2_max]:
                if y2:
                    assert_agrees(poly, halfplanes, x + dx, y2)
    # on a wall, nothing is interior
    for y2 in HEIGHTS2:
        assert not poly._contains(lift_rational(x_min, y2), strict=True)
        assert not poly._contains(lift_rational(x_max, y2), strict=True)
    # high above the strip, inside it exactly
    assert poly._contains(lift_rational((x_min + x_max) / 2, Fraction(10**4)), strict=True)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(GROUPS),
       st.fractions(min_value=Fraction(-1, 2), max_value=Fraction(3, 2), max_denominator=10**5),
       st.fractions(min_value=Fraction(1, 10), max_value=10, max_denominator=100),
       st.integers(0, 24))
def test_contains_matches_the_full_scan_at_random_points(group, u, r, e):
    # x over the strip and half its width beyond either wall, y^2 from 10
    # down to about 10^-16
    poly = built_polygon(*group)
    halfplanes = reference_halfplanes(poly)
    vertices = finite_vertices(poly)
    x_min, x_max = vertices[0][0], vertices[-1][0]
    x, y2 = x_min + u * (x_max - x_min), r / Fraction(4) ** e
    assert_agrees(poly, halfplanes, x, y2)
    assert poly.contains(x, y2) == reference_contains(halfplanes, lift_rational(x, y2))


@pytest.mark.parametrize("x, y2, message", [
    (0.25, 1.0, "not an int or a Fraction"),
    (Fraction(1, 4), 1.0, "not an int or a Fraction"),
    (Fraction(1, 4), Fraction(-1), "not in the upper half-plane"),
    (Fraction(1, 4), 0, "not in the upper half-plane"),
])
def test_contains_refuses_a_point_that_is_not_exact_or_not_in_h(x, y2, message):
    poly = built_polygon("gamma0", 11)
    with pytest.raises(ValueError, match=message):
        poly.contains(x, y2)
    assert poly.contains(Fraction(1, 4), 1)
