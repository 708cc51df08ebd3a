"""Round-trip properties of the two query paths over random families,
levels and rational points: locate_point returns a point w of the polygon
and a word whose value gamma is in the subgroup with gamma * w = z, and for
random members the traced word of express equals the Schreier word (both
are the unique normal form in the independent generators)."""

from fractions import Fraction

from hypothesis import example, given, settings, strategies as st

from modpoly.cosets import FAMILIES
from modpoly.reduce import ExactPoint, act_point, evaluate_word, express, locate_point, reduce_word

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
