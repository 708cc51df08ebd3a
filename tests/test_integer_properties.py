"""The integer loops agree with their object-based references over random
inputs: t_runs with reference_t_runs (one matrix object per Euclid step) on
unimodular matrices with entries up to 2^800, c = 0 and negative entries
included; polygon._cusp, the sign-only normalisation of a cusp vertex, with
the gcd-reducing act_cusp of the identity on coprime pairs, q <= 0 and (+-1, 0)
included; develop with the cut set of a BFS over the cuboid graph and the
product of the move letters S, U and U^2 along it, for the five families at
every level up to 30; g ** n with
the plain product of |n| copies for |n| <= 40 and entries up to 2^200, S, U
and the identity included; evaluate_word with reference_evaluate, the
product of those plain powers, on words in the generators of the five
families at N <= 25 and of random transitive pairs, with exponents up to
+-40 and the empty word included; and lift with the Fraction arithmetic of
reference_lift on negative, integral and 400-bit rationals.  The examples
of t_runs include its rounding ties, d/c = k +- 1/2."""

from fractions import Fraction
from math import gcd

from hypothesis import assume, example, given, settings, strategies as st

from modpoly.cosets import FAMILIES, build_system
from modpoly.polygon import SpecialPolygon, _cusp, build_polygon, develop
from modpoly.psl2 import IDENTITY, S, T, U, act_cusp, t_runs
from modpoly.reduce import BASE_POINT, evaluate_word, lift

from oracles import (
    built_polygon,
    random_unimodular,
    reference_develop,
    reference_evaluate,
    reference_lift,
    reference_power,
    reference_t_runs,
)
from test_random_systems import coset_systems

BIG = 2**800
entries = st.integers(-BIG, BIG)
shifts = st.integers(-2**64, 2**64)
# (a, c, t) for random_unimodular: any pair, or c = 0 with a = +-1 (T^t)
columns = st.one_of(st.tuples(entries, entries, shifts),
                    st.tuples(st.sampled_from([1, -1]), st.just(0), shifts))


@settings(max_examples=300, deadline=None)
@given(columns)
@example((1, 0, 0))
@example((-1, 0, -5))
@example((0, 1, 0))
@example((0, -1, 3))
@example((2**800 - 1, -2**799, 1))
# ties d/c = k +- 1/2, which round up, of both signs: a tie needs c | 2d
# with gcd(c, d) = 1, so c = 2; and c = 1, where c divides d
@example((1, 2, 0))
@example((1, 2, 1))
@example((1, 2, -1))
@example((1, 2, -2))
@example((3, -2, 5))
@example((-1, 2, -4))
@example((5, 1, -7))
@example((-3, 1, 4))
@example((2**800 - 1, 2, 2**798))
@example((2**800 + 1, -2, 2**798 + 3))
def test_t_runs_matches_the_reference(column):
    g = random_unimodular(*column)
    assume(g is not None)
    assert t_runs(g) == reference_t_runs(g)


@settings(max_examples=300, deadline=None)
@given(entries, entries)
@example(1, 0)
@example(-1, 0)
@example(0, 1)
@example(0, -1)
@example(-7, -3)
@example(5, -2)
def test_coprime_cusp_matches_cusp(p, q):
    assume(gcd(p, q) == 1)
    assert _cusp(p, q) == act_cusp(IDENTITY, (p, q))


def test_develop_matches_the_product_of_moves():
    # the one pass over the U-orbits crosses the pairs the BFS over the
    # cuboid graph's type-(1) vertices keeps, and develops the same matrices
    for family in FAMILIES:
        for level in range(1, 31):
            system = build_system(family, level)
            assert develop(system) == reference_develop(system), (family, level)


# elements with entries up to 2^200: random ones, and S, U, T and the identity
small_entries = st.integers(-2**200, 2**200)
elements = st.one_of(
    st.tuples(small_entries, small_entries, st.integers(-2**8, 2**8))
    .map(lambda column: random_unimodular(*column)).filter(lambda g: g is not None),
    st.sampled_from([IDENTITY, S, U, T]))


@settings(max_examples=200, deadline=None)
@given(elements, st.integers(-40, 40))
@example(S, -1)
@example(U, 2)
@example(U, -3)
@example(IDENTITY, 7)
def test_power_is_the_plain_product(g, n):
    assert g ** n == reference_power(g, n)


# polygons of the five families at N <= 25 and of random transitive pairs;
# their generators are elliptic (orders 2 and 3), parabolic and hyperbolic
polygons = st.one_of(
    st.tuples(st.sampled_from(FAMILIES), st.integers(1, 25)).map(lambda key: built_polygon(*key)),
    coset_systems().map(build_polygon))


@st.composite
def polygon_words(draw):
    poly = draw(polygons)
    syllable = st.tuples(st.integers(0, len(poly.generators) - 1), st.integers(-40, 40))
    return poly, draw(st.lists(syllable, max_size=8))


def _every_generator(family, N, exponents):
    poly = built_polygon(family, N)
    return poly, [(i, e) for i in range(len(poly.generators)) for e in exponents]


@settings(max_examples=300, deadline=None)
@given(polygon_words())
@example((built_polygon("gamma0", 11), []))
# parabolic and hyperbolic generators
@example(_every_generator("gamma0", 11, (40, -40, 1, -1, 2, -7)))
# parabolic, order 2 and order 3
@example(_every_generator("gamma0", 13, (40, -40, 1, -1, 2, -2, 3, -5)))
def test_evaluate_word_is_the_product_of_powers(case):
    poly, word = case
    assert evaluate_word(poly.generators, word) == reference_evaluate(poly.generators, word)


BIG_DENOMINATOR = 2**400
rationals = st.one_of(
    st.integers(-10**6, 10**6).map(Fraction),
    st.fractions(min_value=-100, max_value=100, max_denominator=10**4),
    st.tuples(st.integers(-2**420, 2**420), st.integers(1, BIG_DENOMINATOR))
    .map(lambda pair: Fraction(*pair)))
positive = st.one_of(
    st.integers(1, 10**6).map(Fraction),
    st.tuples(st.integers(1, 2**420), st.integers(1, BIG_DENOMINATOR))
    .map(lambda pair: Fraction(*pair)))


@settings(max_examples=300, deadline=None)
@given(rationals, positive)
@example(Fraction(0), Fraction(1))
@example(Fraction(-3), Fraction(4))
@example(Fraction(-1, 2), Fraction(3, 4))
@example(Fraction(1, BIG_DENOMINATOR), Fraction(1, BIG_DENOMINATOR - 1))
def test_lift_matches_the_fraction_lift(x, y2):
    assert lift(x.numerator, x.denominator, y2.numerator, y2.denominator) == reference_lift(x, y2)


def test_polygon_base_point_lifts_to_the_first_base_point():
    z = SpecialPolygon.base_point
    x, y = z.x, z.y
    assert lift(x.numerator, x.denominator, y.numerator**2, y.denominator**2) == BASE_POINT
    assert BASE_POINT == (17, 4, 16)
