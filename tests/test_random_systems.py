"""Property tests over random coset systems, most of them of non-congruence
subgroups: a random involution sigma_s and a random permutation sigma_u of
order dividing 3 on up to 60 points, restricted to the orbit of a random
point, which becomes the distinguished edge.  Every transitive pair with
sigma_s^2 = sigma_u^3 = 1 is the coset action of a finite-index subgroup of
PSL2(Z) = Z/2 * Z/3, so the whole pipeline must hold on it: the polygon is
special, each developing matrix lies in its edge's coset, the one pass over
the U-orbits agrees with the reference through the cuboid graph, every
generator is expressed, by Schreier rewriting and by the tracer, as a word
that evaluates back to it, a random product of up to four syllables is
traced to its Schreier word, the half-turn of the tracer's base point
across every elliptic vertex is traced into the polygon, where the rotation
at an order-3 vertex must re-enter it, a rational point is located in the
polygon by a word that maps it back, and to the same pair as the two-walk
reference (coset lookup, then Schreier rewriting), the generator count of
the graph invariants is the polygon's, the system is pointed-isomorphic to
itself, and normality agrees with the orbit of the distinguished edge, and
the rewriting walk gives the word of the letter walk on long and short
runs."""

import random

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from modpoly.cosets import CosetSystem
from modpoly.cuboid import distinguished_edge_orbit, graph_invariants, is_normal, pointed_isomorphic
from modpoly.polygon import build_polygon, develop, validate_special
from modpoly.psl2 import Psl2Elt
from modpoly.reduce import (
    BASE_POINT,
    ExactPoint,
    _rewrite,
    _trace,
    act,
    act_point,
    evaluate_word,
    express,
    locate_point,
)

from oracles import half_turn, reference_develop, reference_locate, reference_rewrite, turn_runs


def _cycles(order, fixed, length):
    """The permutation of range(len(order)) that fixes order[:fixed] and
    cycles the rest of order in consecutive blocks of the given length."""
    perm = list(range(len(order)))
    for i in range(fixed, len(order), length):
        block = order[i:i + length]
        for x, y in zip(block, block[1:] + block[:1]):
            perm[x] = y
    return perm


@st.composite
def coset_systems(draw, max_points=60):
    """A transitive CosetSystem of index at most max_points."""
    n = draw(st.integers(1, max_points))
    # few fixed points, as in most subgroups: many of them split the pair
    # into small orbits
    e2 = min(n % 2 + 2 * draw(st.integers(0, 1)), n)
    e3 = min(n % 3 + 3 * draw(st.integers(0, 1)), n)
    # shuffled by a Random from a drawn seed: st.permutations and st.randoms
    # favour orders close to the identity, whose blocks leave small orbits
    rng = random.Random(draw(st.integers(0, 2**64)))
    ss = _cycles(rng.sample(range(n), n), e2, 2)
    su = _cycles(rng.sample(range(n), n), e3, 3)
    root = draw(st.integers(0, n - 1))
    orbit, seen = [root], {root}
    for x in orbit:
        for y in (ss[x], su[x]):
            if y not in seen:
                seen.add(y)
                orbit.append(y)
    # number the orbit in the order of its points, so the distinguished
    # edge is not always 0
    index = {x: i for i, x in enumerate(sorted(orbit))}
    sigma_s = [ss[x] for x in sorted(orbit)]
    sigma_u = [su[x] for x in sorted(orbit)]
    return CosetSystem("oracle", None, len(orbit), [index[y] for y in sigma_s],
                       [index[y] for y in sigma_u], index[root])


points = st.builds(ExactPoint,
                   st.fractions(min_value=-20, max_value=20, max_denominator=60),
                   st.fractions(min_value=Fraction(1, 60), max_value=20, max_denominator=60))
wide_points = st.builds(ExactPoint,
                        st.fractions(min_value=-1000, max_value=1000, max_denominator=1000),
                        st.fractions(min_value=Fraction(1, 10**6), max_value=20,
                                     max_denominator=10**6))


@settings(max_examples=300, deadline=None)
@given(coset_systems(), points, st.data())
def test_random_transitive_pair_gives_a_special_polygon(system, z, data):
    poly = build_polygon(system)
    assert validate_special(poly) == []
    crossed, dev = develop(system)
    assert dev == poly.dev
    for e, g in enumerate(dev):
        assert system.coset(Psl2Elt(*g)) == e
    assert (crossed, dev) == reference_develop(system)
    for g, _ in poly.generators:
        for use_trace in (False, True):
            assert evaluate_word(poly.generators, express(poly, g, use_trace)) == g
    syllables = st.tuples(st.integers(0, len(poly.generators) - 1), st.sampled_from([-2, -1, 1, 2]))
    g = evaluate_word(poly.generators, data.draw(st.lists(syllables, max_size=4)))
    assert express(poly, g, True) == express(poly, g)
    for vertex in {end for side in poly.sides for end in (side.start, side.end) if len(end) == 3}:
        target = half_turn(vertex, BASE_POINT)
        w, word, _ = _trace(poly, target)
        assert poly._contains(w)
        assert act(evaluate_word(poly.generators, word).tuple(), w) == target
    w, word = locate_point(poly, z)
    assert poly.contains(w.x, w.y**2)
    assert act_point(evaluate_word(poly.generators, word), w) == z
    assert graph_invariants(system).n_generators == len(poly.generators)
    assert pointed_isomorphic(system, system)
    assert is_normal(system) == (len(distinguished_edge_orbit(system)) == system.n)


@settings(max_examples=150, deadline=None)
@given(coset_systems(), wide_points)
def test_locate_equals_the_two_walk_reference(system, z):
    poly = build_polygon(system)
    assert locate_point(poly, z) == reference_locate(poly, z)


@settings(max_examples=150, deadline=None)
@given(coset_systems(), st.lists(st.integers(-200, 200), min_size=1, max_size=6), st.data())
def test_rewrite_equals_the_letter_walk(system, runs, data):
    # runs of both signs, many of them several turns round their T-cycle,
    # and k turns round the cusp of a drawn label
    poly = build_polygon(system)
    assert _rewrite(poly, runs) == reference_rewrite(poly, runs)
    turns = turn_runs(poly, data.draw(st.integers(0, system.n - 1)), data.draw(st.integers(-4, 4)))
    assert _rewrite(poly, turns) == reference_rewrite(poly, turns)
