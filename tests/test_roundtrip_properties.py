"""Round-trip properties of the two query paths over random families,
levels and rational points: locate_point, which reduces a point into the
base triangle and looks up one coset, returns a point w of the polygon and
a word in normal form whose value gamma is in the subgroup with
gamma * w = z, also at boundary points, at and next to elliptic vertices
and near cusps; wherever the tracer's answer is strictly interior, the two
routes return the same pair (an interior point has one representative and
one gamma); and for random members the traced word of express equals the
Schreier word (both are the unique normal form in the independent
generators).  The tracer, run from its one base point, reaches random
points, points just beyond every elliptic vertex and the boundary, vertex
and near-cusp points; it has no retry, and a degenerate crossing is an
internal error at once.
locate_point rests on coset(dev[e]) == e, never tests a polygon side and
runs no Euclidean descent: its one walk of the runs of the reduction gives
what the two-walk reference (coset lookup, then Schreier rewriting of
gamma) gives, also far out in x and close to the real axis.
A trace step makes at most two meets, the same number at
index 1010 and 10008, and express --trace writes every generator of
gamma0(1009) and its inverse."""

import hashlib
import random
from collections import Counter
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import example, given, settings, strategies as st

from modpoly import cosets, reduce
from modpoly.cosets import FAMILIES
from modpoly.polygon import SpecialPolygon
from modpoly.psl2 import IDENTITY, S, U, Psl2Elt
from modpoly.reduce import (
    BASE_POINT,
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

from oracles import built_polygon, half_turn, reference_locate

# Gamma(N) has index about N^3 / 2, so its levels stop at 12 (index 576)
groups = st.sampled_from(FAMILIES).flatmap(
    lambda family: st.tuples(st.just(family), st.integers(1, 12 if family == "gamma" else 30)))
points = st.builds(ExactPoint,
                   st.fractions(min_value=-20, max_value=20, max_denominator=60),
                   st.fractions(min_value=Fraction(1, 60), max_value=20, max_denominator=60))

BOUNDED = settings(max_examples=150, deadline=None)


def assert_located(poly, z, w, word):
    gens = poly.generators
    gamma = evaluate_word(gens, word)
    assert poly.contains(w.x, w.y**2)
    assert act_point(gamma, w) == z
    assert poly.system.member(gamma)
    assert reduce_word(word, gens) == word


@BOUNDED
@given(groups, points)
@example(("gamma0", 1), ExactPoint(Fraction(7, 8), Fraction(3, 8)))
@example(("gamma0", 1009), ExactPoint(Fraction(0), Fraction(1, 2)))
@example(("gamma0", 1009), ExactPoint(Fraction(-1), Fraction(1, 5)))
def test_locate_returns_a_polygon_point_and_a_member(group, z):
    poly = built_polygon(*group)
    assert_located(poly, z, *locate_point(poly, z))


@BOUNDED
@given(groups, points)
def test_locate_agrees_with_the_tracer_at_interior_points(group, z):
    poly = built_polygon(*group)
    w, word = locate_point(poly, z)
    traced_w, traced_word, _ = _trace(poly, lift(z.x, z.y**2))
    if poly._contains(traced_w, strict=True):
        assert (lift(w.x, w.y**2), word) == (traced_w, traced_word)


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


def assert_traced(poly, z):
    target = lift(z.x, z.y**2)
    w, word, _ = _trace(poly, target)
    assert poly._contains(w)
    assert act(evaluate_word(poly.generators, word), w) == target


@BOUNDED
@given(groups, points)
def test_trace_reaches_random_points_without_restart(group, z):
    assert_traced(built_polygon(*group), z)


@BOUNDED
@given(groups)
def test_trace_passes_elliptic_vertices_without_restart(group):
    # the travel segment leaves the polygon exactly at the vertex, where an
    # order-3 crossing must pick the rotation that re-enters the polygon
    poly = built_polygon(*group)
    vertices = {end for side in poly.sides for end in (side.start, side.end) if len(end) == 3}
    for vertex in vertices:
        target = half_turn(vertex, BASE_POINT)
        w, word, _ = _trace(poly, target)
        assert poly._contains(w)
        assert act(evaluate_word(poly.generators, word), w) == target


def _crossing_records_digest(poly):
    """SHA-256 of the crossing records and results of the traces of the
    images of BASE_POINT under every generator, inverse and product of two
    of them, and of every half-turn of BASE_POINT across an elliptic vertex."""
    powers = [h for g, _ in poly.generators for h in (g, g.inv())]
    targets = [act(h, BASE_POINT) for h in powers]
    targets += [act(h1 * h2, BASE_POINT) for h1 in powers for h2 in powers]
    vertices = {end for side in poly.sides for end in (side.start, side.end) if len(end) == 3}
    targets += [half_turn(vertex, BASE_POINT) for vertex in sorted(vertices)]
    digest = hashlib.sha256()
    for target in targets:
        record: list = []
        w, word, _ = _trace(poly, target, record)
        digest.update(repr((record, w, word)).encode())
    return digest.hexdigest()


# recorded with a tracer that tested each crossing against a position range
# of the side and chose an order-3 rotation by tangent directions; the four
# torsion-free groups cross only even sides, and gamma0(1), (13) and (21)
# add crossings of both halves of elliptic pairs and hits on both orders of
# vertex
PINNED_RECORDS = {
    ("gamma0", 11):
        "c565967e4d3a64ef0aef7b389accf1b758e0e6e7ec56309f7a6be0a5ffd099bf",
    ("gamma", 7):
        "ff139e8b4902faeeda99e17d12486cadb6e72be5437f5e3478e941fbf941cd19",
    ("gamma1", 13):
        "42d32f2a1ef0dfb79b9f95d8ea1752fb519bf176aedbf4d4eb0d9b5731c0cc90",
    ("gamma_upper1", 12):
        "9d5041f28f32112384feddb58192606bd0f5b36777e4d87216f91d836769d626",
    ("gamma0", 1):
        "291f00dbc5f470c4813705d6957aa09e08e8352c66894f3504f939d11955e6ce",
    ("gamma0", 13):
        "f162518bf82424c717abd4190271ae316211a3f798302b77ce98936f75ee841b",
    ("gamma0", 21):
        "dc16fa3954d79d7132190e4ed52c6e723dfa6af2833d7f17cf351537b8d27df1",
}


@pytest.mark.parametrize("family, level", PINNED_RECORDS)
def test_crossing_records_are_pinned(family, level):
    assert _crossing_records_digest(built_polygon(family, level)) == PINNED_RECORDS[family, level]


def _random_member(poly, data):
    gens = poly.generators
    syllables = st.tuples(st.integers(0, len(gens) - 1), st.sampled_from([-2, -1, 1, 2]))
    return evaluate_word(gens, data.draw(st.lists(syllables, max_size=4)))


def _model_point(kind, t):
    """A point on the side of Delta that a side of this kind copies: the
    axis (0, infinity), split at i, or the vertical side x = 1/2 above
    e^(i pi/3), which U maps onto the arc from e^(i pi/3) to 0."""
    if kind == "even":
        return ExactPoint(0, t)
    if kind == "odd_inf":
        return ExactPoint(0, 1 + t)
    if kind == "odd_zero":
        return ExactPoint(0, 1 / (1 + t))
    line = ExactPoint(Fraction(1, 2), Fraction(7, 8) + t)
    return line if kind == "e3_line" else act_point(U, line)


@BOUNDED
@given(groups, st.data(), st.fractions(min_value=Fraction(1, 40), max_value=50,
                                       max_denominator=40))
def test_locate_boundary_points(group, data, t):
    poly = built_polygon(*group)
    side = poly.sides[data.draw(st.integers(0, len(poly.sides) - 1))]
    z = act_point(Psl2Elt(*poly.dev[side.edge]), _model_point(side.kind, t))
    assert poly.contains(z.x, z.y**2)
    z = act_point(_random_member(poly, data), z)
    assert_located(poly, z, *locate_point(poly, z))
    assert_traced(poly, z)


def _near_rho(digits):
    """Rational points just below and just above e^(i pi/3) on x = 1/2,
    which is irrational and so not an ExactPoint."""
    q = 10**digits
    y = Fraction(isqrt(3 * q * q), 2 * q)
    return ExactPoint(Fraction(1, 2), y), ExactPoint(Fraction(1, 2), y + Fraction(1, q))


@BOUNDED
@given(groups, st.data(), st.integers(1, 12))
def test_locate_at_and_next_to_elliptic_vertices(group, data, digits):
    poly = built_polygon(*group)
    gamma = _random_member(poly, data)
    for side in poly.sides:
        if side.ell_order == 2:
            model = [ExactPoint(0, 1)]
        elif side.ell_order == 3:
            model = _near_rho(digits)
        else:
            continue
        for p in model:
            z = act_point(gamma * Psl2Elt(*poly.dev[side.edge]), p)
            assert_located(poly, z, *locate_point(poly, z))
            assert_traced(poly, z)


@BOUNDED
@given(groups, st.data(),
       st.fractions(min_value=0, max_value=Fraction(1, 2), max_denominator=30),
       st.integers(3, 40))
def test_locate_near_cusps(group, data, x, height_bits):
    # a point high above Delta, or its image under S next to 0, moved by a
    # triangle's developing matrix next to that triangle's cusp
    poly = built_polygon(*group)
    e = data.draw(st.integers(0, len(poly.dev) - 1))
    g = Psl2Elt(*poly.dev[e]) * data.draw(st.sampled_from([IDENTITY, S]))
    z = act_point(_random_member(poly, data) * g, ExactPoint(x, 2**height_bits))
    assert_located(poly, z, *locate_point(poly, z))
    assert_traced(poly, z)


def test_coset_of_each_developing_matrix_is_its_label():
    for family in FAMILIES:
        for level in range(1, 9 if family == "gamma" else 14):
            poly = built_polygon(family, level)
            assert ([poly.system.coset(Psl2Elt(*g)) for g in poly.dev]
                    == list(range(len(poly.dev))))


def test_locate_never_tests_a_side(monkeypatch):
    # both membership tests are counted; the tracer, which bisects for the
    # side beyond each pulled-back target, shows the counting is live
    calls: Counter = Counter()

    def counting(name):
        method = getattr(SpecialPolygon, name)

        def counted(self, *args, **kwargs):
            calls[name] += 1
            return method(self, *args, **kwargs)
        monkeypatch.setattr(SpecialPolygon, name, counted)

    counting("_contains")
    counting("_excluding_side")
    poly = built_polygon("gamma0", 13)
    zs = [poly.base_point, ExactPoint(Fraction(7, 8), Fraction(3, 8)),
          ExactPoint(Fraction(-41, 3), Fraction(1, 97))]
    for z in zs:
        locate_point(poly, z)
    assert calls == Counter()
    for z in zs:
        _trace(poly, lift(z.x, z.y**2))
    assert calls["_excluding_side"] >= len(zs)


small_groups = st.sampled_from(FAMILIES).flatmap(
    lambda family: st.tuples(st.just(family), st.integers(1, 6 if family == "gamma" else 16)))
wide_points = st.builds(ExactPoint,
                        st.fractions(min_value=-1000, max_value=1000, max_denominator=1000),
                        st.fractions(min_value=Fraction(1, 10**6), max_value=20,
                                     max_denominator=10**6))


@BOUNDED
@given(small_groups, wide_points)
@example(("gamma0", 11), ExactPoint(Fraction(-1000), Fraction(1, 10**6)))
@example(("gamma", 5), ExactPoint(Fraction(999, 7), Fraction(1)))
def test_locate_equals_the_two_walk_reference(group, z):
    poly = built_polygon(*group)
    assert locate_point(poly, z) == reference_locate(poly, z)


def test_locate_runs_no_euclidean_descent(monkeypatch):
    # t_runs is counted wherever the library calls it; express, which
    # descends once per element, shows the counting is live
    poly = built_polygon("gamma0", 13)
    calls = []
    descend = reduce.t_runs

    def counted(g):
        calls.append(g)
        return descend(g)

    monkeypatch.setattr(reduce, "t_runs", counted)
    monkeypatch.setattr(cosets, "t_runs", counted)
    zs = [poly.base_point, ExactPoint(Fraction(7, 8), Fraction(3, 8)),
          ExactPoint(Fraction(-41, 3), Fraction(1, 97))]
    located = [locate_point(poly, z) for z in zs]
    assert calls == []
    express(poly, poly.generators[0][0])
    assert len(calls) == 1
    for z, (w, word) in zip(zs, located):
        assert_located(poly, z, w, word)


@pytest.mark.parametrize("level", [1009, 10007])
def test_trace_step_makes_at_most_two_meets(monkeypatch, level):
    # the segment leaves the polygon in the stretch between two cusps where
    # the pulled-back target lies: one even side or an elliptic pair
    steps: list = []
    per_step: Counter = Counter()
    meet_ahead = reduce._meet_ahead

    def counting(*args):
        per_step[len(steps)] += 1
        return meet_ahead(*args)

    monkeypatch.setattr(reduce, "_meet_ahead", counting)
    poly = built_polygon("gamma0", level)
    gens = poly.generators
    rng = random.Random(level)
    crossings = 0
    for _ in range(20):
        word = [(rng.randrange(len(gens)), rng.choice([-1, 1])) for _ in range(rng.randint(1, 3))]
        steps.clear()
        per_step.clear()
        w, traced, _ = _trace(poly, act(evaluate_word(gens, word), BASE_POINT), steps)
        assert (w, traced) == (BASE_POINT, reduce_word(word, gens))
        assert max(per_step.values(), default=0) <= 2
        crossings += len(steps)
    assert crossings >= 20


def test_traced_generators_of_gamma0_1009_need_no_restart():
    poly = built_polygon("gamma0", 1009)
    record: list = []
    gens = poly.generators
    for i, (g, _) in enumerate(gens):
        assert express(poly, g, True, record) == [(i, 1)]
        assert express(poly, g.inv(), True, record) == reduce_word([(i, -1)], gens)
    assert len(record) >= 2 * len(gens)


def test_a_degenerate_crossing_is_an_internal_error_at_once(monkeypatch):
    # with no crossing found on the exiting segment the trace stops in its
    # first step: no second step and no second trace
    calls = []

    def no_crossing(*args):
        calls.append(args)

    monkeypatch.setattr(reduce, "_meet_ahead", no_crossing)
    poly = built_polygon("gamma0", 11)
    with pytest.raises(ValueError, match="internal error"):
        express(poly, poly.generators[0][0], use_trace=True)
    assert 1 <= len(calls) <= 2
