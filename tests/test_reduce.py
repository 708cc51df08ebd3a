import random
from fractions import Fraction

import pytest

from modpoly.cosets import MembershipError
from modpoly.psl2 import IDENTITY, S, T, U, Psl2Elt
from modpoly.reduce import (
    ExactPoint,
    Geodesic,
    act_point,
    act_quad,
    evaluate_word,
    express,
    express_schreier,
    geodesic_through,
    locate_point,
    reduce_word,
)

from oracles import TEST_GROUPS, built_polygon


F = Fraction


def random_word(rng, gens, max_syllables):
    word = []
    for _ in range(rng.randint(1, max_syllables)):
        i = rng.randrange(len(gens))
        if gens[i][1] == 0:
            e = rng.choice([-2, -1, 1, 2])
        else:
            e = rng.randint(1, gens[i][1] - 1)
        word.append((i, e))
    return word


def test_geodesic_through_examples():
    g = geodesic_through(ExactPoint(F(0), F(1)), ExactPoint(F(0), F(2)))
    assert g == Geodesic("v", F(0))
    g = geodesic_through(ExactPoint(F(-1), F(1)), ExactPoint(F(1), F(1)))
    assert g.kind == "c" and g.pos == 0 and g.r2 == 2
    p, q = ExactPoint(F(1, 4), F(1)), ExactPoint(F(3, 4), F(5, 4))
    g = geodesic_through(p, q)
    assert g.eval_at(p.x, p.y**2) == 0
    assert g.eval_at(q.x, q.y**2) == 0
    with pytest.raises(ValueError):
        geodesic_through(p, p)


def test_geodesic_transform():
    rng = random.Random(20)
    for _ in range(200):
        p = ExactPoint(F(rng.randint(-9, 9), rng.randint(1, 9)),
                       F(rng.randint(1, 9), rng.randint(1, 9)))
        q = ExactPoint(F(rng.randint(-9, 9), rng.randint(1, 9)),
                       F(rng.randint(1, 9), rng.randint(1, 9)))
        if p == q:
            continue
        g = IDENTITY
        for _ in range(rng.randint(0, 8)):
            g = g * (S if rng.random() < 0.5 else U)
        geod = geodesic_through(p, q)
        image = geod.transform(g)
        gp, gq = act_point(g, p), act_point(g, q)
        assert image.eval_at(gp.x, gp.y**2) == 0
        assert image.eval_at(gq.x, gq.y**2) == 0


def test_act_point_matches_act_quad():
    rng = random.Random(21)
    for _ in range(100):
        z = ExactPoint(F(rng.randint(-9, 9), rng.randint(1, 9)),
                       F(rng.randint(1, 9), rng.randint(1, 9)))
        g = IDENTITY
        for _ in range(rng.randint(0, 8)):
            g = g * (S if rng.random() < 0.5 else U)
        w = act_point(g, z)
        x2, y22 = act_quad(g, z.x, z.y**2)
        assert (w.x, w.y**2) == (x2, y22)


def test_exact_point_validation():
    with pytest.raises(ValueError):
        ExactPoint(F(0), F(0))
    with pytest.raises(ValueError):
        ExactPoint(F(1), F(-2))


def test_locate_point_inside():
    poly = built_polygon("gamma0", 1)
    z0 = ExactPoint(F(1, 4), F(1))
    w, word = locate_point(poly, z0)
    assert w == z0 and word == []


def test_locate_point_single_crossing():
    poly = built_polygon("gamma0", 1)
    z0 = poly.base_point
    z = act_point(S, z0)
    w, word = locate_point(poly, z)
    assert w == z0
    assert evaluate_word(poly.generators, word) == S


def test_locate_point_translation():
    poly = built_polygon("gamma0", 1)
    z = act_point(T, poly.base_point)
    w, word = locate_point(poly, z)
    assert w == poly.base_point
    assert evaluate_word(poly.generators, word) == T


def test_locate_point_through_order3_vertex():
    # the geodesic from (1/4, 1) through the corner at x = 1/2 hits (7/8, 3/8)
    poly = built_polygon("gamma0", 1)
    z = ExactPoint(F(7, 8), F(3, 8))
    w, word = locate_point(poly, z)
    g = evaluate_word(poly.generators, word)
    assert act_point(g, w) == z
    assert poly.contains(w.x, w.y**2)


def test_locate_point_random_targets():
    rng = random.Random(22)
    for family, N in [("gamma0", 1), ("gamma0", 6), ("gamma0", 13), ("gamma", 3)]:
        poly = built_polygon(family, N)
        for _ in range(12):
            z = ExactPoint(F(rng.randint(-300, 300), rng.randint(1, 48)),
                           F(rng.randint(1, 60), rng.randint(1, 36)))
            w, word = locate_point(poly, z)
            assert poly.contains(w.x, w.y**2)
            g = evaluate_word(poly.generators, word)
            assert act_point(g, w) == z


def test_locate_rejects_lower_half_plane():
    with pytest.raises(ValueError):
        ExactPoint(F(1), F(0))


def test_express_identity():
    poly = built_polygon("gamma0", 11)
    assert express(poly, IDENTITY) == []
    assert express(poly, IDENTITY, use_trace=True) == []


def test_express_gamma2_translation_squared():
    poly = built_polygon("gamma", 2)
    t2 = Psl2Elt(1, 2, 0, 1)
    word = express(poly, t2)
    assert evaluate_word(poly.generators, word) == t2
    word2 = express(poly, t2, use_trace=True)
    assert evaluate_word(poly.generators, word2) == t2


def test_express_rejects_non_members():
    poly = built_polygon("gamma", 2)
    with pytest.raises(MembershipError):
        express(poly, T)
    with pytest.raises(MembershipError):
        express_schreier(poly, T)


def test_express_refusal_names_the_coset():
    poly = built_polygon("gamma0", 11)
    label = poly.system.coset(S)
    assert label != poly.system.distinguished
    for use_trace in (False, True):
        with pytest.raises(MembershipError, match=f"not in the subgroup .*its coset is {label}$"):
            express(poly, S, use_trace=use_trace)


def test_express_schreier_whole_group():
    poly = built_polygon("gamma0", 1)
    word = express_schreier(poly, U)
    assert evaluate_word(poly.generators, word) == U


def test_round_trip_both_methods():
    rng = random.Random(23)
    for family, N in [("gamma0", 11), ("gamma0", 13), ("gamma1", 5), ("gamma", 4)]:
        poly = built_polygon(family, N)
        gens = poly.generators
        for _ in range(40):
            word = random_word(rng, gens, 8)
            g = evaluate_word(gens, word)
            w1 = express(poly, g)
            w2 = express(poly, g, use_trace=True)
            assert evaluate_word(gens, w1) == g
            assert evaluate_word(gens, w2) == g


def test_trace_intermediate_states_stay_on_geodesic():
    # at every step of the trace, the pulled-back target sits exactly on the
    # pulled-back geodesic
    from modpoly.reduce import _trace
    poly = built_polygon("gamma0", 13)
    rng = random.Random(24)
    gens = poly.generators
    for _ in range(10):
        word = random_word(rng, gens, 5)
        g = evaluate_word(gens, word)
        z = act_point(g, poly.base_point)
        if poly.contains(z.x, z.y**2):
            continue
        steps = []
        w, out = _trace(poly, poly.base_point, z, record=steps)
        assert steps
        for geod, t in steps:
            assert geod.eval_at(t.x, t.y**2) == 0
        assert act_point(evaluate_word(gens, out), w) == z


def test_trace_hits_order2_vertices_exactly():
    # for an order-2 generator r, the geodesic through z0 and r*z0 is
    # r-invariant, so it passes through the fixed point; convexity makes that
    # vertex the first boundary point of the segment
    for family, N in TEST_GROUPS:
        poly = built_polygon(family, N)
        gens = poly.generators
        z0 = poly.base_point
        for g, order in gens:
            if order != 2:
                continue
            z = act_point(g, z0)
            w, word = locate_point(poly, z)
            assert act_point(evaluate_word(gens, word), w) == z
            assert poly.contains(w.x, w.y**2)


def test_trace_hits_order3_vertices_exactly():
    # rational target strictly beyond an order-3 vertex on the geodesic
    # through the base point and that vertex; the segment exits exactly there
    def second_intersection(z0, center, t):
        x0, y0 = z0.x, z0.y
        a2 = 1 + t * t
        a1 = -2 * center + 2 * t * (y0 - t * x0)
        x2 = -a1 / a2 - x0
        return x2, y0 + t * (x2 - x0)

    for family, N in [("gamma0", 7), ("gamma0", 13), ("gamma", 1)]:
        poly = built_polygon(family, N)
        gens = poly.generators
        z0 = poly.base_point
        checked = 0
        for side in poly.trace_sides():
            if side.kind != "e3_arc":
                continue
            _, _, x3, y23 = side.end
            if x3 == z0.x:
                continue
            center = (x3 * x3 + y23 - z0.x**2 - z0.y**2) / (2 * (x3 - z0.x))
            assert (x3 - center) ** 2 + y23 == (z0.x - center) ** 2 + z0.y**2
            dirsign = 1 if x3 > z0.x else -1
            target = None
            for num in range(-60, 61):
                for den in (1, 2, 3, 5, 7):
                    x2, y2 = second_intersection(z0, center, Fraction(num, den))
                    if y2 > 0 and (x2 - x3) * dirsign > 0:
                        target = ExactPoint(x2, y2)
                        break
                if target:
                    break
            if target is None:
                continue
            w, word = locate_point(poly, target)
            assert act_point(evaluate_word(gens, word), w) == target
            checked += 1
        assert checked > 0


def test_reduce_word_folding():
    gens = [(T, 0), (S, 2), (U * U, 3)]
    assert reduce_word([(0, 1), (0, -1)], gens) == []
    assert reduce_word([(1, 1), (1, 1)], gens) == []
    assert reduce_word([(2, 2), (2, 2)], gens) == [(2, 1)]
    assert reduce_word([(0, 2), (1, -1)], gens) == [(0, 2), (1, 1)]
