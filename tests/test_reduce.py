import random
import time
from decimal import Decimal
from fractions import Fraction

import pytest

from modpoly.cosets import MembershipError
from modpoly.polygon import SpecialPolygon
from modpoly.psl2 import IDENTITY, MAX_POWER_BITS, S, T, U, Psl2Elt, WorkBoundError, t_runs
from modpoly.reduce import (
    BASE_POINT,
    MAX_WALK_STEPS,
    ExactPoint,
    _trace,
    act,
    act_point,
    evaluate_word,
    express,
    express_schreier,
    lift,
    locate_point,
    reduce_word,
    transform,
)

from oracles import (
    TEST_GROUPS,
    built_polygon,
    geodesic_eval_at,
    geodesic_through,
    reference_su_word,
    su_evaluate,
)


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
    # the line x = 0 is -x = 0, the circle x^2 + y^2 = 2 is (1, 0, -2)
    g = geodesic_through(ExactPoint(F(0), F(1)), ExactPoint(F(0), F(2)))
    assert g == (0, -1, 0)
    g = geodesic_through(ExactPoint(F(-1), F(1)), ExactPoint(F(1), F(1)))
    assert g == (1, 0, -2)
    # primitive and normalised: x = 3/2 is (0, -2, 3), centre 1/2 with
    # radius^2 5/4 is (1, -1, -1)
    g = geodesic_through(ExactPoint(F(3, 2), F(1)), ExactPoint(F(3, 2), F(7)))
    assert g == (0, -2, 3)
    assert geodesic_through(ExactPoint(F(1), F(1)), ExactPoint(F(0), F(1))) == (1, -1, -1)
    p, q = ExactPoint(F(1, 4), F(1)), ExactPoint(F(3, 4), F(5, 4))
    g = geodesic_through(p, q)
    assert geodesic_eval_at(g, p.x, p.y**2) == 0
    assert geodesic_eval_at(g, q.x, q.y**2) == 0
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
        image = transform(geod, g)
        gp, gq = act_point(g, p), act_point(g, q)
        assert geodesic_eval_at(image, gp.x, gp.y**2) == 0
        assert geodesic_eval_at(image, gq.x, gq.y**2) == 0


def test_act_point_matches_act():
    rng = random.Random(21)
    for _ in range(100):
        z = ExactPoint(F(rng.randint(-9, 9), rng.randint(1, 9)),
                       F(rng.randint(1, 9), rng.randint(1, 9)))
        g = IDENTITY
        for _ in range(rng.randint(0, 8)):
            g = g * (S if rng.random() < 0.5 else U)
        w = act_point(g, z)
        assert act(g, lift(z.x, z.y**2)) == lift(w.x, w.y**2)


def test_exact_point_validation():
    with pytest.raises(ValueError):
        ExactPoint(F(0), F(0))
    with pytest.raises(ValueError):
        ExactPoint(F(1), F(-2))


def test_exact_point_coordinate_types():
    z = ExactPoint(1, 2)
    assert type(z.x) is Fraction and type(z.y) is Fraction and z == ExactPoint(F(1), F(2))
    refused = [(0.7, 0.05), (0.3, 0.1), (F(3, 10), 0.1), (Decimal("0.3"), F(1)), (True, F(1)),
               (F(1), True)]
    for x, y in refused:
        with pytest.raises(ValueError, match="not an int or a Fraction"):
            ExactPoint(x, y)


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
    assert act_point(evaluate_word(poly.generators, word), w) == z
    assert poly.contains(w.x, w.y**2)
    target = lift(z.x, z.y**2)
    w, word, h = _trace(poly, target)
    assert h == evaluate_word(poly.generators, word)
    assert act(h, w) == target
    assert poly._contains(w)


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


@pytest.mark.parametrize("family, level", [("gamma0", 1), ("gamma0", 13), ("gamma", 5),
                                           ("gamma1", 7)])
def test_trace_from_a_point_to_itself(family, level):
    # the base point is interior, and a trace to the base point itself has
    # no travel geodesic: it ends before forming one
    poly = built_polygon(family, level)
    assert poly._contains(BASE_POINT, strict=True)
    assert _trace(poly, BASE_POINT) == (BASE_POINT, [], IDENTITY)


def test_trace_tests_each_target_once(monkeypatch):
    # _trace tests the target once per step, step 0 included, and starts
    # from the base point, which assemble has checked, untested: s
    # crossings cost s + 1 side searches (testing the base point on every
    # call made them s + 2, and a separate test of the target before the
    # trace s + 3)
    calls = 0
    excluding = SpecialPolygon._excluding_side

    def counting(self, *args, **kwargs):
        nonlocal calls
        calls += 1
        return excluding(self, *args, **kwargs)

    monkeypatch.setattr(SpecialPolygon, "_excluding_side", counting)
    poly = built_polygon("gamma0", 1009)
    crossings = 0
    for g, _ in poly.generators:
        for target in (act(g, BASE_POINT), act(g.inv(), BASE_POINT)):
            record: list = []
            calls = 0
            assert _trace(poly, target, record)[0] == BASE_POINT
            assert calls == len(record) + 1
            crossings += len(record)
    assert crossings >= 2 * len(poly.generators)
    # a target in the polygon: step 0 alone
    calls = 0
    assert _trace(poly, BASE_POINT) == (BASE_POINT, [], IDENTITY)
    assert calls == 1


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


def test_express_refuses_a_long_run_at_once():
    # S * T^(10^9) * S has c = 10^9 = -1 mod 11: the walk of its three runs
    # refuses it before any of its 2 * 10^9 letters is expanded
    poly = built_polygon("gamma0", 11)
    g = S * T**10**9 * S
    start = time.perf_counter()
    with pytest.raises(MembershipError, match=f"its coset is {poly.system.coset(g)}$"):
        express(poly, g)
    assert time.perf_counter() - start < 0.05


def test_express_and_locate_refuse_a_walk_past_the_bound():
    # the run T^(10^9) goes round the width-1 cusp at infinity of gamma0(11)
    # 10^9 times: one turn is walked and raised to that power, for express
    # and for the translation that locate makes for x = 10^9
    poly = built_polygon("gamma0", 11)
    start = time.perf_counter()
    assert express(poly, T**10**9) == [(0, 10**9)]
    assert locate_point(poly, ExactPoint(F(10**9), F(1))) == (ExactPoint(F(0), F(1)),
                                                              [(0, 10**9)])
    assert time.perf_counter() - start < 0.05
    # the turn round the width-11 cusp 0 reduces to 5 syllables, so the
    # finite-cusp parabolic [[1, 0], [-11 m, 1]] has a word of 5 m
    # syllables, refused before it is built for m = 10^9, by express and by
    # locate at the image of i, whose reduction runs through the same run
    c = -11 * 10**9
    start = time.perf_counter()
    with pytest.raises(WorkBoundError, match="over MAX_WALK_STEPS"):
        express(poly, Psl2Elt(1, 0, c, 1))
    with pytest.raises(WorkBoundError, match="over MAX_WALK_STEPS"):
        locate_point(poly, ExactPoint(F(c, 1 + c * c), F(1, 1 + c * c)))
    assert time.perf_counter() - start < 0.05
    assert len(express(poly, Psl2Elt(1, 0, -11 * 1000, 1))) == 5 * 1000
    # two long runs at infinity round one short run at cusp 0: a member
    word = express(poly, T ** (MAX_WALK_STEPS // 2) * S * T**11 * S * T ** (MAX_WALK_STEPS // 2))
    assert word[0] == (0, MAX_WALK_STEPS // 2 - 1) and word[-1] == (0, MAX_WALK_STEPS // 2)
    # the bit caps of powers and words raise the same class
    g = Psl2Elt(2, 1, 7, 4)
    with pytest.raises(WorkBoundError):
        g ** MAX_POWER_BITS
    with pytest.raises(WorkBoundError):
        evaluate_word([(g, 0)], [(0, MAX_POWER_BITS)])
    assert issubclass(WorkBoundError, ValueError)


def test_schreier_word_of_the_whole_group_is_the_su_normal_form():
    # in PSL2(Z) = gamma0(1) the two generators are S and U^2 (or U): the
    # rewritten word is the reduced S/U word, letter for letter
    poly = built_polygon("gamma0", 1)
    gens = poly.generators
    (i_s,) = [i for i, (g, _) in enumerate(gens) if g == S]
    (i_u,) = [i for i, (g, _) in enumerate(gens) if g in (U, U * U)]
    u_sign = 1 if gens[i_u][0] == U else -1

    def letters(word):
        return [(i_s, 1) if gen == "S" else (i_u, e * u_sign % 3) for gen, e in word]

    rng = random.Random(29)
    elements = [su_evaluate([("S", 1) if rng.random() < 0.4 else ("U", rng.randint(1, 2))
                             for _ in range(rng.randint(0, 40))]) for _ in range(300)]
    for _ in range(300):
        g = T ** rng.randint(-6, 6)
        for _ in range(rng.randint(0, 8)):
            g = g * S * T ** rng.randint(-6, 6)
        elements.append(g)
    assert express(poly, T) == letters([("U", 2), ("S", 1)])
    assert express(poly, S) == letters([("S", 1)]) and express(poly, IDENTITY) == []
    runs_seen = set()
    for g in elements:
        runs = t_runs(g)
        runs_seen.update(runs)
        reference = reference_su_word(runs)
        assert su_evaluate(reference) == g
        # reduced: letters alternate between the two factors
        assert all(a[0] != b[0] for a, b in zip(reference, reference[1:]))
        assert express(poly, g) == letters(reference)
    assert min(runs_seen) < 0 and 0 in runs_seen


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
    # pulled-back geodesic, and the record names the side crossed
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
        target = lift(z.x, z.y**2)
        w, out, h = _trace(poly, target, record=steps)
        assert steps
        for geod, (n, m, k), side, gen, exp, _ in steps:
            assert geodesic_eval_at(geod, F(m, k), F(n * k - m * m, k * k)) == 0
            assert poly.sides[side].gen == gen
        # the final target, on the last geodesic pulled back across the last side
        n, m, k = w
        assert geodesic_eval_at(transform(geod, gens[gen][0] ** exp),
                                F(m, k), F(n * k - m * m, k * k)) == 0
        assert h == evaluate_word(gens, out)
        assert act(h, w) == target


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
            target = lift(z.x, z.y**2)
            w, word, _ = _trace(poly, target)
            assert act(evaluate_word(gens, word), w) == target
            assert poly._contains(w)


def test_trace_hits_order3_vertices_exactly():
    # rational target strictly beyond an order-3 vertex on the geodesic
    # through the base point and that vertex; the segment exits exactly there
    from modpoly.reduce import _trace

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
        for side in poly.sides:
            if side.kind != "e3_arc":
                continue
            n, m, k = side.end
            x3, y23 = F(m, k), F(n * k - m * m, k * k)
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
            lifted = lift(target.x, target.y**2)
            w, word, _ = _trace(poly, lifted)
            assert act(evaluate_word(gens, word), w) == lifted
            checked += 1
        assert checked > 0


def test_reduce_word_folding():
    gens = [(T, 0), (S, 2), (U * U, 3)]
    assert reduce_word([(0, 1), (0, -1)], gens) == []
    assert reduce_word([(1, 1), (1, 1)], gens) == []
    assert reduce_word([(2, 2), (2, 2)], gens) == [(2, 1)]
    assert reduce_word([(0, 2), (1, -1)], gens) == [(0, 2), (1, 1)]
