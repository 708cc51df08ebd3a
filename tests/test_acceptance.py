"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
(run with -s to see them on success)."""

import gc
import random
import statistics
import time
from contextlib import contextmanager
from fractions import Fraction

from modpoly.cosets import FAMILIES, build_from_oracle, build_system
from modpoly.cuboid import build_graph, distinguished_edge_orbit, graph_invariants, is_normal, pointed_isomorphic
from modpoly.polygon import build_polygon, validate_special
from modpoly.psl2 import IDENTITY, S, T
from modpoly.reduce import ExactPoint, act_point, evaluate_word, express, express_schreier, locate_point

from oracles import (
    TEST_GROUPS,
    built_graph,
    built_polygon,
    gamma0_cusps,
    gamma0_index,
    gamma0_nu2,
    gamma0_nu3,
    gamma0_widths,
    gamma1_prime_data,
    gamma_data,
    genus_from,
    member_predicate,
)


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} FAIL: {description}")
        raise
    print(f"ACCEPTANCE {number} PASS: {description}")


def test_criterion_1_structural_table():
    with criterion(1, "graph invariants match closed-form oracles exactly"):
        for N in (2, 3, 4, 5, 6, 7, 10, 11, 13):
            inv = graph_invariants(built_graph("gamma0", N))
            assert inv.n == gamma0_index(N)
            assert inv.e2 == gamma0_nu2(N)
            assert inv.e3 == gamma0_nu3(N)
            assert inv.cusp_count == gamma0_cusps(N)
            assert list(inv.cusp_widths) == gamma0_widths(N)
            assert inv.genus == genus_from(inv.n, inv.e2, inv.e3, inv.cusp_count)
        for N in (2, 3, 4, 5):
            inv = graph_invariants(built_graph("gamma", N))
            n, e2, e3, cusps, widths = gamma_data(N)
            assert (inv.n, inv.e2, inv.e3, inv.cusp_count) == (n, e2, e3, cusps)
            assert list(inv.cusp_widths) == widths
            assert inv.genus == genus_from(n, e2, e3, cusps)
        inv = graph_invariants(built_graph("gamma1", 5))
        n, e2, e3, cusps, widths = gamma1_prime_data(5)
        assert (inv.n, inv.e2, inv.e3, inv.cusp_count) == (n, e2, e3, cusps)
        assert list(inv.cusp_widths) == widths
        assert inv.genus == genus_from(n, e2, e3, cusps)


def test_criterion_2_oracle_equivalence():
    with criterion(2, "fast systems pointed-isomorphic to oracle builds, "
                      "all families, N <= 20"):
        for family in FAMILIES:
            for N in range(1, 21):
                fast = build_graph(build_system(family, N))
                oracle = build_graph(
                    build_from_oracle(member_predicate(family, N), max_index=5000))
                assert pointed_isomorphic(fast, oracle), (family, N)


def test_criterion_3_special_polygon_validity():
    with criterion(3, "special polygons valid for every family, N <= 30"):
        for family in FAMILIES:
            for N in range(1, 31):
                poly = built_polygon(family, N)
                violations = validate_special(poly)
                assert violations == [], (family, N, violations)
                assert len(poly.triangles) == poly.system.n
                assert len(poly.sides) == 2 * len(poly.generators)
                assert len(poly.generators) > poly.system.n / 6


def test_criterion_4_generator_soundness_and_independence():
    with criterion(4, "generators are members with exact orders and are "
                      "independent up to word length 6"):
        for family, N in TEST_GROUPS:
            poly = built_polygon(family, N)
            system = poly.system
            gens = poly.generators
            assert len(gens) <= 12
            for gen, order in gens:
                assert system.member(gen)
                if order == 2:
                    assert gen != IDENTITY and gen * gen == IDENTITY
                elif order == 3:
                    assert gen != IDENTITY and gen * gen != IDENTITY
                    assert gen * gen * gen == IDENTITY
                else:
                    assert order == 0 and abs(gen.trace()) >= 2

            # a nontrivial reduced identity of <= 6 syllables splits into two
            # reduced words of <= 3 syllables with equal evaluations, so
            # enumerate those and require all evaluations distinct
            exponents = [(-2, -1, 1, 2) if order == 0 else tuple(range(1, order))
                         for _, order in gens]
            seen = {(): IDENTITY.tuple()}
            frontier = [((), IDENTITY)]
            values = {IDENTITY.tuple(): ()}
            for _ in range(3):
                nxt = []
                for word, value in frontier:
                    for i in range(len(gens)):
                        if word and word[-1][0] == i:
                            continue
                        for e in exponents[i]:
                            w2 = word + ((i, e),)
                            v2 = value * gens[i][0] ** e
                            key = v2.tuple()
                            assert key not in values, (family, N, w2, values[key])
                            values[key] = w2
                            nxt.append((w2, v2))
                frontier = nxt


def test_criterion_5_reduction_round_trip():
    with criterion(5, "200 random words per group round-trip through both "
                      "expression paths; located points satisfy the side "
                      "inequalities exactly"):
        rng = random.Random(2024)
        for family, N in TEST_GROUPS:
            poly = built_polygon(family, N)
            gens = poly.generators
            for _ in range(200):
                word = []
                for _ in range(rng.randint(1, 8)):
                    i = rng.randrange(len(gens))
                    if gens[i][1] == 0:
                        e = rng.choice([-2, -1, 1, 2])
                    else:
                        e = rng.randint(1, gens[i][1] - 1)
                    word.append((i, e))
                g = evaluate_word(gens, word)
                w1 = express(poly, g)
                w2 = express_schreier(poly, g)
                assert evaluate_word(gens, w1) == g
                assert evaluate_word(gens, w2) == g
            for _ in range(20):
                z = ExactPoint(Fraction(rng.randint(-240, 240), rng.randint(1, 36)),
                               Fraction(rng.randint(1, 48), rng.randint(1, 24)))
                w, word = locate_point(poly, z)
                assert poly.contains(w.x, w.y**2)
                assert act_point(evaluate_word(gens, word), w) == z


def test_criterion_5b_trace_expression_agrees():
    with criterion("5b", "geodesic tracer agrees with the rewriting path"):
        rng = random.Random(4048)
        for family, N in TEST_GROUPS:
            poly = built_polygon(family, N)
            gens = poly.generators
            for _ in range(25):
                word = []
                for _ in range(rng.randint(1, 8)):
                    i = rng.randrange(len(gens))
                    if gens[i][1] == 0:
                        e = rng.choice([-2, -1, 1, 2])
                    else:
                        e = rng.randint(1, gens[i][1] - 1)
                    word.append((i, e))
                g = evaluate_word(gens, word)
                traced = express(poly, g, use_trace=True)
                assert evaluate_word(gens, traced) == g


def test_criterion_6_normality():
    with criterion(6, "normality via edge-transitive automorphisms"):
        for N in range(1, 14):
            assert is_normal(built_graph("gamma", N)), N
        for N in range(2, 14):
            graph = built_graph("gamma0", N)
            orbit = distinguished_edge_orbit(graph)
            assert is_normal(graph) == (len(orbit) == graph.n)
            # independent cross-check: S T S^-1 has lower-left entry -1
            assert (S * T * S.inv()).c % N != 0
            assert not is_normal(graph)
        assert not is_normal(built_graph("gamma0", 11))
        assert is_normal(built_graph("gamma0", 1))


def test_criterion_7_performance_scaling():
    with criterion(7, "near-linear scaling: Gamma0(1009/10007/100003) builds"):
        levels = (1009, 10007, 100003)
        times = {}
        for N in levels:
            runs = []
            for _ in range(3):
                gc.collect()
                gc.disable()
                try:
                    start = time.perf_counter()
                    system = build_system("gamma0", N)
                    build_polygon(system)
                    runs.append(time.perf_counter() - start)
                finally:
                    gc.enable()
            assert system.n == N + 1
            times[N] = statistics.median(runs)
        print(f"  build times: {[(N, round(times[N], 3)) for N in levels]}")
        assert times[100003] < 60.0
        assert times[10007] <= 20.0 * times[1009]
        assert times[100003] <= 20.0 * times[10007]
