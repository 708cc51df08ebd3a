import copy
import itertools
import json

import pytest

from modpoly.cosets import FAMILIES
from modpoly.cuboid import graph_invariants
from modpoly.polygon import (
    build_polygon,
    to_json,
    to_svg,
    validate_special,
)
from modpoly.psl2 import IDENTITY, S, U, Psl2Elt
from modpoly.reduce import evaluate_word

from oracles import (
    TEST_GROUPS,
    built_develop,
    built_polygon,
    built_system,
    member_predicate,
)


def cut_pairs(system, crossed):
    """The S-moved pairs develop did not cross, each by its smaller edge."""
    return [e for e in range(system.n) if e < system.sigma_s[e] and not crossed[e]]


def test_cut_counts():
    for (family, N), cuts in [(("gamma0", 1), 0), (("gamma0", 11), 3), (("gamma", 2), 2)]:
        crossed, _ = built_develop(family, N)
        assert len(cut_pairs(built_system(family, N), crossed)) == cuts


def test_develop_root_and_counts():
    for family, N in [("gamma0", 11), ("gamma", 3), ("gamma1", 5)]:
        system = built_system(family, N)
        crossed, dev = built_develop(family, N)
        assert dev[system.distinguished] == IDENTITY.tuple()
        assert len(dev) == len(crossed) == system.n
        assert all(g is not None for g in dev)


def test_develop_adjacency_rules():
    # around a trivalent vertex the matrices advance by U; across any
    # crossed pair they differ by S (for the root of gamma(3) this gives
    # the literal matrix S one step from the identity)
    system = built_system("gamma", 3)
    crossed, dev = built_develop("gamma", 3)
    assert dev[system.sigma_s[system.distinguished]] == S.tuple()
    for family, N in [("gamma0", 5), ("gamma0", 12), ("gamma", 3), ("gamma1", 8)]:
        system = built_system(family, N)
        crossed, dev = built_develop(family, N)
        for e in range(system.n):
            g = Psl2Elt(*dev[e])
            if system.sigma_u[e] != e:
                assert dev[system.sigma_u[e]] == (g * U).tuple()
            f = system.sigma_s[e]
            assert crossed[e] == crossed[f]
            if crossed[e]:
                assert f != e
                assert dev[f] == (g * S).tuple()


def test_develop_is_schreier_transversal():
    # the developed matrix of an edge lies in that edge's coset
    for family, N in [("gamma0", 10), ("gamma1", 5), ("gamma", 4)]:
        system = built_system(family, N)
        _, dev = built_develop(family, N)
        for e, g in enumerate(dev):
            assert system.coset(Psl2Elt(*g)) == e


def test_whole_group_polygon():
    poly = built_polygon("gamma0", 1)
    assert len(poly.dev) == 1
    assert [s.kind for s in poly.sides] == ["e3_arc", "e3_line", "odd_inf", "odd_zero"]
    gens = poly.generators
    assert len(gens) == 2
    assert gens[0] == (S, 2)
    assert gens[1] == (U * U, 3)
    assert validate_special(poly) == []


def test_gamma0_11_polygon():
    poly = built_polygon("gamma0", 11)
    assert len(poly.generators) == 3
    assert all(order == 0 for _, order in poly.generators)
    assert len(poly.sides) == 6
    assert validate_special(poly) == []


def test_gamma_2_polygon():
    poly = built_polygon("gamma", 2)
    assert len(poly.generators) == 2
    for gen, order in poly.generators:
        assert order == 0
        assert gen.b % 2 == 0 and gen.c % 2 == 0
        assert gen.a % 2 == 1 and gen.d % 2 == 1
    assert validate_special(poly) == []


def test_validate_all_families_to_30():
    # spot checks here; the full N <= 30 sweep is in the acceptance suite
    for family, N in [("gamma0", 24), ("gamma_upper0", 18), ("gamma1", 11),
                      ("gamma_upper1", 12), ("gamma", 7)]:
        poly = built_polygon(family, N)
        assert validate_special(poly) == []
        inv = graph_invariants(poly.system)
        assert len(poly.dev) == inv.n
        assert len(poly.sides) == 2 * len(poly.generators)
        assert len(poly.generators) == inv.n_generators


def test_validate_detects_corruption():
    poly = copy.deepcopy(built_polygon("gamma0", 11))
    i = next(i for i, s in enumerate(poly.sides) if s.kind == "even")
    j = poly.sides[i].pair
    k = next(k for k in range(len(poly.sides)) if k not in (i, j))
    poly.sides[i] = poly.sides[i]._replace(pair=k)
    violations = validate_special(poly)
    assert violations


def test_validate_checks_the_x_order_from_the_left_wall():
    poly = copy.deepcopy(built_polygon("gamma0", 11))
    sides, left = poly.sides, poly.left_wall
    m = len(sides)
    assert sides[left].start == (1, 0)
    # move the vertex between the second and third sides past the right wall
    i, j = (left + 1) % m, (left + 2) % m
    far = (10**6, 1)
    sides[i], sides[j] = sides[i]._replace(end=far), sides[j]._replace(start=far)
    assert f"vertex x does not increase along side {j}" in validate_special(poly)
    poly = copy.deepcopy(built_polygon("gamma0", 11))
    poly.left_wall = (left + 1) % m
    assert f"left wall {(left + 1) % m} does not leave infinity" in validate_special(poly)


def test_boundary_cusps_are_farey_neighbours():
    # the cusp vertices in boundary order, infinity = 1/0 included, read
    # here from the sides with no help from validate_special
    for family in FAMILIES:
        for N in range(1, 31):
            sides = built_polygon(family, N).sides
            cusps = [side.start for side in sides if len(side.start) == 2]
            assert (1, 0) in cusps
            for (p, q), (r, s) in zip(cusps, cusps[1:] + cusps[:1]):
                assert abs(p * s - r * q) == 1, (family, N, (p, q), (r, s))


def test_validate_reports_a_cusp_that_is_no_farey_neighbour():
    # move the cusp r/s that ends an even side from p/q to (p + 2r)/(q + 2s),
    # whose determinant with p/q is 2; the two sides that meet there still
    # share it, so the boundary closes
    poly = copy.deepcopy(built_polygon("gamma0", 11))
    sides, m = poly.sides, len(poly.sides)
    i = next(i for i, side in enumerate(sides) if side.kind == "even" and side.end[1] > 0)
    j = (i + 1) % m
    (p, q), (r, s) = sides[i].start, sides[i].end
    moved = (p + 2 * r, q + 2 * s)
    sides[i], sides[j] = sides[i]._replace(end=moved), sides[j]._replace(start=moved)
    violations = validate_special(poly)
    assert (f"cusps {p}/{q} and {moved[0]}/{moved[1]} at the starts of sides {i} and {j} "
            "are not Farey neighbours") in violations
    assert not any("boundary gap" in v for v in violations)


def test_generators_membership_and_orders():
    for family, N in TEST_GROUPS:
        poly = built_polygon(family, N)
        member = member_predicate(family, N)
        for gen, order in poly.generators:
            assert member(gen) and poly.system.member(gen)
            if order == 2:
                assert gen * gen == IDENTITY and gen != IDENTITY
            elif order == 3:
                assert gen * gen * gen == IDENTITY
                assert gen != IDENTITY and gen * gen != IDENTITY
            else:
                assert abs(gen.trace()) >= 2 and gen != IDENTITY


def test_generator_independence_brute_force():
    """No nontrivial reduced word of up to 6 syllables evaluates to the
    identity.  Equivalent check: all reduced words of up to 3 syllables
    evaluate to pairwise distinct elements (a length <= 6 identity would
    split into two length <= 3 halves with equal evaluations)."""
    for family, N in TEST_GROUPS:
        poly = built_polygon(family, N)
        gens = poly.generators
        assert len(gens) <= 12
        exponents = []
        for _, order in gens:
            if order == 0:
                exponents.append((-2, -1, 1, 2))
            else:
                exponents.append(tuple(range(1, order)))
        seen = {}
        words = [((), IDENTITY)]
        for _ in range(3):
            nxt = []
            for word, value in words:
                for i in range(len(gens)):
                    if word and word[-1][0] == i:
                        continue
                    for e in exponents[i]:
                        w2 = word + ((i, e),)
                        nxt.append((w2, value * gens[i][0] ** e))
            words = nxt
            for word, value in words:
                key = value.tuple()
                assert key != IDENTITY.tuple(), (family, N, word)
                assert key not in seen, (family, N, word, seen[key])
                seen[key] = word


def test_cusp_vertices_match_cusp_count():
    # cusp corners of the polygon modulo the pairing = cusp orbits
    for family, N in TEST_GROUPS:
        poly = built_polygon(family, N)
        inv = graph_invariants(poly.system)
        corners = {}
        for i, side in enumerate(poly.sides):
            for vertex in (side.start, side.end):
                if len(vertex) == 2:
                    corners.setdefault(vertex, len(corners))
        parent = list(range(len(corners)))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        def union(x, y):
            parent[find(x)] = find(y)

        from modpoly.polygon import _map_vertex
        for i, side in enumerate(poly.sides):
            gen = poly.generators[side.gen][0] ** side.gen_exp
            for vertex in (side.start, side.end):
                if len(vertex) == 2:
                    union(corners[vertex], corners[_map_vertex(gen, vertex)])
        classes = {find(v) for v in corners.values()}
        assert len(classes) == inv.cusp_count


def test_polygon_json():
    poly = built_polygon("gamma0", 2)
    blob = to_json(poly)
    assert blob == to_json(build_polygon(built_system("gamma0", 2)))
    data = json.loads(blob)
    assert len(data["triangles"]) == 3
    assert len(data["generators"]) == 2
    assert {s["kind"] for s in data["sides"]} == {"even", "odd_inf", "odd_zero"}


def test_polygon_svg():
    import xml.etree.ElementTree as ET
    poly = built_polygon("gamma0", 11)
    svg = to_svg(poly)
    root = ET.fromstring(svg)
    assert root.tag.endswith("svg")
    assert len(list(root)) >= len(poly.sides)


def test_triangle_matrices_are_unique():
    for family, N in [("gamma0", 13), ("gamma", 5)]:
        poly = built_polygon(family, N)
        assert len(set(poly.dev)) == len(poly.dev)


def test_pipeline_on_oracle_presented_subgroup():
    # a conjugate of Gamma0(7), known to the library only through its oracle
    import random
    from modpoly.cosets import build_from_oracle
    from modpoly.psl2 import S, T
    from modpoly.reduce import express

    w = T * S * T * T
    member = lambda g: (w.inv() * g * w).c % 7 == 0
    system = build_from_oracle(member, max_index=100)
    assert system.n == 8
    poly = build_polygon(system)
    assert validate_special(poly) == []
    rng = random.Random(9)
    gens = poly.generators
    for _ in range(15):
        g = IDENTITY
        for _ in range(rng.randint(1, 5)):
            i = rng.randrange(len(gens))
            e = rng.choice([-1, 1]) if gens[i][1] == 0 else 1
            g = g * gens[i][0] ** e
        assert member(g)
        for use_trace in (False, True):
            word = express(poly, g, use_trace=use_trace)
            assert evaluate_word(gens, word) == g
