import json

import pytest

from modpoly.cosets import CosetSystem, build_from_oracle, build_system
from modpoly.cuboid import (
    build_graph,
    distinguished_edge_orbit,
    graph_invariants,
    is_normal,
    pointed_isomorphic,
    to_dot,
    to_json,
)
from modpoly.psl2 import S, T

from oracles import (
    TEST_GROUPS,
    built_graph,
    gamma0_cusps,
    gamma0_index,
    gamma0_nu2,
    gamma0_nu3,
    gamma0_widths,
    gamma_data,
    genus_from,
    member_predicate,
)


def test_whole_group_graph():
    g = built_graph("gamma0", 1)
    assert g.n == 1
    assert g.v0 == [[0]] and g.v1 == [[0]]
    inv = graph_invariants(g)
    assert (inv.e2, inv.e3, inv.cusp_count, inv.betti, inv.genus) == (1, 1, 1, 0, 0)
    assert inv.n_generators == 2


def test_gamma0_2_graph():
    g = built_graph("gamma0", 2)
    assert g.n == 3
    assert sorted(len(o) for o in g.v0) == [1, 2]
    assert [len(o) for o in g.v1] == [3]
    # trivalent cyclic order starts at the orbit minimum and follows sigma_u
    orbit = g.v1[0]
    assert orbit[0] == min(orbit)
    assert g.sigma_u[orbit[0]] == orbit[1] and g.sigma_u[orbit[1]] == orbit[2]


def test_gamma_2_graph():
    g = build_graph(build_from_oracle(member_predicate("gamma", 2), max_index=10))
    assert g.n == 6
    assert all(len(o) == 2 for o in g.v0)
    assert all(len(o) == 3 for o in g.v1)
    assert len(g.v0) == 3 and len(g.v1) == 2


def test_invariants_gamma0_11():
    inv = graph_invariants(built_graph("gamma0", 11))
    assert inv.n == 12
    assert inv.e2 == 0 and inv.e3 == 0
    assert inv.cusp_count == 2
    assert inv.betti == 3
    assert inv.genus == 1
    assert inv.n_generators == 3


def test_invariants_gamma0_4_widths():
    inv = graph_invariants(built_graph("gamma0", 4))
    assert inv.n == 6
    assert (inv.e2, inv.e3) == (0, 0)
    assert inv.cusp_count == 3
    assert inv.cusp_widths == (1, 1, 4)
    assert inv.genus == 0


def test_invariants_against_closed_forms():
    for N in range(1, 31):
        inv = graph_invariants(built_graph("gamma0", N))
        assert inv.n == gamma0_index(N)
        assert inv.e2 == gamma0_nu2(N)
        assert inv.e3 == gamma0_nu3(N)
        assert inv.cusp_count == gamma0_cusps(N)
        assert list(inv.cusp_widths) == gamma0_widths(N)
        assert inv.genus == genus_from(inv.n, inv.e2, inv.e3, inv.cusp_count)
        assert sum(inv.cusp_widths) == inv.n


def test_invariants_gamma_family():
    for N in range(1, 14):
        inv = graph_invariants(built_graph("gamma", N))
        n, e2, e3, cusps, widths = gamma_data(N)
        assert (inv.n, inv.e2, inv.e3, inv.cusp_count) == (n, e2, e3, cusps)
        assert list(inv.cusp_widths) == widths


def test_invariants_all_families_to_30():
    # conjugate subgroups share all surface invariants, so the upper variants
    # check against the same closed forms
    from oracles import gamma1_cusps, gamma1_index, gamma1_nu2, gamma1_nu3, gamma_index
    for N in range(1, 31):
        expected = {
            "gamma0": (gamma0_index(N), gamma0_nu2(N), gamma0_nu3(N), gamma0_cusps(N)),
            "gamma_upper0": (gamma0_index(N), gamma0_nu2(N), gamma0_nu3(N), gamma0_cusps(N)),
            "gamma1": (gamma1_index(N), gamma1_nu2(N), gamma1_nu3(N), gamma1_cusps(N)),
            "gamma_upper1": (gamma1_index(N), gamma1_nu2(N), gamma1_nu3(N), gamma1_cusps(N)),
            "gamma": gamma_data(N)[:4],
        }
        for family, (n, e2, e3, cusps) in expected.items():
            inv = graph_invariants(built_graph(family, N))
            assert (inv.n, inv.e2, inv.e3, inv.cusp_count) == (n, e2, e3, cusps), (family, N)
            assert inv.genus == genus_from(n, e2, e3, cusps)
            assert sum(inv.cusp_widths) == n


def test_generator_count_exceeds_sixth_of_index():
    for family, N in TEST_GROUPS:
        inv = graph_invariants(built_graph(family, N))
        assert inv.n_generators > inv.n / 6


def test_is_normal():
    assert is_normal(built_graph("gamma0", 1))
    assert is_normal(built_graph("gamma", 5))
    assert not is_normal(built_graph("gamma0", 11))


def test_distinguished_edge_orbit_divides():
    for family, N in [("gamma0", 6), ("gamma0", 11), ("gamma", 3), ("gamma1", 5)]:
        g = built_graph(family, N)
        orbit = distinguished_edge_orbit(g)
        assert g.distinguished in orbit
        assert g.n % len(orbit) == 0
        assert (len(orbit) == g.n) == is_normal(g)


def test_pointed_isomorphic_examples():
    g1 = built_graph("gamma0", 2)
    assert pointed_isomorphic(g1, g1)
    g2 = built_graph("gamma_upper0", 2)
    # conjugate subgroups: same unpointed graph, different pointing
    assert not pointed_isomorphic(g1, g2)
    from modpoly.cuboid import _propagate
    unpointed = any(
        _propagate(g1.sigma_s, g1.sigma_u, g1.distinguished,
                   g2.sigma_s, g2.sigma_u, e, g1.n) is not None
        for e in range(g2.n))
    assert unpointed
    assert not pointed_isomorphic(built_graph("gamma0", 3), built_graph("gamma0", 2))
    assert not pointed_isomorphic(built_graph("gamma1", 7), built_graph("gamma_upper1", 7))


def test_normality_cross_check():
    # conjugating T by S lands outside Gamma0(N) for N > 1, so none are normal
    for N in range(2, 14):
        w = S * T * S.inv()
        assert w.c % N != 0
        assert not is_normal(built_graph("gamma0", N))


def test_json_and_dot_deterministic():
    g = built_graph("gamma0", 6)
    blob = to_json(g)
    assert blob == to_json(build_graph(build_system("gamma0", 6)))
    data = json.loads(blob)
    assert data["n"] == 12
    assert len(data["sigma_S"]) == 12
    dot = to_dot(g)
    assert dot == to_dot(build_graph(build_system("gamma0", 6)))
    assert "shape=triangle" in dot and "shape=circle" in dot
    assert "style=bold" in dot


def test_malformed_system_rejected():
    # a malformed permutation pair never reaches the graph: the coset system
    # refuses it when it is constructed
    with pytest.raises(ValueError):
        build_graph(CosetSystem("oracle", None, [0, 1], [1, 0], [1, 0], 0))  # sigma_u has order 2
