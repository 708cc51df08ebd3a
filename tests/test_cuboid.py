import json

import pytest

from modpoly.cosets import FAMILIES, CosetSystem, build_from_oracle, build_system
from modpoly.cuboid import (
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
    built_system,
    gamma0_cusps,
    gamma0_index,
    gamma0_nu2,
    gamma0_nu3,
    gamma0_widths,
    gamma_data,
    genus_from,
    member_predicate,
)


def orbits(system):
    """The vertex orbits the graph writer lists: (v0, v1)."""
    data = json.loads(to_json(system))
    return data["v0"], data["v1"]


def test_whole_group_graph():
    g = built_system("gamma0", 1)
    assert g.n == 1
    assert orbits(g) == ([[0]], [[0]])
    inv = graph_invariants(g)
    assert (inv.e2, inv.e3, inv.cusp_count, inv.betti, inv.genus) == (1, 1, 1, 0, 0)
    assert inv.n_generators == 2


def test_gamma0_2_graph():
    g = built_system("gamma0", 2)
    assert g.n == 3
    v0, v1 = orbits(g)
    assert sorted(len(o) for o in v0) == [1, 2]
    assert [len(o) for o in v1] == [3]
    # trivalent cyclic order starts at the orbit minimum and follows sigma_u
    orbit = v1[0]
    assert orbit[0] == min(orbit)
    assert g.sigma_u[orbit[0]] == orbit[1] and g.sigma_u[orbit[1]] == orbit[2]


def test_gamma_2_graph():
    g = build_from_oracle(member_predicate("gamma", 2), max_index=10)
    assert g.n == 6
    v0, v1 = orbits(g)
    assert all(len(o) == 2 for o in v0)
    assert all(len(o) == 3 for o in v1)
    assert len(v0) == 3 and len(v1) == 2


def test_invariants_gamma0_11():
    inv = graph_invariants(built_system("gamma0", 11))
    assert inv.n == 12
    assert inv.e2 == 0 and inv.e3 == 0
    assert inv.cusp_count == 2
    assert inv.betti == 3
    assert inv.genus == 1
    assert inv.n_generators == 3


def test_invariants_gamma0_4_widths():
    inv = graph_invariants(built_system("gamma0", 4))
    assert inv.n == 6
    assert (inv.e2, inv.e3) == (0, 0)
    assert inv.cusp_count == 3
    assert inv.cusp_widths == (1, 1, 4)
    assert inv.genus == 0


def test_invariants_against_closed_forms():
    for N in range(1, 31):
        inv = graph_invariants(built_system("gamma0", N))
        assert inv.n == gamma0_index(N)
        assert inv.e2 == gamma0_nu2(N)
        assert inv.e3 == gamma0_nu3(N)
        assert inv.cusp_count == gamma0_cusps(N)
        assert list(inv.cusp_widths) == gamma0_widths(N)
        assert inv.genus == genus_from(inv.n, inv.e2, inv.e3, inv.cusp_count)
        assert sum(inv.cusp_widths) == inv.n


def test_invariants_gamma_family():
    for N in range(1, 14):
        inv = graph_invariants(built_system("gamma", N))
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
            inv = graph_invariants(built_system(family, N))
            assert (inv.n, inv.e2, inv.e3, inv.cusp_count) == (n, e2, e3, cusps), (family, N)
            assert inv.genus == genus_from(n, e2, e3, cusps)
            assert sum(inv.cusp_widths) == n


def test_generator_count_exceeds_sixth_of_index():
    for family, N in TEST_GROUPS:
        inv = graph_invariants(built_system(family, N))
        assert inv.n_generators > inv.n / 6


def test_is_normal():
    assert is_normal(built_system("gamma0", 1))
    assert is_normal(built_system("gamma", 5))
    assert not is_normal(built_system("gamma0", 11))
    # index 14 880: one propagation per edge took minutes
    assert is_normal(built_system("gamma", 31))


def test_is_normal_agrees_with_the_edge_orbit():
    # the two propagations from the distinguished edge against one per edge;
    # Gamma0(5) meet Gamma^0(5) is normalised by S but not by U, and the
    # index-4 subgroup that contains U is not normalised by S, so neither
    # propagation alone decides
    graphs = [built_system(family, N) for family in FAMILIES
              for N in range(1, 10 if family == "gamma" else 31)]
    graphs.append(build_from_oracle(lambda g: g.b % 5 == 0 and g.c % 5 == 0, max_index=100))
    graphs.append(CosetSystem("oracle", None, 4, [2, 3, 0, 1], [0, 2, 3, 1], 0))
    for g in graphs:
        assert is_normal(g) == (len(distinguished_edge_orbit(g)) == g.n), g
    assert not is_normal(graphs[-2]) and not is_normal(graphs[-1])


def test_distinguished_edge_orbit_divides():
    for family, N in [("gamma0", 6), ("gamma0", 11), ("gamma", 3), ("gamma1", 5)]:
        g = built_system(family, N)
        orbit = distinguished_edge_orbit(g)
        assert g.distinguished in orbit
        assert g.n % len(orbit) == 0
        assert (len(orbit) == g.n) == is_normal(g)


def test_pointed_isomorphic_examples():
    g1 = built_system("gamma0", 2)
    assert pointed_isomorphic(g1, g1)
    g2 = built_system("gamma_upper0", 2)
    # conjugate subgroups: same unpointed graph, different pointing
    assert not pointed_isomorphic(g1, g2)
    from modpoly.cuboid import _propagate
    unpointed = any(
        _propagate(g1.sigma_s, g1.sigma_u, g1.distinguished,
                   g2.sigma_s, g2.sigma_u, e, g1.n) is not None
        for e in range(g2.n))
    assert unpointed
    assert not pointed_isomorphic(built_system("gamma0", 3), built_system("gamma0", 2))
    assert not pointed_isomorphic(built_system("gamma1", 7), built_system("gamma_upper1", 7))


def test_normality_cross_check():
    # conjugating T by S lands outside Gamma0(N) for N > 1, so none are normal
    for N in range(2, 14):
        w = S * T * S.inv()
        assert w.c % N != 0
        assert not is_normal(built_system("gamma0", N))


def test_json_and_dot_deterministic():
    g = built_system("gamma0", 6)
    blob = to_json(g)
    assert blob == to_json(build_system("gamma0", 6))
    data = json.loads(blob)
    assert data["n"] == 12
    assert len(data["sigma_S"]) == 12
    dot = to_dot(g)
    assert dot == to_dot(build_system("gamma0", 6))
    assert "shape=triangle" in dot and "shape=circle" in dot
    assert "style=bold" in dot


def test_malformed_system_rejected():
    # a malformed permutation pair never reaches the graph functions: the
    # coset system refuses it when it is constructed
    with pytest.raises(ValueError):
        CosetSystem("oracle", None, 2, [1, 0], [1, 0], 0)  # sigma_u has order 2
