import random
from math import gcd

import pytest

from modpoly.cosets import (
    FAMILIES,
    MembershipError,
    build_from_oracle,
    build_gamma,
    build_gamma0,
    build_gamma1,
    build_gamma_upper0,
    build_gamma_upper1,
    build_system,
    gamma_triple,
    p1_list,
    p1_normalize,
    unit_classes,
    xpoint,
)
from modpoly.cuboid import build_graph, pointed_isomorphic
from modpoly.polygon import build_polygon, validate_special
from modpoly.psl2 import IDENTITY, S, T, U, Psl2Elt

from oracles import built_tree_dev, gamma0_index, gamma1_index, gamma_index, member_predicate


def brute_force_orbit(N, a, b):
    return {((u * a) % N, (u * b) % N) for u in range(N) if gcd(u, N) == 1}


def test_p1_normalize_zero_first_coordinate():
    # representative of (0 : b) is (0, 1)
    rep, u = p1_normalize(8, 0, 5)
    assert rep == (0, 1)
    assert (u * rep[0] % 8, u * rep[1] % 8) == (0, 5)


def test_p1_normalize_examples():
    rep, u = p1_normalize(8, 6, 1)
    assert rep == (2, 3)
    assert rep in brute_force_orbit(8, 6, 1)
    rep, u = p1_normalize(4, 2, 3)
    assert rep == (2, 1)
    assert rep in brute_force_orbit(4, 2, 3)


def test_p1_normalize_unit_reconstruction():
    rng = random.Random(11)
    for N in range(2, 101):
        reps = p1_list(N)
        units = [u for u in range(1, N) if gcd(u, N) == 1]
        for rep in reps:
            u = rng.choice(units)
            scaled = ((u * rep[0]) % N, (u * rep[1]) % N)
            back, unit = p1_normalize(N, *scaled)
            assert back == rep
            assert ((unit * rep[0]) % N, (unit * rep[1]) % N) == scaled
            assert gcd(unit, N) == 1


def test_p1_normalize_rejects_noncoprime():
    with pytest.raises(ValueError):
        p1_normalize(4, 2, 2)


def test_p1_list_sizes():
    assert len(p1_list(4)) == 6
    assert p1_list(1) == [(0, 0)]
    assert len(p1_list(12)) == 24


def test_p1_list_is_transversal():
    for N in range(1, 40):
        reps = p1_list(N)
        # size formula N * prod(1 + 1/p)
        from modpoly.modint import factorize
        expected = N
        for p in {p for p, _ in factorize(N)}:
            expected = expected // p * (p + 1)
        assert len(reps) == expected
        if N == 1:
            continue
        # one representative per unit orbit, and each normalizes to itself
        seen = set()
        for rep in reps:
            orbit = frozenset(brute_force_orbit(N, *rep))
            assert orbit not in seen
            seen.add(orbit)
            assert p1_normalize(N, *rep)[0] == rep
        assert sum(len(o) for o in seen) == len(
            [(a, b) for a in range(N) for b in range(N) if gcd(gcd(a, b), N) == 1])


def test_unit_classes():
    assert unit_classes(1) == [0]
    assert unit_classes(2) == [1]
    assert unit_classes(5) == [1, 2]
    assert unit_classes(12) == [1, 5]


def test_build_from_oracle_whole_group():
    system = build_from_oracle(lambda g: True, max_index=5)
    assert system.n == 1
    assert system.sigma_s == [0] and system.sigma_u == [0]


def test_build_from_oracle_gamma0_2():
    system = build_from_oracle(lambda g: g.c % 2 == 0, max_index=10)
    assert system.n == 3
    assert sum(1 for i in range(3) if system.sigma_s[i] == i) == 1
    assert all(system.sigma_u[i] != i for i in range(3))


def test_build_from_oracle_gamma_2():
    system = build_from_oracle(member_predicate("gamma", 2), max_index=10)
    assert system.n == 6
    assert all(system.sigma_s[i] != i for i in range(6))
    assert all(system.sigma_u[i] != i for i in range(6))


def test_build_from_oracle_bounded():
    with pytest.raises(ValueError):
        build_from_oracle(member_predicate("gamma", 5), max_index=10)


def test_build_from_oracle_inconsistent():
    # a union of two subgroups is not closed under multiplication; the merge
    # conflict surfaces as a failed permutation check
    def union(g):
        return (g.b % 2 == 0 and g.c % 2 == 0) or (g.c % 3 == 0)
    with pytest.raises(ValueError, match="inconsistent"):
        build_from_oracle(union, max_index=500)
    with pytest.raises(ValueError, match="identity"):
        build_from_oracle(lambda g: False, max_index=10)


def test_gamma0_small_structure():
    s2 = build_gamma0(2)
    assert s2.n == 3
    assert sum(1 for i in range(3) if s2.sigma_s[i] == i) == 1
    assert s2.labels[[i for i in range(3) if s2.sigma_s[i] == i][0]] == (1, 1)
    assert all(s2.sigma_u[i] != i for i in range(3))

    s3 = build_gamma0(3)
    assert s3.n == 4
    assert all(s3.sigma_s[i] != i for i in range(4))
    fixed_u = [i for i in range(4) if s3.sigma_u[i] == i]
    assert [s3.labels[i] for i in fixed_u] == [(1, 1)]

    assert build_gamma0(11).n == 12


def test_gamma1_indices():
    assert build_gamma1(5).n == 12
    assert build_gamma1(2).n == 3
    assert build_gamma1(3).n == 4


def test_gamma_triple_examples():
    N = 3
    ident = gamma_triple((1, 0, 0, 1), N)
    assert ident == (xpoint(1, 0, N), xpoint(0, 1, N), xpoint(1, 1, N))
    system = build_gamma(N)
    i = system.labels.index(ident)
    shifted = system.labels[system.sigma_u[i]]
    assert shifted == (xpoint(0, 1, N), xpoint(1, 1, N), xpoint(1, 0, N))


def test_gamma_indices():
    assert build_gamma(5).n == 60
    assert build_gamma(2).n == 6
    assert build_gamma(1).n == 1


def test_index_formulas_up_to_30():
    for N in range(1, 31):
        assert build_gamma0(N).n == gamma0_index(N)
        assert build_gamma(N).n == gamma_index(N)
        assert build_gamma1(N).n == gamma1_index(N)


def test_reduce_to_coset_examples():
    # the coset walk reduces an element to the label of its coset
    s11 = build_gamma0(11)
    assert s11.coset(IDENTITY) == s11.distinguished
    assert s11.labels[s11.coset(T)] == (0, 1)
    assert s11.member(T) and not s11.member(S)

    s2 = build_gamma0(2)
    assert s2.labels[s2.coset(S)] == (1, 0)
    assert s2.coset(S * T * T) == s2.coset(S)


def test_reduce_to_coset_witness_property():
    # the developed matrix of edge e lies in coset e, so g * dev[coset(g)]^-1
    # is a witness in G, checked by the closed-form membership test
    rng = random.Random(12)
    for family, N in [("gamma0", 12), ("gamma_upper0", 9), ("gamma1", 7),
                      ("gamma_upper1", 8), ("gamma", 4)]:
        tree, dev = built_tree_dev(family, N)
        system = tree.graph.system
        member = member_predicate(family, N)
        for _ in range(50):
            g = IDENTITY
            for _ in range(rng.randint(0, 12)):
                g = g * (S if rng.random() < 0.5 else U)
            assert member(g * dev[system.coset(g)].inv())


def test_member_huge_translation_is_one_jump():
    system = build_system("gamma0", 11)
    assert system.member(T ** 10**9)
    assert system.coset(T ** (10**9 + 1)) == system.coset(T)
    assert build_system("gamma", 7).member(T ** (10**9 + 1))  # 10**9 + 1 = 0 mod 7
    assert not build_system("gamma", 7).member(T ** (10**9 + 2))


def test_t_cycles_are_the_cusp_orbits():
    system = build_system("gamma0", 4)
    for x in range(system.n):
        cycle = system.t_cycle[x]
        assert cycle[system.t_pos[x]] == x
        y = cycle[(system.t_pos[x] + 1) % len(cycle)]
        assert y == system.sigma_s[system.sigma_u[system.sigma_u[x]]]
    widths = sorted(len(system.t_cycle[x]) for x in range(system.n) if system.t_pos[x] == 0)
    assert widths == [1, 1, 4]


def test_oracle_polygon_without_oracle_calls():
    calls = [0]

    def member(g):
        calls[0] += 1
        return g.c % 20 == 0

    system = build_from_oracle(member, max_index=100)
    after_build = calls[0]
    poly = build_polygon(system)
    assert validate_special(poly) == []
    assert system.member(T) and not system.member(S)
    assert calls[0] == after_build


def test_validate_rejects_bad_permutations():
    from modpoly.cosets import CosetSystem
    with pytest.raises(ValueError):
        CosetSystem("gamma0", 2, [0, 1], [1, 0], [1, 0], 0)  # sigma_u has order 2
    with pytest.raises(ValueError):
        CosetSystem("gamma0", 2, [0, 1], [0, 1], [0, 1], 0)  # not transitive


def test_oracle_equivalence_small():
    # full N <= 20 sweep lives in the acceptance suite
    for family in FAMILIES:
        for N in (1, 2, 3, 4, 6):
            fast = build_graph(build_system(family, N))
            oracle = build_graph(build_from_oracle(member_predicate(family, N),
                                                   max_index=2000))
            assert pointed_isomorphic(fast, oracle), (family, N)


def test_build_system_rejects_bad_input():
    with pytest.raises(ValueError):
        build_system("gamma0", 0)
    with pytest.raises(ValueError):
        build_system("nope", 2)
