"""The build's hot loops run on plain integers: the Euclidean descent of
t_runs builds no matrix object however long the matrix, develop builds one
matrix per edge besides the root's identity, and assemble builds one matrix
per generator and at most four cusps per generator (two per side), a count
pinned here at gamma0(1009) and gamma(7).  A power g ** n makes at most
2 * bit_length(|n|) matrices, and g ** 1 is g itself.  Constructions are
counted as calls of Psl2Elt.__init__ / Psl2Elt._make and Cusp.__init__ /
Cusp._coprime seen by a profile hook."""

import random
import sys
from collections import Counter

import pytest

from modpoly.polygon import assemble, develop
from modpoly.psl2 import T, Cusp, Psl2Elt, t_runs

from oracles import built_system, built_tree_dev, random_unimodular, reference_t_runs

_MADE = {Psl2Elt.__init__.__code__: "Psl2Elt", Psl2Elt._make.__func__.__code__: "Psl2Elt",
         Cusp.__init__.__code__: "Cusp", Cusp._coprime.__func__.__code__: "Cusp"}


def constructions(fn, *args):
    """(Counter of the Psl2Elt and Cusp objects fn(*args) makes, its result)."""
    made: Counter = Counter()

    def hook(frame, event, arg):
        if event == "call" and frame.f_code in _MADE:
            made[_MADE[frame.f_code]] += 1

    sys.setprofile(hook)
    try:
        result = fn(*args)
    finally:
        sys.setprofile(None)
    return made, result


def matrix_of_bits(rng, bits):
    while True:
        g = random_unimodular(rng.getrandbits(bits) | 1 << (bits - 1),
                              rng.getrandbits(bits) | 1 << (bits - 1), rng.getrandbits(8))
        if g is not None:
            return g


def test_t_runs_of_an_800_bit_matrix_builds_no_matrix():
    rng = random.Random(800)
    system = built_system("gamma0", 10007)
    for _ in range(5):
        g = matrix_of_bits(rng, 800)
        made, runs = constructions(t_runs, g)
        assert made == Counter()
        assert runs == reference_t_runs(g) and len(runs) > 100
        made, _ = constructions(system.coset, g)
        assert made == Counter()


@pytest.mark.parametrize("family, level", [("gamma0", 1009), ("gamma", 7), ("gamma1", 13)])
def test_develop_builds_one_matrix_per_edge(family, level):
    tree, dev = built_tree_dev(family, level)
    made, out = constructions(develop, tree)
    assert out == dev
    assert made == Counter({"Psl2Elt": tree.graph.n - 1})


# (Psl2Elt, Cusp) objects assemble makes: one matrix per generator, and two
# cusps per side (the two halves of an axis at an order-2 vertex share
# theirs): gamma0(1009) has 171 generators, 342 sides and 2 such vertices,
# gamma(7) 29 generators and 58 sides
@pytest.mark.parametrize("family, level, matrices, cusps", [
    ("gamma0", 1009, 171, 680),
    ("gamma", 7, 29, 116),
])
def test_assemble_builds_a_fixed_count_per_generator(family, level, matrices, cusps):
    tree, dev = built_tree_dev(family, level)
    made, poly = constructions(assemble, tree, dev)
    gens = len(poly.generators)
    assert made == Counter({"Psl2Elt": matrices, "Cusp": cusps})
    assert matrices == gens and cusps <= 4 * gens


def test_power_makes_at_most_two_matrices_per_bit():
    # long exponents on T, whose powers (1, n; 0, 1) stay small
    g = Psl2Elt(2, 1, 7, 4)
    assert g ** 1 is g and T ** 1 is T
    cases = [(g, n) for n in range(-70, 71)] + [(T, n) for n in (2**40 - 1, -(2**40 + 1), 12345)]
    for h, n in cases:
        made, power = constructions(pow, h, n)
        assert made["Psl2Elt"] <= 2 * abs(n).bit_length(), n
        assert set(made) <= {"Psl2Elt"}
    assert power == Psl2Elt(1, 12345, 0, 1)
    made, _ = constructions(pow, g, -1)
    assert made == Counter({"Psl2Elt": 1})
