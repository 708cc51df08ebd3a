"""The build's integer loops agree with their object-based references over
random inputs: t_runs with reference_t_runs (one matrix object per Euclid
step) on unimodular matrices with entries up to 2^800, c = 0 and negative
entries included; Cusp._coprime with the gcd-reducing Cusp constructor on
coprime pairs, q <= 0 and (+-1, 0) included; and develop with the product
of the move letters S, U and U^2 for the five families at levels up to
30."""

from math import gcd

from hypothesis import assume, example, given, settings, strategies as st

from modpoly.cosets import FAMILIES
from modpoly.polygon import develop
from modpoly.psl2 import Cusp, t_runs

from oracles import built_tree_dev, random_unimodular, reference_develop, reference_t_runs

BIG = 2**800
entries = st.integers(-BIG, BIG)
shifts = st.integers(-2**64, 2**64)
# (a, c, t) for random_unimodular: any pair, or c = 0 with a = +-1 (T^t)
columns = st.one_of(st.tuples(entries, entries, shifts),
                    st.tuples(st.sampled_from([1, -1]), st.just(0), shifts))


@settings(max_examples=300, deadline=None)
@given(columns)
@example((1, 0, 0))
@example((-1, 0, -5))
@example((0, 1, 0))
@example((0, -1, 3))
@example((2**800 - 1, -2**799, 1))
def test_t_runs_matches_the_reference(column):
    g = random_unimodular(*column)
    assume(g is not None)
    assert t_runs(g) == reference_t_runs(g)


@settings(max_examples=300, deadline=None)
@given(entries, entries)
@example(1, 0)
@example(-1, 0)
@example(0, 1)
@example(0, -1)
@example(-7, -3)
@example(5, -2)
def test_coprime_cusp_matches_cusp(p, q):
    assume(gcd(p, q) == 1)
    assert Cusp._coprime(p, q) == Cusp(p, q)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(FAMILIES), st.integers(1, 30))
def test_develop_matches_the_product_of_moves(family, level):
    tree, _ = built_tree_dev(family, level)
    assert develop(tree) == reference_develop(tree)
