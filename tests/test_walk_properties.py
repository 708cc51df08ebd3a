"""Property tests of the coset walk: over random families, levels, S/U words
and powers of T up to 10^9, membership and coset equality agree with the
closed-form congruence predicates, for family-built and oracle-built systems
alike."""

from functools import lru_cache, reduce

from hypothesis import given, settings, strategies as st

from modpoly.cosets import FAMILIES, build_from_oracle
from modpoly.psl2 import IDENTITY, S, T, U

from oracles import built_system, member_predicate

# a letter is S, U, U^2 or T^k with |k| up to 10^9
letters = st.one_of(
    st.sampled_from([S, U, U * U]),
    st.integers(-10**9, 10**9).map(lambda k: T**k),
)
elements = st.lists(letters, max_size=12).map(lambda word: reduce(lambda g, h: g * h, word, IDENTITY))
families = st.sampled_from(FAMILIES)

BOUNDED = settings(max_examples=150, deadline=None)


@lru_cache(maxsize=None)
def oracle_system(family, N):
    return build_from_oracle(member_predicate(family, N), max_index=1000)


@BOUNDED
@given(families, st.integers(1, 40), elements)
def test_member_matches_predicate(family, N, g):
    assert built_system(family, N).member(g) == member_predicate(family, N)(g)


# products of T^(N k) and S T^(N k) S: congruent to the identity mod N, so
# members of every family's group of level N
level_exponents = st.lists(st.integers(-10**9, 10**9), max_size=4)


def principal_member(N, exponents):
    m = IDENTITY
    for i, k in enumerate(exponents):
        m = m * (T ** (N * k) if i % 2 == 0 else S * T ** (N * k) * S)
    return m


@BOUNDED
@given(families, st.integers(1, 40), elements, elements, st.none() | level_exponents)
def test_same_coset_iff_quotient_is_member(family, N, g, h, exponents):
    if exponents is not None:
        h = principal_member(N, exponents) * g
    system = built_system(family, N)
    same = system.coset(g) == system.coset(h)
    assert same == member_predicate(family, N)(g * h.inv())


@BOUNDED
@given(families, st.integers(1, 10), elements)
def test_oracle_system_gives_the_same_verdicts(family, N, g):
    assert oracle_system(family, N).member(g) == built_system(family, N).member(g)
