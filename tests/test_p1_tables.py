"""Property tests of the table-built P^1(Z/N) coset systems: over random
levels, drawn to favour prime powers and products of three or more primes,
the four P^1 families equal the reference builders of tests/oracles.py (one
CRT normalisation per label and letter), and that reference normaliser
returns a point of the unit orbit with its scaling unit."""

from math import gcd, prod

from hypothesis import assume, given, settings, strategies as st

from modpoly.cosets import build_system

from oracles import p1_labels, reference_p1_list, reference_p1_normalize, reference_system, unit_labels

PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)


def levels(limit):
    prime_powers = st.sampled_from(sorted(p**k for p in PRIMES + (37, 41, 43, 47, 53)
                                          for k in range(1, 12) if p**k <= limit))
    products = (st.lists(st.sampled_from(PRIMES), min_size=3, max_size=6)
                .map(prod).filter(lambda n: n <= limit))
    return st.one_of(st.integers(1, limit), prime_powers, products)


BOUNDED = settings(max_examples=25, deadline=None)


def system_data(family, N):
    """(labels, sigma_s, sigma_u, distinguished): the system keeps no
    labels, so they are the P^1 points, or unit classes and points, that
    number its cosets."""
    system = build_system(family, N)
    labels = p1_labels(N) if family in ("gamma0", "gamma_upper0") else unit_labels(N)
    assert system.n == len(labels)
    return labels, system.sigma_s, system.sigma_u, system.distinguished


@BOUNDED
@given(levels(3000))
def test_p1_families_match_reference(N):
    assert p1_labels(N) == reference_p1_list(N)
    for family in ("gamma0", "gamma_upper0"):
        assert system_data(family, N) == reference_system(family, N), (family, N)


@BOUNDED
@given(levels(120))
def test_unit_families_match_reference(N):
    for family in ("gamma1", "gamma_upper1"):
        assert system_data(family, N) == reference_system(family, N), (family, N)


@settings(max_examples=200, deadline=None)
@given(levels(3000), st.integers(0, 10**6), st.integers(0, 10**6))
def test_p1_normalize_is_in_the_unit_orbit(N, a, b):
    assume(gcd(gcd(a, b), N) == 1)
    rep, u = reference_p1_normalize(N, a, b)
    assert gcd(u, N) == 1 or N == 1
    assert ((u * rep[0] - a) % N, (u * rep[1] - b) % N) == (0, 0)
    units = [v for v in range(N) if gcd(v, N) == 1] if N > 1 else [0]
    assert rep in {(v * a % N, v * b % N) for v in units}
