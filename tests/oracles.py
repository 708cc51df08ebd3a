"""Independent closed-form oracles used by the test suite only.

These are the textbook index / elliptic / cusp / genus formulas, implemented
here from scratch so that the graph-derived invariants are checked against a
completely separate computation.
"""

from fractions import Fraction
from functools import lru_cache
from math import gcd

from modpoly.cosets import build_system
from modpoly.cuboid import build_graph
from modpoly.polygon import build_polygon, cut_to_tree, develop
from modpoly.psl2 import IDENTITY, S, U


def prime_factors(n):
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


def euler_phi(n):
    r = n
    for p in prime_factors(n):
        r = r // p * (p - 1)
    return r


def divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def gamma0_index(N):
    idx = N
    for p in prime_factors(N):
        idx = idx // p * (p + 1)
    return idx


def gamma0_nu2(N):
    if N % 4 == 0:
        return 0
    out = 1
    for p in prime_factors(N):
        if p == 2:
            continue
        out *= 2 if p % 4 == 1 else 0
    return out


def gamma0_nu3(N):
    if N % 9 == 0:
        return 0
    out = 1
    for p in prime_factors(N):
        if p == 3:
            continue
        out *= 2 if p % 3 == 1 else 0
    return out


def gamma0_cusps(N):
    return sum(euler_phi(gcd(d, N // d)) for d in divisors(N))


def gamma0_widths(N):
    """Cusp width N/gcd(d^2, N) for each divisor d, with multiplicity
    phi(gcd(d, N/d))."""
    widths = []
    for d in divisors(N):
        widths.extend([N // gcd(d * d, N)] * euler_phi(gcd(d, N // d)))
    return sorted(widths)


def genus_from(n, e2, e3, cusps):
    g = 1 + Fraction(n, 12) - Fraction(e2, 4) - Fraction(e3, 3) - Fraction(cusps, 2)
    assert g.denominator == 1 and g >= 0
    return int(g)


def gamma_index(N):
    """Index of the image of Gamma(N) in PSL2(Z)."""
    if N == 1:
        return 1
    order = N**3
    for p in prime_factors(N):
        order = order // (p * p) * (p * p - 1)
    return order if N == 2 else order // 2


def gamma_data(N):
    """(index, e2, e3, cusps, widths) for Gamma(N)."""
    if N == 1:
        return 1, 1, 1, 1, [1]
    n = gamma_index(N)
    return n, 0, 0, n // N, [N] * (n // N)


def gamma1_index(N):
    if N <= 2:
        return gamma0_index(N)
    return gamma0_index(N) * euler_phi(N) // 2


def gamma1_nu2(N):
    # an order-2 element has trace 0, impossible with diagonal +-1 mod N >= 3
    return gamma0_nu2(N) if N <= 2 else 0


def gamma1_nu3(N):
    # an order-3 element has trace +-1, forcing 2 == -1 mod N, so only N = 3
    if N <= 2:
        return gamma0_nu3(N)
    return 1 if N == 3 else 0


def gamma1_cusps(N):
    if N <= 2:
        return gamma0_cusps(N)
    if N == 4:
        return 3
    return sum(euler_phi(d) * euler_phi(N // d) for d in divisors(N)) // 2


def gamma1_prime_data(p):
    """(index, e2, e3, cusps, widths) for Gamma1(p), p > 3 prime: half the
    cusps sit over infinity with width 1, half over zero with width p."""
    n = gamma1_index(p)
    k = (p - 1) // 2
    return n, 0, 0, 2 * k, sorted([1] * k + [p] * k)


def su_evaluate(word):
    """Left-to-right product of a word of ("S", 1), ("U", 1), ("U", 2) letters."""
    result = IDENTITY
    for gen, e in word:
        if gen == "S":
            result = result * S
        elif e == 1:
            result = result * U
        else:
            result = result * U * U
    return result


def member_predicate(family, N):
    """Congruence membership test, written independently of the library."""
    def diag_pm(g):
        a, d = g.a % N, g.d % N
        return (a == 1 % N and d == 1 % N) or (a == (-1) % N and d == (-1) % N)

    if family == "gamma0":
        return lambda g: g.c % N == 0
    if family == "gamma_upper0":
        return lambda g: g.b % N == 0
    if family == "gamma1":
        return lambda g: g.c % N == 0 and diag_pm(g)
    if family == "gamma_upper1":
        return lambda g: g.b % N == 0 and diag_pm(g)
    if family == "gamma":
        return lambda g: g.b % N == 0 and g.c % N == 0 and diag_pm(g)
    raise ValueError(family)


# stock test groups used across the suite
TEST_GROUPS = ([("gamma0", N) for N in (2, 3, 4, 5, 6, 7, 10, 11, 13)]
               + [("gamma", N) for N in (2, 3, 4, 5)]
               + [("gamma1", 5)])


@lru_cache(maxsize=None)
def built_system(family, N):
    return build_system(family, N)


@lru_cache(maxsize=None)
def built_graph(family, N):
    return build_graph(built_system(family, N))


@lru_cache(maxsize=None)
def built_polygon(family, N):
    return build_polygon(built_system(family, N))


@lru_cache(maxsize=None)
def built_tree_dev(family, N):
    tree = cut_to_tree(built_graph(family, N))
    return tree, develop(tree)
