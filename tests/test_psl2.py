import random
import time
from fractions import Fraction

import pytest

from modpoly.cosets import build_system
from modpoly.psl2 import (
    IDENTITY,
    MAX_POWER_BITS,
    S,
    T,
    U,
    Psl2Elt,
    act_cusp,
    parse_matrix,
    t_runs,
)
from modpoly.reduce import evaluate_word

from oracles import su_evaluate


def test_generator_relations():
    assert S * S == IDENTITY
    assert U * U * U == IDENTITY
    assert U * U * S == T


def test_determinant_check():
    with pytest.raises(ValueError):
        Psl2Elt(1, 0, 0, -1)
    with pytest.raises(ValueError):
        Psl2Elt(2, 0, 0, 2)


def test_constructor_refuses_entries_that_are_not_ints():
    refused = [(0.5, 0, 0, 2.0), (2.0, 1, 1, 1.0), (True, 0, 0, True), (1, 1, 0, True),
               (Fraction(1), 0, 0, 1), (1, Fraction(1, 2), 0, 1)]
    for entries in refused:
        with pytest.raises(ValueError, match="is not an int"):
            Psl2Elt(*entries)
    # a float matrix never reaches the coset walk, where it would index a list
    with pytest.raises(ValueError, match="matrix entry 2.0 is not an int"):
        build_system("gamma0", 11).coset(Psl2Elt(2.0, 1, 1, 1.0))
    assert Psl2Elt(-2, -1, -7, -4) == Psl2Elt(2, 1, 7, 4)


def test_sign_normalization():
    rng = random.Random(5)
    for _ in range(300):
        w = [random.choice([S, U]) for _ in range(rng.randint(0, 12))]
        g = IDENTITY
        for m in w:
            g = g * m
        neg = Psl2Elt(-g.a, -g.b, -g.c, -g.d)
        assert neg == g
        assert g.c > 0 or (g.c == 0 and g.d > 0)


def test_inverse():
    assert IDENTITY.inv() == IDENTITY
    assert T.inv() == Psl2Elt(1, -1, 0, 1)
    assert S.inv() == S
    rng = random.Random(6)
    for _ in range(200):
        g = su_evaluate([("U", rng.randint(1, 2)) if rng.random() < 0.6 else ("S", 1)
                         for _ in range(rng.randint(0, 20))])
        assert g * g.inv() == IDENTITY


def test_pow():
    assert T**5 == Psl2Elt(1, 5, 0, 1)
    assert T**-3 == Psl2Elt(1, -3, 0, 1)
    assert (U**2) * U == IDENTITY
    assert S**0 == IDENTITY


def test_elliptic_exponents_are_reduced_mod_the_order():
    v = U * S * U.inv()
    assert v.torsion_order() == 2
    assert S ** (10**30 + 1) == S and v ** -(10**30) == IDENTITY
    assert U ** (3 * 10**20 + 2) == U * U and U ** -(10**20) == U * U
    assert (U * U) ** (10**20) == U * U and U ** 3 == IDENTITY


def test_hyperbolic_power_past_the_bit_cap_is_refused_at_once():
    # (2, 1; 7, 4) has trace 6, 3 bits: its entries grow by about
    # log2(3 + 2 sqrt 2) = 2.5 bits per factor
    g = Psl2Elt(2, 1, 7, 4)
    n = 2**40 - 1
    start = time.perf_counter()
    for exponent in (n, -n, MAX_POWER_BITS // 3 + 1):
        with pytest.raises(ValueError, match="over MAX_POWER_BITS"):
            g ** exponent
    with pytest.raises(ValueError, match="over MAX_POWER_BITS"):
        evaluate_word([(g, 0)], [(0, 1), (0, n)])
    assert time.perf_counter() - start < 1
    # at the cap the power is computed; parabolic powers have no cap
    big = g ** (MAX_POWER_BITS // 3)
    assert 0.8 * MAX_POWER_BITS < big.d.bit_length() <= MAX_POWER_BITS
    assert T ** (2**40 - 1) == Psl2Elt(1, 2**40 - 1, 0, 1)
    assert Psl2Elt(1, 0, 5, 1) ** (10**12) == Psl2Elt(1, 0, 5 * 10**12, 1)


def test_word_past_the_bit_cap_is_refused_at_once():
    # each power (2, 1; 7, 4) ** 349 525 is just under the cap on its own
    # (349 525 * 3 bits), but two of them, split by a parabolic T^2 that
    # __pow__ would not bound, go past it: refused before any power is
    # taken, where the product took over a second
    g = Psl2Elt(2, 1, 7, 4)
    n = MAX_POWER_BITS // 3
    gens = [(g, 0), (T * T, 0)]
    start = time.perf_counter()
    with pytest.raises(ValueError, match="over MAX_POWER_BITS"):
        evaluate_word(gens, [(0, n), (1, 1)] * 2)
    with pytest.raises(ValueError, match="over MAX_POWER_BITS"):
        evaluate_word(gens, [(0, -n), (1, 1), (0, 1)])
    assert time.perf_counter() - start < 0.1
    # the parabolic syllables add nothing to the count
    assert evaluate_word(gens, [(0, 1), (1, 10**6)]) == g * T ** (2 * 10**6)


def test_torsion_order():
    assert IDENTITY.torsion_order() == 1
    assert S.torsion_order() == 2
    assert U.torsion_order() == 3
    assert T.torsion_order() == 0
    assert (U * S * U.inv()).torsion_order() == 2


def test_cusp_normalization():
    # act_cusp reduces the image pair: lowest terms, q >= 0, oo = (1, 0)
    assert act_cusp(IDENTITY, (2, 4)) == (1, 2)
    assert act_cusp(IDENTITY, (-3, -6)) == (1, 2)
    assert act_cusp(IDENTITY, (5, 0)) == (1, 0)
    assert act_cusp(IDENTITY, (-2, 0)) == (1, 0)
    with pytest.raises(ValueError):
        act_cusp(IDENTITY, (0, 0))


def test_act_cusp_examples():
    assert act_cusp(T, (1, 0)) == (1, 0)
    assert act_cusp(S, (0, 1)) == (1, 0)
    assert act_cusp(U * U, (0, 1)) == (1, 0)


def test_act_cusp_is_action():
    rng = random.Random(7)
    for _ in range(300):
        g = su_evaluate([("U", rng.randint(1, 2)) if rng.random() < 0.5 else ("S", 1)
                         for _ in range(rng.randint(0, 15))])
        h = su_evaluate([("U", rng.randint(1, 2)) if rng.random() < 0.5 else ("S", 1)
                         for _ in range(rng.randint(0, 15))])
        p, q = rng.randint(-20, 20), rng.randint(0, 20)
        x = (p, q) if (p, q) != (0, 0) else (1, 0)
        assert act_cusp(g, act_cusp(h, x)) == act_cusp(g * h, x)


def test_parse_matrix():
    assert parse_matrix("1,1,0,1") == T
    assert parse_matrix(" 0 , -1 , 1 , 0 ") == S
    with pytest.raises(ValueError):
        parse_matrix("1,1,0")
    with pytest.raises(ValueError):
        parse_matrix("1,1,x,1")
    with pytest.raises(ValueError):
        parse_matrix("1,1,1,1")


def runs_product(runs):
    h = T ** runs[0]
    for r in runs[1:]:
        h = h * S * T**r
    return h


def test_t_runs_round_trip():
    rng = random.Random(7)
    for _ in range(200):
        g = su_evaluate([("U", rng.randint(1, 2)) if rng.random() < 0.5 else ("S", 1)
                         for _ in range(rng.randint(0, 30))])
        assert runs_product(t_runs(g)) == g
    assert t_runs(T ** 10**9) == [10**9]
    assert t_runs(S) == [0, 0]


def test_t_runs_count_is_logarithmic():
    # S T^n S = [[-1, 0], [n, -1]]: a descent that rounds d/c down takes one
    # step per unit of n here, rounding to the nearest integer a few
    n = 10**12
    assert len(t_runs(S * T**n * S)) <= 4
    for g in (S * T**n * S * T, T**n * S * T**-n * S * U):
        runs = t_runs(g)
        assert runs_product(runs) == g
        assert len(runs) <= 2 * max(abs(x) for x in g.tuple()).bit_length() + 2
