import random

import pytest

from modpoly.modint import (
    ResidueRow,
    complete_row_to_sl2,
    coprime_lift,
    egcd,
    factorize,
    inverse_mod,
)


def test_egcd_examples():
    g, x, y = egcd(240, 46)
    assert g == 2 and 240 * x + 46 * y == 2
    assert egcd(1, 0) == (1, 1, 0)
    g, x, y = egcd(7, 11)
    assert g == 1 and 7 * x + 11 * y == 1


def test_egcd_rejects_zero_pair():
    with pytest.raises(ValueError):
        egcd(0, 0)


def test_egcd_bezout_random():
    rng = random.Random(1)
    for _ in range(10000):
        a = rng.randint(-(2**64), 2**64)
        b = rng.randint(-(2**64), 2**64)
        if a == 0 and b == 0:
            continue
        g, x, y = egcd(a, b)
        assert g >= 0
        assert a * x + b * y == g
        assert a % g == 0 and b % g == 0


def test_factorize_examples():
    assert factorize(12) == [(2, 2), (3, 1)]
    assert factorize(1) == []
    assert factorize(10007) == [(10007, 1)]  # prime by trial division
    with pytest.raises(ValueError):
        factorize(0)


def test_factorize_reconstructs():
    for n in range(1, 600):
        prod = 1
        primes = []
        for p, m in factorize(n):
            prod *= p**m
            primes.append(p)
        assert prod == n
        assert primes == sorted(set(primes))


def test_complete_row_examples():
    top, bottom = complete_row_to_sl2(ResidueRow(7, 2, 5))
    assert top == (1, 2) and bottom == (2, 5)  # det = 5 - 4 = 1
    top, bottom = complete_row_to_sl2(ResidueRow(5, 0, 1))
    assert top == (1, 0) and bottom == (0, 1)
    top, bottom = complete_row_to_sl2(ResidueRow(4, 2, 1))
    assert bottom == (2, 1)
    assert (top[0] * 1 - top[1] * 2) % 4 == 1


def test_complete_row_determinant_random():
    from math import gcd
    rng = random.Random(3)
    for _ in range(500):
        n = rng.randint(2, 500)
        a, b = rng.randrange(n), rng.randrange(n)
        if gcd(gcd(a, b), n) != 1:
            continue
        (x, y), (aa, bb) = complete_row_to_sl2(ResidueRow(n, a, b))
        assert (aa, bb) == (a, b)
        assert (x * b - y * a) % n == 1 % n
        # determinism
        assert complete_row_to_sl2(ResidueRow(n, a, b)) == ((x, y), (a, b))


def test_complete_row_check_survives_optimisation(monkeypatch):
    # the determinant check is a raised error, not an assert that python -O
    # strips: feed it wrong Bezout coefficients
    import modpoly.modint as modint
    monkeypatch.setattr(modint, "egcd", lambda a, b: (1, 0, 0))
    with pytest.raises(ValueError, match="internal error"):
        complete_row_to_sl2(ResidueRow(7, 2, 5))


def test_coprime_lift():
    from math import gcd
    rng = random.Random(4)
    for _ in range(500):
        n = rng.randint(2, 300)
        a, b = rng.randrange(n), rng.randrange(n)
        if gcd(gcd(a, b), n) != 1:
            continue
        aa, bb = coprime_lift(a, b, n)
        assert gcd(aa, bb) == 1
        assert aa % n == a and bb % n == b


def test_inverse_mod():
    assert inverse_mod(3, 7) == 5
    assert inverse_mod(1, 1) == 0
    with pytest.raises(ValueError):
        inverse_mod(2, 4)


def test_residue_row_validation():
    with pytest.raises(ValueError):
        ResidueRow(4, 2, 2)
    with pytest.raises(ValueError):
        ResidueRow(0, 1, 1)
    row = ResidueRow(5, -1, 7)
    assert (row.a, row.b) == (4, 2)
