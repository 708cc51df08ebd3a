import pytest

from modpoly.modint import factorize


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
