"""Exact modular arithmetic: extended gcd, factorization, CRT, row completion.

Everything here is plain integer arithmetic; no floating point, no external
number theory packages.  Trial division is deliberate: the moduli this library
meets are desk scale (N up to about 10^7).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd

# (prime, exponent) pairs with ascending primes
Factorization = list[tuple[int, int]]


@dataclass(frozen=True)
class ResidueRow:
    """A coprime pair (a, b) modulo n, residues normalized to [0, n)."""

    n: int
    a: int
    b: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"modulus must be >= 1, got {self.n}")
        object.__setattr__(self, "a", self.a % self.n)
        object.__setattr__(self, "b", self.b % self.n)
        if gcd(gcd(self.a, self.b), self.n) != 1:
            raise ValueError(f"row ({self.a}, {self.b}) not coprime mod {self.n}")


def egcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, x, y) with g = gcd(a, b) >= 0 and a*x + b*y = g."""
    if a == 0 and b == 0:
        raise ValueError("egcd(0, 0) is undefined")
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def inverse_mod(a: int, n: int) -> int:
    """Inverse of a modulo n; raises if gcd(a, n) != 1."""
    if n == 1:
        return 0
    g, x, _ = egcd(a % n, n)
    if g != 1:
        raise ValueError(f"{a} is not invertible mod {n}")
    return x % n


@lru_cache(maxsize=4096)
def _factorize_cached(n: int) -> tuple[tuple[int, int], ...]:
    out = []
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            out.append((p, e))
        p += 1 if p == 2 else 2
    if m > 1:
        out.append((m, 1))
    return tuple(out)


def factorize(n: int) -> Factorization:
    """Factor n >= 1 by trial division, ascending primes."""
    if n < 1:
        raise ValueError(f"cannot factorize {n}")
    return list(_factorize_cached(n))


def crt(residues: list[int], moduli: list[int]) -> int:
    """Chinese remainder lift for pairwise coprime moduli."""
    x, n = 0, 1
    for r, m in zip(residues, moduli):
        if m == 1:
            continue
        g, inv_n, _ = egcd(n % m, m)
        if g != 1:
            raise ValueError(f"moduli not coprime: gcd so far with {m} is {g}")
        x += n * (((r - x) * inv_n) % m)
        n *= m
    return x % n if n > 1 else 0


def coprime_lift(a: int, b: int, n: int) -> tuple[int, int]:
    """Lift (a, b) with gcd(a, b, n) = 1 to integers (a', b') that are coprime,
    with a' == a and b' == b mod n.  The first coordinate keeps its canonical
    lift (or n when a == 0); the second is shifted by the smallest multiple
    of n that works.
    """
    a %= n
    b %= n
    if gcd(gcd(a, b), n) != 1:
        raise ValueError(f"row ({a}, {b}) not coprime mod {n}")
    if n == 1:
        return 1, 0
    # a stays at its canonical lift unless it is 0 and the pair needs help
    aa = a if (a != 0 or b == 1) else n
    bb = b
    # primes dividing aa but not n exclude one residue class of k each, so a
    # valid k below is guaranteed to exist; in practice it is tiny.
    for _ in range(10000):
        if gcd(aa, bb) == 1:
            return aa, bb
        bb += n
    raise ValueError(f"no coprime lift found for ({a}, {b}) mod {n}")


def complete_row_to_sl2(row: ResidueRow) -> tuple[tuple[int, int], tuple[int, int]]:
    """Complete a coprime row to a matrix ((x, y), (a, b)) of determinant 1
    mod n whose bottom row is (a, b).  Deterministic for a fixed input."""
    n, a, b = row.n, row.a, row.b
    if n == 1:
        return (0, 0), (0, 0)
    aa, bb = coprime_lift(a, b, n)
    _, s, t = egcd(aa, bb)  # aa*s + bb*t = 1
    x, y = t % n, (-s) % n
    assert (x * b - y * a) % n == 1 % n
    return (x, y), (a, b)
