"""Factorization of the level.

Everything here is plain integer arithmetic; no floating point, no external
number theory packages.  Trial division is deliberate: the moduli this library
meets are desk scale (N up to about 10^7).
"""

from __future__ import annotations

# (prime, exponent) pairs with ascending primes
Factorization = list[tuple[int, int]]


def factorize(n: int) -> Factorization:
    """Factor n >= 1 by trial division, ascending primes."""
    if n < 1:
        raise ValueError(f"cannot factorize {n}")
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
    return out
