"""Exact elements of PSL2(Z) over unbounded integers.

A matrix and its negative are the same group element; we keep the unique
representative with c > 0, or c = 0 and d > 0.  The standard torsion
generators are S (order 2) and U (order 3); T = U^2 * S is the unit shear.
"""

from __future__ import annotations

from math import gcd

# the largest power of a hyperbolic element, |n| * bit_length(|trace|),
# that __pow__ computes: its entries grow by about bit_length(|trace|) bits
# per factor, so the cap bounds them near 2^20 bits (128 KiB) each
MAX_POWER_BITS = 1 << 20


class WorkBoundError(ValueError):
    """A computation refused before it starts, because its work or the
    size of its result would pass a fixed bound."""


class Psl2Elt:
    """Sign-normalized unimodular 2x2 integer matrix [[a, b], [c, d]].
    The constructor refuses an entry that is not an int (a float, a bool, a
    Fraction) and a determinant other than 1."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a: int, b: int, c: int, d: int):
        for v in (a, b, c, d):
            if isinstance(v, bool) or not isinstance(v, int):
                raise ValueError(f"matrix entry {v!r} is not an int")
        if a * d - b * c != 1:
            raise ValueError(f"determinant of ({a},{b},{c},{d}) is not 1")
        if c < 0 or (c == 0 and d < 0):
            a, b, c, d = -a, -b, -c, -d
        self.a = a
        self.b = b
        self.c = c
        self.d = d

    @classmethod
    def _make(cls, a: int, b: int, c: int, d: int) -> "Psl2Elt":
        # internal fast path: inputs are known unimodular
        self = object.__new__(cls)
        if c < 0 or (c == 0 and d < 0):
            a, b, c, d = -a, -b, -c, -d
        self.a = a
        self.b = b
        self.c = c
        self.d = d
        return self

    def __mul__(self, other: "Psl2Elt") -> "Psl2Elt":
        a, b, c, d = self.a, self.b, self.c, self.d
        e, f, g, h = other.a, other.b, other.c, other.d
        return Psl2Elt._make(a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)

    def inv(self) -> "Psl2Elt":
        return Psl2Elt._make(self.d, -self.b, -self.c, self.a)

    def __pow__(self, n: int) -> "Psl2Elt":
        """Square and multiply on four int locals, from the low bit, with no
        squaring past the top bit, and one Psl2Elt at the end: g ** 1 is g,
        g ** 0 is IDENTITY, and any other power makes one matrix object.  |n|
        takes at most bit_length(|n|) - 1 squarings (five products each, of
        [[a^2 + bc, b(a + d)], [c(a + d), d^2 + bc]]) and as many products.
        Past |n| = 2, an elliptic exponent is first reduced mod the
        element's order, and a hyperbolic power with |n| *
        bit_length(|trace|) > MAX_POWER_BITS is refused with WorkBoundError
        before any product; parabolic powers, whose entries grow only like
        |n|, are not bounded."""
        if n == 1:
            return self
        a, b, c, d = self.a, self.b, self.c, self.d
        if n < 0:
            a, b, c, d, n = d, -b, -c, a, -n
        if n > 2:
            t = abs(a + d)
            if t < 2:
                # order 2 at trace 0, order 3 at trace +-1
                n %= t + 2
            elif t > 2 and n * t.bit_length() > MAX_POWER_BITS:
                raise WorkBoundError(f"power of {self} with |n| = {n} would have entries "
                                     f"of about {n * t.bit_length()} bits, over "
                                     f"MAX_POWER_BITS = {MAX_POWER_BITS}")
        if not n:
            return IDENTITY
        # square up to the lowest set bit of n, where the result starts
        while not n & 1:
            a, b, c, d = a * a + b * c, b * (a + d), c * (a + d), d * d + b * c
            n >>= 1
        e, f, g, h = a, b, c, d
        n >>= 1
        while n:
            a, b, c, d = a * a + b * c, b * (a + d), c * (a + d), d * d + b * c
            if n & 1:
                e, f, g, h = e * a + f * c, e * b + f * d, g * a + h * c, g * b + h * d
            n >>= 1
        return Psl2Elt._make(e, f, g, h)

    def tuple(self) -> tuple[int, int, int, int]:
        return (self.a, self.b, self.c, self.d)

    def trace(self) -> int:
        return self.a + self.d

    def is_identity(self) -> bool:
        return self.a == 1 and self.b == 0 and self.c == 0 and self.d == 1

    def torsion_order(self) -> int:
        """Order in PSL2(Z): 1, 2, 3, or 0 for infinite."""
        if self.is_identity():
            return 1
        t = abs(self.trace())
        if t == 0:
            return 2
        if t == 1:
            return 3
        return 0

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Psl2Elt)
            and self.a == other.a
            and self.b == other.b
            and self.c == other.c
            and self.d == other.d
        )

    def __hash__(self) -> int:
        return hash((self.a, self.b, self.c, self.d))

    def __repr__(self) -> str:
        return f"[{self.a},{self.b};{self.c},{self.d}]"


IDENTITY = Psl2Elt(1, 0, 0, 1)
S = Psl2Elt(0, -1, 1, 0)
U = Psl2Elt(0, 1, -1, 1)
T = Psl2Elt(1, 1, 0, 1)


def parse_matrix(text: str) -> Psl2Elt:
    """Parse the CLI matrix format "a,b,c,d"."""
    parts = text.split(",")
    if len(parts) != 4:
        raise ValueError(f"expected 4 comma-separated integers, got {text!r}")
    try:
        a, b, c, d = (int(p.strip()) for p in parts)
    except ValueError:
        raise ValueError(f"expected 4 comma-separated integers, got {text!r}") from None
    return Psl2Elt(a, b, c, d)


def act_cusp(g: Psl2Elt, x: tuple[int, int]) -> tuple[int, int]:
    """Moebius action on the boundary: (p : q) -> (ap + bq : cp + dq), the
    image reduced to lowest terms with q >= 0 and infinity written (1, 0).
    The pair (0, 0) is not a cusp and is refused with ValueError."""
    p, q = x
    if p == 0 and q == 0:
        raise ValueError("0/0 is not a cusp")
    p, q = g.a * p + g.b * q, g.c * p + g.d * q
    if q == 0:
        return 1, 0
    k = gcd(p, q)
    if q < 0:
        k = -k
    return p // k, q // k


def t_runs(g: Psl2Elt) -> list[int]:
    """Exponents [r0, r1, ..., rk] with g = T^r0 * S * T^r1 * S * ... * S * T^rk,
    found by Euclidean descent on the bottom row.  Each quotient is the
    nearest integer to d/c, ties rounded up, so |c| at least halves per step
    and k is at most the bit length of c.  A step is one divmod(d, c) on the
    four int entries, with no matrix object: d = q*c + r, 0 <= r < c, and q
    rounds up when 2r >= c, which is (2d + c) // (2c) exactly."""
    a, b, c, d = g.a, g.b, g.c, g.d
    runs: list[int] = []
    while c:
        # [[a, b], [c, d]] * T^-q * S = [[b - q*a, -a], [d - q*c, -c]],
        # sign-normalised so that its c = |d - q*c| <= c/2 is positive, or
        # 0 with d = c > 0
        q, r = divmod(d, c)
        if r + r >= c:
            q += 1
            a, b = q * a - b, a
            c, d = c - r, c
        elif r:
            a, b = b - q * a, -a
            c, d = r, -c
        else:
            # c divides d, so c = 1, and the step leaves [[1, a], [0, 1]]
            a, b = q * a - b, a
            c, d = 0, c
        runs.append(q)
    # the matrix is now sign-normalized with c = 0, so it is T^b exactly
    runs.append(b)
    runs.reverse()
    return runs
