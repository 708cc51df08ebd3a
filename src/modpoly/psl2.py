"""Exact elements of PSL2(Z) over unbounded integers.

A matrix and its negative are the same group element; we keep the unique
representative with c > 0, or c = 0 and d > 0.  The standard torsion
generators are S (order 2) and U (order 3); T = U^2 * S is the unit shear.
"""

from __future__ import annotations

from math import gcd


# word letters: ("S", 1), ("U", 1) or ("U", 2)
SUWord = list[tuple[str, int]]


class Psl2Elt:
    """Sign-normalized unimodular 2x2 integer matrix [[a, b], [c, d]]."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a: int, b: int, c: int, d: int):
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
        if n < 0:
            return self.inv() ** (-n)
        result = IDENTITY
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

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


class Cusp:
    """Boundary point p/q of the upper half-plane; q = 0 means infinity."""

    __slots__ = ("p", "q")

    def __init__(self, p: int, q: int):
        if p == 0 and q == 0:
            raise ValueError("0/0 is not a cusp")
        g = gcd(p, q)
        p //= g
        q //= g
        if q < 0:
            p, q = -p, -q
        if q == 0:
            p = 1
        self.p = p
        self.q = q

    def is_infinity(self) -> bool:
        return self.q == 0

    def __eq__(self, other) -> bool:
        return isinstance(other, Cusp) and self.p == other.p and self.q == other.q

    def __hash__(self) -> int:
        return hash((self.p, self.q))

    def __repr__(self) -> str:
        return "oo" if self.q == 0 else f"{self.p}/{self.q}"


CUSP_ZERO = Cusp(0, 1)
CUSP_INF = Cusp(1, 0)


def act_cusp(g: Psl2Elt, x: Cusp) -> Cusp:
    """Moebius action on the boundary: (p : q) -> (ap + bq : cp + dq)."""
    return Cusp(g.a * x.p + g.b * x.q, g.c * x.p + g.d * x.q)


def su_reduce(word: SUWord) -> SUWord:
    """Free-product reduction: cancel S*S and merge adjacent powers of U."""
    out: SUWord = []
    for letter in word:
        out.append(letter)
        while len(out) >= 2 and out[-1][0] == out[-2][0]:
            gen, e1 = out[-2]
            _, e2 = out[-1]
            out.pop()
            out.pop()
            if gen == "U":
                e = (e1 + e2) % 3
                if e:
                    out.append(("U", e))
            # S*S vanishes
    return out


def t_runs(g: Psl2Elt) -> list[int]:
    """Exponents [r0, r1, ..., rk] with g = T^r0 * S * T^r1 * S * ... * S * T^rk,
    found by Euclidean descent on the bottom row.  Each quotient is the
    nearest integer to d/c, so |c| at least halves per step and k is at most
    the bit length of c."""
    h = g
    runs: list[int] = []
    while h.c != 0:
        q = (2 * h.d + h.c) // (2 * h.c)
        # h * T^-q * S has bottom row +-(d - q*c, -c), and |d - q*c| <= c/2
        h = Psl2Elt._make(h.b - q * h.a, -h.a, h.d - q * h.c, -h.c)
        runs.append(q)
    # h is now sign-normalized with c = 0, so h = T^m exactly
    runs.append(h.b)
    runs.reverse()
    return runs


def _t_power(k: int) -> SUWord:
    if k > 0:
        return [("U", 2), ("S", 1)] * k
    if k < 0:
        return [("S", 1), ("U", 1)] * (-k)
    return []


def decompose_su(g: Psl2Elt) -> SUWord:
    """Write g as a reduced word in S and U by Euclidean descent on the
    bottom row; evaluating the word left to right reproduces g exactly."""
    runs = t_runs(g)
    word: SUWord = _t_power(runs[0])
    for r in runs[1:]:
        word.append(("S", 1))
        word.extend(_t_power(r))
    return su_reduce(word)
