"""Right-coset actions of PSL2(Z) on G\\PSL2(Z) as permutation systems.

The pair of permutations decides the subgroup: the coset of any element is
where its S/T word leads from the coset of the identity, one walk for every
subgroup however it was built.

The generic path enumerates cosets from a membership oracle by breadth-first
search, comparing against every known representative (quadratic in the index).
The classical congruence subgroups get dedicated builders whose total cost is
the index times a polylog factor:

* Gamma0(N) / Gamma^0(N) act on the projective line over Z/N; a coset is the
  class of the bottom (resp. top) row of any representative matrix.
* Gamma1(N) / Gamma^1(N) refine those by a diagonal unit class mod +-1.
* Gamma(N) cosets are stored as triples of points of X = (Z/N)^2 / +-1: the
  two matrix columns plus the class of their sum, which pins down the pair of
  column signs so that both generator actions become local triple rewrites.
"""

from __future__ import annotations

from math import gcd

from .modint import (
    Factorization,
    ResidueRow,
    complete_row_to_sl2,
    crt,
    factorize,
    inverse_mod,
)
from .psl2 import IDENTITY, S, U, Psl2Elt, t_runs


class MembershipError(ValueError):
    """A group element fails the membership test of the subgroup at hand."""


FAMILIES = ("gamma0", "gamma_upper0", "gamma1", "gamma_upper1", "gamma")


class CosetSystem:
    """Labelled coset space with the right actions of S and U.

    sigma_s and sigma_u are permutations of range(n) with sigma_s^2 = id and
    sigma_u^3 = id, acting transitively; `distinguished` is the coset of the
    identity.  The orbits of T = U^2 * S are tabulated at construction: for
    each label, `t_cycle` holds its T-orbit in walking order (the list is
    shared by the whole orbit) and `t_pos` its position there, so a run T^q
    moves a label by one table jump.
    """

    def __init__(self, family, level, labels, sigma_s, sigma_u, distinguished):
        self.family = family
        self.level = level
        self.labels = labels
        self.n = len(labels)
        self.sigma_s = sigma_s
        self.sigma_u = sigma_u
        self.distinguished = distinguished
        self.validate()
        self.t_cycle: list[list[int]] = [None] * self.n
        self.t_pos = [0] * self.n
        for start in range(self.n):
            if self.t_cycle[start] is not None:
                continue
            cycle = []
            x = start
            while self.t_cycle[x] is None:
                self.t_cycle[x] = cycle
                self.t_pos[x] = len(cycle)
                cycle.append(x)
                x = sigma_s[sigma_u[sigma_u[x]]]  # right action of T = U^2 * S

    def validate(self):
        n = self.n
        ss, su = self.sigma_s, self.sigma_u
        if sorted(ss) != list(range(n)) or sorted(su) != list(range(n)):
            raise ValueError("sigma_s / sigma_u are not permutations")
        if any(ss[ss[i]] != i for i in range(n)):
            raise ValueError("sigma_s is not an involution")
        if any(su[su[su[i]]] != i for i in range(n)):
            raise ValueError("sigma_u does not have order dividing 3")
        if not 0 <= self.distinguished < n:
            raise ValueError("distinguished label out of range")
        seen = [False] * n
        stack = [self.distinguished]
        seen[self.distinguished] = True
        count = 1
        while stack:
            x = stack.pop()
            for y in (ss[x], su[x]):
                if not seen[y]:
                    seen[y] = True
                    count += 1
                    stack.append(y)
        if count != n:
            raise ValueError("coset action is not transitive")

    def coset(self, g: Psl2Elt) -> int:
        """Label of the coset G*g: walk g = T^r0 * S * T^r1 * ... * S * T^rk
        from the distinguished label, one table jump per run of T."""
        ss, cycle_of, pos = self.sigma_s, self.t_cycle, self.t_pos
        x = self.distinguished
        for k, r in enumerate(t_runs(g)):
            if k:
                x = ss[x]
            cycle = cycle_of[x]
            x = cycle[(pos[x] + r) % len(cycle)]
        return x

    def member(self, g: Psl2Elt) -> bool:
        """Membership test: the walk of g returns to the distinguished label."""
        return self.coset(g) == self.distinguished

    def __repr__(self):
        return f"CosetSystem({self.family}, level={self.level}, n={self.n})"


# ---------------------------------------------------------------------------
# Projective line over Z/N

def p1_normalize_pp(p: int, m: int, a: int, b: int) -> tuple[tuple[int, int], int]:
    """Canonical representative and scaling unit for (a : b) mod p^m."""
    q = p**m
    a %= q
    b %= q
    if a == 0:
        return (0, 1), b % q
    g = gcd(a, q)
    c = a // g
    if g == 1:
        return (1, (b * inverse_mod(c, q)) % q), a
    pmi = q // g
    b2 = (b * inverse_mod(c, q)) % pmi
    u = (b * inverse_mod(b2, q)) % q
    return (g, b2), u


def p1_normalize(N: int, a: int, b: int,
                 factors: Factorization | None = None) -> tuple[tuple[int, int], int]:
    """Canonical representative of (a : b) in P^1(Z/N) plus the unit u with
    u * rep == (a, b) mod N."""
    if N == 1:
        return (0, 0), 0
    a %= N
    b %= N
    if gcd(gcd(a, b), N) != 1:
        raise ValueError(f"({a}, {b}) is not coprime mod {N}")
    if factors is None:
        factors = factorize(N)
    if len(factors) == 1:
        p, m = factors[0]
        return p1_normalize_pp(p, m, a, b)
    reps = []
    units = []
    moduli = []
    for p, m in factors:
        q = p**m
        rep, u = p1_normalize_pp(p, m, a % q, b % q)
        reps.append(rep)
        units.append(u)
        moduli.append(q)
    ra = crt([r[0] for r in reps], moduli)
    rb = crt([r[1] for r in reps], moduli)
    return (ra, rb), crt(units, moduli)


def _p1_list_pp(p: int, m: int) -> list[tuple[int, int]]:
    q = p**m
    out = [(0, 1)]
    out.extend((1, b) for b in range(q))
    for i in range(1, m):
        pi = p**i
        out.extend((pi, b) for b in range(1, q // pi) if b % p != 0)
    return out


def p1_list(N: int) -> list[tuple[int, int]]:
    """All canonical representatives of P^1(Z/N), sorted."""
    if N == 1:
        return [(0, 0)]
    factors = factorize(N)
    lists = [_p1_list_pp(p, m) for p, m in factors]
    moduli = [p**m for p, m in factors]
    combos = [[]]
    for lst in lists:
        combos = [c + [x] for c in combos for x in lst]
    points = []
    for combo in combos:
        a = crt([x[0] for x in combo], moduli)
        b = crt([x[1] for x in combo], moduli)
        points.append((a, b))
    points.sort()
    return points


# ---------------------------------------------------------------------------
# matrices mod N

def _matrix_bottom(row: tuple[int, int], N: int) -> tuple[int, int, int, int]:
    """Determinant-1 matrix mod N with prescribed bottom row."""
    (x, y), (a, b) = complete_row_to_sl2(ResidueRow(N, row[0], row[1]))
    return (x, y, a, b)


def _diag(u: int, N: int) -> tuple[int, int, int, int]:
    return (u % N, 0, 0, inverse_mod(u, N))


def _mat_mul_mod(m1, m2, N):
    a, b, c, d = m1
    e, f, g, h = m2
    return ((a * e + b * g) % N, (a * f + b * h) % N,
            (c * e + d * g) % N, (c * f + d * h) % N)


def unit_classes(N: int) -> list[int]:
    """Canonical unit representatives mod +-1: min(u, N - u)."""
    if N == 1:
        return [0]
    return sorted({min(u, N - u) for u in range(1, N) if gcd(u, N) == 1})


def _canon_unit(u: int, N: int) -> int:
    if N == 1:
        return 0
    u %= N
    return min(u, N - u)


# ---------------------------------------------------------------------------
# X = (Z/N)^2 / +-1 and coset triples for Gamma(N)

def xpoint(u: int, v: int, N: int) -> tuple[int, int]:
    """Canonical representative of (u, v) modulo global sign."""
    u %= N
    v %= N
    w = ((-u) % N, (-v) % N)
    return min((u, v), w)


def gamma_triple(mat: tuple[int, int, int, int], N: int):
    """Triple (columns and column sum, all in X) encoding a Gamma(N)-coset."""
    a, b, c, d = mat
    return (xpoint(a, c, N), xpoint(b, d, N), xpoint(a + b, c + d, N))


def _triple_s(triple, N):
    """Right action of S: swap the columns, re-derive the sum component with
    sign-coherent lifts."""
    x0, x1, x2 = triple
    u0, v0 = x0
    u1, v1 = x1
    plus = xpoint(u0 + u1, v0 + v1, N)
    if plus == x2:
        new2 = xpoint(u0 - u1, v0 - v1, N)
    else:
        new2 = plus
    return (x1, x0, new2)


def _triple_u(triple):
    """Right action of U: cyclic shift."""
    x0, x1, x2 = triple
    return (x1, x2, x0)


# ---------------------------------------------------------------------------
# builders

def _oracle_bfs(member, max_index: int) -> tuple[int, list[int], list[int]]:
    """Enumerate G\\PSL2(Z) from a membership oracle by BFS; returns the
    index and the two permutations, with the identity's coset labelled 0.

    Coset identity is decided by testing member(candidate * rep^-1) against
    the known representatives, so the total cost is quadratic in the index.
    A dictionary of exact elements only short-circuits literal repeats.
    """
    if not member(IDENTITY):
        raise ValueError("oracle rejects the identity")
    reps = [IDENTITY]
    inv_reps = [IDENTITY]
    elt_coset: dict[Psl2Elt, int] = {IDENTITY: 0}
    sigma_s: list[int] = []
    sigma_u: list[int] = []
    i = 0
    while i < len(reps):
        g = reps[i]
        for sigma, letter in ((sigma_s, S), (sigma_u, U)):
            h = g * letter
            j = elt_coset.get(h)
            if j is None:
                j = next((k for k in range(len(reps)) if member(h * inv_reps[k])), None)
                if j is None:
                    j = len(reps)
                    if j >= max_index:
                        raise ValueError(f"index exceeds max_index={max_index}")
                    reps.append(h)
                    inv_reps.append(h.inv())
                elt_coset[h] = j
            sigma.append(j)
        i += 1
    return len(reps), sigma_s, sigma_u


def build_from_oracle(member, max_index: int) -> CosetSystem:
    """Coset system of the subgroup a membership oracle decides.  The oracle
    is only called while the cosets are enumerated; the system answers every
    later question from its permutations."""
    n, sigma_s, sigma_u = _oracle_bfs(member, max_index)
    try:
        return CosetSystem("oracle", None, list(range(n)), sigma_s, sigma_u, 0)
    except ValueError as err:
        raise ValueError(f"membership oracle is inconsistent (merge conflict): {err}") from err


def _row_act(row: tuple[int, int], mat: Psl2Elt, N: int) -> tuple[int, int]:
    # (a' : b') . [a b; c d] = (a'a + b'c : a'b + b'd)
    x, y = row
    return ((x * mat.a + y * mat.c) % N, (x * mat.b + y * mat.d) % N)


def _build_p1_family(N: int, family: str) -> CosetSystem:
    factors = factorize(N)
    labels = p1_list(N)
    index = {lab: i for i, lab in enumerate(labels)}
    sigma_s = [0] * len(labels)
    sigma_u = [0] * len(labels)
    for i, lab in enumerate(labels):
        for sigma, letter in ((sigma_s, S), (sigma_u, U)):
            rep, _ = p1_normalize(N, *_row_act(lab, letter, N), factors=factors)
            sigma[i] = index[rep]
    base = (0, 0) if N == 1 else ((0, 1) if family == "gamma0" else (1, 0))
    return CosetSystem(family, N, labels, sigma_s, sigma_u, index[base])


def build_gamma0(N: int) -> CosetSystem:
    """Coset system of Gamma0(N) on P^1(Z/N); stabilizer of (0 : 1)."""
    return _build_p1_family(N, "gamma0")


def build_gamma_upper0(N: int) -> CosetSystem:
    """Coset system of Gamma^0(N) on P^1(Z/N); stabilizer of (1 : 0)."""
    return _build_p1_family(N, "gamma_upper0")


def _build_unit_family(N: int, family: str) -> CosetSystem:
    """Shared builder for Gamma1(N) and Gamma^1(N): labels are pairs
    (diagonal unit class mod +-1, projective point)."""
    factors = factorize(N)
    points = p1_list(N)
    units = unit_classes(N)
    labels = sorted((u, pt) for u in units for pt in points)
    index = {lab: i for i, lab in enumerate(labels)}
    lower = family == "gamma1"
    sigma_s = [0] * len(labels)
    sigma_u = [0] * len(labels)
    for i, (u, pt) in enumerate(labels):
        for sigma, letter in ((sigma_s, S), (sigma_u, U)):
            rep, u2 = p1_normalize(N, *_row_act(pt, letter, N), factors=factors)
            if N == 1:
                cls = 0
            elif lower:
                cls = _canon_unit(u * inverse_mod(u2, N), N)
            else:
                cls = _canon_unit(u * u2, N)
            sigma[i] = index[(cls, rep)]
    base = (_canon_unit(1, N), (0, 0) if N == 1 else ((0, 1) if lower else (1, 0)))
    return CosetSystem(family, N, labels, sigma_s, sigma_u, index[base])


def build_gamma1(N: int) -> CosetSystem:
    return _build_unit_family(N, "gamma1")


def build_gamma_upper1(N: int) -> CosetSystem:
    return _build_unit_family(N, "gamma_upper1")


def build_gamma(N: int) -> CosetSystem:
    """Coset system of Gamma(N) with triple labels, N >= 3.

    For N <= 2 the triple encoding cannot separate signs, so those levels are
    enumerated by the oracle BFS on the congruence condition (b = c = 0 mod N
    forces a = d = +-1 mod N there).
    """
    if N < 1:
        raise ValueError(f"level must be >= 1, got {N}")
    if N <= 2:
        n, sigma_s, sigma_u = _oracle_bfs(lambda g: g.b % N == 0 and g.c % N == 0,
                                          max_index=10)
        return CosetSystem("gamma", N, list(range(n)), sigma_s, sigma_u, 0)
    mats = []
    points = p1_list(N)
    units = unit_classes(N)
    for pt in points:
        A = _matrix_bottom(pt, N)
        for u in units:
            DA = _mat_mul_mod(_diag(u, N), A, N)
            for t in range(N):
                mats.append(_mat_mul_mod((1, t, 0, 1), DA, N))
    labels = sorted(gamma_triple(m, N) for m in mats)
    index = {lab: i for i, lab in enumerate(labels)}
    if len(index) != len(labels):
        raise ValueError("triple encoding collided; not a bijection")
    sigma_s = [index[_triple_s(lab, N)] for lab in labels]
    sigma_u = [index[_triple_u(lab)] for lab in labels]
    return CosetSystem("gamma", N, labels, sigma_s, sigma_u,
                       index[gamma_triple((1, 0, 0, 1), N)])


def build_system(family: str, N: int) -> CosetSystem:
    """Dispatch on a family descriptor string."""
    builders = {
        "gamma0": build_gamma0,
        "gamma_upper0": build_gamma_upper0,
        "gamma1": build_gamma1,
        "gamma_upper1": build_gamma_upper1,
        "gamma": build_gamma,
    }
    if family not in builders:
        raise ValueError(f"unknown family {family!r}; expected one of {FAMILIES}")
    if N < 1:
        raise ValueError(f"level must be >= 1, got {N}")
    return builders[family](N)
