"""Right-coset actions of PSL2(Z) on G\\PSL2(Z) as permutation systems.

The pair of permutations decides the subgroup: the coset of any element is
where its S/T word leads from the coset of the identity, one walk for every
subgroup however it was built.

The generic path enumerates cosets from a membership oracle by breadth-first
search, comparing against every known representative (quadratic in the index).
The classical congruence subgroups get dedicated builders whose total cost is
the index times a polylog factor, and `build_system` refuses a group whose
index, computed from the factorisation of N, exceeds its max_index:

* Gamma0(N) / Gamma^0(N) act on the projective line over Z/N; a coset is the
  class of the bottom (resp. top) row of any representative matrix.  The
  line is built from tables made once per level: for each prime power q of
  N, its labels, the unit inverses mod q, and the image and scaling unit of
  every label under S and U (sum |P^1(Z/q)| normalisations in all); globally,
  the CRT idempotents lift a combination of local labels with no gcd, one
  sort orders the lifted labels, and the permutations compose the local
  images in mixed radix.  A build costs O(index * number of prime factors)
  list operations plus that sort.
* Gamma1(N) / Gamma^1(N) refine those by a diagonal unit class mod +-1.  The
  P^1 image of a point and its unit are read once per point and letter; each
  class then costs one multiplication mod N and one table lookup.
* Gamma(N) cosets are numbered by triples of points of X = (Z/N)^2 / +-1: the
  two matrix columns plus the class of their sum, which pins down the pair of
  column signs so that both generator actions become local triple rewrites.
  The triples are enumerated by breadth-first search from the identity's
  triple under those two rewrites, then sorted.
"""

from __future__ import annotations

from bisect import bisect_left
from math import gcd

from .modint import Factorization, factorize
from .psl2 import IDENTITY, S, U, Psl2Elt, t_runs


class MembershipError(ValueError):
    """A group element fails the membership test of the subgroup at hand."""


FAMILIES = ("gamma0", "gamma_upper0", "gamma1", "gamma_upper1", "gamma")


class CosetSystem:
    """Coset space of index n with the right actions of S and U.

    sigma_s and sigma_u are permutations of range(n) with sigma_s^2 = id and
    sigma_u^3 = id, acting transitively; `distinguished` is the coset of the
    identity.  The labels a builder sorted to number the cosets are not
    kept: nothing reads them once the permutations exist.  The orbits of
    T = U^2 * S are tabulated at construction: for each label, `t_cycle`
    holds its T-orbit in walking order (the list is shared by the whole
    orbit) and `t_pos` its position there, so a run T^q moves a label by one
    table jump.
    """

    def __init__(self, family, level, n, sigma_s, sigma_u, distinguished):
        self.family = family
        self.level = level
        self.n = n
        self.sigma_s = sigma_s
        self.sigma_u = sigma_u
        self.distinguished = distinguished
        self.validate()
        t_cycle: list[list[int]] = [None] * self.n
        t_pos = [0] * self.n
        for start in range(self.n):
            if t_cycle[start] is not None:
                continue
            cycle = []
            x = start
            while t_cycle[x] is None:
                t_cycle[x] = cycle
                t_pos[x] = len(cycle)
                cycle.append(x)
                x = sigma_s[sigma_u[sigma_u[x]]]  # right action of T = U^2 * S
        self.t_cycle = t_cycle
        self.t_pos = t_pos

    def validate(self):
        n = self.n
        ss, su = self.sigma_s, self.sigma_u
        identity = list(range(n))
        # a map of range(n) into itself whose square (cube) is the identity
        # is a permutation, so the sorted test only runs to pick the message;
        # the compositions, i -> ss[ss[i]] and i -> su[su[su[i]]], as maps
        if not (len(ss) == len(su) == n
                and min(ss, default=0) >= 0 and max(ss, default=0) < n
                and min(su, default=0) >= 0 and max(su, default=0) < n
                and list(map(ss.__getitem__, ss)) == identity
                and list(map(su.__getitem__, map(su.__getitem__, su))) == identity):
            if sorted(ss) != identity or sorted(su) != identity:
                raise ValueError("sigma_s / sigma_u are not permutations")
            if list(map(ss.__getitem__, ss)) != identity:
                raise ValueError("sigma_s is not an involution")
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

    def walk(self, runs: list[int]) -> int:
        """Label reached from the distinguished label by
        T^r0 * S * T^r1 * ... * S * T^rk, one table jump per run (runs is
        not empty, as t_runs gives it)."""
        ss, cycle_of, pos = self.sigma_s, self.t_cycle, self.t_pos
        x = self.distinguished
        for r in runs:
            cycle = cycle_of[x]
            x = ss[cycle[(pos[x] + r) % len(cycle)]]
        # S is an involution: step back over the S taken after the last run
        return ss[x]

    def coset(self, g: Psl2Elt) -> int:
        """Label of the coset G*g: the walk of g's runs of T."""
        return self.walk(t_runs(g))

    def member(self, g: Psl2Elt) -> bool:
        """Membership test: the walk of g returns to the distinguished label."""
        return self.coset(g) == self.distinguished

    def __repr__(self):
        return f"CosetSystem({self.family}, level={self.level}, n={self.n})"


# ---------------------------------------------------------------------------
# Projective line over Z/N, built from per-prime-power tables
#
# P^1(Z/N) is the product of the lines P^1(Z/q) over the prime powers q || N.
# Each local line is tabulated once per level: its labels, the inverses of
# the units mod q, and the image label and scaling unit of every label under
# S and U.  A global label lifts one local label per prime power through the
# CRT idempotents e_i (e_i = 1 mod q_i, 0 mod the other prime powers), and
# the global actions compose the local images in mixed radix.

def _unit_inverses(p: int, m: int) -> list[int]:
    """Inverse mod q = p^m of every residue, 0 at the non-units.  For a prime
    the recurrence inv[i] = -(q // i) * inv[q % i] fills the table in O(q)."""
    q = p**m
    inv = [0] * q
    inv[1] = 1
    if m == 1:
        for i in range(2, q):
            inv[i] = (q - q // i) * inv[q % i] % q
    else:
        for x in range(2, q):
            if x % p:
                inv[x] = pow(x, -1, q)
    return inv


def _p1_list_pp(p: int, m: int) -> list[tuple[int, int]]:
    """Canonical labels of P^1(Z/p^m), sorted: (0, 1), every (1, b), and
    (p^i, b) for 0 < i < m and units b < p^(m-i)."""
    q = p**m
    out = [(0, 1)]
    out.extend((1, b) for b in range(q))
    for i in range(1, m):
        pi = p**i
        out.extend((pi, b) for b in range(1, q // pi) if b % p != 0)
    return out


def _idempotents(N: int, factors: Factorization) -> list[int]:
    """CRT idempotents of the prime powers of N: a residue r_i mod each q_i
    lifts to sum(r_i * e_i) mod N."""
    out = []
    for p, m in factors:
        r = N // p**m
        out.append(r * pow(r, -1, p**m) % N)
    return out


def _p1_line(N: int, letters=(), unit_exponent: int = 0):
    """Sorted keys a * N + b of the labels (a : b) of P^1(Z/N) and, for each
    letter, the permutation of the labels it induces with the scaling unit
    of each image (raised to `unit_exponent`; not computed when that is 0).

    Works per prime power and in mixed radix: combination c of local labels
    lifts to one global pair, and its image under a letter is the
    combination of the local images.  Sorting the lifted pairs once maps
    combinations to label positions.

    The local image of (x : y) under [[a, b], [c, d]] is the row
    (x' : y') = (xa + yc : xb + yd) mod q = p^m.  Its canonical label and
    the unit u with u * label = (x', y') are (0, 1) and y' for x' = 0,
    (1, y'/x') and x' for a unit x', and otherwise (g, y'/(x'/g) mod q/g)
    and y'/b for g = gcd(x', q) and b that second entry.  The label's
    position in `_p1_list_pp` follows from g and b, so one loop body per
    label and letter gives the image position and the unit.
    """
    factors = factorize(N)
    lift_a, lift_b = [0], [0]
    images = [[0] for _ in letters]
    units = [[0] for _ in letters]
    for (p, m), e in zip(factors, _idempotents(N, factors)):
        q = p**m
        local = _p1_list_pp(p, m)
        n = len(local)
        lift_a = [A + x * e for A in lift_a for x, _ in local]
        lift_b = [B + y * e for B in lift_b for _, y in local]
        inv = _unit_inverses(p, m)
        # position of (g, b), 1 < g < q, is base - q // g + (b - 1) - (b - 1) // p
        base = 1 + q + q // p
        for k, letter in enumerate(letters):
            la, lb, lc, ld = letter.a, letter.b, letter.c, letter.d
            image, scale = [], []
            for x, y in local:
                x, y = (x * la + y * lc) % q, (x * lb + y * ld) % q
                if x == 0:
                    image.append(0)
                    u = y
                elif x % p:
                    image.append(1 + y * inv[x] % q)
                    u = x
                else:
                    g = gcd(x, q)
                    b = y * inv[x // g] % (q // g)
                    image.append(base - q // g + (b - 1) - (b - 1) // p)
                    u = y * inv[b] % q
                if unit_exponent:
                    scale.append((u if unit_exponent > 0 else inv[u]) * e)
            images[k] = [c * n + i for c in images[k] for i in image]
            if unit_exponent:
                units[k] = [U + v for U in units[k] for v in scale]
    keys = [(A % N) * N + B % N for A, B in zip(lift_a, lift_b)]
    del lift_a, lift_b  # index-sized: free them before the sorted tables exist
    order = sorted(range(len(keys)), key=keys.__getitem__)
    pos = [0] * len(order)
    for k, c in enumerate(order):
        pos[c] = k
    actions = [([pos[image[c]] for c in order],
                [unit[c] % N for c in order] if unit_exponent else None)
               for image, unit in zip(images, units)]
    return list(map(keys.__getitem__, order)), actions


def unit_classes(N: int) -> list[int]:
    """Canonical unit representatives mod +-1: min(u, N - u)."""
    if N == 1:
        return [0]
    return sorted({min(u, N - u) for u in range(1, N) if gcd(u, N) == 1})


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
        return CosetSystem("oracle", None, n, sigma_s, sigma_u, 0)
    except ValueError as err:
        raise ValueError(f"membership oracle is inconsistent (merge conflict): {err}") from err


def _build_p1_family(N: int, family: str) -> CosetSystem:
    keys, ((sigma_s, _), (sigma_u, _)) = _p1_line(N, (S, U))
    # the key of (0 : 1) or (1 : 0); P^1(Z/1) is the one label (0, 0)
    base = 0 if N == 1 else (1 if family == "gamma0" else N)
    return CosetSystem(family, N, len(keys), sigma_s, sigma_u, bisect_left(keys, base))


def build_gamma0(N: int) -> CosetSystem:
    """Coset system of Gamma0(N) on P^1(Z/N); stabilizer of (0 : 1)."""
    return _build_p1_family(N, "gamma0")


def build_gamma_upper0(N: int) -> CosetSystem:
    """Coset system of Gamma^0(N) on P^1(Z/N); stabilizer of (1 : 0)."""
    return _build_p1_family(N, "gamma_upper0")


def _build_unit_family(N: int, family: str) -> CosetSystem:
    """Shared builder for Gamma1(N) and Gamma^1(N): labels are pairs
    (diagonal unit class mod +-1, projective point), sorted, so the label
    (units[k], points[i]) sits at k * len(points) + i.

    A letter maps (u, pt) to (u * w, pt'), where pt' and the unit w depend
    on pt alone: w is the scaling unit of pt' for Gamma^1, its inverse for
    Gamma1.  Both come from the P^1 tables once per point.
    """
    lower = family == "gamma1"
    points, actions = _p1_line(N, (S, U), unit_exponent=-1 if lower else 1)
    units = unit_classes(N)
    npts = len(points)
    class_of = [0] * N
    for k, c in enumerate(units):
        class_of[c] = class_of[-c % N] = k
    sigma_s, sigma_u = [[class_of[u * w % N] * npts + i
                         for u in units for i, w in zip(image, scale)]
                        for image, scale in actions]
    # the key of (0 : 1) or (1 : 0), as in _build_p1_family
    base = 0 if N == 1 else (1 if lower else N)
    return CosetSystem(family, N, len(sigma_s), sigma_s, sigma_u,
                       class_of[1 % N] * npts + bisect_left(points, base))


def build_gamma1(N: int) -> CosetSystem:
    return _build_unit_family(N, "gamma1")


def build_gamma_upper1(N: int) -> CosetSystem:
    return _build_unit_family(N, "gamma_upper1")


def build_gamma(N: int) -> CosetSystem:
    """Coset system of Gamma(N) with sorted triple labels, N >= 3, found by
    BFS over the triples from the identity's.

    For N <= 2 the triple encoding cannot separate signs, so those levels are
    enumerated by the oracle BFS on the congruence condition (b = c = 0 mod N
    forces a = d = +-1 mod N there).
    """
    if N < 1:
        raise ValueError(f"level must be >= 1, got {N}")
    if N <= 2:
        n, sigma_s, sigma_u = _oracle_bfs(lambda g: g.b % N == 0 and g.c % N == 0,
                                          max_index=10)
        return CosetSystem("gamma", N, n, sigma_s, sigma_u, 0)
    start = gamma_triple((1, 0, 0, 1), N)
    seen = {start}
    queue = [start]
    for lab in queue:
        for image in (_triple_s(lab, N), _triple_u(lab)):
            if image not in seen:
                seen.add(image)
                queue.append(image)
    if len(queue) != coset_index("gamma", N):
        raise ValueError("internal error: the triple orbit is not the coset space")
    labels = sorted(queue)
    index = {lab: i for i, lab in enumerate(labels)}
    sigma_s = [index[_triple_s(lab, N)] for lab in labels]
    sigma_u = [index[_triple_u(lab)] for lab in labels]
    distinguished = index[start]
    del labels, index  # the triples are not kept once the permutations exist
    return CosetSystem("gamma", N, len(sigma_s), sigma_s, sigma_u, distinguished)


def coset_index(family: str, N: int) -> int:
    """Index in PSL2(Z) of the family's group at level N, from the
    factorisation of N alone: N * prod(1 + 1/p) for Gamma0 and Gamma^0, times
    |(Z/N)^x / +-1| for Gamma1 and Gamma^1, and N^3 * prod(1 - 1/p^2) / 2 for
    Gamma(N), N >= 3."""
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; expected one of {FAMILIES}")
    if N < 1:
        raise ValueError(f"level must be >= 1, got {N}")
    primes = [p for p, _ in factorize(N)]
    if family == "gamma":
        index = N**3
        for p in primes:
            index = index // (p * p) * (p * p - 1)
        return index if N <= 2 else index // 2
    index = N
    for p in primes:
        index = index // p * (p + 1)
    if family in ("gamma1", "gamma_upper1") and N > 2:
        phi = N
        for p in primes:
            phi = phi // p * (p - 1)
        index *= phi // 2
    return index


# the largest index build_system admits by default: 2.5 times the largest
# index the tests and the benchmark build (100 004, for Gamma0(100003)), and
# about 0.8 GB for the whole polygon pipeline
MAX_INDEX = 250_000


def build_system(family: str, N: int, max_index: int = MAX_INDEX) -> CosetSystem:
    """Dispatch on a family descriptor string.  A group whose index exceeds
    max_index is refused with ValueError before anything is allocated."""
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
    if N > max_index:  # every index is at least the level: no need to factorise
        raise ValueError(f"{family}({N}): the level exceeds max_index={max_index}")
    index = coset_index(family, N)
    if index > max_index:
        raise ValueError(f"{family}({N}) has index {index}, above max_index={max_index}")
    return builders[family](N)
