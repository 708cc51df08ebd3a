"""Independent closed-form oracles used by the test suite only.

These are the textbook index / elliptic / cusp / genus formulas, implemented
here from scratch so that the graph-derived invariants are checked against a
completely separate computation.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import gcd, lcm

from modpoly.cosets import _p1_line, build_system, unit_classes
from modpoly.polygon import build_polygon, develop
from modpoly.psl2 import IDENTITY, S, T, U, Psl2Elt, WorkBoundError, t_runs
from modpoly.reduce import (
    MAX_WALK_STEPS,
    _reduce_to_base_triangle,
    act_point,
    express_schreier,
    lift,
    reduce_word,
)


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


def _su_reduce(word):
    """Free-product reduction: cancel S*S and merge adjacent powers of U.
    The output stays reduced after every letter, so a new letter only ever
    meets the last one."""
    out = []
    for gen, e in word:
        if out and out[-1][0] == gen:
            e += out.pop()[1]
            if gen == "U" and e % 3:
                out.append(("U", e % 3))
            # S*S vanishes
        else:
            out.append((gen, e))
    return out


def _t_power(k):
    if k > 0:
        return [("U", 2), ("S", 1)] * k
    if k < 0:
        return [("S", 1), ("U", 1)] * (-k)
    return []


def reference_su_word(runs):
    """The reduced S/U word, ("S", 1), ("U", 1) and ("U", 2) letters, of
    T^r0 * S * T^r1 * S * ... * S * T^rk, with T = U^2 * S: the normal form
    of the free product Z/2 * Z/3."""
    word = _t_power(runs[0])
    for r in runs[1:]:
        word.append(("S", 1))
        word.extend(_t_power(r))
    return _su_reduce(word)


def reference_locate(poly, z):
    """locate by two walks: the coset e of h by CosetSystem.coset, then
    Schreier rewriting of gamma = h * dev[e]^-1, for z = h * w0 with w0 in
    the base triangle.  Only the reduction is shared with locate_point: z
    is lifted by reference_lift and w = gamma^-1 * z is found by act_point,
    on Fractions and Psl2Elt objects."""
    _, h, _ = _reduce_to_base_triangle(reference_lift(z.x, z.y**2))
    h = Psl2Elt(*h)
    g = Psl2Elt(*poly.dev[poly.system.coset(h)])
    gamma = h * g.inv()
    return act_point(gamma.inv(), z), express_schreier(poly, gamma)


def reference_rewrite(poly, runs):
    """(label, word) for T^r0 * S * T^r1 * ... * S * T^rk, walked from the
    distinguished label through the coset permutations one letter at a
    time, with T = U^2 * S and T^-1 = S * U.  A step emits the s_gen /
    u_gen syllable of the label it leaves, if any; the other steps follow
    the Schreier transversal dev, so the word is that of the element times
    dev[label]^-1.  Sum |r| > MAX_WALK_STEPS is refused with WorkBoundError.
    This is the letter walk that reduce._rewrite shortens by whole turns of
    a T-cycle."""
    steps = sum(map(abs, runs))
    if steps > MAX_WALK_STEPS:
        raise WorkBoundError(f"rewriting would walk {steps} powers of T, over "
                             f"MAX_WALK_STEPS = {MAX_WALK_STEPS}")
    ss, su = poly.system.sigma_s, poly.system.sigma_u
    s_gen, u_gen = poly.s_gen, poly.u_gen
    word = []
    emit = word.append
    x = poly.system.distinguished
    for k, r in enumerate(runs):
        if k:
            if s_gen[x] is not None:
                emit(s_gen[x])
            x = ss[x]
        for _ in range(r):
            # T = U * U * S
            if u_gen[x] is not None:
                emit(u_gen[x])
            x = su[x]
            if u_gen[x] is not None:
                emit(u_gen[x])
            x = su[x]
            if s_gen[x] is not None:
                emit(s_gen[x])
            x = ss[x]
        for _ in range(-r):
            # T^-1 = S * U
            if s_gen[x] is not None:
                emit(s_gen[x])
            x = ss[x]
            if u_gen[x] is not None:
                emit(u_gen[x])
            x = su[x]
    return x, reduce_word(word, poly.generators)


def turn_runs(poly, x, k):
    """Runs of T of dev[x] * T^(k w) * dev[x]^-1, w the length of the
    T-cycle of label x: k turns round the cusp of that cycle, a member of
    the subgroup."""
    g = Psl2Elt._make(*poly.dev[x])
    return t_runs(g * T ** (k * len(poly.system.t_cycle[x])) * g.inv())


def half_turn(vertex, point):
    """The point triple opposite point across the elliptic vertex (n, m, k):
    the image under the half-turn about the vertex, z -> (mz - n)/(kz - m),
    which lies on the geodesic from point through the vertex, as far beyond.
    The map has determinant nk - m^2 > 0, so it acts on triples by the
    symmetric square like any element of PSL2(Z)."""
    vn, vm, vk = vertex
    n, m, k = point
    out = (vm * vm * n - 2 * vm * vn * m + vn * vn * k,
           vm * vk * n - (vm * vm + vn * vk) * m + vn * vm * k,
           vk * vk * n - 2 * vk * vm * m + vm * vm * k)
    g = gcd(*out)
    return tuple(x // g for x in out)


def reference_t_runs(g):
    """The runs of T of g by the same Euclidean descent as psl2.t_runs, with
    one sign-normalised matrix object per step."""
    h = g
    runs = []
    while h.c != 0:
        q = (2 * h.d + h.c) // (2 * h.c)
        # h * T^-q * S has bottom row +-(d - q*c, -c), and |d - q*c| <= c/2
        h = Psl2Elt._make(h.b - q * h.a, -h.a, h.d - q * h.c, -h.c)
        runs.append(q)
    runs.append(h.b)
    runs.reverse()
    return runs


def lift_rational(x, y2):
    """modpoly's lift of the point x + iy given by the rationals (x, y^2)."""
    return lift(x.numerator, x.denominator, y2.numerator, y2.denominator)


def reference_lift(x, y2):
    """The point triple of x + iy, given as (x, y^2), by Fraction
    arithmetic: x^2 + y^2 and x brought to their common denominator k."""
    s = x * x + y2
    k = lcm(s.denominator, x.denominator)
    return s.numerator * (k // s.denominator), x.numerator * (k // x.denominator), k


def reference_power(g, n):
    """g ** n as the plain product of |n| copies of g, or of g.inv() for
    n < 0."""
    result = IDENTITY
    for _ in range(abs(n)):
        result = result * (g if n > 0 else g.inv())
    return result


def reference_evaluate(generators, word):
    """The left-to-right product of Psl2Elt objects, one per syllable, of
    the plain powers reference_power."""
    result = IDENTITY
    for idx, exp in word:
        result = result * reference_power(generators[idx][0], exp)
    return result


def reference_orbits(perm):
    """The cycles of a permutation, each one a tuple that starts at its
    smallest point and follows perm, listed in increasing order of that
    point: the vertex orbits of the cuboid graph for sigma_s (type 0) and
    sigma_u (type 1).  Each cycle is walked until it closes, and kept only
    when walked from its smallest point."""
    orbits = []
    for e in range(len(perm)):
        cycle = [e]
        while perm[cycle[-1]] != e:
            cycle.append(perm[cycle[-1]])
        if min(cycle) == e:
            orbits.append(tuple(cycle))
    return orbits


def reference_cuts(system):
    """Cut set of the cuboid graph: a BFS on the contracted graph whose
    vertices are the type-(1) vertices and whose edges are the bivalent
    type-(0) vertices, every bivalent vertex off the BFS forest cut.  A
    type-(1) vertex tries its bivalent vertices in increasing order of
    their smallest edge, each one the S-orbit of an edge x of the vertex
    that sigma_s moves, leading to the vertex of sigma_s(x).  Returns the
    cut type-(0) vertices as their orbits (x, sigma_s(x)), x the smaller."""
    ss = system.sigma_s
    v1 = reference_orbits(system.sigma_u)
    edge_v1 = {x: y for y, orbit in enumerate(v1) for x in orbit}
    root_y = edge_v1[system.distinguished]
    seen = [False] * len(v1)
    seen[root_y] = True
    tree_v0 = set()
    queue = [root_y]
    for y in queue:
        for v0, z in sorted((tuple(sorted((x, ss[x]))), edge_v1[ss[x]])
                            for x in v1[y] if ss[x] != x):
            if not seen[z]:
                seen[z] = True
                tree_v0.add(v0)
                queue.append(z)
    return frozenset(orbit for orbit in reference_orbits(ss)
                     if len(orbit) == 2 and orbit not in tree_v0)


def reference_develop(system):
    """(crossed, dev) of develop, through the cuboid graph: the cut set of
    reference_cuts, then a breadth-first traversal of the edges that never
    crosses a cut, each child getting its parent's matrix times S, U or U^2
    as a Psl2Elt product.  crossed flags the edges of the uncut bivalent
    vertices; dev is returned as (a, b, c, d) tuples, the form develop
    stores."""
    cuts = reference_cuts(system)
    ss, su, n = system.sigma_s, system.sigma_u, system.n
    crossed = bytearray(ss[e] != e and tuple(sorted((e, ss[e]))) not in cuts for e in range(n))
    dev = [None] * n
    dev[system.distinguished] = IDENTITY
    order = [system.distinguished]
    for e in order:
        for f, move in ((su[e], U), (su[su[e]], U * U), (ss[e], S)):
            if dev[f] is None and (move is not S or crossed[e]):
                dev[f] = dev[e] * move
                order.append(f)
    assert len(order) == n, "the uncut graph is not connected"
    return crossed, [g.tuple() for g in dev]


def random_unimodular(a, c, t):
    """The element [[a, b], [c, d]] of PSL2(Z) with b, d from the extended
    Euclidean algorithm on the coprime pair (a, c), shifted by t times the
    first column; None when a and c are not coprime."""
    if gcd(a, c) != 1:
        return None
    # x0 * a + y0 * c = old_r, kept through the descent
    old_r, r, x0, x1, y0, y1 = a, c, 1, 0, 0, 1
    while r:
        k = old_r // r
        old_r, r = r, old_r - k * r
        x0, x1 = x1, x0 - k * x1
        y0, y1 = y1, y0 - k * y1
    if old_r < 0:
        x0, y0 = -x0, -y0
    # a * x0 + c * y0 = 1, so a * d - b * c = 1 for d = x0, b = -y0
    return Psl2Elt(a, -y0 + t * a, c, x0 + t * c)


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


# ---------------------------------------------------------------------------
# reference P^1 coset systems: one CRT normalisation per label and letter,
# written without the library's tables

def prime_powers(N):
    """(p, q) for each prime power q = p^m exactly dividing N."""
    out = []
    for p in prime_factors(N):
        q = p
        while N % (q * p) == 0:
            q *= p
        out.append((p, q))
    return out


def reference_crt(residues, moduli):
    """Chinese remainder lift for pairwise coprime moduli."""
    x, n = 0, 1
    for r, m in zip(residues, moduli):
        x += n * ((r - x) * pow(n, -1, m) % m)
        n *= m
    return x % n


def reference_p1_normalize(N, a, b):
    """Canonical (a : b) in P^1(Z/N) and its scaling unit, normalised at each
    prime power q || N and lifted by CRT."""
    if N == 1:
        return (0, 0), 0
    if gcd(a, b, N) != 1:
        raise ValueError(f"({a}, {b}) is not coprime mod {N}")
    reps, units, moduli = [], [], []
    for p, q in prime_powers(N):
        x, y = a % q, b % q
        if x == 0:
            rep, u = (0, 1), y
        else:
            g = gcd(x, q)
            c = x // g
            if g == 1:
                rep, u = (1, y * pow(c, -1, q) % q), x
            else:
                b2 = y * pow(c, -1, q) % (q // g)
                rep, u = (g, b2), y * pow(b2, -1, q) % q
        reps.append(rep)
        units.append(u)
        moduli.append(q)
    return ((reference_crt([r[0] for r in reps], moduli),
             reference_crt([r[1] for r in reps], moduli)),
            reference_crt(units, moduli))


def reference_p1_list(N):
    """Canonical representatives of P^1(Z/N), sorted: every combination of
    one local representative per prime power q || N -- (0, 1), (1, b), and
    (p^i, b) with b a unit below q / p^i -- lifted by CRT."""
    if N == 1:
        return [(0, 0)]
    moduli, local_lists = [], []
    for p, q in prime_powers(N):
        moduli.append(q)
        local = [(0, 1)] + [(1, b) for b in range(q)]
        pi = p
        while pi < q:
            local.extend((pi, b) for b in range(1, q // pi) if b % p)
            pi *= p
        local_lists.append(local)
    combos = [[]]
    for local in local_lists:
        combos = [c + [x] for c in combos for x in local]
    return sorted((reference_crt([x[0] for x in c], moduli),
                   reference_crt([x[1] for x in c], moduli)) for c in combos)


def p1_labels(N):
    """The sorted labels (a, b) of P^1(Z/N) that number the Gamma0 and
    Gamma^0 cosets, from the keys a * N + b that cosets._p1_line returns."""
    return [divmod(key, N) for key in _p1_line(N)[0]]


def unit_labels(N):
    """The sorted labels (u, (a, b)) that number the Gamma1 and Gamma^1
    cosets: a unit class mod +-1 and a point of P^1(Z/N)."""
    points = p1_labels(N)
    return [(u, pt) for u in unit_classes(N) for pt in points]


def _row_act(row, letter, N):
    x, y = row
    return (x * letter.a + y * letter.c) % N, (x * letter.b + y * letter.d) % N


def reference_system(family, N):
    """(labels, sigma_s, sigma_u, distinguished) of a P^1 family, one
    normalisation per label and letter."""
    points = reference_p1_list(N)
    if family in ("gamma0", "gamma_upper0"):
        labels = points
        index = {lab: i for i, lab in enumerate(labels)}
        sigmas = [[index[reference_p1_normalize(N, *_row_act(lab, letter, N))[0]]
                   for lab in labels] for letter in (S, U)]
        base = (0, 0) if N == 1 else ((0, 1) if family == "gamma0" else (1, 0))
        return labels, sigmas[0], sigmas[1], index[base]
    lower = family == "gamma1"

    def canon(u):
        return 0 if N == 1 else min(u % N, -u % N)

    units = sorted({canon(u) for u in range(1, N + 1) if gcd(u, N) == 1})
    labels = sorted((u, pt) for u in units for pt in points)
    index = {lab: i for i, lab in enumerate(labels)}
    sigmas = []
    for letter in (S, U):
        sigma = []
        for u, pt in labels:
            rep, u2 = reference_p1_normalize(N, *_row_act(pt, letter, N))
            w = 0 if N == 1 else (pow(u2, -1, N) if lower else u2)
            sigma.append(index[(canon(u * w), rep)])
        sigmas.append(sigma)
    base = (canon(1), (0, 0) if N == 1 else ((0, 1) if lower else (1, 0)))
    return labels, sigmas[0], sigmas[1], index[base]


def reference_gamma_system(N):
    """(labels, sigma_s, sigma_u, distinguished) of Gamma(N), N >= 3, from
    every matrix of SL2(Z/N): each is encoded by its two columns and their
    sum, each taken up to sign, and the sorted distinct triples are the
    labels; a letter acts by multiplying a representative matrix mod N."""
    def xp(u, v):
        return min((u % N, v % N), (-u % N, -v % N))

    def triple(a, b, c, d):
        return xp(a, c), xp(b, d), xp(a + b, c + d)

    reps = {}
    for a, b, c, d in product(range(N), repeat=4):
        if (a * d - b * c) % N == 1:
            reps.setdefault(triple(a, b, c, d), (a, b, c, d))
    labels = sorted(reps)
    index = {lab: i for i, lab in enumerate(labels)}
    sigmas = []
    for m in (S, U):
        p, q, r, s = m.tuple()
        sigma = []
        for lab in labels:
            a, b, c, d = reps[lab]
            sigma.append(index[triple(a * p + b * r, a * q + b * s, c * p + d * r, c * q + d * s)])
        sigmas.append(sigma)
    return labels, sigmas[0], sigmas[1], index[triple(1, 0, 0, 1)]


# ---------------------------------------------------------------------------
# reference JSON data: the dicts the writers serialised through json.dumps
# before they became templates; the writer tests compare against
# json.dumps(data, sort_keys=True, separators=(",", ": "), indent=2) + "\n"

def _frac_text(f):
    return f"{f.numerator}/{f.denominator}" if f.denominator != 1 else str(f.numerator)


def reference_endpoint_data(vertex, order):
    """A vertex: a cusp pair (p, q) or, with the side's elliptic order, a
    point triple (n, m, k)."""
    if len(vertex) == 2:
        p, q = vertex
        return {"cusp": "oo" if q == 0 else f"{p}/{q}"}
    n, m, k = vertex
    x, y2 = Fraction(m, k), Fraction(n * k - m * m, k * k)
    return {"elliptic": {"order": order, "x": _frac_text(x), "y2": _frac_text(y2)}}


def reference_polygon_data(poly):
    return {
        "triangles": [list(g) for g in poly.dev],
        "sides": [
            {
                "kind": s.kind,
                "edge": s.edge,
                "carrier": list(poly.dev[s.edge]),
                "endpoints": [reference_endpoint_data(s.start, s.ell_order),
                              reference_endpoint_data(s.end, s.ell_order)],
                "pair": s.pair,
                "generator": s.gen,
                "exponent": s.gen_exp,
            }
            for s in poly.sides
        ],
        "generators": [
            {"matrix": list(g.tuple()), "order": order}
            for g, order in poly.generators
        ],
        "base_point": [_frac_text(poly.base_point.x), _frac_text(poly.base_point.y)],
    }


def reference_graph_data(system):
    return {
        "n": system.n,
        "sigma_S": system.sigma_s,
        "sigma_U": system.sigma_u,
        "distinguished": system.distinguished,
        "v0": reference_orbits(system.sigma_s),
        "v1": reference_orbits(system.sigma_u),
    }


def geodesic_eval_at(geod, x, y2):
    """a(x^2 + y^2) + bx + c for the geodesic (a, b, c) at the point given as
    (x, y^2); zero exactly on the geodesic."""
    a, b, c = geod
    return a * (x * x + y2) + b * x + c


def geodesic_through(p, q):
    """The geodesic through two distinct rational points: the primitive
    triple orthogonal to both lifted points, normalised like the geodesics
    of modpoly.reduce (a > 0, or a = 0 and b < 0)."""
    if p == q:
        raise ValueError("need two distinct points")
    u, v = reference_lift(p.x, p.y**2), reference_lift(q.x, q.y**2)
    a, b, c = (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2],
               u[0] * v[1] - u[1] * v[0])
    g = gcd(a, b, c)
    if a < 0 or (a == 0 and b > 0):
        g = -g
    return a // g, b // g, c // g


def reference_halfplanes(poly):
    """One integer triple per distinct side geodesic, signed so that its dot
    product with the base point's triple is positive: the polygon, convex,
    is the intersection of these half-planes."""
    n, m, k = reference_lift(poly.base_point.x, poly.base_point.y**2)
    out = []
    for geod in dict.fromkeys(side.geodesic for side in poly.sides):
        a, b, c = geod
        v = a * n + b * m + c * k
        assert v != 0, "the base point lies on a side geodesic"
        out.append(geod if v > 0 else (-a, -b, -c))
    return out


def reference_contains(halfplanes, point, strict=False):
    """Membership of a point triple by a scan of every half-plane."""
    n, m, k = point
    values = [a * n + b * m + c * k for a, b, c in halfplanes]
    return all(v > 0 for v in values) if strict else all(v >= 0 for v in values)


# stock test groups used across the suite
TEST_GROUPS = ([("gamma0", N) for N in (2, 3, 4, 5, 6, 7, 10, 11, 13)]
               + [("gamma", N) for N in (2, 3, 4, 5)]
               + [("gamma1", 5)])


@lru_cache(maxsize=None)
def built_system(family, N):
    return build_system(family, N)


@lru_cache(maxsize=None)
def built_polygon(family, N):
    return build_polygon(built_system(family, N))


@lru_cache(maxsize=None)
def built_develop(family, N):
    """(crossed, dev) of develop on the cached system."""
    return develop(built_system(family, N))
