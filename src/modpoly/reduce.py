"""Locating points on the fundamental domain and rewriting group elements
as words in the independent generators.

All geometry is exact and integer.  A geodesic is the primitive integer
triple (a, b, c) of the curve a(x^2+y^2) + bx + c = 0 (a semicircle when
a > 0, a vertical line when a = 0), and a point is a primitive integer triple
(n, m, k), k > 0, proportional to (x^2+y^2, x, 1).  A point lies on a
geodesic, or on one side of it, by the sign of the dot product of the two
triples; the geodesic through two points and the point where two geodesics
meet are both cross products.  Points move by the symmetric square of g, an
integer matrix of determinant 1 given by its entries (so a primitive triple
stays primitive and two points are equal exactly when their triples are),
and a position along a geodesic is an integer pair (num, den), den > 0,
compared by cross-multiplication.  Fractions appear only at the API
boundary: a point a caller passes in is lifted once from the numerators and
denominators of its coordinates, with no Fraction arithmetic, and the point
locate_point returns is made once, at the end, from its triple.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt

from .cosets import MembershipError
from .psl2 import IDENTITY, MAX_POWER_BITS, Psl2Elt, WorkBoundError, t_runs

# word in the independent generators: (generator index, exponent) pairs
GenWord = list[tuple[int, int]]


class ExactPoint:
    """Rational point x + iy of the upper half-plane, immutable.  Coordinates
    are Fractions; an int is converted, any other type (float, Decimal,
    bool) is refused, and so is y <= 0.  Equality, hash and repr are those
    of the (x, y) pair."""

    __slots__ = ("x", "y")
    __match_args__ = ("x", "y")

    def __init__(self, x: Fraction, y: Fraction):
        x, y = _rational("x", x), _rational("y", y)
        if y <= 0:
            raise ValueError(f"point {x} + {y}i is not in the upper half-plane")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    @classmethod
    def _make(cls, x: Fraction, y: Fraction) -> ExactPoint:
        # internal fast path: x and y are Fractions and y > 0
        self = object.__new__(cls)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        return self

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return ExactPoint, (self.x, self.y)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.x, self.y) == (other.x, other.y)
        return NotImplemented

    def __hash__(self):
        return hash((self.x, self.y))

    def __repr__(self):
        return f"{self.__class__.__qualname__}(x={self.x!r}, y={self.y!r})"


def _rational(name: str, v) -> Fraction:
    """A point coordinate as a Fraction: an int is converted, any other type
    (float, Decimal, bool) is refused with ValueError."""
    if isinstance(v, bool) or not isinstance(v, (int, Fraction)):
        raise ValueError(f"point coordinate {name} = {v!r} is not an int or a Fraction")
    return v if isinstance(v, Fraction) else Fraction(v)


# the geodesic a(x^2+y^2) + bx + c = 0 as a primitive integer triple
# (a, b, c), normalised so that a > 0 (a semicircle) or a = 0 and b < 0 (the
# vertical line x = -c/b); its ideal endpoints are the roots of the binary
# form aX^2 + bXY + cY^2
Geodesic = tuple[int, int, int]


def _geodesic(a: int, b: int, c: int) -> Geodesic:
    g = gcd(a, b, c)
    if a < 0 or (a == 0 and b > 0):
        g = -g
    return a // g, b // g, c // g


def transform(geod: Geodesic, g: tuple[int, int, int, int]) -> Geodesic:
    """Image of a geodesic under the matrix of entries g = (p, q, r, s),
    determinant 1: the endpoint form composed with g^-1."""
    p, q, r, s = g
    a, b, c = geod
    return _geodesic(a * s * s - b * r * s + c * r * r,
                     b * (p * s + q * r) - 2 * (a * q * s + c * p * r),
                     a * q * q - b * p * q + c * p * p)


Point = tuple[int, int, int]

# the fixed points i of S and e^(i pi/3) of U
I_POINT: Point = (1, 0, 1)
RHO_POINT: Point = (2, 1, 2)


def lift(p: int, q: int, r: int, s: int) -> Point:
    """Primitive integer triple (n, m, k), k > 0, proportional to
    (x^2+y^2, x, 1) for the point x + iy with x = p/q and y^2 = r/s, q and
    s > 0: (p^2 s + r q^2, pqs, q^2 s) over its gcd."""
    qs = q * s
    n, m, k = p * p * s + r * q * q, p * qs, q * qs
    g = gcd(n, m, k)
    return n // g, m // g, k // g


def act(g: tuple[int, int, int, int], point: Point) -> Point:
    """Moebius action on a point triple of the matrix of entries g = (a, b,
    c, d), determinant 1: its symmetric square, an integer matrix of
    determinant 1, so a primitive triple stays primitive.  It is the
    contragredient of transform: a point's dot product with a geodesic is
    unchanged, up to the sign transform normalises."""
    a, b, c, d = g
    n, m, k = point
    return (a * a * n + 2 * a * b * m + b * b * k,
            a * c * n + (a * d + b * c) * m + b * d * k,
            c * c * n + 2 * c * d * m + d * d * k)


def _cross(u, v) -> tuple[int, int, int]:
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])


def _dot(u, v) -> int:
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def meet(g1: Geodesic, g2: Geodesic) -> Point | None:
    """Point triple, not necessarily primitive, where two geodesics cross in
    the upper half-plane, or None: k = 0 for the same geodesic, two vertical
    lines or concentric circles, and nk - m^2 = k^2 y^2 <= 0 when they do
    not cross above the real axis."""
    n, m, k = _cross(g1, g2)
    if k < 0:
        n, m, k = -n, -m, -k
    if k == 0 or n * k - m * m <= 0:
        return None
    return n, m, k


def geodesic_between_cusps(c1: tuple[int, int], c2: tuple[int, int]) -> Geodesic:
    """(q1 q2, -(p1 q2 + p2 q1), p1 p2) for the cusps p1/q1 and p2/q2 given
    as pairs (p, q): the form (q1 X - p1 Y)(q2 X - p2 Y).  Reduced pairs with
    q >= 0 and infinity = (1, 0) make it primitive and normalised."""
    if c1 == c2:
        raise ValueError("coincident ideal endpoints")
    p1, q1 = c1
    p2, q2 = c2
    return q1 * q2, -(p1 * q2 + p2 * q1), p1 * p2


def act_point(g: Psl2Elt, z: ExactPoint) -> ExactPoint:
    """Moebius action on a rational point of the upper half-plane."""
    den = (g.c * z.x + g.d) ** 2 + g.c**2 * z.y**2
    x = ((g.a * z.x + g.b) * (g.c * z.x + g.d) + g.a * g.c * z.y**2) / den
    return ExactPoint(x, z.y / den)


def geodesic_param(geod: Geodesic, point: Point) -> tuple[int, int]:
    """Position (num, den), den > 0, of a point triple along a geodesic,
    increasing in the direction of its tangent: x on circles, x^2+y^2 on
    vertical lines."""
    n, m, k = point
    return (m if geod[0] else n), k


def det2(u: tuple[int, int], v: tuple[int, int]) -> int:
    """u[0] v[1] - u[1] v[0]: for two positions (num, den), den > 0, its
    sign is that of u - v."""
    return u[0] * v[1] - u[1] * v[0]


# ---------------------------------------------------------------------------
# word utilities

def reduce_word(word: GenWord, generators) -> GenWord:
    """Merge adjacent syllables, fold elliptic exponents into {1, order-1},
    drop trivial syllables."""
    out: GenWord = []
    for idx, exp in word:
        if exp == 0:
            continue
        if out and out[-1][0] == idx:
            idx2, e2 = out.pop()
            exp = e2 + exp
        order = generators[idx][1]
        if order:
            exp %= order
        if exp != 0:
            out.append((idx, exp))
    return out


def evaluate_word(generators, word: GenWord) -> Psl2Elt:
    """Left-to-right product of generator powers on four int locals, with
    one Psl2Elt at the end (the empty word is IDENTITY).  A syllable of
    exponent +-1 is read from the generator's entries; only a power with
    |exp| >= 2 is taken with **, one Psl2Elt each.  The first power is taken
    as it is, with no product by the identity.  A hyperbolic syllable (g, n)
    adds about |n| * bit_length(|trace g|) bits to the entries, and a word
    whose syllables add up past MAX_POWER_BITS, the bound __pow__ puts on
    one power, is refused with WorkBoundError before any power is taken."""
    bits = 0
    for idx, exp in word:
        t = abs(generators[idx][0].trace())
        if t > 2:
            bits += abs(exp) * t.bit_length()
    if bits > MAX_POWER_BITS:
        raise WorkBoundError(f"word would have entries of about {bits} bits, over "
                             f"MAX_POWER_BITS = {MAX_POWER_BITS}")
    a = None
    for idx, exp in word:
        g = generators[idx][0]
        if exp == 1:
            e, f, h, k = g.a, g.b, g.c, g.d
        elif exp == -1:
            e, f, h, k = g.d, -g.b, -g.c, g.a
        else:
            g = g ** exp
            e, f, h, k = g.a, g.b, g.c, g.d
        if a is None:
            a, b, c, d = e, f, h, k
        else:
            a, b, c, d = a * e + b * h, a * f + b * k, c * e + d * h, c * f + d * k
    if a is None:
        return IDENTITY
    return Psl2Elt._make(a, b, c, d)


# ---------------------------------------------------------------------------
# combinatorial rewriting along the coset permutations (Schreier path)

# the rewriting walk refuses to take its letters and the syllables its
# powers of a turn add past this count
MAX_WALK_STEPS = 10**7
# runs shorter than this are walked letter by letter and not counted.  A
# turn and its split cost about as much as five letters, so a shorter run
# gains nothing from them, and such runs are most runs of products (2-5
# letters) and of locate (0-3).  Their number, from t_runs or from the
# reduction of a point, grows with the bit length of the input, and so do
# their letters
MIN_COUNTED_RUN = 6


def _split_cyclic(word: GenWord, generators) -> tuple[GenWord, GenWord]:
    """(u, c) with word = u * c * u^-1 for a reduced word, where c is at
    most one syllable or begins and ends with powers of different
    generators, so that c * c * ... * c is reduced as it stands."""
    i, j = 0, len(word) - 1
    while i < j and word[i][0] == word[j][0]:
        idx, exp = word[i]
        order = generators[idx][1]
        merged = exp + word[j][1]
        if order:
            merged %= order
        if merged:
            # word[i] * middle * word[j] = word[i] * (middle * word[j] * word[i]) * word[i]^-1
            return word[:i + 1], word[i + 1:j] + [(idx, merged)]
        i, j = i + 1, j - 1
    return word[:i], word[i:j + 1]


def _rewrite(poly, runs: list[int]) -> tuple[int, GenWord]:
    """(label, word) for T^r0 * S * T^r1 * ... * S * T^rk (runs is not
    empty), walked from the distinguished label through the coset
    permutations letter by letter, with T = U^2 * S and T^-1 = S * U, and by
    whole turns of a T-cycle as below.  A step emits the s_gen / u_gen
    syllable of the label it leaves, if any; the other steps follow the
    Schreier transversal dev, so the word is that of the element times
    dev[label]^-1.  Only a U-fixed label x has a u_gen syllable, so a T
    letter tests u_gen[x] once, emits it twice when x is U-fixed (su[x] =
    x), and jumps to su[su[x]].  The S between two runs is taken after
    each run, and the one after the last run is stepped back over at the
    end (S is an involution), so no run tests whether it is the first.

    A run T^r from a label x whose T-cycle has w labels returns to x after
    every w letters.  When |r| >= 2w and |r| >= MIN_COUNTED_RUN, one turn is
    walked, its reduced word split as u * c * u^-1 (_split_cyclic), and
    u * c^k * u^-1 emitted for k = |r| // w, c^k being one syllable when c
    is; then the |r| mod w letters left are walked.  The letters walked in
    runs of at least MIN_COUNTED_RUN letters count against MAX_WALK_STEPS,
    and so do the syllables a power c^k adds past its first copy, or the
    letters those turns stand for where they are fewer; the count is checked
    before each such run and each power is taken, with WorkBoundError past
    the bound.  It never exceeds sum |r|, the letters of the whole walk, and
    a turn has at most two syllables per letter, so the work stays within
    twice the count."""
    system = poly.system
    ss, su, cycle_of = system.sigma_s, system.sigma_u, system.t_cycle
    s_gen, u_gen, gens = poly.s_gen, poly.u_gen, poly.generators
    word: GenWord = []
    emit = word.append
    budget = MAX_WALK_STEPS
    short_lo, short_hi = -MIN_COUNTED_RUN, MIN_COUNTED_RUN
    turns = 0
    x = system.distinguished
    for r in runs:
        if not short_lo < r < short_hi:
            w = len(cycle_of[x])
            steps = r if r > 0 else -r
            if steps >= 2 * w:
                # one turn, then the rest, in the direction of the run
                turns, rest = divmod(steps, w)
                steps = w + rest
                r, rest = (w, rest) if r > 0 else (-w, -rest)
                mark = len(word)
            budget -= steps
            if budget < 0:
                raise _over_walk_bound(budget)
        while True:
            if r > 0:
                for _ in range(r):
                    # T = U * U * S: only a U-fixed x has a u_gen syllable,
                    # and it emits it twice, since su[x] = x
                    if u_gen[x] is not None:
                        emit(u_gen[x])
                        emit(u_gen[x])
                    x = su[su[x]]
                    if s_gen[x] is not None:
                        emit(s_gen[x])
                    x = ss[x]
            else:
                for _ in range(-r):
                    # T^-1 = S * U
                    if s_gen[x] is not None:
                        emit(s_gen[x])
                    x = ss[x]
                    if u_gen[x] is not None:
                        emit(u_gen[x])
                    x = su[x]
            if not turns:
                break
            # word[mark:] is one turn from x back to x
            u, c = _split_cyclic(reduce_word(word[mark:], gens), gens)
            del word[mark:]
            if len(c) == 1:
                idx, exp = c[0]
                c = [(idx, exp * turns)]
            else:
                budget -= min(len(c), w) * (turns - 1)
                if budget < 0:
                    raise _over_walk_bound(budget)
                c *= turns
            word += u
            word += c
            if u:
                word += [(idx, -exp) for idx, exp in reversed(u)]
            turns, r = 0, rest
        # the S between this run and the next
        if s_gen[x] is not None:
            emit(s_gen[x])
        x = ss[x]
    # S is an involution: step back over the S taken after the last run
    x = ss[x]
    if s_gen[x] is not None:
        word.pop()
    return x, reduce_word(word, gens)


def _over_walk_bound(budget: int) -> WorkBoundError:
    return WorkBoundError(f"rewriting would take at least {MAX_WALK_STEPS - budget} letters "
                          f"and syllables, over MAX_WALK_STEPS = {MAX_WALK_STEPS}")


def express_schreier(poly, g: Psl2Elt) -> GenWord:
    """Write g as a word in the polygon's independent generators by the walk
    of its runs of T (_rewrite).  Membership is decided first, by one jump
    per run through the T-cycle table, so a non-member is never walked."""
    system = poly.system
    runs = t_runs(g)
    label = system.walk(runs)
    if label != system.distinguished:
        raise _not_member(system, g, label)
    word = _rewrite(poly, runs)[1]
    if evaluate_word(poly.generators, word) != g:
        raise ValueError("internal error: rewritten word does not evaluate back")
    return word


def _not_member(system, g: Psl2Elt, label: int) -> MembershipError:
    return MembershipError(f"matrix {g} is not in the subgroup ({system.family}, "
                           f"level {system.level}): its coset is {label}")


# ---------------------------------------------------------------------------
# locating a point: one reduction into the base triangle, one coset walk

def locate_point(poly, z: ExactPoint) -> tuple[ExactPoint, GenWord]:
    """Find w in the fundamental polygon and a word evaluating to g with
    g * w = z, by one reduction into the base triangle and one walk.

    z = p/q + i r/s is lifted to its triple from the four integers, with
    y^2 = r^2/s^2, and reduced into Delta = (0, e^(i pi/3), infinity), which
    gives z = h * w0, the entries of h and its runs of T.  Their walk
    (_rewrite) gives the coset e of h, so w = dev[e] * w0 lies in the
    polygon's triangle dev[e] * Delta, and the word of gamma = h *
    dev[e]^-1; checking that the word evaluates to gamma, as sign-normalised
    entries, also shows that gamma is in the subgroup.  From z to w the
    point stays plain integers: the one Psl2Elt is the evaluated word, and w
    is made once at the end, by _exact_point.  The work grows with the bit
    length of z and with sum |r|, not with the index.
    """
    x, y = z.x, z.y
    yn, yd = y.numerator, y.denominator
    w0, (a, b, c, d), runs = _reduce_to_base_triangle(
        lift(x.numerator, x.denominator, yn * yn, yd * yd))
    e, word = _rewrite(poly, runs)
    p, q, r, s = g = poly.dev[e]
    # gamma = h * g^-1 = h * [[s, -q], [-r, p]], signed as Psl2Elt keeps it
    ga, gb, gc, gd = a * s - b * r, b * p - a * q, c * s - d * r, d * p - c * q
    if gc < 0 or (gc == 0 and gd < 0):
        ga, gb, gc, gd = -ga, -gb, -gc, -gd
    if evaluate_word(poly.generators, word).tuple() != (ga, gb, gc, gd):
        raise ValueError("internal error: located word does not evaluate back")
    return _exact_point(act(g, w0)), word


def _reduce_to_base_triangle(point: Point) -> tuple[Point, tuple[int, int, int, int],
                                                    list[int]]:
    """(w0, h, runs) with point = h * w0, w0 in Delta = (0, e^(i pi/3),
    infinity) and h = T^r0 * S * T^r1 * ... * S * T^rk, its entries
    (a, b, c, d) not sign-normalised.

    The loop reaches the standard domain |x| <= 1/2, |z| >= 1: translate by
    T^-j for j the nearest integer to x, and invert by S while |z| < 1.  A
    final S folds its left half x < 0 onto the triangle (0, i, e^(i pi/3))
    of Delta.  Each pass of the loop adds one run j, and the fold a run 0.
    The inversions follow the nearest-integer continued fraction of z, so
    their number is linear in the bit length of the triple."""
    n, m, k = point
    a, b, c, d = 1, 0, 0, 1     # h = [[a, b], [c, d]]
    runs = []
    while True:
        j = (2 * m + k) // (2 * k)
        runs.append(j)
        if j:
            # (n, m, k) -> T^-j (n, m, k), h -> h * T^j
            n, m = n - 2 * j * m + j * j * k, m - j * k
            b, d = b + j * a, d + j * c
        if n >= k:
            break
        # (n, m, k) -> S (n, m, k), h -> h * S
        n, m, k = k, -m, n
        a, b, c, d = b, -a, d, -c
    if m < 0:
        n, m, k = k, -m, n
        a, b, c, d = b, -a, d, -c
        runs.append(0)
    return (n, m, k), (a, b, c, d), runs


# ---------------------------------------------------------------------------
# geodesic tracing (the geometric reduction procedure)

# the tracer's base point 1/4 + i, (p^2+q^2, pq, q^2) for x = p/q: assemble
# refuses a polygon without it strictly inside, so _trace starts there untested
BASE_POINT: Point = (17, 4, 16)

_MAX_TRACE_STEPS = 100000


def _exact_point(point: Point) -> ExactPoint:
    """The rational point m/k + i ky/k of a primitive triple, k > 0, whose
    nk - m^2 = (ky)^2 must be a positive perfect square, or ValueError.  The
    point is made by ExactPoint._make, two Fractions and no second
    validation."""
    n, m, k = point
    ky2 = n * k - m * m
    ky = isqrt(ky2) if ky2 > 0 else 0
    if not ky or ky * ky != ky2:
        raise ValueError("internal error: located point has an irrational or non-positive "
                         "height")
    return ExactPoint._make(Fraction(m, k), Fraction(ky, k))


def express(poly, g: Psl2Elt, use_trace: bool = False, record: list | None = None) -> GenWord:
    """Word in the polygon's independent generators evaluating exactly to g;
    raises MembershipError when g is not in the subgroup.  With use_trace
    the word is traced (_trace, whose crossings record collects), and the h
    that _trace checked against its target is the element compared with g."""
    if not use_trace:
        return express_schreier(poly, g)
    label = poly.system.coset(g)
    if label != poly.system.distinguished:
        raise _not_member(poly.system, g, label)
    w, word, h = _trace(poly, act(g.tuple(), BASE_POINT), record)
    if w != BASE_POINT or h != g:
        raise ValueError("internal error: trace did not reproduce the element")
    return word


def _trace(poly, target: Point, record: list | None = None) -> tuple[Point, GenWord, Psl2Elt]:
    """The geometric reduction procedure: follow the geodesic from the
    interior BASE_POINT to target across the polygon's sides, pulling target
    back by each side's generator.  Returns the pulled-back target t, in the
    polygon, the word of the element h that moves it onto target, and h,
    evaluated once for the check act(h, t) == target.  More than
    _MAX_TRACE_STEPS crossings are refused with WorkBoundError.

    The polygon is convex, so the travel segment leaves it once, and the
    vertical ray over each cusp vertex lies in it, so the segment passes
    over no cusp vertex after it leaves: it exits in the stretch between
    two consecutive cusps (or infinity) over which t lies.  That stretch is
    one even side or an elliptic pair of adjacent partners, and it holds the
    side below that _excluding_side finds for t.  Only a target outside the
    polygon gets a travel geodesic.  Since two geodesics meet at most once,
    convexity lets at most two meets (_meet_ahead) and the signs of dot
    products name the exit:

    - even side: the side is its whole geodesic, so the meet is the exit.
    - order-3 pair, two geodesics through the vertex v: the nearer meet.
      Past v each geodesic runs outside the other side's half-plane, where
      the segment starts, so the first meet lies on a side; two meets at
      one position are v, a vertex hit, reported on below.
    - order-2 pair, one geodesic split at v: its meet P is v, a vertex hit
      pulled back by the half-turn of either half, when _cross(P, v) = 0.
      Else P is on below when it is on the side of the geodesic through
      BASE_POINT and v, which parts the halves at v, that holds below's
      cusp end, p/q as (p^2, pq, q^2) and infinity as (1, 0, 0).
    - rotation at an order-3 vertex: gen^e for the first of e = 1, -1 that
      moves t into the closed half-plane of each side that holds
      BASE_POINT.  The rotated ray from v meets each side's geodesic only at
      v, so it lies in the half-plane of its far point gen^e t; the closed
      wedge, of angle 2 pi/3, and its two rotations cover every direction.

    record, when given, gets one entry per crossing, (geod, t, side, gen,
    exp, vertex): the travel geodesic and the target before the crossing,
    the index in poly.sides of the side crossed, the pullback
    generators[gen] ** exp (the word gains the syllable (gen, -exp)), and
    whether the segment met the side's elliptic vertex."""
    sides = poly.sides
    gens = poly.generators
    word: GenWord = []
    t = target
    below = poly._excluding_side(t)
    source = BASE_POINT
    geod = _geodesic(*_cross(source, target)) if below is not None else None

    for _ in range(_MAX_TRACE_STEPS):
        if below is None:
            word = reduce_word(word, gens)
            h = evaluate_word(gens, word)
            if act(h.tuple(), t) != target:
                raise ValueError("internal error: trace postcondition failed")
            return t, word, h

        pa = geodesic_param(geod, source)
        pt = geodesic_param(geod, t)
        ahead = det2(pt, pa)
        if ahead == 0:
            # unreachable: a crossing lies strictly inside its segment, so source != t
            raise ValueError("internal error: target and source share the geodesic parameter")
        dsign = 1 if ahead > 0 else -1

        side, vertex = below, False
        hit = _meet_ahead(geod, below.geodesic, pa, pt, dsign)
        order = below.ell_order
        if order == 3:
            partner = sides[below.pair]
            other = _meet_ahead(geod, partner.geodesic, pa, pt, dsign)
            if other is not None:
                nearer = -1 if hit is None else det2(other[0], hit[0]) * dsign
                if nearer < 0:
                    side, hit = partner, other
                vertex = nearer == 0
        if hit is None:
            # unreachable: the exit lies in the stretch that holds below (see above)
            raise ValueError("internal error: no boundary crossing found on an exiting segment")
        point = hit[1]
        if order == 2:
            v, cusp = (below.start, below.end) if len(below.start) == 3 else (below.end, below.start)
            if _cross(point, v) == (0, 0, 0):
                vertex = True
            else:
                line = _cross(BASE_POINT, v)
                p, q = cusp
                if _dot(line, point) * _dot(line, (p * p, p * q, q * q)) < 0:
                    side = sides[below.pair]

        gi, ge = side.gen, side.gen_exp
        if vertex and order == 3:
            gen = gens[gi][0]
            for ge in (1, -1):
                r = (gen ** ge).tuple()
                moved = act(r, t)
                if all(_dot(s.geodesic, moved) * _dot(s.geodesic, BASE_POINT) >= 0
                       for s in (below, partner)):
                    break
            else:
                # unreachable: the closed wedge and its two rotations cover every direction
                raise ValueError("internal error: no rotation re-enters the polygon wedge")
        else:
            r = (gens[gi][0] ** ge).tuple()
            moved = act(r, t)
        word.append((gi, -ge))
        if record is not None:
            record.append((geod, t, sides[side.pair].pair, gi, ge, vertex))
        t = moved
        source = act(r, point)
        geod = transform(geod, r)
        below = poly._excluding_side(t)
    raise WorkBoundError(f"the trace crossed {_MAX_TRACE_STEPS} sides without reaching the "
                         f"polygon, the bound _MAX_TRACE_STEPS = {_MAX_TRACE_STEPS}")


def _meet_ahead(geod: Geodesic, side_geod: Geodesic, pa, pt, dsign: int):
    """(position, point triple) of the meet of the travel geodesic with a
    side's geodesic strictly inside the travel segment, from position pa to
    pt in the direction dsign, or None.  It tests no range of the side: the
    meet is the exit across an even side, one of the two candidates of an
    order-3 pair and the one point of an order-2 pair, and _trace tells by
    its rules which side or vertex of a pair the meet lies on."""
    point = meet(geod, side_geod)
    if point is None:
        return None
    p = geodesic_param(geod, point)
    if det2(p, pa) * dsign > 0 and det2(pt, p) * dsign > 0:
        return p, point
    return None
