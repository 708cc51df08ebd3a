"""Locating points on the fundamental domain and rewriting group elements
as words in the independent generators.

All geometry is exact and, for geodesics, integer.  A geodesic is the
primitive integer triple (a, b, c) of the curve a(x^2+y^2) + bx + c = 0 (a
semicircle when a > 0, a vertical line when a = 0), and a rational point is
an integer triple (n, m, k), k > 0, proportional to (x^2+y^2, x, 1).  A
point lies on a geodesic, or on one side of it, by the sign of the dot
product of the two triples; the geodesic through two points and the point
where two geodesics meet are both cross products.  Only point coordinates
and positions along a geodesic are Fractions, and the tangent directions at
order-3 vertices are compared in Q + Q*sqrt(3).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt, lcm
from typing import NamedTuple

from .cosets import MembershipError
from .psl2 import Cusp, Psl2Elt, su_word, t_runs

# word in the independent generators: (generator index, exponent) pairs
GenWord = list[tuple[int, int]]


class TraceDegenerateError(RuntimeError):
    """The trace hit a configuration the crossing rules cannot resolve;
    the caller restarts from the next base point."""


@dataclass(frozen=True)
class ExactPoint:
    """Rational point x + iy of the upper half-plane.  Coordinates are
    Fractions; an int is converted, any other type (float, Decimal, bool)
    is refused."""

    x: Fraction
    y: Fraction

    def __post_init__(self):
        for name in ("x", "y"):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, (int, Fraction)):
                raise ValueError(f"point coordinate {name} = {v!r} is not an int or a Fraction")
            if not isinstance(v, Fraction):
                object.__setattr__(self, name, Fraction(v))
        if self.y <= 0:
            raise ValueError(f"point {self.x} + {self.y}i is not in the upper half-plane")


class Geodesic(NamedTuple):
    """The geodesic a(x^2+y^2) + bx + c = 0 as a primitive integer triple,
    normalised so that a > 0 (a semicircle) or a = 0 and b < 0 (the
    vertical line x = -c/b).  Its ideal endpoints are the roots of the
    binary form aX^2 + bXY + cY^2."""

    a: int
    b: int
    c: int

    def transform(self, g: Psl2Elt) -> "Geodesic":
        """Image under g: the endpoint form composed with g^-1."""
        p, q, r, s = g.tuple()
        a, b, c = self
        return _geodesic(a * s * s - b * r * s + c * r * r,
                         b * (p * s + q * r) - 2 * (a * q * s + c * p * r),
                         a * q * q - b * p * q + c * p * p)


def _geodesic(a: int, b: int, c: int) -> Geodesic:
    g = gcd(a, b, c)
    if a < 0 or (a == 0 and b > 0):
        g = -g
    return Geodesic(a // g, b // g, c // g)


def lift(x: Fraction, y2: Fraction) -> tuple[int, int, int]:
    """Integer triple (n, m, k), k > 0, proportional to (x^2+y^2, x, 1) for
    the point x + iy given as (x, y^2)."""
    s = x * x + y2
    k = lcm(s.denominator, x.denominator)
    return s.numerator * (k // s.denominator), x.numerator * (k // x.denominator), k


def _cross(u, v) -> tuple[int, int, int]:
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])


def meet(g1: Geodesic, g2: Geodesic) -> tuple[int, int, int] | None:
    """Point triple where two geodesics cross in the upper half-plane, or
    None: k = 0 for the same geodesic, two vertical lines or concentric
    circles, and nk - m^2 = k^2 y^2 <= 0 when they do not cross above the
    real axis."""
    n, m, k = _cross(g1, g2)
    if k < 0:
        n, m, k = -n, -m, -k
    if k == 0 or n * k - m * m <= 0:
        return None
    return n, m, k


def geodesic_between_cusps(c1: Cusp, c2: Cusp) -> Geodesic:
    """(q1 q2, -(p1 q2 + p2 q1), p1 p2): the form (q1 X - p1 Y)(q2 X - p2 Y).
    Reduced cusps with q >= 0 and infinity = 1/0 make it primitive and
    normalised."""
    if c1 == c2:
        raise ValueError("coincident ideal endpoints")
    return Geodesic(c1.q * c2.q, -(c1.p * c2.q + c2.p * c1.q), c1.p * c2.p)


def geodesic_through(p: ExactPoint, q: ExactPoint) -> Geodesic:
    """The geodesic through two distinct rational points."""
    if p == q:
        raise ValueError("need two distinct points")
    return _geodesic(*_cross(lift(p.x, p.y**2), lift(q.x, q.y**2)))


def act_point(g: Psl2Elt, z: ExactPoint) -> ExactPoint:
    """Moebius action on a rational point of the upper half-plane."""
    den = (g.c * z.x + g.d) ** 2 + g.c**2 * z.y**2
    x = ((g.a * z.x + g.b) * (g.c * z.x + g.d) + g.a * g.c * z.y**2) / den
    return ExactPoint(x, z.y / den)


def act_quad(g: Psl2Elt, x: Fraction, y2: Fraction) -> tuple[Fraction, Fraction]:
    """Action on a point stored as (x, y^2); closed for rational x, y^2."""
    den = (g.c * x + g.d) ** 2 + g.c**2 * y2
    x2 = ((g.a * x + g.b) * (g.c * x + g.d) + g.a * g.c * y2) / den
    return x2, y2 / den**2


def elliptic2_point(g: Psl2Elt) -> tuple[Fraction, Fraction]:
    """(x, y^2) of the image of i; both coordinates are rational."""
    a, b, c, d = g.tuple()
    k = c * c + d * d
    return Fraction(a * c + b * d, k), Fraction(1, k * k)


def elliptic3_point(g: Psl2Elt) -> tuple[Fraction, Fraction]:
    """(x, y^2) of the image of the order-3 fixed point e^(i pi/3)."""
    a, b, c, d = g.tuple()
    k = c * c + c * d + d * d
    return Fraction(2 * (a * c + b * d) + a * d + b * c, 2 * k), Fraction(3, 4 * k * k)


def rational_sqrt(f: Fraction) -> Fraction | None:
    """Exact square root of a nonnegative rational, or None."""
    if f < 0:
        return None
    n, d = f.numerator, f.denominator
    rn, rd = isqrt(n), isqrt(d)
    if rn * rn == n and rd * rd == d:
        return Fraction(rn, rd)
    return None


# ---------------------------------------------------------------------------
# exact arithmetic in Q + Q*sqrt(3), used for tangent directions at order-3
# vertices; pairs (a, b) stand for a + b*sqrt(3)

Q3 = tuple[Fraction, Fraction]


def q3_mul(u: Q3, v: Q3) -> Q3:
    return (u[0] * v[0] + 3 * u[1] * v[1], u[0] * v[1] + u[1] * v[0])


def q3_add(u: Q3, v: Q3) -> Q3:
    return (u[0] + v[0], u[1] + v[1])


def q3_sub(u: Q3, v: Q3) -> Q3:
    return (u[0] - v[0], u[1] - v[1])


def q3_sign(u: Q3) -> int:
    a, b = u
    if a == 0 and b == 0:
        return 0
    if a >= 0 and b >= 0:
        return 1
    if a <= 0 and b <= 0:
        return -1
    # mixed signs: compare a^2 with 3 b^2
    lead = 1 if a > 0 else -1
    return lead if a * a > 3 * b * b else -lead


def _q3_cross(ux: Q3, uy: Q3, vx: Q3, vy: Q3) -> int:
    prod1 = q3_mul(ux, vy)
    prod2 = q3_mul(uy, vx)
    return q3_sign((prod1[0] - prod2[0], prod1[1] - prod2[1]))


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
    """Left-to-right product of generator powers."""
    result = Psl2Elt(1, 0, 0, 1)
    for idx, exp in word:
        result = result * generators[idx][0] ** exp
    return result


# ---------------------------------------------------------------------------
# combinatorial rewriting along the coset permutations (Schreier path)

def express_schreier(poly, g: Psl2Elt) -> GenWord:
    """Write g as a word in the polygon's independent generators by walking
    its S/U letter word through the coset permutations from the distinguished
    label.

    Letters that move along the developed spanning structure contribute
    nothing; crossing a cut vertex or sitting at a fixed label emits the
    corresponding side-pairing generator.  Membership is decided first, by
    walking g's runs of T through the T-cycle table (one jump per run), so a
    non-member is refused before any letter is expanded.
    """
    system = poly.system
    runs = t_runs(g)
    label = system.walk(runs)
    if label != system.distinguished:
        raise _not_member(system, g, label)
    ss, su = system.sigma_s, system.sigma_u
    edge_v0 = poly.graph.edge_v0
    cuts = poly.cut_vertices
    feat_pos = poly.feature_index

    word: GenWord = []
    for gen, e in su_word(runs):
        if gen == "S":
            nxt = ss[label]
            if nxt == label:
                word.append((feat_pos[("e2", label)], 1))
            elif edge_v0[label] in cuts:
                orbit_min = min(label, nxt)
                exp = -1 if label == orbit_min else 1
                word.append((feat_pos[("cut", edge_v0[label])], exp))
            label = nxt
        else:
            for _ in range(e):
                nxt = su[label]
                if nxt == label:
                    word.append((feat_pos[("e3", label)], -1))
                label = nxt
    word = reduce_word(word, poly.generators)
    if evaluate_word(poly.generators, word) != g:
        raise ValueError("internal error: rewritten word does not evaluate back")
    return word


def _not_member(system, g: Psl2Elt, label: int) -> MembershipError:
    return MembershipError(f"matrix {g} is not in the subgroup ({system.family}, "
                           f"level {system.level}): its coset is {label}")


# ---------------------------------------------------------------------------
# geodesic tracing (the geometric reduction procedure)

# base points, all interior to the root triangle
BASE_POINTS = [
    ExactPoint(Fraction(1, 4), Fraction(1)),
    ExactPoint(Fraction(1, 3), Fraction(1)),
    ExactPoint(Fraction(2, 7), Fraction(1)),
    ExactPoint(Fraction(3, 11), Fraction(1)),
    ExactPoint(Fraction(1, 5), Fraction(1)),
    ExactPoint(Fraction(2, 9), Fraction(1)),
    ExactPoint(Fraction(3, 13), Fraction(1)),
    ExactPoint(Fraction(5, 17), Fraction(1)),
]

_MAX_TRACE_STEPS = 100000


def locate_point(poly, z: ExactPoint) -> tuple[ExactPoint, GenWord]:
    """Find w in the fundamental polygon and a word evaluating to g with
    g * w = z, by tracing the geodesic from an interior base point to z."""
    if poly.contains(z.x, z.y**2):
        return z, []
    last = None
    for z0 in BASE_POINTS:
        if not poly.contains(z0.x, z0.y**2, strict=True):
            continue
        try:
            return _trace(poly, z0, z)
        except TraceDegenerateError as err:
            last = err
    raise RuntimeError(f"geodesic trace failed from every base point: {last}")


def express(poly, g: Psl2Elt, use_trace: bool = False) -> GenWord:
    """Word in the polygon's independent generators evaluating exactly to g;
    raises MembershipError when g is not in the subgroup."""
    if not use_trace:
        return express_schreier(poly, g)
    label = poly.system.coset(g)
    if label != poly.system.distinguished:
        raise _not_member(poly.system, g, label)
    z = act_point(g, poly.base_point)
    w, word = locate_point(poly, z)
    if w != poly.base_point or evaluate_word(poly.generators, word) != g:
        raise ValueError("internal error: trace did not reproduce the element")
    return word


def geodesic_param(geod: Geodesic, point: tuple[int, int, int]) -> Fraction:
    """Coordinate of a point triple along a geodesic, increasing in the
    direction of its tangent: x on circles, x^2+y^2 on vertical lines."""
    n, m, k = point
    return Fraction(m if geod.a else n, k)


def _trace(poly, z0: ExactPoint, z: ExactPoint,
           record: list | None = None) -> tuple[ExactPoint, GenWord]:
    sides = poly.sides
    gens = poly.generators
    word: GenWord = []
    t = z
    geod = geodesic_through(z0, z)
    source = lift(z0.x, z0.y**2)

    for _ in range(_MAX_TRACE_STEPS):
        if record is not None:
            record.append((geod, t))
        tx, ty2 = t.x, t.y**2
        if poly.contains(tx, ty2):
            word = reduce_word(word, gens)
            if act_point(evaluate_word(gens, word), t) != z:
                raise ValueError("internal error: trace postcondition failed")
            return t, word

        pa = geodesic_param(geod, source)
        pt = geodesic_param(geod, lift(tx, ty2))
        if pa == pt:
            raise TraceDegenerateError("target and source share the geodesic parameter")
        dsign = 1 if pt > pa else -1

        best = None
        for side in sides:
            hit = _side_crossing(geod, side, pa, pt, dsign)
            if hit is None:
                continue
            if best is None or (hit[0] - best[0]) * dsign < 0:
                best = hit
            elif hit[0] == best[0] and hit[1] == "vertex" and best[1] == "side":
                best = hit
        if best is None:
            raise TraceDegenerateError("no boundary crossing found on an exiting segment")

        _, kind, side, (n, m, k) = best
        px, py2 = Fraction(m, k), Fraction(n * k - m * m, k * k)
        gi, ge = side.gen, side.gen_exp
        if kind == "vertex":
            ge = 1 if side.ell_order == 2 else _pick_rotation(poly, geod, dsign, side, px, py2)
        r = gens[gi][0] ** ge
        word.append((gi, -ge))
        t = act_point(r, t)
        source = lift(*act_quad(r, px, py2))
        geod = geod.transform(r)
    raise TraceDegenerateError("step budget exhausted")


def _side_crossing(geod: Geodesic, side, pa, pt, dsign):
    """Intersection of the travel segment with one polygon side.

    Returns (param, "side" | "vertex", side, point triple) or None.
    Crossings are strict between the segment ends; hitting an end of the
    side's range is reported as a vertex hit, since a cusp end lies on the
    real axis and only an elliptic end can be met in H.
    """
    point = meet(geod, side.geodesic)
    if point is None:
        return None

    # within the travel segment, strictly
    p = geodesic_param(geod, point)
    if not ((p - pa) * dsign > 0 and (pt - p) * dsign > 0):
        return None

    # within the side segment
    sp = geodesic_param(side.geodesic, point)
    if sp < side.lo or (side.hi is not None and sp > side.hi):
        return None
    return (p, "vertex" if sp == side.lo or sp == side.hi else "side", side, point)


def _pick_rotation(poly, geod: Geodesic, dsign: int, side, vx: Fraction, vy2: Fraction) -> int:
    """Choose the exponent e in {1, -1} so that rotating the continuation by
    generators[side.gen]^e points back into the polygon wedge at the order-3
    vertex (vx, vy2).  Exact tangent algebra over Q + Q*sqrt(3)."""
    root = rational_sqrt(vy2 / 3)
    if root is None:
        raise TraceDegenerateError("order-3 vertex height is not of the expected form")
    # travel direction at the vertex
    d_out = _tangent(geod, vx, root, dsign)
    partner = poly.sides[side.pair]
    u1 = _side_direction(side, vx, root)
    u2 = _side_direction(partner, vx, root)
    if _q3_cross(u1[0], u1[1], u2[0], u2[1]) < 0:
        u1, u2 = u2, u1
    gen = poly.generators[side.gen][0]
    for exp in (1, -1):
        r = gen**exp
        w = _apply_differential(r, vx, root, d_out)
        if (_q3_cross(u1[0], u1[1], w[0], w[1]) >= 0
                and _q3_cross(w[0], w[1], u2[0], u2[1]) >= 0):
            return exp
    raise TraceDegenerateError("no rotation re-enters the polygon wedge")


def _tangent(geod: Geodesic, x: Fraction, yroot3: Fraction, dsign: int):
    """Tangent (2ay, -(2ax+b)) at x + iy with y = yroot3 * sqrt(3), as a pair
    of Q3 numbers, along increasing parameter times dsign."""
    return ((0, dsign * 2 * geod.a * yroot3), (-dsign * (2 * geod.a * x + geod.b), 0))


def _side_direction(side, vx: Fraction, yroot3: Fraction):
    """Direction from the elliptic vertex along the side toward its cusp end."""
    return _tangent(side.geodesic, vx, yroot3, 1 if side.lo_ell else -1)


def _apply_differential(r: Psl2Elt, vx: Fraction, yroot3: Fraction, direction):
    """Multiply a tangent direction by dr/dz = 1/(cz+d)^2 at z = vx + i*y,
    where y = yroot3 * sqrt(3).

    With alpha = c*vx + d rational and the imaginary part of cz + d equal to
    c*yroot3*sqrt(3), the square (cz+d)^2 has rational real part and a pure
    sqrt(3) imaginary part, so its inverse stays in the same shape.
    """
    alpha = Fraction(r.c) * vx + r.d
    beta = Fraction(r.c) * yroot3
    re = alpha * alpha - 3 * beta * beta
    im = 2 * alpha * beta  # coefficient of sqrt(3)
    norm = re * re + 3 * im * im
    p: Q3 = (re / norm, Fraction(0))
    q: Q3 = (Fraction(0), -im / norm)
    dx, dy = direction
    wx = q3_sub(q3_mul(dx, p), q3_mul(dy, q))
    wy = q3_add(q3_mul(dx, q), q3_mul(dy, p))
    return (wx, wy)
