"""Locating points on the fundamental domain and rewriting group elements
as words in the independent generators.

All geometry is exact.  Input points have rational coordinates, so every
traced geodesic is a vertical line or a semicircle with rational center and
radius squared, and every comparison reduces to signs of rational numbers or
of a + b*sqrt(3) with rational a, b.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from .cosets import MembershipError
from .psl2 import Cusp, Psl2Elt, decompose_su

# word in the independent generators: (generator index, exponent) pairs
GenWord = list[tuple[int, int]]


class TraceDegenerateError(RuntimeError):
    """The trace hit a configuration the crossing rules cannot resolve;
    the caller restarts from the next base point."""


@dataclass(frozen=True)
class ExactPoint:
    """Rational point x + iy of the upper half-plane."""

    x: Fraction
    y: Fraction

    def __post_init__(self):
        if self.y <= 0:
            raise ValueError(f"point {self.x} + {self.y}i is not in the upper half-plane")


@dataclass(frozen=True)
class Geodesic:
    """Vertical line x = pos, or semicircle with center pos and radius^2 r2."""

    kind: str  # "v" or "c"
    pos: Fraction
    r2: Fraction | None = None

    def __post_init__(self):
        if self.kind == "c" and (self.r2 is None or self.r2 <= 0):
            raise ValueError("circle geodesic needs positive radius^2")

    def eval_at(self, x: Fraction, y2: Fraction) -> Fraction:
        """Defining expression; zero exactly on the geodesic."""
        if self.kind == "v":
            return x - self.pos
        return (x - self.pos) ** 2 + y2 - self.r2

    def transform(self, g: Psl2Elt) -> "Geodesic":
        """Image geodesic under a Moebius transformation, computed from the
        symmetric functions of the ideal endpoints (stays rational)."""
        a, b, c, d = (Fraction(v) for v in g.tuple())
        if self.kind == "v":
            e1 = _moebius_boundary(g, self.pos)
            e2 = _moebius_boundary(g, None)
            return geodesic_from_boundary(e1, e2)
        s = 2 * self.pos
        p = self.pos**2 - self.r2
        q = c * c * p + c * d * s + d * d
        if q == 0:
            # -d/c is an ideal endpoint; its partner maps to a finite value
            other = s + d / c
            return geodesic_from_boundary(_moebius_boundary(g, other), None)
        p2 = (a * a * p + a * b * s + b * b) / q
        s2 = (2 * a * c * p + (a * d + b * c) * s + 2 * b * d) / q
        center = s2 / 2
        r2 = center**2 - p2
        if r2 <= 0:
            raise ValueError("transformed geodesic degenerated")
        return Geodesic("c", center, r2)


def _moebius_boundary(g: Psl2Elt, x: Fraction | None) -> Fraction | None:
    """Boundary action; None stands for infinity."""
    if x is None:
        if g.c == 0:
            return None
        return Fraction(g.a, g.c)
    den = g.c * x + g.d
    if den == 0:
        return None
    return (g.a * x + g.b) / den


def geodesic_from_boundary(e1: Fraction | None, e2: Fraction | None) -> Geodesic:
    """Geodesic with the given ideal endpoints (None = infinity)."""
    if e1 is None and e2 is None:
        raise ValueError("both endpoints at infinity")
    if e1 is None:
        return Geodesic("v", e2)
    if e2 is None:
        return Geodesic("v", e1)
    if e1 == e2:
        raise ValueError("coincident ideal endpoints")
    center = (e1 + e2) / 2
    return Geodesic("c", center, ((e1 - e2) / 2) ** 2)


def geodesic_between_cusps(c1: Cusp, c2: Cusp) -> Geodesic:
    return geodesic_from_boundary(
        None if c1.q == 0 else Fraction(c1.p, c1.q),
        None if c2.q == 0 else Fraction(c2.p, c2.q),
    )


def geodesic_through(p: ExactPoint, q: ExactPoint) -> Geodesic:
    """The geodesic through two distinct rational points."""
    if p == q:
        raise ValueError("need two distinct points")
    if p.x == q.x:
        return Geodesic("v", p.x)
    center = (q.x**2 + q.y**2 - p.x**2 - p.y**2) / (2 * (q.x - p.x))
    return Geodesic("c", center, (p.x - center) ** 2 + p.y**2)


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

Q3_ZERO: Q3 = (Fraction(0), Fraction(0))


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
    corresponding side-pairing generator.  A walk that ends anywhere else
    than the distinguished label is the verdict that g is not in the
    subgroup.
    """
    system = poly.system
    ss, su = system.sigma_s, system.sigma_u
    edge_v0 = poly.graph.edge_v0
    cuts = poly.cut_vertices
    feat_pos = poly.feature_index

    word: GenWord = []
    label = system.distinguished
    for gen, e in decompose_su(g):
        steps = [("S", 1)] if gen == "S" else [("U", 1)] * e
        for letter, _ in steps:
            if letter == "S":
                nxt = ss[label]
                if nxt == label:
                    word.append((feat_pos[("e2", label)], 1))
                elif edge_v0[label] in cuts:
                    orbit_min = min(label, nxt)
                    exp = -1 if label == orbit_min else 1
                    word.append((feat_pos[("cut", edge_v0[label])], exp))
                label = nxt
            else:
                nxt = su[label]
                if nxt == label:
                    word.append((feat_pos[("e3", label)], -1))
                label = nxt
    if label != system.distinguished:
        raise _not_member(system, g, label)
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


def _param(geod: Geodesic, x: Fraction, y2: Fraction) -> Fraction:
    """Strictly monotone coordinate along a geodesic (x on circles, y^2 on
    vertical lines)."""
    return y2 if geod.kind == "v" else x


def _trace(poly, z0: ExactPoint, z: ExactPoint,
           record: list | None = None) -> tuple[ExactPoint, GenWord]:
    sides = poly.trace_sides()
    gens = poly.generators
    word: GenWord = []
    t = z
    geod = geodesic_through(z0, z)
    ax, ay2 = z0.x, z0.y**2

    for _ in range(_MAX_TRACE_STEPS):
        if record is not None:
            record.append((geod, t))
        tx, ty2 = t.x, t.y**2
        if poly.contains(tx, ty2):
            word = reduce_word(word, gens)
            if act_point(evaluate_word(gens, word), t) != z:
                raise ValueError("internal error: trace postcondition failed")
            return t, word

        pa = _param(geod, ax, ay2)
        pt = _param(geod, tx, ty2)
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

        _, kind, side, px, py2 = best
        if kind == "side":
            gi, ge = side.gen, side.gen_exp
            r = gens[gi][0] ** ge
            word.append((gi, -ge))
        else:
            order = side.ell_order
            gi = side.gen
            if order == 2:
                ge = 1
                r = gens[gi][0]
            else:
                ge = _pick_rotation(poly, geod, dsign, side, px, py2)
                r = gens[gi][0] ** ge
            word.append((gi, -ge))
        t = act_point(r, t)
        ax, ay2 = act_quad(r, px, py2)
        geod = geod.transform(r)
    raise TraceDegenerateError("step budget exhausted")


def _side_crossing(geod: Geodesic, side, pa, pt, dsign):
    """Intersection of the travel segment with one polygon side.

    Returns (param, "side" | "vertex", side, x, y2) or None.  Crossings are
    strict between the segment ends; hitting an elliptic endpoint of the side
    is reported as a vertex hit.
    """
    sg = side.geodesic
    if sg == geod:
        return None
    # intersection point of the two geodesics
    if geod.kind == "v" and sg.kind == "v":
        return None
    if geod.kind == "v":
        x = geod.pos
        y2 = sg.r2 - (x - sg.pos) ** 2
    elif sg.kind == "v":
        x = sg.pos
        y2 = geod.r2 - (x - geod.pos) ** 2
    else:
        if sg.pos == geod.pos:
            return None  # concentric circles never cross in H
        x = (geod.r2 - sg.r2 + sg.pos**2 - geod.pos**2) / (2 * (sg.pos - geod.pos))
        y2 = geod.r2 - (x - geod.pos) ** 2
    if y2 <= 0:
        return None

    # within the travel segment, strictly
    p = _param(geod, x, y2)
    if not ((p - pa) * dsign > 0 and (pt - p) * dsign > 0):
        return None

    # within the side segment
    sp = _param(sg, x, y2)
    lo, lo_ell, hi, hi_ell = side.lo, side.lo_ell, side.hi, side.hi_ell
    if lo is not None:
        if sp < lo or (sp == lo and not lo_ell):
            return None
        if sp == lo and lo_ell:
            return (p, "vertex", side, x, y2)
    if hi is not None:
        if sp > hi or (sp == hi and not hi_ell):
            return None
        if sp == hi and hi_ell:
            return (p, "vertex", side, x, y2)
    return (p, "side", side, x, y2)


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
    """Unit-free tangent direction ((a+b sqrt3), (c+d sqrt3)) at a point with
    y = yroot3 * sqrt(3), oriented along increasing parameter * dsign."""
    if geod.kind == "v":
        return (Q3_ZERO, (Fraction(dsign), Fraction(0)))
    # tangent to the circle: (y, center - x), x-component sign = dsign
    return ((Fraction(0), dsign * yroot3), (dsign * (geod.pos - x), Fraction(0)))


def _side_direction(side, vx: Fraction, yroot3: Fraction):
    """Direction from the elliptic vertex along the side toward its cusp end."""
    sg = side.geodesic
    target = side.cusp_boundary_value  # Fraction or None (= infinity)
    if sg.kind == "v":
        toward_inf = target is None
        return (Q3_ZERO, (Fraction(1 if toward_inf else -1), Fraction(0)))
    sign = 1 if target > vx else -1
    return ((Fraction(0), sign * yroot3), (sign * (sg.pos - vx), Fraction(0)))


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
