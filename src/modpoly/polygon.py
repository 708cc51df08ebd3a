"""The special polygon of a coset system: its edges (the cosets) cut to a
tree of U-orbits and developed into the upper half-plane as a fundamental
polygon with side pairings, from the permutations sigma_s and sigma_u alone.

The build has two layers.  `develop` is one breadth-first pass over the
U-orbits: it picks the S-pairs it crosses (the rest are cuts) and gives
each edge its developing matrix.  `assemble` reads the generators off the
cut pairs and fixed edges and walks the boundary.

The base triangle has vertices 0, e^(i pi/3) and infinity: its sides are the
imaginary axis, the unit circle around 1, and the vertical line x = 1/2.
Crossing an S-pair multiplies the developing matrix on the right by S;
stepping around a U-orbit of three edges multiplies by U, matching the
counterclockwise order of triangles around a copy of e^(i pi/3) (U maps i
to (1+i)/2, on the line x = 1/2).

Boundary sides come in three flavours: a full copy of the geodesic
(0, infinity) for each edge of a cut pair, the two halves of such a copy
split at a copy of i for an S-fixed edge, and an (arc, vertical) pair
meeting at a copy of e^(i pi/3) with internal angle 2 pi/3 for a U-fixed
edge.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd
from typing import NamedTuple

from .cosets import CosetSystem
from .cuboid import betti_number
from .jsonout import extend_array
from .psl2 import Psl2Elt, act_cusp
from .reduce import (
    BASE_POINT,
    I_POINT,
    RHO_POINT,
    Geodesic,
    Point,
    _exact_point,
    _rational,
    act,
    det2,
    geodesic_between_cusps,
    lift,
)

# side kinds: copies of the model geodesic segments
#   even      (0, inf)            full copy, paired across a cut
#   odd_inf   (i, inf)            upper half of an axis copy
#   odd_zero  (i, 0)              lower half of an axis copy
#   e3_arc    (e^(i pi/3), 0)     arc side at an order-3 vertex
#   e3_line   (e^(i pi/3), inf)   vertical side at an order-3 vertex
SIDE_KINDS = ("even", "odd_inf", "odd_zero", "e3_arc", "e3_line")
# the order of a side's elliptic vertex, None for a side between two cusps
_ELL_ORDER = {"even": None, "odd_inf": 2, "odd_zero": 2, "e3_arc": 3, "e3_line": 3}

# a boundary vertex: the cusp p/q as the pair (p, q), q >= 0, with infinity
# (1, 0), or an elliptic point as its point triple (n, m, k); either way its
# x is v[-2] / v[-1]
Vertex = tuple
INF: Vertex = (1, 0)

# (developing) matrices [[a, b], [c, d]] stored as sign-normalised tuples
# (a, b, c, d): c > 0, or c = 0 and d > 0
Matrix = tuple[int, int, int, int]

# to_svg's width in pixels and the height where it clamps rays toward infinity
SVG_WIDTH = 640
SVG_CLAMP_HEIGHT = 2.5


class Side(NamedTuple):
    """A boundary side, complete and immutable when it is made.  It holds
    only ints, strs and int tuples; its triangle's matrix is dev[edge], and
    the two sides that meet at a vertex share its tuple."""

    kind: str
    edge: int
    start: Vertex
    end: Vertex
    geodesic: Geodesic
    # index of the paired side, and the generator power that maps this side
    # onto it
    pair: int
    gen: int
    gen_exp: int

    @property
    def ell_order(self) -> int | None:
        """The order of the side's elliptic vertex, None for an even side."""
        return _ELL_ORDER[self.kind]


def _cusp(p: int, q: int) -> Vertex:
    """The cusp p/q for coprime p and q, such as the image of a reduced cusp
    under a unimodular matrix, as its vertex pair: only the sign is
    normalised."""
    if q > 0:
        return p, q
    if q < 0:
        return -p, -q
    return INF


def develop(system: CosetSystem) -> tuple[bytearray, list[Matrix]]:
    """Cut the coset system to a tree of U-orbits and develop it, in one
    breadth-first pass over the U-orbits on the two permutations alone.

    The pass starts at the orbit of the distinguished edge.  Each orbit
    tries its edges x in increasing min(x, sigma_s(x)); when the orbit of
    f = sigma_s(x) is not reached yet, the pair {x, f} is crossed and that
    orbit is developed from it.  crossed[e] is 1 exactly on the edges of
    the crossed pairs, and every other S-moved pair is a cut: an axis slot
    lies on the boundary exactly when its edge is not crossed.

    dev[e] is the developing matrix of edge e as a sign-normalised tuple
    (a, b, c, d): the identity at the distinguished edge, g*S at f when x
    has matrix g, and the matrix of an orbit's first edge times U and U^2
    at its other two.  The moves are sums on the entries of
    g = [[a, b], [c, d]]: g*S = (b, -a, d, -c), g*U = (-b, a+b, -d, c+d)
    and g*U^2 = (-a-b, a, -c-d, c).

    The cuts are counted against the Betti number of the orbit counts
    (cuboid.betti_number), which is checked against the cusp count."""
    n = system.n
    ss, su = system.sigma_s, system.sigma_u
    crossed = bytearray(n)
    dev: list[Matrix | None] = [None] * n
    # few values recur in many entries (4 447 distinct values in the 228 729
    # entries outside the small-int cache at gamma0(100003)), so each value
    # is stored as one int object
    one = {}.setdefault
    # the first edge of each reached orbit, in breadth-first order
    queue: list[int] = []

    def reach(y: int, a: int, b: int, c: int, d: int):
        """Develop the orbit of y from y's matrix, not yet sign-normalised."""
        if c < 0 or (c == 0 and d < 0):
            a, b, c, d = -a, -b, -c, -d
        dev[y] = (one(a, a), one(b, b), one(c, c), one(d, d))
        u = su[y]
        if u != y:
            p, q, r, t = -b, a + b, -d, c + d
            if r < 0 or (r == 0 and t < 0):
                p, q, r, t = -p, -q, -r, -t
            dev[u] = (one(p, p), one(q, q), one(r, r), one(t, t))
            p, q, r, t = -a - b, a, -c - d, c
            if r < 0 or (r == 0 and t < 0):
                p, q, r, t = -p, -q, -r, -t
            dev[su[u]] = (one(p, p), one(q, q), one(r, r), one(t, t))
        queue.append(y)

    reach(system.distinguished, 1, 0, 0, 1)
    e2 = e3 = 0
    for y in queue:
        u = su[y]
        if u == y:
            e3 += 1
            tries = (y,)
        else:
            # the orbit's edges by the smaller edge of their S-pair
            w = su[u]
            ky, ku, kw = min(y, ss[y]), min(u, ss[u]), min(w, ss[w])
            if ky > ku:
                y, u, ky, ku = u, y, ku, ky
            if ku > kw:
                u, w, ku = w, u, kw
            if ky > ku:
                y, u = u, y
            tries = (y, u, w)
        for x in tries:
            f = ss[x]
            if dev[f] is None:
                crossed[x] = crossed[f] = 1
                a, b, c, d = dev[x]
                reach(f, b, -a, d, -c)
            elif f == x:
                e2 += 1
    if None in dev:
        raise ValueError("internal error: cut graph is not connected")

    if (n - e2 - crossed.count(1)) // 2 != betti_number(n, e2, e3, system.t_pos.count(0)):
        raise ValueError("internal error: cut count differs from the Betti number")
    return crossed, dev


def _generator_table(system: CosetSystem, crossed: bytearray, dev: list[Matrix]):
    """The independent generators and the syllable each label emits, in one
    pass over the labels.

    Every cut pair and every fixed edge gives one generator, numbered by
    its smallest edge, a cut or order-2 generator before the
    order-3 one of the same edge.  A cut between edges e < f gives
    dev[f] * S * dev[e]^-1, which maps the side of e onto the side of f; a
    fixed edge conjugates S or U^2 by its developing matrix.  Each
    generator is one matrix made from the entries of the developing
    matrices, and each has its order and its membership checked.

    s_gen[e] is the syllable Schreier rewriting emits when S crosses from e: (i, 1) for
    an S-fixed e, (i, -1) / (i, +1) at the smaller / larger edge of a cut,
    None across a crossed pair.  u_gen[e] is (i, -1) for a U-fixed e, else None.
    """
    ss, su = system.sigma_s, system.sigma_u
    s_gen: list[tuple[int, int] | None] = [None] * system.n
    u_gen: list[tuple[int, int] | None] = [None] * system.n
    generators: list[tuple[Psl2Elt, int]] = []

    def add(gen: Psl2Elt, order: int) -> int:
        i = len(generators)
        if gen.torsion_order() != order:
            raise ValueError(f"internal error: generator {i} has order "
                             f"{gen.torsion_order()}, not {order}")
        if not system.member(gen):
            raise ValueError("internal error: emitted generator fails membership")
        generators.append((gen, order))
        return i

    make = Psl2Elt._make
    for e, (a, b, c, d) in enumerate(dev):
        f = ss[e]
        if f == e:
            # g * S * g^-1
            s_gen[e] = (add(make(a * c + b * d, -a * a - b * b, c * c + d * d, -a * c - b * d),
                             2), 1)
        elif e < f and not crossed[e]:
            p, q, r, t = dev[f]
            # dev[f] * S * g^-1
            i = add(make(p * c + q * d, -p * a - q * b, r * c + t * d, -r * a - t * b), 0)
            s_gen[e], s_gen[f] = (i, -1), (i, 1)
        if su[e] == e:
            # g * U^2 * g^-1
            u_gen[e] = (add(make(-a * c - a * d - b * d, a * a + a * b + b * b,
                                 -c * c - c * d - d * d, a * c + b * c + b * d), 3), -1)
    return generators, s_gen, u_gen


class SpecialPolygon:
    """Fundamental polygon: one triangle dev[e] * (0, e^(i pi/3), infinity)
    per edge, dev[e] an (a, b, c, d) tuple, the boundary sides with their
    pairing, and an independent generator per pairing orbit.  s_gen and
    u_gen give, per label, the generator syllable an S or U step emits (see
    _generator_table).

    The polygon is convex and has infinity as a vertex, so its boundary
    runs from infinity down the left wall (the side numbered left_wall),
    along the real axis in increasing x and up the right wall (the side
    before it).  Vertex j, the end of side (left_wall + j) mod M for
    j < M - 1, is finite, and its x never decreases in j; it stays put only
    along a vertical half of a wall split at an order-2 vertex.  Over the x
    range of each side between the walls the polygon is the part of the
    plane above that side's semicircle, so membership is a bisection on x
    and one or two dot products."""

    # the tracer's base point as a rational point
    base_point = _exact_point(BASE_POINT)

    def __init__(self, system, dev, sides, generators, s_gen, u_gen, left_wall):
        self.system = system
        self.dev = dev
        self.sides = sides
        self.generators = generators
        self.s_gen = s_gen
        self.u_gen = u_gen
        self.left_wall = left_wall

    def contains(self, x: Fraction, y2: Fraction, strict: bool = False) -> bool:
        """Exact membership of a point given as (x, y^2).  The benchmark's
        locate check (perfbench/checks.py) calls it on every located point.
        As ExactPoint does, it refuses with ValueError a coordinate that is
        not an int or a Fraction, and y^2 <= 0, a point not in H."""
        x, y2 = _rational("x", x), _rational("y2", y2)
        if y2 <= 0:
            raise ValueError(f"point with x = {x}, y^2 = {y2} is not in the upper half-plane")
        return self._contains(lift(x.numerator, x.denominator, y2.numerator, y2.denominator),
                              strict)

    def _contains(self, point: Point, strict: bool = False) -> bool:
        """Exact membership of a point triple (with strict, in the interior)."""
        return self._excluding_side(point, strict) is None

    def _excluding_side(self, point: Point, strict: bool = False) -> Side | None:
        """A boundary side that the point triple (n, m, k) lies beyond (with
        strict, beyond or on), or None when the point is in the polygon.

        A bisection on x = m/k finds the first vertex j with x_j >= x; the
        point is then above the polygon's boundary exactly when it is
        outside or on the circle of side j, whose triple (a > 0) is its own
        constraint.  At x = x_j the next side, which meets side j there, is
        tested too: a wall's vertical line, where the dot product is 0,
        stays out of the interior.  Left of the first vertex the left wall
        excludes the point, right of the last the right wall does."""
        n, m, k = point
        sides, left = self.sides, self.left_wall
        count = len(sides)
        # d has the sign of x_hi - x (cross-multiplied); it stays -1 while
        # hi is past the last finite vertex
        lo, hi, d = 0, count - 1, -1
        while lo < hi:
            mid = (lo + hi) >> 1
            end = sides[(left + mid) % count].end
            dm = end[-2] * k - m * end[-1]
            if dm < 0:
                lo = mid + 1
            else:
                hi, d = mid, dm
        if d < 0:
            return sides[left - 1]
        i = (left + hi) % count
        side = sides[i]
        if hi == 0 and d > 0:
            return side
        a, b, c = side.geodesic
        v = a * n + b * m + c * k
        if v < 0 or (strict and v == 0):
            return side
        if d == 0:
            side = sides[(i + 1) % count]
            a, b, c = side.geodesic
            v = a * n + b * m + c * k
            if v < 0 or (strict and v == 0):
                return side
        return None

    def __repr__(self):
        return (f"SpecialPolygon(n={len(self.dev)}, sides={len(self.sides)}, "
                f"generators={len(self.generators)})")


def _walk_boundary(system: CosetSystem, crossed: bytearray):
    """Boundary slots in counterclockwise order.  Slot k of edge e is a side
    of its triangle: 0 the arc and 1 the vertical at the order-3 corner,
    both on the boundary when e is U-fixed, and 2 the axis, on the boundary
    when e is not crossed (S-fixed or cut).  The walk advances to
    the next slot of the same triangle and pivots through glued sides (slot
    0 of e is glued to slot 1 of sigma_u(e), slot 1 to slot 0 of
    sigma_u^2(e), slot 2 to slot 2 of sigma_s(e)) until a boundary slot."""
    ss, su = system.sigma_s, system.sigma_u
    for e in range(system.n):
        if su[e] == e:
            k = 0
            break
        if not crossed[e]:
            k = 2
            break
    else:
        raise ValueError("internal error: polygon has no boundary slots")
    start = e, k
    seq = []
    budget = 6 * system.n + 12
    while True:
        seq.append((e, k))
        k = (k + 1) % 3
        while not (su[e] == e if k < 2 else not crossed[e]):
            if k == 0:
                e, k = su[e], 2
            elif k == 1:
                e, k = su[su[e]], 1
            else:
                e, k = ss[e], 0
            budget -= 1
            if budget < 0:
                raise ValueError("internal error: boundary walk does not close")
        budget -= 1
        if e == start[0] and k == start[1]:
            return seq
        if budget < 0:
            raise ValueError("internal error: boundary walk does not close")


def assemble(system: CosetSystem, crossed: bytearray, dev: list[Matrix]) -> SpecialPolygon:
    """Build the polygon: one triangle per edge, boundary sides with exact
    endpoints, each paired with its partner by one generator.

    The generator of a side comes from the label table: an even side of e
    gets (i, -x) for s_gen[e] = (i, x), both halves of an axis at an
    order-2 vertex get (i, +1), and the arc and vertical sides at an order-3
    vertex get (i, +1) and (i, -1).  Elliptic partners are adjacent on the
    boundary, the odd_inf and e3_arc side first; an even side of e pairs
    with the even side of sigma_s(e).  Each side makes the vertex it starts
    at and ends at the next side's, so two sides that meet share one
    vertex tuple."""
    ss = system.sigma_s
    generators, s_gen, u_gen = _generator_table(system, crossed, dev)

    slots = _walk_boundary(system, crossed)
    # where each axis slot's first side will sit, so an even side can name
    # its partner when it is made
    axis_side: dict[int, int] = {}
    m = 0
    for e, k in slots:
        if k == 2:
            axis_side[e] = m
        m += 2 if k == 2 and ss[e] == e else 1
    if m != 2 * len(generators):
        raise ValueError("internal error: unpaired boundary side")

    # each side ends where the next one starts; the side that leaves
    # infinity, an e3_arc or an axis side, is the left wall, where the
    # boundary in x order starts
    sides: list[Side] = []
    left_wall = None
    made = _side_data(dev, slots, ss, axis_side, m, s_gen, u_gen)
    first = last = next(made)
    for data in chain(made, (first,)):
        kind, edge, start, geodesic, pair, gen, gen_exp = last
        if start == INF:
            left_wall = len(sides)
        sides.append(Side(kind, edge, start, data[2], geodesic, pair, gen, gen_exp))
        last = data

    if left_wall is None:
        raise ValueError("internal error: no side leaves infinity")
    poly = SpecialPolygon(system, dev, sides, generators, s_gen, u_gen, left_wall)
    if not poly._contains(BASE_POINT, strict=True):
        raise ValueError("internal error: base point is not interior")
    return poly


def _side_data(dev, slots, ss, axis_side, m, s_gen, u_gen):
    """(kind, edge, start, geodesic, pair, gen, gen_exp) of each of the m
    sides in boundary order, made from its slot's matrix g = dev[e], see
    assemble.  They are made one at a time: a list of them all, freed once
    the sides exist, left its memory scattered among the sides (3.6 MB at
    gamma0(100003)), which raised the resident size of later builds."""
    i = 0
    for e, k in slots:
        a, b, c, d = dev[e]
        # each cusp image gives both a vertex and the side geodesic; g is
        # unimodular, so g * (p : q) is coprime for coprime p and q:
        # g(0) = b/d, g(oo) = a/c, and the far ends g(2) and g(1/2) of the
        # model arc (0, 2) and vertical line (1/2, oo).  The elliptic
        # vertices g(e^(i pi/3)) and g(i) are the images of the triples
        # (2, 1, 2) and (1, 0, 1) under the symmetric square of g (reduce.act)
        if k == 0:
            zero = _cusp(b, d)
            yield ("e3_arc", e, zero, geodesic_between_cusps(zero, _cusp(2 * a + b, 2 * c + d)),
                   (i + 1) % m, u_gen[e][0], 1)
        elif k == 1:
            rho = (2 * (a * a + a * b + b * b), 2 * a * c + a * d + b * c + 2 * b * d,
                   2 * (c * c + c * d + d * d))
            yield ("e3_line", e, rho,
                   geodesic_between_cusps(_cusp(a + 2 * b, c + 2 * d), _cusp(a, c)),
                   (i - 1) % m, *u_gen[e])
        else:
            inf = _cusp(a, c)
            axis = geodesic_between_cusps(inf, _cusp(b, d))
            gi, x = s_gen[e]
            if ss[e] == e:
                yield "odd_inf", e, inf, axis, i + 1, gi, 1
                i += 1
                yield ("odd_zero", e, (a * a + b * b, a * c + b * d, c * c + d * d),
                       axis, i - 1, gi, 1)
            else:
                yield "even", e, inf, axis, axis_side[ss[e]], gi, -x
        i += 1


def build_polygon(system: CosetSystem) -> SpecialPolygon:
    """Full pipeline: the developing pass, then the assembled polygon."""
    crossed, dev = develop(system)
    return assemble(system, crossed, dev)


# ---------------------------------------------------------------------------
# validation

def validate_special(poly: SpecialPolygon) -> list[str]:
    """Check the polygon axioms symbolically; returns a list of violations
    (empty means valid).  Each side's ends are mapped from the model
    segment by its triangle's matrix, a Psl2Elt made here from dev[edge],
    and each cusp image is fully reduced by act_cusp, apart from the
    sign-only normalisation assemble uses."""
    out = []
    sides = poly.sides
    m = len(sides)
    n = poly.system.n

    if len(poly.dev) != n:
        out.append(f"triangle count {len(poly.dev)} != index {n}")
    if m != 2 * len(poly.generators):
        out.append(f"side count {m} != 2 * {len(poly.generators)} generators")

    for i, side in enumerate(sides):
        j = side.pair
        if not 0 <= j < m or sides[j].pair != i:
            out.append(f"pairing is not an involution at side {i}")
            continue
        if j == i:
            out.append(f"side {i} is paired with itself")

    expected_partner = {"even": "even", "odd_inf": "odd_zero",
                        "odd_zero": "odd_inf", "e3_arc": "e3_line",
                        "e3_line": "e3_arc"}
    zero = (0, 1)
    model_ends = {
        "even": (INF, zero),
        "odd_inf": (INF, I_POINT),
        "odd_zero": (I_POINT, zero),
        "e3_arc": (zero, RHO_POINT),
        "e3_line": (RHO_POINT, INF),
    }

    for i, side in enumerate(sides):
        if side.kind not in expected_partner:
            out.append(f"side {i} has unknown kind {side.kind}")
            continue
        j = side.pair
        if 0 <= j < m and sides[j].kind != expected_partner[side.kind]:
            out.append(f"side {i} ({side.kind}) paired with {sides[j].kind}")
        carrier = Psl2Elt._make(*poly.dev[side.edge])
        start_model, end_model = model_ends[side.kind]
        if side.start != _map_vertex(carrier, start_model):
            out.append(f"side {i} start endpoint inconsistent with its carrier")
        if side.end != _map_vertex(carrier, end_model):
            out.append(f"side {i} end endpoint inconsistent with its carrier")

    # boundary closes up
    for i, side in enumerate(sides):
        nxt = sides[(i + 1) % m]
        if side.end != nxt.start:
            out.append(f"boundary gap between side {i} and side {(i + 1) % m}")

    # consecutive cusp vertices of the boundary, infinity = 1/0 included,
    # are Farey neighbours: every side of a triangle dev[e] * Delta runs
    # between g(0) and g(oo) or meets them at an elliptic vertex
    cusps = [(i, side.start) for i, side in enumerate(sides) if len(side.start) == 2]
    for (i, (p, q)), (j, (r, s)) in zip(cusps, cusps[1:] + cusps[:1]):
        if abs(p * s - r * q) != 1:
            out.append(f"cusps {p}/{q} and {r}/{s} at the starts of sides {i} and {j} "
                       "are not Farey neighbours")

    # from the side that leaves infinity, finite vertex x increases along
    # every semicircle side and stays put only along the vertical half of a
    # wall split at an order-2 vertex, the second or the second to last side
    left = poly.left_wall
    if not 0 <= left < m or sides[left].start != INF:
        out.append(f"left wall {left} does not leave infinity")
    else:
        prev = None
        for j in range(m - 1):
            side = sides[(left + j) % m]
            x = side.end[-2:]
            if x[1] == 0:
                out.append(f"finite vertex {j} from the left wall is infinity")
                break
            if j and (det2(x, prev) <= 0 if side.geodesic[0] else
                      det2(x, prev) != 0 or j not in (1, m - 2)):
                out.append(f"vertex x does not increase along side {(left + j) % m}")
            prev = x

    # each pairing generator maps its side onto the partner, reversing ends
    for i, side in enumerate(sides):
        j = side.pair
        if not 0 <= j < m:
            continue
        gen = poly.generators[side.gen][0] ** side.gen_exp
        if _map_vertex(gen, side.start) != sides[j].end or \
           _map_vertex(gen, side.end) != sides[j].start:
            out.append(f"generator of side {i} does not map it onto side {j}")

    # adjacency of elliptic pairs: partners meet at the elliptic vertex
    for i, side in enumerate(sides):
        if side.kind in ("odd_inf", "e3_arc"):
            j = side.pair
            if j != (i + 1) % m:
                out.append(f"elliptic pair ({i}, {j}) is not adjacent on the boundary")

    for k, (gen, order) in enumerate(poly.generators):
        if gen.torsion_order() != order:
            out.append(f"generator {k} order mismatch")
        if not poly.system.member(gen):
            out.append(f"generator {k} fails the membership check")

    return out


def _map_vertex(g: Psl2Elt, vertex: Vertex) -> Vertex:
    """The image of a vertex under g: a cusp pair reduced by act_cusp, a
    point triple moved by reduce.act."""
    return act(g.tuple(), vertex) if len(vertex) == 3 else act_cusp(g, vertex)


# ---------------------------------------------------------------------------
# serialization

def _ratio_str(num: int, den: int) -> str:
    """num/den, den > 0, in lowest terms; an integer has no denominator."""
    g = gcd(num, den)
    num, den = num // g, den // g
    return f"{num}/{den}" if den != 1 else str(num)


def _vertex_text(vertex: Vertex, order: int | None) -> str:
    """A side endpoint as the JSON object that opens at indent 8; order is
    the side's elliptic order, written for an elliptic vertex."""
    if len(vertex) == 2:
        p, q = vertex
        cusp = "oo" if q == 0 else f"{p}/{q}"
        return f'{{\n          "cusp": "{cusp}"\n        }}'
    n, m, k = vertex
    return (f'{{\n          "elliptic": {{\n            "order": {order},\n'
            f'            "x": "{_ratio_str(m, k)}",\n'
            f'            "y2": "{_ratio_str(n * k - m * m, k * k)}"\n'
            '          }\n        }')


def _side_text(side: Side, carrier: Matrix) -> str:
    """A side and its triangle's matrix as the JSON object that opens at
    indent 4."""
    if side.kind not in SIDE_KINDS:
        raise ValueError(f"internal error: side kind {side.kind!r} is not one of {SIDE_KINDS}")
    a, b, c, d = carrier
    order = side.ell_order
    return (f'{{\n      "carrier": [\n        {a},\n        {b},\n        {c},\n'
            f'        {d}\n      ],\n      "edge": {side.edge},\n      "endpoints": [\n'
            f'        {_vertex_text(side.start, order)},\n'
            f'        {_vertex_text(side.end, order)}\n'
            f'      ],\n      "exponent": {side.gen_exp},\n      "generator": {side.gen},\n'
            f'      "kind": "{side.kind}",\n      "pair": {side.pair}\n    }}')


def to_json(poly: SpecialPolygon) -> str:
    """The polygon's triangles, sides, generators and base point, laid out
    by the template writer of ``jsonout``: byte for byte the text of
    json.dumps(sort_keys=True, indent=2) over the same data."""
    base, dev = poly.base_point, poly.dev
    parts = ['{\n  "base_point": [\n    "', _ratio_str(*base.x.as_integer_ratio()), '",\n    "',
             _ratio_str(*base.y.as_integer_ratio()), '"\n  ],\n  "generators": ']
    extend_array(parts, (f'{{\n      "matrix": [\n        {g.a},\n        {g.b},\n'
                         f'        {g.c},\n        {g.d}\n      ],\n      "order": {order}\n    }}'
                         for g, order in poly.generators), "  ")
    parts.append(',\n  "sides": ')
    extend_array(parts, (_side_text(side, dev[side.edge]) for side in poly.sides), "  ")
    parts.append(',\n  "triangles": ')
    extend_array(parts, (f"[\n      {a},\n      {b},\n      {c},\n      {d}\n    ]"
                         for a, b, c, d in dev), "  ")
    parts.append("\n}\n")
    return "".join(parts)


def to_svg(poly: SpecialPolygon) -> str:
    """Render the boundary sides, one colour per pairing orbit; rays toward
    infinity are clamped at SVG_CLAMP_HEIGHT.  Presentation only."""
    xs = [v[-2] / v[-1] for side in poly.sides for v in (side.start, side.end) if v[-1]]
    x_min = min(xs, default=0.0) - 0.3
    x_max = max(xs, default=1.0) + 0.3
    scale = SVG_WIDTH / (x_max - x_min)
    height = int(SVG_CLAMP_HEIGHT * scale) + 20

    def to_screen(x: float, y: float) -> tuple[float, float]:
        return ((x - x_min) * scale, height - 10 - min(y, SVG_CLAMP_HEIGHT) * scale)

    def endpoint_xy(side: Side, vertex: Vertex) -> tuple[float, float]:
        if len(vertex) == 3:
            n, m, k = vertex
            return m / k, (n * k - m * m) ** 0.5 / k
        p, q = vertex
        if q == 0:
            _, b, c = side.geodesic
            return -c / b, SVG_CLAMP_HEIGHT
        return p / q, 0.0

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{SVG_WIDTH}" height="{height}" '
        f'viewBox="0 0 {SVG_WIDTH} {height}">',
        f'<line x1="0" y1="{height - 10}" x2="{SVG_WIDTH}" y2="{height - 10}" '
        'stroke="#888" stroke-width="1"/>',
    ]
    for i, side in enumerate(poly.sides):
        pair_id = min(i, side.pair)
        hue = (pair_id * 137) % 360
        color = f"hsl({hue},70%,45%)"
        (x1, y1), (x2, y2) = (endpoint_xy(side, side.start), endpoint_xy(side, side.end))
        sx1, sy1 = to_screen(x1, y1)
        sx2, sy2 = to_screen(x2, y2)
        a, b, c = side.geodesic
        if a == 0:
            parts.append(f'<line x1="{sx1:.2f}" y1="{sy1:.2f}" x2="{sx2:.2f}" '
                         f'y2="{sy2:.2f}" stroke="{color}" stroke-width="2" fill="none"/>')
        else:
            r = ((b * b - 4 * a * c) / (4 * a * a)) ** 0.5 * scale
            sweep = 1 if x1 < x2 else 0
            parts.append(f'<path d="M {sx1:.2f} {sy1:.2f} A {r:.2f} {r:.2f} 0 0 '
                         f'{sweep} {sx2:.2f} {sy2:.2f}" stroke="{color}" '
                         'stroke-width="2" fill="none"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
