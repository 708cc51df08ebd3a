"""Cutting the cuboid graph to a spanning tree and developing it into the
upper half-plane as a fundamental polygon with side pairings.

The base triangle has vertices 0, e^(i pi/3) and infinity: its sides are the
imaginary axis, the unit circle around 1, and the vertical line x = 1/2.
Crossing an uncut bivalent type-(0) vertex multiplies the developing matrix
on the right by S; stepping around a trivalent type-(1) vertex multiplies by
U, matching the counterclockwise order of triangles around a copy of
e^(i pi/3) (U maps i to (1+i)/2, on the line x = 1/2).

Boundary sides come in three flavours, one per kind of univalent vertex of
the cut tree: a full copy of the geodesic (0, infinity) for each cut, the two
halves of such a copy split at a copy of i for an order-2 elliptic vertex,
and an (arc, vertical) pair meeting at a copy of e^(i pi/3) with internal
angle 2 pi/3 for an order-3 elliptic vertex.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from fractions import Fraction

from .cosets import CosetSystem
from .cuboid import CuboidGraph, build_graph, graph_invariants
from .psl2 import CUSP_INF, CUSP_ZERO, IDENTITY, S, U, Cusp, Psl2Elt, act_cusp
from .reduce import (
    ExactPoint,
    Geodesic,
    act_quad,
    elliptic2_point,
    elliptic3_point,
    geodesic_between_cusps,
)

U2 = U * U
_MOVES = {"S": S, "U": U, "U2": U2}

# side kinds: copies of the model geodesic segments
#   even      (0, inf)            full copy, paired across a cut
#   odd_inf   (i, inf)            upper half of an axis copy
#   odd_zero  (i, 0)              lower half of an axis copy
#   e3_arc    (e^(i pi/3), 0)     arc side at an order-3 vertex
#   e3_line   (e^(i pi/3), inf)   vertical side at an order-3 vertex

# endpoint tags: ("cusp", Cusp) or ("ell", order, x, y2)
Endpoint = tuple


@dataclass
class Side:
    kind: str
    edge: int
    carrier: Psl2Elt
    start: Endpoint
    end: Endpoint
    geodesic: Geodesic
    pair: int = -1
    gen: int = -1
    gen_exp: int = 0
    # trace bookkeeping: parameter range on the side's geodesic (x for
    # circles, y^2 for vertical lines); None = unbounded toward a cusp
    lo: Fraction | None = None
    hi: Fraction | None = None
    lo_ell: bool = False
    hi_ell: bool = False
    ell_order: int | None = None
    cusp_boundary_value: Fraction | None = None


class CutTree:
    """Spanning structure: cut vertices plus a rooted traversal of all edges."""

    def __init__(self, graph: CuboidGraph, cuts: frozenset[int],
                 order: list[int], parent: list[tuple[int, str] | None]):
        self.graph = graph
        self.cuts = cuts
        self.order = order
        self.parent = parent
        self.root = graph.distinguished


def cut_to_tree(graph: CuboidGraph) -> CutTree:
    """Pick the cut set by BFS on the contracted graph whose vertices are the
    type-(1) vertices and whose edges are the bivalent type-(0) vertices;
    everything off the BFS forest gets cut.  Deterministic in the label order."""
    adj: list[list[tuple[int, int]]] = [[] for _ in graph.v1]
    bivalent = []
    for v0i, orbit in enumerate(graph.v0):
        if len(orbit) != 2:
            continue
        bivalent.append(v0i)
        e, f = orbit
        adj[graph.edge_v1[e]].append((v0i, graph.edge_v1[f]))
        adj[graph.edge_v1[f]].append((v0i, graph.edge_v1[e]))
    for lst in adj:
        lst.sort()

    root_y = graph.edge_v1[graph.distinguished]
    seen = [False] * len(graph.v1)
    seen[root_y] = True
    tree_v0: set[int] = set()
    queue = deque([root_y])
    while queue:
        y = queue.popleft()
        for v0i, z in adj[y]:
            if not seen[z]:
                seen[z] = True
                tree_v0.add(v0i)
                queue.append(z)
    cuts = frozenset(set(bivalent) - tree_v0)

    inv = graph_invariants(graph)
    if len(cuts) != inv.betti:
        raise ValueError("internal error: cut count differs from the Betti number")

    # rooted traversal of the edges, never crossing a cut
    n = graph.n
    ss, su = graph.sigma_s, graph.sigma_u
    order = [graph.distinguished]
    parent: list[tuple[int, str] | None] = [None] * n
    visited = [False] * n
    visited[graph.distinguished] = True
    queue = deque([graph.distinguished])
    while queue:
        e = queue.popleft()
        steps = []
        if su[e] != e:
            steps.append((su[e], "U"))
            steps.append((su[su[e]], "U2"))
        if ss[e] != e and graph.edge_v0[e] not in cuts:
            steps.append((ss[e], "S"))
        for f, letter in steps:
            if not visited[f]:
                visited[f] = True
                parent[f] = (e, letter)
                order.append(f)
                queue.append(f)
    if len(order) != n:
        raise ValueError("internal error: cut graph is not connected")
    return CutTree(graph, cuts, order, parent)


def develop(tree: CutTree) -> list[Psl2Elt]:
    """Assign the developing matrix to every edge: the root gets the
    identity, children multiply their parent's matrix by the move letter."""
    dev: list[Psl2Elt | None] = [None] * tree.graph.n
    dev[tree.root] = IDENTITY
    for e in tree.order[1:]:
        p, letter = tree.parent[e]
        dev[e] = dev[p] * _MOVES[letter]
    return dev


def generator_features(sigma_s, sigma_u, edge_v0, cuts):
    """Canonical list of generator-producing features, sorted by the smallest
    participating edge: cut vertices, order-2 fixed edges, order-3 fixed
    edges.  The rewriting path reads them from the polygon."""
    n = len(sigma_s)
    feats = []
    done_cuts = set()
    for e in range(n):
        if sigma_s[e] == e:
            feats.append((e, 1, "e2", e))
        elif edge_v0[e] in cuts and edge_v0[e] not in done_cuts:
            done_cuts.add(edge_v0[e])
            feats.append((min(e, sigma_s[e]), 0, "cut", edge_v0[e]))
        if sigma_u[e] == e:
            feats.append((e, 2, "e3", e))
    feats.sort()
    return feats


def materialize_generators(feats, dev, sigma_s):
    """Generator matrix and torsion order for each feature.  A cut between
    edges e < f yields dev[f] * S * dev[e]^-1 (mapping the side of e onto the
    side of f); fixed edges conjugate S or U^2 by their developing matrix."""
    gens = []
    for key_edge, _, kind, data in feats:
        if kind == "cut":
            gen = dev[sigma_s[key_edge]] * S * dev[key_edge].inv()
        elif kind == "e2":
            gen = dev[data] * S * dev[data].inv()
        else:
            gen = dev[data] * U2 * dev[data].inv()
        gens.append((gen, gen.torsion_order()))
    return gens


class SpecialPolygon:
    """Fundamental polygon as triangles, boundary sides, side pairing and an
    independent generator per pairing orbit."""

    def __init__(self, system, graph, tree, dev, triangles, sides, pairing,
                 generators, features, feature_index, base_point, constraints):
        self.system = system
        self.graph = graph
        self.tree = tree
        self.dev = dev
        self.triangles = triangles
        self.sides = sides
        self.pairing = pairing
        self.generators = generators
        self.features = features
        self.feature_index = feature_index
        self.base_point = base_point
        self.constraints = constraints
        self._trace_ready = False

    @property
    def cut_vertices(self):
        return self.tree.cuts

    def contains(self, x: Fraction, y2: Fraction, strict: bool = False) -> bool:
        """Exact membership of a point given as (x, y^2)."""
        for geod, sign in self.constraints:
            v = geod.eval_at(x, y2) * sign
            if v < 0 or (strict and v == 0):
                return False
        return True

    def trace_sides(self):
        if not self._trace_ready:
            _prepare_trace_data(self)
            self._trace_ready = True
        return self.sides

    def __repr__(self):
        return (f"SpecialPolygon(n={len(self.triangles)}, sides={len(self.sides)}, "
                f"generators={len(self.generators)})")


def _boundary_slots(graph, cuts):
    """Which of the three triangle sides (0 = arc, 1 = vertical at the
    order-3 corner, 2 = axis) lie on the polygon boundary for each edge."""
    ss, su = graph.sigma_s, graph.sigma_u

    def boundary(e, k):
        if k < 2:
            return su[e] == e
        return ss[e] == e or graph.edge_v0[e] in cuts

    def cross(e, k):
        if k == 0:
            return su[e], 1
        if k == 1:
            return su[su[e]], 0
        return ss[e], 2

    return boundary, cross


def _walk_boundary(graph, cuts):
    """Boundary slots in counterclockwise order: advance to the next slot of
    the same triangle and pivot through glued sides until a boundary slot."""
    boundary, cross = _boundary_slots(graph, cuts)
    start = None
    for e in range(graph.n):
        for k in range(3):
            if boundary(e, k):
                start = (e, k)
                break
        if start:
            break
    if start is None:
        raise ValueError("internal error: polygon has no boundary slots")
    seq = []
    cur = start
    budget = 6 * graph.n + 12
    while True:
        seq.append(cur)
        e, k = cur
        cand = (e, (k + 1) % 3)
        while not boundary(*cand):
            e2, k2 = cross(*cand)
            cand = (e2, (k2 + 1) % 3)
            budget -= 1
            if budget < 0:
                raise ValueError("internal error: boundary walk does not close")
        cur = cand
        budget -= 1
        if cur == start:
            return seq
        if budget < 0:
            raise ValueError("internal error: boundary walk does not close")


def _cusp_end(g: Psl2Elt, c: Cusp) -> Endpoint:
    return ("cusp", act_cusp(g, c))


def _ell_end(order: int, x: Fraction, y2: Fraction) -> Endpoint:
    return ("ell", order, x, y2)


def assemble(tree: CutTree, dev: list[Psl2Elt]) -> SpecialPolygon:
    """Build the polygon: one triangle per edge, boundary sides with exact
    endpoints, the pairing involution and one generator per pair."""
    graph = tree.graph
    system: CosetSystem = graph.system
    ss, su = graph.sigma_s, graph.sigma_u
    cuts = tree.cuts
    n = graph.n

    feats = generator_features(ss, su, graph.edge_v0, cuts)
    generators = materialize_generators(feats, dev, ss)
    feature_index: dict[tuple, int] = {}
    expected_order = {"cut": 0, "e2": 2, "e3": 3}
    for i, (_, _, kind, data) in enumerate(feats):
        gen, order = generators[i]
        if order != expected_order[kind]:
            raise ValueError(f"internal error: generator for {kind} has order {order}")
        if not system.member(gen):
            raise ValueError("internal error: emitted generator fails membership")
        feature_index[(kind, data)] = i

    sides: list[Side] = []
    slot_sides: dict[tuple, list[int]] = {}
    for e, k in _walk_boundary(graph, cuts):
        g = dev[e]
        created = []
        if k == 0:
            x3, y23 = elliptic3_point(g)
            sides.append(Side("e3_arc", e, g, _cusp_end(g, CUSP_ZERO),
                              _ell_end(3, x3, y23),
                              _transformed_geodesic(g, CUSP_ZERO, Cusp(2, 1))))
            created.append(len(sides) - 1)
        elif k == 1:
            x3, y23 = elliptic3_point(g)
            sides.append(Side("e3_line", e, g, _ell_end(3, x3, y23),
                              _cusp_end(g, CUSP_INF),
                              _transformed_geodesic(g, Cusp(1, 2), CUSP_INF)))
            created.append(len(sides) - 1)
        else:
            axis = _transformed_geodesic(g, CUSP_INF, CUSP_ZERO)
            if ss[e] == e:
                x2, y22 = elliptic2_point(g)
                sides.append(Side("odd_inf", e, g, _cusp_end(g, CUSP_INF),
                                  _ell_end(2, x2, y22), axis))
                sides.append(Side("odd_zero", e, g, _ell_end(2, x2, y22),
                                  _cusp_end(g, CUSP_ZERO), axis))
                created.extend([len(sides) - 2, len(sides) - 1])
            else:
                sides.append(Side("even", e, g, _cusp_end(g, CUSP_INF),
                                  _cusp_end(g, CUSP_ZERO), axis))
                created.append(len(sides) - 1)
        slot_sides[(e, k)] = created

    pairing = [-1] * len(sides)
    for (e, k), idxs in slot_sides.items():
        if k == 0:
            i = idxs[0]
            j = slot_sides[(e, 1)][0]
            gi = feature_index[("e3", e)]
            _pair(sides, pairing, i, j, gi, +1)
        elif k == 2 and ss[e] == e:
            i, j = idxs
            gi = feature_index[("e2", e)]
            _pair(sides, pairing, i, j, gi, +1, exp_back=+1)
        elif k == 2 and ss[e] != e:
            f = ss[e]
            if (f, 2) in slot_sides and e < f:
                i = idxs[0]
                j = slot_sides[(f, 2)][0]
                gi = feature_index[("cut", graph.edge_v0[e])]
                _pair(sides, pairing, i, j, gi, +1)
    if any(p < 0 for p in pairing):
        raise ValueError("internal error: unpaired boundary side")

    base = ExactPoint(Fraction(1, 4), Fraction(1))
    constraints = _constraints_from_sides(sides, base)

    poly = SpecialPolygon(system, graph, tree, dev,
                          [(e, dev[e]) for e in range(n)],
                          sides, pairing, generators, feats, feature_index,
                          base, constraints)
    if not poly.contains(base.x, base.y**2, strict=True):
        raise ValueError("internal error: base point is not interior")
    return poly


def _pair(sides, pairing, i, j, gen_idx, exp_forward, exp_back=None):
    pairing[i] = j
    pairing[j] = i
    sides[i].pair = j
    sides[j].pair = i
    sides[i].gen = gen_idx
    sides[j].gen = gen_idx
    sides[i].gen_exp = exp_forward
    sides[j].gen_exp = -exp_forward if exp_back is None else exp_back


def _transformed_geodesic(g: Psl2Elt, c1: Cusp, c2: Cusp) -> Geodesic:
    return geodesic_between_cusps(act_cusp(g, c1), act_cusp(g, c2))


def _constraints_from_sides(sides, base: ExactPoint):
    by2 = base.y**2
    out = []
    seen = set()
    for side in sides:
        geod = side.geodesic
        if geod in seen:
            continue
        seen.add(geod)
        v = geod.eval_at(base.x, by2)
        if v == 0:
            raise ValueError("internal error: base point lies on a side geodesic")
        out.append((geod, 1 if v > 0 else -1))
    return out


def _prepare_trace_data(poly: SpecialPolygon):
    """Attach parameter ranges and elliptic metadata to every side."""
    for side in poly.sides:
        geod = side.geodesic
        ends = []
        for endpoint in (side.start, side.end):
            if endpoint[0] == "cusp":
                cusp = endpoint[1]
                value = None if cusp.q == 0 else Fraction(cusp.p, cusp.q)
                if geod.kind == "v":
                    ends.append((Fraction(0) if value is not None else None, False))
                else:
                    ends.append((value, False))
                side.cusp_boundary_value = value
            else:
                _, order, x, y2 = endpoint
                side.ell_order = order
                param = y2 if geod.kind == "v" else x
                ends.append((param, True))
        (p1, e1), (p2, e2) = ends
        if p1 is None or (p2 is not None and p2 < p1):
            (p1, e1), (p2, e2) = (p2, e2), (p1, e1)
        side.lo, side.lo_ell = p1, e1
        side.hi, side.hi_ell = p2, e2


def build_polygon(system: CosetSystem) -> SpecialPolygon:
    """Full pipeline: graph, cut tree, developing map, assembled polygon."""
    graph = build_graph(system)
    tree = cut_to_tree(graph)
    dev = develop(tree)
    return assemble(tree, dev)


# ---------------------------------------------------------------------------
# validation

def validate_special(poly: SpecialPolygon) -> list[str]:
    """Check the polygon axioms symbolically; returns a list of violations
    (empty means valid)."""
    out = []
    sides = poly.sides
    m = len(sides)
    n = poly.graph.n

    if len(poly.triangles) != n:
        out.append(f"triangle count {len(poly.triangles)} != index {n}")
    if m != 2 * len(poly.generators):
        out.append(f"side count {m} != 2 * {len(poly.generators)} generators")

    pairing = poly.pairing
    for i in range(m):
        j = pairing[i]
        if not 0 <= j < m or pairing[j] != i:
            out.append(f"pairing is not an involution at side {i}")
            continue
        if j == i:
            out.append(f"side {i} is paired with itself")

    expected_partner = {"even": "even", "odd_inf": "odd_zero",
                        "odd_zero": "odd_inf", "e3_arc": "e3_line",
                        "e3_line": "e3_arc"}
    model_ends = {
        "even": (CUSP_INF, CUSP_ZERO),
        "odd_inf": (CUSP_INF, None),
        "odd_zero": (None, CUSP_ZERO),
        "e3_arc": (CUSP_ZERO, None),
        "e3_line": (None, CUSP_INF),
    }

    for i, side in enumerate(sides):
        if side.kind not in expected_partner:
            out.append(f"side {i} has unknown kind {side.kind}")
            continue
        j = pairing[i]
        if 0 <= j < m and sides[j].kind != expected_partner[side.kind]:
            out.append(f"side {i} ({side.kind}) paired with {sides[j].kind}")
        start_model, end_model = model_ends[side.kind]
        if start_model is not None and side.start != ("cusp", act_cusp(side.carrier, start_model)):
            out.append(f"side {i} start endpoint inconsistent with its carrier")
        if end_model is not None and side.end != ("cusp", act_cusp(side.carrier, end_model)):
            out.append(f"side {i} end endpoint inconsistent with its carrier")

    # boundary closes up
    for i, side in enumerate(sides):
        nxt = sides[(i + 1) % m]
        if side.end != nxt.start:
            out.append(f"boundary gap between side {i} and side {(i + 1) % m}")

    # each pairing generator maps its side onto the partner, reversing ends
    for i, side in enumerate(sides):
        j = pairing[i]
        if not 0 <= j < m or side.gen < 0:
            continue
        gen = poly.generators[side.gen][0] ** side.gen_exp
        if _map_endpoint(gen, side.start) != sides[j].end or \
           _map_endpoint(gen, side.end) != sides[j].start:
            out.append(f"generator of side {i} does not map it onto side {j}")

    # adjacency of elliptic pairs: partners meet at the elliptic vertex
    for i, side in enumerate(sides):
        if side.kind in ("odd_inf", "e3_arc"):
            j = pairing[i]
            if j != (i + 1) % m:
                out.append(f"elliptic pair ({i}, {j}) is not adjacent on the boundary")

    for k, (gen, order) in enumerate(poly.generators):
        if gen.torsion_order() != order:
            out.append(f"generator {k} order mismatch")
        if not poly.system.member(gen):
            out.append(f"generator {k} fails the membership check")

    return out


def _map_endpoint(g: Psl2Elt, endpoint: Endpoint) -> Endpoint:
    if endpoint[0] == "cusp":
        return ("cusp", act_cusp(g, endpoint[1]))
    _, order, x, y2 = endpoint
    nx, ny2 = act_quad(g, x, y2)
    return ("ell", order, nx, ny2)


# ---------------------------------------------------------------------------
# serialization

def _frac_str(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}" if f.denominator != 1 else str(f.numerator)


def _endpoint_json(endpoint: Endpoint):
    if endpoint[0] == "cusp":
        c = endpoint[1]
        return {"cusp": "oo" if c.q == 0 else f"{c.p}/{c.q}"}
    _, order, x, y2 = endpoint
    return {"elliptic": {"order": order, "x": _frac_str(x), "y2": _frac_str(y2)}}


def to_json(poly: SpecialPolygon) -> str:
    data = {
        "triangles": [list(g.tuple()) for _, g in poly.triangles],
        "sides": [
            {
                "kind": s.kind,
                "edge": s.edge,
                "carrier": list(s.carrier.tuple()),
                "endpoints": [_endpoint_json(s.start), _endpoint_json(s.end)],
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
        "base_point": [_frac_str(poly.base_point.x), _frac_str(poly.base_point.y)],
    }
    return json.dumps(data, sort_keys=True, separators=(",", ": "), indent=2) + "\n"


def to_svg(poly: SpecialPolygon, width: int = 640, clamp_height: float = 2.5) -> str:
    """Render the boundary sides, one colour per pairing orbit; rays toward
    infinity are clamped at a fixed height.  Presentation only."""
    xs = []
    for side in poly.sides:
        for endpoint in (side.start, side.end):
            if endpoint[0] == "cusp" and endpoint[1].q != 0:
                xs.append(endpoint[1].p / endpoint[1].q)
            elif endpoint[0] == "ell":
                xs.append(float(endpoint[2]))
    x_min = min(xs, default=0.0) - 0.3
    x_max = max(xs, default=1.0) + 0.3
    scale = width / (x_max - x_min)
    height = int(clamp_height * scale) + 20

    def to_screen(x: float, y: float) -> tuple[float, float]:
        return ((x - x_min) * scale, height - 10 - min(y, clamp_height) * scale)

    def endpoint_xy(side: Side, endpoint: Endpoint) -> tuple[float, float]:
        if endpoint[0] == "ell":
            return float(endpoint[2]), float(endpoint[3]) ** 0.5
        c = endpoint[1]
        if c.q == 0:
            geod = side.geodesic
            x = float(geod.pos)
            return x, clamp_height
        return c.p / c.q, 0.0

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<line x1="0" y1="{height - 10}" x2="{width}" y2="{height - 10}" '
        'stroke="#888" stroke-width="1"/>',
    ]
    for i, side in enumerate(poly.sides):
        pair_id = min(i, side.pair)
        hue = (pair_id * 137) % 360
        color = f"hsl({hue},70%,45%)"
        (x1, y1), (x2, y2) = (endpoint_xy(side, side.start), endpoint_xy(side, side.end))
        sx1, sy1 = to_screen(x1, y1)
        sx2, sy2 = to_screen(x2, y2)
        if side.geodesic.kind == "v":
            parts.append(f'<line x1="{sx1:.2f}" y1="{sy1:.2f}" x2="{sx2:.2f}" '
                         f'y2="{sy2:.2f}" stroke="{color}" stroke-width="2" fill="none"/>')
        else:
            r = float(side.geodesic.r2) ** 0.5 * scale
            large = 0
            sweep = 1 if x1 < x2 else 0
            parts.append(f'<path d="M {sx1:.2f} {sy1:.2f} A {r:.2f} {r:.2f} 0 {large} '
                         f'{sweep} {sx2:.2f} {sy2:.2f}" stroke="{color}" '
                         'stroke-width="2" fill="none"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
