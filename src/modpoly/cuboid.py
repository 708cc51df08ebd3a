"""Bipartite cuboid graph of a coset system, surface invariants, normality.

Edges are the cosets.  Type-(0) vertices are the orbits of the order-2
generator action (valency 1 or 2); type-(1) vertices are the orbits of the
order-3 action (valency 1 or 3), each trivalent orbit carrying the cyclic
order (x, x.U, x.U^2).  Vertices are named by the smallest edge label in the
orbit, which keeps every construction canonical.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cosets import CosetSystem
from .jsonout import extend_array, int_array


class CuboidGraph:
    def __init__(self, system: CosetSystem):
        # the system validated its permutations when it was constructed
        n = system.n
        ss, su = system.sigma_s, system.sigma_u
        self.system = system
        self.n = n
        self.sigma_s = ss
        self.sigma_u = su
        self.distinguished = system.distinguished

        # vertex orbits are tuples: immutable, and not tracked by the
        # garbage collector once they hold only ints
        self.v0: list[tuple[int, ...]] = []
        self.edge_v0 = [-1] * n
        for e in range(n):
            if self.edge_v0[e] != -1:
                continue
            orbit = (e,) if ss[e] == e else (e, ss[e])
            for x in orbit:
                self.edge_v0[x] = len(self.v0)
            self.v0.append(orbit)

        self.v1: list[tuple[int, ...]] = []
        self.edge_v1 = [-1] * n
        for e in range(n):
            if self.edge_v1[e] != -1:
                continue
            orbit = (e,) if su[e] == e else (e, su[e], su[su[e]])
            for x in orbit:
                self.edge_v1[x] = len(self.v1)
            self.v1.append(orbit)

    def __repr__(self):
        return f"CuboidGraph(n={self.n}, v0={len(self.v0)}, v1={len(self.v1)})"


def build_graph(system: CosetSystem) -> CuboidGraph:
    return CuboidGraph(system)


@dataclass(frozen=True)
class SurfaceInvariants:
    n: int
    e2: int
    e3: int
    cusp_count: int
    cusp_widths: tuple[int, ...]
    betti: int
    genus: int
    n_generators: int


def graph_invariants(graph: CuboidGraph) -> SurfaceInvariants:
    """Surface data read off the graph: elliptic counts are the fixed points
    of the two actions, cusps are the orbits of the T-action (their lengths,
    the cusp widths, are the system's T-cycles), the Betti number comes from
    the Euler characteristic."""
    n = graph.n
    ss, su = graph.sigma_s, graph.sigma_u
    e2 = sum(1 for i in range(n) if ss[i] == i)
    e3 = sum(1 for i in range(n) if su[i] == i)
    t_cycle, t_pos = graph.system.t_cycle, graph.system.t_pos
    widths = sorted(len(t_cycle[x]) for x in range(n) if t_pos[x] == 0)
    cusps = len(widths)
    betti = n - (len(graph.v0) + len(graph.v1)) + 1
    if (betti + 1 - cusps) % 2 != 0 or betti + 1 - cusps < 0:
        raise ValueError("inconsistent Betti/cusp data")
    genus = (betti + 1 - cusps) // 2
    return SurfaceInvariants(
        n=n,
        e2=e2,
        e3=e3,
        cusp_count=cusps,
        cusp_widths=tuple(widths),
        betti=betti,
        genus=genus,
        n_generators=betti + e2 + e3,
    )


def _propagate(ss1, su1, e1, ss2, su2, e2, n) -> list[int] | None:
    """Unique equivariant edge map sending e1 -> e2, or None.

    Transitivity of <sigma_s, sigma_u> makes the extension deterministic:
    follow both permutations and fail on any clash.
    """
    img = [-1] * n
    hit = [False] * n
    img[e1] = e2
    hit[e2] = True
    stack = [e1]
    while stack:
        x = stack.pop()
        for p1, p2 in ((ss1, ss2), (su1, su2)):
            y = p1[x]
            z = p2[img[x]]
            if img[y] == -1:
                if hit[z]:
                    return None
                img[y] = z
                hit[z] = True
                stack.append(y)
            elif img[y] != z:
                return None
    return img


def distinguished_edge_orbit(graph: CuboidGraph) -> list[int]:
    """Edges reachable from the distinguished one under structure-preserving
    graph automorphisms."""
    ss, su = graph.sigma_s, graph.sigma_u
    r = graph.distinguished
    return [e for e in range(graph.n)
            if _propagate(ss, su, r, ss, su, e, graph.n) is not None]


def is_normal(graph: CuboidGraph) -> bool:
    """The subgroup is normal iff the automorphism group moves the
    distinguished edge r onto every edge.  Automorphisms commute with
    sigma_s and sigma_u, which act transitively, so that holds as soon as
    automorphisms send r to sigma_s(r) and to sigma_u(r): two propagations,
    linear in the index."""
    ss, su = graph.sigma_s, graph.sigma_u
    r = graph.distinguished
    return all(_propagate(ss, su, r, ss, su, e, graph.n) is not None for e in (ss[r], su[r]))


def pointed_isomorphic(g1: CuboidGraph, g2: CuboidGraph) -> bool:
    """Do the pointed graphs agree (same subgroup, not just conjugate)?"""
    if g1.n != g2.n:
        return False
    return _propagate(g1.sigma_s, g1.sigma_u, g1.distinguished,
                      g2.sigma_s, g2.sigma_u, g2.distinguished, g1.n) is not None


# a vertex orbit as the JSON array that opens at indent 4, one template per
# orbit length: an S-orbit has one or two edges, a U-orbit one or three
_ORBIT = (None, "[\n      %d\n    ]", "[\n      %d,\n      %d\n    ]",
          "[\n      %d,\n      %d,\n      %d\n    ]")


def to_json(graph: CuboidGraph) -> str:
    """The graph's permutations, distinguished edge and vertex orbits, laid
    out by the template writer of ``jsonout``: byte for byte the text of
    json.dumps(sort_keys=True, indent=2) over the same data."""
    parts = [f'{{\n  "distinguished": {graph.distinguished},\n  "n": {graph.n},\n  "sigma_S": ',
             int_array(graph.sigma_s, "  "), ',\n  "sigma_U": ', int_array(graph.sigma_u, "  "),
             ',\n  "v0": ']
    extend_array(parts, (_ORBIT[len(orbit)] % orbit for orbit in graph.v0), "  ")
    parts.append(',\n  "v1": ')
    extend_array(parts, (_ORBIT[len(orbit)] % orbit for orbit in graph.v1), "  ")
    parts.append("\n}\n")
    return "".join(parts)


def to_dot(graph: CuboidGraph) -> str:
    """Graphviz output: circles for type-(0), triangles for type-(1),
    the distinguished edge bold."""
    lines = ["graph cuboid {"]
    for i in range(len(graph.v0)):
        lines.append(f'  s{i} [shape=circle, label="{graph.v0[i][0]}"];')
    for j in range(len(graph.v1)):
        lines.append(f'  t{j} [shape=triangle, label="{graph.v1[j][0]}"];')
    for e in range(graph.n):
        style = ", style=bold" if e == graph.distinguished else ""
        lines.append(f'  s{graph.edge_v0[e]} -- t{graph.edge_v1[e]} [label="{e}"{style}];')
    lines.append("}")
    return "\n".join(lines) + "\n"
