"""The bipartite cuboid graph of a coset system: surface invariants,
normality and the graph writers.

By Kulkarni's bijection the graph is the pair (sigma_s, sigma_u) itself, so
every function here takes the CosetSystem.  Edges are the cosets.  Type-(0)
vertices are the orbits of the order-2 generator action (valency 1 or 2);
type-(1) vertices are the orbits of the order-3 action (valency 1 or 3),
each trivalent orbit carrying the cyclic order (x, x.U, x.U^2).  Only the
two writers enumerate the orbits; a vertex is named by the smallest edge
label in its orbit, which keeps every output canonical.
"""

from __future__ import annotations

from typing import NamedTuple

from .cosets import CosetSystem
from .jsonout import extend_array, int_array


def _orbits(perm: list[int]) -> tuple[list[tuple[int, ...]], list[int]]:
    """The orbits of sigma_s or sigma_u, the type-(0) or type-(1) vertices:
    each named by its smallest edge and listed in increasing order of it, a
    trivalent orbit in the cyclic order (x, x.U, x.U^2); and each edge's
    orbit index.  Orbits are tuples: immutable, and not tracked by the
    garbage collector once they hold only ints."""
    orbits: list[tuple[int, ...]] = []
    orbit_of = [-1] * len(perm)
    for e in range(len(perm)):
        if orbit_of[e] != -1:
            continue
        f = perm[e]
        orbit = (e,) if f == e else (e, f) if perm[f] == e else (e, f, perm[f])
        for x in orbit:
            orbit_of[x] = len(orbits)
        orbits.append(orbit)
    return orbits, orbit_of


class SurfaceInvariants(NamedTuple):
    n: int
    e2: int
    e3: int
    cusp_count: int
    cusp_widths: tuple[int, ...]
    betti: int
    genus: int
    n_generators: int


def betti_number(n: int, e2: int, e3: int, cusps: int) -> int:
    """The Betti number from the Euler characteristic of n edges, (n + e2) / 2
    type-(0) and (n + 2 e3) / 3 type-(1) vertices; betti + 1 - cusps must be twice the genus."""
    betti = n - ((n + e2) // 2 + (n + 2 * e3) // 3) + 1
    if (betti + 1 - cusps) % 2 != 0 or betti + 1 - cusps < 0:
        raise ValueError("inconsistent Betti/cusp data")
    return betti


def graph_invariants(system: CosetSystem) -> SurfaceInvariants:
    """Surface data read off the graph: elliptic counts are the fixed points
    of the two actions, cusps are the orbits of the T-action (their lengths,
    the cusp widths, are the system's T-cycles), the Betti number comes from
    the Euler characteristic (betti_number)."""
    n = system.n
    ss, su = system.sigma_s, system.sigma_u
    e2 = sum(1 for i in range(n) if ss[i] == i)
    e3 = sum(1 for i in range(n) if su[i] == i)
    t_cycle, t_pos = system.t_cycle, system.t_pos
    widths = sorted(len(t_cycle[x]) for x in range(n) if t_pos[x] == 0)
    cusps = len(widths)
    betti = betti_number(n, e2, e3, cusps)
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


def distinguished_edge_orbit(system: CosetSystem) -> list[int]:
    """Edges reachable from the distinguished one under structure-preserving
    graph automorphisms."""
    ss, su = system.sigma_s, system.sigma_u
    r = system.distinguished
    return [e for e in range(system.n)
            if _propagate(ss, su, r, ss, su, e, system.n) is not None]


def is_normal(system: CosetSystem) -> bool:
    """The subgroup is normal iff the automorphism group moves the
    distinguished edge r onto every edge.  Automorphisms commute with
    sigma_s and sigma_u, which act transitively, so that holds as soon as
    automorphisms send r to sigma_s(r) and to sigma_u(r): two propagations,
    linear in the index."""
    ss, su = system.sigma_s, system.sigma_u
    r = system.distinguished
    return all(_propagate(ss, su, r, ss, su, e, system.n) is not None for e in (ss[r], su[r]))


def pointed_isomorphic(g1: CosetSystem, g2: CosetSystem) -> bool:
    """Do the pointed graphs agree (same subgroup, not just conjugate)?"""
    if g1.n != g2.n:
        return False
    return _propagate(g1.sigma_s, g1.sigma_u, g1.distinguished,
                      g2.sigma_s, g2.sigma_u, g2.distinguished, g1.n) is not None


# a vertex orbit as the JSON array that opens at indent 4, one template per
# orbit length: an S-orbit has one or two edges, a U-orbit one or three
_ORBIT = (None, "[\n      %d\n    ]", "[\n      %d,\n      %d\n    ]",
          "[\n      %d,\n      %d,\n      %d\n    ]")


def to_json(system: CosetSystem) -> str:
    """The system's permutations, distinguished edge and vertex orbits, laid
    out by the template writer of ``jsonout``: byte for byte the text of
    json.dumps(sort_keys=True, indent=2) over the same data."""
    parts = [f'{{\n  "distinguished": {system.distinguished},\n  "n": {system.n},\n  "sigma_S": ',
             int_array(system.sigma_s, "  "), ',\n  "sigma_U": ', int_array(system.sigma_u, "  ")]
    for key, perm in ((',\n  "v0": ', system.sigma_s), (',\n  "v1": ', system.sigma_u)):
        parts.append(key)
        extend_array(parts, (_ORBIT[len(orbit)] % orbit for orbit in _orbits(perm)[0]), "  ")
    parts.append("\n}\n")
    return "".join(parts)


def to_dot(system: CosetSystem) -> str:
    """Graphviz output: circles for type-(0), triangles for type-(1),
    the distinguished edge bold."""
    v0, edge_v0 = _orbits(system.sigma_s)
    v1, edge_v1 = _orbits(system.sigma_u)
    lines = ["graph cuboid {"]
    lines.extend(f'  s{i} [shape=circle, label="{orbit[0]}"];' for i, orbit in enumerate(v0))
    lines.extend(f'  t{j} [shape=triangle, label="{orbit[0]}"];' for j, orbit in enumerate(v1))
    for e in range(system.n):
        style = ", style=bold" if e == system.distinguished else ""
        lines.append(f'  s{edge_v0[e]} -- t{edge_v1[e]} [label="{e}"{style}];')
    lines.append("}")
    return "\n".join(lines) + "\n"
