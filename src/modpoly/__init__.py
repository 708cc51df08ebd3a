"""Coset graphs, special polygons and reduction for subgroups of PSL2(Z)."""

from .psl2 import IDENTITY, S, T, U, Cusp, Psl2Elt, act_cusp, decompose_su
from .cosets import (
    CosetSystem,
    MembershipError,
    build_from_oracle,
    build_gamma,
    build_gamma0,
    build_gamma1,
    build_gamma_upper0,
    build_gamma_upper1,
    build_system,
    p1_list,
    p1_normalize,
)
from .cuboid import CuboidGraph, SurfaceInvariants, build_graph, graph_invariants, is_normal, pointed_isomorphic
from .polygon import SpecialPolygon, assemble, build_polygon, cut_to_tree, develop, validate_special
from .reduce import ExactPoint, express, express_schreier, geodesic_through, locate_point

__version__ = "0.1.0"
