"""Coset graphs, special polygons and reduction for subgroups of PSL2(Z)."""

from .psl2 import IDENTITY, S, T, U, Psl2Elt, act_cusp
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
)
from .cuboid import SurfaceInvariants, graph_invariants, is_normal, pointed_isomorphic
from .polygon import SpecialPolygon, assemble, build_polygon, develop, validate_special
from .reduce import ExactPoint, express, express_schreier, locate_point

__version__ = "0.1.0"
