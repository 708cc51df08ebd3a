"""The polygon is immutable after construction: its sides refuse
assignment, adjacent sides share one vertex tuple, and concurrent locate and express --trace queries give the
sequential answers and leave every side exactly as it was built."""

import copy
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import pytest

from modpoly.cosets import build_system
from modpoly.polygon import build_polygon
from modpoly.reduce import ExactPoint, evaluate_word, express, locate_point

F = Fraction


def test_threaded_queries_leave_the_polygon_unchanged():
    poly = build_polygon(build_system("gamma0", 13))
    snapshot = copy.deepcopy(poly.sides)
    attributes = set(vars(poly))
    gens = poly.generators
    points = [ExactPoint(F(x, 7), F(1, y)) for x in range(-20, 21, 3) for y in (2, 5, 11)]
    elements = [evaluate_word(gens, [(i % len(gens), 1), ((3 * i + 1) % len(gens), -1)])
                for i in range(12)]

    def queries(_=None):
        return ([locate_point(poly, z) for z in points],
                [express(poly, g, use_trace=True) for g in elements])

    expected = queries()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            results = list(pool.map(queries, range(4), timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert results == [expected] * 4
    assert poly.sides == snapshot
    assert set(vars(poly)) == attributes


def test_sides_refuse_assignment():
    sides = build_polygon(build_system("gamma0", 13)).sides
    side = sides[0]
    for field, value in (("pair", 0), ("gen", 0), ("gen_exp", 1), ("lo", (0, 1)),
                         ("end", (0, 1))):
        with pytest.raises(AttributeError):
            setattr(side, field, value)
    # the vertex where two sides meet is one tuple, cusp and elliptic alike
    for i, side in enumerate(sides):
        assert side.end is sides[(i + 1) % len(sides)].start
    assert {len(side.start) for side in sides} == {2, 3}
