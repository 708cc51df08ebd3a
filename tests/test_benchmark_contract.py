"""The library calls that the benchmark's correctness checks make keep
working: perfbench/checks.py calls SpecialPolygon.contains on every located
point and checks every traced express word, which nothing in the library
calls.  The benchmark's own inputs at gamma0(11) (its "build" workload,
seed 0) are located and traced, and both checks accept the outputs and
refuse a point moved out of the polygon and a wrong word.  checks.py and
workloads.py are imported as they are, from perfbench on sys.path."""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "perfbench"))

import checks  # noqa: E402
import workloads  # noqa: E402

from modpoly.psl2 import Psl2Elt  # noqa: E402
from modpoly.reduce import ExactPoint, express, locate_point  # noqa: E402

from oracles import built_polygon  # noqa: E402


def test_locate_and_traced_words_pass_the_benchmark_checks():
    w = workloads.WORKLOADS["build"]
    assert w.express_group == w.geo_group == ("gamma0", 11)
    poly = built_polygon(*w.geo_group)
    gens = checks.gen_tuples(poly)
    inputs = workloads.make_inputs(w, w.input_seed, gens, gens, Psl2Elt, ExactPoint)
    for z in inputs.points[:8]:
        point, word = locate_point(poly, z)
        assert checks.check_locate(poly, gens, z, point, word)
    moved = ExactPoint(point.x + 3, point.y)
    assert not checks.check_locate(poly, gens, z, moved, word)
    for g in inputs.trace[:8]:
        assert checks.check_word(gens, g, express(poly, g, use_trace=True))
    assert not checks.check_word(gens, inputs.trace[0], [])
