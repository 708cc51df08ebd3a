"""The template JSON writers emit exactly the bytes of json.dumps(sort_keys,
indent=2) over the reference data in oracles.py, on random families and
levels, and refuse a side kind that would need escaping or is unknown."""

import json

import pytest
from hypothesis import example, given, settings, strategies as st

from modpoly import cuboid, polygon
from modpoly.cosets import FAMILIES, build_system
from modpoly.jsonout import extend_array, int_array

from oracles import built_polygon, reference_graph_data, reference_polygon_data

groups = st.sampled_from(FAMILIES).flatmap(
    lambda family: st.tuples(st.just(family),
                             st.integers(1, 8 if family == "gamma" else 60)))


def dumps(data):
    return json.dumps(data, sort_keys=True, separators=(",", ": "), indent=2) + "\n"


@settings(max_examples=150, deadline=None)
@given(groups)
@example(("gamma0", 1))
def test_writers_match_json_dumps(group):
    poly = built_polygon(*group)
    assert polygon.to_json(poly) == dumps(reference_polygon_data(poly))
    assert cuboid.to_json(poly.system) == dumps(reference_graph_data(poly.system))


@settings(max_examples=150, deadline=None)
@given(st.lists(st.lists(st.integers(-10**30, 10**30), max_size=4), max_size=4))
def test_array_layout_matches_json_dumps(rows):
    # empty arrays never occur in a polygon or a graph, so the layout
    # helpers are checked on their own, [] included
    parts = ["{\n  \"rows\": "]
    extend_array(parts, (int_array(row, "    ") for row in rows), "  ")
    parts.append("\n}\n")
    assert "".join(parts) == dumps({"rows": rows})


@pytest.mark.parametrize("kind", ["bogus", 'even"', ""])
def test_unknown_side_kind_is_refused(kind):
    poly = polygon.build_polygon(build_system("gamma0", 11))
    poly.sides[3] = poly.sides[3]._replace(kind=kind)
    with pytest.raises(ValueError, match="internal error"):
        polygon.to_json(poly)
