"""Polygon JSON stays byte-identical: SHA-256 of ``to_json`` against the
digests recorded in perfbench/golden.json (read only).  The composite levels
exercise the per-prime-power P^1 tables; gamma(31) and gamma0(10007) give
the template writer its widest integers and most elliptic endpoints among
the cheap groups."""

import hashlib
import json
import os

import pytest

from modpoly.cosets import build_system
from modpoly.polygon import build_polygon, to_json

GOLDEN = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "golden.json")


@pytest.mark.parametrize("family, level", [("gamma0", 11), ("gamma", 5), ("gamma0", 1009),
                                           ("gamma1", 210), ("gamma_upper1", 330),
                                           ("gamma0", 15015), ("gamma", 31),
                                           ("gamma0", 10007)])
def test_polygon_json_matches_golden_digest(family, level):
    with open(GOLDEN) as handle:
        expected = json.load(handle)["polygon_sha256"][f"{family}({level})"]
    text = to_json(build_polygon(build_system(family, level)))
    assert hashlib.sha256(text.encode()).hexdigest() == expected
