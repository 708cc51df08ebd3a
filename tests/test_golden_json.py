"""Polygon and graph output stay byte-identical.  The polygon's ``to_json``
is checked by SHA-256 against the digests recorded in perfbench/golden.json
(read only).  The composite levels exercise the per-prime-power P^1 tables;
gamma(31) and gamma0(10007) give the template writer its widest integers
and most elliptic endpoints among the cheap groups.  The graph writers
``cuboid.to_json`` and ``cuboid.to_dot`` are checked, through the ``graph``
command, against the digests kept below, recorded before their vertex
orbits moved out of a separate graph object."""

import hashlib
import json
import os

import pytest

from modpoly.cli import main
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


# (family, level, SHA-256 of cuboid.to_json, SHA-256 of cuboid.to_dot)
GRAPH_DIGESTS = [
    ("gamma0", 11, "dfb527445fa2c8fba489de1e22416eadc82086539a09fd83450e965675d6fbba",
     "970dc7ca1ca8c3d5b2578efc343ae2911359be9a1a63c47de87ff697f2f67b3c"),
    ("gamma", 5, "3dd14ef25595c3a26929e0be7183ccd91d059b68a2ad996383e663b27fec77fe",
     "46df60998c67d5459a8d12941a7c2a79aba5cb15a226346f924327623f48ed86"),
    ("gamma0", 1009, "47c7d794e7859e4bfc57ca4733b1485b537843d08dcd4fce139477c0c4d42305",
     "7febf0e3be18590ceac13894cb72a3214bb0444fe3a79982402574e053dc3d81"),
    ("gamma1", 210, "9ea35a3e9956717323b0f918ea4c4249fa6520dc459b14703fc8c01ae9160c9c",
     "fff466c52bb978a310b2e5bbc0111e6e2682bfe7b5e2df6e7ad66680a99976b2"),
    ("gamma_upper1", 330, "e3babc532583634408249be7fffbc10da25322eb5949c0b5826c7a97b9ab2ef7",
     "a5b9df33e33a82bfbbff1180359a8bc68586d61ef2cf607eb658920ed817e0ea"),
    ("gamma0", 15015, "55d22a041574edb3de0ab7904beed5cd4a674dd649fd1fb49e300f6ba38ab2aa",
     "4927ef671f563510a9c64988e5dc4cc3bc115de59b67d5659b10174297bc78b2"),
    ("gamma", 31, "0a68f8a3c8152f64911deca933c84fa91ef025b93a0acfdbe2fe03c2f721a878",
     "f21c1b78145cf963bbb2377b9efaf72762c5a6044894cd8a0c70c303bcd07b7a"),
    ("gamma_upper0", 25, "3581c60d75967880267ee910650ad2a7966982dc30ebab7a4fca137d215991be",
     "8843210ce3e8393975dc0e6d9d08963eb8e2d0da6e4188a4907c05cab0e6d78f"),
]


@pytest.mark.parametrize("family, level, json_sha, dot_sha", GRAPH_DIGESTS)
def test_graph_json_and_dot_match_recorded_digests(capsys, family, level, json_sha, dot_sha):
    for fmt, expected in (("json", json_sha), ("dot", dot_sha)):
        assert main(["graph", "--group", family, "--level", str(level), "--format", fmt]) == 0
        text = capsys.readouterr().out
        assert hashlib.sha256(text.encode()).hexdigest() == expected, fmt
