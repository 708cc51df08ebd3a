import json
import time

import pytest

import modpoly.cosets as cosets
from modpoly.cli import main
from modpoly.reduce import evaluate_word, reduce_word

from oracles import built_polygon


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_graph_json(capsys):
    code, out, _ = run(capsys, "graph", "--group", "gamma0", "--level", "2",
                       "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["n"] == 3
    assert data["distinguished"] == 0


def test_graph_whole_group(capsys):
    code, out, _ = run(capsys, "graph", "--group", "gamma", "--level", "1")
    assert code == 0
    assert json.loads(out)["n"] == 1


def test_graph_bad_level(capsys):
    code, _, err = run(capsys, "graph", "--group", "gamma0", "--level", "0")
    assert code == 1
    assert "level" in err


def test_graph_dot(capsys):
    code, out, _ = run(capsys, "graph", "--group", "gamma0", "--level", "3",
                       "--format", "dot")
    assert code == 0
    assert out.startswith("graph cuboid {")


def test_polygon_json_gamma1(capsys):
    code, out, _ = run(capsys, "polygon", "--group", "gamma", "--level", "1",
                       "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert len(data["triangles"]) == 1
    assert len(data["generators"]) == 2


def test_polygon_json_gamma5(capsys):
    code, out, _ = run(capsys, "polygon", "--group", "gamma", "--level", "5",
                       "--format", "json")
    assert code == 0
    assert len(json.loads(out)["triangles"]) == 60


def test_polygon_svg(capsys):
    import xml.etree.ElementTree as ET
    code, out, _ = run(capsys, "polygon", "--group", "gamma0", "--level", "11",
                       "--format", "svg")
    assert code == 0
    root = ET.fromstring(out)
    assert root.tag.endswith("svg")


def test_invariants(capsys):
    code, out, _ = run(capsys, "invariants", "--group", "gamma0", "--level", "11")
    assert code == 0
    data = json.loads(out)
    assert data["genus"] == 1
    assert data["cusps"] == 2


def test_generators(capsys):
    code, out, _ = run(capsys, "generators", "--group", "gamma0", "--level", "11")
    assert code == 0
    data = json.loads(out)
    assert len(data) == 3
    assert all(entry["order"] == 0 for entry in data)


def test_express_member(capsys):
    code, out, _ = run(capsys, "express", "--group", "gamma0", "--level", "11",
                       "--matrix", "1,1,0,1")
    assert code == 0
    data = json.loads(out)
    assert data["evaluates_to"] == data["matrix"] == [1, 1, 0, 1]
    assert data["word"]


def test_express_trace_flag(capsys):
    code, out, _ = run(capsys, "express", "--group", "gamma0", "--level", "11",
                       "--matrix", "1,1,0,1", "--trace")
    assert code == 0
    assert json.loads(out)["evaluates_to"] == [1, 1, 0, 1]


def test_express_matrix_with_a_negative_first_entry(capsys):
    # argparse reads "--matrix -1,0,0,-1" as a second option; the help says
    # to write --matrix=-1,0,0,-1, which is -I, the identity of PSL2(Z)
    code, out, _ = run(capsys, "express", "--group", "gamma0", "--level", "11",
                       "--matrix=-1,0,0,-1")
    assert code == 0
    data = json.loads(out)
    assert data["word"] == [] and data["evaluates_to"] == [1, 0, 0, 1]


def test_express_non_member(capsys):
    code, _, err = run(capsys, "express", "--group", "gamma", "--level", "2",
                       "--matrix", "1,1,0,1")
    assert code == 2
    assert "not in the subgroup" in err


def test_express_malformed_matrix(capsys):
    code, _, err = run(capsys, "express", "--group", "gamma0", "--level", "11",
                       "--matrix", "1,1,0")
    assert code == 1


def test_express_non_unimodular_matrix(capsys):
    code, _, err = run(capsys, "express", "--group", "gamma0", "--level", "11",
                       "--matrix", "1,1,1,1")
    assert code == 1


def test_locate(capsys):
    code, out, _ = run(capsys, "locate", "--group", "gamma0", "--level", "1",
                       "--x", "7/8", "--y", "3/8")
    assert code == 0
    data = json.loads(out)
    assert data["input"] == ["7/8", "3/8"]


def test_locate_bad_point(capsys):
    code, _, err = run(capsys, "locate", "--group", "gamma0", "--level", "1",
                       "--x", "1/2", "--y", "-1")
    assert code == 1


def test_locate_bad_fraction(capsys):
    code, _, err = run(capsys, "locate", "--group", "gamma0", "--level", "1",
                       "--x", "abc", "--y", "1")
    assert code == 1


def test_bench(capsys):
    code, out, _ = run(capsys, "bench", "--group", "gamma0", "--levels", "11,13")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    level, index, seconds = lines[0].split("\t")
    assert (level, index) == ("11", "12")
    float(seconds)


def test_bench_json(capsys):
    code, out, _ = run(capsys, "bench", "--group", "gamma0", "--levels", "11,13",
                       "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert [(row["level"], row["index"]) for row in rows] == [(11, 12), (13, 14)]
    for row in rows:
        poly = built_polygon("gamma0", row["level"])
        assert (row["command"], row["group"]) == ("bench", "gamma0")
        assert sorted(row["seconds"]) == ["assemble", "develop", "system"]
        assert all(s >= 0 for s in row["seconds"].values())
        assert (row["sides"], row["generators"]) == (len(poly.sides), len(poly.generators))
        assert sorted(set(row) - {"command", "group", "level", "seconds", "peak_rss_mb"}) == \
            ["entry_bits", "gc_collections", "generators", "index", "sides", "tracked_objects"]
        assert row["peak_rss_mb"] > 0


def test_bench_bad_levels(capsys):
    code, _, _ = run(capsys, "bench", "--group", "gamma0", "--levels", "x")
    assert code == 1


def test_unknown_group(capsys):
    code, _, _ = run(capsys, "graph", "--group", "nope", "--level", "2")
    assert code == 1


def test_deterministic_output(capsys):
    first = run(capsys, "polygon", "--group", "gamma0", "--level", "13")
    second = run(capsys, "polygon", "--group", "gamma0", "--level", "13")
    assert first == second
    third = run(capsys, "graph", "--group", "gamma1", "--level", "5", "--format", "dot")
    fourth = run(capsys, "graph", "--group", "gamma1", "--level", "5", "--format", "dot")
    assert third == fourth


def test_output_file(tmp_path, capsys):
    target = tmp_path / "graph.json"
    code, out, _ = run(capsys, "graph", "--group", "gamma0", "--level", "2",
                       "--output", str(target))
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["n"] == 3


def test_level_above_max_index_is_refused_before_building(capsys, monkeypatch):
    def never(*args):
        raise AssertionError("the system was built")

    for name in ("build_gamma0", "_p1_line", "factorize"):
        monkeypatch.setattr(cosets, name, never)
    start = time.perf_counter()
    code, out, err = run(capsys, "graph", "--group", "gamma0", "--level", "1000000000")
    assert time.perf_counter() - start < 0.5
    assert (code, out) == (1, "")
    assert "max_index" in err


@pytest.mark.parametrize("argv, message", [
    (["express", "--matrix", "1,1,0"], "4 comma-separated integers"),
    (["express", "--matrix", "1,1,0,1", "--explain"], "--trace"),
    (["locate", "--x", "1/2", "--y", "0"], "--y must be positive"),
])
def test_query_arguments_are_checked_before_building(capsys, monkeypatch, argv, message):
    def never(*args):
        raise AssertionError("the system was built")

    for name in ("build_gamma0", "_p1_line"):
        monkeypatch.setattr(cosets, name, never)
    command, *flags = argv
    code, out, err = run(capsys, command, "--group", "gamma0", "--level", "100003", *flags)
    assert (code, out) == (1, "")
    assert message in err


# [[1, 0], [-n, 1]] and the image of i under it, for n = 11 * 10^9: a run
# of n round the width-11 cusp 0 of gamma0(11), whose word has 5 * 10^9
# syllables
_N = 11 * 10**9


@pytest.mark.parametrize("argv", [
    ["express", "--matrix", f"1,0,{-_N},1"],
    ["locate", f"--x={-_N}/{1 + _N * _N}", f"--y=1/{1 + _N * _N}"],
])
def test_walk_past_the_bound_exits_2(capsys, argv):
    command, *flags = argv
    start = time.perf_counter()
    code, out, err = run(capsys, command, "--group", "gamma0", "--level", "11", *flags)
    assert time.perf_counter() - start < 0.05
    assert (code, out) == (2, "")
    assert "over MAX_WALK_STEPS" in err


@pytest.mark.parametrize("argv", [
    ["express", "--matrix", "1,1000000000,0,1"],
    ["locate", "--x", "1000000000", "--y", "1"],
])
def test_a_run_of_10_to_the_9_is_answered(capsys, argv):
    command, *flags = argv
    start = time.perf_counter()
    code, out, _ = run(capsys, command, "--group", "gamma0", "--level", "11", *flags)
    assert time.perf_counter() - start < 0.05
    assert code == 0 and json.loads(out)["word"] == [[0, 10**9]]


def test_spent_trace_budget_exits_2(capsys):
    # T^(10^5) crosses one pair of sides per power of T, past the tracer's
    # budget of 10^5 crossings: refused after one budget, not one per base
    # point
    start = time.perf_counter()
    code, out, err = run(capsys, "express", "--group", "gamma0", "--level", "11",
                         "--matrix", "1,100000,0,1", "--trace")
    assert time.perf_counter() - start < 2
    assert (code, out) == (2, "")
    assert "_MAX_TRACE_STEPS" in err


def test_max_index_option(capsys):
    # gamma1(1009) has index 1010 * 504 = 509040 > the default limit: refused
    # from the closed form at once
    code, _, err = run(capsys, "invariants", "--group", "gamma1", "--level", "1009")
    assert code == 1 and "index 509040" in err
    code, _, err = run(capsys, "invariants", "--group", "gamma0", "--level", "11",
                       "--max-index", "11")
    assert code == 1 and "index 12" in err
    code, out, _ = run(capsys, "invariants", "--group", "gamma0", "--level", "11",
                       "--max-index", "12")
    assert code == 0 and json.loads(out)["index"] == 12


QUERY_LAYERS = ["assemble", "develop", "query", "system"]
QUERY_COUNTS = ["entry_bits", "gc_collections", "generators", "index", "sides", "syllables"]
QUERY_INPUTS = {"express": ["--matrix", "1,1,0,1"], "locate": ["--x", "5/2", "--y", "1/7"]}


@pytest.mark.parametrize("command, layers, counts", [
    ("graph", ["system", "write"], ["gc_collections", "index"]),
    ("polygon", ["assemble", "develop", "system", "write"],
     ["entry_bits", "gc_collections", "generators", "index", "sides", "tracked_objects"]),
    ("generators", ["assemble", "develop", "system", "write"],
     ["entry_bits", "gc_collections", "generators", "index", "sides", "tracked_objects"]),
    ("invariants", ["invariants", "system", "write"],
     ["gc_collections", "generators", "index"]),
    ("express", QUERY_LAYERS, QUERY_COUNTS),
    ("express --trace", QUERY_LAYERS, QUERY_COUNTS + ["trace_steps"]),
    ("locate", QUERY_LAYERS, QUERY_COUNTS),
])
def test_stats_leave_stdout_unchanged(capsys, command, layers, counts):
    command, *flags = command.split()
    argv = [command, "--group", "gamma0", "--level", "11", *QUERY_INPUTS.get(command, []), *flags]
    code, plain, plain_err = run(capsys, *argv)
    assert (code, plain_err) == (0, "")
    code, out, err = run(capsys, *argv, "--stats")
    assert code == 0
    assert out == plain
    stats = json.loads(err)
    assert sorted(stats["seconds"]) == layers
    assert all(s >= 0 for s in stats["seconds"].values())
    assert stats["index"] == 12
    assert sorted(set(stats) - {"command", "group", "level", "seconds", "peak_rss_mb"}) == counts
    assert (stats["command"], stats["group"], stats["level"]) == (command, "gamma0", 11)
    assert stats["peak_rss_mb"] > 0
    assert stats["gc_collections"] >= 0
    if command not in ("graph", "invariants"):
        assert (stats["sides"], stats["generators"]) == (6, 3)
        # the generators of gamma0(11) have entries up to 11 (4 bits)
        gens = built_polygon("gamma0", 11).generators
        assert stats["entry_bits"] == max(abs(x).bit_length() for g, _ in gens
                                          for x in g.tuple()) == 4
    if command in ("express", "locate"):
        assert stats["syllables"] == len(json.loads(out)["word"])
    if flags == ["--trace"]:
        # T leaves the polygon through one side
        assert stats["trace_steps"] == 1


def test_tracked_objects_are_the_sides_and_generators(capsys):
    # what stays tracked is one Side per side, one (matrix, order) pair and
    # one matrix per generator, and the same few containers at every index;
    # the two full collections that count them are left out of
    # gc_collections, which stays 0 over the short build of gamma0(11)
    def extra(stats):
        return stats["tracked_objects"] - stats["sides"] - 2 * stats["generators"]

    rows = []
    for level in (11, 1009, 10007):
        code, _, err = run(capsys, "polygon", "--group", "gamma0", "--level", str(level),
                           "--stats")
        assert code == 0
        rows.append(json.loads(err))
    code, out, _ = run(capsys, "bench", "--group", "gamma0", "--levels", "11,1009",
                       "--format", "json")
    assert code == 0
    rows += json.loads(out)
    counts = {extra(row) for row in rows}
    assert len(counts) == 1 and 0 < counts.pop() < 100
    assert rows[0]["gc_collections"] == rows[3]["gc_collections"] == 0


# only an elliptic vertex can be met in the upper half-plane: gamma0(11)
# has none, gamma0(13) has elliptic points of both orders
@pytest.mark.parametrize("level, elliptic", [(11, False), (13, True)])
def test_express_explain_lines_follow_the_crossings(capsys, level, elliptic):
    poly = built_polygon("gamma0", level)
    gens = poly.generators
    words = [[(i, 1)] for i in range(len(gens))] + [[(i, -1), (j, 1), (i, 1)]
                                                    for i in range(len(gens)) for j in range(i)]
    vertices = 0
    for word in words:
        matrix = ",".join(map(str, evaluate_word(gens, word).tuple()))
        argv = ["express", "--group", "gamma0", "--level", str(level), f"--matrix={matrix}",
                "--trace"]
        code, plain, plain_err = run(capsys, *argv)
        assert (code, plain_err) == (0, "")
        code, out, err = run(capsys, *argv, "--explain", "--stats")
        assert code == 0
        assert out == plain
        *lines, stats = err.splitlines()
        stats = json.loads(stats)
        assert len(lines) == stats["trace_steps"]
        crossings = [json.loads(line) for line in lines]
        assert [c["step"] for c in crossings] == list(range(len(crossings)))
        syllables = []
        for c in crossings:
            side = poly.sides[c["side"]]
            assert c["generator"] == side.gen
            assert len(c["geodesic"]) == len(c["target"]) == 3
            assert c["vertex"] or c["exponent"] == side.gen_exp
            vertices += c["vertex"]
            syllables.append((c["generator"], -c["exponent"]))
        assert reduce_word(syllables, gens) == [tuple(s) for s in json.loads(out)["word"]]
    assert (vertices > 0) == elliptic


def test_explain_needs_trace(capsys):
    code, out, err = run(capsys, "express", "--group", "gamma0", "--level", "11",
                         "--matrix", "1,1,0,1", "--explain")
    assert code == 1 and out == ""
    assert "--trace" in err
