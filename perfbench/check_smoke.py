"""Self-test of the benchmark on the tiny "smoke" workload (gamma0(11) and
gamma(5)); takes a few seconds.

    python3 perfbench/check_smoke.py

It checks that
  * an untraced run prints every end-to-end metric of BENCHMARK.json with its
    unit, and a traced run every per-layer metric, with no failed operation;
  * a tampered word, located point, polygon digest or express digest is
    counted as a failure, and a run with a failure exits 1;
  * the benchmark exits non-zero without a result line where no modpoly
    sources are.
Exits 0 when all hold.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction

import checks
import run

BENCH = os.path.join(run.ROOT, "BENCHMARK.json")


def _run_cli(cwd, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "smoke", "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc.returncode, proc.stdout.strip().splitlines()


def check_metrics(spec):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        code, lines = _run_cli(run.ROOT, trace)
        assert code == 0, f"smoke run with --trace {trace} exited {code}"
        result = json.loads(lines[-1])
        assert sorted(result) == ["attempted", "correct", "failed", "metrics"], result.keys()
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        want = {m["name"]: m["unit"] for m in spec[key]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        assert got == want, f"--trace {trace}: metrics differ from BENCHMARK.json: {got} != {want}"
        for name, m in result["metrics"].items():
            assert isinstance(m["value"], (int, float)), name
            if key == "end_to_end":
                assert m["value"] > 0, f"{name} reads 0"


def check_tampering():
    golden = checks.load_golden()
    r, result = run.run_workload("smoke", 3, 0.2, 0, golden)
    assert result["failed"] == 0, r.failures

    # a wrong word, a wrong located point
    poly = r.polys[r.w.express_group]
    gens = checks.gen_tuples(poly)
    g = next(g for g, expect in r.inputs.express if expect)
    word = r.m.reduce.express(poly, g)
    i, e = word[0]
    assert checks.check_word(gens, g, word)
    assert not checks.check_word(gens, g, [(i, e + 1)] + word[1:])
    geo = r.polys[r.w.geo_group]
    geo_gens = checks.gen_tuples(geo)
    z = r.inputs.points[0]
    w, located = r.m.reduce.locate_point(geo, z)
    assert checks.check_locate(geo, geo_gens, z, w, located)
    moved = r.m.reduce.ExactPoint(w.x + Fraction(1, 1000), w.y)
    assert not checks.check_locate(geo, geo_gens, z, moved, located)

    # wrong golden digests are counted, and the run exits 1
    for table, key in (("polygon_sha256", "gamma(5)"), ("express_words_sha256", "gamma0(11)")):
        tampered = copy.deepcopy(golden)
        tampered[table][key] = "0" * 64
        _, result = run.run_workload("smoke", 3, 0.2, 0, tampered)
        assert result["failed"] >= 1 and not result["correct"], (table, result["failed"])
    load = checks.load_golden
    checks.load_golden = lambda: tampered
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = run.main(["--workload", "smoke", "--seed", "3", "--seconds", "0.2"])
    finally:
        checks.load_golden = load
    assert code == 1, code


def check_no_sources():
    bare = os.path.join(run.ROOT, ".perfbench", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(BENCH, bare)
        shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        code, lines = _run_cli(bare, 0)
    finally:
        shutil.rmtree(bare)
    assert code != 0, "the benchmark ran without modpoly sources"
    assert not any(line.startswith("{") for line in lines), lines


def main():
    with open(BENCH) as handle:
        spec = json.load(handle)
    check_metrics(spec)
    check_tampering()
    check_no_sources()
    print("check_smoke: all checks passed")


if __name__ == "__main__":
    main()
