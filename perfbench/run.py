"""modpoly benchmark: one workload in one single-threaded process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports modpoly from ``src/`` there.
Passes run until the next one would end after ``--seconds`` (at least
two).  A pass times one set-up (the query polygons and the inputs), then
builds each of the workload's groups (level -> polygon -> JSON) with a
slot of sweeps over every express, locate and trace query before each build
and one at the end.  Every output is checked outside the timed spans, and any wrong
output makes the run exit 1.

With ``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` the even passes are traced, the line carries the per-layer
metrics, and the spans are written to ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time

import checks
from tracing import Tracer
from workloads import WORKLOADS, make_inputs

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_REPS = 9
# A query's sample calls it this long in a row (at least once): a sample
# shorter than the CPU's busy and idle spells reads one or the other, and
# its median over the repeats moves with their mix from run to run.
MIN_SAMPLE_S = 0.003
# A slot sweeps over the queries until this much time has passed (at least
# once).  The CPU's speed drifts over seconds, and the sweeps between the
# builds of `build` cover its run only as far as they fill it.
MIN_SLOT_S = 1.5

_IMPORT = ("import time; t = time.perf_counter(); "
           "from modpoly import cosets, polygon, psl2, reduce; "
           "print(time.perf_counter() - t)")


def _import_seconds() -> float:
    """Time to import modpoly, measured in a fresh interpreter so that it can
    be repeated."""
    proc = subprocess.run([sys.executable, "-c", _IMPORT], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=SRC), check=True, timeout=60)
    return float(proc.stdout)


END_TO_END_UNITS = {
    "setup_s": "s", "build_s": "s", "polygon_json_s": "s", "peak_rss_mb": "MB",
    "express_p50_ms": "ms", "express_p90_ms": "ms", "express_qps": "1/s",
    "locate_p50_ms": "ms", "locate_p90_ms": "ms",
    "trace_p50_ms": "ms", "trace_p90_ms": "ms",
}


class Modpoly:
    """The library's modules, imported from the checkout's src/."""

    def __init__(self):
        if not os.path.isfile(os.path.join(SRC, "modpoly", "__init__.py")):
            raise SystemExit(f"error: no modpoly sources under {SRC}; "
                             "run from the root of a modpoly checkout")
        sys.path.insert(0, SRC)
        import modpoly
        from modpoly import cosets, polygon, psl2, reduce
        if not os.path.abspath(modpoly.__file__).startswith(SRC + os.sep):
            raise SystemExit(f"error: imported modpoly from {modpoly.__file__}, not {SRC}")
        self.cosets, self.polygon, self.psl2, self.reduce = cosets, polygon, psl2, reduce

    def trace_targets(self):
        """(owner, attribute, span name, result size, record rss) for every
        public layer function the benchmark or the library calls."""
        C, P, R = self.cosets, self.polygon, self.reduce
        return [
            (C, "build_system", "cosets.build_system", lambda s: s.n, True),
            (P, "build_polygon", "polygon.build_polygon", None, False),
            (P, "build_graph", "cuboid.build_graph", None, False),
            (P, "cut_to_tree", "polygon.cut_to_tree", None, False),
            (P, "develop", "polygon.develop", None, False),
            (P, "assemble", "polygon.assemble", None, True),
            (P, "to_json", "polygon.to_json", len, True),
            (P.SpecialPolygon, "contains", "polygon.contains", None, False),
            (R, "express", "reduce.express", len, False),
            (R, "express_schreier", "reduce.express_schreier", len, False),
            (R, "reduce_to_coset", "cosets.reduce_to_coset", None, False),
            (R, "decompose_su", "psl2.decompose_su", len, False),
            (R, "evaluate_word", "reduce.evaluate_word", None, False),
            (R, "locate_point", "reduce.locate_point", lambda r: len(r[1]), False),
        ]

    def build(self, group):
        return self.polygon.build_polygon(self.cosets.build_system(*group))


def _quantile(values, q):
    values = sorted(values)
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


class Run:
    """One workload run: passes until the time is up.  A pass is one set-up
    (the query polygons and the inputs), then one build of each of the
    workload's groups with a slot of sweeps over every query before each
    build and one at the end.  A query's time is the median of its repeats
    and a group's build the median of its builds: on a shared host the
    fastest repeat depends on whether a run happened to catch the CPU idle
    (see README.md)."""

    def __init__(self, name, seed, seconds, trace, golden):
        self.w = WORKLOADS[name]
        self.seed, self.seconds, self.trace = seed, seconds, trace
        self.golden = golden
        self.tracer = Tracer()
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.setup_times: list[float] = []
        # one entry per build: (pass, or None outside the passes, group,
        # build s, build + JSON s, counts)
        self.builds: list[tuple] = []
        self.passes = 0
        self.traced_passes: list[int] = []
        self.sweep_traced: list[bool] = []
        self.polys = self.inputs = None
        self.refused = 0    # non-members refused in the last sweep
        # per query kind and input: (first output, whether it checked out)
        self.verified = {"express": {}, "locate": {}, "trace": {}}

    def _count(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)

    # -- set-up ------------------------------------------------------------

    def setup(self):
        self.m = Modpoly()
        self.import_s = statistics.median(_import_seconds() for _ in range(SETUP_REPS))

    def _setup_once(self, n, traced):
        """Build the query polygons and generate the inputs; time it, JSON
        and checks left out.  The first set-up's polygons and inputs serve
        every query of the run; later ones are timed, checked and dropped."""
        w = self.w
        built = {g: self._build(n, g, traced) for g in dict.fromkeys((w.express_group, w.geo_group))}
        polys = {g: poly for g, (poly, _, _) in built.items()}
        t = time.perf_counter()
        seed = self.seed if w.input_seed is None else w.input_seed
        inputs = make_inputs(w, seed, checks.gen_tuples(polys[w.express_group]),
                             checks.gen_tuples(polys[w.geo_group]),
                             self.m.psl2.Psl2Elt, self.m.reduce.ExactPoint)
        self.setup_times.append(time.perf_counter() - t + sum(b for _, b, _ in built.values()))
        if self.inputs is None:
            self.polys, self.inputs = polys, inputs
            self.query_times = {"express": [[] for _ in inputs.express],
                                "locate": [[] for _ in inputs.points],
                                "trace": [[] for _ in inputs.trace]}
            # calls per sample of each input, set from its first sample
            self.calls = {kind: [1] * len(t) for kind, t in self.query_times.items()}

    @property
    def setup_s(self) -> float:
        """Median import time plus median set-up time."""
        return self.import_s + statistics.median(self.setup_times)

    # -- passes ------------------------------------------------------------

    def measure(self):
        deadline = time.perf_counter() + self.seconds
        while True:
            start = time.perf_counter()
            n = self.passes
            traced = bool(self.trace) and n % 2 == 0
            if traced:
                self.traced_passes.append(n)
            self._pass(n, traced)
            self.passes += 1
            elapsed = time.perf_counter() - start
            if self.passes >= 2 and time.perf_counter() + elapsed > deadline:
                break
        # the time a whole pass no longer fits in gives more builds
        for group in self.w.builds:
            last = next(b[3] for b in reversed(self.builds) if b[1] == group)
            if time.perf_counter() + last <= deadline:
                self._build(None, group, False)
        while len(self.setup_times) < SETUP_REPS:
            self._setup_once(None, False)

    def _traced(self, traced: bool):
        if traced:
            self.tracer.install(self.m.trace_targets())

    def _pass(self, n, traced):
        self._setup_once(n, traced)
        for group in self.w.builds:
            self._slot(traced)
            self._build(n, group, traced)
        self._slot(traced)

    def _build(self, n, group, traced):
        """Build one group and its JSON and check the JSON's digest; return
        (polygon, build seconds, build + JSON seconds)."""
        m, tracer = self.m, self.tracer
        gc.collect()
        self._traced(traced)
        tracer.set_op(None if n is None else f"build/{n}/{checks.group_key(group)}")
        try:
            t0 = time.perf_counter()
            poly = m.build(group)
            t1 = time.perf_counter()
            text = m.polygon.to_json(poly)
            t2 = time.perf_counter()
        finally:
            tracer.set_op(None)
            tracer.uninstall()
        counts = {"index": poly.system.n, "sides": len(poly.sides),
                  "generators": len(poly.generators), "json_bytes": len(text)}
        self.builds.append((n, group, t1 - t0, t2 - t0, counts))
        self._count(checks.check_build(self.golden, group, text),
                    f"polygon digest of {checks.group_key(group)}")
        return poly, t1 - t0, t2 - t0

    def _timed_batch(self, kind, items, call):
        """Time one sample of ``call`` on each item; return the outputs.
        A sample makes the item's number of calls in a row and records
        their mean time; each call is its own op for the tracer."""
        tracer, times, calls = self.tracer, self.query_times[kind], self.calls[kind]
        sweep = len(self.sweep_traced)
        outputs = []
        gc.collect()
        for k, item in enumerate(items):
            t0 = time.perf_counter()
            for i in range(calls[k]):
                tracer.set_op(f"{kind}/{k}/{sweep}/{i}")
                try:
                    out = call(item)
                except Exception as err:  # refusals and failures are sorted out by the checks
                    out = err
            dt = (time.perf_counter() - t0) / calls[k]
            if not times[k]:
                calls[k] = max(1, math.ceil(MIN_SAMPLE_S / dt))
            times[k].append(dt)
            outputs.append(out)
        tracer.set_op(None)
        return outputs

    def _slot(self, traced):
        end = time.perf_counter() + MIN_SLOT_S
        self._sweep(traced)
        while time.perf_counter() < end:
            self._sweep(traced)

    def _sweep(self, traced):
        """Time every express, locate and trace query once, then check the
        answers."""
        inputs, w, R = self.inputs, self.w, self.m.reduce
        P, G = self.polys[w.express_group], self.polys[w.geo_group]
        self._traced(traced)
        try:
            words = self._timed_batch(
                "express", [g for g, _ in inputs.express], lambda g: R.express(P, g))
            located = self._timed_batch("locate", inputs.points, lambda z: R.locate_point(G, z))
            traced_words = self._timed_batch(
                "trace", inputs.trace, lambda g: R.express(G, g, use_trace=True))
        finally:
            self.tracer.uninstall()
        self.sweep_traced.append(traced)
        self._check_sweep(words, located, traced_words)

    def _verdict(self, kind, k, out, check) -> bool:
        """Check the output of input k: the first one in full, and a later
        one by equality with the first, since the library is deterministic.
        A later output that differs is checked in full."""
        first = self.verified[kind].get(k)
        if first is not None and not isinstance(out, Exception) and out == first[0]:
            return first[1]
        ok = check()
        if first is None:
            self.verified[kind][k] = (out, ok)
        return ok

    def _check_sweep(self, words, located, traced):
        inputs, w, m = self.inputs, self.w, self.m
        P, G = self.polys[w.express_group], self.polys[w.geo_group]
        p_gens, g_gens = checks.gen_tuples(P), checks.gen_tuples(G)
        self.refused = 0
        for k, ((g, expect), out) in enumerate(zip(inputs.express, words)):
            if expect:
                ok = self._verdict("express", k, out, lambda: isinstance(out, list)
                                   and checks.check_word(p_gens, g, out))
            else:
                ok = isinstance(out, m.cosets.MembershipError)
                self.refused += ok
            self._count(ok, f"express {g.tuple()} -> {out!r:.200}")
        for k, (z, out) in enumerate(zip(inputs.points, located)):
            ok = self._verdict("locate", k, out, lambda: isinstance(out, tuple)
                               and checks.check_locate(G, g_gens, z, *out))
            self._count(ok, f"locate {z} -> {out!r:.200}")
        for k, (g, out) in enumerate(zip(inputs.trace, traced)):
            # the trace word must be the Schreier word: both are normal forms
            ok = self._verdict("trace", k, out, lambda: isinstance(out, list)
                               and checks.check_word(g_gens, g, out)
                               and out == m.reduce.express(G, g))
            self._count(ok, f"express --trace {g.tuple()} -> {out!r:.200}")

    def check_golden_words(self):
        P = self.polys[self.w.express_group]
        words = [self.m.reduce.express(P, g) for g in self.inputs.golden_express]
        self._count(checks.check_golden_words(self.golden, self.w.express_group, words),
                    "digest of the golden express words")

    # -- metrics -----------------------------------------------------------

    def median_build(self, field) -> float:
        """The median build (field 2) or build plus JSON (field 3) of each
        group the run built, summed over the groups."""
        times = {}
        for b in self.builds:
            times.setdefault(b[1], []).append(b[field])
        return sum(statistics.median(t) for t in times.values())

    def pass_builds(self, n) -> list[tuple]:
        return [b for b in self.builds if b[0] == n]

    def median_work(self, traced: bool) -> float:
        """The median traced (or untraced) repeat of every query input and
        of every group's build plus JSON, summed."""
        total = sum(statistics.median(t for t, s in zip(times, self.sweep_traced) if s == traced)
                    for samples in self.query_times.values() for times in samples)
        builds = {}
        for n, group, _, t, _ in self.builds:
            if n is not None and (n in self.traced_passes) == traced:
                builds.setdefault(group, []).append(t)
        return total + sum(statistics.median(t) for t in builds.values())

    def end_to_end(self) -> dict:
        # samples[k] lists the times of input k over the sweeps
        q = {kind: [statistics.median(s) for s in samples]
             for kind, samples in self.query_times.items()}
        values = {
            "setup_s": self.setup_s,
            "build_s": self.median_build(2),
            "polygon_json_s": self.median_build(3),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "express_p50_ms": 1e3 * _quantile(q["express"], 0.5),
            "express_p90_ms": 1e3 * _quantile(q["express"], 0.9),
            "express_qps": len(q["express"]) / sum(q["express"]),
            "locate_p50_ms": 1e3 * _quantile(q["locate"], 0.5),
            "locate_p90_ms": 1e3 * _quantile(q["locate"], 0.9),
            "trace_p50_ms": 1e3 * _quantile(q["trace"], 0.5),
            "trace_p90_ms": 1e3 * _quantile(q["trace"], 0.9),
        }
        return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def layer_metrics(run: Run) -> dict:
    """Per-layer metrics from the spans of the traced passes, with the same
    estimators as the end-to-end ones: per pass or per query input (or
    call) the median repeat, then the median or percentile over the
    inputs."""
    spans = run.tracer.spans
    own = run.tracer.self_times()
    out = {}

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    def select(name, *ops):
        prefixes = tuple(op + "/" for op in ops)
        return [i for i, s in enumerate(spans)
                if s[0] == name and s[4] is not None and s[4].startswith(prefixes)]

    def per_input(name, kind, self_time=False):
        """Time of layer ``name`` within one call of each query input (ops
        kind/k/sweep/call): per sweep the mean over the sample's calls, then
        the median over the sweeps."""
        acc = {}
        for i in select(name, kind):
            _, k, sweep, call = spans[i][4].split("/")
            t = own[i] if self_time else spans[i][2] - spans[i][1]
            total, sample_calls = acc.setdefault(k, {}).get(sweep, (0.0, set()))
            sample_calls.add(call)
            acc[k][sweep] = (total + t, sample_calls)
        return [statistics.median(t / len(c) for t, c in v.values()) for v in acc.values()]

    def per_call(name, *kinds):
        """Time of each call of layer ``name`` (the j-th call within one
        query input), the median over the sweeps."""
        acc, calls = {}, {}
        for i in select(name, *kinds):
            op = spans[i][4]
            j = calls[op] = calls.get(op, -1) + 1
            kind, k, _, _ = op.split("/")
            t = spans[i][2] - spans[i][1]
            acc.setdefault((kind, k, j), []).append(t)
        return [statistics.median(t) for t in acc.values()]

    def pct(values, q, scale=1e3):
        return scale * _quantile(values, q) if values else 0.0

    def sizes(name, kind):
        """The result size of each input's first call."""
        first = {}
        for i in select(name, kind):
            first.setdefault(spans[i][4].split("/")[1], spans[i][5])
        return [v for v in first.values() if v is not None]

    # build layers: time summed over the builds of one traced pass, the
    # median over the traced passes; the rss growth is that of the first
    # traced pass
    passes = [f"build/{n}" for n in run.traced_passes]

    def per_pass(name):
        # no layer calls another, so a layer's time includes what it calls
        return [sum(spans[i][2] - spans[i][1] for i in select(name, p)) for p in passes]

    def rss_mb(name):
        return sum(spans[i][6] or 0 for i in select(name, passes[0])) / 1024

    layers = {}
    for metric, span_name in (("cosets.build_system_s", "cosets.build_system"),
                              ("cuboid.build_graph_s", "cuboid.build_graph"),
                              ("polygon.cut_to_tree_s", "polygon.cut_to_tree"),
                              ("polygon.develop_s", "polygon.develop"),
                              ("polygon.assemble_s", "polygon.assemble")):
        layers[metric] = per_pass(span_name)
        put(metric, statistics.median(layers[metric]), "s")
    first = {key: sum(b[4][key] for b in run.pass_builds(0))
             for key in ("index", "sides", "generators", "json_bytes")}
    put("cosets.build_system_us_per_coset",
        1e6 * out["cosets.build_system_s"]["value"] / first["index"], "us")
    put("cosets.index", first["index"], "count")
    put("polygon.sides", first["sides"], "count")
    put("polygon.generators", first["generators"], "count")
    put("polygon.to_json_s", statistics.median(per_pass("polygon.to_json")), "s")
    put("polygon.json_bytes", first["json_bytes"], "count")
    put("cosets.rss_growth_mb", rss_mb("cosets.build_system"), "MB")
    put("polygon.assemble_rss_growth_mb", rss_mb("polygon.assemble"), "MB")
    put("polygon.to_json_rss_growth_mb", rss_mb("polygon.to_json"), "MB")

    # query layers
    put("cosets.reduce_to_coset_ms", pct(per_input("cosets.reduce_to_coset", "express"), 0.5), "ms")
    put("cosets.reduce_to_coset_trace_ms",
        pct(per_input("cosets.reduce_to_coset", "trace"), 0.5), "ms")
    put("psl2.decompose_su_ms", pct(per_input("psl2.decompose_su", "express"), 0.5), "ms")
    letters = sizes("psl2.decompose_su", "express")
    put("psl2.su_letters_median", statistics.median(letters) if letters else 0, "count")
    put("psl2.su_letters_total", sum(letters), "count")
    schreier = per_input("reduce.express_schreier", "express")
    put("reduce.express_schreier_p50_ms", pct(schreier, 0.5), "ms")
    put("reduce.express_schreier_p90_ms", pct(schreier, 0.9), "ms")
    put("reduce.express_schreier_self_ms",
        pct(per_input("reduce.express_schreier", "express", self_time=True), 0.5), "ms")
    put("reduce.evaluate_word_ms", pct(per_input("reduce.evaluate_word", "express"), 0.5), "ms")
    syllables = sizes("reduce.express", "express")
    put("reduce.word_syllables", statistics.median(syllables) if syllables else 0, "count")
    bits = [max(abs(v) for v in g.tuple()).bit_length() for g, _ in run.inputs.express]
    put("psl2.entry_bits", statistics.median(bits), "bits")
    put("reduce.refused", run.refused, "count")
    put("polygon.contains_us", pct(per_call("polygon.contains", "locate", "trace"), 0.5, scale=1e6),
        "us")
    located = per_input("reduce.locate_point", "locate")
    put("reduce.locate_point_p50_ms", pct(located, 0.5), "ms")
    put("reduce.locate_point_p90_ms", pct(located, 0.9), "ms")
    located_words = sizes("reduce.locate_point", "locate")
    put("reduce.locate_word_syllables",
        statistics.median(located_words) if located_words else 0, "count")

    # cost and coverage of the tracing itself
    traced_work, plain_work = run.median_work(True), run.median_work(False)
    put("trace.overhead_s", traced_work - plain_work, "s")
    put("trace.overhead_share", (traced_work - plain_work) / plain_work, "ratio")
    shares = [sum(v[r] for v in layers.values()) / sum(b[2] for b in run.pass_builds(n))
              for r, n in enumerate(run.traced_passes)]
    put("trace.layer_share_of_build", statistics.median(shares), "ratio")
    put("trace.spans", len(spans), "count")
    totals = [sum(b[2] for b in run.pass_builds(n)) for n in range(run.passes)]
    put("build.rep_spread", (max(totals) - min(totals)) / statistics.median(totals), "ratio")
    return out


def run_workload(name, seed, seconds, trace, golden=None) -> tuple[Run, dict]:
    run = Run(name, seed, seconds, trace, checks.load_golden() if golden is None else golden)
    run.setup()
    run.measure()
    run.check_golden_words()
    metrics = layer_metrics(run) if trace else run.end_to_end()
    result = {"correct": run.failed == 0, "attempted": run.attempted,
              "failed": run.failed, "metrics": metrics}
    return run, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    run, result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    if args.trace:
        out_dir = os.path.join(ROOT, ".perfbench")
        os.makedirs(out_dir, exist_ok=True)
        run.tracer.write(os.path.join(out_dir, f"spans-{args.workload}-{args.seed}.jsonl"))
    for line in run.failures:
        print(f"FAILED: {line}", file=sys.stderr)
    for key, metric in result["metrics"].items():
        print(f"{key:40s} {metric['value']:>16.6g} {metric['unit']}")
    print(f"{'fail_rate':40s} {run.failed / run.attempted:>16.6g} "
          f"({run.failed} of {run.attempted} operations)")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != "0":
        # fixed str hashing, so set and dict layouts repeat from run to run
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  dict(os.environ, PYTHONHASHSEED="0"))
    sys.exit(main())
