"""Command-line interface.

Exit codes: 0 on success, 1 for usage or parse errors and for groups whose
index exceeds --max-index, 2 for domain errors (a matrix that fails the
subgroup membership test, or a query whose work would pass a fixed bound).
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
import time
from fractions import Fraction
from functools import partial

from . import cuboid, polygon
from .cosets import FAMILIES, MAX_INDEX, MembershipError, build_system
from .psl2 import WorkBoundError, parse_matrix
from .reduce import ExactPoint, act_point, evaluate_word, express, locate_point


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _add_max_index(sub):
    sub.add_argument("--max-index", type=int, default=MAX_INDEX,
                     help=f"refuse groups of larger index (default {MAX_INDEX})")


def _add_group_args(sub):
    sub.add_argument("--group", required=True, choices=FAMILIES)
    sub.add_argument("--level", required=True, type=int)
    _add_max_index(sub)


def _add_stats(sub):
    sub.add_argument("--stats", action="store_true",
                     help="write the seconds per layer, the sizes, the garbage "
                          "collections (with polygon and generators, also the objects "
                          "the build leaves for the collector to track) and the peak "
                          "memory as one JSON object to stderr")


def _build_parser() -> _Parser:
    parser = _Parser(prog="modpoly", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("graph", help="emit the bipartite cuboid graph")
    _add_group_args(p)
    p.add_argument("--format", choices=("json", "dot"), default="json")
    p.add_argument("--output", default=None)
    _add_stats(p)

    p = subs.add_parser("polygon", help="emit the fundamental polygon")
    _add_group_args(p)
    p.add_argument("--format", choices=("json", "svg"), default="json")
    p.add_argument("--output", default=None)
    _add_stats(p)

    p = subs.add_parser("generators", help="emit the independent generators")
    _add_group_args(p)
    p.add_argument("--output", default=None)
    _add_stats(p)

    p = subs.add_parser("invariants", help="emit surface invariants")
    _add_group_args(p)
    p.add_argument("--output", default=None)
    _add_stats(p)

    p = subs.add_parser("express", help="write a subgroup element as a generator word")
    _add_group_args(p)
    p.add_argument("--matrix", required=True,
                   help='entries "a,b,c,d" (write --matrix=-1,0,0,-1 when a is negative)')
    p.add_argument("--trace", action="store_true",
                   help="use the geodesic tracer instead of coset rewriting")
    p.add_argument("--explain", action="store_true",
                   help="with --trace, write one JSON object per side the trace "
                        "crosses to stderr")
    p.add_argument("--output", default=None)
    _add_stats(p)

    p = subs.add_parser("locate", help="reduce a point into the fundamental polygon")
    _add_group_args(p)
    p.add_argument("--x", required=True,
                   help="rational x, e.g. 3/7 (write --x=-3/7 for negatives)")
    p.add_argument("--y", required=True, help="rational y > 0, e.g. 5/2")
    p.add_argument("--output", default=None)
    _add_stats(p)

    p = subs.add_parser("bench", help="build-time scaling rows (level, index, seconds)")
    p.add_argument("--group", required=True, choices=FAMILIES)
    p.add_argument("--levels", required=True, help="comma-separated levels")
    _add_max_index(p)
    p.add_argument("--format", choices=("text", "json"), default="text",
                   help="text: level, index and seconds, tab-separated; json: one "
                        "row per level with the seconds per layer and the counts "
                        "of polygon --stats")
    p.add_argument("--output", default=None)

    return parser


def _check_level(level: int):
    if level < 1:
        raise UsageError(f"--level must be >= 1, got {level}")


def _build_system(group: str, level: int, max_index: int):
    try:
        return build_system(group, level, max_index=max_index)
    except ValueError as err:  # the index exceeds max_index
        raise UsageError(str(err)) from None


def _emit(text: str, output: str | None):
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w") as handle:
            handle.write(text)


def _dumps(data) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ": "), indent=2) + "\n"


def _timed(seconds: dict, layer: str, fn, *args):
    """Call fn(*args) and record its wall time under seconds[layer]."""
    start = time.perf_counter()
    out = fn(*args)
    seconds[layer] = time.perf_counter() - start
    return out


def _build_polygon(system, seconds: dict):
    """build_polygon's layers, one call each, timed one by one."""
    crossed, dev = _timed(seconds, "develop", polygon.develop, system)
    return _timed(seconds, "assemble", polygon.assemble, system, crossed, dev)


def _gc_collections() -> int:
    """Garbage collections run so far in this process, over all generations."""
    return sum(gen["collections"] for gen in gc.get_stats())


def _tracked_objects() -> int:
    """Objects the garbage collector tracks after a full collection (which
    counts as one collection)."""
    gc.collect()
    return len(gc.get_objects())


def _polygon_counts(poly) -> dict:
    """Sizes of a built polygon, with the largest bit length of a generator
    entry."""
    return {"sides": len(poly.sides), "generators": len(poly.generators),
            "entry_bits": max((abs(x).bit_length() for g, _ in poly.generators
                               for x in (g.a, g.b, g.c, g.d)), default=0)}


def _stats(command: str, group: str, level: int, seconds: dict, counts: dict,
           collections: int) -> dict:
    """Seconds per layer, the sizes the command computed, the garbage
    collections run since the count `collections` was taken and the
    process's peak resident memory (ru_maxrss, KiB on Linux)."""
    return {"command": command, "group": group, "level": level,
            "seconds": {layer: round(s, 6) for layer, s in seconds.items()},
            "gc_collections": _gc_collections() - collections,
            "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
            **counts}


def _write_stats(args, seconds: dict, counts: dict, collections: int):
    """The command's _stats as one JSON object on stderr."""
    stats = _stats(args.command, args.group, args.level, seconds, counts, collections)
    sys.stderr.write(json.dumps(stats, sort_keys=True) + "\n")


def _write_explain(record: list):
    """One JSON object per crossing of the traced express on stderr, in the
    order crossed: its step number, the side crossed (its index in the
    polygon's sides), the generator and exponent that pull the target back,
    whether the segment met the side's elliptic vertex, and the travel
    geodesic (a, b, c) and the target triple (n, m, k) before the crossing."""
    for step, (geod, t, side, gen, exp, vertex) in enumerate(record):
        sys.stderr.write(json.dumps({"step": step, "side": side, "generator": gen,
                                     "exponent": exp, "vertex": vertex,
                                     "geodesic": list(geod), "target": list(t)},
                                    sort_keys=True) + "\n")


def _frac(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"not a rational number: {text!r}") from None


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _dispatch(args)
    except UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except (MembershipError, WorkBoundError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


def _dispatch(args) -> int:
    cmd = args.command
    if cmd == "bench":
        return _cmd_bench(args)
    _check_level(args.level)
    if cmd in ("graph", "polygon", "generators", "invariants"):
        return _cmd_build(args)
    return _cmd_query(args)


def _cmd_query(args) -> int:
    """express and locate: check the arguments, build the polygon layer by
    layer, then answer the one query, each step timed for --stats."""
    if args.command == "express":
        if args.explain and not args.trace:
            raise UsageError("--explain needs --trace")
        try:
            g = parse_matrix(args.matrix)
        except ValueError as err:
            raise UsageError(str(err)) from None
    else:
        x, y = _frac(args.x), _frac(args.y)
        if y <= 0:
            raise UsageError("--y must be positive (point must lie in the upper half-plane)")
        z = ExactPoint(x, y)
    collections = _gc_collections()
    seconds: dict[str, float] = {}
    system = _timed(seconds, "system", _build_system, args.group, args.level, args.max_index)
    poly = _build_polygon(system, seconds)

    counts = {"index": system.n, **_polygon_counts(poly)}
    if args.command == "express":
        record = [] if args.trace else None
        word = _timed(seconds, "query", express, poly, g, args.trace, record)
        if args.trace:
            counts["trace_steps"] = len(record)
        check = evaluate_word(poly.generators, word)
        if check != g:
            raise RuntimeError("internal error: word does not evaluate back")
        data = {"word": [[i, e] for i, e in word],
                "matrix": list(g.tuple()),
                "evaluates_to": list(check.tuple())}
    else:
        w, word = _timed(seconds, "query", locate_point, poly, z)
        g = evaluate_word(poly.generators, word)
        if act_point(g, w) != z:
            raise RuntimeError("internal error: locate postcondition failed")
        data = {
            "input": [str(x), str(y)],
            "point": [str(w.x), str(w.y)],
            "word": [[i, e] for i, e in word],
            "element": list(g.tuple()),
        }
    _emit(_dumps(data), args.output)
    if args.command == "express" and args.explain:
        _write_explain(record)
    if args.stats:
        _write_stats(args, seconds, {**counts, "syllables": len(word)}, collections)
    return 0


def _cmd_build(args) -> int:
    """graph, polygon, generators and invariants, with each layer timed for
    --stats.  With --stats, polygon and generators also count the objects
    the built system and polygon leave for the garbage collector to track,
    tracked_objects, between two full collections that gc_collections
    leaves out."""
    cmd = args.command
    tracked = _tracked_objects() if args.stats and cmd in ("polygon", "generators") else None
    collections = _gc_collections()
    seconds: dict[str, float] = {}
    system = _timed(seconds, "system", _build_system, args.group, args.level, args.max_index)
    counts = {"index": system.n}
    if cmd == "graph":
        render = partial(cuboid.to_json if args.format == "json" else cuboid.to_dot, system)
    elif cmd == "invariants":
        inv = _timed(seconds, "invariants", cuboid.graph_invariants, system)
        counts["generators"] = inv.n_generators
        render = partial(_dumps, {
            "index": inv.n,
            "e2": inv.e2,
            "e3": inv.e3,
            "cusps": inv.cusp_count,
            "cusp_widths": list(inv.cusp_widths),
            "betti": inv.betti,
            "genus": inv.genus,
            "generators": inv.n_generators,
        })
    else:
        poly = _build_polygon(system, seconds)
        counts.update(_polygon_counts(poly))
        if tracked is not None:
            counts["tracked_objects"] = _tracked_objects() - tracked
            # leave out the collection that count ran
            collections += 1
        if cmd == "polygon":
            render = partial(polygon.to_json if args.format == "json" else polygon.to_svg, poly)
        else:
            render = partial(_dumps, [{"matrix": list(g.tuple()), "order": order}
                                      for g, order in poly.generators])
    _timed(seconds, "write", lambda: _emit(render(), args.output))
    if args.stats:
        _write_stats(args, seconds, counts, collections)
    return 0


def _cmd_bench(args) -> int:
    try:
        levels = [int(v) for v in args.levels.split(",") if v.strip()]
    except ValueError:
        raise UsageError(f"bad --levels value {args.levels!r}") from None
    if not levels or any(v < 1 for v in levels):
        raise UsageError("--levels needs positive integers")
    rows = [_bench_row(args.group, level, args.max_index) for level in levels]
    if args.format == "json":
        text = _dumps(rows)
    else:
        text = "".join(f"{row['level']}\t{row['index']}\t{sum(row['seconds'].values()):.3f}\n"
                       for row in rows)
    _emit(text, args.output)
    return 0


def _bench_row(group: str, level: int, max_index: int) -> dict:
    """The _stats of one build, with tracked_objects counted as in
    polygon --stats; the system and polygon are freed on return, so the
    next level's count starts without them."""
    tracked = _tracked_objects()
    collections = _gc_collections()
    seconds: dict[str, float] = {}
    system = _timed(seconds, "system", _build_system, group, level, max_index)
    poly = _build_polygon(system, seconds)
    counts = {"index": system.n, **_polygon_counts(poly),
              "tracked_objects": _tracked_objects() - tracked}
    # leave out the collection that count ran
    return _stats("bench", group, level, seconds, counts, collections + 1)


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
