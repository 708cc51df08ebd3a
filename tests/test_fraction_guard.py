"""Points move as integer triples: assembling a polygon, stepping the
geodesic tracer and a traced express construct no Fraction, however many
steps the trace takes, and locate_point constructs three whatever the
point: the square of its input's y, which it lifts on integers, and the two
coordinates of its result.
Constructions are counted as calls of Fraction.__new__ seen by a profile
hook."""

import random
import sys
from fractions import Fraction

import pytest

from modpoly.polygon import assemble
from modpoly.reduce import (
    ExactPoint,
    _trace,
    evaluate_word,
    express,
    lift,
    locate_point,
)

from oracles import built_develop, built_polygon, built_system


def fraction_constructions(fn, *args, **kwargs):
    """(number of Fraction.__new__ calls made by fn(*args, **kwargs), its result)."""
    code = Fraction.__new__.__code__
    count = 0

    def hook(frame, event, arg):
        nonlocal count
        if event == "call" and frame.f_code is code:
            count += 1

    sys.setprofile(hook)
    try:
        result = fn(*args, **kwargs)
    finally:
        sys.setprofile(None)
    return count, result


# gamma0(1) and gamma0(13) have elliptic points of both orders
@pytest.mark.parametrize("family, level", [("gamma0", 1), ("gamma0", 13), ("gamma", 5),
                                           ("gamma1", 7), ("gamma0", 1009)])
def test_assemble_constructs_no_fraction(family, level):
    crossed, dev = built_develop(family, level)
    count, _ = fraction_constructions(assemble, built_system(family, level), crossed, dev)
    assert count == 0


def test_trace_and_locate_fraction_count_is_fixed():
    poly = built_polygon("gamma0", 13)
    rng = random.Random(31)
    step_counts: set[int] = set()
    located: set[int] = set()
    for _ in range(60):
        z = ExactPoint(Fraction(rng.randint(-90, 90), rng.randint(1, 12)),
                       Fraction(rng.randint(1, 12), rng.randint(1, 30)))
        target = lift(z.x, z.y**2)
        if poly.contains(z.x, z.y**2):
            continue
        steps = []
        count, _ = fraction_constructions(_trace, poly, target, record=steps)
        assert count == 0
        step_counts.add(len(steps))
        count, _ = fraction_constructions(locate_point, poly, z)
        located.add(count)
    assert len(step_counts) >= 3
    assert located == {3}, located


@pytest.mark.parametrize("family, level", [("gamma0", 13), ("gamma0", 1009), ("gamma", 5)])
def test_traced_express_constructs_no_fraction(family, level):
    poly = built_polygon(family, level)
    gens = poly.generators
    rng = random.Random(level)
    for _ in range(20):
        word = [(rng.randrange(len(gens)), rng.choice([-1, 1])) for _ in range(rng.randint(1, 4))]
        g = evaluate_word(gens, word)
        count, out = fraction_constructions(express, poly, g, use_trace=True)
        assert count == 0
        assert evaluate_word(gens, out) == g
