"""The build runs on plain integers and keeps only plain integers: the
Euclidean descent of t_runs builds no matrix object however long the
matrix, develop stores one (a, b, c, d) tuple per edge and one byte of its
crossed flags, builds no matrix object and no other per-edge object, and
assemble builds one matrix per generator and reduces no cusp with
act_cusp, a count pinned here at gamma0(1009) and gamma(7).  Building the polygon of gamma0(10007) peaks
at most 3.6 MB above its start under tracemalloc (3.28 MB measured, 5.67 MB
when the build went through a cuboid graph, a cut tree and a parent table).  A built gamma0(100003) leaves at
most 111 000 more objects for the garbage collector to track (333 377 when
the polygon held a matrix per triangle, cusp objects per side and the
cuboid graph), and a built gamma0(10007) retains at most 530 bytes per
index under tracemalloc (482 measured, 765 before).  Expressing T^(10^6)
in gamma0(11) peaks under 64 KB, and T^(10^7) takes under 0.05 s (8.06 MB,
and 2.4 s for T^(10^7), when the rewriting walk took every power of T as
three letters).  A power g ** n makes one matrix, g ** 1 is g itself and
g ** 0 is IDENTITY; evaluate_word makes one matrix per word and one per
syllable with |exp| >= 2, so express of a member of gamma0(10007) with
800-bit entries and a word of thousands of syllables makes a few (one per
syllable and per squaring before).  locate_point makes its one result,
an ExactPoint of two Fractions, and only the matrices of evaluate_word
(four more Psl2Elt, a third Fraction and a validated ExactPoint before).
Constructions and cusp reductions are counted as calls of Psl2Elt.__init__
/ Psl2Elt._make and act_cusp seen by a profile hook, and so are those of
ExactPoint and Fraction.__new__."""

import gc
import random
import sys
import time
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest

from modpoly.cosets import build_system
from modpoly.polygon import assemble, build_polygon, develop
from modpoly.psl2 import IDENTITY, T, Psl2Elt, act_cusp, t_runs
from modpoly.reduce import (
    ExactPoint,
    evaluate_word,
    express,
    express_schreier,
    locate_point,
    reduce_word,
)

from oracles import built_develop, built_polygon, built_system, random_unimodular, reference_t_runs

_MADE = {Psl2Elt.__init__.__code__: "Psl2Elt", Psl2Elt._make.__func__.__code__: "Psl2Elt",
         act_cusp.__code__: "act_cusp"}


def constructions(fn, *args, made_by=_MADE):
    """(Counter of the Psl2Elt objects fn(*args) makes and of its act_cusp
    calls, its result); made_by maps the code objects to count to names."""
    made: Counter = Counter()

    def hook(frame, event, arg):
        if event == "call" and frame.f_code in made_by:
            made[made_by[frame.f_code]] += 1

    sys.setprofile(hook)
    try:
        result = fn(*args)
    finally:
        sys.setprofile(None)
    return made, result


def matrix_of_bits(rng, bits):
    while True:
        g = random_unimodular(rng.getrandbits(bits) | 1 << (bits - 1),
                              rng.getrandbits(bits) | 1 << (bits - 1), rng.getrandbits(8))
        if g is not None:
            return g


def test_t_runs_of_an_800_bit_matrix_builds_no_matrix():
    rng = random.Random(800)
    system = built_system("gamma0", 10007)
    for _ in range(5):
        g = matrix_of_bits(rng, 800)
        made, runs = constructions(t_runs, g)
        assert made == Counter()
        assert runs == reference_t_runs(g) and len(runs) > 100
        made, _ = constructions(system.coset, g)
        assert made == Counter()


@pytest.mark.parametrize("family, level", [("gamma0", 1009), ("gamma", 7), ("gamma1", 13)])
def test_develop_builds_one_matrix_per_edge(family, level):
    # each matrix is an (a, b, c, d) tuple of ints, not a Psl2Elt
    system = built_system(family, level)
    made, out = constructions(develop, system)
    assert out == built_develop(family, level)
    assert made == Counter()
    crossed, dev = out
    assert type(crossed) is bytearray and len(crossed) == len(dev) == system.n
    assert all(type(g) is tuple and len(g) == 4 and all(type(x) is int for x in g) for g in dev)


def traced_peak(fn, *args):
    """(bytes fn(*args) allocates at its peak under tracemalloc, above what
    was allocated when it started; its result)."""
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    try:
        gc.collect()
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        result = fn(*args)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not was_tracing:
            tracemalloc.stop()
    return peak, result


def test_develop_peaks_at_one_matrix_and_one_byte_per_edge():
    # a list slot, one 4-tuple and one byte of crossed per edge, and up to
    # 10 bytes more for the queue of U-orbits (a slot per three edges) and
    # the ints the tuples share (89.7 bytes per edge measured): a second
    # per-edge object, or a second list of n slots, goes past the bound
    system = built_system("gamma0", 10007)
    peak, _ = traced_peak(develop, system)
    per_edge = 8 + sys.getsizeof((0, 0, 0, 0)) + 1 + 10
    assert peak <= per_edge * system.n, peak / system.n


def test_build_of_gamma0_10007_peaks_below_a_bound():
    system = built_system("gamma0", 10007)
    peak, poly = traced_peak(build_polygon, system)
    assert poly.system is system
    assert peak <= 3_600_000, peak


# Psl2Elt objects assemble makes, and no act_cusp: one matrix per generator, for
# gamma0(1009) 171 generators (342 sides), for gamma(7) 29 (58 sides)
@pytest.mark.parametrize("family, level, matrices", [
    ("gamma0", 1009, 171),
    ("gamma", 7, 29),
])
def test_assemble_builds_one_matrix_per_generator(family, level, matrices):
    crossed, dev = built_develop(family, level)
    made, poly = constructions(assemble, built_system(family, level), crossed, dev)
    assert made == Counter({"Psl2Elt": matrices})
    assert matrices == len(poly.generators)


def test_build_of_gamma0_100003_leaves_few_tracked_objects():
    # the sides and the generators, about 33 000 and 16 700, and their
    # matrices stay tracked; the developing matrices, vertices, geodesics
    # and label tables are tuples of ints, which a collection untracks
    gc.collect()
    before = len(gc.get_objects())
    poly = build_polygon(build_system("gamma0", 100003))
    gc.collect()
    grown = len(gc.get_objects()) - before
    assert poly.system.n == 100004
    assert grown <= 111_000, grown


def test_build_of_gamma0_10007_retains_a_bounded_size_per_index():
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    try:
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        poly = build_polygon(build_system("gamma0", 10007))
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        if not was_tracing:
            tracemalloc.stop()
    per_index = retained / poly.system.n
    assert per_index <= 530, per_index


def test_power_makes_one_matrix():
    # long exponents on T, whose powers (1, n; 0, 1) stay small; g ** 1 is
    # g and g ** 0 the shared IDENTITY
    g = Psl2Elt(2, 1, 7, 4)
    assert g ** 1 is g and T ** 1 is T and g ** 0 is IDENTITY
    cases = [(g, n) for n in range(-70, 71)] + [(T, n) for n in (2**40 - 1, -(2**40 + 1), 12345)]
    for h, n in cases:
        made, power = constructions(pow, h, n)
        assert made == (Counter() if n in (0, 1) else Counter({"Psl2Elt": 1})), n
    assert power == Psl2Elt(1, 12345, 0, 1)


def test_evaluate_word_makes_one_matrix_and_one_per_power():
    # one Psl2Elt at the end of the product, and one per syllable that
    # __pow__ takes, |exp| >= 2; reduced words of gamma0(11) (parabolic and
    # hyperbolic) and gamma0(13) (orders 2 and 3) with exponents up to 5
    rng = random.Random(11)
    for N in (11, 13):
        gens = built_polygon("gamma0", N).generators
        for length in (1, 2, 5, 40):
            word = reduce_word([(rng.randrange(len(gens)), rng.randint(-5, 5))
                                for _ in range(length)], gens)
            made, _ = constructions(evaluate_word, gens, word)
            powers = sum(abs(exp) >= 2 for _, exp in word)
            assert made == (Counter({"Psl2Elt": 1 + powers}) if word else Counter()), word
    made, out = constructions(evaluate_word, gens, [])
    assert made == Counter() and out is IDENTITY


def test_express_of_an_800_bit_member_makes_few_matrices():
    # members of gamma0(10007) with entries of 100 to 800 bits have words of
    # 100 to 7000 syllables; express makes one matrix, the evaluated word,
    # and one per power in it (none in t_runs, the walk and the rewriting)
    poly = built_polygon("gamma0", 10007)
    rng = random.Random(800)
    for bits in (100, 400, 800, 800, 800):
        while True:
            g = random_unimodular(rng.getrandbits(bits) | 1 << (bits - 1),
                                  10007 * (rng.getrandbits(bits - 14) | 1 << (bits - 15)), 0)
            if g is not None:
                break
        made, word = constructions(express_schreier, poly, g)
        powers = sum(abs(exp) >= 2 for _, exp in word)
        assert made == Counter({"Psl2Elt": 1 + powers})
        assert powers <= 3 and len(word) > 50
        if bits == 800:
            assert len(word) > 1000 and max(abs(v) for v in g.tuple()).bit_length() == 800


def test_locate_makes_one_point_and_the_evaluated_word():
    # locate_point lifts, reduces, checks and moves the point on ints: it
    # makes its result, one ExactPoint of two Fractions, and the matrices
    # of evaluate_word, one for the product and one per power, and no other
    # Psl2Elt, ExactPoint or Fraction; points near the real axis have words
    # of a few dozen syllables
    made_by = {**_MADE, ExactPoint.__init__.__code__: "ExactPoint",
               ExactPoint._make.__func__.__code__: "ExactPoint",
               Fraction.__new__.__code__: "Fraction"}
    rng = random.Random(25)
    for family, level in (("gamma0", 1009), ("gamma0", 13), ("gamma", 5)):
        poly = built_polygon(family, level)
        lengths = set()
        for _ in range(40):
            z = ExactPoint(Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**4)),
                           Fraction(rng.randint(1, 50), rng.randint(1, 10**5)))
            made, (w, word) = constructions(locate_point, poly, z, made_by=made_by)
            product = 1 if word else 0
            powers = sum(abs(exp) >= 2 for _, exp in word)
            assert made == Counter({"ExactPoint": 1, "Fraction": 2, "Psl2Elt": product + powers}), z
            assert type(w.x) is Fraction and type(w.y) is Fraction
            lengths.add(len(word))
        assert max(lengths) > 10


def test_express_of_a_long_run_of_t_is_small_and_fast():
    # the run goes round the width-1 cusp at infinity of gamma0(11) once per
    # power of T: one turn is walked and its one syllable raised to the
    # power, so the walk keeps a few syllables, not one per letter
    poly = built_polygon("gamma0", 11)
    g = T ** 10**6
    peak, word = traced_peak(express, poly, g)
    assert word == [(0, 10**6)]
    assert peak < 64 * 1024, peak
    g = T ** 10**7
    start = time.perf_counter()
    assert express(poly, g) == [(0, 10**7)]
    assert time.perf_counter() - start < 0.05
