"""Workload definitions and seeded input generation.

Every input is made before timing starts, from the workload seed alone (or
the workload's fixed ``input_seed``), and reaches the library only as a
``Psl2Elt`` or an ``ExactPoint``.  Matrix products are formed here on plain
integer tuples, so the inputs do not depend on the library's own arithmetic; they do depend on the generators of the
query polygon, whose JSON digest is checked against the golden file.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

Group = tuple[str, int]


# Every workload times N_EXPRESS express inputs and N_GEO locate points and
# trace elements.  Fewer inputs give each one more repeats in a run, whose
# median is what the figures are made of (see run.py); stratified draws keep
# the quantiles of few inputs close to those of many.  N_GEO is
# 16 points from each of the three cost classes of locate (see make_inputs)
# and leaves five inputs past the 90th percentile.
#
# The express members are products of 1..MAX_FACTORS generators, with entries
# up to about 800 bits at gamma0(10007); 10% of the express inputs are T^q,
# with q on a log-uniform grid over [1, MAX_T_POWER], whose cost is linear in
# q.  The grid is fixed, because the top few powers can decide express_qps:
# where T^q dominates the sum, one random draw per stratum moved it by up to
# 40% from seed to seed.  The trace elements are single generator powers,
# 14-36 ms each at gamma0(1009); words of 1, 2 and 3 generators cost about
# 13, 25 and 37 ms, so longer words took half of every sweep.  The locate
# points are x = p/q, y = 1/k with q, k <= MAX_HEIGHT and -1 <= x <= 2.
N_EXPRESS = 100
N_GEO = 48
MAX_FACTORS = 64
MAX_HEIGHT = 6
MAX_T_POWER = 10**5


@dataclass(frozen=True)
class Workload:
    builds: tuple[Group, ...]   # groups built (level -> polygon -> JSON) once per pass
    express_group: Group        # polygon that `express` queries run against
    geo_group: Group            # polygon that `locate` and `--trace` run against
    input_seed: int | None = None   # seed of the query inputs; None takes --seed


# Two workloads, each a merger of two that the benchmark first had
# (build-prime + build-composite, query-express + query-locate): on a 2-vCPU
# VM shared with other tenants, four workloads of 30 s did not give steady
# figures, and two workloads leave room for runs twice as long.
#
# Every workload reports every end-to-end metric.  On `query`, the builds are
# those of its two query polygons, made in the set-up of each pass.  On
# `build`, the query figures only fill the schema.  They run the queries
# against gamma0(11), the group of the smoke test, so that they take little
# of the run from the builds.  At that index the cost of a query depends on
# the input far more than at index 1010 or 10008: over five seeds the 90th
# percentile of locate moved by 70%.  So their inputs come from a fixed
# seed, and the build workload is the same in every run.
WORKLOADS = {
    "build": Workload(
        builds=(("gamma0", 100003), ("gamma", 31), ("gamma0", 15015),
                ("gamma_upper1", 330), ("gamma1", 210)),
        express_group=("gamma0", 11), geo_group=("gamma0", 11), input_seed=0),
    "query": Workload(
        builds=(),
        express_group=("gamma0", 10007), geo_group=("gamma0", 1009)),
    # Not a benchmark workload: the tiny configuration of check_smoke.py.
    "smoke": Workload(
        builds=(("gamma0", 11), ("gamma", 5)),
        express_group=("gamma0", 11), geo_group=("gamma", 5)),
}

# Seed of the fixed express set whose concatenated words are pinned in golden.json.
GOLDEN_EXPRESS_SEED = 20090101
GOLDEN_EXPRESS_COUNT = 48


# ---------------------------------------------------------------------------
# 2x2 integer matrices as (a, b, c, d) tuples, kept apart from modpoly.psl2

def mat_mul(m, n):
    a, b, c, d = m
    e, f, g, h = n
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def mat_pow(m, k):
    if k < 0:
        a, b, c, d = m
        m, k = (d, -b, -c, a), -k
    result = (1, 0, 0, 1)
    while k:
        if k & 1:
            result = mat_mul(result, m)
        m = mat_mul(m, m)
        k >>= 1
    return result


def same_psl2(m, n) -> bool:
    return m == n or m == tuple(-v for v in n)


def member(group: Group, m) -> bool:
    """Closed-form membership for the families the express groups use."""
    family, N = group
    a, b, c, d = m
    if family == "gamma0":
        return c % N == 0
    if family == "gamma1":
        return c % N == 0 and ((a - 1) % N == 0 or (a + 1) % N == 0)
    raise ValueError(f"no membership test for family {family!r}")


# ---------------------------------------------------------------------------
# inputs

@dataclass
class Inputs:
    express: list      # (Psl2Elt, expect_member)
    points: list       # ExactPoint
    trace: list        # Psl2Elt, all members
    golden_express: list  # Psl2Elt, all members


def _strata(rng, n):
    """n draws from [0, 1), one from each interval [i/n, (i+1)/n), shuffled.
    Stratified draws make the input mix, and so the run's figures, depend
    far less on the seed than independent draws would."""
    u = [(i + rng.random()) / n for i in range(n)]
    rng.shuffle(u)
    return u


def _spread_int(u, lo, hi):
    """Map u in [0, 1) onto lo..hi."""
    return lo + int(u * (hi - lo + 1))


def _random_power(rng, order):
    if order == 0:
        return rng.choice((1, -1))
    return rng.randint(1, order - 1)


def _product(rng, gens, factors):
    """Product of ``factors`` powers of random generators."""
    m = (1, 0, 0, 1)
    for _ in range(factors):
        gen, order = rng.choice(gens)
        m = mat_mul(m, mat_pow(gen, _random_power(rng, order)))
    return m


def _express_mix(rng, group, gens, count):
    """80% products of 1..MAX_FACTORS generators, 10% T^q with q on a
    log-uniform grid, 10% non-members, in seeded order.  T is in every
    gamma0 and gamma1 group."""
    n_power = count // 10
    n_non = count // 10
    n_member = count - n_power - n_non
    out = [(_product(rng, gens, _spread_int(u, 1, MAX_FACTORS)), True)
           for u in _strata(rng, n_member)]
    log_max = math.log(MAX_T_POWER)
    out += [((1, round(math.exp((i + 0.5) / n_power * log_max)), 0, 1), True)
            for i in range(n_power)]
    # S * member: its bottom-left entry is a unit mod N, so c != 0 mod N
    out += [(mat_mul((0, -1, 1, 0), _product(rng, gens, _spread_int(u, 1, MAX_FACTORS))), False)
            for u in _strata(rng, n_non)]
    rng.shuffle(out)
    for m, expect in out:
        if member(group, m) != expect:
            raise ValueError(f"input generator error: {m} membership is not {expect}")
    return out


def make_inputs(w: Workload, seed: int, express_gens, geo_gens, elt, point) -> Inputs:
    """Seeded inputs.  ``*_gens`` are the polygons' generators as
    ((a, b, c, d), order) pairs; ``elt`` and ``point`` build the library's
    Psl2Elt and ExactPoint."""
    rng = random.Random(seed)
    express = [(elt(*m), expect)
               for m, expect in _express_mix(rng, w.express_group, express_gens, N_EXPRESS)]
    # The cost of locate depends mostly on x: the gamma0 polygons contain the
    # strip 0 <= x <= 1 at these heights, and points left and right of it
    # cost one and two translations (at gamma0(1009) about 4, 11 and 16 ms
    # at their fastest).  A third of the points come from each of the three,
    # one from each stratum of its part of the grid sorted by position, so
    # that the median and the 90th percentile fall inside a class rather
    # than on the edge between two.
    h = MAX_HEIGHT
    grid = sorted({(Fraction(p, q), Fraction(1, k)) for q in range(1, h + 1)
                   for p in range(-q, 2 * q + 1) for k in range(1, h + 1)})
    points = []
    for part in ([z for z in grid if z[0] < 0], [z for z in grid if 0 <= z[0] <= 1],
                 [z for z in grid if z[0] > 1]):
        points += [point(*part[int(u * len(part))]) for u in _strata(rng, N_GEO // 3)]
    rng.shuffle(points)
    # one generator from each stratum of the generator list
    trace = []
    for u in _strata(rng, N_GEO):
        gen, order = geo_gens[int(u * len(geo_gens))]
        trace.append(elt(*mat_pow(gen, _random_power(rng, order))))
    golden_rng = random.Random(GOLDEN_EXPRESS_SEED)
    golden = [elt(*m) for m, expect in
              _express_mix(golden_rng, w.express_group, express_gens, GOLDEN_EXPRESS_COUNT)
              if expect]
    return Inputs(express, points, trace, golden)
