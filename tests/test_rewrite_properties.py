"""Property tests of the rewriting walk.  reduce._rewrite takes a run that
goes round its T-cycle at least twice as one walked turn and a power of
that turn's word; it must give the label and the word of the letter walk,
oracles.reference_rewrite, which takes every power of T as three letters.
Inputs are runs of both signs, short and long, and the turns k times round
each cusp, dev[x] * T^(k w) * dev[x]^-1, whose words are powers of the
cusp's parabolic word: one syllable at a cusp whose pair of sides is one
generator, 5 at the cusp 0 of gamma0(11) and up to 4991 in gamma0(15015).
The random coset systems of test_random_systems get the same test there,
and every U-fixed label of gamma0(1), (7), (13) and (91), where a T letter
emits its u_gen syllable twice, is walked through by a deterministic one."""

from hypothesis import given, settings, strategies as st

from modpoly.cosets import FAMILIES
from modpoly.psl2 import T, Psl2Elt, t_runs
from modpoly.reduce import _rewrite, _split_cyclic, reduce_word

from oracles import built_polygon, reference_rewrite, turn_runs

# short runs, which the letter loop walks, and long ones, which go round
# the cycles of the small levels below (widths up to 20) several times
runs = st.lists(st.one_of(st.integers(-12, 12), st.integers(-400, 400)), min_size=1, max_size=6)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(FAMILIES), st.integers(1, 20), runs, st.data())
def test_rewrite_equals_the_letter_walk(family, N, runs, data):
    poly = built_polygon(family, N)
    assert _rewrite(poly, runs) == reference_rewrite(poly, runs)
    x = data.draw(st.integers(0, poly.system.n - 1))
    k = data.draw(st.integers(-4, 4))
    turns = turn_runs(poly, x, k)
    assert _rewrite(poly, turns) == reference_rewrite(poly, turns)


# generators of infinite order and of orders 2 and 3: the split reads only
# the order of each
ORDERS = [(None, 0), (None, 2), (None, 3), (None, 0), (None, 3)]
syllables = st.tuples(st.integers(0, len(ORDERS) - 1), st.integers(-3, 3))


@settings(max_examples=300, deadline=None)
@given(st.lists(syllables, max_size=10), st.lists(syllables, max_size=4))
def test_split_cyclic(middle, outer):
    # conjugates u * c * u^-1 with a prefix that cancels, or merges, into c
    inverse = [(idx, -exp) for idx, exp in reversed(outer)]
    word = reduce_word(outer + middle + inverse, ORDERS)
    u, c = _split_cyclic(word, ORDERS)
    assert reduce_word(u + c + [(idx, -exp) for idx, exp in reversed(u)], ORDERS) == word
    if len(c) > 1:
        # its powers are reduced as they stand
        assert reduce_word(c + c, ORDERS) == c + c


def _cusp_labels(system):
    """One label of each T-cycle."""
    return sorted({id(c): c[0] for c in system.t_cycle}.values())


def test_turns_round_every_cusp():
    for family, N in (("gamma0", 1), ("gamma0", 11), ("gamma", 7), ("gamma1", 13),
                      ("gamma_upper1", 12), ("gamma0", 15015)):
        poly = built_polygon(family, N)
        widths = []
        for x in _cusp_labels(poly.system):
            w = len(poly.system.t_cycle[x])
            _, word = reference_rewrite(poly, turn_runs(poly, x, 1))
            c = _split_cyclic(word, poly.generators)[1]
            # a turn emits at most two syllables per letter
            assert 1 <= len(c) <= 2 * w
            widths.append((w, len(c)))
            # two and three turns, and seven, past MIN_COUNTED_RUN at width 1
            for k in (2, 3, -2, -3, 7, -7):
                runs = turn_runs(poly, x, k)
                assert _rewrite(poly, runs) == reference_rewrite(poly, runs)
        if N in (1, 11):
            assert sorted(widths) == ([(1, 2)] if N == 1 else [(1, 1), (11, 5)])
        if N == 15015:
            assert max(widths) == (15015, 4991)


def test_rewrite_at_every_u_fixed_label():
    # the letter loop tests u_gen once per T and emits it twice at a U-fixed
    # label x (su[x] = x): walk dev[x] * T^r, whose runs end in x's T-cycle,
    # at each such label, which random draws may miss
    for N, fixed in ((1, 1), (7, 2), (13, 2), (91, 4)):
        poly = built_polygon("gamma0", N)
        labels = [x for x in range(poly.system.n) if poly.system.sigma_u[x] == x]
        assert len(labels) == fixed
        for x in labels:
            assert poly.u_gen[x] is not None
            g = Psl2Elt._make(*poly.dev[x])
            for r in range(-7, 8):
                runs = t_runs(g * T ** r)
                assert _rewrite(poly, runs) == reference_rewrite(poly, runs), (N, x, r)
