import random

import pytest

from modpoly.psl2 import (
    CUSP_INF,
    CUSP_ZERO,
    IDENTITY,
    S,
    T,
    U,
    Cusp,
    Psl2Elt,
    act_cusp,
    decompose_su,
    parse_matrix,
    su_reduce,
    t_runs,
)

from oracles import su_evaluate


def test_generator_relations():
    assert S * S == IDENTITY
    assert U * U * U == IDENTITY
    assert U * U * S == T


def test_determinant_check():
    with pytest.raises(ValueError):
        Psl2Elt(1, 0, 0, -1)
    with pytest.raises(ValueError):
        Psl2Elt(2, 0, 0, 2)


def test_sign_normalization():
    rng = random.Random(5)
    for _ in range(300):
        w = [random.choice([S, U]) for _ in range(rng.randint(0, 12))]
        g = IDENTITY
        for m in w:
            g = g * m
        neg = Psl2Elt(-g.a, -g.b, -g.c, -g.d)
        assert neg == g
        assert g.c > 0 or (g.c == 0 and g.d > 0)


def test_inverse():
    assert IDENTITY.inv() == IDENTITY
    assert T.inv() == Psl2Elt(1, -1, 0, 1)
    assert S.inv() == S
    rng = random.Random(6)
    for _ in range(200):
        g = su_evaluate([("U", rng.randint(1, 2)) if rng.random() < 0.6 else ("S", 1)
                         for _ in range(rng.randint(0, 20))])
        assert g * g.inv() == IDENTITY


def test_pow():
    assert T**5 == Psl2Elt(1, 5, 0, 1)
    assert T**-3 == Psl2Elt(1, -3, 0, 1)
    assert (U**2) * U == IDENTITY
    assert S**0 == IDENTITY


def test_torsion_order():
    assert IDENTITY.torsion_order() == 1
    assert S.torsion_order() == 2
    assert U.torsion_order() == 3
    assert T.torsion_order() == 0
    assert (U * S * U.inv()).torsion_order() == 2


def test_cusp_normalization():
    assert Cusp(2, 4) == Cusp(1, 2)
    assert Cusp(-3, -6) == Cusp(1, 2)
    assert Cusp(5, 0) == CUSP_INF
    assert Cusp(-2, 0) == CUSP_INF
    with pytest.raises(ValueError):
        Cusp(0, 0)


def test_act_cusp_examples():
    assert act_cusp(T, CUSP_INF) == CUSP_INF
    assert act_cusp(S, CUSP_ZERO) == CUSP_INF
    assert act_cusp(U * U, CUSP_ZERO) == CUSP_INF


def test_act_cusp_is_action():
    rng = random.Random(7)
    for _ in range(300):
        g = su_evaluate([("U", rng.randint(1, 2)) if rng.random() < 0.5 else ("S", 1)
                         for _ in range(rng.randint(0, 15))])
        h = su_evaluate([("U", rng.randint(1, 2)) if rng.random() < 0.5 else ("S", 1)
                         for _ in range(rng.randint(0, 15))])
        p, q = rng.randint(-20, 20), rng.randint(0, 20)
        x = Cusp(p, q) if (p, q) != (0, 0) else CUSP_INF
        assert act_cusp(g, act_cusp(h, x)) == act_cusp(g * h, x)


def test_decompose_su_examples():
    assert decompose_su(IDENTITY) == []
    assert decompose_su(S) == [("S", 1)]
    assert decompose_su(T) == [("U", 2), ("S", 1)]
    assert su_evaluate([("U", 2), ("S", 1)]) == T


def test_decompose_su_round_trip():
    rng = random.Random(8)
    for _ in range(1000):
        word = [("S", 1) if rng.random() < 0.4 else ("U", rng.randint(1, 2))
                for _ in range(rng.randint(0, 40))]
        g = su_evaluate(word)
        back = decompose_su(g)
        assert su_evaluate(back) == g
        # reduced: letters alternate between the two factors
        for first, second in zip(back, back[1:]):
            assert first[0] != second[0]


def test_su_reduce():
    assert su_reduce([("S", 1), ("S", 1)]) == []
    assert su_reduce([("U", 1), ("U", 2)]) == []
    assert su_reduce([("U", 1), ("U", 1)]) == [("U", 2)]
    assert su_reduce([("S", 1), ("U", 1), ("U", 2), ("S", 1)]) == []


def test_parse_matrix():
    assert parse_matrix("1,1,0,1") == T
    assert parse_matrix(" 0 , -1 , 1 , 0 ") == S
    with pytest.raises(ValueError):
        parse_matrix("1,1,0")
    with pytest.raises(ValueError):
        parse_matrix("1,1,x,1")
    with pytest.raises(ValueError):
        parse_matrix("1,1,1,1")


def runs_product(runs):
    h = T ** runs[0]
    for r in runs[1:]:
        h = h * S * T**r
    return h


def test_t_runs_round_trip():
    rng = random.Random(7)
    for _ in range(200):
        g = su_evaluate([("U", rng.randint(1, 2)) if rng.random() < 0.5 else ("S", 1)
                         for _ in range(rng.randint(0, 30))])
        assert runs_product(t_runs(g)) == g
    assert t_runs(T ** 10**9) == [10**9]
    assert t_runs(S) == [0, 0]


def test_t_runs_count_is_logarithmic():
    # S T^n S = [[-1, 0], [n, -1]]: a descent that rounds d/c down takes one
    # step per unit of n here, rounding to the nearest integer a few
    n = 10**12
    assert len(t_runs(S * T**n * S)) <= 4
    for g in (S * T**n * S * T, T**n * S * T**-n * S * U):
        runs = t_runs(g)
        assert runs_product(runs) == g
        assert len(runs) <= 2 * max(abs(x) for x in g.tuple()).bit_length() + 2
