"""Correctness checks, run outside the timed spans.

Each check returns True when the output is right.  The caller counts every
False as a failed operation.  The checks use their own exact arithmetic on
integer tuples and Fractions, apart from ``SpecialPolygon.contains`` for
"the located point lies in the polygon".
"""

from __future__ import annotations

import hashlib
import json
import os
from fractions import Fraction

from workloads import mat_mul, mat_pow, same_psl2

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")


def load_golden(path: str = GOLDEN_PATH) -> dict:
    with open(path) as handle:
        return json.load(handle)


def group_key(group) -> str:
    family, level = group
    return f"{family}({level})"


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def words_digest(words) -> str:
    """Digest of the concatenated words, one "i^e" list per line."""
    return sha256("".join(" ".join(f"{i}^{e}" for i, e in w) + "\n" for w in words))


def gen_tuples(poly):
    return [(g.tuple(), order) for g, order in poly.generators]


def evaluate(gens, word):
    m = (1, 0, 0, 1)
    for i, e in word:
        m = mat_mul(m, mat_pow(gens[i][0], e))
    return m


def is_normal_form(gens, word) -> bool:
    """Free-product normal form: no empty or repeated syllable and torsion
    exponents in 1..order-1."""
    for k, (i, e) in enumerate(word):
        if not 0 <= i < len(gens) or e == 0:
            return False
        if k and word[k - 1][0] == i:
            return False
        order = gens[i][1]
        if order and not 0 < e < order:
            return False
    return True


def act(m, x: Fraction, y: Fraction) -> tuple[Fraction, Fraction]:
    """Moebius action on x + iy."""
    a, b, c, d = m
    den = (c * x + d) ** 2 + (c * y) ** 2
    return ((a * x + b) * (c * x + d) + a * c * y * y) / den, y / den


def check_build(golden: dict, group, json_text: str) -> bool:
    return golden["polygon_sha256"].get(group_key(group)) == sha256(json_text)


def check_word(gens, g, word) -> bool:
    return is_normal_form(gens, word) and same_psl2(evaluate(gens, word), g.tuple())


def check_golden_words(golden: dict, group, words) -> bool:
    return golden["express_words_sha256"].get(group_key(group)) == words_digest(words)


def check_locate(poly, gens, z, w, word) -> bool:
    """w lies in the polygon and gamma * w = z for gamma the word's value."""
    return (poly.contains(w.x, w.y * w.y) and is_normal_form(gens, word)
            and act(evaluate(gens, word), w.x, w.y) == (z.x, z.y))
