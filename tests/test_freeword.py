"""Free-group words and the abelianized free derivative."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from cgalex.freeword import (Word, EMPTY, parse_word, fox_nu,
                             as_c_relation, w_of_poly, r_of_poly, r_of_vector,
                             WordSyntax, NotConjugationRelator)
from cgalex.laurent import (LaurentPoly, ZERO, ONE, T, ONE_MINUS_T,
                            parse_poly, eval_at, split_unipotent,
                            NotUnipotentSplit)

import oracles


def W(text):
    return parse_word(text)


letters = st.tuples(st.integers(1, 4), st.sampled_from((1, -1)))
words = st.lists(letters, max_size=8).map(Word)


# ---------------------------------------------------------------------------
# word algebra


def test_parse_and_reduce():
    assert W("x1 x2^-1 x2 x1") == W("x1 x1")
    assert W("x1 x1^-1").is_empty
    assert W("x3^2") == Word(((3, 1), (3, 1)))
    assert str(W("x1 x1 x2^-1")) == "x1^2 x2^-1"
    assert str(EMPTY) == "."
    assert parse_word(".") == EMPTY


def test_parse_errors():
    for bad in ("x0", "x", "y1", "x1^", "x1^0", "x1x2", ""):
        with pytest.raises(WordSyntax):
            parse_word(bad)


def test_group_ops():
    w = W("x1 x2^-1")
    assert w * w.inverse() == EMPTY
    assert w ** -2 == (w * w).inverse()
    assert W("x2").conjugated_by(W("x1")) == W("x1^-1 x2 x1")
    assert (w ** 3).exponent_sum() == 0
    assert W("x1 x2 x3^-1").exponent_sum() == 1


@given(words, words)
def test_inverse_and_product(u, v):
    assert (u * v).inverse() == v.inverse() * u.inverse()
    assert u * u.inverse() == EMPTY
    assert (u * v).exponent_sum() == u.exponent_sum() + v.exponent_sum()


@given(words)
def test_word_round_trip(w):
    assert parse_word(str(w)) == w


# ---------------------------------------------------------------------------
# abelianized derivative


def test_fox_on_single_letters():
    assert fox_nu(W("x1"), 1) == ONE
    assert fox_nu(W("x1"), 2) == ZERO
    assert fox_nu(W("x1^-1"), 1) == -LaurentPoly.monomial(1, -1)


def test_fox_golden_rows():
    # braid relator on two strands
    r = W("x1 x2 x1 x2^-1 x1^-1 x2^-1")
    assert fox_nu(r, 1) == parse_poly("t^2 - t + 1")
    assert fox_nu(r, 2) == parse_poly("-t^2 + t - 1")
    # x2 = (x2^-1 x1)^-m x1 (x2^-1 x1)^m for m = 1, 2, 3
    for m in (1, 2, 3):
        conj = W("x2^-1 x1") ** m
        r = conj.inverse() * W("x1") * conj * W("x2^-1")
        assert fox_nu(r, 1) == LaurentPoly({-1: -m, 0: m + 1})
        assert fox_nu(r, 2) == LaurentPoly({-1: m, 0: -m - 1})


@given(words, words, st.integers(1, 4))
def test_fox_product_rule(u, v, i):
    s = LaurentPoly.monomial(1, u.exponent_sum())
    assert fox_nu(u * v, i) == fox_nu(u, i) + s * fox_nu(v, i)


@given(words, st.integers(1, 4))
def test_fox_inverse_rule(w, i):
    s = LaurentPoly.monomial(1, -w.exponent_sum())
    assert fox_nu(w.inverse(), i) == -s * fox_nu(w, i)


@given(words, st.integers(1, 4))
def test_fox_vanishes_on_commutators(w, i):
    u = W("x1 x2 x3")
    c = u * w * u.inverse() * w.inverse()
    # the derivative of a commutator evaluates to 0 at t = 1
    assert eval_at(fox_nu(c, i), 1) == 0


# ---------------------------------------------------------------------------
# conjugation-relator recognition


def test_as_c_relation_golden():
    assert as_c_relation(W("x1 x2 x1 x2^-1 x1^-1 x2^-1")) == (1, 2, W("x1 x2"))
    assert as_c_relation(W("x3 x1 x3^-1 x2^-1")) == (1, 2, W("x3"))
    # a generator conjugated onto itself: the commuting form
    assert as_c_relation(W("x2^-1 x1 x2 x1^-1")) == (1, 1, W("x2^-1"))


def test_as_c_relation_rejects():
    for text in ("x1 x2", "x1 x1 x2^-1", ".", "x1 x2 x1^-1 x2"):
        with pytest.raises(NotConjugationRelator):
            as_c_relation(W(text))


@given(st.integers(1, 3), st.integers(1, 3), words)
def test_as_c_relation_round_trip(j, l, w):
    r = w * Word.gen(j) * w.inverse() * Word.gen(l) ** -1
    if r.is_empty:
        return
    j2, l2, w2 = as_c_relation(r)
    rebuilt = w2 * Word.gen(j2) * w2.inverse() * Word.gen(l2) ** -1
    assert rebuilt == r


# ---------------------------------------------------------------------------
# words with a prescribed derivative


def test_w_of_poly_blocks():
    assert w_of_poly(ONE, 1, 2) == W("x1 x2^-1")
    assert w_of_poly(parse_poly("-2"), 1, 2) == W("x2 x1^-1 x2 x1^-1")
    assert w_of_poly(T, 1, 2) == W("x2 x1 x2^-2")


def test_w_of_poly_derivative():
    for text in ("1", "-2", "t", "t^2 - t", "3t - 3"):
        g = parse_poly(text)
        w = w_of_poly(g, 1, 2)
        assert w.exponent_sum() == 0
        assert fox_nu(w, 1) == g


def test_r_of_poly_golden():
    assert r_of_poly(ONE, 1, 2) == W("x1 x2^-1")
    r = r_of_poly(parse_poly("2t - 1"), 1, 2)
    assert fox_nu(r, 1) == parse_poly("2t - 1")
    assert fox_nu(r, 2) == parse_poly("-2t + 1")
    with pytest.raises(NotUnipotentSplit):
        r_of_poly(parse_poly("t + 1"), 1, 2)


def test_r_of_poly_realizes_any_unit_value_polynomial():
    # frozen sweep: 200 seeded draws with f(1) = 1 recover f exactly
    rng = random.Random(20240817)
    for _ in range(200):
        g = LaurentPoly({rng.randrange(0, 5): rng.randrange(-5, 6)
                         for _ in range(rng.randrange(4))})
        f = ONE_MINUS_T * g + ONE
        assert eval_at(f, 1) == 1
        r = r_of_poly(f, 1, 2)
        assert fox_nu(r, 1) == f
        assert fox_nu(r, 2) == -f
        assert r.exponent_sum() == 0


def test_r_of_vector():
    # all-zero data collapses to the empty relator
    assert r_of_vector((ZERO, ZERO)).is_empty
    assert r_of_vector([ONE]) == W("x1 x2 x1^-1 x2^-1")
    gs = (ONE, ZERO)
    r = r_of_vector(gs)
    assert fox_nu(r, 1) == ONE_MINUS_T
    assert fox_nu(r, 2) == ZERO
    assert eval_at(fox_nu(r, 3), 1) == 0


def test_r_of_vector_sweep():
    rng = random.Random(31)
    for _ in range(120):
        m = rng.randrange(1, 4)
        gs = tuple(LaurentPoly({rng.randrange(0, 3): rng.randrange(-3, 4)
                                for _ in range(rng.randrange(3))})
                   for _ in range(m))
        r = r_of_vector(gs)
        for i, g in enumerate(gs, start=1):
            assert fox_nu(r, i) == ONE_MINUS_T * g
        assert r.exponent_sum() == 0
