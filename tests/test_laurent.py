"""Laurent-ring arithmetic against frozen values and sympy."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from cgalex.laurent import (LaurentPoly, ZERO, ONE, T, ONE_MINUS_T,
                            parse_poly, eval_at, normalize_unit,
                            gcd_primitive, divides, exact_div,
                            split_unipotent, cyclotomic, euler_phi,
                            unipotent_admissible, reduce_mod_cyclic,
                            ZeroAtNegativeExponent, NotUnipotentSplit,
                            PolySyntax, FACTOR_LIMIT, _factorize)
from cgalex import PreconditionError

import oracles


def P(text):
    return parse_poly(text)


coeff_maps = st.dictionaries(st.integers(-6, 6), st.integers(-9, 9), max_size=6)
polys = coeff_maps.map(LaurentPoly)
plain_polys = st.dictionaries(st.integers(0, 6), st.integers(-9, 9),
                              max_size=6).map(LaurentPoly)


# ---------------------------------------------------------------------------
# arithmetic


def test_ring_identities():
    assert P("t - 1") * P("t + 1") == P("t^2 - 1")
    assert ONE_MINUS_T * LaurentPoly.constant(-2) + ONE == P("2t - 1")
    assert P("t^-1") * T == ONE


def test_zero_handling():
    assert (P("t") - P("t")).is_zero
    assert ZERO * P("t^5 - 3") == ZERO
    assert str(ZERO) == "0"


@given(polys, polys, polys)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + ZERO == a and a * ONE == a


# ---------------------------------------------------------------------------
# evaluation


def test_eval_at():
    assert eval_at(P("t^2 - t + 1"), 1) == 1
    for m in (1, 2, 3, 10, 10 ** 6):
        assert eval_at(LaurentPoly({1: m + 1, 0: -m}), 1) == 1
    assert eval_at(P("t^-2 + t"), 1) == 2
    assert eval_at(P("t^-1 + t"), -1) == -2


def test_eval_at_exactness():
    # 2^-2 + 2 is not an integer; exact arithmetic must notice
    from cgalex.laurent import NonIntegralValue
    with pytest.raises(NonIntegralValue):
        eval_at(P("t^-2 + t"), 2)


def test_eval_at_zero():
    assert eval_at(P("t^2 + 7"), 0) == 7
    with pytest.raises(ZeroAtNegativeExponent):
        eval_at(P("t^-1 + 1"), 0)


# ---------------------------------------------------------------------------
# unit normalization


def test_normalize_unit_golden():
    assert normalize_unit(P("-t^-1 + 1")) == P("t - 1")
    assert normalize_unit(P("2t - 1")) == P("2t - 1")
    assert normalize_unit(ZERO) == ZERO


@given(polys, polys)
def test_normalize_unit_multiplicative(p, q):
    lhs = normalize_unit(p * q)
    rhs = normalize_unit(normalize_unit(p) * normalize_unit(q))
    assert lhs == rhs


@given(polys, st.integers(-5, 5), st.booleans())
def test_normalize_unit_kills_units(p, k, flip):
    unit = LaurentPoly.monomial(-1 if flip else 1, k)
    assert normalize_unit(p * unit) == normalize_unit(p)


# ---------------------------------------------------------------------------
# gcd


def test_gcd_golden():
    assert gcd_primitive(P("t^2 - 1"), P("t^3 - 1")) == P("t - 1")
    assert gcd_primitive(P("2"), P("4t")) == P("2")
    assert gcd_primitive(P("3t - 2"), ZERO) == P("3t - 2")
    assert gcd_primitive(ZERO, ZERO) == ZERO


@given(polys, polys)
@settings(max_examples=60)
def test_gcd_divides_both(p, q):
    g = gcd_primitive(p, q)
    if g.is_zero:
        assert p.is_zero and q.is_zero
    else:
        assert divides(g, p) and divides(g, q)


@given(polys, polys)
@settings(max_examples=60)
def test_gcd_matches_sympy(p, q):
    got = gcd_primitive(p, q)
    want = oracles.sympy_gcd_canonical(dict(p.items()), dict(q.items()))
    assert dict(got.items()) == want


# ---------------------------------------------------------------------------
# unipotent split


def test_split_unipotent_golden():
    assert split_unipotent(ONE) == ZERO
    assert split_unipotent(P("2t - 1")) == P("-2")
    assert split_unipotent(P("t^2 - t + 1")) == P("-t")


def test_split_unipotent_rejects():
    with pytest.raises(NotUnipotentSplit):
        split_unipotent(P("t + 1"))  # value 2 at t=1
    with pytest.raises(NotUnipotentSplit):
        split_unipotent(P("t^-1"))  # not a polynomial


@given(plain_polys)
def test_split_unipotent_inverse(g):
    f = ONE_MINUS_T * g + ONE
    assert split_unipotent(f) == g
    assert ONE_MINUS_T * split_unipotent(f) + ONE == f


# ---------------------------------------------------------------------------
# cyclotomics


def test_cyclotomic_golden():
    assert cyclotomic(1) == P("t - 1")
    assert cyclotomic(2) == P("t + 1")
    assert cyclotomic(6) == P("t^2 - t + 1")
    for p, i in ((2, 1), (2, 3), (3, 2), (5, 1), (7, 1)):
        assert eval_at(cyclotomic(p ** i), 1) == p


def test_cyclotomic_product_law():
    for n in range(1, 31):
        prod = ONE
        for d in range(1, n + 1):
            if n % d == 0:
                prod = prod * cyclotomic(d)
        assert prod == LaurentPoly({n: 1, 0: -1})


def test_cyclotomic_matches_sympy():
    for d in range(1, 41):
        assert dict(cyclotomic(d).items()) == oracles.sympy_cyclotomic_coeffs(d)


def test_unipotent_admissible():
    assert unipotent_admissible(P("t^2 - t + 1")).ok
    r = unipotent_admissible(P("t - 1"))
    assert not r.ok and "even-degree" in r.violated
    r = unipotent_admissible(P("t^2 + t + 1"))
    assert set(r.violated) == {"no-prime-power-cyclotomic", "unit-value-at-one"}
    # squares are caught
    phi6 = cyclotomic(6)
    r = unipotent_admissible(phi6 * phi6)
    assert "no-repeated-factor" in r.violated
    # a genuinely non-cyclotomic factor
    r = unipotent_admissible(P("t^2 - t - 1"))
    assert "product-of-cyclotomics" in r.violated
    # the composite-index product that drives the covering tests
    assert unipotent_admissible(cyclotomic(6) * cyclotomic(12)).ok


# ---------------------------------------------------------------------------
# cyclic reduction


def test_reduce_mod_cyclic_golden():
    assert reduce_mod_cyclic(P("t^3"), 2) == (0, 1)
    assert reduce_mod_cyclic(P("t^2 - t + 1"), 2) == (2, -1)
    assert reduce_mod_cyclic(P("t^-1"), 3) == (0, 0, 1)


@given(polys, polys, st.integers(1, 6))
@settings(max_examples=60)
def test_reduce_mod_cyclic_is_ring_map(p, q, k):
    a = reduce_mod_cyclic(p, k)
    b = reduce_mod_cyclic(q, k)
    conv = [0] * k
    for i in range(k):
        for j in range(k):
            conv[(i + j) % k] += a[i] * b[j]
    assert reduce_mod_cyclic(p * q, k) == tuple(conv)


# ---------------------------------------------------------------------------
# text format


def test_parse_golden():
    assert P("t^2 - t + 1") == LaurentPoly({2: 1, 1: -1, 0: 1})
    assert P("3t - 2") == LaurentPoly({1: 3, 0: -2})
    assert P("t^-1 + 1") == LaurentPoly({-1: 1, 0: 1})
    assert P("0") == ZERO
    assert P("-t") == LaurentPoly({1: -1})
    assert P("2t^3") == LaurentPoly({3: 2})


def test_parse_whitespace_insensitive():
    assert P("t^2-t+1") == P("t^2 - t + 1")
    assert P("  3t -2 ") == P("3t - 2")


def test_parse_errors():
    for bad in ("", "t^", "x + 1", "3 3", "t^2 +", "^2", "2t^2.5"):
        with pytest.raises(PolySyntax):
            parse_poly(bad)


def test_parse_error_location():
    with pytest.raises(PolySyntax) as err:
        parse_poly("t^2 - ?", filename="f.lm", line=4)
    assert "f.lm:4" in str(err.value)


@given(polys)
def test_serialize_round_trip(p):
    assert parse_poly(str(p)) == p


def test_serialize_descending():
    assert str(P("1 + t + t^2")) == "t^2 + t + 1"
    assert str(P("t^-1 + 3")) == "3 + t^-1"
    assert str(LaurentPoly({1: -1})) == "-t"


# ---------------------------------------------------------------------------
# exact division helpers


def test_exact_div():
    assert exact_div(P("t^2 - 1"), P("t - 1")) == P("t + 1")
    with pytest.raises(ArithmeticError):
        exact_div(P("t^2 + 1"), P("t - 1"))
    assert divides(P("t - 1"), P("t^6 - 1"))
    assert not divides(P("t^4 + 1"), P("t^6 - 1"))
    # leading coefficients that are not units
    assert exact_div(P("2t^2 + t - 1"), P("2t - 1")) == P("t + 1")
    assert not divides(P("4t - 2"), P("2t - 1"))  # quotient 1/2 over Q
    assert not divides(P("2t - 1"), P("t^2 + 1"))
    assert gcd_primitive(P("6t^2 + 3t - 3"), P("6t^2 + t - 2")) == P("2t - 1")


def test_factorize_is_bounded():
    assert _factorize(1) == {}
    assert _factorize(2 ** 40 * 1000003) == {2: 40, 1000003: 1}
    assert _factorize(1000000007) == {1000000007: 1}
    with pytest.raises(PreconditionError):
        _factorize(1000003 * 1000033)  # both primes above FACTOR_LIMIT
    assert FACTOR_LIMIT == 10 ** 6


def test_euler_phi():
    known = {1: 1, 2: 1, 3: 2, 4: 2, 6: 2, 12: 4, 30: 8}
    for n, v in known.items():
        assert euler_phi(n) == v
