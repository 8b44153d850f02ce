"""Exact arithmetic in the ring of integer Laurent polynomials Z[t, t^-1].

All coefficients are arbitrary-precision Python integers; nothing here ever
rounds.  Units of the ring are +-t^k, and :func:`normalize_unit` picks the
canonical representative of each unit orbit (lowest exponent 0, positive
leading coefficient).  Cyclotomic factorization and the bounded integer
factoring that the other modules share live here too.
"""

from __future__ import annotations

import functools
import re
from fractions import Fraction
from math import gcd

from .errors import ParseError, PreconditionError


class ZeroAtNegativeExponent(PreconditionError):
    """Evaluation at 0 requested for a polynomial with negative exponents."""


class NonIntegralValue(PreconditionError):
    """Evaluation produced a non-integer (negative exponents at |n| >= 2)."""


class NotPolynomial(PreconditionError):
    """A Laurent polynomial with negative exponents where Z[t] was required."""


class NotUnipotentSplit(PreconditionError):
    """f cannot be written as (1-t)g + 1 with g in Z[t]."""


class PolySyntax(ParseError):
    """Malformed polynomial text."""


class LaurentPoly:
    """An integer Laurent polynomial in the single variable t.

    Stored as a map from exponent (possibly negative) to nonzero integer
    coefficient; the zero polynomial has an empty map.

    >>> p = parse_poly("t^2 - t + 1")
    >>> p * parse_poly("t + 1")
    LaurentPoly('t^3 + 1')
    >>> p - p
    LaurentPoly('0')
    >>> parse_poly("t^-1") * parse_poly("t")
    LaurentPoly('1')
    """

    __slots__ = ("_terms",)

    def __init__(self, terms=()):
        items = terms.items() if isinstance(terms, dict) else terms
        acc: dict[int, int] = {}
        for exp, coeff in items:
            if not isinstance(exp, int) or not isinstance(coeff, int):
                raise TypeError("exponents and coefficients must be int")
            if coeff:
                acc[exp] = acc.get(exp, 0) + coeff
                if not acc[exp]:
                    del acc[exp]
        object.__setattr__(self, "_terms", acc)

    def __setattr__(self, name, value):
        raise AttributeError("LaurentPoly is immutable")

    @classmethod
    def constant(cls, c: int) -> "LaurentPoly":
        return cls({0: c})

    @classmethod
    def monomial(cls, coeff: int, exp: int) -> "LaurentPoly":
        """coeff * t^exp.

        >>> LaurentPoly.monomial(-3, 2)
        LaurentPoly('-3t^2')
        """
        return cls({exp: coeff})

    def items(self):
        """Terms as (exponent, coefficient) pairs, descending exponent."""
        return sorted(self._terms.items(), reverse=True)

    def coefficient(self, exp: int) -> int:
        return self._terms.get(exp, 0)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def is_polynomial(self) -> bool:
        """True when no exponent is negative (element of Z[t])."""
        return all(e >= 0 for e in self._terms)

    @property
    def degree(self):
        """Highest exponent, or None for the zero polynomial."""
        return max(self._terms) if self._terms else None

    @property
    def lowest_exponent(self):
        return min(self._terms) if self._terms else None

    @property
    def leading_coefficient(self) -> int:
        """Coefficient of the highest power; 0 for the zero polynomial."""
        return self._terms[max(self._terms)] if self._terms else 0

    def __eq__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __bool__(self):
        return bool(self._terms)

    def __add__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        out = dict(self._terms)
        for e, c in other._terms.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return LaurentPoly(out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return LaurentPoly({e: -c for e, c in self._terms.items()})

    def __mul__(self, other):
        if isinstance(other, int):
            other = LaurentPoly.constant(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        out: dict[int, int] = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                e = e1 + e2
                s = out.get(e, 0) + c1 * c2
                if s:
                    out[e] = s
                else:
                    del out[e]
        return LaurentPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a general Laurent polynomial")
        result = ONE
        for _ in range(n):
            result = result * self
        return result

    def shift(self, k: int) -> "LaurentPoly":
        """Multiply by the unit t^k.

        >>> parse_poly("t - 1").shift(-1)
        LaurentPoly('1 - t^-1')
        """
        return LaurentPoly({e + k: c for e, c in self._terms.items()})

    def __str__(self):
        if not self._terms:
            return "0"
        parts = []
        for exp, coeff in self.items():
            mag = abs(coeff)
            if exp == 0:
                body = str(mag)
            else:
                tpart = "t" if exp == 1 else f"t^{exp}"
                body = tpart if mag == 1 else f"{mag}{tpart}"
            if not parts:
                parts.append(body if coeff > 0 else "-" + body)
            else:
                parts.append(("+ " if coeff > 0 else "- ") + body)
        return " ".join(parts)

    def __repr__(self):
        return f"LaurentPoly({str(self)!r})"


ZERO = LaurentPoly()
ONE = LaurentPoly.constant(1)
T = LaurentPoly.monomial(1, 1)
ONE_MINUS_T = ONE - T


def parse_poly(text: str, *, filename=None, line=None) -> LaurentPoly:
    """Parse the polynomial grammar: a signed sum of terms
    ``INT | INT t | INT t^SIGNEDINT | t | t^SIGNEDINT``; whitespace is
    insignificant.

    >>> parse_poly("t^2 - t + 1")
    LaurentPoly('t^2 - t + 1')
    >>> parse_poly("3t - 2")
    LaurentPoly('3t - 2')
    >>> parse_poly("t^-1 + 1")
    LaurentPoly('1 + t^-1')
    >>> parse_poly("0")
    LaurentPoly('0')
    """

    def fail(message, column):
        raise PolySyntax(f"{message} (column {column + 1})",
                         filename=filename, line=line, column=column + 1)

    i, n = 0, len(text)
    terms: dict[int, int] = {}
    first = True

    def skip_ws(pos):
        while pos < n and text[pos].isspace():
            pos += 1
        return pos

    i = skip_ws(i)
    if i == n:
        fail("empty polynomial", i)
    while i < n:
        sign = 1
        if text[i] in "+-":
            sign = -1 if text[i] == "-" else 1
            i = skip_ws(i + 1)
        elif not first:
            fail("expected '+' or '-' between terms", i)
        coeff = None
        if i < n and text[i].isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            coeff = int(text[i:j])
            i = skip_ws(j)
        exp = 0
        if i < n and text[i] == "t":
            exp = 1
            i = skip_ws(i + 1)
            if i < n and text[i] == "^":
                i = skip_ws(i + 1)
                j = i
                if j < n and text[j] in "+-":
                    j += 1
                k = j
                while k < n and text[k].isdigit():
                    k += 1
                if k == j:
                    fail("expected integer exponent after '^'", i)
                exp = int(text[i:k])
                i = skip_ws(k)
        elif coeff is None:
            fail("expected a term", i)
        c = 1 if coeff is None else coeff
        terms[exp] = terms.get(exp, 0) + sign * c
        first = False
    return LaurentPoly(terms)


def eval_at(p: LaurentPoly, n: int) -> int:
    """Exact value of p at the integer n.

    n = 0 is permitted only when p has no negative exponents (the value is
    the constant term); elsewhere the value must come out an integer.

    >>> eval_at(parse_poly("t^2 - t + 1"), 1)
    1
    >>> eval_at(parse_poly("3t - 2"), 1)
    1
    >>> eval_at(parse_poly("t^-1 + 1"), 0)
    Traceback (most recent call last):
        ...
    cgalex.laurent.ZeroAtNegativeExponent: value at 0 undefined: negative exponent -1
    """
    if n == 0:
        low = p.lowest_exponent
        if low is not None and low < 0:
            raise ZeroAtNegativeExponent(
                f"value at 0 undefined: negative exponent {low}")
        return p.coefficient(0)
    value = Fraction(0)
    for e, c in p._terms.items():
        value += Fraction(c) * Fraction(n) ** e
    if value.denominator != 1:
        raise NonIntegralValue(f"value of {p} at {n} is not an integer")
    return int(value)


def normalize_unit(p: LaurentPoly) -> LaurentPoly:
    """Canonical representative of p under multiplication by units +-t^k:
    lowest exponent 0 and positive leading (highest-degree) coefficient.

    >>> normalize_unit(parse_poly("-t^-1 + 1"))
    LaurentPoly('t - 1')
    >>> normalize_unit(parse_poly("2t - 1"))
    LaurentPoly('2t - 1')
    >>> normalize_unit(ZERO)
    LaurentPoly('0')
    """
    if p.is_zero:
        return ZERO
    q = p.shift(-p.lowest_exponent)
    if q.leading_coefficient < 0:
        q = -q
    return q


def _dense(p: LaurentPoly) -> list[int]:
    """Coefficient list c[0..deg] of a polynomial (no negative exponents)."""
    assert p.is_polynomial
    if p.is_zero:
        return []
    out = [0] * (p.degree + 1)
    for e, c in p._terms.items():
        out[e] = c
    return out


def _from_dense(coeffs) -> LaurentPoly:
    return LaurentPoly({e: int(c) for e, c in enumerate(coeffs) if c})


def _content(coeffs) -> int:
    g = 0
    for c in coeffs:
        g = gcd(g, int(c))
    return g


def _long_div(num, den, exact: bool):
    """Long division of dense integer coefficient lists (index = exponent).

    Returns (quotient, remainder), the remainder without high zero terms.
    Where a leading coefficient of the running remainder is not divisible
    by den's, exact division gives up and returns None, while pseudo
    division (exact=False) scales the running remainder and quotient by the
    least positive factor that makes it divisible: the remainder it returns
    is then a positive multiple of the remainder over Q.
    """
    rem, quot = list(num), [0] * max(len(num) - len(den) + 1, 0)
    lead = den[-1]
    for k in range(len(quot) - 1, -1, -1):
        c = rem[k + len(den) - 1]
        if c % lead:
            if exact:
                return None
            scale = abs(lead) // gcd(lead, c)
            rem = [x * scale for x in rem]
            quot = [x * scale for x in quot]
            c *= scale
        quot[k] = c // lead
        for idx, dc in enumerate(den):
            rem[k + idx] -= quot[k] * dc
    while rem and not rem[-1]:
        rem.pop()
    return quot, rem


def _try_exact_div(a: LaurentPoly, b: LaurentPoly):
    """a / b if the division is exact, else None.

    t is invertible, so both operands are shifted to lowest exponent 0
    before dividing and the quotient is shifted back by the difference.
    """
    if b.is_zero:
        raise ZeroDivisionError("polynomial division by zero")
    if a.is_zero:
        return ZERO
    shift_back = a.lowest_exponent - b.lowest_exponent
    a = a.shift(-a.lowest_exponent)
    b = b.shift(-b.lowest_exponent)
    if a.degree < b.degree:
        return None
    division = _long_div(_dense(a), _dense(b), exact=True)
    if division is None or division[1]:
        return None
    return _from_dense(division[0]).shift(shift_back)


def divides(b: LaurentPoly, a: LaurentPoly) -> bool:
    """True when b divides a (powers of t are units, so shifts are free)."""
    return _try_exact_div(a, b) is not None


def exact_div(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    q = _try_exact_div(a, b)
    if q is None:
        raise ArithmeticError(f"({a}) is not divisible by ({b})")
    return q


def gcd_primitive(p: LaurentPoly, q: LaurentPoly) -> LaurentPoly:
    """A GCD in Z[t] of the inputs shifted to polynomials, computed as
    (gcd of contents) * (GCD of primitive parts), in canonical unit form.

    >>> gcd_primitive(parse_poly("t^2 - 1"), parse_poly("t^3 - 1"))
    LaurentPoly('t - 1')
    >>> gcd_primitive(parse_poly("2"), parse_poly("4t"))
    LaurentPoly('2')
    >>> gcd_primitive(parse_poly("t + 1"), ZERO)
    LaurentPoly('t + 1')
    >>> gcd_primitive(ZERO, ZERO)
    LaurentPoly('0')
    """
    if p.is_zero and q.is_zero:
        return ZERO
    if p.is_zero:
        return normalize_unit(q)
    if q.is_zero:
        return normalize_unit(p)
    a = _dense(normalize_unit(p))
    b = _dense(normalize_unit(q))
    content = gcd(_content(a), _content(b))

    def primitive(coeffs):
        c = _content(coeffs)
        return [x // c for x in coeffs]

    a, b = primitive(a), primitive(b)
    # Euclid on primitive pseudo-remainders (Gauss's lemma).
    while b:
        a, b = b, primitive(_long_div(a, b, exact=False)[1])
    g = _from_dense(a) * content
    return normalize_unit(g)


def split_unipotent(f: LaurentPoly) -> LaurentPoly:
    """The g in Z[t] with f = (1-t)*g + 1, for polynomial f with f(1) = 1.

    >>> split_unipotent(ONE)
    LaurentPoly('0')
    >>> split_unipotent(parse_poly("2t - 1"))
    LaurentPoly('-2')
    >>> split_unipotent(parse_poly("t^2 - t + 1"))
    LaurentPoly('-t')
    """
    if not f.is_polynomial:
        raise NotUnipotentSplit(f"({f}) has negative exponents")
    if eval_at(f, 1) != 1:
        raise NotUnipotentSplit(f"({f}) does not take value 1 at t = 1")
    h = _dense(f - ONE)
    # (1-t)g + 1 = f  <=>  g's coefficients are prefix sums of f - 1.
    prefix = 0
    coeffs = []
    for b in h[:-1] if h else []:
        prefix += b
        coeffs.append(prefix)
    g = _from_dense(coeffs)
    assert ONE_MINUS_T * g + ONE == f
    return g


# Largest trial divisor.  Factoring raises PreconditionError, instead of
# running on, when what is left of n after its primes up to this bound is
# not known to be prime: two prime factors above it, or one above its square.
FACTOR_LIMIT = 10 ** 6


def _factorize(n: int) -> dict[int, int]:
    """Prime factorization {p: exponent} of n >= 1 by trial division.

    >>> _factorize(360)
    {2: 3, 3: 2, 5: 1}
    """
    out: dict[int, int] = {}
    rest, d = n, 2
    while d * d <= rest:
        if d > FACTOR_LIMIT:
            raise PreconditionError(
                f"factoring {n} stops at the trial-division bound "
                f"{FACTOR_LIMIT}: the cofactor {rest} is not proved prime")
        while rest % d == 0:
            out[d] = out.get(d, 0) + 1
            rest //= d
        d += 1
    if rest > 1:
        out[rest] = out.get(rest, 0) + 1
    return out


def euler_phi(n: int) -> int:
    phi = 1
    for p, a in _factorize(n).items():
        phi *= (p - 1) * p ** (a - 1)
    return phi


def is_prime_power(n: int) -> bool:
    return n >= 2 and len(_factorize(n)) == 1


@functools.lru_cache(maxsize=None)
def cyclotomic(d: int) -> LaurentPoly:
    """The d-th cyclotomic polynomial, by recursive exact division of t^d - 1.

    >>> cyclotomic(1)
    LaurentPoly('t - 1')
    >>> cyclotomic(2)
    LaurentPoly('t + 1')
    >>> cyclotomic(6)
    LaurentPoly('t^2 - t + 1')
    >>> eval_at(cyclotomic(9), 1)
    3
    """
    if d < 1:
        raise ValueError("cyclotomic index must be >= 1")
    num = LaurentPoly.monomial(1, d) - ONE
    for e in range(1, d):
        if d % e == 0:
            num = exact_div(num, cyclotomic(e))
    return num


def cyclotomic_multiplicities(delta: LaurentPoly):
    """Greedy cyclotomic factorization of a nonzero poly, up to units.

    Returns ``(multiplicities, fully_cyclotomic)`` where multiplicities
    maps d to the exponent of the d-th cyclotomic factor and the flag
    says whether those factors exhaust delta.  The candidate bound uses
    phi(d) >= sqrt(d/2), so every divisor of bounded degree is tried.

    >>> cyclotomic_multiplicities(parse_poly("t^3 - t^2 - t + 1"))
    ({1: 2, 2: 1}, True)
    """
    if delta.is_zero:
        raise PreconditionError("zero polynomial has no factorization")
    rem = normalize_unit(delta)
    mults: dict = {}
    bound = 2 * rem.degree * rem.degree + 6
    d = 1
    while d <= bound and rem.degree > 0:
        if euler_phi(d) <= rem.degree:
            phi_d = cyclotomic(d)
            while phi_d.degree <= rem.degree and divides(phi_d, rem):
                rem = normalize_unit(exact_div(rem, phi_d))
                mults[d] = mults.get(d, 0) + 1
        d += 1
    return mults, rem == ONE


class UnipotenceReport:
    """Outcome of the five admissibility rules for a unipotent generator."""

    __slots__ = ("ok", "violated", "cyclotomic_indices")

    RULES = (
        "product-of-cyclotomics",
        "no-repeated-factor",
        "no-prime-power-cyclotomic",
        "unit-value-at-one",
        "even-degree",
    )

    def __init__(self, ok, violated, cyclotomic_indices):
        self.ok = ok
        self.violated = tuple(violated)
        self.cyclotomic_indices = tuple(cyclotomic_indices)

    def __repr__(self):
        flag = "ok" if self.ok else "violated=" + ",".join(self.violated)
        return f"UnipotenceReport({flag})"


def unipotent_admissible(g: LaurentPoly) -> UnipotenceReport:
    """Check the five rules a nonzero polynomial must satisfy to present a
    t-unipotent (t-1)-invertible module: it must be a product of distinct
    cyclotomic polynomials, with no prime-power-index factor, take value
    +-1 at t = 1, and have even degree.

    >>> unipotent_admissible(parse_poly("t^2 - t + 1")).ok
    True
    >>> unipotent_admissible(parse_poly("t - 1")).violated
    ('unit-value-at-one', 'even-degree')
    >>> unipotent_admissible(parse_poly("t^2 + t + 1")).violated
    ('no-prime-power-cyclotomic', 'unit-value-at-one')
    """
    if g.is_zero:
        raise NotPolynomial("the zero polynomial is not admissible input")
    if not g.is_polynomial:
        raise NotPolynomial(f"({g}) has negative exponents")
    g0 = normalize_unit(g)
    mults, fully = cyclotomic_multiplicities(g0)
    repeated = any(c > 1 for c in mults.values())
    violated = []
    if repeated or not fully:
        violated.append("product-of-cyclotomics")
    if repeated:
        violated.append("no-repeated-factor")
    if any(is_prime_power(d) for d in mults):
        violated.append("no-prime-power-cyclotomic")
    if eval_at(g0, 1) not in (1, -1):
        violated.append("unit-value-at-one")
    if g0.degree % 2 != 0:
        violated.append("even-degree")
    return UnipotenceReport(not violated, violated, sorted(mults))


def reduce_mod_cyclic(p: LaurentPoly, k: int) -> tuple[int, ...]:
    """Coefficient vector of p in Z[t]/(t^k - 1): entry j sums the
    coefficients of all exponents congruent to j mod k.

    >>> reduce_mod_cyclic(parse_poly("t^3"), 2)
    (0, 1)
    >>> reduce_mod_cyclic(parse_poly("t^2 - t + 1"), 2)
    (2, -1)
    >>> reduce_mod_cyclic(parse_poly("t^-1"), 3)
    (0, 0, 1)
    """
    if k < 1:
        raise ValueError("cyclic reduction needs k >= 1")
    out = [0] * k
    for e, c in p._terms.items():
        out[e % k] += c
    return tuple(out)
