"""Freely reduced words in free-group generators x1, x2, ... and the
abelianized Fox calculus on them.

A word is a sequence of letters (generator index >= 1, exponent +-1), kept
freely reduced at all times.  The abelianization sends every generator to
the same symbol t, so the image of a word is t^(exponent sum) and the image
of a Fox derivative is an integer Laurent polynomial.
"""

from __future__ import annotations

import re

from .errors import ParseError, PreconditionError
from .laurent import LaurentPoly, NotPolynomial, split_unipotent

__all__ = [
    "Word", "WordSyntax", "NotConjugationRelator", "parse_word",
    "fox_nu", "as_c_relation", "w_of_poly", "r_of_poly", "r_of_vector",
]


class WordSyntax(ParseError):
    """Malformed word text."""


class NotConjugationRelator(PreconditionError):
    """The word is not expressible as w x_j w^-1 x_l^-1."""


def _reduce(letters):
    stack = []
    for gen, sign in letters:
        if stack and stack[-1][0] == gen and stack[-1][1] == -sign:
            stack.pop()
        else:
            stack.append((gen, sign))
    return tuple(stack)


class Word:
    """A freely reduced word.

    >>> parse_word("x1 x1^-1")
    Word('.')
    >>> parse_word("x2^2 x1^-1 x2^-1").letters
    ((2, 1), (2, 1), (1, -1), (2, -1))
    >>> parse_word("x1 x2") * parse_word("x2^-1")
    Word('x1')
    """

    __slots__ = ("_letters",)

    def __init__(self, letters=()):
        for gen, sign in letters:
            if not isinstance(gen, int) or gen < 1:
                raise ValueError(f"generator index must be a positive int, got {gen!r}")
            if sign not in (1, -1):
                raise ValueError(f"letter exponent must be +1 or -1, got {sign!r}")
        object.__setattr__(self, "_letters", _reduce(letters))

    def __setattr__(self, name, value):
        raise AttributeError("Word is immutable")

    @classmethod
    def gen(cls, i: int) -> "Word":
        """The one-letter word x_i."""
        return cls(((i, 1),))

    @property
    def letters(self):
        return self._letters

    @property
    def is_empty(self) -> bool:
        return not self._letters

    def max_generator(self) -> int:
        """Largest generator index used; 0 for the empty word."""
        return max((g for g, _ in self._letters), default=0)

    def __len__(self):
        return len(self._letters)

    def __iter__(self):
        return iter(self._letters)

    def __eq__(self, other):
        if not isinstance(other, Word):
            return NotImplemented
        return self._letters == other._letters

    def __hash__(self):
        return hash(self._letters)

    def __mul__(self, other):
        if not isinstance(other, Word):
            return NotImplemented
        return Word(self._letters + other._letters)

    def inverse(self) -> "Word":
        """
        >>> parse_word("x1 x2").inverse()
        Word('x2^-1 x1^-1')
        """
        return Word(tuple((g, -s) for g, s in reversed(self._letters)))

    def __invert__(self):
        return self.inverse()

    def __pow__(self, e: int):
        """
        >>> parse_word("x2 x1^-1") ** 2
        Word('x2 x1^-1 x2 x1^-1')
        >>> parse_word("x1") ** -3
        Word('x1^-3')
        """
        base = self if e >= 0 else self.inverse()
        return Word(base._letters * abs(e))

    def conjugated_by(self, w: "Word") -> "Word":
        """w^-1 * self * w.

        >>> Word.gen(1).conjugated_by(Word.gen(2))
        Word('x2^-1 x1 x2')
        """
        return w.inverse() * self * w

    def exponent_sum(self) -> int:
        return sum(s for _, s in self._letters)

    def __str__(self):
        if not self._letters:
            return "."
        parts = []
        run_gen, run_sign, run_len = None, 0, 0
        for gen, sign in self._letters + ((None, 0),):
            if gen == run_gen and sign == run_sign:
                run_len += 1
                continue
            if run_gen is not None:
                e = run_sign * run_len
                parts.append(f"x{run_gen}" if e == 1 else f"x{run_gen}^{e}")
            run_gen, run_sign, run_len = gen, sign, 1
        return " ".join(parts)

    def __repr__(self):
        return f"Word({str(self)!r})"


EMPTY = Word()

_TOKEN = re.compile(r"x(\d+)(?:\^([+-]?\d+))?$")


def parse_word(text: str, *, filename=None, line=None) -> Word:
    """Parse the word grammar ``"." | TOKEN+`` with TOKEN = x INT [^ NONZEROINT].

    >>> parse_word("x1 x2^-1").letters
    ((1, 1), (2, -1))
    >>> parse_word(".")
    Word('.')
    """
    stripped = text.strip()
    if stripped == ".":
        return EMPTY
    if not stripped:
        raise WordSyntax("empty word text (use '.' for the empty word)",
                         filename=filename, line=line)
    letters = []
    for match in re.finditer(r"\S+", text):
        token = match.group(0)
        m = _TOKEN.match(token)
        if m is None:
            raise WordSyntax(
                f"bad word token {token!r} (column {match.start() + 1})",
                filename=filename, line=line, column=match.start() + 1)
        gen = int(m.group(1))
        if gen < 1:
            raise WordSyntax(
                f"generator index must be >= 1 in {token!r} (column {match.start() + 1})",
                filename=filename, line=line, column=match.start() + 1)
        exp = int(m.group(2)) if m.group(2) is not None else 1
        if exp == 0:
            raise WordSyntax(
                f"zero exponent in {token!r} (column {match.start() + 1})",
                filename=filename, line=line, column=match.start() + 1)
        sign = 1 if exp > 0 else -1
        letters.extend(((gen, sign),) * abs(exp))
    return Word(letters)


def fox_nu(r: Word, i: int) -> LaurentPoly:
    """Abelianized Fox derivative of r with respect to x_i.

    Scanning left to right with s the exponent sum of the strict prefix, a
    letter (i, +1) contributes t^s and a letter (i, -1) contributes -t^(s-1).

    >>> print(fox_nu(parse_word("x1 x2 x1 x2^-1 x1^-1 x2^-1"), 1))
    t^2 - t + 1
    >>> print(fox_nu(parse_word("x1^-1"), 1))
    -t^-1
    >>> print(fox_nu(parse_word("x2"), 1))
    0
    """
    terms: dict[int, int] = {}
    s = 0
    for gen, sign in r:
        if gen == i:
            e = s if sign == 1 else s - 1
            c = terms.get(e, 0) + sign
            if c:
                terms[e] = c
            else:
                terms.pop(e, None)
        s += sign
    return LaurentPoly(terms)


def as_c_relation(r: Word):
    """Decompose r as w x_j w^-1 x_l^-1 (free equality), returning (j, l, w).

    The letter-count vector of r must be e_j - e_l (or zero, which forces
    j = l); r x_l must then be freely conjugate to the single letter x_j,
    which is checked by cyclic reduction — the stripped prefix is w.  When
    j = l is not forced, candidate generators are tried in ascending order,
    so the result is deterministic.

    >>> as_c_relation(parse_word("x1 x2 x1 x2^-1 x1^-1 x2^-1"))
    (1, 2, Word('x1 x2'))
    >>> as_c_relation(parse_word("x1 x3 x1^-1 x3^-1"))
    (3, 3, Word('x1'))
    >>> as_c_relation(parse_word("x2^-1 x1"))
    (1, 2, Word('x2^-1'))
    >>> as_c_relation(parse_word("x1 x2"))
    Traceback (most recent call last):
        ...
    cgalex.freeword.NotConjugationRelator: exponent sum is 2, not 0
    """
    if r.is_empty:
        raise NotConjugationRelator("the empty word is not a conjugation relator")
    total = r.exponent_sum()
    if total != 0:
        raise NotConjugationRelator(f"exponent sum is {total}, not 0")
    counts: dict[int, int] = {}
    for gen, sign in r.letters:
        counts[gen] = counts.get(gen, 0) + sign
    counts = {g: c for g, c in counts.items() if c}

    def try_pair(j, l):
        # r x_l must cyclically reduce to the bare letter x_j
        letters = list((r * Word.gen(l)).letters)
        prefix = []
        while len(letters) >= 2:
            (g0, s0), (g1, s1) = letters[0], letters[-1]
            if g0 == g1 and s0 == -s1:
                prefix.append(letters.pop(0))
                letters.pop()
            else:
                break
        if letters == [(j, 1)]:
            return Word(tuple(prefix))
        return None

    if not counts:
        for l in sorted({g for g, _ in r.letters}):
            w = try_pair(l, l)
            if w is not None:
                return (l, l, w)
    elif sorted(counts.values()) == [-1, 1]:
        j = next(g for g, c in counts.items() if c == 1)
        l = next(g for g, c in counts.items() if c == -1)
        w = try_pair(j, l)
        if w is not None:
            return (j, l, w)
    raise NotConjugationRelator(f"no decomposition of {r} as w x_j w^-1 x_l^-1")


def w_of_poly(g: LaurentPoly, a: int, b: int) -> Word:
    """The standard two-generator word attached to a polynomial g: for each
    term c*t^i in ascending i, append (x_b^i x_a x_b^-(i+1))^c when c > 0 or
    (x_b^(i+1) x_a^-1 x_b^-i)^(-c) when c < 0.

    >>> w_of_poly(LaurentPoly({0: 1}), 1, 2)
    Word('x1 x2^-1')
    >>> w_of_poly(LaurentPoly({0: -2}), 1, 2)
    Word('x2 x1^-1 x2 x1^-1')
    >>> w_of_poly(LaurentPoly({1: 1}), 1, 2)
    Word('x2 x1 x2^-2')
    """
    if not g.is_polynomial:
        raise NotPolynomial(f"({g}) has negative exponents")
    if a == b:
        raise ValueError("the two generator indices must differ")
    xa, xb = Word.gen(a), Word.gen(b)
    out = EMPTY
    for i, c in sorted(g._terms.items()):
        if c > 0:
            block = (xb ** i) * xa * (xb ** -(i + 1))
            out = out * (block ** c)
        else:
            block = (xb ** (i + 1)) * xa.inverse() * (xb ** -i)
            out = out * (block ** (-c))
    return out


def r_of_poly(f: LaurentPoly, a: int, b: int) -> Word:
    """The relator w_g(x_a, x_b) x_a w_g(x_a, x_b)^-1 x_b^-1 for the g with
    f = (1-t)g + 1; its Fox derivative at x_a is exactly f.

    >>> r_of_poly(LaurentPoly({0: 1}), 1, 2)
    Word('x1 x2^-1')
    >>> print(fox_nu(r_of_poly(LaurentPoly({2: 1, 1: -1, 0: 1}), 1, 2), 1))
    t^2 - t + 1
    """
    g = split_unipotent(f)
    w = w_of_poly(g, a, b)
    return w * Word.gen(a) * w.inverse() * Word(((b, -1),))


def r_of_vector(gs) -> Word:
    """The relator w_u x_{m+1} w_u^-1 x_{m+1}^-1 with w_u the product of
    w_{g_i}(x_i, x_{m+1}); its Fox derivative at x_i is (1-t)*g_i.

    >>> r_of_vector([LaurentPoly({0: 1})])
    Word('x1 x2 x1^-1 x2^-1')
    >>> r_of_vector([LaurentPoly(), LaurentPoly()])
    Word('.')
    """
    gs = tuple(gs)
    m = len(gs)
    last = m + 1
    w = EMPTY
    for i, g in enumerate(gs, start=1):
        w = w * w_of_poly(g, i, last)
    return w * Word.gen(last) * w.inverse() * Word(((last, -1),))
