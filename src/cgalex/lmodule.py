"""Modules over the Laurent ring and their cyclic-quotient invariants.

A module is presented as Lambda^n / (row span); the k-th quotient by
(t^k - 1) is an honest finitely generated abelian group carrying the
residual action of t, and everything downstream (orders, invariant
factors, periodicity, structure checkers) is computed there with exact
integer arithmetic.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from math import gcd, lcm
from typing import NamedTuple, Optional

from .errors import CertificateError, ParseError, PreconditionError
from .laurent import (LaurentPoly, ZERO, ONE, ONE_MINUS_T, parse_poly,
                      normalize_unit, reduce_mod_cyclic, divides, exact_div,
                      cyclotomic_multiplicities, _content, _dense, _factorize,
                      _from_dense, _long_div)
from .zmodule import (IntMatrix, cokernel, induced_endo, GroupEndo,
                      FgAbelianGroup, charpoly)

EXPANSION_LIMIT = 4096


class ExpansionTooLarge(PreconditionError):
    """k * ncols would exceed the configured expansion limit."""


class ZeroPolynomial(PreconditionError):
    """The zero polynomial carries no finite-generation information."""


class EvenOrder(PreconditionError):
    """An even order was passed where only odd orders can be realized."""


class NotTorsion(UserWarning):
    """The module has free Lambda-rank, so its torsion polynomial is 0."""


class ReduciblePresentation(UserWarning):
    """The presentation graph is disconnected; quotient identities that
    assume irreducibility are not guaranteed."""


@dataclass(frozen=True)
class LambdaPresentation:
    """Lambda^ncols modulo the span of the given rows."""

    ncols: int
    rows: tuple

    def __init__(self, ncols, rows=()):
        rows = tuple(tuple(entry for entry in row) for row in rows)
        if ncols < 0:
            raise PreconditionError("column count must be >= 0")
        for row in rows:
            if len(row) != ncols:
                raise PreconditionError(
                    f"row of length {len(row)} in a {ncols}-column presentation")
            if not all(isinstance(entry, LaurentPoly) for entry in row):
                raise TypeError("rows must contain LaurentPoly entries")
        object.__setattr__(self, "ncols", ncols)
        object.__setattr__(self, "rows", rows)


@dataclass(frozen=True)
class DerivedModule:
    """The quotient of a Lambda-module by (t^k - 1), as an abelian group
    with the residual t-action.

    cyclic_cokernels holds (d, (invariant_factors, free_rank)) of the
    cokernel of t^d - 1 for each divisor d of t_order; t - 1 is invertible
    exactly when the d = 1 entry is the trivial group.  path names where
    the group and the action came from: "z-form" (t on M as a free abelian
    group, see _z_form) or "expansion" (the k-fold integer expansion).
    """

    k: int
    group: FgAbelianGroup
    t_action: GroupEndo
    t1_invertible: bool
    t_order: int
    order: Optional[int]
    cyclic_cokernels: tuple
    path: str


def _divisors(k: int):
    return [d for d in range(1, k + 1) if k % d == 0]


def _shift_matrix(ncols: int, k: int, d: int) -> IntMatrix:
    """t^d on Z[t]/(t^k-1)^ncols: the block-diagonal cyclic shift by d."""
    n = ncols * k
    entries = [[0] * n for _ in range(n)]
    for g in range(ncols):
        for e in range(k):
            entries[g * k + (e + d) % k][g * k + e] = 1
    return IntMatrix(entries)


def _permutation_order_divides(T: IntMatrix, k: int) -> bool:
    """Whether T is a permutation matrix with T^k = I.

    T e_j = e_sigma(j) is read off the rows: each has one nonzero entry,
    a 1, in a column no other row uses.  Then sigma^k = id exactly when
    every cycle length of sigma divides k.
    """
    n = T.rows
    sigma = [None] * n
    for i, row in enumerate(T.entries):
        if row.count(0) != n - 1 or 1 not in row:
            return False
        sigma[row.index(1)] = i
    if None in sigma:
        return False
    seen = [False] * n
    for start in range(n):
        length, j = 0, start
        while not seen[j]:
            seen[j], j, length = True, sigma[j], length + 1
        if length and k % length:
            return False
    return True


def _expansion(P: LambdaPresentation, k: int) -> IntMatrix:
    """The integer relation matrix of P/(t^k - 1)P.

    Each Lambda-generator splits into k integer generators (the powers
    t^0..t^{k-1}) and each Lambda-relation row r into the k columns
    r, t*r, ..., t^{k-1}*r reduced mod t^k - 1.
    """
    n = P.ncols * k
    columns = []
    for row in P.rows:
        for s in range(k):
            col = [0] * n
            for g, poly in enumerate(row):
                col[g * k:(g + 1) * k] = reduce_mod_cyclic(poly.shift(s), k)
            columns.append(col)
    return IntMatrix.from_columns(columns, n)


class _ZForm(NamedTuple):
    """M as the free abelian group Z^N with t acting by the matrix T;
    delta, the characteristic polynomial of T, is the Alexander
    polynomial of M and N = deg delta."""

    T: IntMatrix
    delta: LaurentPoly


def _z_form(P: LambdaPresentation, limit: int) -> Optional[_ZForm]:
    """M = P as a free abelian group with the action of t, or None when
    neither route below shows M to be one, or when its cost would pass
    `limit`, counted in rows of the expansion it replaces (see derived):
    2N for the N x N matrix T, and n = ncols * N >= 2N on route 2, whose
    set-up works on n rows.

    1. _lambda_pass removes every column and every column's content is 1:
       the pivot rows r_i = p_i e_i + sum_{l > i} a_il e_l (columns in the
       order of removal; the rows left over are all zero) present M.  T is
       N x N, N = sum deg p_i = deg delta.
    2. Otherwise, when P is square, with determinant delta: delta e_j lies
       in the row span (adjugate), so M is N = (Lambda/(delta))^ncols, the
       triangle delta e_i, modulo the rows of P.  N is Z^(ncols * deg delta);
       the pivots of the pass divide delta, so their degrees bound it from
       below before delta is computed.

    Either way, when both extreme coefficients of every p_i are +-1, the
    triangle presents a module free over Z on {t^s e_i : s < deg p_i}: it
    maps onto Lambda/(p_1), free on t^0..t^{deg p_1 - 1}, with kernel
    presented by r_2, r_3, ....  Column (i, s) of t on that basis is
    t^{s+1} e_i reduced down the triangle.  In case 2, the rows of P and
    their multiples by t^s, s < deg delta, span the relations over Z, and
    t is taken on the free quotient of N by them, which must be free of
    rank deg delta.
    """
    passed = _lambda_pass(P)
    contents, pivots, zero, left, _ = passed
    if not zero and not left and all(c == 1 for c in contents):
        order = [j for j, _ in pivots]
        triangle = [[{e: c for e, c in enumerate(row[j]) if c} for j in order]
                    for _, row in pivots]
        relations = []
    elif len(P.rows) == P.ncols:
        if P.ncols * sum(_degree(row[j]) for j, row in pivots) > limit:
            return None
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NotTorsion)
            delta = _dense(_delta_after_pass(passed))
        if not delta:
            return None
        triangle = [[{e: c for e, c in enumerate(delta) if c} if i == j
                     else {} for j in range(P.ncols)] for i in range(P.ncols)]
        relations = [[dict(e.items()) for e in row] for row in P.rows]
    else:
        return None
    rels, degrees = [], []
    for i, row in enumerate(triangle):
        p = row[i]
        low, high = min(p), max(p)
        if abs(p[low]) != 1 or abs(p[high]) != 1:
            return None
        # r_i times the unit p[high] * t^-low: p_i is then monic with
        # constant term +-1
        rels.append([{e - low: p[high] * c for e, c in a.items()}
                     for a in row])
        degrees.append(high - low)
    n = sum(degrees)
    if (n if relations else 2 * n) > limit:
        return None

    def coordinates(f):
        """The basis coordinates of sum f_i e_i, f a list of {exponent:
        coefficient} maps, reduced in place."""
        out = []
        for i, d in enumerate(degrees):
            fi, pi = f[i], rels[i][i]
            while fi:
                top, bottom = max(fi), min(fi)
                if top < d and bottom >= 0:
                    break
                # subtract c t^shift r_i to clear the term at e; the term
                # of p_i it meets is its leading 1 or its constant +-1
                e = top if top >= d else bottom
                shift = e - d if top >= d else e
                c = fi[e] * pi[e - shift]
                for fl, al in zip(f[i:], rels[i][i:]):
                    for x, a in al.items():
                        v = fl.get(x + shift, 0) - c * a
                        if v:
                            fl[x + shift] = v
                        else:
                            del fl[x + shift]
            out += [fi.get(s, 0) for s in range(d)]
        return out

    T = IntMatrix.from_columns(
        [coordinates([{s + 1: 1} if l == i else {} for l in range(len(rels))])
         for i, d in enumerate(degrees) for s in range(d)], n)
    if relations:
        # the Z-span of t^s * row, s < deg delta, is closed under t and
        # t^-1 on N, since delta(t) = 0 there
        group = cokernel(IntMatrix.from_columns(
            [coordinates([{e + s: c for e, c in a.items()} for a in row])
             for row in relations for s in range(len(delta) - 1)], n))
        if group.invariant_factors or group.free_rank != len(delta) - 1:
            raise CertificateError(
                f"the quotient of (Lambda/(delta))^{P.ncols} by the rows is "
                f"{group}, not Z^{len(delta) - 1}")
        T = induced_endo(T, group).free_block()
    else:
        delta = [1]
        for i, d in enumerate(degrees):
            delta = _mul(delta, [rels[i][i].get(e, 0) for e in range(d + 1)])
    if list(charpoly(T)) != delta[::-1]:
        raise CertificateError(
            "the characteristic polynomial of t on the Z-form is not the "
            "Alexander polynomial")
    return _ZForm(T, _from_dense(delta))


def _check_degree(P: LambdaPresentation, k: int):
    if k < 1:
        raise PreconditionError(f"quotient degree must be >= 1, got {k}")
    if k * P.ncols > EXPANSION_LIMIT:
        raise ExpansionTooLarge(
            f"k * ncols = {k} * {P.ncols} exceeds the limit {EXPANSION_LIMIT}")


# derived's default for zform: build the Z-form of P for this k
_BUILD = object()


def derived(P: LambdaPresentation, k: int, *,
            zform=_BUILD) -> DerivedModule:
    """The abelian group P/(t^k - 1)P with its induced t-action.

    When P has a Z-form (see _z_form) with 2N <= k * ncols, M = Z^N with
    t acting by T, and the group is the cokernel of T^k - I, at a cost
    that grows only slowly with k; otherwise it comes from the k-fold
    integer expansion, with t the block-diagonal shift.  The expansion's
    matrices are sparse with small entries and T's powers dense with
    growing ones: on single summands of degree 20 to 40 and on sums of
    two or three, the two routes break even near k * ncols = 2N, and the
    expansion is 2 to 10 times faster at k * ncols = N.  So a module of
    high degree at small k keeps the expansion.  zform is the result of
    _z_form(P, limit) for some limit, when the caller has one (sequence
    builds one for all its k), or None for the expansion.

    The t-order is the least divisor d of k with t^d - 1 zero on the group.
    For each divisor d of the t-order, the cokernel of t^d - 1 on
    P/(t^k - 1)P is P/(t^d - 1)P, because t^d - 1 divides t^k - 1; it is
    computed once, on its own.

    >>> P = LambdaPresentation(1, [(parse_poly("2t - 1"),)])
    >>> D = derived(P, 2)
    >>> D.group.invariant_factors, D.t1_invertible, D.path
    ((3,), True, 'expansion')
    >>> phi6 = LambdaPresentation(1, [(parse_poly("t^2 - t + 1"),)])
    >>> derived(phi6, 60).path, derived(phi6, 3).path
    ('z-form', 'expansion')
    """
    _check_degree(P, k)
    z = _z_form(P, k * P.ncols) if zform is _BUILD else zform
    if z is None or 2 * z.T.rows > k * P.ncols:
        path = "expansion"
        T = _shift_matrix(P.ncols, k, 1)
        assert _permutation_order_divides(T, k)
        identity = IntMatrix.identity(P.ncols * k)

        def t_minus_1(d):
            return _shift_matrix(P.ncols, k, d) - identity

        def quotient(d):
            return cokernel(_expansion(P, d))
    else:
        path, T = "z-form", z.T
        identity = IntMatrix.identity(T.rows)
        deltas = {}  # the t-order loop and the cokernels share T^d - I

        def t_minus_1(d):
            if d not in deltas:
                deltas[d] = T ** d - identity
            return deltas[d]

        def quotient(d):
            return cokernel(t_minus_1(d))
    group = quotient(k)
    endo = induced_endo(T, group)
    t_order = 1
    if not group.is_trivial:
        # d = k always qualifies: t^k - 1 is zero on the group.
        for t_order in _divisors(k):
            delta = t_minus_1(t_order)
            if all(group.snf.in_column_span(c) for c in delta.columns()):
                break
    cokernels = []
    for d in _divisors(t_order):
        quot = group if d == t_order else quotient(d)
        cokernels.append((d, (quot.invariant_factors, quot.free_rank)))
    return DerivedModule(k=k, group=group, t_action=endo,
                         t1_invertible=cokernels[0][1] == ((), 0),
                         t_order=t_order, order=group.order,
                         cyclic_cokernels=tuple(cokernels), path=path)


def group_module(p) -> "LambdaPresentation":
    """The module presented by the reduced derivative matrix of a
    C-presentation.

    A disconnected presentation graph triggers a ReduciblePresentation
    warning: the reduced matrix still presents a module, but the covering
    interpretations assume irreducibility.
    """
    from .cgroup import graph_and_deficiency, reduced_matrix
    _, components, _ = graph_and_deficiency(p)
    if components != 1:
        warnings.warn(ReduciblePresentation(
            f"presentation graph has {components} components"))
    return LambdaPresentation(p.m - 1, reduced_matrix(p))


def derived_of_group(p, k: int) -> DerivedModule:
    """Derived module of a C-presentation via its reduced derivative
    matrix; see group_module for the reducibility warning."""
    return derived(group_module(p), k)


# ---------------------------------------------------------------------------
# Alexander polynomial by elimination
#
# A matrix here is a list of rows, each a list of dense coefficient lists
# in Z[t] (index = exponent, [] for zero).


def _mul(a, b):
    out = [0] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        if x:
            for k, y in enumerate(b):
                out[i + k] += x * y
    return out


def _sub(a, b):
    """a - b, without high zero terms."""
    out = [x - y for x, y in zip(a, b)] + a[len(b):] + [-y for y in b[len(a):]]
    while out and not out[-1]:
        out.pop()
    return out


def _mod(row, p):
    """A row reduced mod p, each coefficient in [0, p)."""
    out = []
    for entry in row:
        entry = [x % p for x in entry]
        while entry and not entry[-1]:
            entry.pop()
        out.append(entry)
    return out


def _degree(entry):
    """The distance between the lowest and the highest exponent of a
    nonzero dense entry."""
    return len(entry) - 1 - next(e for e, c in enumerate(entry) if c)


def _shift_to_zero(row):
    """Divide a row by the power of t common to its entries (a unit of Lambda)."""
    low = min((next(e for e, c in enumerate(entry) if c)
               for entry in row if entry), default=0)
    return [entry[low:] for entry in row] if low else row


def _primitive(row):
    """Divide a row by the integer content of its entries (a unit of Q[t])."""
    c = _content(x for entry in row for x in entry)
    return [[x // c for x in entry] for entry in row] if c > 1 else row


def _column_euclid(rows, j, qualifies, normalize):
    """Euclid's algorithm down column j, by row operations on `rows`.

    The pivot is the lowest-degree entry that `qualifies`.  Every other row
    whose entry is not of lower degree becomes s * row - q * pivot_row, with
    s * entry = q * pivot + remainder the pseudo-division of
    laurent._long_div (s is 1 when the pivot's leading coefficient is +-1),
    and is then passed through `normalize`.  The degree of the pivot falls
    at each round, and Euclid stops once no entry besides the pivot
    qualifies.  Returns the rows whose entry in column j is nonzero.
    """
    while True:
        live = [i for i, row in enumerate(rows) if row[j]]
        candidates = [i for i in live if qualifies(rows[i][j])]
        if len(live) < 2 or not candidates:
            return live
        p = min(candidates, key=lambda i: len(rows[i][j]))
        pivot_row = rows[p]
        den = pivot_row[j]
        for i in live:
            num = rows[i][j]
            if i == p or len(num) < len(den):
                continue
            quot, _ = _long_div(num, den, exact=False)
            # s * num = quot * den + rem with deg rem < deg den, so the
            # leading coefficients give s.
            s = quot[-1] * den[-1] // num[-1]
            rows[i] = normalize([_sub([s * x for x in a], _mul(quot, b))
                                 for a, b in zip(rows[i], pivot_row)])
        if not any(rows[i][j] and qualifies(rows[i][j])
                   for i in live if i != p):
            return [i for i in live if rows[i][j]]


def _eliminate(rows, columns, qualifies, normalize):
    """Column-Euclid elimination of `rows` in place.

    Each column that Euclid leaves with a single nonzero entry is removed
    together with that entry's row; the entry is its pivot.  The columns
    are swept again as long as one of them is removed, since removing a
    row can leave a single entry in a column that stalled before.  Returns
    (pivots, zero, stalled): the (column, row) pairs removed, in order, the
    columns left with no nonzero entry, and the columns left with several.
    """
    pivots, zero, stalled = [], [], list(columns)
    progress = True
    while progress:
        progress = False
        for j in list(stalled):
            live = _column_euclid(rows, j, qualifies, normalize)
            if len(live) < 2:
                stalled.remove(j)
                progress = True
                if live:
                    pivots.append((j, rows.pop(live[0])))
                else:
                    zero.append(j)
    return pivots, zero, stalled


def _last_bareiss_minors(rows, m):
    """Fraction-free (Bareiss) elimination with row pivoting of a matrix of
    rank m with m columns.  Every entry stays a minor of the input; the
    last column's entries below row m - 2 end as the maximal minors on the
    m - 1 pivot rows and one other row, up to sign."""
    A = [list(row) for row in rows]
    prev = [1]
    for k in range(m - 1):
        p = min((i for i in range(k, len(A)) if A[i][k]),
                key=lambda i: len(A[i][k]))
        A[k], A[p] = A[p], A[k]
        top = A[k]
        for i in range(k + 1, len(A)):
            row = A[i]
            A[i] = row[:k + 1] + [
                _long_div(_sub(_mul(top[k], row[j]), _mul(row[k], top[j])),
                          prev, exact=True)[0]
                for j in range(k + 1, m)]
        prev = top[k]
    return [A[i][m - 1] for i in range(m - 1, len(A))]


def _kernel_mod_p(B, m, p):
    """A nonzero x in F_p[t]^m with B x = 0 mod p, or None when B has rank
    m over F_p(t).  Row operations on [B^T | I] eliminate the columns of
    B^T; a row left over has B^T part 0, and its I part is x."""
    rows = [_mod([row[i] for row in B] + [[1] if k == i else []
                                          for k in range(m)], p)
            for i in range(m)]
    _eliminate(rows, range(len(B)), bool, lambda row: _mod(row, p))
    return rows[0][len(B):] if rows else None


def _minor_content(rows, m):
    """The gcd c of the contents of the maximal minors of `rows`, a matrix
    of rank m with m columns.

    N, the gcd of the contents of the maximal minors that Bareiss reaches,
    is a multiple of c, and is c when those minors are all of them.
    Otherwise, for each prime p of N, v_p(c) counts the lowering steps:
    while B mod p has rank below m, take x in its kernel mod p with x_j not
    0 mod p, and replace column j by B x / p.  Every maximal minor is then
    x_j / p times the old one, so v_p of each falls by exactly one.
    """
    n = 0
    for minor in _last_bareiss_minors(rows, m):
        n = gcd(n, _content(minor))
    if n == 1 or m == 1 or len(rows) == m:
        return n
    c = 1
    for p, bound in _factorize(n).items():
        B = [list(row) for row in rows]
        for _ in range(bound):
            x = _kernel_mod_p(B, m, p)
            if x is None:
                break
            j = next(i for i, xi in enumerate(x) if xi)
            for row in B:
                # image is this row's entry of -B x; the sign is a unit
                image = []
                for xi, entry in zip(x, row):
                    image = _sub(image, _mul(xi, entry))
                row[j] = [v // p for v in image]
            c *= p
    return c


def _lambda_pass(P: LambdaPresentation):
    """The elimination over Lambda that alexander_polynomial and _z_form
    share.

    Each row is shifted to lowest exponent 0, and each column is divided by
    its integer content and its lowest power of t; then _eliminate runs with
    pivots of leading coefficient +-1.  Returns (contents, pivots, zero,
    left, rows): the column contents (0 for a zero column), the removed
    (column, row) pairs in the order of removal, the columns left with no
    nonzero entry and with several, and the rows still in play.
    """
    rows = []
    for row in P.rows:
        low = min((e.lowest_exponent for e in row if e), default=0)
        rows.append([_dense(e.shift(-low)) for e in row])
    contents = []
    for j in range(P.ncols):
        c = _content(x for row in rows for x in row[j])
        if c:
            low = min(next(e for e, x in enumerate(row[j]) if x)
                      for row in rows if row[j])
            for row in rows:
                row[j] = [x // c for x in row[j][low:]]
        contents.append(c)
    pivots, zero, left = _eliminate(rows, range(P.ncols),
                                    lambda a: abs(a[-1]) == 1, _shift_to_zero)
    return contents, pivots, zero, left, rows


def alexander_polynomial(P: LambdaPresentation) -> LaurentPoly:
    """GCD of the maximal minors of the relation matrix, unit-normalized.

    A presentation with fewer (independent) rows than columns has free
    Lambda-rank, in which case the answer is 0 and NotTorsion is warned.

    Computed by elimination, in three passes of one column-Euclid loop:

    1. over Lambda (_lambda_pass): each column's integer content and power
       of t are factors of every maximal minor; Euclid with pivots of
       leading coefficient +-1 is Lambda-unimodular, and a column left with
       one nonzero entry a contributes the factor a and goes with its row;
    2. over Q[t], on what is left: by pseudo-division, the product of the
       pivots is the gcd of its maximal minors up to a rational constant,
       so its primitive part is that of Delta's last factor;
    3. the content of that factor, from Bareiss and, prime by prime,
       eliminations over F_p(t) (see _minor_content).

    >>> q = parse_poly("t^2 - t + 1")
    >>> P = LambdaPresentation(1, [(q,)])
    >>> print(alexander_polynomial(P))
    t^2 - t + 1
    """
    m = P.ncols
    if m == 0:
        return ONE
    if len(P.rows) < m:
        warnings.warn(NotTorsion(
            f"{len(P.rows)} rows cannot span a rank-{m} module"))
        return ZERO
    return _delta_after_pass(_lambda_pass(P))


def _delta_after_pass(passed) -> LaurentPoly:
    """alexander_polynomial from the result of _lambda_pass, which
    _z_form shares, for a presentation with at least as many rows as
    columns."""
    contents, pivots, zero, left, rows = passed
    factors = [[c] for c in contents if c]
    factors += [row[j] for j, row in pivots]
    rows = [[row[j] for j in left] for row in rows]
    rows = [row for row in rows if any(row)]
    if not zero and left and len(rows) >= len(left):
        pivots, zero, _ = _eliminate([list(row) for row in rows],
                                     range(len(left)), bool, _primitive)
        factors += [[x // _content(row[j]) for x in row[j]]
                    for j, row in pivots]
        if not zero:
            factors.append([_minor_content(rows, len(left))])
    if zero or len(rows) < len(left):
        warnings.warn(NotTorsion("all maximal minors vanish"))
        return ZERO
    delta = [1]
    for f in factors:
        delta = _mul(delta, f)
    return normalize_unit(_from_dense(delta))


def is_finitely_z_generated(delta: LaurentPoly) -> bool:
    """Whether Lambda/(delta) is a finitely generated abelian group: both
    extreme coefficients of the normalized polynomial must be +-1.

    >>> is_finitely_z_generated(parse_poly("t^2 - t + 1"))
    True
    >>> is_finitely_z_generated(parse_poly("3t - 2"))
    False
    """
    if delta.is_zero:
        raise ZeroPolynomial("the zero polynomial presents a non-torsion module")
    d = normalize_unit(delta)
    return abs(d.leading_coefficient) == 1 and abs(d.coefficient(0)) == 1


@dataclass(frozen=True)
class Fingerprint:
    """Isomorphism invariants of (group, t-action); equality is a necessary
    (not proven sufficient) condition for module isomorphism, and is stable
    under changing the quotient degree that produced the module."""

    invariant_factors: tuple
    free_rank: int
    t_order: int
    cyclic_cokernels: tuple  # ((d, (factors, rank)) for each divisor d of t_order)
    char_poly: LaurentPoly


def fingerprint(D: DerivedModule) -> Fingerprint:
    """Collect the comparison invariants of a derived module.

    The cokernels of t^d - 1 are keyed by the divisors of the t-order
    rather than of the quotient degree k, so that isomorphic modules
    reached at different k compare equal.  The characteristic polynomial
    is that of t on the free part of the group.
    """
    group = D.group
    coeffs = charpoly(D.t_action.free_block())
    degree = len(coeffs) - 1
    poly = LaurentPoly({degree - i: c for i, c in enumerate(coeffs) if c})
    return Fingerprint(invariant_factors=group.invariant_factors,
                       free_rank=group.free_rank,
                       t_order=D.t_order,
                       cyclic_cokernels=D.cyclic_cokernels,
                       char_poly=normalize_unit(poly))


def _certified_order(P: LambdaPresentation, z: Optional[_ZForm]):
    """An m with T^m = I on the Z-form, checked exactly, or None.

    m is the lcm of the indices d of the cyclotomic factors Phi_d of delta;
    there is none when delta has another factor, and T^m = I fails when a
    factor repeats with a nontrivial Jordan block.  m is bounded like a
    quotient degree (m * ncols <= EXPANSION_LIMIT), so that the quotients
    at the divisors of m are ones derived accepts.
    """
    if z is None:
        return None
    mults, fully = cyclotomic_multiplicities(z.delta)
    m = lcm(*mults)
    if not fully or m * P.ncols > EXPANSION_LIMIT:
        return None
    return m if z.T ** m == IntMatrix.identity(z.T.rows) else None


def sequence(P: LambdaPresentation, K: int):
    """Fingerprints of the quotients at k = 1..K, the least period p of
    k -> fp(A_k) when p <= K - 1 (else None), and whether that period is
    certified.

    The Z-form is built once, when derived would take it at k = K, and
    serves each k at which derived would take it.  With
    T^m = I on it (see _certified_order), (t^n - 1)M is
    (t^gcd(n, m) - 1)M, so A_n = A_gcd(n, m): the least period divides m
    and is the least p | m with fp(A_gcd(n, m)) = fp(A_gcd(n + p, m)) for
    n = 1..m, which is a proof.  Without that certificate the period is
    the least p with fp(A_n) = fp(A_{n+p}) for every n <= K - p, which is
    evidence only, and the flag is False.

    >>> P = LambdaPresentation(1, [(parse_poly("t^2 - t + 1"),)])
    >>> fps, period, certified = sequence(P, 13)
    >>> period, certified
    (6, True)
    >>> sequence(P, 5)[1:]
    (None, True)
    """
    if K < 1:
        raise PreconditionError(f"sequence length must be >= 1, got {K}")
    _check_degree(P, K)
    z = _z_form(P, K * P.ncols)
    fps = [fingerprint(derived(P, k, zform=z)) for k in range(1, K + 1)]
    m = _certified_order(P, z)
    if m is not None:
        at = {d: fps[d - 1] if d <= K else fingerprint(derived(P, d, zform=z))
              for d in _divisors(m)}
        period = next(p for p in _divisors(m)
                      if all(at[gcd(n, m)] == at[gcd(n + p, m)]
                             for n in range(1, m + 1)))
        return fps, (period if period < K else None), True
    period = None
    for p in range(1, K):
        if all(fps[n - 1] == fps[n + p - 1] for n in range(1, K - p + 1)):
            period = p
            break
    return fps, period, False


def direct_sum(P1: LambdaPresentation, P2: LambdaPresentation) -> LambdaPresentation:
    """Block-diagonal sum; quotients of the sum decompose summand-wise."""
    pad1 = (ZERO,) * P2.ncols
    pad2 = (ZERO,) * P1.ncols
    rows = [row + pad1 for row in P1.rows] + [pad2 + row for row in P2.rows]
    return LambdaPresentation(P1.ncols + P2.ncols, rows)


# ---------------------------------------------------------------------------
# structure-existence checkers


def _is_prime(n: int) -> bool:
    return n >= 2 and _factorize(n) == {n: 1}


def cyclic_admits(n: int, k: int) -> dict:
    """Whether Z/n carries a module structure whose degree-k quotient is all
    of Z/n: every prime p | n needs a residue a != 1 with
    1 + a + ... + a^{k-1} = 0 (mod p).

    Such an a is a k-th root of unity other than 1 in (Z/p)^*, which exists
    exactly when g = gcd(k, p - 1) > 1; the witness is b^((p-1)/g) for the
    least b >= 2 that makes this power differ from 1.

    >>> cyclic_admits(3, 2)
    {'ok': True, 'witnesses': {3: 2}}
    >>> cyclic_admits(3, 3)["ok"]
    False
    """
    if n < 2 or k < 2:
        raise PreconditionError("need n >= 2 and k >= 2")
    witnesses = {}
    for p in _factorize(n):
        g = gcd(k, p - 1)
        witnesses[p] = None if g == 1 else next(
            w for w in (pow(b, (p - 1) // g, p) for b in range(2, p)) if w != 1)
    return {"ok": None not in witnesses.values(), "witnesses": witnesses}


def cyclic_structure_count(p: int, r: int):
    """Count the multiplications tv = av that make Z/p^r a module with both
    a and a - 1 invertible; returns (count, multipliers).

    >>> cyclic_structure_count(3, 2)
    (3, [2, 5, 8])
    >>> cyclic_structure_count(2, 1)
    (0, [])
    """
    if not _is_prime(p):
        raise PreconditionError(f"{p} is not prime")
    if r < 1:
        raise PreconditionError("exponent must be >= 1")
    modulus = p ** r
    multipliers = [a for a in range(modulus)
                   if a % p != 0 and (a - 1) % p != 0]
    return len(multipliers), multipliers


def two_group_admits(two_blocks, odd_orders=()) -> dict:
    """Existence test for a module structure on a finite 2-group (times an
    optional odd part) given as homocyclic blocks (exponent r, multiplicity
    m): possible exactly when every multiplicity is >= 2, and then witnessed
    by the explicit presentation sum of Lambda/(2^r, t^m - t + 1) blocks
    (plus Lambda/(q, 2t - 1) for each odd order q).

    >>> two_group_admits([(1, 1)])["ok"]
    False
    >>> result = two_group_admits([(1, 2)])
    >>> result["ok"], result["construction"].ncols
    (True, 1)
    """
    blocks = [(int(r), int(m)) for r, m in two_blocks]
    exponents = [r for r, _ in blocks]
    if len(set(exponents)) != len(exponents):
        raise PreconditionError("block exponents must be distinct")
    for r, m in blocks:
        if r < 1 or m < 1:
            raise PreconditionError("exponents and multiplicities must be >= 1")
    odd_orders = [int(q) for q in odd_orders]
    for q in odd_orders:
        if q < 3 or q % 2 == 0:
            raise PreconditionError(f"odd part must have odd orders >= 3, got {q}")
    if any(m < 2 for _, m in blocks):
        return {"ok": False, "construction": None}
    construction = LambdaPresentation(0, ())
    for r, m in blocks:
        piece = LambdaPresentation(1, [
            (LaurentPoly.constant(2 ** r),),
            (LaurentPoly({m: 1, 1: -1, 0: 1}),),
        ])
        construction = direct_sum(construction, piece)
    for q in odd_orders:
        piece = LambdaPresentation(1, [
            (LaurentPoly.constant(q),),
            (parse_poly("2t - 1"),),
        ])
        construction = direct_sum(construction, piece)
    return {"ok": True, "construction": construction}


def odd_group_as_A2(orders) -> LambdaPresentation:
    """The module whose degree-2 quotient is the direct sum of cyclic groups
    of the given odd orders: sum of Lambda/((m+1)t - m) with m = (q-1)/2.

    >>> P = odd_group_as_A2([5])
    >>> print(P.rows[0][0])
    3t - 2
    >>> derived(P, 2).group.invariant_factors
    (5,)
    """
    out = LambdaPresentation(0, ())
    for q in orders:
        q = int(q)
        if q % 2 == 0:
            raise EvenOrder(f"{q} is even; only odd orders arise at degree 2")
        if q < 1:
            raise PreconditionError(f"orders must be positive, got {q}")
        m = (q - 1) // 2
        piece = LambdaPresentation(1, [(LaurentPoly({1: m + 1, 0: -m}),)])
        out = direct_sum(out, piece)
    return out


# ---------------------------------------------------------------------------
# normal forms for realization


def realization_presentation(nf) -> LambdaPresentation:
    """The module Lambda^m / (f_i e_i rows + (1-t) g rows) that a
    realization normal form presents directly."""
    m = nf.m
    rows = []
    for i, f in enumerate(nf.f):
        rows.append(tuple(f if j == i else ZERO for j in range(m)))
    for g_row in nf.g_rows:
        rows.append(tuple(ONE_MINUS_T * g for g in g_row))
    return LambdaPresentation(m, rows)


def as_realization_data(P: LambdaPresentation):
    """Recognize a presentation in realization normal form: the first ncols
    rows must be a diagonal of polynomials with value 1 at t = 1, and every
    later row must be divisible by 1 - t entrywise."""
    from .cgroup import RealizationData
    from .laurent import eval_at
    m = P.ncols
    if m < 1:
        raise PreconditionError("normal form needs at least one column")
    if len(P.rows) < m:
        raise PreconditionError(
            f"normal form needs {m} diagonal rows, found {len(P.rows)}")
    f = []
    for i in range(m):
        row = P.rows[i]
        for j, entry in enumerate(row):
            if j != i and not entry.is_zero:
                raise PreconditionError(
                    f"row {i + 1} is not diagonal (column {j + 1} nonzero)")
        if not row[i].is_polynomial or eval_at(row[i], 1) != 1:
            raise PreconditionError(
                f"diagonal entry {i + 1} must be a polynomial with value 1 at t=1")
        f.append(row[i])
    g_rows = []
    for row in P.rows[m:]:
        g_row = []
        for entry in row:
            if not divides(ONE_MINUS_T, entry):
                raise PreconditionError(
                    "trailing rows must be divisible by 1 - t entrywise")
            g_row.append(exact_div(entry, ONE_MINUS_T) if not entry.is_zero
                         else ZERO)
        g_rows.append(tuple(g_row))
    return RealizationData(m, tuple(f), tuple(g_rows))


# ---------------------------------------------------------------------------
# module file format


def parse_lm(text: str, filename: Optional[str] = None) -> LambdaPresentation:
    """Parse the line-based module format: "cols <n>" then "row p , p , ...".

    >>> parse_lm("cols 1\\nrow 2t - 1\\n").rows[0][0]
    LaurentPoly('2t - 1')
    """
    def where(lineno):
        return f"{filename}:{lineno}" if filename else f"line {lineno}"

    ncols = None
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        directive, _, rest = line.partition(" ")
        rest = rest.strip()
        if directive == "cols":
            if ncols is not None:
                raise ParseError(f"{where(lineno)}: duplicate cols directive")
            try:
                ncols = int(rest)
            except ValueError:
                raise ParseError(f"{where(lineno)}: cols needs an integer, "
                                 f"got {rest!r}") from None
            if ncols < 0:
                raise ParseError(f"{where(lineno)}: cols must be >= 0")
        elif directive == "row":
            if ncols is None:
                raise ParseError(f"{where(lineno)}: row before cols")
            if rest:
                pieces = rest.split(",")
            else:
                pieces = []
            if len(pieces) != ncols:
                raise ParseError(f"{where(lineno)}: expected {ncols} entries, "
                                 f"got {len(pieces)}")
            rows.append(tuple(parse_poly(piece.strip(),
                                         filename=filename, line=lineno)
                              for piece in pieces))
        else:
            raise ParseError(f"{where(lineno)}: unknown directive {directive!r}")
    if ncols is None:
        raise ParseError((f"{filename}: " if filename else "")
                         + "missing cols directive")
    return LambdaPresentation(ncols, rows)


def serialize_lm(P: LambdaPresentation) -> str:
    lines = [f"cols {P.ncols}"]
    for row in P.rows:
        lines.append("row " + " , ".join(str(entry) for entry in row))
    return "\n".join(lines) + "\n"
