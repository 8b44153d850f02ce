"""Independent oracles used to cross-check the library.

Nothing in this file imports the package under test; every function here
computes its answer by a different algorithm than the library uses
(determinantal divisors instead of elimination, brute-force enumeration
instead of Smith coordinates, modular inverses instead of matrix
transforms, sympy instead of hand-rolled polynomial arithmetic), so
agreement between the two routes is meaningful.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product
from math import gcd

import sympy


# ---------------------------------------------------------------------------
# exact integer linear algebra, the slow-but-obvious way


def det_int(rows):
    """Exact determinant by cofactor expansion along the first row."""
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        if not rows[0][j]:
            continue
        minor = [[row[c] for c in range(n) if c != j] for row in rows[1:]]
        total += (-1) ** j * rows[0][j] * det_int(minor)
    return total


def invariant_factors_via_minors(rows, cols=None):
    """Invariant factors (units included) and rank from determinantal
    divisors: the k-th divisor is the gcd of ALL k x k minors, and the k-th
    invariant factor is the ratio of consecutive divisors.  Exhaustive over
    minors, hence immune to any pivoting subtlety."""
    n = len(rows)
    m = len(rows[0]) if rows else (cols or 0)
    divisors = []
    for k in range(1, min(n, m) + 1):
        g = 0
        for ri in combinations(range(n), k):
            for ci in combinations(range(m), k):
                sub = [[rows[i][j] for j in ci] for i in ri]
                g = gcd(g, det_int(sub))
        divisors.append(g)
    factors = []
    prev = 1
    for d in divisors:
        if d == 0:
            break
        factors.append(d // prev)
        prev = d
    return factors, len(factors)


def smith_diagonal_second_elimination(rows, cols=None):
    """A second, transform-free Smith reduction using a different pivot
    rule (first nonzero, row-major) and a different loop structure than the
    library's.  Returns the full nonzero diagonal."""
    A = [list(r) for r in rows]
    n = len(A)
    m = len(A[0]) if A else (cols or 0)
    k = 0
    diag = []
    while k < min(n, m):
        piv = next(((i, j) for i in range(k, n) for j in range(k, m)
                    if A[i][j]), None)
        if piv is None:
            break
        A[k], A[piv[0]] = A[piv[0]], A[k]
        for r in A:
            r[k], r[piv[1]] = r[piv[1]], r[k]
        while True:
            moved = False
            for i in range(k + 1, n):
                while A[i][k]:
                    q = A[i][k] // A[k][k]
                    A[i] = [a - q * b for a, b in zip(A[i], A[k])]
                    if A[i][k]:
                        A[k], A[i] = A[i], A[k]
                        moved = True
            for j in range(k + 1, m):
                while A[k][j]:
                    q = A[k][j] // A[k][k]
                    for r in A:
                        r[j] -= q * r[k]
                    if A[k][j]:
                        for r in A:
                            r[k], r[j] = r[j], r[k]
                        moved = True
            if not moved:
                break
        # pull non-divisible entries through the pivot
        bad = next(((i, j) for i in range(k + 1, n) for j in range(k + 1, m)
                    if A[i][j] % A[k][k]), None)
        if bad is not None:
            A[k] = [a + b for a, b in zip(A[k], A[bad[0]])]
            continue
        diag.append(abs(A[k][k]))
        k += 1
    return diag


# ---------------------------------------------------------------------------
# maximal minors, enumerated
#
# Polynomials are {exponent: coefficient} maps with nonzero coefficients.


def _poly_mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def _poly_add(a, b, sign=1):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + sign * c
    return {e: c for e, c in out.items() if c}


def det_poly(rows):
    """Determinant by cofactor expansion along the first column."""
    n = len(rows)
    if n == 0:
        return {0: 1}
    total = {}
    for i in range(n):
        if not rows[i][0]:
            continue
        minor = [row[1:] for p, row in enumerate(rows) if p != i]
        total = _poly_add(total, _poly_mul(rows[i][0], det_poly(minor)),
                          1 if i % 2 == 0 else -1)
    return total


def _canonical(coeff_map):
    """Lowest exponent 0 and positive leading coefficient."""
    if not coeff_map:
        return {}
    low = min(coeff_map)
    sign = 1 if coeff_map[max(coeff_map)] > 0 else -1
    return {e - low: sign * c for e, c in coeff_map.items()}


def _gcd_over_z(a, b):
    """GCD in Z[t] of canonical maps: the gcd of the contents times the
    primitive integer multiple of the monic GCD over Q, which Euclid finds
    with Fraction coefficients."""
    if not a or not b:
        return _canonical(a or b)
    content = gcd(*a.values(), *b.values())
    x = [Fraction(a.get(e, 0)) for e in range(max(a) + 1)]
    y = [Fraction(b.get(e, 0)) for e in range(max(b) + 1)]
    while y:
        while len(x) >= len(y):
            q = x[-1] / y[-1]
            shift = len(x) - len(y)
            for i, c in enumerate(y):
                x[shift + i] -= q * c
            x.pop()
            while x and not x[-1]:
                x.pop()
        x, y = y, x
    scale = 1
    for c in x:
        scale = scale * c.denominator // gcd(scale, c.denominator)
    ints = [int(c * scale) for c in x]
    g = gcd(*ints)
    return _canonical({e: content * c // g for e, c in enumerate(ints) if c})


def minor_gcd_by_enumeration(rows, ncols):
    """GCD over all maximal minors of a matrix of {exp: coeff} entries, each
    minor by cofactor expansion, canonicalized like the library output.
    Returns {} when every minor vanishes or there are too few rows."""
    g = {}
    for picked in combinations(rows, ncols):
        g = _gcd_over_z(g, _canonical(det_poly([list(r) for r in picked])))
    return g


# ---------------------------------------------------------------------------
# brute-force finite abelian group computations
#
# Groups are given as explicit products prod Z/d_i (a diagonal relation
# matrix), elements as tuples, endomorphisms as integer matrices acting
# coordinate-wise mod d_i.


def _apply(T, x, factors):
    return tuple(sum(T[i][j] * x[j] for j in range(len(x))) % factors[i]
                 for i in range(len(x)))


def all_elements(factors):
    return list(product(*[range(d) for d in factors]))


def brute_is_automorphism(T, factors) -> bool:
    elems = all_elements(factors)
    images = {_apply(T, x, factors) for x in elems}
    return len(images) == len(elems)


def brute_endo_order(T, factors, bound):
    """Smallest d <= bound with T^d = id pointwise, by actually iterating
    the map on every element."""
    elems = all_elements(factors)
    current = {x: x for x in elems}
    for d in range(1, bound + 1):
        current = {x: _apply(T, v, factors) for x, v in current.items()}
        if all(v == x for x, v in current.items()):
            return d
    return None


def equivariant_random_matrix(rng, factors):
    """A random integer matrix T with T * diag(factors) contained in the
    column span of diag(factors), i.e. d_j * T[i][j] = 0 mod d_i."""
    n = len(factors)
    T = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            step = factors[i] // gcd(factors[i], factors[j])
            T[i][j] = step * rng.randrange(-3, 4)
        T[i][i] += rng.randrange(-2, 3)
    return T


# ---------------------------------------------------------------------------
# number-theoretic oracles


def prime_factors(n: int):
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


def geometric_multiplier(m: int, k: int) -> int:
    """The unique a mod N = (m+1)^k - m^k with (m+1) * a = m (mod N),
    solved directly with a modular inverse."""
    order = (m + 1) ** k - m ** k
    if order == 1:
        return 0
    return m * pow(m + 1, -1, order) % order


def geometric_sum_roots(p: int, k: int):
    """All a in 0..p-1 with a != 1 and 1 + a + ... + a^(k-1) = 0 mod p."""
    hits = []
    for a in range(p):
        if a == 1:
            continue
        if sum(pow(a, i, p) for i in range(k)) % p == 0:
            hits.append(a)
    return hits


def order_of_t_in_quotient(monic_ascending, modulus, bound):
    """Order of t in the ring (Z or Z/modulus)[t] / (h) for monic h, found
    by explicitly multiplying by t and reducing.  Returns None past bound.

    monic_ascending lists h's coefficients from t^0 up, ending with 1.
    """
    deg = len(monic_ascending) - 1
    assert monic_ascending[-1] == 1 and deg >= 1
    one = [1] + [0] * (deg - 1)
    state = list(one)

    def times_t(v):
        shifted = [0] + v[:-1]
        lead = v[-1]
        out = [c - lead * h for c, h in zip(shifted, monic_ascending[:-1])]
        if modulus is not None:
            out = [c % modulus for c in out]
        return out

    for d in range(1, bound + 1):
        state = times_t(state)
        if state == one:
            return d
    return None


# ---------------------------------------------------------------------------
# sympy-backed polynomial oracles (different codebase entirely)

_t = sympy.Symbol("t")


def sympy_poly(coeff_map):
    """Build a sympy expression from {exponent: coefficient}."""
    return sympy.expand(sum(c * _t ** e for e, c in coeff_map.items()))


def canonical_coeffs(expr):
    """Unit-normalize a (Laurent) polynomial expression over Z the same way
    the library's canonical form is defined — lowest exponent 0, positive
    leading coefficient — and return {exponent: coefficient}."""
    expr = sympy.expand(sympy.together(expr))
    if expr == 0:
        return {}
    num, den = sympy.fraction(expr)
    # den is +-t^k for Laurent operands
    poly = sympy.Poly(sympy.expand(num), _t)
    coeffs = poly.all_coeffs()[::-1]  # ascending
    low = next(i for i, c in enumerate(coeffs) if c != 0)
    coeffs = coeffs[low:]
    if coeffs[-1] < 0:
        coeffs = [-c for c in coeffs]
    assert den.could_extract_minus_sign() is False
    return {e: int(c) for e, c in enumerate(coeffs) if c != 0}


def _shifted(coeff_map):
    """Slide exponents so the lowest is 0 (multiplying by a power of t is a
    unit operation and cannot change a canonical-form answer)."""
    if not coeff_map:
        return {}
    low = min(e for e, c in coeff_map.items() if c)
    return {e - low: c for e, c in coeff_map.items() if c}


def sympy_gcd_canonical(p_map, q_map):
    g = sympy.gcd(sympy_poly(_shifted(p_map)), sympy_poly(_shifted(q_map)))
    return canonical_coeffs(g)


def sympy_cyclotomic_coeffs(d: int):
    return canonical_coeffs(sympy.cyclotomic_poly(d, _t))


def sympy_minor_gcd(rows, ncols):
    """GCD over all maximal minors of a matrix of {exp: coeff} entries,
    computed entirely inside sympy; canonicalized like the library output.
    Returns {} when every minor vanishes or there are too few rows.

    Each row is slid to lowest exponent 0 first: that multiplies every
    minor through the row by a power of t, which the canonical form
    removes again, and it keeps sympy in plain polynomials."""
    n = len(rows)
    if n < ncols:
        return {}

    def slide(row):
        exps = [e for entry in row for e, c in entry.items() if c]
        low = min(exps) if exps else 0
        return [{e - low: c for e, c in entry.items() if c} for entry in row]

    mat = sympy.Matrix([[sympy_poly(e) for e in slide(row)] for row in rows])
    g = sympy.Integer(0)
    for ri in combinations(range(n), ncols):
        sub = mat[list(ri), :]
        g = sympy.gcd(g, sympy.expand(sub.det()))
    return canonical_coeffs(g)
