"""References computed apart from cgalex, with the standard library only.

Nothing here imports the program.  The algorithms differ from the
program's on purpose: Smith forms by Bezout elimination plus a gcd/lcm
normalization of the diagonal (the program pivots on the smallest entry
and records transforms), group orders by fraction-free elimination on a
Sylvester matrix, free ranks by Euclid over Q, the t-action of a monic
summand on Z^deg through its companion matrix, and the geometric family
Lambda/((m+1)t - m) by its closed form.  The text builders for the
workloads' .cg and .lm inputs live here too.

Laurent polynomials are dicts {exponent: nonzero coefficient}; dense
polynomials are coefficient lists, lowest degree first.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm, prod

# ---------------------------------------------------------------------------
# Laurent polynomials


def lp(terms) -> dict:
    items = terms.items() if isinstance(terms, dict) else terms
    out: dict = {}
    for e, c in items:
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def lp_add(a: dict, b: dict) -> dict:
    return lp(list(a.items()) + list(b.items()))


def lp_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def lp_prod(polys) -> dict:
    out = {0: 1}
    for p in polys:
        out = lp_mul(out, p)
    return out


def lp_normalize(a: dict) -> dict:
    """Lowest exponent 0 and positive leading coefficient (units are +-t^e)."""
    if not a:
        return {}
    low = min(a)
    sign = 1 if a[max(a)] > 0 else -1
    return {e - low: sign * c for e, c in a.items()}


def lp_text(a: dict) -> str:
    """The program's polynomial syntax, highest exponent first."""
    if not a:
        return "0"
    parts = []
    for e in sorted(a, reverse=True):
        c = a[e]
        mag = abs(c)
        if e == 0:
            body = str(mag)
        else:
            var = "t" if e == 1 else f"t^{e}"
            body = var if mag == 1 else f"{mag}{var}"
        if not parts:
            parts.append(body if c > 0 else "-" + body)
        else:
            parts.append(("+ " if c > 0 else "- ") + body)
    return " ".join(parts)


_TERM = re.compile(r"([+-]?)\s*(\d*)\s*(t(?:\^(-?\d+))?)?")


def lp_parse(text: str) -> dict:
    """Parse polynomial text such as ``3t^2 - t + 4t^-1`` or ``0``."""
    s = text.replace(" ", "")
    if not s:
        raise ValueError("empty polynomial text")
    out: dict = {}
    pos = 0
    while pos < len(s):
        m = _TERM.match(s, pos)
        if m is None or m.end() == pos or not (m.group(2) or m.group(3)):
            raise ValueError(f"bad polynomial text {text!r}")
        sign = -1 if m.group(1) == "-" else 1
        coeff = int(m.group(2)) if m.group(2) else 1
        if m.group(3):
            e = int(m.group(4)) if m.group(4) is not None else 1
        else:
            e = 0
        out[e] = out.get(e, 0) + sign * coeff
        pos = m.end()
    return lp(out)


def dense(a: dict) -> list:
    """Coefficients of the normalized polynomial, lowest degree first."""
    a = lp_normalize(a)
    if not a:
        return []
    out = [0] * (max(a) + 1)
    for e, c in a.items():
        out[e] = c
    return out


def lp_value(a: dict, x: int) -> Fraction:
    return sum((Fraction(c) * Fraction(x) ** e for e, c in a.items()),
               Fraction(0))


# ---------------------------------------------------------------------------
# dense polynomials over Q


def _trim(p):
    while p and not p[-1]:
        p.pop()
    return p


def q_rem(a, b):
    a = [Fraction(x) for x in a]
    _trim(a)
    while len(a) >= len(b):
        coeff = a[-1] / b[-1]
        shift = len(a) - len(b)
        for i, c in enumerate(b):
            a[shift + i] -= coeff * c
        a.pop()
        _trim(a)
    return a


def q_gcd(a, b) -> list:
    """Monic gcd over Q of two dense integer polynomials."""
    a = _trim([Fraction(x) for x in a])
    b = _trim([Fraction(x) for x in b])
    while b:
        a, b = b, q_rem(a, b)
    if not a:
        return []
    lead = a[-1]
    return [c / lead for c in a]


def cyclic_minus_one(k: int) -> list:
    """t^k - 1 as a dense list."""
    return [-1] + [0] * (k - 1) + [1]


# ---------------------------------------------------------------------------
# integer linear algebra


def _xgcd(a: int, b: int):
    """(g, x, y) with g = x*a + y*b = gcd(a, b) >= 0."""
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        a, x0, y0 = -a, -x0, -y0
    return a, x0, y0


def diagonal_chain(values) -> list:
    """Nonzero |values| rearranged into a divisibility chain with the same
    product, by pairwise gcd/lcm exchanges."""
    d = [abs(v) for v in values if v]
    for i in range(len(d)):
        for j in range(i + 1, len(d)):
            g = gcd(d[i], d[j])
            d[i], d[j] = g, d[i] // g * d[j]
    return d


def smith_diagonal(rows, ncols: int) -> list:
    """Nonzero diagonal of a Smith form of the integer matrix, as a
    divisibility chain (units included), by Bezout row and column steps."""
    S = [list(r) for r in rows]
    n, m = len(S), ncols
    diag = []
    k = 0
    while k < min(n, m):
        pivot = next(((i, j) for j in range(k, m) for i in range(k, n)
                      if S[i][j]), None)
        if pivot is None:
            break
        i0, j0 = pivot
        S[k], S[i0] = S[i0], S[k]
        if j0 != k:
            for r in S:
                r[k], r[j0] = r[j0], r[k]
        while True:
            for i in range(k + 1, n):
                b = S[i][k]
                if not b:
                    continue
                a = S[k][k]
                ra, rb = S[k], S[i]
                if b % a == 0:
                    c = b // a
                    S[i] = [q - c * p for p, q in zip(ra, rb)]
                    continue
                g, x, y = _xgcd(a, b)
                S[k] = [x * p + y * q for p, q in zip(ra, rb)]
                S[i] = [(b // g) * p - (a // g) * q for p, q in zip(ra, rb)]
            dirty = False
            for j in range(k + 1, m):
                b = S[k][j]
                if not b:
                    continue
                a = S[k][k]
                if b % a == 0:
                    c = b // a
                    for r in S:
                        r[j] -= c * r[k]
                    continue
                g, x, y = _xgcd(a, b)
                for r in S:
                    p, q = r[k], r[j]
                    r[k] = x * p + y * q
                    r[j] = (b // g) * p - (a // g) * q
                dirty = True
            if not dirty or not any(S[i][k] for i in range(k + 1, n)):
                break
        diag.append(S[k][k])
        k += 1
    return diagonal_chain(diag)


def column_diagonal(columns, nrows: int) -> list:
    """smith_diagonal of the matrix with the given columns."""
    return smith_diagonal([[col[i] for col in columns] for i in range(nrows)],
                          len(columns))


def _signature(diag) -> tuple:
    return len(diag), prod(diag)


def lattice_signature(columns, nrows: int):
    """(rank, product of the nonzero Smith diagonal) of the column span.
    Two lattices L1 <= L2 with equal signatures are equal."""
    return _signature(column_diagonal(columns, nrows))


def det_bareiss(M) -> int:
    """Fraction-free Gaussian elimination (Bareiss) with row pivoting."""
    A = [list(r) for r in M]
    n = len(A)
    if n == 0:
        return 1
    sign, prev = 1, 1
    for k in range(n - 1):
        if not A[k][k]:
            swap = next((i for i in range(k + 1, n) if A[i][k]), None)
            if swap is None:
                return 0
            A[k], A[swap] = A[swap], A[k]
            sign = -sign
        akk = A[k][k]
        for i in range(k + 1, n):
            aik = A[i][k]
            row_i, row_k = A[i], A[k]
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * akk - aik * row_k[j]) // prev
        prev = akk
    return sign * A[n - 1][n - 1]


def resultant(f: list, g: list) -> int:
    """Res(f, g) as the determinant of the Sylvester matrix."""
    p, q = len(f) - 1, len(g) - 1
    size = p + q
    rows = []
    for i in range(q):
        row = [0] * size
        for j, c in enumerate(reversed(f)):
            row[i + j] = c
        rows.append(row)
    for i in range(p):
        row = [0] * size
        for j, c in enumerate(reversed(g)):
            row[i + j] = c
        rows.append(row)
    return det_bareiss(rows)


def mat_mul(A, B):
    Bt = list(zip(*B))
    return [[sum(a * b for a, b in zip(row, col)) for col in Bt] for row in A]


def mat_pow(A, e: int):
    n = len(A)
    out = [[int(i == j) for j in range(n)] for i in range(n)]
    while e:
        if e & 1:
            out = mat_mul(out, A)
        A = mat_mul(A, A)
        e >>= 1
    return out


def _divisors(k: int):
    return [d for d in range(1, k + 1) if k % d == 0]


# ---------------------------------------------------------------------------
# the quotient A_k of a cyclic summand Lambda/(f)


def geometric_m(f: dict):
    """m when f is (m+1)t - m up to a unit, else None."""
    d = dense(f)  # [-m, m + 1] after normalization
    if len(d) == 2 and d[0] + d[1] == 1 and d[0] < 0:
        return -d[0]
    return None


def geometric_quotient(m: int, k: int):
    """Closed form: A_k = Z/N with N = (m+1)^k - m^k, t acting as
    m * (m+1)^-1 mod N.  Returns (factors, free_rank, t_order)."""
    N = (m + 1) ** k - m ** k
    if N == 1:
        return (), 0, 1
    a = m * pow(m + 1, -1, N) % N
    order = next(d for d in _divisors(k) if pow(a, d, N) == 1)
    return (N,), 0, order


def _companion(d: list):
    """Matrix of t on Z[t]/(f) in the basis 1, t, ..., t^(D-1)."""
    D = len(d) - 1
    lead = d[-1]
    C = [[0] * D for _ in range(D)]
    for i in range(1, D):
        C[i][i - 1] = 1
    for i in range(D):
        C[i][D - 1] = -d[i] * lead  # lead is +-1, so dividing is multiplying
    return C


def _quotient_by_action(T, k: int):
    """(factors, free_rank, t_order) of Z^D / (T^k - I) with t acting as T."""
    D = len(T)
    ident = [[int(i == j) for j in range(D)] for i in range(D)]

    def minus_ident(P):
        return [[P[i][j] - ident[i][j] for j in range(D)] for i in range(D)]

    cols_k = [list(c) for c in zip(*minus_ident(mat_pow(T, k)))]
    diag = column_diagonal(cols_k, D)
    sig = _signature(diag)
    order = None
    for d in _divisors(k):
        extra = [list(c) for c in zip(*minus_ident(mat_pow(T, d)))]
        if lattice_signature(cols_k + extra, D) == sig:
            order = d
            break
    return tuple(x for x in diag if x > 1), D - len(diag), order


def companion_quotient(f: dict, k: int):
    """A_k of Lambda/(f) for f with leading coefficient +-1: Z[t]/(f) is
    Z^deg f, so A_k is the cokernel of C^k - I for the companion C."""
    d = dense(f)
    if len(d) <= 1:
        return (), 0, 1
    return _quotient_by_action(_companion(d), k)


def expansion_columns(ncols: int, rows, k: int) -> list:
    """The integer expansion of a module mod t^k - 1: generator g times t^e
    is coordinate g*k + (e mod k), and each row r gives the columns t^s r
    for s < k."""
    n = ncols * k
    cols = []
    for row in rows:
        for s in range(k):
            col = [0] * n
            for g, poly in enumerate(row):
                for e, c in poly.items():
                    col[g * k + (e + s) % k] += c
            cols.append(col)
    return cols


def circulant_quotient(f: dict, k: int):
    """A_k of Lambda/(f) from the k x k circulant of f mod t^k - 1, with t
    acting as the cyclic shift."""
    cols = expansion_columns(1, [[f]], k)
    diag = column_diagonal(cols, k)
    sig = _signature(diag)
    order = None
    for d in _divisors(k):
        # columns (t^d - 1) e_j = e_(j+d) - e_j
        extra = [[int(i == (j + d) % k) - int(i == j) for i in range(k)]
                 for j in range(k)]
        if lattice_signature(cols + extra, k) == sig:
            order = d
            break
    return tuple(x for x in diag if x > 1), k - len(diag), order


def lm_quotient(text: str, k: int):
    """(invariant factors, free rank) of A_k of the module in an .lm text."""
    ncols, rows = parse_lm_text(text)
    diag = column_diagonal(expansion_columns(ncols, rows, k), ncols * k)
    return tuple(x for x in diag if x > 1), ncols * k - len(diag)


CIRCULANT_LIMIT = 24


def summand_quotient(f: dict, k: int):
    """(factors, free_rank, t_order) of A_k for Lambda/(f), by the closed
    form, the companion matrix or the circulant, whichever applies; None
    when none is affordable."""
    m = geometric_m(f)
    if m is not None:
        return geometric_quotient(m, k)
    d = dense(f)
    if abs(d[-1]) == 1:
        return companion_quotient(f, k)
    if k <= CIRCULANT_LIMIT:
        return circulant_quotient(f, k)
    return None


def summand_order(f: dict, k: int):
    """|A_k| = |Res(f, t^k - 1)|, or None when A_k is infinite."""
    r = abs(resultant(dense(f), cyclic_minus_one(k)))
    return r or None


def summand_free_rank(f: dict, k: int) -> int:
    return len(q_gcd(dense(f), cyclic_minus_one(k))) - 1


def summand_charpoly(f: dict, k: int) -> dict:
    """Characteristic polynomial of t on A_k tensor Q: the monic
    gcd(f, t^k - 1), which has integer coefficients."""
    g = q_gcd(dense(f), cyclic_minus_one(k))
    return lp({e: int(c) for e, c in enumerate(g)})


def cyclotomic_period(f: dict):
    """The least m with f | t^m - 1 over Q, or None (searched to 200)."""
    d = dense(f)
    for m in range(1, 201):
        if len(q_gcd(d, cyclic_minus_one(m))) == len(d):
            return m
    return None


def sum_quotient(summands, k: int) -> dict:
    """Reference data for A_k of the direct sum of Lambda/(f_i).

    Keys: ``order`` (None when infinite), ``free_rank``, ``charpoly`` and,
    where every summand has a structural reference, ``factors`` and
    ``t_order``.
    """
    free = sum(summand_free_rank(f, k) for f in summands)
    order = None
    if not free:
        order = 1
        for f in summands:
            order *= summand_order(f, k)
    ref = {"order": order, "free_rank": free,
           "charpoly": lp_normalize(lp_prod(summand_charpoly(f, k)
                                            for f in summands))}
    parts = [summand_quotient(f, k) for f in summands]
    if all(p is not None for p in parts):
        ref["factors"] = merge_factors([d for fac, _, _ in parts for d in fac])
        ref["t_order"] = lcm(*(t for _, _, t in parts))
    return ref


def merge_factors(orders) -> tuple:
    """Invariant factors of the direct sum of cyclic groups Z/q."""
    return tuple(x for x in diagonal_chain(orders) if x > 1)


# ---------------------------------------------------------------------------
# presentations: .cg text, words and the abelianized Fox calculus


def parse_word_text(text: str) -> list:
    """Letters (generator, +-1) of a word such as ``x2^-1 x1``; ``.`` is
    the empty word."""
    text = text.strip()
    if text == ".":
        return []
    out = []
    for tok in text.split():
        m = re.fullmatch(r"x(\d+)(?:\^([+-]?\d+))?", tok)
        if m is None:
            raise ValueError(f"bad word token {tok!r}")
        e = int(m.group(2)) if m.group(2) else 1
        out.extend([(int(m.group(1)), 1 if e > 0 else -1)] * abs(e))
    return out


def parse_cg_text(text: str) -> dict:
    """{"gens", "hurwitz", "rels": [(i, j, letters)]} of a .cg file."""
    gens, hurwitz, rels = None, None, []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, _, rest = line.partition(" ")
        if head == "gens":
            gens = int(rest)
        elif head == "hurwitz-degree":
            hurwitz = int(rest)
        elif head == "rel":
            left, _, word = rest.partition(":")
            i, j = (int(x) for x in left.split("<-"))
            rels.append((i, j, parse_word_text(word)))
        else:
            raise ValueError(f"unexpected .cg line {line!r}")
    return {"gens": gens, "hurwitz": hurwitz, "rels": rels}


def word_text(letters) -> str:
    if not letters:
        return "."
    return " ".join(f"x{g}" if s == 1 else f"x{g}^-1" for g, s in letters)


def invert(letters) -> list:
    return [(g, -s) for g, s in reversed(letters)]


def fox_row(relator, gens: int) -> list:
    """Abelianized Fox derivatives of a relator word, one per generator."""
    row = [dict() for _ in range(gens)]
    s = 0
    for g, sign in relator:
        e = s if sign == 1 else s - 1
        d = row[g - 1]
        d[e] = d.get(e, 0) + sign
        s += sign
    return [lp(d) for d in row]


def fox_matrix(pres: dict) -> list:
    """Rows of the relators w^-1 x_j w x_i^-1 of a parsed .cg."""
    rows = []
    for i, j, w in pres["rels"]:
        relator = invert(w) + [(j, 1)] + w + [(i, -1)]
        rows.append(fox_row(relator, pres["gens"]))
    return rows


def reduced(rows) -> list:
    return [row[:-1] for row in rows]


def realization_word(g: dict, a: int, b: int) -> list:
    """The word w_g(x_a, x_b): for each term c t^i, ascending, the block
    x_b^i x_a x_b^-(i+1) repeated c times, or for c < 0 the block
    x_b^(i+1) x_a^-1 x_b^-i repeated -c times.  Its Fox derivative
    with respect to x_a is g."""
    out = []
    for i in sorted(g):
        c = g[i]
        if c > 0:
            block = [(b, 1)] * i + [(a, 1)] + [(b, -1)] * (i + 1)
        else:
            block = [(b, 1)] * (i + 1) + [(a, -1)] + [(b, -1)] * i
        out.extend(block * abs(c))
    return out


def unipotent_part(f: dict) -> dict:
    """g with f = (1 - t) g + 1, for a polynomial f with f(1) = 1."""
    d = dense_raw(f)
    h = d[:]
    h[0] -= 1
    g, prefix = {}, 0
    for i, c in enumerate(h[:-1]):
        prefix += c
        if prefix:
            g[i] = prefix
    return g


def dense_raw(f: dict) -> list:
    """Coefficients of a polynomial (no negative exponents), no unit
    normalization."""
    out = [0] * (max(f) + 1 if f else 1)
    for e, c in f.items():
        out[e] = c
    return out


def realization_rows(fs, g_rows, hurwitz_n=None) -> list:
    """The reduced matrix a realization of (f, g) must have: f_i e_i, then
    (1 - t) g rows, then (t^n - 1) e_i for a declared degree multiple n."""
    m = len(fs)
    rows = [[f if j == i else {} for j in range(m)] for i, f in enumerate(fs)]
    one_minus_t = {0: 1, 1: -1}
    rows += [[lp_mul(one_minus_t, g) for g in gr] for gr in g_rows]
    if hurwitz_n is not None:
        for i in range(m):
            rows.append([{hurwitz_n: 1, 0: -1} if j == i else {}
                         for j in range(m)])
    return rows


def realization_cg(fs, g_rows, hurwitz_n=None) -> str:
    """A .cg text on m+1 generators whose reduced matrix is
    realization_rows(fs, g_rows, hurwitz_n): x_top = w x_i w^-1 with
    w = w_{g_i}(x_i, x_top) for each f_i = (1 - t) g_i + 1, then
    x_top = w_u x_top w_u^-1 for each row, and x_i = x_top^n x_i x_top^-n."""
    m = len(fs)
    top = m + 1
    lines = [f"gens {top}"]
    if hurwitz_n is not None:
        lines.append(f"hurwitz-degree {hurwitz_n * top}")
    for i, f in enumerate(fs, start=1):
        w = realization_word(unipotent_part(f), i, top)
        lines.append(f"rel {top} <- {i} : {word_text(invert(w))}")
    for gr in g_rows:
        w = []
        for i, g in enumerate(gr, start=1):
            w += realization_word(g, i, top)
        lines.append(f"rel {top} <- {top} : {word_text(invert(w))}")
    if hurwitz_n is not None:
        for i in range(1, m + 1):
            lines.append(f"rel {i} <- {i} : x{top}^{-hurwitz_n}")
    return "\n".join(lines) + "\n"


def braid_cg(strands: int) -> str:
    """The braid group on the given number of strands as a C-presentation:
    x_{a+1} = (x_a x_{a+1}) x_a (x_a x_{a+1})^-1 for adjacent generators,
    and x_b = x_a x_b x_a^-1 for distant ones."""
    m = strands - 1
    lines = [f"gens {m}"]
    for a in range(1, m):
        lines.append(f"rel {a + 1} <- {a} : x{a + 1}^-1 x{a}^-1")
    for a in range(1, m + 1):
        for b in range(a + 2, m + 1):
            lines.append(f"rel {b} <- {b} : x{a}^-1")
    return "\n".join(lines) + "\n"


def geometric_cg(m: int) -> str:
    """x2 = w^-1 x1 w with w = (x2^-1 x1)^m: the module Lambda/((m+1)t - m)."""
    return f"gens 2\nrel 2 <- 1 : {' '.join(['x2^-1 x1'] * m)}\n"


def lm_text(ncols: int, rows) -> str:
    lines = [f"cols {ncols}"]
    for row in rows:
        lines.append("row " + " , ".join(lp_text(e) for e in row))
    return "\n".join(lines) + "\n"


def parse_lm_text(text: str):
    ncols, rows = None, []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, _, rest = line.partition(" ")
        if head == "cols":
            ncols = int(rest)
        elif head == "row":
            rows.append([lp_parse(p) for p in rest.split(",")] if rest else [])
    return ncols, rows


# ---------------------------------------------------------------------------
# structure questions


def prime_factors(n: int) -> list:
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def cyclic_witness_exists(p: int, k: int) -> bool:
    """Some a != 1 mod p has 1 + a + ... + a^(k-1) = 0 mod p exactly when
    a is a k-th root of unity other than 1, i.e. when gcd(k, p-1) > 1."""
    return gcd(k, p - 1) > 1


def is_cyclic_witness(a: int, p: int, k: int) -> bool:
    return a % p != 1 and sum(pow(a, i, p) for i in range(k)) % p == 0
