"""Exact integer linear algebra: Smith normal form with recorded unimodular
transforms, finitely generated abelian groups as cokernels, induced
endomorphisms, and automorphism/order tests.

Everything is arbitrary-precision and deterministic; the pivot rule is
"smallest absolute value, ties by row-major position".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import prod
from operator import mul

from .errors import PreconditionError
from .laurent import _factorize


class NotEquivariant(PreconditionError):
    """The matrix does not map the relation span into itself."""


class NotFinite(PreconditionError):
    """A finite group was required but the group has positive free rank."""


class IntMatrix:
    """An immutable rectangular matrix of arbitrary-precision integers.

    >>> A = IntMatrix([[1, 2], [3, 4]])
    >>> A @ IntMatrix.identity(2) == A
    True
    >>> (A @ A).entries
    ((7, 10), (15, 22))
    """

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries, rows=None, cols=None):
        entries = tuple(tuple(int(x) for x in row) for row in entries)
        r = len(entries)
        c = len(entries[0]) if entries else (cols if cols is not None else 0)
        if any(len(row) != c for row in entries):
            raise ValueError("matrix rows have unequal lengths")
        if rows is not None and rows != r:
            raise ValueError("row count mismatch")
        if cols is not None and entries and cols != c:
            raise ValueError("column count mismatch")
        object.__setattr__(self, "rows", r)
        object.__setattr__(self, "cols", c)
        object.__setattr__(self, "entries", entries)

    def __setattr__(self, name, value):
        raise AttributeError("IntMatrix is immutable")

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(tuple(tuple(1 if i == j else 0 for j in range(n))
                         for i in range(n)))

    @classmethod
    def zeros(cls, r: int, c: int) -> "IntMatrix":
        return cls(tuple((0,) * c for _ in range(r)), cols=c)

    @classmethod
    def from_columns(cls, columns, nrows: int) -> "IntMatrix":
        columns = tuple(tuple(col) for col in columns)
        if any(len(col) != nrows for col in columns):
            raise ValueError("column length mismatch")
        return cls(tuple(tuple(col[i] for col in columns)
                         for i in range(nrows)), cols=len(columns))

    def at(self, i: int, j: int) -> int:
        return self.entries[i][j]

    def row(self, i: int):
        return self.entries[i]

    def column(self, j: int):
        return tuple(row[j] for row in self.entries)

    def columns(self):
        return tuple(self.column(j) for j in range(self.cols))

    def transpose(self) -> "IntMatrix":
        return IntMatrix(tuple(self.column(j) for j in range(self.cols)),
                         cols=self.rows)

    def hstack(self, other: "IntMatrix") -> "IntMatrix":
        if self.rows != other.rows:
            raise ValueError("row count mismatch in hstack")
        return IntMatrix(tuple(a + b for a, b in zip(self.entries, other.entries)),
                         cols=self.cols + other.cols)

    def __matmul__(self, other):
        if isinstance(other, IntMatrix):
            if self.cols != other.rows:
                raise ValueError("dimension mismatch")
            bt = other.transpose().entries
            return IntMatrix(
                tuple(tuple(sum(map(mul, row, col)) for col in bt)
                      for row in self.entries),
                cols=other.cols)
        return NotImplemented

    def matvec(self, v) -> tuple:
        v = tuple(v)
        if len(v) != self.cols:
            raise ValueError("dimension mismatch")
        return tuple(sum(map(mul, row, v)) for row in self.entries)

    def __add__(self, other):
        if not isinstance(other, IntMatrix) or (self.rows, self.cols) != (other.rows, other.cols):
            return NotImplemented
        return IntMatrix(tuple(tuple(a + b for a, b in zip(r1, r2))
                               for r1, r2 in zip(self.entries, other.entries)),
                         cols=self.cols)

    def __sub__(self, other):
        if not isinstance(other, IntMatrix) or (self.rows, self.cols) != (other.rows, other.cols):
            return NotImplemented
        return IntMatrix(tuple(tuple(a - b for a, b in zip(r1, r2))
                               for r1, r2 in zip(self.entries, other.entries)),
                         cols=self.cols)

    def __pow__(self, e: int) -> "IntMatrix":
        if self.rows != self.cols:
            raise ValueError("only square matrices have powers")
        if e < 0:
            raise ValueError("negative matrix power")
        result = IntMatrix.identity(self.rows)
        base = self
        while e:
            if e & 1:
                result = result @ base
            base = base @ base if e > 1 else base
            e >>= 1
        return result

    def __eq__(self, other):
        if not isinstance(other, IntMatrix):
            return NotImplemented
        return self.entries == other.entries and self.cols == other.cols

    def __hash__(self):
        return hash((self.cols, self.entries))

    def __repr__(self):
        return f"IntMatrix({[list(r) for r in self.entries]!r})"


@dataclass(frozen=True)
class SmithDecomposition:
    """A = U @ S @ V with U, V unimodular and S diagonal, d_1 | d_2 | ...

    u_inv and v_inv are the recorded inverses, so membership/solvability
    queries never re-eliminate.
    """

    U: IntMatrix
    S: IntMatrix
    V: IntMatrix
    u_inv: IntMatrix
    v_inv: IntMatrix

    @property
    def diagonal(self) -> tuple:
        return tuple(self.S.at(i, i) for i in range(min(self.S.rows, self.S.cols)))

    @property
    def rank(self) -> int:
        return sum(1 for d in self.diagonal if d)

    def solve(self, b):
        """An integer solution x of A x = b, or None if none exists."""
        b = tuple(b)
        if len(b) != self.S.rows:
            raise ValueError("dimension mismatch")
        y = self.u_inv.matvec(b)
        diag = self.diagonal
        r = self.rank
        z = [0] * self.S.cols
        for i, yi in enumerate(y):
            if i < r:
                if yi % diag[i]:
                    return None
                z[i] = yi // diag[i]
            elif yi:
                return None
        return self.v_inv.matvec(z)

    def in_column_span(self, b) -> bool:
        return self.solve(b) is not None


def smith_normal_form(A: IntMatrix) -> SmithDecomposition:
    """Exact Smith decomposition with recorded transforms.

    >>> dec = smith_normal_form(IntMatrix([[2, 0], [0, 3]]))
    >>> dec.diagonal
    (1, 6)
    >>> dec.U @ dec.S @ dec.V == IntMatrix([[2, 0], [0, 3]])
    True
    """
    n, m = A.rows, A.cols
    S = [list(row) for row in A.entries]
    # U and v_inv are maintained transposed so that the column operations
    # they absorb become row operations (whole-row list comprehensions).
    Ut = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    Ui = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    V = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    Vit = [[1 if i == j else 0 for j in range(m)] for i in range(m)]

    def row_swap(a, b):
        if a == b:
            return
        S[a], S[b] = S[b], S[a]
        Ui[a], Ui[b] = Ui[b], Ui[a]
        Ut[a], Ut[b] = Ut[b], Ut[a]

    def row_add(dst, src, c):
        # row_dst += c * row_src; U absorbs the inverse op on columns.
        if not c:
            return
        S[dst] = [x + c * y for x, y in zip(S[dst], S[src])]
        Ui[dst] = [x + c * y for x, y in zip(Ui[dst], Ui[src])]
        Ut[src] = [x - c * y for x, y in zip(Ut[src], Ut[dst])]

    def row_negate(a):
        S[a] = [-x for x in S[a]]
        Ui[a] = [-x for x in Ui[a]]
        Ut[a] = [-x for x in Ut[a]]

    def col_swap(a, b):
        if a == b:
            return
        for r in S:
            r[a], r[b] = r[b], r[a]
        V[a], V[b] = V[b], V[a]
        Vit[a], Vit[b] = Vit[b], Vit[a]

    def col_add(dst, src, c):
        # col_dst += c * col_src; V absorbs the inverse op on its rows.
        if not c:
            return
        for r in S:
            r[dst] += c * r[src]
        V[src] = [x - c * y for x, y in zip(V[src], V[dst])]
        Vit[dst] = [x + c * y for x, y in zip(Vit[dst], Vit[src])]

    k = 0
    size = min(n, m)
    while k < size:
        # Pivot: smallest absolute value among nonzero entries, row-major ties.
        piv = None
        for i in range(k, n):
            for j in range(k, m):
                v = S[i][j]
                if v and (piv is None or abs(v) < abs(S[piv[0]][piv[1]])):
                    piv = (i, j)
        if piv is None:
            break
        row_swap(k, piv[0])
        col_swap(k, piv[1])
        if S[k][k] < 0:
            row_negate(k)
        restart = False
        for i in range(k + 1, n):
            if S[i][k]:
                q = S[i][k] // S[k][k]
                row_add(i, k, -q)
                if S[i][k]:
                    restart = True
                    break
        if restart:
            continue
        for j in range(k + 1, m):
            if S[k][j]:
                q = S[k][j] // S[k][k]
                col_add(j, k, -q)
                if S[k][j]:
                    restart = True
                    break
        if restart:
            continue
        # Row k and column k are clear; pull in any entry the pivot misses.
        pulled = False
        for i in range(k + 1, n):
            if any(S[i][j] % S[k][k] for j in range(k + 1, m)):
                row_add(k, i, 1)
                pulled = True
                break
        if pulled:
            continue
        k += 1

    U = [[Ut[i][j] for i in range(n)] for j in range(n)]
    Vi = [[Vit[i][j] for i in range(m)] for j in range(m)]
    dec = SmithDecomposition(IntMatrix(U, cols=n), IntMatrix(S, cols=m),
                             IntMatrix(V, cols=m), IntMatrix(Ui, cols=n),
                             IntMatrix(Vi, cols=m))
    # Exactness guarantee: recompute A from the decomposition on every call.
    # S is diagonal, so S @ V is row scaling, not a dense multiply.
    sv = IntMatrix(tuple(
        tuple(S[i][i] * x for x in V[i]) if i < m else (0,) * m
        for i in range(n)), cols=m)
    assert dec.U @ sv == A
    # Unimodularity certificates (integer inverse forces det = +-1); the
    # V-side certificate is skipped above a size threshold because it costs
    # a dense m^3 multiply, and V is unimodular by construction (every
    # operation applied is elementary).
    if n <= 96:
        assert dec.U @ dec.u_inv == IntMatrix.identity(n)
    if m <= 96:
        assert dec.V @ dec.v_inv == IntMatrix.identity(m)
    diag = dec.diagonal
    assert all(d >= 0 for d in diag)
    for a, b in zip(diag, diag[1:]):
        assert (a == 0 and b == 0) or (a != 0 and b % a == 0), diag
    return dec


@dataclass(frozen=True)
class FgAbelianGroup:
    """Z^N / colspan(R) described by its invariant factors and free rank.

    >>> G = cokernel(IntMatrix([[2, 0], [0, 3]]))
    >>> G.invariant_factors, G.free_rank
    ((6,), 0)
    >>> print(G)
    Z/6
    """

    invariant_factors: tuple
    free_rank: int
    ambient_rank: int
    relations: IntMatrix
    snf: SmithDecomposition = field(repr=False, compare=False)

    @property
    def order(self):
        """Group order as an integer, or None when infinite."""
        if self.free_rank:
            return None
        return prod(self.invariant_factors) if self.invariant_factors else 1

    @property
    def is_trivial(self) -> bool:
        return not self.invariant_factors and not self.free_rank

    def __str__(self):
        parts = [f"Z/{d}" for d in self.invariant_factors]
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        return " + ".join(parts) if parts else "0"


def cokernel(R: IntMatrix) -> FgAbelianGroup:
    """The abelian group Z^N / colspan(R), N = R.rows.

    >>> cokernel(IntMatrix([[3]])).invariant_factors
    (3,)
    >>> cokernel(IntMatrix.zeros(2, 0)).free_rank
    2
    """
    dec = smith_normal_form(R)
    factors = tuple(d for d in dec.diagonal if d > 1)
    return FgAbelianGroup(invariant_factors=factors,
                          free_rank=R.rows - dec.rank,
                          ambient_rank=R.rows,
                          relations=R,
                          snf=dec)


@dataclass(frozen=True)
class GroupEndo:
    """An endomorphism of a cokernel group, given by an ambient integer
    matrix that maps the relation span into itself."""

    T: IntMatrix
    group: FgAbelianGroup

    def matrix_on_smith_basis(self) -> IntMatrix:
        """The ambient matrix rewritten in the coordinates that diagonalize
        the relations (u_inv @ T @ U)."""
        dec = self.group.snf
        return dec.u_inv @ self.T @ dec.U

    def free_block(self) -> IntMatrix:
        """The action on the free part of the group: the lower right block
        u_inv[rank:] @ T @ U[:, rank:] of matrix_on_smith_basis(), computed
        alone (with free rank 0 it multiplies nothing)."""
        dec, n = self.group.snf, self.group.ambient_rank
        rank = dec.rank
        return (IntMatrix(dec.u_inv.entries[rank:], cols=n) @ self.T
                @ IntMatrix([row[rank:] for row in dec.U.entries],
                            cols=n - rank))


def induced_endo(T: IntMatrix, G: FgAbelianGroup) -> GroupEndo:
    """Wrap T as an endomorphism of G, verifying T * colspan(R) <= colspan(R).

    >>> G = cokernel(IntMatrix([[3]]))
    >>> e = induced_endo(IntMatrix([[2]]), G)
    >>> is_automorphism(e)
    True
    """
    if T.rows != T.cols or T.rows != G.ambient_rank:
        raise ValueError("endomorphism matrix must be square of ambient size")
    R = G.relations
    for j in range(R.cols):
        img = T.matvec(R.column(j))
        if not G.snf.in_column_span(img):
            raise NotEquivariant(
                f"column {j} of the relation matrix is not preserved")
    return GroupEndo(T=T, group=G)


def is_automorphism(e: GroupEndo) -> bool:
    """True iff e is bijective on the quotient: [T | R] must have full row
    rank with every invariant factor 1 (surjectivity; bijectivity follows
    for finitely generated modules).

    >>> G = cokernel(IntMatrix([[3]]))
    >>> is_automorphism(induced_endo(IntMatrix([[3]]), G))
    False
    """
    N = e.group.ambient_rank
    if N == 0:
        return True
    block = e.T.hstack(e.group.relations)
    dec = smith_normal_form(block)
    diag = dec.diagonal
    return dec.rank == N and all(d == 1 for d in diag[:N])


def endo_order(e: GroupEndo, bound: int):
    """Smallest d <= bound with T^d = identity on the quotient, or None.

    >>> G = cokernel(IntMatrix([[7]]))
    >>> endo_order(induced_endo(IntMatrix([[2]]), G), 10)
    3
    """
    if bound < 1:
        raise ValueError("bound must be >= 1")
    N = e.group.ambient_rank
    ident = IntMatrix.identity(N)
    power = ident
    for d in range(1, bound + 1):
        power = power @ e.T
        diff = power - ident
        if all(e.group.snf.in_column_span(diff.column(j)) for j in range(N)):
            return d
    return None


def primary_decomposition(G: FgAbelianGroup) -> dict:
    """Invariant factors refactored into prime-power summands.

    >>> primary_decomposition(cokernel(IntMatrix([[6]])))
    {2: [2], 3: [3]}
    >>> G = cokernel(IntMatrix([[12, 0], [0, 2]]))
    >>> primary_decomposition(G)
    {2: [4, 2], 3: [3]}
    """
    if G.free_rank:
        raise NotFinite("primary decomposition needs a finite group")
    out: dict[int, list[int]] = {}
    for d in G.invariant_factors:
        for p, a in _factorize(d).items():
            out.setdefault(p, []).append(p ** a)
    return {p: sorted(powers, reverse=True)
            for p, powers in sorted(out.items())}


def charpoly(A: IntMatrix) -> tuple:
    """Coefficients (1, c1, ..., cn) of det(t*I - A), computed by the
    Faddeev-LeVerrier recurrence with exact integer divisions.

    >>> charpoly(IntMatrix([[0, -1], [1, 1]]))
    (1, -1, 1)
    """
    if A.rows != A.cols:
        raise ValueError("characteristic polynomial needs a square matrix")
    n = A.rows
    coeffs = [1]
    Nk = IntMatrix.identity(n)
    for k in range(1, n + 1):
        MN = A @ Nk
        tr = sum(MN.at(i, i) for i in range(n))
        assert tr % k == 0
        ck = -(tr // k)
        coeffs.append(ck)
        if k < n:
            Nk = MN + IntMatrix([[ck if i == j else 0 for j in range(n)]
                                 for i in range(n)])
    return tuple(coeffs)
