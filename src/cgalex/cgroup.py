"""Conjugation presentations and their combinatorics.

A conjugation presentation ("C-presentation") has m generators and relations
that each equate one generator with a conjugate of another:

    x_i = w^{-1} x_j w

The module provides validation, the presentation graph and its deficiency,
rewriting to simple form (all conjugators of length <= 1), products that
glue two presentations along a shared generator, realization of module data
as a presentation, and the abelianized-derivative matrix whose cokernel is
the Alexander module.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import ParseError, PreconditionError
from .laurent import ZERO, split_unipotent
from .freeword import (Word, parse_word, fox_nu, as_c_relation,
                       NotConjugationRelator, w_of_poly, r_of_poly,
                       r_of_vector)


class IndexOutOfRange(PreconditionError):
    """A relation references a generator outside 1..m."""


@dataclass(frozen=True)
class CRelation:
    """One relation x_i = w^{-1} x_j w."""

    i: int
    j: int
    w: Word

    def relator(self) -> Word:
        """The cyclically-fixed relator w^{-1} x_j w x_i^{-1}."""
        return self.w.inverse() * Word.gen(self.j) * self.w * Word.gen(self.i) ** -1


@dataclass(frozen=True)
class CPresentation:
    """An immutable presentation; hurwitz_degree is trusted metadata
    declaring that the product of the generators is central of that length.

    >>> p = CPresentation(2, [CRelation(2, 1, parse_word("x2^-1 x1^-1"))])
    >>> p.m, len(p.relations)
    (2, 1)
    """

    m: int
    relations: tuple
    hurwitz_degree: Optional[int] = None

    def __init__(self, m, relations=(), hurwitz_degree=None):
        if m < 0:
            raise IndexOutOfRange("generator count must be >= 0")
        relations = tuple(relations)
        for idx, rel in enumerate(relations):
            if not (1 <= rel.i <= m and 1 <= rel.j <= m):
                raise IndexOutOfRange(
                    f"relation {idx + 1} references x{max(rel.i, rel.j)} "
                    f"but there are only {m} generators")
            if rel.w.max_generator() > m:
                raise IndexOutOfRange(
                    f"relation {idx + 1} conjugator uses "
                    f"x{rel.w.max_generator()} but there are only {m} generators")
        if hurwitz_degree is not None and hurwitz_degree < 1:
            raise IndexOutOfRange("hurwitz degree must be >= 1")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "relations", relations)
        object.__setattr__(self, "hurwitz_degree", hurwitz_degree)


@dataclass(frozen=True)
class PresentationGraph:
    """One vertex per generator, one edge (i, j) per relation; loops and
    multi-edges allowed."""

    m: int
    edges: tuple


def validate(p: CPresentation) -> dict:
    """Diagnostics: generator usage and connectivity (index bounds are
    enforced by the CPresentation constructor).

    >>> p = CPresentation(2, [CRelation(2, 1, parse_word("x2^-1 x1^-1"))])
    >>> d = validate(p)
    >>> d["every_generator_appears"], d["components"]
    (True, 1)
    """
    usage = {g: 0 for g in range(1, p.m + 1)}
    for rel in p.relations:
        usage[rel.i] += 1
        usage[rel.j] += 1
        for g, _ in rel.w.letters:
            usage[g] += 1
    _, components, _ = graph_and_deficiency(p)
    unused = sorted(g for g, c in usage.items() if c == 0)
    return {
        "m": p.m,
        "relation_count": len(p.relations),
        "hurwitz_degree": p.hurwitz_degree,
        "generator_usage": usage,
        "unused_generators": unused,
        "every_generator_appears": not unused,
        "components": components,
    }


def graph_and_deficiency(p: CPresentation):
    """The presentation graph, its component count, and d_P = m − #relations.

    The identity d_P = dim H_0 − dim H_1 of the graph is recomputed from a
    spanning forest and asserted.

    >>> p = CPresentation(2, [CRelation(2, 1, parse_word("x2^-1 x1^-1"))])
    >>> graph_and_deficiency(p)[1:]
    (1, 1)
    """
    edges = tuple((rel.i, rel.j) for rel in p.relations)
    graph = PresentationGraph(p.m, edges)
    parent = list(range(p.m + 1))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    forest_edges = 0
    for i, j in edges:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj
            forest_edges += 1
    components = len({find(g) for g in range(1, p.m + 1)})
    d_p = p.m - len(p.relations)
    # Euler-characteristic route: H_0 = components, H_1 = edges - forest.
    h0 = components
    h1 = len(edges) - forest_edges
    assert d_p == h0 - h1
    return graph, components, d_p


def to_simple(p: CPresentation) -> CPresentation:
    """Rewrite so every conjugator has length <= 1.

    A relation whose conjugator w = y_1 ... y_k has length k >= 2 is replaced
    by a chain of k relations through k−1 fresh generators: the first fresh
    generator is the y_1-conjugate of the source, each next one the
    y_s-conjugate of the previous, and the original target is the
    y_k-conjugate of the last.  Deficiency is unchanged.

    >>> p = CPresentation(2, [CRelation(2, 1, parse_word("x2^-1 x1^-1"))])
    >>> q = to_simple(p)
    >>> q.m, len(q.relations), max(len(r.w) for r in q.relations)
    (3, 2, 1)
    """
    fresh = p.m
    new_relations = []
    for rel in p.relations:
        letters = rel.w.letters
        k = len(letters)
        if k <= 1:
            new_relations.append(rel)
            continue
        source = rel.j
        for g, s in letters[:-1]:
            fresh += 1
            new_relations.append(
                CRelation(fresh, source, Word(((g, s),))))
            source = fresh
        g, s = letters[-1]
        new_relations.append(CRelation(rel.i, source, Word(((g, s),))))
    out = CPresentation(fresh, new_relations, p.hurwitz_degree)
    assert graph_and_deficiency(out)[2] == graph_and_deficiency(p)[2]
    return out


def c_product(p1: CPresentation, p2: CPresentation) -> CPresentation:
    """Glue two presentations along their last generators.

    The shared generator is placed last; p1's other generators keep their
    indices and p2's are shifted up.

    >>> p = CPresentation(2, [CRelation(2, 1, parse_word("x2^-1 x1^-1"))])
    >>> q = c_product(p, p)
    >>> q.m, len(q.relations)
    (3, 2)
    """
    if p1.m < 1 or p2.m < 1:
        raise PreconditionError("both factors need at least one generator")
    m = p1.m + p2.m - 1
    z = m

    def remap(rel, mapping):
        w = Word(tuple((mapping[g], s) for g, s in rel.w.letters))
        return CRelation(mapping[rel.i], mapping[rel.j], w)

    map1 = {g: g for g in range(1, p1.m)}
    map1[p1.m] = z
    map2 = {g: p1.m - 1 + g for g in range(1, p2.m)}
    map2[p2.m] = z
    relations = [remap(r, map1) for r in p1.relations] + \
                [remap(r, map2) for r in p2.relations]
    return CPresentation(m, relations)


def alexander_matrix(p: CPresentation):
    """Rows of abelianized derivatives, one per relation, m columns.

    >>> p = CPresentation(2, [CRelation(2, 1, parse_word("x2^-1 x1^-1"))])
    >>> [str(q) for q in alexander_matrix(p)[0]]
    ['t^2 - t + 1', '-t^2 + t - 1']
    """
    rows = []
    for rel in p.relations:
        r = rel.relator()
        row = tuple(fox_nu(r, g) for g in range(1, p.m + 1))
        total = ZERO
        for q in row:
            total = total + q
        assert total == ZERO, "conjugation relator rows always sum to zero"
        rows.append(row)
    return rows


def reduced_matrix(p: CPresentation, drop_column: Optional[int] = None):
    """The matrix above with one column removed (the last by default); its
    cokernel over the Laurent ring presents the Alexander module.

    >>> p = CPresentation(2, [CRelation(2, 1, parse_word("x2^-1 x1^-1"))])
    >>> [str(q) for q in reduced_matrix(p)[0]]
    ['t^2 - t + 1']
    """
    if p.m < 1:
        raise PreconditionError("need at least one generator")
    drop = p.m if drop_column is None else drop_column
    if not 1 <= drop <= p.m:
        raise IndexOutOfRange(f"cannot drop column {drop} of {p.m}")
    return [tuple(q for g, q in enumerate(row, start=1) if g != drop)
            for row in alexander_matrix(p)]


@dataclass(frozen=True)
class RealizationData:
    """Normal-form input for realize: m diagonal polynomials f_i with
    f_i(1) = 1, plus extra relation rows whose entries are the g-parts of
    (1−t)-divisible polynomials."""

    m: int
    f: tuple
    g_rows: tuple

    def __init__(self, m, f, g_rows=()):
        f = tuple(f)
        g_rows = tuple(tuple(row) for row in g_rows)
        if m < 0:
            raise PreconditionError("m must be >= 0")
        if len(f) != m:
            raise PreconditionError(f"expected {m} diagonal polynomials, "
                                    f"got {len(f)}")
        if any(len(row) != m for row in g_rows):
            raise PreconditionError("every extra row must have m entries")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "g_rows", g_rows)


def realize(nf: RealizationData, hurwitz_n: Optional[int] = None) -> CPresentation:
    """Build a presentation on m+1 generators whose reduced matrix consists
    of the rows f_i·e_i, the rows ((1−t)g_1, ..., (1−t)g_m), and — when
    hurwitz_n = n is given — the closure rows (t^n − 1)·e_i coming from the
    relations x_{m+1}^n x_i x_{m+1}^{-n} x_i^{-1}.

    >>> from .laurent import parse_poly
    >>> p = realize(RealizationData(1, [parse_poly("2t - 1")]))
    >>> p.m, len(p.relations)
    (2, 1)
    >>> [str(q) for q in reduced_matrix(p)[0]]
    ['2t - 1']
    """
    m = nf.m
    top = m + 1
    relations = []
    for idx, f in enumerate(nf.f, start=1):
        g = split_unipotent(f)
        w = w_of_poly(g, idx, top)
        rel = CRelation(top, idx, w.inverse())
        assert rel.relator() == r_of_poly(f, idx, top)
        relations.append(rel)
    for row in nf.g_rows:
        w_u = Word()
        for idx, g in enumerate(row, start=1):
            w_u = w_u * w_of_poly(g, idx, top)
        rel = CRelation(top, top, w_u.inverse())
        assert rel.relator() == r_of_vector(row)
        relations.append(rel)
    degree = None
    if hurwitz_n is not None:
        if hurwitz_n < 1:
            raise PreconditionError("hurwitz_n must be >= 1")
        for idx in range(1, m + 1):
            relations.append(
                CRelation(idx, idx, Word.gen(top) ** -hurwitz_n))
        degree = hurwitz_n * (m + 1)
    out = CPresentation(top, relations, degree)
    assert graph_and_deficiency(out)[1] == 1, "realized presentation is connected"
    return out


def parse_cg(text: str, filename: Optional[str] = None) -> CPresentation:
    """Parse the line-based presentation format.

    Grammar ('#' starts a comment):
        gens <m>
        hurwitz-degree <d>        (optional)
        rel <i> <- <j> : <WORD>   (x_i = w^{-1} x_j w; WORD "." = empty)
        relator <WORD>            (recognized via as_c_relation)

    >>> p = parse_cg("gens 2\\nrel 2 <- 1 : x2^-1 x1^-1\\n")
    >>> p.m, p.relations[0].i, p.relations[0].j
    (2, 2, 1)
    """
    m = None
    degree = None
    relations = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split(None, 1)
        head, rest = parts[0], (parts[1] if len(parts) > 1 else "")
        if head == "gens":
            if m is not None:
                raise ParseError("duplicate gens line",
                                 filename=filename, line=lineno)
            try:
                m = int(rest)
            except ValueError:
                raise ParseError(f"bad generator count {rest!r}",
                                 filename=filename, line=lineno) from None
            if m < 0:
                raise ParseError("generator count must be >= 0",
                                 filename=filename, line=lineno)
            continue
        if m is None:
            raise ParseError("gens line must come first",
                             filename=filename, line=lineno)
        if head == "hurwitz-degree":
            try:
                degree = int(rest)
            except ValueError:
                raise ParseError(f"bad degree {rest!r}",
                                 filename=filename, line=lineno) from None
            if degree < 1:
                raise ParseError("hurwitz degree must be >= 1",
                                 filename=filename, line=lineno)
            continue
        if head == "rel":
            left, sep, word_text = rest.partition(":")
            if not sep:
                raise ParseError("rel line needs ':'",
                                 filename=filename, line=lineno)
            pieces = left.split("<-")
            if len(pieces) != 2:
                raise ParseError("rel line needs 'i <- j'",
                                 filename=filename, line=lineno)
            try:
                i, j = int(pieces[0]), int(pieces[1])
            except ValueError:
                raise ParseError("rel indices must be integers",
                                 filename=filename, line=lineno) from None
            w = parse_word(word_text.strip(), filename=filename, line=lineno)
            _check_line_indices(i, j, w, m, filename, lineno)
            relations.append(CRelation(i, j, w))
            continue
        if head == "relator":
            r = parse_word(rest.strip(), filename=filename, line=lineno)
            try:
                j, l, w = as_c_relation(r)
            except NotConjugationRelator as exc:
                raise ParseError(f"relator is not a conjugation relation: "
                                 f"{exc}", filename=filename,
                                 line=lineno) from None
            # as_c_relation gives r = w x_j w^{-1} x_l^{-1}, i.e.
            # x_l = (w^{-1})^{-1} x_j w^{-1}.
            w_store = w.inverse()
            _check_line_indices(l, j, w_store, m, filename, lineno)
            relations.append(CRelation(l, j, w_store))
            continue
        raise ParseError(f"unknown directive {head!r}",
                         filename=filename, line=lineno)
    if m is None:
        raise ParseError("missing gens line", filename=filename, line=1)
    return CPresentation(m, relations, degree)


def _check_line_indices(i, j, w, m, filename, lineno):
    if not (1 <= i <= m and 1 <= j <= m) or w.max_generator() > m:
        raise ParseError(
            f"relation references a generator beyond x{m}",
            filename=filename, line=lineno)


def serialize_cg(p: CPresentation) -> str:
    """Emit the file format; always uses the 'rel' form.

    >>> p = CPresentation(2, [CRelation(2, 1, parse_word("x2^-1 x1^-1"))])
    >>> print(serialize_cg(p), end="")
    gens 2
    rel 2 <- 1 : x2^-1 x1^-1
    """
    lines = [f"gens {p.m}"]
    if p.hurwitz_degree is not None:
        lines.append(f"hurwitz-degree {p.hurwitz_degree}")
    for rel in p.relations:
        lines.append(f"rel {rel.i} <- {rel.j} : {rel.w}")
    return "\n".join(lines) + "\n"
