"""Derived quotients, fingerprints, sequences, and structure checkers.

Orders and multipliers of the cyclic families are checked against
closed-form congruence oracles that never touch the matrix pipeline,
and t-orders against an independent quotient-ring computation.
"""

from __future__ import annotations

import random
import warnings
from math import gcd, lcm

import pytest

from cgalex.lmodule import (LambdaPresentation, derived, derived_of_group,
                            group_module,
                            alexander_polynomial, is_finitely_z_generated,
                            fingerprint, sequence, direct_sum,
                            cyclic_admits, cyclic_structure_count,
                            two_group_admits, odd_group_as_A2,
                            realization_presentation, as_realization_data,
                            parse_lm, serialize_lm,
                            ExpansionTooLarge, ZeroPolynomial, EvenOrder,
                            NotTorsion, ReduciblePresentation)
from cgalex import zmodule
from cgalex.zmodule import (endo_order, is_automorphism, induced_endo,
                            IntMatrix, cokernel)
from cgalex.cgroup import CPresentation, CRelation, RealizationData, realize
from cgalex.laurent import (LaurentPoly, ZERO, ONE, parse_poly, cyclotomic,
                            normalize_unit)
from cgalex import PreconditionError

import oracles
from families import (braid_presentation, geometric_presentation,
                      random_realization, random_irreducible, corpus)


def P(*row_texts):
    rows = [tuple(parse_poly(s) for s in text.split(","))
            for text in row_texts]
    ncols = len(rows[0]) if rows else 0
    return LambdaPresentation(ncols, rows)


# ---------------------------------------------------------------------------
# derived quotients


def _cyclic_multiplier(D):
    """The scalar by which t acts on a finite cyclic derived quotient.

    In Smith coordinates the single surviving cyclic factor is the last
    nonzero diagonal entry; everything before it was killed (diagonal 1).
    """
    assert len(D.group.invariant_factors) == 1 and D.group.free_rank == 0
    idx = D.group.snf.rank - 1
    return D.t_action.matrix_on_smith_basis().at(idx, idx)


def test_derived_golden_geometric():
    D = derived(P("2t - 1"), 2)
    assert D.group.invariant_factors == (3,)
    assert D.t1_invertible and D.t_order == 2 and D.order == 3


def test_derived_golden_unipotent():
    D = derived(P("t^2 - t + 1"), 3)
    assert D.group.invariant_factors == (2, 2)
    assert D.t_order == 3


def test_derived_at_one_is_trivial_for_t1_invertible_inputs():
    for text in ("2t - 1", "t^2 - t + 1", "3t - 2"):
        D = derived(P(text), 1)
        assert D.group.is_trivial and D.order == 1


def test_derived_rejects_bad_degrees():
    with pytest.raises(PreconditionError):
        derived(P("t"), 0)
    with pytest.raises(ExpansionTooLarge):
        derived(LambdaPresentation(100, ()), 100)


def test_derived_free_module():
    D = derived(LambdaPresentation(1, ()), 4)
    assert D.group.free_rank == 4
    assert D.t_order == 4 and D.order is None
    assert not D.t1_invertible  # t - 1 is not onto Z[t]/(t^4 - 1)


def test_geometric_family_order_law():
    # cyclic of order (m+1)^k - m^k with multiplier solving (m+1)a = m
    for m in (1, 2, 3, 4):
        mod = LambdaPresentation(1, [(LaurentPoly({1: m + 1, 0: -m}),)])
        for k in range(1, 8):
            D = derived(mod, k)
            order = (m + 1) ** k - m ** k
            want = (order,) if order > 1 else ()
            assert D.group.invariant_factors == want
            assert D.group.free_rank == 0
            if order > 1:
                a = oracles.geometric_multiplier(m, k)
                got = _cyclic_multiplier(D) % order
                assert got == a
                assert ((m + 1) * got - m) % order == 0


def test_derived_t_order_matches_endo_order():
    rng = random.Random(2024)
    for _ in range(25):
        ncols = rng.randrange(1, 3)
        rows = [tuple(LaurentPoly({rng.randrange(0, 3): rng.randrange(-2, 3)
                                   for _ in range(rng.randrange(1, 3))})
                      for _ in range(ncols))
                for _ in range(ncols + rng.randrange(2))]
        mod = LambdaPresentation(ncols, rows)
        for k in (1, 2, 3, 4, 6):
            D = derived(mod, k)
            if D.group.is_trivial:
                assert D.t_order == 1
            else:
                assert D.t_order == endo_order(D.t_action, k)
            n = D.group.ambient_rank
            assert D.t1_invertible == is_automorphism(induced_endo(
                D.t_action.T - IntMatrix.identity(n), D.group))
            # derived reads the cokernel of t^d - 1 off the d-fold
            # expansion; here it is taken on the group, as [R | T^d - I]
            assert [d for d, _ in D.cyclic_cokernels] == [
                d for d in range(1, D.t_order + 1) if D.t_order % d == 0]
            for d, invariants in D.cyclic_cokernels:
                delta = D.t_action.T ** d - IntMatrix.identity(n)
                quot = cokernel(D.group.relations.hstack(delta))
                assert invariants == (quot.invariant_factors, quot.free_rank)


def test_derived_and_fingerprint_smith_and_expansion_counts(monkeypatch):
    # Lambda/(Phi_6) takes the Z-form: each cokernel of t^d - 1 is one
    # 2 x 2 Smith form and no expansion is built.  A_60 has t-order 6, so
    # the group and d = 1, 2, 3 make four.
    from cgalex import lmodule
    counts = {"smith": 0, "expansion": 0}
    smith, expansion = zmodule.smith_normal_form, lmodule._expansion

    def counted_smith(A):
        counts["smith"] += 1
        assert (A.rows, A.cols) == (2, 2)
        return smith(A)

    def counted_expansion(P, k):
        counts["expansion"] += 1
        return expansion(P, k)

    monkeypatch.setattr(zmodule, "smith_normal_form", counted_smith)
    monkeypatch.setattr(lmodule, "_expansion", counted_expansion)
    fp = fingerprint(derived(P("t^2 - t + 1"), 60))
    assert fp.t_order == 6 and fp.free_rank == 2
    assert counts == {"smith": 4, "expansion": 0}


def test_shift_certificate_reads_the_permutation(monkeypatch):
    from cgalex.lmodule import _permutation_order_divides, _shift_matrix
    for ncols, k, d in ((1, 1, 1), (1, 6, 1), (2, 4, 1), (3, 5, 1), (2, 6, 4)):
        T = _shift_matrix(ncols, k, d)
        for e in range(1, 2 * k + 1):
            assert _permutation_order_divides(T, e) == (
                T ** e == IntMatrix.identity(ncols * k))
    for entries in ([[0, 2], [1, 0]], [[0, -1], [1, 0]], [[1, 1], [0, 0]],
                    [[0, 1], [0, 1]], [[0, 1, 0], [1, 0, 0]]):
        assert not _permutation_order_divides(IntMatrix(entries), 2)
    # On the expansion, derived checks T^k = I without a dense power.
    power = IntMatrix.__pow__
    calls = []
    monkeypatch.setattr(IntMatrix, "__pow__",
                        lambda self, e: calls.append(e) or power(self, e))
    assert derived(P("2t - 1"), 6).path == "expansion"
    assert calls == []


# Monic summands with constant term +-1: Lambda/(f) is Z^deg f.
_MONIC = ("t^2 + t + 1", "t^2 + 1", "t^2 - t + 1", "t^4 - t^3 + t^2 - t + 1",
          "t^4 - t^2 + 1", "t^3 - t + 1", "t^4 - 2t^3 + 3t^2 - 2t + 1",
          "t - 1", "t + 1")


def _scramble(rng, fs, square):
    """Rows presenting the sum of the Lambda/(f) for f in fs, hidden by
    unimodular Lambda-row and -column operations and unit row scalings;
    unless square, one more row is a Lambda-combination of the others."""
    n = len(fs)
    rows = [[f if i == j else ZERO for j in range(n)]
            for i, f in enumerate(fs)]
    for i in range(n if n > 1 else 0):
        c = LaurentPoly({rng.randrange(-1, 2): rng.choice((-1, 1))})
        rows[i] = [a + c * b for a, b in zip(rows[i], rows[(i + 1) % n])]
    for j in range(n if n > 1 else 0):
        c = LaurentPoly({rng.randrange(-1, 2): rng.choice((-1, 1))})
        for row in rows:
            row[(j + 1) % n] = row[(j + 1) % n] + c * row[j]
    c = LaurentPoly({rng.randrange(0, 2): rng.choice((-1, 1))})
    if not square:
        rows.append([c * a + b for a, b in zip(rows[0], rows[-1])])
    units = [LaurentPoly.monomial(rng.choice((-1, 1)), rng.randrange(-1, 2))
             for _ in rows]
    rows = [[u * a for a in row] for u, row in zip(units, rows)]
    rng.shuffle(rows)
    return LambdaPresentation(n, rows)


def _t_order_oracle(fs, bound):
    """The order of t on the sum of the Z[t]/(f), or None past bound:
    the lcm of the orders in each summand, by explicit reduction."""
    orders = [oracles.order_of_t_in_quotient(
        [f.coefficient(e) for e in range(f.degree + 1)], None, bound)
        for f in fs]
    return None if None in orders else lcm(*orders)


# A scramble of Lambda/(Phi_10) + Lambda/(t^3 - t + 1) on which the pass over
# Lambda stalls (on 4t^2 - 6t + 4); being square, it has a Z-form all the same.
_STALL = ("t^3 - t + 1 , t^3 - t + 1",
          "t^4 - t^3 + 3t^2 - 4t + 3 , 2t^2 - 3t + 2")


def test_z_form_matches_the_expansion_and_the_quotient_ring_oracle():
    from cgalex.lmodule import EXPANSION_LIMIT, _lambda_pass, _z_form
    rng = random.Random(5)
    assert _lambda_pass(P(*_STALL))[3] == [0, 1]
    cases = [(P("t^4 - 2t^3 + 3t^2 - 2t + 1"), ["t^4 - 2t^3 + 3t^2 - 2t + 1"]),
             (_scramble(rng, [parse_poly("t^4 - t^2 + 1")], False),
              ["t^4 - t^2 + 1"]),
             (group_module(braid_presentation(5)), []),
             (P(*_STALL), ["t^4 - t^3 + t^2 - t + 1", "t^3 - t + 1"])]
    for square in (False, True) * 6:
        texts = rng.sample(_MONIC, rng.randrange(2, 4))
        cases.append((_scramble(rng, [parse_poly(x) for x in texts], square),
                      texts))
    for mod, texts in cases:
        fs = [parse_poly(x) for x in texts]
        z = _z_form(mod, EXPANSION_LIMIT)
        if z is None:
            # the pass stalled, and the presentation is not square
            assert _lambda_pass(mod)[3] and len(mod.rows) > mod.ncols
            assert derived(mod, 24).path == "expansion"
            continue
        n = z.T.rows
        assert n == sum(f.degree for f in fs)
        assert z.delta == alexander_polynomial(mod)
        # the order of t on M, from T and from the summands' quotient rings
        bound, identity, power, order = 24, IntMatrix.identity(n), z.T, 1
        while power != identity and order <= bound:
            power, order = power @ z.T, order + 1
        assert (order if order <= bound else None) == _t_order_oracle(fs, bound)
        # the Z-form serves k once T is at most half the expansion's size
        least = max(1, -(-2 * n // mod.ncols)) if mod.ncols else 1
        assert least == 1 or derived(mod, least - 1,
                                     zform=z).path == "expansion"
        for k in sorted(rng.sample(range(least, 25), 3)):
            fast, slow = derived(mod, k, zform=z), derived(mod, k, zform=None)
            assert (fast.path, slow.path) == ("z-form", "expansion")
            # slow.group is cokernel(_expansion(mod, k))
            assert (fast.group.invariant_factors, fast.group.free_rank) == (
                slow.group.invariant_factors, slow.group.free_rank)
            assert fast.t_order == slow.t_order
            assert fast.t1_invertible == slow.t1_invertible
            assert fingerprint(fast) == fingerprint(slow)


def test_z_form_refuses_modules_the_pass_does_not_free():
    from cgalex.lmodule import EXPANSION_LIMIT, _z_form
    # Z-free (_STALL plus the sum of its rows), but the pass stalls with no
    # pivot of leading coefficient +-1, and the presentation is not square
    stall = P(*_STALL, "t^4 + 3t^2 - 5t + 4 , t^3 + 2t^2 - 4t + 3")
    assert alexander_polynomial(stall) == alexander_polynomial(P(*_STALL))
    for mod in (P("2t - 1"),  # one entry in its column: Euclid never runs
                P("3t - 2"),
                P("2t^2 - 2t + 2"),  # content 2
                P("t^2 - t + 1 , 0", "0 , 2t + 2"),
                P("t - 2", "3"),  # Z/3: Euclid stalls on 3
                stall,
                LambdaPresentation(1, ()),
                P("t^2 - t + 1 , 0")):
        assert _z_form(mod, EXPANSION_LIMIT) is None
        assert derived(mod, 6).path == "expansion"


def test_z_form_is_not_built_past_the_expansion(monkeypatch):
    # A module of high degree at small k keeps the expansion, and neither
    # the N x N matrix of t nor its characteristic polynomial is built.
    from cgalex import lmodule
    from cgalex.zmodule import charpoly

    def refuse(*args):
        raise AssertionError("the Z-form was built")

    def small_charpoly(A):
        assert A.rows < 100, "the Z-form was built"
        return charpoly(A)

    high = P("t^2000 - t + 1")
    monkeypatch.setattr(lmodule, "charpoly", small_charpoly)
    monkeypatch.setattr(lmodule, "_delta_after_pass", refuse)
    D = derived(high, 2)
    assert (D.path, D.group.invariant_factors) == ("expansion", (3,))
    assert sequence(high, 3)[2] is False
    # Square, and the pass stalls on the _STALL block: its pivot t^10 - t + 1
    # divides delta, so the route over (Lambda/(delta))^3 is refused before
    # delta is computed when 3 * 10 rows are too many.
    square = direct_sum(P("t^10 - t + 1"), P(*_STALL))
    assert lmodule._z_form(square, 29) is None
    monkeypatch.undo()
    assert derived(P("t^30 - t + 1"), 59).path == "expansion"
    assert derived(P("t^30 - t + 1"), 60).path == "z-form"
    # deg delta = 17: the route works on 3 * 17 rows
    assert derived(square, 16).path == "expansion"
    assert derived(square, 17).path == "z-form"
    # the route over (Lambda/(delta))^2 works on 2 * 7 rows
    assert derived(P(*_STALL), 6).path == "expansion"
    assert derived(P(*_STALL), 7).path == "z-form"


def test_derived_t_order_matches_quotient_ring_oracle():
    # Lambda/(f) with f monic: t-order in Z[t]/(f, t^k-1) via plain
    # dense-coefficients arithmetic
    cases = [("t^2 - t + 1", 6), ("t^2 - t + 1", 12), ("2t - 1", 5)]
    for text, k in cases:
        f = parse_poly(text)
        D = derived(P(text), k)
        # reduce the check to the group itself when f is not monic: the
        # oracle works in Z[t]/(t^k - 1) modulo the row lattice instead
        if abs(f.leading_coefficient) == 1:
            coeffs = [f.coefficient(e) for e in range(f.degree + 1)]
            want = oracles.order_of_t_in_quotient(coeffs, k, bound=k)
            if want is not None:
                assert D.t_order == want


def test_derived_of_group_braid():
    D = derived_of_group(braid_presentation(3), 2)
    assert D.group.invariant_factors == (3,)
    assert _cyclic_multiplier(D) % 3 == 2


def test_derived_of_group_large_braids_trivial():
    for strands in (5, 6):
        p = braid_presentation(strands)
        for k in range(1, 13):
            assert derived_of_group(p, k).group.is_trivial


def test_derived_of_group_g2_k3():
    D = derived_of_group(geometric_presentation(2), 3)
    assert D.group.invariant_factors == (19,)


def test_derived_of_group_warns_on_disconnected():
    p = CPresentation(2, ())
    with pytest.warns(ReduciblePresentation):
        derived_of_group(p, 2)


# ---------------------------------------------------------------------------
# alexander polynomial


def test_poly_golden():
    assert alexander_polynomial(P("t^2 - t + 1")) == parse_poly("t^2 - t + 1")
    assert alexander_polynomial(P("3 - 2t^-1")) == parse_poly("3t - 2")
    q = parse_poly("t^2 - t + 1")
    one_minus_t = parse_poly("1 - t")
    br4 = LambdaPresentation(2, [(q, -q), (ZERO, q), (one_minus_t, ZERO)])
    assert alexander_polynomial(br4) == q


def test_poly_matches_sympy_minor_gcd():
    rng = random.Random(55)
    for _ in range(40):
        ncols = rng.randrange(1, 4)
        nrows = rng.randrange(ncols, ncols + 2)
        rows = [tuple(LaurentPoly({rng.randrange(-1, 3): rng.randrange(-3, 4)
                                   for _ in range(rng.randrange(3))})
                      for _ in range(ncols))
                for _ in range(nrows)]
        mod = LambdaPresentation(ncols, rows)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            got = alexander_polynomial(mod)
        want = oracles.sympy_minor_gcd(
            [[dict(entry.items()) for entry in row] for row in rows], ncols)
        assert dict(got.items()) == want


def _random_entry(rng):
    """Up to three terms with exponents in -2..2: negative exponents and
    non-unit leading coefficients are common."""
    return LaurentPoly({rng.randrange(-2, 3): rng.randrange(-4, 5)
                        for _ in range(rng.randrange(4))})


def _scaled(entry, s):
    return LaurentPoly({e: s * c for e, c in entry.items()})


def test_poly_matches_minor_enumeration():
    # A quarter of the presentations are scaled whole, a quarter in one
    # column and a quarter in one row, so that the content of Delta is
    # often above 1, and often not a column's.
    rng = random.Random(4)
    contents = set()
    for _ in range(300):
        ncols = rng.randint(1, 4)
        rows = [[_random_entry(rng) for _ in range(ncols)]
                for _ in range(ncols + rng.randint(0, 3))]
        kind = rng.randrange(4)
        if kind == 0:
            s = rng.choice((2, 3, 4, 6, 8, 9, 12))
            rows = [[_scaled(e, s) for e in row] for row in rows]
        elif kind == 1:
            s, j = rng.choice((2, 3, 4, 9)), rng.randrange(ncols)
            for row in rows:
                row[j] = _scaled(row[j], s)
        elif kind == 2:
            s, i = rng.choice((2, 3, 4, 6, 12)), rng.randrange(len(rows))
            rows[i] = [_scaled(e, s) for e in rows[i]]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            got = alexander_polynomial(LambdaPresentation(ncols, rows))
        want = oracles.minor_gcd_by_enumeration(
            [[dict(entry.items()) for entry in row] for row in rows], ncols)
        assert dict(got.items()) == want
        if want:
            contents.add(gcd(*want.values()))
    assert {4, 8, 9} <= contents


def test_poly_of_braid_groups():
    # Gorin-Lin: t^2 - t + 1 for B_3 and B_4, 1 from B_5 on.  B_10 has
    # C(36, 8), about 3.0e7, maximal minors.
    for strands in range(3, 11):
        got = alexander_polynomial(group_module(braid_presentation(strands)))
        assert got == (parse_poly("t^2 - t + 1") if strands < 5 else ONE)


def test_poly_column_scaling_multiplies_delta():
    # Dense and non-monic, 12 x 8: C(12, 8) = 495 minors of order 8.
    rng = random.Random(12)
    rows = [[LaurentPoly({e: rng.choice((-3, -2, 2, 3, 5)) if e == 2
                          else rng.randint(-3, 3) for e in range(-1, 3)})
             for _ in range(8)] for _ in range(12)]
    delta = alexander_polynomial(LambdaPresentation(8, rows))
    scaled = [[_scaled(e, 12) if j == 0 else e for j, e in enumerate(row)]
              for row in rows]
    assert alexander_polynomial(LambdaPresentation(8, scaled)) == delta * 12


def test_poly_content_spread_across_rows(monkeypatch):
    # Rows scaled by 4, 12 and 3: every maximal minor has content 12, no
    # column has, and no leading coefficient is +-1, so the content comes
    # from the per-prime lowering steps.
    from cgalex import lmodule
    factored = []

    def recorded(n):
        factored.append(n)
        return factorize(n)

    factorize = lmodule._factorize
    monkeypatch.setattr(lmodule, "_factorize", recorded)
    base = [P("2t + 3, 3t - 1").rows[0], P("2t - 5, 3t^2 + 2").rows[0],
            P("5t + 2, 2t - 3").rows[0]]
    rows = [[_scaled(e, s) for e in row] for s, row in zip((4, 12, 3), base)]
    got = alexander_polynomial(LambdaPresentation(2, rows))
    want = oracles.minor_gcd_by_enumeration(
        [[dict(entry.items()) for entry in row] for row in rows], 2)
    assert dict(got.items()) == want and gcd(*want.values()) == 12
    assert any(n % 12 == 0 for n in factored)


def test_poly_lowering_column_follows_the_kernel_vector():
    # Column 2 is column 1 plus twice (t, 1, t^2, 1), so every maximal
    # minor is even, and the kernel mod 2 is spanned by (0, 1, 1): the
    # lowering step must replace a column where x is nonzero.  Row 0 is
    # even too, so the minors Bareiss reaches are multiples of 4, and a
    # step that zeroes every minor would be counted twice.
    rows = P("4t + 6, 6t + 4, 10t + 4", "3t - 1, 2t - 5, 2t - 3",
             "5t + 2, 3t^2 + 2, 5t^2 + 2", "3t + 5, 5t - 3, 5t - 1").rows
    assert alexander_polynomial(LambdaPresentation(3, rows)) == parse_poly("2")
    assert oracles.minor_gcd_by_enumeration(
        [[dict(entry.items()) for entry in row] for row in rows], 3) == {0: 2}


def test_poly_warns_not_torsion():
    with pytest.warns(NotTorsion):
        assert alexander_polynomial(LambdaPresentation(2, [(ONE, ONE)])).is_zero
    with pytest.warns(NotTorsion):
        got = alexander_polynomial(LambdaPresentation(1, [(ZERO,)]))
        assert got.is_zero


def test_poly_empty_presentation():
    assert alexander_polynomial(LambdaPresentation(0, ())) == ONE


def test_is_finitely_z_generated():
    assert is_finitely_z_generated(parse_poly("t^2 - t + 1"))
    assert not is_finitely_z_generated(parse_poly("3t - 2"))
    assert is_finitely_z_generated(ONE)
    assert is_finitely_z_generated(parse_poly("-t^-1 + 1 - t"))
    with pytest.raises(ZeroPolynomial):
        is_finitely_z_generated(ZERO)


# ---------------------------------------------------------------------------
# fingerprints and sequences


def test_fingerprint_equality_across_degrees():
    mod = P("t^2 - t + 1")
    fp2 = fingerprint(derived(mod, 2))
    fp8 = fingerprint(derived(mod, 8))
    assert fp2 == fp8  # same module reached at different quotient degrees
    fp4 = fingerprint(derived(mod, 4))
    assert fp2 == fp4


def test_fingerprint_distinguishes_action():
    # Z/3 with t = 2 versus Z/3 with t = 1
    times_two = fingerprint(derived(P("2t - 1"), 2))
    times_one = fingerprint(derived(P("3 , t - 1").__class__(
        2, [(LaurentPoly.constant(3), ZERO),
            (parse_poly("t - 1"), ZERO),
            (ZERO, ONE)]), 2))
    assert times_two.invariant_factors == times_one.invariant_factors == (3,)
    assert times_two.t_order == 2 and times_one.t_order == 1
    assert times_two != times_one


def test_fingerprint_trivial_module():
    fp = fingerprint(derived(P("1"), 5))
    assert fp.invariant_factors == () and fp.free_rank == 0
    assert fp.t_order == 1 and fp.char_poly == ONE
    assert fp.cyclic_cokernels == ((1, ((), 0)),)


def test_fingerprint_char_poly_on_free_part():
    # Lambda/(Phi_6) at k = 6 is Z^2 with t acting with char poly Phi_6
    fp = fingerprint(derived(P("t^2 - t + 1"), 6))
    assert fp.free_rank == 2
    assert fp.char_poly == parse_poly("t^2 - t + 1")
    assert fp.t_order == 6


def test_sequence_golden():
    fps, period, certified = sequence(P("t^2 - t + 1"), 13)
    assert period == 6 and certified
    assert fps[4].invariant_factors == () and fps[6].invariant_factors == ()
    assert fps[3].invariant_factors == (3,)
    fps, period, certified = sequence(P("2t - 1"), 6)
    assert period is None and not certified
    orders = [1, 3, 7, 15, 31, 63]
    for fp, n in zip(fps, orders):
        assert fp.invariant_factors == ((n,) if n > 1 else ())


def test_sequence_period_is_certified_when_t_has_finite_order():
    # Lambda/(Phi_6): T^6 = I proves the period 6.  Five fingerprints do
    # not show it (they alone suggest 4), so K = 5 reports None.
    assert sequence(P("t^2 - t + 1"), 5)[1:] == (None, True)
    assert sequence(P("t^2 - t + 1"), 7)[1:] == (6, True)
    assert sequence(group_module(braid_presentation(5)), 2)[1:] == (1, True)
    _, period, certified = sequence(direct_sum(P("t^2 + t + 1"),
                                               P("t^2 + 1")), 13)
    assert (period, certified) == (12, True)
    # No certificate: T^6 != I on Lambda/(Phi_6^2), t^3 - t + 1 is not
    # cyclotomic, 2t - 1 has no Z-form.
    for text, K in (("t^4 - 2t^3 + 3t^2 - 2t + 1", 13), ("t^3 - t + 1", 8),
                    ("2t - 1", 6)):
        assert sequence(P(text), K)[2] is False


def test_z_form_certificate_is_a_typed_error(monkeypatch):
    from cgalex import lmodule
    from cgalex.errors import CertificateError
    monkeypatch.setattr(lmodule, "charpoly", lambda T: (1,) * (T.rows + 1))
    with pytest.raises(CertificateError):
        derived(P("t^2 - t + 1"), 4)
    assert derived(P("2t - 1"), 3).path == "expansion"


def test_direct_sum_golden():
    s = direct_sum(P("2t - 1"), P("3t - 2"))
    D = derived(s, 2)
    assert D.group.invariant_factors == (15,)
    assert direct_sum(P("2t - 1"), LambdaPresentation(0, ())) == P("2t - 1")


def test_direct_sum_fingerprint_additivity():
    rng = random.Random(77)
    for _ in range(10):
        a = LambdaPresentation(1, [(LaurentPoly(
            {rng.randrange(0, 3): rng.randrange(-2, 3)
             for _ in range(rng.randrange(1, 3))}),)
            for _ in range(rng.randrange(1, 3))])
        b = LambdaPresentation(1, [(LaurentPoly(
            {rng.randrange(0, 3): rng.randrange(-2, 3)
             for _ in range(rng.randrange(1, 3))}),)
            for _ in range(rng.randrange(1, 3))])
        for k in range(1, 6):
            whole = derived(direct_sum(a, b), k)
            da, db = derived(a, k), derived(b, k)
            assert whole.group.order == (
                None if da.group.order is None or db.group.order is None
                else da.group.order * db.group.order)
            assert whole.group.free_rank == (da.group.free_rank
                                             + db.group.free_rank)
            assert whole.t_order == _lcm(da.t_order, db.t_order)


def _lcm(a, b):
    from math import gcd
    return a * b // gcd(a, b)


# ---------------------------------------------------------------------------
# structure checkers


def test_cyclic_admits_golden():
    assert cyclic_admits(3, 2) == {"ok": True, "witnesses": {3: 2}}
    assert cyclic_admits(5, 2) == {"ok": True, "witnesses": {5: 4}}
    report = cyclic_admits(3, 3)
    assert not report["ok"] and report["witnesses"] == {3: None}
    # a witness is a root of unity read off gcd(k, p - 1), not a scan of Z/p
    assert cyclic_admits(1000000007, 3) == {
        "ok": False, "witnesses": {1000000007: None}}
    assert cyclic_admits(1000000007, 2) == {
        "ok": True, "witnesses": {1000000007: 1000000006}}


def test_cyclic_admits_matches_exhaustive_roots():
    for p in (2, 3, 5, 7, 11):
        for k in range(2, 8):
            report = cyclic_admits(p, k)
            roots = oracles.geometric_sum_roots(p, k)
            assert report["ok"] == bool(roots)
            if roots:
                assert report["witnesses"][p] in roots


def test_cyclic_structure_count_golden():
    assert cyclic_structure_count(3, 2) == (3, [2, 5, 8])
    assert cyclic_structure_count(2, 1) == (0, [])
    assert cyclic_structure_count(5, 1) == (3, [2, 3, 4])
    with pytest.raises(PreconditionError):
        cyclic_structure_count(6, 1)


def test_two_group_admits_golden():
    assert two_group_admits([(1, 1)]) == {"ok": False, "construction": None}
    assert not two_group_admits([(1, 1), (2, 2)])["ok"]
    report = two_group_admits([(1, 2)])
    assert report["ok"]
    D = derived(report["construction"], 6)
    assert D.group.invariant_factors == (2, 2)
    assert D.t1_invertible


def test_two_group_admits_with_odd_part():
    report = two_group_admits([(2, 2)], odd_orders=[9])
    assert report["ok"]
    D = derived(report["construction"], 6)
    # (Z/4)^2 from the 2-block; the odd block contributes Z/9 when the
    # degree-6 quotient captures it (2^6 - 1 = 63 = 9 * 7)
    assert D.group.order == 16 * 9
    assert D.t1_invertible


def test_two_group_admits_validates():
    with pytest.raises(PreconditionError):
        two_group_admits([(1, 2), (1, 3)])
    with pytest.raises(PreconditionError):
        two_group_admits([(1, 2)], odd_orders=[4])


def test_odd_group_as_a2_golden():
    mod = odd_group_as_A2([3, 7])
    assert mod.rows == ((parse_poly("2t - 1"), ZERO),
                        (ZERO, parse_poly("4t - 3")))
    D = derived(mod, 2)
    assert D.group.invariant_factors == (21,)
    assert odd_group_as_A2([]) == LambdaPresentation(0, ())
    with pytest.raises(EvenOrder):
        odd_group_as_A2([4])


def test_odd_group_as_a2_reaches_requested_orders():
    for orders, want in (( [5], (5,)), ([3, 9], (3, 9)), ([15], (15,))):
        D = derived(odd_group_as_A2(orders), 2)
        assert D.group.order == 1 * _prod(want)


def _prod(xs):
    out = 1
    for x in xs:
        out *= x
    return out


# ---------------------------------------------------------------------------
# realization normal forms


def test_realization_presentation_round_trip():
    for nf in corpus(random_realization, 30, seed=17):
        mod = realization_presentation(nf)
        back = as_realization_data(mod)
        assert back == nf


def test_as_realization_data_rejects():
    with pytest.raises(PreconditionError):
        as_realization_data(LambdaPresentation(1, ()))  # no diagonal row
    with pytest.raises(PreconditionError):
        as_realization_data(LambdaPresentation(1, [(parse_poly("t + 1"),)]))
    with pytest.raises(PreconditionError):
        as_realization_data(
            LambdaPresentation(1, [(ONE,), (parse_poly("t^2 + 1"),)]))


def test_realized_group_matches_direct_module():
    for nf in corpus(random_realization, 20, seed=23):
        p = realize(nf)
        direct = realization_presentation(nf)
        for k in (1, 2, 3, 6):
            fp_group = fingerprint(derived_of_group(p, k))
            fp_direct = fingerprint(derived(direct, k))
            assert fp_group == fp_direct


# ---------------------------------------------------------------------------
# module files


def test_lm_round_trip():
    mod = P("t^2 - t + 1")
    assert parse_lm(serialize_lm(mod)) == mod
    big = LambdaPresentation(2, [(parse_poly("t^-1 + 3"), ZERO),
                                 (ONE, parse_poly("-2t^4 + t"))])
    assert parse_lm(serialize_lm(big)) == big


def test_lm_golden_text():
    text = "# comment\ncols 2\nrow 2t - 1 , 0\nrow t , t^-2\n"
    mod = parse_lm(text)
    assert mod.ncols == 2
    assert mod.rows[0] == (parse_poly("2t - 1"), ZERO)
    assert mod.rows[1] == (parse_poly("t"), parse_poly("t^-2"))


def test_lm_errors():
    from cgalex import ParseError
    cases = [
        ("row 1\n", "1"),
        ("cols 2\nrow 1\n", "2"),
        ("cols 1\ncols 2\n", "2"),
        ("cols x\n", "1"),
        ("cols 1\nrow ?\n", "2"),
        ("cols 1\nbogus\n", "2"),
    ]
    for text, lineno in cases:
        with pytest.raises(ParseError) as err:
            parse_lm(text, filename="m.lm")
        assert f"m.lm:{lineno}" in str(err.value)
    with pytest.raises(ParseError):
        parse_lm("# empty\n")
