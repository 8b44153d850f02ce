"""Acceptance gate: twelve go/no-go criteria, one test each.

Run with ``pytest tests/test_acceptance.py -v`` to get one pass/fail
line per criterion.  Every comparison is exact equality; random corpora
use fixed seeds.
"""

from __future__ import annotations

import random
import warnings
from math import gcd

from cgalex.laurent import (LaurentPoly, ONE, ZERO, cyclotomic, parse_poly)
from cgalex.zmodule import (IntMatrix, smith_normal_form, cokernel,
                            induced_endo, is_automorphism, endo_order)
from cgalex.cgroup import (CPresentation, RealizationData, alexander_matrix,
                           c_product, graph_and_deficiency, realize,
                           to_simple)
from cgalex.lmodule import (LambdaPresentation, alexander_polynomial, derived,
                            derived_of_group, direct_sum, fingerprint,
                            group_module, realization_presentation, sequence,
                            cyclic_structure_count, two_group_admits,
                            odd_group_as_A2)
from cgalex.covering import covering_homology, COMPACTIFICATION_CAVEAT

import oracles
from families import (braid_presentation, geometric_presentation,
                      random_irreducible, random_presentation,
                      random_realization, sextic_presentation,
                      trefoil_presentation, corpus)


def _multiplier(D):
    """Scalar action of t on a finite cyclic derived quotient (read off
    the last nonzero Smith coordinate, the only surviving one)."""
    assert len(D.group.invariant_factors) == 1 and D.group.free_rank == 0
    idx = D.group.snf.rank - 1
    return D.t_action.matrix_on_smith_basis().at(idx, idx)


def test_criterion_01_trefoil_golden_suite():
    p = braid_presentation(3)
    module = group_module(p)
    assert alexander_polynomial(module) == parse_poly("t^2 - t + 1")

    a2 = derived(module, 2)
    assert a2.group.invariant_factors == (3,)
    assert _multiplier(a2) % 3 == 2

    a3 = derived(module, 3)
    assert a3.group.invariant_factors == (2, 2)
    assert a3.t_order == 3

    assert derived(module, 4).group.invariant_factors == (3,)
    assert derived(module, 5).group.is_trivial
    assert derived(module, 7).group.is_trivial

    _, period, _ = sequence(module, 13)
    assert period == 6


def test_criterion_02_large_braid_groups_trivial():
    for strands in (5, 6):
        module = group_module(braid_presentation(strands))
        assert alexander_polynomial(module) == ONE
        for k in range(1, 13):
            assert derived(module, k).group.is_trivial


def test_criterion_03_geometric_family_against_congruence_oracle():
    for m in (1, 2, 3):
        p = geometric_presentation(m)
        for k in range(1, 8):
            D = derived_of_group(p, k)
            order = (m + 1) ** k - m ** k
            assert D.group.free_rank == 0
            assert D.group.invariant_factors == ((order,) if order > 1 else ())
            assert D.t1_invertible
            if order > 1:
                a = _multiplier(D) % order
                assert ((m + 1) * a - m) % order == 0
                assert a == oracles.geometric_multiplier(m, k)


def test_criterion_04_matrix_rows_sum_to_zero():
    for p in corpus(random_presentation, 200, seed=1104,
                    max_gens=5, max_word=8):
        for row in alexander_matrix(p):
            assert sum(row, ZERO).is_zero


def test_criterion_05_structural_laws_on_random_irreducibles():
    for p in corpus(random_irreducible, 100, seed=1105):
        assert derived_of_group(p, 1).group.is_trivial
        a2 = derived_of_group(p, 2).group
        assert a2.free_rank == 0 and a2.order % 2 == 1
        assert derived_of_group(p, 4).group.free_rank == 0
        assert derived_of_group(p, 9).group.free_rank == 0
        for k in range(1, 7):
            assert derived_of_group(p, k).t1_invertible


def test_criterion_06_realization_round_trip():
    for nf in corpus(random_realization, 50, seed=1106):
        realized = group_module(realize(nf))
        direct = realization_presentation(nf)
        for k in range(1, 7):
            assert fingerprint(derived(realized, k)) \
                == fingerprint(derived(direct, k))


def test_criterion_07_c_product_additivity():
    firsts = corpus(random_irreducible, 25, seed=2107)
    seconds = corpus(random_irreducible, 25, seed=3107)
    for p1, p2 in zip(firsts, seconds):
        prod = c_product(p1, p2)
        _, _, d1 = graph_and_deficiency(p1)
        _, _, d2 = graph_and_deficiency(p2)
        _, _, d = graph_and_deficiency(prod)
        assert d == d1 + d2 - 1
        summed = direct_sum(group_module(p1), group_module(p2))
        prod_module = group_module(prod)
        for k in range(1, 6):
            assert fingerprint(derived(prod_module, k)) \
                == fingerprint(derived(summed, k))


def test_criterion_08_simplification_invariance():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for p in corpus(random_presentation, 50, seed=1108):
            q = to_simple(p)
            assert graph_and_deficiency(q)[2] == graph_and_deficiency(p)[2]
            for k in range(1, 5):
                assert fingerprint(derived_of_group(q, k)) \
                    == fingerprint(derived_of_group(p, k))


def test_criterion_09_unipotent_even_rank_and_periodicity():
    cases = [
        (cyclotomic(6), 6),
        (cyclotomic(6) * cyclotomic(12), 12),
    ]
    for g, n_min in cases:
        # n_min really is minimal with g | t^N - 1
        t_pow = {n_min: 1, 0: -1}
        from cgalex.laurent import divides
        assert divides(g, LaurentPoly(t_pow))
        for smaller in range(1, n_min):
            assert not divides(g, LaurentPoly({smaller: 1, 0: -1}))

        p = realize(RealizationData(1, [g]), hurwitz_n=n_min)
        assert p.hurwitz_degree == 2 * n_min
        module = group_module(p)
        for k in range(1, 14):
            assert derived(module, k).group.free_rank % 2 == 0
            if gcd(k, n_min) == 1:
                assert derived(module, k).group.is_trivial
        _, period, _ = sequence(module, 2 * n_min + 1)
        assert period is not None and n_min % period == 0


def test_criterion_10_structure_checkers():
    assert cyclic_structure_count(3, 2) == (3, [2, 5, 8])

    assert two_group_admits([(1, 1)])["ok"] is False
    assert two_group_admits([(1, 1), (2, 2)])["ok"] is False

    for r, n in ((1, 2), (2, 2), (3, 3), (1, 5)):
        report = two_group_admits([(r, n)])
        assert report["ok"]
        construction = report["construction"]
        # independent order of t in (Z/2^r)[t]/(t^n - t + 1)
        coeffs = [1, -1] + [0] * (n - 2) + [1]
        k0 = oracles.order_of_t_in_quotient(coeffs, 2 ** r, bound=200)
        assert k0 is not None
        D = derived(construction, k0)
        assert D.group.invariant_factors == (2 ** r,) * n
        assert D.t1_invertible  # t - 1 is an automorphism

    D = derived(odd_group_as_A2([3, 7]), 2)
    assert D.group.invariant_factors == (21,)
    assert D.t1_invertible


def test_criterion_11_covering_reports():
    branched = covering_homology(trefoil_presentation(), 2, "knot_branched")
    assert branched.group_A_k.group.invariant_factors == (3,)
    assert not branched.extra_Z_summand

    unbranched = covering_homology(trefoil_presentation(), 2,
                                   "knot_unbranched")
    assert unbranched.group_A_k.group.invariant_factors == (3,)
    assert unbranched.extra_Z_summand

    quintic_cover = covering_homology(sextic_presentation(), 5, "hurwitz")
    assert quintic_cover.group_A_k.group.is_trivial
    coprime = [c for c in quintic_cover.checks
               if c.name == "coprime-degree-implies-trivial"]
    assert len(coprime) == 1 and coprime[0].passed

    double_cover = covering_homology(sextic_presentation(), 2, "hurwitz")
    assert double_cover.group_A_k.group.invariant_factors == (3,)
    assert COMPACTIFICATION_CAVEAT in double_cover.caveats


def test_criterion_12_oracle_equivalence():
    rng = random.Random(1112)
    for _ in range(500):
        nrows = rng.randint(1, 3)
        ncols = rng.randint(1, 3)
        rows = [[rng.randint(-4, 4) for _ in range(ncols)]
                for _ in range(nrows)]
        got = [d for d in smith_normal_form(IntMatrix(rows)).diagonal if d]
        assert got == oracles.smith_diagonal_second_elimination(rows)

    shapes = [(2,), (3,), (4, 2), (6,), (8, 2), (12,), (2, 2, 2),
              (9, 3), (5, 5), (200,), (10, 2), (7, 7)]
    for factors in shapes:
        assert _order(factors) <= 200
        n = len(factors)
        group = cokernel(IntMatrix([[factors[i] if j == i else 0
                                     for j in range(n)] for i in range(n)]))
        for _ in range(8):
            T = IntMatrix(oracles.equivariant_random_matrix(rng, factors))
            e = induced_endo(T, group)
            assert is_automorphism(e) \
                == oracles.brute_is_automorphism(T.entries, factors)
            assert endo_order(e, 30) \
                == oracles.brute_endo_order(T.entries, factors, 30)


def _order(factors):
    out = 1
    for f in factors:
        out *= f
    return out
