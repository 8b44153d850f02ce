"""First-homology reports for finite cyclic coverings.

Three geometric settings share one algebraic engine -- the k-th derived
quotient of the group's derivative module:

* ``knot_branched``    -- the k-fold covering of a sphere complement,
  branched over the knotted sphere itself.  The derived quotient IS the
  integral first homology.
* ``knot_unbranched``  -- the unbranched k-fold covering; the homology
  gains a free summand generated by a meridian lift, reported through
  ``extra_Z_summand`` rather than mixed into the group.
* ``hurwitz``          -- the cyclic covering of the plane branched over
  a Hurwitz curve.  The derived quotient is integral only after the
  exceptional fibers are removed; for the compactified covering, only
  the rational rank is certain.  The report says so in a caveat instead
  of over-claiming.

A report also carries named pass/fail checks: consequences that must
hold when the presentation declares a Hurwitz degree, plus a Betti
number cross-check against the cyclotomic factors of the one-variable
polynomial invariant.  A failed declaration check is evidence against
the declared degree, not a computation error.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional

from .errors import PreconditionError
from .laurent import (LaurentPoly, _factorize, cyclotomic_multiplicities,
                      euler_phi)
from .cgroup import CPresentation, graph_and_deficiency
from .lmodule import (DerivedModule, Fingerprint, alexander_polynomial,
                      derived, fingerprint, group_module)

__all__ = [
    "NotIrreducible", "CheckResult", "CoveringReport", "SETTINGS",
    "covering_homology", "cyclotomic_multiplicities",
]

SETTINGS = ("knot_branched", "knot_unbranched", "hurwitz")

COMPACTIFICATION_CAVEAT = (
    "integral answer covers the covering with its exceptional fibers "
    "removed; the first homology of the compactified covering is a "
    "quotient of the reported group and may be strictly smaller, so only "
    "its rational rank (rational_b1) is asserted"
)


class NotIrreducible(PreconditionError):
    """The presentation graph is disconnected, so no covering reading
    of the derived quotient is available."""


@dataclass(frozen=True)
class CheckResult:
    """One named consequence tested against the computed group."""

    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class CoveringReport:
    k: int
    setting: str
    group_A_k: DerivedModule
    fingerprint: Fingerprint
    extra_Z_summand: bool
    rational_b1: int
    caveats: tuple
    checks: tuple


def _prime_power_base(k: int) -> Optional[int]:
    """The prime p when k = p^r (r >= 1), else None."""
    primes = list(_factorize(k))
    return primes[0] if len(primes) == 1 else None


def _betti_check(delta: LaurentPoly, k: int, b1: int) -> Optional[CheckResult]:
    """Cross-check: when the polynomial invariant is a pure product of
    cyclotomics, the free rank must count its roots of unity of exact
    order dividing k (excluding 1)."""
    if delta.is_zero:
        return None
    mults, fully = cyclotomic_multiplicities(delta)
    if not fully:
        return None
    predicted = sum(euler_phi(d) * c for d, c in mults.items()
                    if d > 1 and k % d == 0)
    return CheckResult(
        "betti-matches-cyclotomic-root-count", predicted == b1,
        f"free rank {b1}, cyclotomic factors predict {predicted}")


def _declaration_checks(D: DerivedModule, k: int, m: int) -> list:
    """Consequences of a declared Hurwitz degree m, each phrased so that
    a failure reads as a refutation of the declaration."""
    checks = []
    order_ok = m % D.t_order == 0
    checks.append(CheckResult(
        "declared-degree-monodromy-period", order_ok,
        f"t acts with order {D.t_order}; a genuine degree-{m} declaration "
        f"requires that order to divide {m}"
        + ("" if order_ok else " -- declaration refuted")))
    if math.gcd(k, m) == 1:
        trivial = D.group.is_trivial
        checks.append(CheckResult(
            "coprime-degree-implies-trivial", trivial,
            f"gcd({k}, {m}) = 1 predicts a trivial group; computed order "
            f"{D.group.order}"))
    p = _prime_power_base(k)
    if p is not None:
        finite = D.group.free_rank == 0
        checks.append(CheckResult(
            "prime-power-degree-implies-finite", finite,
            f"{k} is a power of {p}, which predicts a finite group; "
            f"computed free rank {D.group.free_rank}"))
    if k == 2:
        finite_odd = D.group.free_rank == 0 and D.group.order % 2 == 1
        checks.append(CheckResult(
            "double-cover-implies-finite-odd", finite_odd,
            f"a double covering predicts a finite group of odd order; "
            f"computed order {D.group.order}"))
    return checks


def covering_homology(p: CPresentation, k: int,
                      setting: str) -> CoveringReport:
    """First homology of the degree-k cyclic covering in the given
    setting, as a report rather than a bare group.

    >>> from .cgroup import CRelation
    >>> from .freeword import parse_word
    >>> trefoil = CPresentation(2, [CRelation(2, 1, parse_word("x2^-1 x1^-1")),
    ...                             CRelation(1, 2, parse_word("x1^-1 x2^-1"))])
    >>> covering_homology(trefoil, 2, "knot_branched").group_A_k.group.invariant_factors
    (3,)
    >>> covering_homology(trefoil, 2, "knot_unbranched").extra_Z_summand
    True
    """
    if setting not in SETTINGS:
        raise PreconditionError(
            f"unknown setting '{setting}'; expected one of {SETTINGS}")
    if not isinstance(k, int) or k < 1:
        raise PreconditionError(f"covering degree must be >= 1, got {k!r}")
    _, components, _ = graph_and_deficiency(p)
    if components != 1:
        raise NotIrreducible(
            f"presentation graph has {components} components; covering "
            "interpretations require a connected graph")

    module = group_module(p)
    D = derived(module, k)
    fp = fingerprint(D)
    b1 = D.group.free_rank

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        delta = alexander_polynomial(module)

    checks = []
    betti = _betti_check(delta, k, b1)
    if betti is not None:
        checks.append(betti)
    if p.hurwitz_degree is not None:
        checks.extend(_declaration_checks(D, k, p.hurwitz_degree))
        if setting == "hurwitz":
            checks.append(CheckResult(
                "betti-even", b1 % 2 == 0,
                f"compactified coverings of a declared Hurwitz branch curve "
                f"have even first Betti number; computed {b1}"))

    caveats = ()
    if setting == "hurwitz":
        caveats = (COMPACTIFICATION_CAVEAT,)

    return CoveringReport(
        k=k,
        setting=setting,
        group_A_k=D,
        fingerprint=fp,
        extra_Z_summand=(setting == "knot_unbranched"),
        rational_b1=b1,
        caveats=caveats,
        checks=tuple(checks),
    )
