"""Checkers: each compares one operation's JSON output with references
computed apart from the program (see reference.py) and with properties the
method must have.  A checker returns a list of problems; empty means the
output is correct."""

from __future__ import annotations

import re
from math import gcd, lcm

import reference as R

# Decimal digits per chunk: below Python's default limit of 4,300 digits on
# int <-> str conversions, which the benchmark never lifts.
_CHUNK = 4000


class Refs:
    """Memoized reference data for A_k of a direct sum of Lambda/(f_i)."""

    def __init__(self):
        self._quot = {}
        self._period = {}

    @staticmethod
    def _key(summands):
        return tuple(tuple(sorted(f.items())) for f in summands)

    def quotient(self, summands, k: int) -> dict:
        key = (self._key(summands), k)
        if key not in self._quot:
            self._quot[key] = R.sum_quotient(summands, k)
        return self._quot[key]

    def cyclotomic_period(self, summands):
        """The least m with every f_i | t^m - 1, or None."""
        key = self._key(summands)
        if key not in self._period:
            periods = [R.cyclotomic_period(f) for f in summands]
            self._period[key] = (None if None in periods
                                 else lcm(*periods))
        return self._period[key]

    def true_period(self, summands):
        """The least period of k -> A_k, or None when the sequence is not
        periodic.  A_k depends only on gcd(k, m) when Delta | t^m - 1, so the
        period divides m; it is pinned to the least p | m on which the
        reference groups and t-orders repeat."""
        m = self.cyclotomic_period(summands)
        if m is None:
            return None

        def proxy(k):
            q = self.quotient(summands, k)
            return q.get("factors"), q["free_rank"], q.get("t_order")

        for p in (d for d in range(1, m + 1) if m % d == 0):
            if all(proxy(k) == proxy(k + p) for k in range(1, m + 1)):
                return p
        return m


def int_text(n: int) -> str:
    """str(n) for an int of any size."""
    if abs(n) < 10 ** _CHUNK:
        return str(n)
    high, low = divmod(abs(n), 10 ** _CHUNK)
    return ("-" if n < 0 else "") + int_text(high) + str(low).zfill(_CHUNK)


def parse_int(text) -> int:
    """int(text) for a decimal string of any length."""
    if not isinstance(text, str) or not re.fullmatch(r"-?[0-9]+", text):
        raise ValueError(f"not a decimal integer: {str(text)[:40]!r}")
    digits = text.lstrip("-")
    n = 0
    for i in range(0, len(digits), _CHUNK):
        chunk = digits[i:i + _CHUNK]
        n = n * 10 ** len(chunk) + int(chunk)
    return -n if text.startswith("-") else n


def _ints(values) -> tuple:
    return tuple(parse_int(v) for v in values)


def _check_group(problems, where, ref, factors, free_rank, order=None,
                 t_order=None, k=None):
    if ref.get("factors") is not None and _ints(factors) != ref["factors"]:
        problems.append(f"{where}: invariant factors {list(factors)}, "
                        f"reference {[int_text(d) for d in ref['factors']]}")
    if free_rank != ref["free_rank"]:
        problems.append(f"{where}: free rank {free_rank}, reference "
                        f"{ref['free_rank']}")
    if order is not False:
        expected = (None if ref["order"] is None
                    else int_text(ref["order"]))
        if order != expected:
            problems.append(f"{where}: order {order}, reference {expected}")
    if ref["order"] is not None and ref.get("factors") is None:
        product = 1
        for d in _ints(factors):
            product *= d
        if product != ref["order"]:
            problems.append(f"{where}: invariant factors multiply to "
                            f"{int_text(product)}, |Res| gives "
                            f"{int_text(ref['order'])}")
    if t_order is not None and k is not None:
        if not isinstance(t_order, int) or t_order < 1 or k % t_order:
            problems.append(f"{where}: t_order {t_order} does not divide {k}")
        elif ref.get("t_order") is not None and t_order != ref["t_order"]:
            problems.append(f"{where}: t_order {t_order}, reference "
                            f"{ref['t_order']}")


def _check_fingerprint(problems, where, refs, summands, fp, k):
    ref = refs.quotient(summands, k)
    _check_group(problems, where + " fingerprint", ref,
                 fp["invariant_factors"], fp["free_rank"], order=False,
                 t_order=fp["t_order"], k=k)
    char = R.lp_normalize(R.lp_parse(fp["char_poly"]))
    if char != ref["charpoly"]:
        problems.append(f"{where}: char_poly {fp['char_poly']}, reference "
                        f"{R.lp_text(ref['charpoly'])}")
    # The cokernel of t^d - 1 on A_k is A_d for every d | t_order | k.
    cok = fp["cyclic_cokernels"]
    degrees = [c["degree"] for c in cok]
    if degrees != [d for d in range(1, fp["t_order"] + 1)
                   if fp["t_order"] % d == 0]:
        problems.append(f"{where}: cyclic cokernels at degrees {degrees}")
    for c in cok:
        _check_group(problems, f"{where} cokernel of t^{c['degree']} - 1",
                     refs.quotient(summands, c["degree"]),
                     c["invariant_factors"], c["free_rank"], order=False)


def _t1_invertible(summands) -> bool:
    """t - 1 is invertible on every A_k of the sum exactly when
    prod f_i(1) = +-1, since Lambda/(f, t - 1) = Z/f(1)."""
    value = 1
    for f in summands:
        value *= R.lp_value(f, 1)
    return abs(value) == 1


def check_derived(op, out, refs: Refs) -> list:
    res, e = out["result"], op.expect
    k, summands = e["k"], e["summands"]
    ref = refs.quotient(summands, k)
    problems = []
    if res["k"] != k:
        problems.append(f"k {res['k']} != {k}")
    _check_group(problems, "group", ref, res["invariant_factors"],
                 res["free_rank"], order=res["order"],
                 t_order=res["t_order"], k=k)
    if res["t1_invertible"] != _t1_invertible(summands):
        problems.append(f"t1_invertible {res['t1_invertible']}")
    fp = res["fingerprint"]
    if fp["t_order"] != res["t_order"] or \
            fp["invariant_factors"] != res["invariant_factors"]:
        problems.append("fingerprint disagrees with the group")
    _check_fingerprint(problems, "derived", refs, summands, fp, k)
    return problems


def check_sequence(op, out, refs: Refs) -> list:
    res, e = out["result"], op.expect
    K, summands = e["K"], e["summands"]
    problems = []
    fps = res["fingerprints"]
    if [fp["k"] for fp in fps] != list(range(1, K + 1)):
        problems.append("fingerprints are not k = 1..K")
        return problems
    for fp in fps:
        _check_fingerprint(problems, f"k={fp['k']}", refs, summands, fp,
                           fp["k"])
    true = refs.true_period(summands)
    expected = true if true is not None and true <= K - 1 else None
    if res["period"] != expected:
        problems.append(f"period {res['period']}, true period {true} "
                        f"(expected {expected} for K = {K})")
    return problems


def check_covering(op, out, refs: Refs) -> list:
    res, e = out["result"], op.expect
    k, summands, setting = e["k"], e["summands"], e["setting"]
    ref = refs.quotient(summands, k)
    problems = []
    g = res["group"]
    _check_group(problems, "group", ref, g["invariant_factors"],
                 g["free_rank"], order=g["order"], t_order=res["t_order"],
                 k=k)
    if res["setting"] != setting or res["k"] != k:
        problems.append("report echoes the wrong k or setting")
    if res["rational_b1"] != ref["free_rank"]:
        problems.append(f"rational_b1 {res['rational_b1']}")
    if res["extra_Z_summand"] != (setting == "knot_unbranched"):
        problems.append(f"extra_Z_summand {res['extra_Z_summand']}")
    if bool(res["caveats"]) != (setting == "hurwitz"):
        problems.append(f"caveats {res['caveats']}")
    if res["t1_invertible"] != _t1_invertible(summands):
        problems.append(f"t1_invertible {res['t1_invertible']}")
    _check_fingerprint(problems, "covering", refs, summands,
                       res["fingerprint"], k)
    for c in out["checks"]:
        if not c["passed"]:
            problems.append(f"check {c['name']} failed on a genuine input: "
                            f"{c['detail']}")
    return problems


def check_poly(op, out, refs: Refs) -> list:
    res = out["result"]
    delta = R.lp_normalize(op.expect["delta"])
    problems = []
    got = R.lp_parse(res["alexander_polynomial"])
    if got != delta:
        problems.append(f"Delta {res['alexander_polynomial']}, reference "
                        f"{R.lp_text(delta)}")
    if res["value_at_1"] != str(R.lp_value(delta, 1)):
        problems.append(f"value_at_1 {res['value_at_1']}")
    d = R.dense(delta)
    finite = abs(d[0]) == 1 and abs(d[-1]) == 1
    if res["finitely_z_generated"] != finite:
        problems.append(f"finitely_z_generated {res['finitely_z_generated']}")
    return problems


def _matrix(rows) -> list:
    return [[R.lp_parse(x) for x in row] for row in rows]


def check_matrix(op, out, refs: Refs) -> list:
    res = out["result"]
    full = R.fox_matrix(R.parse_cg_text(op.expect["cg"]))
    problems = []
    if _matrix(res["matrix"]) != full:
        problems.append("Fox matrix differs from the reference")
    if _matrix(res["reduced_matrix"]) != R.reduced(full):
        problems.append("reduced matrix differs from the reference")
    if not all(c["passed"] for c in out["checks"]):
        problems.append("rows-sum-to-zero check failed")
    return problems


def check_simplify(op, out, refs: Refs) -> list:
    res = out["result"]
    before = R.parse_cg_text(op.expect["cg"])
    after = R.parse_cg_text(res["serialized"])
    problems = []
    if any(len(w) > 1 for _, _, w in after["rels"]):
        problems.append("a conjugator is longer than one letter")
    if after["gens"] - len(after["rels"]) != \
            before["gens"] - len(before["rels"]):
        problems.append("deficiency changed")
    if (res["generators"], res["relations"]) != \
            (after["gens"], len(after["rels"])):
        problems.append("counts disagree with the serialized presentation")
    if after["hurwitz"] != before["hurwitz"]:
        problems.append("declared degree changed")
    return problems


def check_product(op, out, refs: Refs) -> list:
    """Gluing along the last generators and dropping that shared column
    leaves the block-diagonal sum of the two reduced matrices."""
    res = out["result"]
    p1, p2 = (R.parse_cg_text(t) for t in op.expect["cgs"])
    glued = R.parse_cg_text(res["serialized"])
    problems = []
    m1, m2 = p1["gens"] - 1, p2["gens"] - 1
    r1 = [row + [{}] * m2 for row in R.reduced(R.fox_matrix(p1))]
    r2 = [[{}] * m1 + row for row in R.reduced(R.fox_matrix(p2))]
    if R.reduced(R.fox_matrix(glued)) != r1 + r2:
        problems.append("reduced matrix of the product is not the block sum")
    expected = (m1 + m2 + 1, len(p1["rels"]) + len(p2["rels"]), 1)
    got = (res["generators"], res["relations"], res["components"])
    if got != expected:
        problems.append(f"(generators, relations, components) {got}, "
                        f"expected {expected}")
    if res["deficiency"] != expected[0] - expected[1]:
        problems.append(f"deficiency {res['deficiency']}")
    return problems


def check_realize(op, out, refs: Refs) -> list:
    res, e = out["result"], op.expect
    pres = R.parse_cg_text(res["serialized"])
    rows = R.reduced(R.fox_matrix(pres))
    problems = []
    if rows != R.realization_rows(e["fs"], e["g_rows"], e["hurwitz"]):
        problems.append("the realized presentation has the wrong matrix")
    m = len(e["fs"])
    degree = None if e["hurwitz"] is None else e["hurwitz"] * (m + 1)
    if res["hurwitz_degree"] != degree or pres["hurwitz"] != degree:
        problems.append(f"hurwitz_degree {res['hurwitz_degree']}, "
                        f"expected {degree}")
    if res["generators"] != m + 1:
        problems.append(f"generators {res['generators']}")
    return problems


def check_cyclic(op, out, refs: Refs) -> list:
    res, e = out["result"], op.expect
    n, k = e["n"], e["k"]
    problems = []
    primes = R.prime_factors(n)
    if sorted(int(p) for p in res["witnesses"]) != primes:
        problems.append("witnesses are not keyed by the primes of n")
        return problems
    ok = True
    for p in primes:
        a = res["witnesses"][str(p)]
        exists = R.cyclic_witness_exists(p, k)
        ok = ok and exists
        if exists != (a is not None):
            problems.append(f"p={p}: witness {a}, one exists: {exists}")
        elif a is not None and not R.is_cyclic_witness(int(a), p, k):
            problems.append(f"p={p}: {a} is not a witness")
    if res["ok"] != ok:
        problems.append(f"ok {res['ok']}, reference {ok}")
    return problems


def check_two_group(op, out, refs: Refs) -> list:
    res, e = out["result"], op.expect
    ok = all(m >= 2 for _, m in e["blocks"])
    problems = []
    if res["ok"] != ok:
        problems.append(f"ok {res['ok']}, expected {ok}")
    if ok:
        if res["construction"] is None:
            return problems + ["no construction"]
        want = [2 ** r for r, m in e["blocks"] for _ in range(m)]
        want = R.merge_factors(want + list(e["odds"]))
        if R.lm_quotient(res["construction"], 6) != (want, 0):
            problems.append("the construction's A_6 is not the group asked")
    elif res["construction"] is not None:
        problems.append("a construction for an impossible group")
    return problems


def check_odd_as_a2(op, out, refs: Refs) -> list:
    res, e = out["result"], op.expect
    want = R.merge_factors(e["orders"])
    problems = []
    if _ints(res["resulting_invariant_factors"]) != want:
        problems.append(f"invariant factors {res['resulting_invariant_factors']}"
                        f", expected {list(want)}")
    if R.lm_quotient(res["construction"], 2) != (want, 0):
        problems.append("the construction's A_2 is not the group asked")
    return problems


CHECKERS = {
    "derived": check_derived,
    "sequence": check_sequence,
    "covering": check_covering,
    "poly": check_poly,
    "matrix": check_matrix,
    "simplify": check_simplify,
    "product": check_product,
    "realize": check_realize,
    "cyclic": check_cyclic,
    "two-group": check_two_group,
    "odd-as-a2": check_odd_as_a2,
}


def check_op(op, out, refs: Refs) -> list:
    """Problems with one parsed JSON payload of the operation."""
    if "error" in out:
        return [f"error payload: {out['error']}"]
    try:
        return CHECKERS[op.kind](op, out, refs)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return [f"malformed output: {type(exc).__name__}: {exc}"]


def check_periodic_pairs(ops, outs, refs: Refs) -> dict:
    """A_k and A_gcd(k, m) have equal fingerprints whenever
    Delta | t^m - 1: compare every pair of derived outputs on one input.
    Returns {op index: [problems]}."""
    problems = {}
    seen = {}
    for idx, (op, out) in enumerate(zip(ops, outs)):
        if op.kind != "derived" or out is None or "result" not in out:
            continue
        m = refs.cyclotomic_period(op.expect["summands"])
        if m is None:
            continue
        key = (op.argv[1], gcd(op.expect["k"], m))
        fp = out["result"]["fingerprint"]
        if key in seen and seen[key][1] != fp:
            problems.setdefault(idx, []).append(
                f"fingerprint differs from k={seen[key][0]} although "
                f"gcd with {m} agrees")
        seen.setdefault(key, (op.expect["k"], fp))
    return problems


def max_factor_bits(outs) -> int:
    """Bits of the largest invariant factor in any output."""
    best = 0

    def walk(x):
        nonlocal best
        if isinstance(x, dict):
            for key, v in x.items():
                if key in ("invariant_factors", "resulting_invariant_factors"):
                    for d in v:
                        best = max(best, parse_int(d).bit_length())
                else:
                    walk(v)
        elif isinstance(x, list):
            for v in x:
                walk(v)

    for out in outs:
        if out is not None:
            walk(out)
    return best
