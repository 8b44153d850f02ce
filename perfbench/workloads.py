"""The workloads: seeded inputs and their fixed lists of operations.

The seed changes the inputs (the unimodular scrambles of direct sums, the
realized presentations, the structure questions) but never the shape of a
workload: every seed gives the same commands on modules of the same sizes
and the same summands, so a run's cost does not hinge on the seed.  The
operations that fail because of known faults in the program, and the top
operations, take inputs that do not depend on the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from math import gcd
from pathlib import Path

import reference as R

PHI3 = {2: 1, 1: 1, 0: 1}
PHI4 = {2: 1, 0: 1}
PHI6 = {2: 1, 1: -1, 0: 1}
PHI10 = {4: 1, 3: -1, 2: 1, 1: -1, 0: 1}
PHI12 = {4: 1, 2: -1, 0: 1}
CUBIC = {3: 1, 1: -1, 0: 1}  # t^3 - t + 1, monic but not cyclotomic
NONGEO = {1: 2, 0: -3}  # 2t - 3: neither monic nor of the geometric shape
QUARTIC = {2: 2, 1: -3, 0: 2}  # 2t^2 - 3t + 2


def geo(m: int) -> dict:
    """(m+1)t - m."""
    return {1: m + 1, 0: -m}


FAULT_PERIOD = ("lmodule.sequence accepts a period on one comparison: "
                "Lambda/(t^2 - t + 1) with K = 5 reports 4, the true period "
                "is 6")
FAULT_TWO_GROUP = ("lmodule.two_group_admits builds Lambda/(2^r, t^m - t + 1) "
                   "and Lambda/(q, 2t - 1) blocks whose A_6 is not the group "
                   "asked when m >= 3 or q does not divide 63")
FAULT_BIGINT = ("cli._derived_json renders an order of about 4,500 digits "
                "with str(), which raises ValueError out of main()")


@dataclass
class Op:
    """One CLI call (``--json`` is appended) and what its checker needs."""

    argv: list
    kind: str
    expect: dict = field(default_factory=dict)
    known_fault: str | None = None


@dataclass
class Workload:
    files: dict  # file name -> text, written under the run's input dir
    sweep: list  # Ops, small and medium
    top: Op  # the one largest operation


def scramble(rng: random.Random, fs, extra_rows: int = 0) -> list:
    """Rows presenting the direct sum of Lambda/(f_i), hidden by unimodular
    Lambda-row and Lambda-column operations and unit row scalings, plus
    extra rows that are Lambda-combinations of the others (they leave the
    module unchanged).  The operations follow a fixed pattern and the seed
    picks their signs, the units and the row order, so every seed gives
    entries of the same degrees and a similar cost."""
    n = len(fs)
    M = [[f if i == j else {} for j in range(n)] for i, f in enumerate(fs)]
    if n > 1:
        for i in range(n):
            c = {1: rng.choice((-1, 1))}
            M[i] = [R.lp_add(a, R.lp_mul(c, b))
                    for a, b in zip(M[i], M[(i + 1) % n])]
        for j in range(n):
            c = {0: rng.choice((-1, 1))}
            for row in M:
                row[(j + 1) % n] = R.lp_add(row[(j + 1) % n],
                                            R.lp_mul(c, row[j]))
    for r in range(extra_rows):
        a = {1: rng.choice((-1, 1))}
        b = {0: rng.choice((-2, 2))}
        M.append([R.lp_add(R.lp_mul(a, x), R.lp_mul(b, y))
                  for x, y in zip(M[r % n], M[(r + 1) % n])])
    units = [{rng.choice((-1, 0, 1)): rng.choice((-1, 1))} for _ in M]
    M = [[R.lp_mul(u, e) for e in row] for u, row in zip(units, M)]
    rng.shuffle(M)
    return M


def _module_ops(path, summands, derived_ks=(), sequence_ks=()):
    ops = [Op(["derived", path, "-k", str(k)], "derived",
              {"summands": summands, "k": k}) for k in derived_ks]
    ops += [Op(["sequence", path, "-K", str(K)], "sequence",
               {"summands": summands, "K": K}) for K in sequence_ks]
    return ops


def _covering_ops(path, summands, cases):
    return [Op(["covering", path, "-k", str(k), "--setting", s], "covering",
               {"summands": summands, "k": k, "setting": s})
            for s, k in cases]


SEXTIC = "gens 2\nhurwitz-degree 6\nrel 2 <- 1 : x2^-1 x1^-1\n"


def quotients_monic(seed: int, d: Path) -> Workload:
    rng = random.Random(seed)
    files = {
        "phi6.lm": R.lm_text(1, [[PHI6]]),
        "sextic.cg": SEXTIC,
        "braid4.cg": R.braid_cg(4),
        "mix_a.lm": R.lm_text(2, scramble(rng, [PHI3, PHI6])),
        "mix_b.lm": R.lm_text(2, scramble(rng, [PHI10, CUBIC])),
        "mix_c.lm": R.lm_text(3, scramble(rng, [PHI4, PHI6, CUBIC])),
        "sum_top.lm": R.lm_text(2, [[PHI12, {}], [{}, CUBIC]]),
    }
    p = {name: str(d / name) for name in files}
    sweep = _module_ops(p["phi6.lm"], [PHI6], (2, 3, 4, 6, 9, 12, 18), (13,))
    sweep.append(Op(["sequence", p["phi6.lm"], "-K", "5"], "sequence",
                    {"summands": [PHI6], "K": 5}, known_fault=FAULT_PERIOD))
    sweep += _covering_ops(p["sextic.cg"], [PHI6], [
        ("hurwitz", 2), ("hurwitz", 3), ("hurwitz", 4), ("hurwitz", 5),
        ("hurwitz", 6), ("knot_branched", 6), ("knot_unbranched", 12)])
    sweep += _module_ops(p["braid4.cg"], [PHI6], (6, 12))
    sweep += _covering_ops(p["braid4.cg"], [PHI6], [
        ("knot_branched", 3), ("knot_unbranched", 6), ("hurwitz", 2)])
    sweep += _module_ops(p["mix_a.lm"], [PHI3, PHI6], (5, 6, 12), (13,))
    sweep += _module_ops(p["mix_b.lm"], [PHI10, CUBIC], (5, 8, 10), (8,))
    sweep += _module_ops(p["mix_c.lm"], [PHI4, PHI6, CUBIC], (4, 6, 7))
    top = _module_ops(p["sum_top.lm"], [PHI12, CUBIC], (28,))[0]
    return Workload(files, sweep, top)


BIG_M = 10 ** 500


def quotients_nonmonic(seed: int, d: Path) -> Workload:
    rng = random.Random(seed)
    files = {
        "geo1.lm": R.lm_text(1, [[geo(1)]]),
        "geo2.lm": R.lm_text(1, [[geo(2)]]),
        "geo4.lm": R.lm_text(1, [[geo(4)]]),
        "geo9.lm": R.lm_text(1, [[geo(9)]]),
        "geo_big.lm": R.lm_text(1, [[geo(BIG_M)]]),
        "geo1.cg": R.geometric_cg(1),
        "geo3.cg": R.geometric_cg(3),
        "mix_n1.lm": R.lm_text(2, scramble(rng, [geo(2), PHI6])),
        "mix_n2.lm": R.lm_text(2, scramble(rng, [NONGEO, CUBIC])),
        "mix_n3.lm": R.lm_text(2, scramble(rng, [geo(4), geo(2)])),
    }
    p = {name: str(d / name) for name in files}
    sweep = _module_ops(p["geo1.lm"], [geo(1)], (3, 6, 10, 12, 16, 20), (10,))
    sweep += _module_ops(p["geo2.lm"], [geo(2)], (4, 8, 12, 16), (6,))
    sweep += _module_ops(p["geo4.lm"], [geo(4)], (5,))
    sweep += _module_ops(p["geo9.lm"], [geo(9)], (7,))
    sweep.append(Op(["derived", p["geo_big.lm"], "-k", "10"], "derived",
                    {"summands": [geo(BIG_M)], "k": 10},
                    known_fault=FAULT_BIGINT))
    sweep += _module_ops(p["geo3.cg"], [geo(3)], (8,))
    sweep += _covering_ops(p["geo1.cg"], [geo(1)], [
        ("knot_branched", 6), ("knot_unbranched", 4)])
    sweep += _covering_ops(p["geo3.cg"], [geo(3)], [
        ("knot_branched", 5), ("hurwitz", 3)])
    sweep += _module_ops(p["mix_n1.lm"], [geo(2), PHI6], (4, 6, 10))
    sweep += _module_ops(p["mix_n2.lm"], [NONGEO, CUBIC], (3, 5, 8))
    sweep += _module_ops(p["mix_n3.lm"], [geo(4), geo(2)], (4, 6, 10), (5,))
    top = _module_ops(p["geo2.lm"], [geo(2)], (45,))[0]
    return Workload(files, sweep, top)


# primes between 9000 and 10000 (structure questions with p up to about 10^4)
_PRIMES = [p for p in range(9001, 10000, 2)
           if all(p % q for q in range(3, int(p ** 0.5) + 1, 2))]


def _unipotent(rng: random.Random, deg: int) -> dict:
    """f = (1 - t) g + 1 with a random g of the given degree, so f(1) = 1."""
    g = {i: rng.choice((-2, -1, 1, 2)) for i in range(deg + 1)}
    return R.lp_add(R.lp_mul({0: 1, 1: -1}, g), {0: 1})


def invariants(seed: int, d: Path) -> Workload:
    rng = random.Random(seed)
    real = []
    for m, deg, nrows in ((2, 4, 2), (3, 3, 1)):
        fs = [_unipotent(rng, deg) for _ in range(m)]
        g_rows = [[{i: rng.choice((-2, -1, 1, 2)) for i in range(2)}
                   for _ in range(m)] for _ in range(nrows)]
        real.append((fs, g_rows))
    files = {f"braid{n}.cg": R.braid_cg(n) for n in (4, 5, 6, 7)}
    files["mix_p1.lm"] = R.lm_text(
        3, scramble(rng, [PHI6, geo(2), CUBIC], extra_rows=4))
    files["mix_p2.lm"] = R.lm_text(
        4, scramble(rng, [PHI10, QUARTIC, geo(1), PHI4], extra_rows=3))
    files["mix_p3.lm"] = R.lm_text(
        4, scramble(rng, [PHI6, PHI12, geo(3), NONGEO], extra_rows=4))
    files["mix_p4.lm"] = R.lm_text(
        5, scramble(rng, [PHI6, PHI10, geo(1), CUBIC, PHI4], extra_rows=4))
    for name, (fs, g_rows) in zip(("real_a", "real_b"), real):
        files[f"{name}.lm"] = R.lm_text(len(fs),
                                        R.realization_rows(fs, g_rows))
        files[f"{name}.cg"] = R.realization_cg(fs, g_rows)
    p = {name: str(d / name) for name in files}
    sweep = [Op(["poly", p[f"braid{n}.cg"]], "poly",
                {"delta": PHI6 if n == 4 else {0: 1}}) for n in (4, 5, 6)]
    sweep.append(Op(["poly", p["mix_p1.lm"]], "poly",
                    {"delta": R.lp_prod([PHI6, geo(2), CUBIC])}))
    sweep.append(Op(["poly", p["mix_p2.lm"]], "poly",
                    {"delta": R.lp_prod([PHI10, QUARTIC, geo(1), PHI4])}))
    sweep.append(Op(["poly", p["mix_p3.lm"]], "poly",
                    {"delta": R.lp_prod([PHI6, PHI12, geo(3), NONGEO])}))
    sweep.append(Op(["poly", p["mix_p4.lm"]], "poly",
                    {"delta": R.lp_prod([PHI6, PHI10, geo(1), CUBIC, PHI4])}))
    for name in ("real_a", "real_b"):
        text = files[f"{name}.cg"]
        sweep.append(Op(["matrix", p[f"{name}.cg"]], "matrix",
                        {"cg": text}))
        sweep.append(Op(["simplify", p[f"{name}.cg"]], "simplify",
                        {"cg": text}))
    sweep.append(Op(["product", p["real_a.cg"], p["real_b.cg"]], "product",
                    {"cgs": [files["real_a.cg"], files["real_b.cg"]]}))
    (fa, ga), (fb, gb) = real
    sweep.append(Op(["realize", p["real_a.lm"]], "realize",
                    {"fs": fa, "g_rows": ga, "hurwitz": None}))
    sweep.append(Op(["realize", p["real_b.lm"], "--hurwitz", "2"], "realize",
                    {"fs": fb, "g_rows": gb, "hurwitz": 2}))
    # A prime p with gcd(k, p - 1) = 1 has no witness, so the scan runs in
    # full and costs about p * k whatever the seed; small primes with
    # gcd(k, p - 1) > 1 have witnesses.
    for k in (3, 5, 7, 9):
        n = rng.choice([p for p in _PRIMES if gcd(k, p - 1) == 1])
        sweep.append(Op(["admits", "--cyclic", str(n), str(k)], "cyclic",
                        {"n": n, "k": k}))
    for k in (4, 6):
        n = rng.choice((5, 13, 17, 29)) * rng.choice((7, 19, 31, 37))
        sweep.append(Op(["admits", "--cyclic", str(n), str(k)], "cyclic",
                        {"n": n, "k": k}))
    # The construction of two_group_admits has A_6 equal to the group asked
    # only for multiplicity 2 and odd orders dividing 2^6 - 1 = 63; the
    # seeded specs stay there, and the counted failure shows the rest.
    r1, r2 = sorted(rng.sample(range(1, 6), 2))
    specs = [([(r1, 2), (r2, 2)], rng.sample((3, 7, 9, 21, 63), 2), None),
             ([(r2, 2), (r1, 1)], [rng.choice((3, 7, 9))], None),
             ([(1, 3)], [5], FAULT_TWO_GROUP)]
    for blocks, odds, fault in specs:
        spec = ",".join(f"{r}:{m}" for r, m in blocks)
        if odds:
            spec += ";" + ",".join(map(str, odds))
        sweep.append(Op(["admits", "--two-group", spec], "two-group",
                        {"blocks": blocks, "odds": odds}, known_fault=fault))
    orders = sorted(rng.sample(range(3, 40, 2), 4))
    sweep.append(Op(["admits", "--odd-as-a2", ",".join(map(str, orders))],
                    "odd-as-a2", {"orders": orders}))
    top = Op(["poly", p["braid7.cg"]], "poly", {"delta": {0: 1}})
    return Workload(files, sweep, top)


def nonmonic_invariants(seed: int, d: Path) -> Workload:
    """The non-monic quotients and the invariants in one workload: neither
    part runs the monic path, and both run longer in one run than either
    could in a run of its own.  The top operation is B_7's polynomial; the
    non-monic part's largest operation, derived -k 45 on Lambda/(3t - 2),
    joins the sweep."""
    q = quotients_nonmonic(seed, d)
    i = invariants(seed, d)
    return Workload({**q.files, **i.files}, q.sweep + [q.top] + i.sweep,
                    i.top)


WORKLOADS = {
    "quotients-monic": quotients_monic,
    "nonmonic-invariants": nonmonic_invariants,
}


def build(name: str, seed: int, inputs: Path) -> Workload:
    """Generate the workload's inputs from the seed and write them."""
    inputs.mkdir(parents=True, exist_ok=True)
    w = WORKLOADS[name](seed, inputs)
    for fname, text in w.files.items():
        (inputs / fname).write_text(text, encoding="utf-8")
    return w
