"""Command-line surface over the library.

Every command builds one payload dict
``{"command", "input", "result", "warnings", "checks"}`` and then either
serializes it as JSON (``--json``) or pretty-prints the very same dict as
text, so the two modes cannot disagree about mathematical content.

Exit codes: 0 success, 1 usage or I/O trouble, 2 file syntax error
(message carries file:line), 3 precondition violation (disconnected
graph, zero polynomial, oversized expansion, ...), 4 a certificate of a
computed answer failed.  Unbounded integers -- group orders, invariant
factors, polynomial values, witnesses -- ride as decimal strings of any
length in JSON; structural counters (degrees, ranks, counts) stay plain
numbers.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import warnings
from typing import Optional

from .errors import CertificateError, ParseError, PreconditionError
from .laurent import ZERO, eval_at
from .cgroup import (CPresentation, alexander_matrix, c_product,
                     graph_and_deficiency, parse_cg, realize, reduced_matrix,
                     serialize_cg, to_simple, validate)
from .lmodule import (LambdaPresentation, alexander_polynomial,
                      as_realization_data, cyclic_admits, derived, fingerprint,
                      group_module, is_finitely_z_generated, odd_group_as_A2,
                      parse_lm, sequence, serialize_lm, two_group_admits)
from .covering import SETTINGS, covering_homology

__all__ = ["main"]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that raises instead of calling sys.exit, so usage
    problems map onto this tool's own exit-code contract."""

    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}")


# ---------------------------------------------------------------------------
# serialization helpers


_DIGITS = 512  # below every limit sys.set_int_max_str_digits accepts


@functools.lru_cache(maxsize=32)  # level 32 would be 2 * 10^12 digits
def _ten_power(level: int) -> int:
    """10^(512 * 2^level)."""
    return 10 ** _DIGITS if level == 0 else _ten_power(level - 1) ** 2


def _decimal(n: int) -> str:
    """Decimal text of an int of any size.

    str() refuses ints of more than sys.get_int_max_str_digits() digits
    (4,300 by default, never below 640), so n >= 10^512 is split by divmod
    at the largest 10^(512 * 2^j) not above it and both halves are
    converted recursively: str() only sees ints below 10^512.
    """
    if n < 0:
        return "-" + _decimal(-n)
    if n < _ten_power(0):
        return str(n)
    level = 0
    while _ten_power(level + 1) <= n:
        level += 1
    high, low = divmod(n, _ten_power(level))
    return _decimal(high) + _decimal(low).zfill(_DIGITS << level)


def _big(n) -> Optional[str]:
    return None if n is None else _decimal(n)


def _group_json(group) -> dict:
    return {
        "invariant_factors": [_decimal(d) for d in group.invariant_factors],
        "free_rank": group.free_rank,
        "order": _big(group.order),
    }


def _fingerprint_json(fp) -> dict:
    return {
        "invariant_factors": [_decimal(d) for d in fp.invariant_factors],
        "free_rank": fp.free_rank,
        "t_order": fp.t_order,
        "cyclic_cokernels": [
            {"degree": d,
             "invariant_factors": [_decimal(x) for x in factors],
             "free_rank": rank}
            for d, (factors, rank) in fp.cyclic_cokernels],
        "char_poly": str(fp.char_poly),
    }


def _derived_json(D) -> dict:
    return {
        "k": D.k,
        "invariant_factors": [_decimal(d) for d in D.group.invariant_factors],
        "free_rank": D.group.free_rank,
        "t_order": D.t_order,
        "t1_invertible": D.t1_invertible,
        "order": _big(D.order),
        "fingerprint": _fingerprint_json(fingerprint(D)),
        "path": D.path,
    }


def _matrix_json(rows) -> list:
    return [[str(entry) for entry in row] for row in rows]


# ---------------------------------------------------------------------------
# input loading


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load_cg(path: str) -> CPresentation:
    return parse_cg(_read(path), filename=path)


def _load_module(path: str) -> LambdaPresentation:
    """A .lm file directly; a .cg file through its reduced derivative
    matrix."""
    if path.endswith(".cg"):
        return group_module(_load_cg(path))
    if path.endswith(".lm"):
        return parse_lm(_read(path), filename=path)
    raise _UsageError(f"cannot tell .cg from .lm: '{path}'")


# ---------------------------------------------------------------------------
# commands: each returns (result, checks)


def _cmd_parse(ns):
    p = _load_cg(ns.file)
    info = validate(p)
    _, components, deficiency = graph_and_deficiency(p)
    result = {
        "generators": info["m"],
        "relations": info["relation_count"],
        "hurwitz_degree": info["hurwitz_degree"],
        "components": components,
        "deficiency": deficiency,
        "irreducible": components == 1,
        "unused_generators": info["unused_generators"],
        "serialized": serialize_cg(p),
    }
    return result, []


def _cmd_matrix(ns):
    p = _load_cg(ns.file)
    full = alexander_matrix(p)
    zero_rows = all(sum(row, ZERO).is_zero for row in full)
    checks = [{
        "name": "rows-sum-to-zero",
        "passed": zero_rows,
        "detail": "every full-matrix row must sum to the zero polynomial",
    }]
    result = {
        "generators": p.m,
        "matrix": _matrix_json(full),
        "reduced_matrix": _matrix_json(reduced_matrix(p)) if p.m >= 1 else [],
    }
    return result, checks


def _cmd_poly(ns):
    module = _load_module(ns.file)
    delta = alexander_polynomial(module)
    if delta.is_zero:
        finitely = None
        at_one = "0"
    else:
        finitely = is_finitely_z_generated(delta)
        at_one = _decimal(eval_at(delta, 1))
    result = {
        "alexander_polynomial": str(delta),
        "value_at_1": at_one,
        "finitely_z_generated": finitely,
    }
    return result, []


def _cmd_derived(ns):
    module = _load_module(ns.file)
    return _derived_json(derived(module, ns.k)), []


def _cmd_sequence(ns):
    module = _load_module(ns.file)
    fps, period, certified = sequence(module, ns.K)
    result = {
        "K": ns.K,
        "period": period,
        "period_certified": certified,
        "fingerprints": [{"k": i + 1, **_fingerprint_json(fp)}
                         for i, fp in enumerate(fps)],
    }
    return result, []


def _cmd_covering(ns):
    p = _load_cg(ns.file)
    report = covering_homology(p, ns.k, ns.setting)
    result = {
        "k": report.k,
        "setting": report.setting,
        "group": _group_json(report.group_A_k.group),
        "t_order": report.group_A_k.t_order,
        "t1_invertible": report.group_A_k.t1_invertible,
        "extra_Z_summand": report.extra_Z_summand,
        "rational_b1": report.rational_b1,
        "caveats": list(report.caveats),
        "fingerprint": _fingerprint_json(report.fingerprint),
    }
    checks = [{"name": c.name, "passed": c.passed, "detail": c.detail}
              for c in report.checks]
    return result, checks


def _cmd_product(ns):
    p = c_product(_load_cg(ns.file1), _load_cg(ns.file2))
    _, components, deficiency = graph_and_deficiency(p)
    result = {
        "generators": p.m,
        "relations": len(p.relations),
        "components": components,
        "deficiency": deficiency,
        "serialized": serialize_cg(p),
    }
    return result, []


def _cmd_simplify(ns):
    p = to_simple(_load_cg(ns.file))
    result = {
        "generators": p.m,
        "relations": len(p.relations),
        "serialized": serialize_cg(p),
    }
    return result, []


def _cmd_realize(ns):
    module = parse_lm(_read(ns.file), filename=ns.file)
    nf = as_realization_data(module)
    p = realize(nf, hurwitz_n=ns.hurwitz)
    result = {
        "generators": p.m,
        "relations": len(p.relations),
        "hurwitz_degree": p.hurwitz_degree,
        "serialized": serialize_cg(p),
    }
    return result, []


def _parse_two_group_spec(spec: str):
    """``r:m[,r:m...][;q1,q2,...]`` -> (blocks, odd_orders).

    Example: ``2:3,3:1;5,9`` means (Z/4)^3 + (Z/8)^1 plus cyclic odd
    summands of orders 5 and 9.
    """
    try:
        if ";" in spec:
            two_part, odd_part = spec.split(";", 1)
            odds = [int(tok) for tok in odd_part.split(",") if tok]
        else:
            two_part, odds = spec, []
        blocks = []
        for tok in two_part.split(","):
            r, mult = tok.split(":")
            blocks.append((int(r), int(mult)))
    except ValueError as exc:
        raise _UsageError(
            f"bad --two-group spec '{spec}' (want r:m[,r:m...][;odd,...]): "
            f"{exc}") from None
    return blocks, odds


def _cmd_admits(ns):
    if ns.cyclic is not None:
        n, k = ns.cyclic
        report = cyclic_admits(n, k)
        result = {
            "question": f"is the cyclic group of order {n} a derived "
                        f"quotient at degree {k}",
            "ok": report["ok"],
            "witnesses": {_decimal(p): _big(a)
                          for p, a in sorted(report["witnesses"].items())},
        }
        return result, []
    if ns.two_group is not None:
        blocks, odds = _parse_two_group_spec(ns.two_group)
        report = two_group_admits(blocks, odd_orders=odds)
        result = {
            "question": "is the given 2-group (plus odd part) a derived "
                        "quotient at degree 6",
            "ok": report["ok"],
            "construction": (None if report["construction"] is None
                             else serialize_lm(report["construction"])),
        }
        return result, []
    orders = [int(tok) for tok in ns.odd_as_a2.split(",") if tok]
    module = odd_group_as_A2(orders)
    D = derived(module, 2)
    result = {
        "question": "realize the odd group as a degree-2 derived quotient",
        "ok": True,
        "construction": serialize_lm(module),
        "resulting_invariant_factors": [_decimal(d)
                                        for d in D.group.invariant_factors],
    }
    return result, []


_COMMANDS = {
    "parse": _cmd_parse,
    "matrix": _cmd_matrix,
    "poly": _cmd_poly,
    "derived": _cmd_derived,
    "sequence": _cmd_sequence,
    "covering": _cmd_covering,
    "product": _cmd_product,
    "simplify": _cmd_simplify,
    "realize": _cmd_realize,
    "admits": _cmd_admits,
}


def _inputs(ns) -> list:
    out = []
    for attr in ("file", "file1", "file2"):
        value = getattr(ns, attr, None)
        if value is not None:
            out.append(value)
    return out


# ---------------------------------------------------------------------------
# text rendering (same payload as JSON)


def _render_value(key, value, lines, indent):
    pad = "  " * indent
    if isinstance(value, dict):
        lines.append(f"{pad}{key}:")
        for k, v in value.items():
            _render_value(k, v, lines, indent + 1)
    elif isinstance(value, str) and "\n" in value:
        lines.append(f"{pad}{key}:")
        for ln in value.rstrip("\n").split("\n"):
            lines.append(f"{pad}  | {ln}")
    elif isinstance(value, list) and value and isinstance(value[0], dict):
        lines.append(f"{pad}{key}:")
        for item in value:
            lines.append(f"{pad}  -")
            for k, v in item.items():
                _render_value(k, v, lines, indent + 2)
    elif isinstance(value, list) and value and isinstance(value[0], list):
        lines.append(f"{pad}{key}:")
        for row in value:
            lines.append(f"{pad}  {' , '.join(str(x) for x in row)}")
    elif isinstance(value, list):
        joined = ", ".join(str(x) for x in value)
        lines.append(f"{pad}{key}: [{joined}]")
    else:
        lines.append(f"{pad}{key}: {value}")


def _print_text(payload):
    lines = [f"command: {payload['command']}"]
    if payload["input"]:
        lines.append(f"input: {', '.join(payload['input'])}")
    for k, v in payload["result"].items():
        _render_value(k, v, lines, 0)
    for w in payload["warnings"]:
        lines.append(f"warning: {w}")
    for c in payload["checks"]:
        verdict = "pass" if c["passed"] else "FAIL"
        lines.append(f"check {c['name']}: {verdict} ({c['detail']})")
    print("\n".join(lines))


# ---------------------------------------------------------------------------
# parser


def _build_parser() -> _Parser:
    parser = _Parser(prog="cgalex",
                     description="Alexander invariants of C-groups")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, **files):
        sp = sub.add_parser(name, help=help_text)
        for arg, metavar in files.items():
            sp.add_argument(arg, metavar=metavar)
        sp.add_argument("--json", action="store_true",
                        help="machine-readable output")
        return sp

    add("parse", "validate a presentation file", file="FILE.cg")
    add("matrix", "derivative matrix and its row-sum check", file="FILE.cg")
    add("poly", "one-variable polynomial invariant", file="FILE")
    sp = add("derived", "k-th derived quotient", file="FILE")
    sp.add_argument("-k", type=int, required=True)
    sp = add("sequence", "derived quotients for k = 1..K plus period",
             file="FILE")
    sp.add_argument("-K", type=int, required=True)
    sp = add("covering", "covering first-homology report", file="FILE.cg")
    sp.add_argument("-k", type=int, required=True)
    sp.add_argument("--setting", choices=SETTINGS, required=True)
    add("product", "free-ish product gluing the two distinguished "
        "generators", file1="FILE1.cg", file2="FILE2.cg")
    add("simplify", "equivalent presentation with single-letter "
        "conjugators", file="FILE.cg")
    sp = add("realize", "presentation whose module matches a normal-form "
             "module file", file="FILE.lm")
    sp.add_argument("--hurwitz", type=int, default=None,
                    help="also declare a Hurwitz structure of this even "
                         "degree multiple")
    sp = sub.add_parser("admits", help="structure checks for candidate "
                                       "derived quotients")
    group = sp.add_mutually_exclusive_group(required=True)
    group.add_argument("--cyclic", nargs=2, type=int, metavar=("N", "K"))
    group.add_argument("--two-group", metavar="SPEC",
                       help="r:m[,r:m...][;odd1,odd2,...]")
    group.add_argument("--odd-as-a2", metavar="ORDERS",
                       help="comma-separated odd orders")
    sp.add_argument("--json", action="store_true")
    return parser


def _emit_error(json_mode, command, code, kind, message) -> int:
    if json_mode:
        print(json.dumps({
            "command": command,
            "error": {"type": kind, "message": message, "exit_code": code},
        }, indent=2))
    else:
        print(f"error ({kind}): {message}", file=sys.stderr)
    return code


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    json_mode = "--json" in argv
    command = argv[0] if argv else None
    try:
        ns = _build_parser().parse_args(argv)
    except _UsageError as exc:
        return _emit_error(json_mode, command, 1, "usage", str(exc))
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result, checks = _COMMANDS[ns.command](ns)
        payload = {
            "command": ns.command,
            "input": _inputs(ns),
            "result": result,
            "warnings": [f"{type(w.message).__name__}: {w.message}"
                         for w in caught],
            "checks": checks,
        }
    except _UsageError as exc:
        return _emit_error(json_mode, ns.command, 1, "usage", str(exc))
    except ParseError as exc:
        return _emit_error(json_mode, ns.command, 2, "parse", str(exc))
    except PreconditionError as exc:
        return _emit_error(json_mode, ns.command, 3,
                           type(exc).__name__, str(exc))
    except CertificateError as exc:
        return _emit_error(json_mode, ns.command, 4, "certificate", str(exc))
    except OSError as exc:
        return _emit_error(json_mode, ns.command, 1, "io", str(exc))
    if ns.json:
        print(json.dumps(payload, indent=2))
    else:
        _print_text(payload)
    return 0


if __name__ == "__main__":
    sys.exit(main())
