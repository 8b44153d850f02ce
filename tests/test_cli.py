"""Command-line behavior: exit codes, JSON shape, text/JSON parity,
and round-tripping of emitted files."""

from __future__ import annotations

import json
import os

import pytest

from cgalex.cli import main
from cgalex.cgroup import parse_cg, c_product, to_simple
from cgalex.lmodule import parse_lm

DATA = os.path.join(os.path.dirname(__file__), "data")


def path(name):
    return os.path.join(DATA, name)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, _ = run(capsys, *argv, "--json")
    return code, json.loads(out)


# ---------------------------------------------------------------------------
# exit codes


def test_exit_codes(capsys, tmp_path):
    assert run(capsys, "parse", path("trefoil.cg"))[0] == 0
    assert run(capsys, "parse", str(tmp_path / "missing.cg"))[0] == 1

    bad = tmp_path / "bad.cg"
    bad.write_text("gens 2\nrel 5 <- 1 : x1\n")
    code, _, err = run(capsys, "parse", str(bad))
    assert code == 2
    assert f"{bad}:2" in err

    disconnected = tmp_path / "free.cg"
    disconnected.write_text("gens 2\n")
    assert run(capsys, "covering", str(disconnected), "-k", "2",
               "--setting", "knot_branched")[0] == 3
    assert run(capsys, "derived", path("phi6.lm"), "-k", "0")[0] == 3

    assert run(capsys, "bogus-command")[0] == 1
    assert run(capsys, "derived", path("phi6.lm"))[0] == 1  # missing -k
    assert run(capsys, "poly", "notes.txt")[0] == 1  # undecidable extension
    assert run(capsys, "admits", "--two-group", "nonsense")[0] == 1


def test_json_error_object(capsys):
    code, out, err = run(capsys, "derived", path("phi6.lm"), "-k", "0",
                         "--json")
    assert code == 3
    payload = json.loads(out)
    assert payload["error"]["exit_code"] == 3
    assert payload["command"] == "derived"
    # 1000036000099 = 1000003 * 1000033 is past the factoring bound
    code, payload = run_json(capsys, "admits", "--cyclic", "1000036000099",
                             "3")
    assert code == 3 and payload["error"]["exit_code"] == 3
    assert payload["error"]["type"] == "PreconditionError"


# ---------------------------------------------------------------------------
# spec golden outputs


def test_derived_g2_json_golden(capsys):
    code, payload = run_json(capsys, "derived", path("g2.cg"), "-k", "2")
    assert code == 0
    r = payload["result"]
    assert r["k"] == 2
    assert r["invariant_factors"] == ["5"]
    assert r["free_rank"] == 0
    assert r["t_order"] == 2
    assert r["t1_invertible"] is True
    assert r["order"] == "5"


def test_derived_trefoil_k1_trivial(capsys):
    code, payload = run_json(capsys, "derived", path("trefoil.cg"), "-k", "1")
    assert code == 0
    assert payload["result"]["invariant_factors"] == []
    assert payload["result"]["free_rank"] == 0


def test_poly_trefoil(capsys):
    code, payload = run_json(capsys, "poly", path("trefoil.cg"))
    assert code == 0
    r = payload["result"]
    assert r["alexander_polynomial"] == "t^2 - t + 1"
    assert r["value_at_1"] == "1"
    assert r["finitely_z_generated"] is True

    code, text, _ = run(capsys, "poly", path("trefoil.cg"))
    assert code == 0
    assert "t^2 - t + 1" in text


def test_matrix_check(capsys):
    code, payload = run_json(capsys, "matrix", path("trefoil.cg"))
    assert code == 0
    checks = {c["name"]: c for c in payload["checks"]}
    assert checks["rows-sum-to-zero"]["passed"] is True
    assert payload["result"]["matrix"]


def test_sequence_period(capsys):
    code, payload = run_json(capsys, "sequence", path("phi6.lm"), "-K", "13")
    assert code == 0
    assert payload["result"]["period"] == 6
    fps = payload["result"]["fingerprints"]
    assert fps[1]["invariant_factors"] == ["3"]  # k = 2
    assert fps[2]["invariant_factors"] == ["2", "2"]  # k = 3

    code, payload = run_json(capsys, "sequence", path("geometric2.lm"),
                             "-K", "6")
    assert payload["result"]["period"] is None
    # 3^k - 2^k for k = 1..6
    assert fps_orders(payload) == [[], ["5"], ["19"], ["65"], ["211"], ["665"]]


def fps_orders(payload):
    return [fp["invariant_factors"]
            for fp in payload["result"]["fingerprints"]]


def test_covering_cli(capsys):
    code, payload = run_json(capsys, "covering", path("sextic.cg"),
                             "-k", "5", "--setting", "hurwitz")
    assert code == 0
    r = payload["result"]
    assert r["group"]["invariant_factors"] == []
    assert r["group"]["free_rank"] == 0
    assert r["caveats"]
    checks = {c["name"]: c for c in payload["checks"]}
    assert checks["coprime-degree-implies-trivial"]["passed"]

    code, payload = run_json(capsys, "covering", path("trefoil.cg"),
                             "-k", "2", "--setting", "knot_unbranched")
    assert payload["result"]["group"]["invariant_factors"] == ["3"]
    assert payload["result"]["extra_Z_summand"] is True
    assert payload["result"]["caveats"] == []


def test_admits_cli(capsys):
    code, payload = run_json(capsys, "admits", "--cyclic", "3", "2")
    assert code == 0
    assert payload["result"]["ok"] is True
    assert payload["result"]["witnesses"] == {"3": "2"}

    code, payload = run_json(capsys, "admits", "--two-group", "1:1")
    assert code == 0
    assert payload["result"]["ok"] is False
    assert payload["result"]["construction"] is None

    code, payload = run_json(capsys, "admits", "--two-group", "1:2;5")
    assert payload["result"]["ok"] is True
    construction = parse_lm(payload["result"]["construction"])
    assert construction.ncols >= 2

    code, payload = run_json(capsys, "admits", "--odd-as-a2", "3,7")
    assert payload["result"]["resulting_invariant_factors"] == ["21"]
    parse_lm(payload["result"]["construction"])  # must re-parse


# ---------------------------------------------------------------------------
# emitted files round-trip


def test_product_round_trip(capsys):
    code, payload = run_json(capsys, "product", path("trefoil.cg"),
                             path("g2.cg"))
    assert code == 0
    emitted = parse_cg(payload["result"]["serialized"])
    with open(path("trefoil.cg")) as fh:
        p1 = parse_cg(fh.read())
    with open(path("g2.cg")) as fh:
        p2 = parse_cg(fh.read())
    assert emitted == c_product(p1, p2)


def test_simplify_round_trip(capsys):
    code, payload = run_json(capsys, "simplify", path("br5.cg"))
    assert code == 0
    emitted = parse_cg(payload["result"]["serialized"])
    with open(path("br5.cg")) as fh:
        assert emitted == to_simple(parse_cg(fh.read()))


def test_realize_round_trip(capsys):
    code, payload = run_json(capsys, "realize", path("phi6.lm"),
                             "--hurwitz", "6")
    assert code == 0
    emitted = parse_cg(payload["result"]["serialized"])
    assert emitted.hurwitz_degree == 12
    assert payload["result"]["hurwitz_degree"] == 12

    code, payload = run_json(capsys, "realize", path("geometric2.lm"))
    assert code == 0
    p = parse_cg(payload["result"]["serialized"])
    assert p.m == 2 and p.hurwitz_degree is None


def test_poly_warns_on_non_torsion(capsys, tmp_path):
    thin = tmp_path / "thin.lm"
    thin.write_text("cols 2\nrow 1 , 1\n")
    code, payload = run_json(capsys, "poly", str(thin))
    assert code == 0
    assert payload["result"]["alexander_polynomial"] == "0"
    assert payload["result"]["finitely_z_generated"] is None
    assert any("NotTorsion" in w for w in payload["warnings"])


# ---------------------------------------------------------------------------
# text/JSON parity


def _leaf_strings(value):
    if isinstance(value, dict):
        for v in value.values():
            yield from _leaf_strings(v)
    elif isinstance(value, list):
        for v in value:
            yield from _leaf_strings(v)
    elif isinstance(value, str) and "\n" in value:
        for line in value.rstrip("\n").split("\n"):
            yield line
    else:
        yield str(value)


PARITY_RUNS = [
    ("parse", path("sextic.cg")),
    ("matrix", path("trefoil.cg")),
    ("poly", path("g2.cg")),
    ("derived", path("g2.cg"), "-k", "3"),
    ("sequence", path("phi6.lm"), "-K", "7"),
    ("covering", path("sextic.cg"), "-k", "2", "--setting", "hurwitz"),
    ("product", path("trefoil.cg"), path("trefoil.cg")),
    ("simplify", path("trefoil.cg")),
    ("realize", path("phi6.lm")),
    ("admits", "--cyclic", "5", "2"),
]


@pytest.mark.parametrize("argv", PARITY_RUNS, ids=lambda a: a[0])
def test_text_reports_everything_json_does(capsys, argv):
    code, payload = run_json(capsys, *argv)
    assert code == 0
    code, text, _ = run(capsys, *argv)
    assert code == 0
    for leaf in _leaf_strings(payload["result"]):
        assert leaf in text
    for check in payload["checks"]:
        assert check["name"] in text
