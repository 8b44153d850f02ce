"""Tests of the benchmark itself (standard library only):

    python3 -m unittest discover -s perfbench -p 'test_*.py'

They check that every checker rejects a deliberately wrong answer, that
traced and untraced calls give identical outputs, that a wrapped name
which no longer exists reads 0, that the counted failures are recorded as
failures rather than crashing the benchmark, and that BENCHMARK.json
names exactly the metrics a run prints.
"""

from __future__ import annotations

import copy
import json
import shutil
import sys
import tempfile
import types
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import reference as R  # noqa: E402
import run  # noqa: E402
import tracer as T  # noqa: E402
import workloads as W  # noqa: E402

sys.path.insert(0, str(run.SRC))


def _find(ops, kind, text=""):
    return next(op for op in ops
                if op.kind == kind and text in " ".join(op.argv))


class _Fixture(unittest.TestCase):
    """Builds the workloads with seed 1 and imports cgalex once."""

    @classmethod
    def setUpClass(cls):
        run.OUT.mkdir(exist_ok=True)
        cls.tmp = Path(tempfile.mkdtemp(dir=run.OUT, prefix="test-"))
        cls.w = {name: W.build(name, 1, cls.tmp / name)
                 for name in W.WORKLOADS}
        _, cls.mods = run.setup(cls.w["nonmonic-invariants"],
                                cls.tmp / "nonmonic-invariants")

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.tmp, ignore_errors=True)

    def output(self, op):
        _, (rc, stdout, err) = run.call(self.mods["cli"], op.argv)
        self.assertIsNone(err)
        self.assertEqual(rc, 0, stdout)
        return json.loads(stdout)


class CheckersRejectWrongAnswers(_Fixture):
    """Each checker accepts the program's answer and rejects it perturbed."""

    def assert_rejects(self, op, mutate):
        out = self.output(op)
        self.assertEqual(checks.check_op(op, out, checks.Refs()), [])
        bad = copy.deepcopy(out)
        mutate(bad)
        self.assertNotEqual(checks.check_op(op, bad, checks.Refs()), [],
                            f"{op.argv} accepted a wrong answer")

    def test_derived(self):
        ops = self.w["quotients-monic"].sweep
        op = _find(ops, "derived", "phi6.lm -k 3")

        def factor(out):
            out["result"]["invariant_factors"][0] = "4"
            out["result"]["fingerprint"]["invariant_factors"][0] = "4"
        self.assert_rejects(op, factor)

        def t_order(out):
            out["result"]["t_order"] = 1
            out["result"]["fingerprint"]["t_order"] = 1
        self.assert_rejects(op, t_order)
        self.assert_rejects(op, lambda o: o["result"].update(order="5"))
        self.assert_rejects(
            _find(ops, "derived", "phi6.lm -k 6"),
            lambda o: o["result"]["fingerprint"].update(char_poly="t^2 + 1"))

        def cokernel(out):
            out["result"]["fingerprint"]["cyclic_cokernels"][-1][
                "free_rank"] += 1
        self.assert_rejects(_find(ops, "derived", "phi6.lm -k 6"), cokernel)
        self.assert_rejects(_find(ops, "derived", "mix_c.lm -k 6"), cokernel)

    def test_derived_nonmonic_and_scrambled(self):
        ops = self.w["nonmonic-invariants"].sweep

        def factor(out):
            d = int(out["result"]["invariant_factors"][-1])
            out["result"]["invariant_factors"][-1] = str(d + 2)
        self.assert_rejects(_find(ops, "derived", "geo1.lm -k 6"), factor)
        self.assert_rejects(_find(ops, "derived", "mix_n1.lm -k 4"), factor)
        self.assert_rejects(
            _find(ops, "derived", "mix_n2.lm -k 5"),
            lambda o: o["result"].update(
                t1_invertible=not o["result"]["t1_invertible"]))

    def test_sequence_period(self):
        op = _find(self.w["quotients-monic"].sweep, "sequence",
                   "phi6.lm -K 13")
        self.assert_rejects(op, lambda o: o["result"].update(period=3))
        self.assert_rejects(op, lambda o: o["result"].update(period=None))

    def test_covering(self):
        op = _find(self.w["quotients-monic"].sweep, "covering",
                   "sextic.cg -k 2")

        def factor(out):
            out["result"]["group"]["invariant_factors"] = ["9"]
        self.assert_rejects(op, factor)
        self.assert_rejects(op, lambda o: o["checks"][0].update(passed=False))
        self.assert_rejects(op, lambda o: o["result"].update(rational_b1=2))

    def test_poly(self):
        ops = self.w["nonmonic-invariants"].sweep
        times_t_plus_1 = R.lp_text(R.lp_mul(R.lp_parse("t^2 - t + 1"),
                                            {1: 1, 0: 1}))
        self.assert_rejects(
            _find(ops, "poly", "braid4.cg"),
            lambda o: o["result"].update(alexander_polynomial=times_t_plus_1))

        def delta_times_t_plus_1(out):
            d = R.lp_parse(out["result"]["alexander_polynomial"])
            out["result"]["alexander_polynomial"] = R.lp_text(
                R.lp_mul(d, {1: 1, 0: 1}))
        self.assert_rejects(_find(ops, "poly", "mix_p1.lm"),
                            delta_times_t_plus_1)

    def test_presentations(self):
        ops = self.w["nonmonic-invariants"].sweep

        def entry(out):
            out["result"]["reduced_matrix"][0][0] += " + 1"
        self.assert_rejects(_find(ops, "matrix", "real_a.cg"), entry)

        def long_conjugator(out):
            lines = out["result"]["serialized"].splitlines()
            i = next(i for i, ln in enumerate(lines) if ln.startswith("rel"))
            lines[i] += " x1 x1"
            out["result"]["serialized"] = "\n".join(lines) + "\n"
        self.assert_rejects(_find(ops, "simplify", "real_b.cg"),
                            long_conjugator)

        def drop_relation(out):
            lines = out["result"]["serialized"].splitlines()
            out["result"]["serialized"] = "\n".join(lines[:-1]) + "\n"
        self.assert_rejects(_find(ops, "product"), drop_relation)
        self.assert_rejects(_find(ops, "realize", "--hurwitz"),
                            lambda o: o["result"].update(hurwitz_degree=4))
        self.assert_rejects(_find(ops, "realize", "real_a.lm"),
                            long_conjugator)

    def test_structure_checks(self):
        ops = self.w["nonmonic-invariants"].sweep

        def witness(out):
            for p, a in out["result"]["witnesses"].items():
                if a is not None:
                    out["result"]["witnesses"][p] = "1"
        cyclic = {op.expect["k"]: op for op in ops if op.kind == "cyclic"}
        self.assert_rejects(cyclic[4], witness)
        self.assert_rejects(cyclic[3], lambda o: o["result"].update(ok=True))
        two = [op for op in ops if op.kind == "two-group"
               and op.known_fault is None]
        self.assert_rejects(two[0], lambda o: o["result"].update(ok=False))
        self.assert_rejects(two[1], lambda o: o["result"].update(ok=True))

        def factors(out):
            out["result"]["resulting_invariant_factors"][-1] = "1"
        self.assert_rejects(_find(ops, "odd-as-a2"), factors)

    def test_periodic_pairs(self):
        ops = self.w["quotients-monic"].sweep
        pair = [_find(ops, "derived", "phi6.lm -k 6"),
                _find(ops, "derived", "phi6.lm -k 12")]
        outs = [self.output(op) for op in pair]
        refs = checks.Refs()
        self.assertEqual(checks.check_periodic_pairs(pair, outs, refs), {})
        outs[1]["result"]["fingerprint"]["char_poly"] = "t^2 + 1"
        self.assertIn(1, checks.check_periodic_pairs(pair, outs, refs))


class BigIntegers(_Fixture):
    """Values past Python's default int/str limit of 4,300 digits, which
    the benchmark never lifts."""

    def test_decimal_conversions_past_the_limit(self):
        n = 10 ** 5000 + 7
        self.assertEqual(checks.int_text(n), "1" + "0" * 4999 + "7")
        self.assertEqual(checks.int_text(-n)[:2], "-1")
        self.assertEqual(checks.parse_int(checks.int_text(3 ** 20000)),
                         3 ** 20000)
        self.assertEqual(checks.parse_int("-" + "9" * 9000),
                         -(10 ** 9000 - 1))
        self.assertRaises(ValueError, checks.parse_int, "12a")

    def test_checker_accepts_the_fixed_big_order(self):
        """The counted failure derived -k 10 on Lambda/((m+1)t - m),
        m = 10^500, must pass once cli renders its 4,500-digit order.  The
        program's answer is taken here with the limit lifted, as a fixed
        cli would print it, and checked with the limit in force."""
        op = next(op for op in self.w["nonmonic-invariants"].sweep
                  if op.known_fault == W.FAULT_BIGINT)
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            out = self.output(op)
        finally:
            sys.set_int_max_str_digits(limit)
        self.assertGreater(len(out["result"]["order"]), limit)
        self.assertEqual(checks.check_op(op, out, checks.Refs()), [])
        self.assertEqual(checks.max_factor_bits([out]),
                         R.geometric_quotient(W.BIG_M, 10)[0][0]
                         .bit_length())
        for key in ("invariant_factors", "order"):
            bad = copy.deepcopy(out)
            if key == "order":
                bad["result"]["order"] = bad["result"]["order"][:-1] + "0"
            else:
                bad["result"][key] = ["3", bad["result"]["order"]]
            self.assertNotEqual(checks.check_op(op, bad, checks.Refs()), [],
                                key)


class Tracing(_Fixture):

    def test_traced_and_untraced_outputs_identical(self):
        w = self.w["quotients-monic"]
        ops = [_find(w.sweep, "derived", "mix_a.lm -k 5"),
               _find(w.sweep, "covering", "sextic.cg -k 6"),
               _find(w.sweep, "sequence", "phi6.lm -K 13")]
        _, mods = run.setup(w, self.tmp / "quotients-monic")
        plain = [run.call(mods["cli"], op.argv)[1] for op in ops]
        tr = T.Tracer()
        self.assertGreater(T.install(tr, mods), 40)
        traced = [run.call(mods["cli"], op.argv)[1] for op in ops]
        self.assertEqual(plain, traced)
        m = tr.metrics()
        self.assertGreater(m["zmodule.smith_normal_form.calls"], 0)
        self.assertGreater(m["zmodule.IntMatrix.__matmul__.calls"], 0)
        self.assertGreater(m["lmodule.derived.expanded_cols"], 0)
        self.assertGreater(m["cli.main.self_s"], 0)
        self.assertEqual(m["lmodule.derived.calls"], 1 + 1 + 13)

    def test_self_times_add_up_to_the_root_span(self):
        w = self.w["nonmonic-invariants"]
        _, mods = run.setup(w, self.tmp / "nonmonic-invariants")
        tr = T.Tracer()
        T.install(tr, mods)
        tr.capture = spans = []
        run.call(mods["cli"], _find(w.sweep, "poly", "braid5.cg").argv)
        tr.capture = None
        root = [s for s in spans if s[1] == 0]
        self.assertEqual([s[0] for s in root], ["cli.main"])
        total_self = sum(s[4] for s in spans)
        self.assertAlmostEqual(total_self, root[0][3] - root[0][2], places=9)
        # braid 5: 6 relation rows, 3 columns, C(6, 3) maximal minors
        self.assertEqual(tr.metrics()["lmodule.alexander_polynomial.minors"],
                         20)

    def test_missing_names_report_zero(self):
        empty = {short: types.ModuleType(f"cgalex.{short}")
                 for short in T.LAYERS}
        tr = T.Tracer()
        self.assertEqual(T.install(tr, empty), 0)
        self.assertTrue(all(v == 0 for v in tr.metrics().values()))
        # A module that lost one function and one class still installs.
        z = types.ModuleType("cgalex.zmodule")
        z.charpoly = lambda A: (1,)
        z.charpoly.__module__ = "cgalex.zmodule"
        tr = T.Tracer()
        self.assertEqual(T.install(tr, {"zmodule": z}), 1)
        z.charpoly(None)
        m = tr.metrics()
        self.assertEqual(m["zmodule.IntMatrix.__pow__.calls"], 0)
        self.assertEqual(m["zmodule.smith_normal_form.self_s"], 0)
        self.assertGreater(m["zmodule.charpoly.self_s"], 0)


class CountedFailures(_Fixture):

    def test_known_faults_are_failures_not_crashes(self):
        faults = [op for w in self.w.values() for op in w.sweep
                  if op.known_fault]
        self.assertEqual(len(faults), 3)
        runner = run.Runner(self.mods["cli"], faults)
        runner.round()
        problems, _ = run.judge(faults, runner)
        self.assertEqual(sorted(problems), [0, 1, 2])
        texts = [" ".join(problems[i]) for i in range(3)]
        by_kind = dict(zip((op.kind for op in faults), texts))
        self.assertIn("period 4, true period 6", by_kind["sequence"])
        self.assertIn("raised ValueError", by_kind["derived"])
        self.assertIn("A_6 is not the group asked", by_kind["two-group"])

    def test_fault_inputs_do_not_depend_on_the_seed(self):
        for name in W.WORKLOADS:
            a = W.build(name, 1, self.tmp / "s1" / name)
            b = W.build(name, 2, self.tmp / "s2" / name)
            fa = [op for op in a.sweep if op.known_fault]
            fb = [op for op in b.sweep if op.known_fault]
            self.assertEqual([op.argv[1:] for op in fa],
                             [[x.replace("/s2/", "/s1/") for x in op.argv[1:]]
                              for op in fb])
            for op in fa:
                if op.argv[1].endswith((".lm", ".cg")):
                    fname = Path(op.argv[1]).name
                    self.assertEqual(a.files[fname], b.files[fname])
            self.assertEqual(len(a.sweep), len(b.sweep))


class BenchmarkFile(unittest.TestCase):

    def test_metric_names_match(self):
        bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([m["name"] for m in bench["end_to_end"]],
                         [n for n, _ in run.END_TO_END])
        self.assertEqual(
            [(m["name"], m["unit"]) for m in bench["per_layer"]],
            [(n, u) for n, u, _ in T.PER_LAYER] + run.TRACE_EXTRA)
        self.assertEqual([w["name"] for w in bench["workloads"]],
                         list(W.WORKLOADS))


class References(unittest.TestCase):
    """The references agree with each other where their domains overlap."""

    def test_three_routes_agree(self):
        for f in (W.PHI6, W.CUBIC, W.geo(2), W.NONGEO, W.PHI10):
            for k in range(1, 13):
                circ = R.circulant_quotient(f, k)
                ref = R.sum_quotient([f], k)
                self.assertEqual(circ, (ref["factors"], ref["free_rank"],
                                        ref["t_order"]), (f, k))
                if ref["order"] is not None:
                    product = 1
                    for d in circ[0]:
                        product *= d
                    self.assertEqual(product, ref["order"])

    def test_geometric_closed_form(self):
        for m in (1, 2, 3, 9):
            self.assertEqual(R.geometric_m(W.geo(m)), m)
            for k in range(1, 13):
                self.assertEqual(R.geometric_quotient(m, k),
                                 R.circulant_quotient(W.geo(m), k), (m, k))
        for f in (W.NONGEO, W.PHI6, {1: 1, 0: -1}, {1: 1}):
            self.assertIsNone(R.geometric_m(f))
        # beyond the circulant's reach: cyclic of order 3^45 - 2^45
        ref = R.sum_quotient([W.geo(2)], 45)
        self.assertEqual(ref["factors"], (3 ** 45 - 2 ** 45,))
        self.assertEqual(ref["order"], 3 ** 45 - 2 ** 45)

    def test_smith_diagonal(self):
        self.assertEqual(R.smith_diagonal([[2, 0], [0, 3]], 2), [1, 6])
        self.assertEqual(R.smith_diagonal([[2, 4, 4], [-6, 6, 12],
                                           [10, -4, -16]], 3), [2, 6, 12])


if __name__ == "__main__":
    unittest.main()
