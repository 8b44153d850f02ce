"""Steadiness check: do two sets of runs of the same code agree?

    python3 perfbench/steady.py [--runs 10] [--sets 2] [--seconds S]

Each set runs every workload of BENCHMARK.json ``--runs`` times, each run
in a fresh interpreter with its own seed (set j, run i uses seed
1 + j*runs + i).  For every end-to-end metric and workload it prints each
set's median and quartiles, the spread (interquartile distance over the
median), and whether the spread stays within the metric's bound from
BENCHMARK.json and every later set's median is no worse than the first
set's by more than that bound.  The share of failed operations must be
exactly the same in every run.  Raw results go to
``perfbench/out/steady.json``.  Exits 1 when anything disagrees.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def one_run(workload: str, seed: int, seconds) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--trace", "0"]
    if seconds is not None:
        cmd += ["--seconds", str(seconds)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                          timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited "
                         f"{proc.returncode}:\n{proc.stdout}{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--seconds", type=float, default=None)
    args = parser.parse_args(argv)
    workloads = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    raw = {w: [[] for _ in range(args.sets)] for w in workloads}
    for s in range(args.sets):
        for i in range(args.runs):
            seed = 1 + s * args.runs + i
            for w in workloads:
                r = one_run(w, seed, args.seconds)
                raw[w][s].append(r)
                print(f"set {s + 1} seed {seed} {w}: " + ", ".join(
                    f"{k}={v['value']:.4g}" for k, v in r["metrics"].items())
                    + f" failed={r['failed']}/{r['attempted']}"
                    + ("" if r["correct"] else " INCORRECT"), flush=True)
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / "steady.json").write_text(json.dumps(raw, indent=1))

    ok = True
    print(f"\n{'workload':20s} {'metric':12s} {'set':>3s} {'q1':>10s} "
          f"{'median':>10s} {'q3':>10s} {'spread':>7s} {'bound':>6s}  verdict")
    for w in workloads:
        sets = raw[w]
        shares = {Fraction(r["failed"], r["attempted"])
                  for st in sets for r in st}
        if not all(r["correct"] for st in sets for r in st):
            ok = False
            print(f"{w}: a run reported incorrect outputs")
        if len(shares) > 1:
            ok = False
            print(f"{w}: the failed share differs between runs: "
                  f"{sorted(map(str, shares))}")
        for metric, bound in bounds.items():
            first_median = None
            for s, st in enumerate(sets):
                values = [r["metrics"][metric]["value"] for r in st]
                q1, med, q3 = quartiles(values)
                spread = (q3 - q1) / med
                verdicts = ["steady" if spread <= bound else "SPREAD"]
                if spread > bound / 3:
                    verdicts.append("(over a third of the bound)")
                if first_median is None:
                    first_median = med
                else:
                    worse = (med - first_median) / first_median
                    verdicts.append("agrees" if worse <= bound else
                                    f"WORSE by {worse:.1%}")
                    ok = ok and worse <= bound
                ok = ok and spread <= bound
                print(f"{w:20s} {metric:12s} {s + 1:>3d} {q1:10.4g} "
                      f"{med:10.4g} {q3:10.4g} {spread:7.1%} {bound:6.0%}  "
                      + " ".join(verdicts))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
