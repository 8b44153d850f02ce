"""Benchmark of cgalex: derived quotients, Alexander polynomials and
covering reports, timed end to end through ``cgalex.cli.main``.

One workload, as the benchmark driver runs it:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every workload, each in a fresh interpreter, untraced and then traced,
with every metric printed by name and unit:

    python3 perfbench/run.py --workload all [--seed N] [--seconds S]

A run repeats whole rounds of the workload's operations (its sweep of
small and medium operations, then its one largest operation) for S
seconds, checks every output against references computed apart from the
program, and prints as its last line a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones; with ``--trace 1`` the first half of the run is
untraced, the second half traced, and the metrics are the per-layer ones.
The program's own sources are read from ``src/`` next to this directory
and never modified.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import resource
import shutil
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracer as T  # noqa: E402
import workloads  # noqa: E402

SETUPS_PER_ROUND = 2
MIN_ROUNDS = 3

END_TO_END = [("setup_s", "s"), ("sweep_s", "s"), ("top_op_s", "s"),
              ("peak_rss_mb", "MB")]
TRACE_EXTRA = [("result.max_factor_bits", "bits"), ("trace.overhead_s", "s"),
               ("trace.top_op_accounted", "ratio")]


def _cgalex_modules() -> dict:
    return {name: m for name, m in sys.modules.items()
            if name == "cgalex" or name.startswith("cgalex.")}


def setup(workload, inputs: Path):
    """Import cgalex afresh and parse every input with the library's own
    parsers; returns (seconds, {layer name: module})."""
    for name in _cgalex_modules():
        del sys.modules[name]
    t0 = perf_counter()
    importlib.import_module("cgalex.cli")
    parse_cg = sys.modules["cgalex.cgroup"].parse_cg
    parse_lm = sys.modules["cgalex.lmodule"].parse_lm
    for fname in workload.files:
        text = (inputs / fname).read_text(encoding="utf-8")
        parse = parse_cg if fname.endswith(".cg") else parse_lm
        parse(text, filename=fname)
    elapsed = perf_counter() - t0
    mods = {short: sys.modules[f"cgalex.{short}"] for short in T.LAYERS
            if f"cgalex.{short}" in sys.modules}
    return elapsed, mods


def setup_again(workload, inputs: Path) -> float:
    """Time one more set-up, then put the modules under test back, so that
    the rounds keep running the same program objects (and its caches).
    The garbage of both imports is collected outside the timing."""
    under_test = _cgalex_modules()
    gc.collect()
    elapsed, _ = setup(workload, inputs)
    sys.modules.update(under_test)
    gc.collect()
    return elapsed


def call(cli, argv):
    """One in-process CLI call: (seconds, (exit code, stdout, exception))."""
    buf = io.StringIO()
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv + ["--json"])
        err = None
    except Exception as exc:  # a fault in the program, counted as failed
        rc, err = None, f"{type(exc).__name__}: {exc}"
    return perf_counter() - t0, (rc, buf.getvalue(), err)


class Runner:
    """Runs whole rounds and keeps the first round's outputs; every later
    round's outputs must be identical to them."""

    def __init__(self, cli, ops):
        self.cli = cli
        self.ops = ops
        self.first = None
        self.mismatch = set()
        self.rounds = 0

    def round(self, tracer=None):
        sweep = 0.0
        outs, times = [], []
        top_spans = None
        for i, op in enumerate(self.ops):
            is_top = i == len(self.ops) - 1
            if tracer is not None and is_top:
                tracer.capture = top_spans = []
            dt, out = call(self.cli, op.argv)
            times.append(dt)
            if tracer is not None:
                tracer.capture = None
            if is_top:
                top = dt
            else:
                sweep += dt
            outs.append(out)
        if self.first is None:
            self.first = outs
        else:
            self.mismatch.update(i for i, (a, b) in
                                 enumerate(zip(self.first, outs)) if a != b)
        self.rounds += 1
        return {"sweep_s": sweep, "top_op_s": top, "top_spans": top_spans,
                "op_s": times}

    def run_until(self, deadline, between, tracer=None,
                  min_rounds=MIN_ROUNDS):
        """Rounds until the deadline, calling ``between()`` before each."""
        rounds = []
        while len(rounds) < min_rounds or perf_counter() < deadline:
            between()
            if tracer is not None:
                tracer.reset()
            r = self.round(tracer)
            if tracer is not None:
                r["layers"] = tracer.metrics()
            rounds.append(r)
        return rounds


def judge(ops, runner):
    """Check the first round's outputs.  Returns (per-op problems, parsed
    outputs); an op with problems failed."""
    refs = checks.Refs()
    problems, parsed = {}, []
    for i, (op, (rc, stdout, err)) in enumerate(zip(ops, runner.first)):
        out = None
        if err is not None:
            problems[i] = [f"raised {err[:200]}"]
        elif rc != 0:
            problems[i] = [f"exit code {rc}: {stdout.strip()[:200]}"]
        else:
            try:
                out = json.loads(stdout)
            except ValueError as exc:
                problems[i] = [f"output is not JSON: {exc}"]
            else:
                found = checks.check_op(op, out, refs)
                if found:
                    problems[i] = found
        parsed.append(out)
    for i, found in checks.check_periodic_pairs(ops, parsed, refs).items():
        problems.setdefault(i, []).extend(found)
    for i in runner.mismatch:
        problems.setdefault(i, []).append("output differs between rounds")
    return problems, parsed


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_workload(name: str, seed: int, seconds: float, trace: bool):
    out_dir = OUT / name
    shutil.rmtree(out_dir, ignore_errors=True)
    inputs = out_dir / "inputs"
    workload = workloads.build(name, seed, inputs)
    # The run's own bytecode cache, written whatever the environment says,
    # so that every set-up after the first is a warm import.
    sys.pycache_prefix = str(out_dir / "pycache")
    sys.dont_write_bytecode = False
    sys.path.insert(0, str(SRC))
    _, mods = setup(workload, inputs)  # compiles the bytecode; not counted
    setups = []
    if not Path(mods["cli"].__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"cgalex was imported from {mods['cli'].__file__}, "
                         f"not from {SRC}")
    ops = workload.sweep + [workload.top]
    runner = Runner(mods["cli"], ops)

    def between():
        """Set-ups are timed between rounds, so that their median is
        taken over the whole run, as the rounds' medians are."""
        for _ in range(SETUPS_PER_ROUND):
            setups.append(setup_again(workload, inputs))

    start = perf_counter()
    if not trace:
        rounds = runner.run_until(start + seconds, between)
        metrics = {
            "setup_s": T.median(setups),
            "sweep_s": T.median([r["sweep_s"] for r in rounds]),
            "top_op_s": T.median([r["top_op_s"] for r in rounds]),
            "peak_rss_mb": peak_rss_mb(),
        }
        units = dict(END_TO_END)
        (out_dir / "rounds.json").write_text(json.dumps(
            {"setup_s": setups,
             "sweep_s": [r["sweep_s"] for r in rounds],
             "top_op_s": [r["top_op_s"] for r in rounds],
             "op_s": [r["op_s"] for r in rounds]}))
    else:
        plain = runner.run_until(start + seconds / 2, between)
        tr = T.Tracer()
        T.install(tr, mods)
        traced = runner.run_until(start + seconds, between, tracer=tr)
        metrics = T.summarize([r["layers"] for r in traced])
        metrics["trace.overhead_s"] = (
            T.median([r["sweep_s"] for r in traced])
            - T.median([r["sweep_s"] for r in plain]))
        metrics["trace.top_op_accounted"] = T.median(
            [sum(s[4] for s in r["top_spans"]) / r["top_op_s"]
             for r in traced])
        units = {n: u for n, u, _ in T.PER_LAYER}
        units.update(TRACE_EXTRA)
        spans = traced[-1]["top_spans"]
        t0 = spans[0][2] if spans else 0.0
        dump = {"workload": name, "seed": seed, "top_op": workload.top.argv,
                "spans": [{"name": s[0], "depth": s[1], "start": s[2] - t0,
                           "end": s[3] - t0, "self_s": s[4]}
                          for s in sorted(spans, key=lambda s: s[2])]}
        (out_dir / "trace.json").write_text(json.dumps(dump, indent=1))
    problems, parsed = judge(ops, runner)
    if trace:
        metrics["result.max_factor_bits"] = checks.max_factor_bits(parsed)
    unexpected = [i for i in problems if ops[i].known_fault is None]
    for i, found in sorted(problems.items()):
        tag = "known fault" if ops[i].known_fault else "UNEXPECTED"
        print(f"failed ({tag}): {' '.join(ops[i].argv)}: {'; '.join(found)}")
    print(f"{name}: seed {seed}, {runner.rounds} rounds of {len(ops)} "
          f"operations")
    result = {
        "correct": not unexpected,
        "attempted": runner.rounds * len(ops),
        "failed": runner.rounds * len(problems),
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }
    (out_dir / f"result-trace{int(trace)}.json").write_text(json.dumps(result))
    return result


def run_all(seed: int, seconds: int) -> int:
    """Every workload in a fresh interpreter, untraced then traced."""
    status = 0
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload",
                 name, "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", str(trace)],
                capture_output=True, text=True, cwd=ROOT)
            if proc.returncode != 0:
                print(proc.stdout + proc.stderr, end="")
                return proc.returncode
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            print(f"== {name} (trace {trace}): correct={result['correct']} "
                  f"attempted={result['attempted']} "
                  f"failed={result['failed']}")
            for metric, m in result["metrics"].items():
                print(f"  {metric:45s} {m['value']:>14.6g} {m['unit']}")
            status = status or int(not result["correct"])
    return status


def default_seconds() -> int:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)["run_seconds"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=list(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "cgalex" / "cli.py").is_file():
        print(f"error: the program's sources are missing: no "
              f"{SRC / 'cgalex' / 'cli.py'}", file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None else default_seconds()
    if args.workload == "all":
        return run_all(args.seed, seconds)
    result = run_workload(args.workload, args.seed, seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
