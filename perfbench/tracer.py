"""Per-layer timing from outside the program.

The layers are cgalex's modules.  ``install`` replaces every public
function of every cgalex module, in its defining module and in each cgalex
module that imported it by name, with a wrapper that opens a span; three
methods are wrapped on their classes.  A span's self time is its duration
minus the time covered by its child spans, so the self times of one call
tree add up to the duration of its root span (``cli.main``).

``IntMatrix.__matmul__`` opens a span only directly under
``smith_normal_form``, where it is the Smith certificate
(``zmodule.certificate``); elsewhere it is only counted, so a dense power
keeps its products in ``IntMatrix.__pow__``'s self time.

A metric whose wrapped name no longer exists reads 0.
"""

from __future__ import annotations

import functools
from collections import Counter, defaultdict
from time import perf_counter

METHODS = (
    ("zmodule", "IntMatrix", "__matmul__"),
    ("zmodule", "IntMatrix", "__pow__"),
    ("zmodule", "SmithDecomposition", "solve"),
)

SMITH = "zmodule.smith_normal_form"
MATMUL = "zmodule.IntMatrix.__matmul__"
ALEXANDER = "lmodule.alexander_polynomial"
LAYERS = ("cli", "covering", "lmodule", "cgroup", "freeword", "zmodule",
          "laurent")

# (metric name, unit, source): the source is a span's self time ("self"),
# its call count ("calls") or a counter kept by a wrapper ("count").
PER_LAYER = [
    ("zmodule.smith_normal_form.self_s", "s", "self"),
    ("zmodule.smith_normal_form.calls", "count", "calls"),
    ("zmodule.smith_normal_form.cells", "count", "count"),
    ("zmodule.smith_normal_form.max_rows", "count", "count"),
    ("zmodule.certificate.self_s", "s", "self"),
    ("zmodule.IntMatrix.__matmul__.calls", "count", "calls"),
    ("zmodule.IntMatrix.__pow__.self_s", "s", "self"),
    ("zmodule.IntMatrix.__pow__.calls", "count", "calls"),
    ("zmodule.SmithDecomposition.solve.self_s", "s", "self"),
    ("zmodule.SmithDecomposition.solve.calls", "count", "calls"),
    ("zmodule.induced_endo.self_s", "s", "self"),
    ("zmodule.is_automorphism.self_s", "s", "self"),
    ("zmodule.charpoly.self_s", "s", "self"),
    ("lmodule.derived.self_s", "s", "self"),
    ("lmodule.derived.calls", "count", "calls"),
    ("lmodule.derived.expanded_cols", "count", "count"),
    ("lmodule.fingerprint.self_s", "s", "self"),
    ("lmodule.sequence.self_s", "s", "self"),
    ("laurent.reduce_mod_cyclic.self_s", "s", "self"),
    ("laurent.reduce_mod_cyclic.calls", "count", "calls"),
    ("lmodule.alexander_polynomial.self_s", "s", "self"),
    ("lmodule.alexander_polynomial.minors", "count", "count"),
    ("laurent.gcd_primitive.self_s", "s", "self"),
    ("laurent.gcd_primitive.calls", "count", "calls"),
    ("lmodule.cyclic_admits.self_s", "s", "self"),
    ("cgroup.parse_cg.self_s", "s", "self"),
    ("lmodule.parse_lm.self_s", "s", "self"),
    ("cgroup.alexander_matrix.self_s", "s", "self"),
    ("freeword.fox_nu.self_s", "s", "self"),
    ("freeword.fox_nu.calls", "count", "calls"),
    ("covering.covering_homology.self_s", "s", "self"),
    ("covering.cyclotomic_multiplicities.self_s", "s", "self"),
    ("cli.main.self_s", "s", "self"),
] + [(f"{layer}.self_s", "s", "layer") for layer in LAYERS]


def _count_smith(tracer, args):
    A = args[0]
    tracer.counts["zmodule.smith_normal_form.cells"] += A.rows * A.cols
    key = "zmodule.smith_normal_form.max_rows"
    tracer.counts[key] = max(tracer.counts[key], A.rows)


def _count_derived(tracer, args):
    tracer.counts["lmodule.derived.expanded_cols"] += args[0].ncols * args[1]


def _count_gcd(tracer, args):
    # Today alexander_polynomial folds each maximal minor into the gcd.
    if tracer.stack and tracer.stack[-1][0] == ALEXANDER:
        tracer.counts["lmodule.alexander_polynomial.minors"] += 1


COUNTERS = {
    SMITH: _count_smith,
    "lmodule.derived": _count_derived,
    "laurent.gcd_primitive": _count_gcd,
}


class Tracer:
    """Span stack and per-round totals, kept in memory."""

    def __init__(self):
        self.stack = []  # frames [name, start, time covered by children]
        self.reset()
        self.capture = None  # when a list, finished spans are appended

    def reset(self):
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()

    def wrap(self, name, fn, counter=None):
        stack = self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if counter is not None:
                try:
                    counter(self, args)
                except (AttributeError, IndexError, TypeError):
                    pass
            frame = [name, perf_counter(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - frame[1]
                self.self_s[name] += dur - frame[2]
                self.calls[name] += 1
                if stack:
                    stack[-1][2] += dur
                if self.capture is not None:
                    self.capture.append((name, len(stack), frame[1], end,
                                         dur - frame[2]))
        return wrapper

    def wrap_matmul(self, fn):
        certificate = self.wrap("zmodule.certificate", fn)

        @functools.wraps(fn)
        def wrapper(a, b):
            self.calls[MATMUL] += 1
            if self.stack and self.stack[-1][0] == SMITH:
                return certificate(a, b)
            return fn(a, b)
        return wrapper

    def metrics(self) -> dict:
        """This round's value of every per-layer metric (0 when absent)."""
        out = {}
        for name, _, source in PER_LAYER:
            base = name.rsplit(".", 1)[0]
            if source == "self":
                out[name] = self.self_s.get(base, 0.0)
            elif source == "calls":
                out[name] = self.calls.get(base, 0)
            elif source == "count":
                out[name] = self.counts.get(name, 0)
            else:
                out[name] = sum(v for k, v in self.self_s.items()
                                if k.split(".", 1)[0] == base)
        return out


def _public_functions(module):
    for name, obj in vars(module).items():
        if name.startswith("_") or not callable(obj) or isinstance(obj, type):
            continue
        if getattr(obj, "__module__", None) == module.__name__:
            yield name, obj


def install(tracer: Tracer, modules: dict) -> int:
    """Wrap the public functions and METHODS of ``modules`` (short name ->
    module object).  Returns the number of wrappers installed."""
    wrapped = 0
    for short, module in modules.items():
        for name, fn in list(_public_functions(module)):
            span = f"{short}.{name}"
            w = tracer.wrap(span, fn, COUNTERS.get(span))
            for other in modules.values():
                for attr, value in list(vars(other).items()):
                    if value is fn:
                        setattr(other, attr, w)
            wrapped += 1
    for short, cls_name, meth in METHODS:
        cls = getattr(modules.get(short), cls_name, None)
        fn = None if cls is None else vars(cls).get(meth)
        if fn is None:
            continue
        if meth == "__matmul__":
            w = tracer.wrap_matmul(fn)
        else:
            w = tracer.wrap(f"{short}.{cls_name}.{meth}", fn)
        setattr(cls, meth, w)
        wrapped += 1
    return wrapped


def median(values):
    values = sorted(values)
    if not values:
        return 0.0
    mid = len(values) // 2
    if len(values) % 2:
        return values[mid]
    return (values[mid - 1] + values[mid]) / 2


def summarize(rounds: list) -> dict:
    """Per-layer metrics over traced rounds: times as medians, counts
    from the last round (they repeat exactly once caches are warm)."""
    out = {}
    for name, unit, source in PER_LAYER:
        values = [r[name] for r in rounds]
        if unit == "s":
            out[name] = median(values)
        else:
            out[name] = values[-1] if values else 0
    return out
