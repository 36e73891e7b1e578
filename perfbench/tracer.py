"""Span recorder that times calls into quantlogic's public functions.

The recorder works from outside the program: ``install`` replaces each traced
function by a timing wrapper at every place the name is bound, that is in the
defining module, in every quantlogic module that imported it by name (for
example ``p_mean`` in semantics, stats, entailment and cli, and
``make_environment`` in stats), and in the ``MUL_OPS``/``ADD_OPS`` dispatch
tables.  ``uninstall`` puts the originals back.

A wrapper's own bookkeeping runs outside the span it times, so it lands in
the caller's time.  The extreal layer is called once per table cell, millions
of times per run, and wrapping it would make most of the evaluator's self time
the wrappers' cost.  So it is traced in a pass of its own
(``install(rec, EXTREAL)``), and every other layer in a pass that leaves it
unwrapped (``install(rec, LAYERS)``); in that pass the extreal calls count in
their callers' self time.

Per span name (and kernel class, for the quantifier kernels) the recorder
keeps [calls, busy_s, self_s, items] in memory:

* busy_s is inclusive time, counted once for nested calls of the same layer;
* self_s is the span's time minus the time of the spans it directly caused;
* items is a size counted at the outermost call (values aggregated, cells
  materialized, characters parsed).

Raw spans (name, start, end, depth, op) are kept up to SPAN_CAP and written as
JSON lines when the run ends.  ``top_s`` sums the spans with no parent, so a
caller can report the time not attributed to any span.  ``metrics`` turns the
totals into the per-layer metric names of BENCHMARK.json: ``<span>.calls``,
``<span>.busy_s``, ``<span>.busy_s.<class>``, ``<span>.self_s`` and each
target's items metric.
"""

from __future__ import annotations

import json
import sys
import time

PERF = time.perf_counter
SPAN_CAP = 50_000
P_CLASSES = ("p0", "pinf", "p_ge64", "p_other")


def p_class(p: float) -> str:
    """Kernel class of a quantifier magnitude, as the metric names use it."""
    if p == 0.0:
        return "p0"
    if p == float("inf"):
        return "pinf"
    if p >= 64.0:
        return "p_ge64"
    return "p_other"


def formula_cells(f, size: int, env) -> int:
    """Table cells the evaluator materializes for f in a context of `size` cells.

    Every node yields one table over its context; a quantifier's body is
    evaluated over the context extended by the bound space.
    """
    total = size
    space = getattr(f, "space", None)
    if isinstance(space, str):
        return total + formula_cells(f.body, size * len(env.spaces[space]), env)
    for child in ("lhs", "rhs", "body"):
        sub = getattr(f, child, None)
        if sub is not None:
            total += formula_cells(sub, size, env)
    return total


def _evaluate_cells(args, result) -> int:
    f, ctx, env = args[:3]
    return formula_cells(f, len(result), env) if len(result) else 0


def _loaded_values(args, env) -> int:
    return sum(len(t.values) for t in env.atoms.values())


class Recorder:
    def __init__(self):
        self.stats: dict[tuple, list] = {}
        self.spans: list[tuple] = []
        self.top_s = 0.0
        self.op = -1
        self._stack: list[list[float]] = []
        self._active: dict[str, list[int]] = {}
        self._patches: list[tuple[dict, object, object]] = []

    def wrap(self, fn, name: str, classify=None, count=None, listify: bool = False):
        """A wrapper of fn recording spans under `name` and classify(args).

        count(args, result) gives the items of an outermost call; listify
        materializes the first argument (an iterable) before the call so that
        count can take its length.
        """
        stack, stats, spans = self._stack, self.stats, self.spans
        active = self._active.setdefault(name, [0])
        plain = (name, None)
        rec = self

        def wrapper(*args, **kwargs):
            if listify:
                args = (list(args[0]),) + args[1:]
            k = plain if classify is None else (name, classify(args))
            frame = [0.0]
            stack.append(frame)
            active[0] += 1
            t0 = PERF()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = PERF()
                stack.pop()
                active[0] -= 1
                d = t1 - t0
                st = stats.get(k)
                if st is None:
                    st = stats[k] = [0, 0.0, 0.0, 0]
                st[0] += 1
                st[2] += d - frame[0]
                if stack:
                    stack[-1][0] += d
                else:
                    rec.top_s += d
                if not active[0]:
                    st[1] += d
                if len(spans) < SPAN_CAP:
                    spans.append((name if k[1] is None else ".".join(k), t0, t1,
                                  len(stack), rec.op))
            if count is not None and not active[0]:
                st[3] += count(args, result)
            return result

        return wrapper

    def metrics(self) -> dict[str, float]:
        """Totals under the per-layer metric names."""
        items = {t[2]: t[4][0] for t in LAYERS if t[4] is not None}
        out: dict[str, float] = {}

        def add(metric: str, value) -> None:
            out[metric] = out.get(metric, 0) + value

        for (name, cls), (calls, busy, self_s, n) in self.stats.items():
            add(f"{name}.calls", calls)
            add(f"{name}.busy_s", busy)
            add(f"{name}.self_s", self_s)
            if cls is not None:
                add(f"{name}.busy_s.{cls}", busy)
            if name in items:
                add(items[name], n)
        return out

# Traced functions: (module, function, span name, classify, (items metric,
# count) or None, listify).  EXTREAL also wraps every entry of the
# MUL_OPS/ADD_OPS tables as extreal.ops.
_EXTREAL_OPS = ("mul_div", "add_div", "mul_dual", "add_dual", "mul_pow",
                "mul_pow_signed", "add_scalar")
EXTREAL = [
    ("extreal", "napier", "extreal.napier", None, None, False),
    ("extreal", "napier_inv", "extreal.napier", None, None, False),
] + [("extreal", fname, "extreal.ops", None, None, False) for fname in _EXTREAL_OPS]
LAYERS = [
    ("pmeans", "p_mean", "pmeans.p_mean", lambda a: p_class(a[0].magnitude),
     ("pmeans.p_mean.values", lambda a, r: len(a[1].values)), False),
    ("pmeans", "kahan_sum", "pmeans.kahan_sum", None,
     ("pmeans.kahan_sum.items", lambda a, r: len(a[0])), True),
    ("semantics", "add_quantifier", "semantics.add_quantifier", lambda a: p_class(a[1]),
     ("semantics.add_quantifier.values", lambda a, r: len(a[3])), False),
    ("semantics", "evaluate", "semantics.evaluate", None,
     ("semantics.cells", _evaluate_cells), False),
    ("semantics", "eval_mul", "semantics.evaluate", None,
     ("semantics.cells", _evaluate_cells), False),
    ("semantics", "eval_add", "semantics.evaluate", None,
     ("semantics.cells", _evaluate_cells), False),
    ("semantics", "cast_predicate", "semantics.cast_predicate", None, None, False),
    ("formulas", "parse", "formulas.parse", None,
     ("formulas.parse.chars", lambda a, r: len(a[0])), False),
    ("formulas", "check_wellformed", "formulas.check_wellformed", None, None, False),
    ("formulas", "translate_formula", "formulas.translate_formula", None, None, False),
    ("environment", "load_environment", "environment.load", None,
     ("environment.load.values", _loaded_values), False),
    ("environment", "make_environment", "environment.make", None, None, False),
    ("environment", "translate_environment", "environment.translate", None, None, False),
    ("spaces", "product_space", "spaces.product_space", None, None, False),
    ("spaces", "normalize", "spaces.normalize", None, None, False),
    ("stats", "softmax_p", "stats.softmax_p", None, None, False),
    ("stats", "renyi_entropy", "stats.renyi_entropy", None, None, False),
    ("stats", "hill_diversity", "stats.hill_diversity", None, None, False),
    ("stats", "log_likelihood", "stats.log_likelihood", None, None, False),
    ("entailment", "entails", "entailment.entails", None, None, False),
    ("entailment", "adjunction_check", "entailment.adjunction_check", None, None, False),
    ("entailment", "transitivity_search", "entailment.transitivity_search",
     None, None, False),
    ("entailment", "laxity_check", "entailment.laxity_check", None, None, False),
    ("cli", "main", "cli.main", None, None, False),
]


def metric_names() -> set[str]:
    """Every name that Recorder.metrics can report."""
    names = set()
    for _, _, name, classify, items, _ in EXTREAL + LAYERS:
        names |= {f"{name}.calls", f"{name}.busy_s", f"{name}.self_s"}
        if classify is not None:
            names |= {f"{name}.busy_s.{c}" for c in P_CLASSES}
        if items is not None:
            names.add(items[0])
    return names


def write_spans(path: str, *recorders: Recorder) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for rec in recorders:
            for k, t0, t1, depth, op in rec.spans:
                fh.write(json.dumps({"name": k, "start": t0, "end": t1,
                                     "depth": depth, "op": op}) + "\n")


def _program_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "quantlogic" or name.startswith("quantlogic."))]


def install(rec: Recorder, targets: list) -> None:
    """Wrap the functions of `targets` (EXTREAL or LAYERS) in the imported
    quantlogic modules."""
    wrappers: dict[int, tuple] = {}

    def add(fn, *spec):
        if callable(fn) and id(fn) not in wrappers:
            wrappers[id(fn)] = (fn, rec.wrap(fn, *spec))

    for mod, fname, name, classify, items, listify in targets:
        module = sys.modules.get("quantlogic." + mod)
        add(getattr(module, fname, None), name, classify,
            items and items[1], listify)
    extreal = sys.modules.get("quantlogic.extreal")
    tables = [t for t in (getattr(extreal, "MUL_OPS", None),
                          getattr(extreal, "ADD_OPS", None))
              if isinstance(t, dict) and targets is EXTREAL]
    for table in tables:
        for fn in table.values():
            add(fn, "extreal.ops")

    def patch(namespace: dict) -> None:
        for attr, value in list(namespace.items()):
            hit = wrappers.get(id(value))
            if hit is not None and hit[0] is value:
                namespace[attr] = hit[1]
                rec._patches.append((namespace, attr, value))

    for module in _program_modules():
        patch(vars(module))
    for table in tables:
        patch(table)


def uninstall(rec: Recorder) -> None:
    for namespace, attr, original in reversed(rec._patches):
        namespace[attr] = original
    rec._patches.clear()
