"""The benchmark workloads: eval-bulk and small-queries.

A workload has two set-up steps, timed together as one set-up:

* ``load_program`` imports quantlogic afresh;
* ``prepare`` generates the seeded inputs, writes them as files and loads
  what the operations need.

``ops(traced)`` then returns the operation cycle.  Each ``Op`` has a ``call``
that runs the program (the only timed part) and a ``check`` that returns None
when the result is correct, or the reason it is not.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import math
import os
import sys
import time
from dataclasses import dataclass
from typing import Callable

import checks
import gen

INF = math.inf


@dataclass
class Op:
    label: str
    call: Callable[[], object]
    check: Callable[[object], str | None]


def fresh_import():
    """Import the quantlogic package as a first import in this process would."""
    for name in [n for n in sys.modules if n == "quantlogic" or n.startswith("quantlogic.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    return importlib.import_module("quantlogic")


class EvalBulk:
    """`evaluate` of doubly nested formulas over a 300-point space, both carriers."""

    name = "eval-bulk"

    def __init__(self, work: str, seed: int):
        self.work, self.seed = work, seed
        self.ql = None

    def load_program(self) -> None:
        self.ql = fresh_import()

    def prepare(self) -> None:
        ql = self.ql
        data = gen.eval_bulk(self.seed)
        path = os.path.join(self.work, "eval-bulk-env.json")
        gen.write_json(data["env"], path)
        self.env = ql.load_environment(path)
        self.env_add = ql.translate_environment(self.env)
        self.texts = data["formulas"]
        self.formulas = [ql.parse(t) for t in self.texts]
        self.add_formulas = [ql.translate_formula(f, "to_add") for f in self.formulas]

    def ops(self, traced: bool) -> list[Op]:
        ql, ctx = self.ql, self.ql.Context()
        last_mul: dict[int, tuple] = {}
        out = []
        for i, text in enumerate(self.texts):
            def mul_call(f=self.formulas[i]):
                return ql.evaluate(f, ctx, self.env).table

            def add_call(f=self.add_formulas[i]):
                return ql.evaluate(f, ctx, self.env_add).table

            def mul_check(table, i=i):
                last_mul[i] = table
                return checks.nan_error(table)

            def add_check(table, i=i):
                if last_mul.get(i) is None:
                    return "no multiplicative result to pair with"
                return checks.nan_error(table) or checks.coherence_error(last_mul.pop(i), table)

            out.append(Op(f"eval-bulk mul: {text}", mul_call, mul_check))
            out.append(Op(f"eval-bulk add: {text}", add_call, add_check))
        return out


class SmallQueries:
    """Thousands of small parsed formulas, plus the library's closed-form
    checks and in-process CLI calls on a small environment file."""

    name = "small-queries"
    QUERIES_PER_CHECK = 4

    def __init__(self, work: str, seed: int):
        self.work, self.seed = work, seed
        self.ql = self.cli = None
        self.cli_import_s = 0.0
        self.stdout_bytes = 0

    def load_program(self) -> None:
        self.ql = fresh_import()
        t0 = time.perf_counter()
        self.cli = importlib.import_module("quantlogic.cli")
        self.cli_import_s = time.perf_counter() - t0

    def prepare(self) -> None:
        ql = self.ql
        data = gen.small_queries(self.seed)
        self.envs = []
        for k, doc in enumerate(data["envs"]):
            path = os.path.join(self.work, f"small-queries-env{k}.json")
            gen.write_json(doc, path)
            env = ql.load_environment(path)
            self.envs.append((env, ql.translate_environment(env)))
        self.queries = data["queries"]
        self.checks = data["checks"]
        self.cli_env = data["cli_env"]
        self.cli_path = os.path.join(self.work, "small-queries-cli.json")
        gen.write_json(self.cli_env, self.cli_path)

    def _query(self, k: int, free, text: str) -> Op:
        ql = self.ql
        env, env_add = self.envs[k]

        def call():
            f = ql.parse(text)
            ctx = ql.Context((("x", env.spaces["I"]),)) if free else ql.Context()
            ql.check_wellformed(f, ctx, env)
            mul = ql.eval_mul(f, ctx, env)
            add = ql.eval_add(ql.translate_formula(f, "to_add"), ctx, env_add)
            return mul.table, add.table

        return Op(f"small-queries env{k} free={free}: {text}", call,
                  lambda r: checks.coherence_error(*r))

    def _library_ops(self) -> list[Op]:
        """One op per check input, as one list per kind."""
        ql = self.ql

        def space(w, prob=False):
            s = ql.make_space(range(len(w)), w, name="S")
            return ql.normalize(s) if prob else s

        def adjunction(c):
            def call():
                space_i = ql.normalize(ql.make_space(range(len(c["wi"])), c["wi"], name="I"))
                space_k = ql.normalize(ql.make_space(range(len(c["wk"])), c["wk"], name="K"))
                return ql.adjunction_check(space_i, space_k, c["rho"], c["psi"], c["p"])
            return call, lambda r: (None if r.holds and checks.close(r.lhs, r.rhs)
                                    else f"adjunction {r.verdict}: {r.lhs!r} vs {r.rhs!r}")

        def transitivity(c):
            def call():
                return ql.transitivity_search(space(c["w"], True), c["p"],
                                              c["trials"], c["seed"])
            return call, lambda r: (None if r.verdict == "violated" and r.lhs > r.rhs
                                    else f"transitivity {r.verdict}")

        def laxity(c):
            def call():
                direction, mapping, phi, psi = ql.canned_laxity_instances()[c["instance"]]
                return direction, ql.laxity_check(mapping, phi, psi)
            return call, lambda r: (None if r[1].details[f"{r[0]}_fails"]
                                    else f"{r[0]} direction does not fail")

        def reflexivity(c):
            mass = math.fsum(c["w"])
            want = 1.0 if c["p"] == INF else mass ** (-1.0 / c["p"])

            def call():
                return ql.reflexivity_check(space(c["w"]), c["phi"], c["p"])
            return call, lambda r: (None if r.holds and checks.close(r.lhs, want)
                                    else f"reflexivity {r.lhs!r}, want {want!r}")

        def softmax(c):
            total = math.fsum(c["w"])
            w = [x / total for x in c["w"]]

            def call():
                return ql.softmax_p(ql.value_vector(space(c["w"], True), c["f"]), c["p"])

            def check(s):
                if c["p"] == 1.0:
                    integral = math.fsum(wi * si for wi, si in zip(w, s))
                    return None if checks.close(integral, 1.0) else f"integral {integral!r}"
                return None if max(s) == 1.0 else f"softmax_inf max {max(s)!r}"
            return call, check

        def argmax(c):
            top = max(c["f"])
            want = tuple(v == top for v in c["f"])

            def call():
                return ql.argmax(ql.value_vector(space(c["w"], True), c["f"]))
            return call, lambda r: None if r == want else f"argmax {r} want {want}"

        def renyi(c):
            ones = [1.0] * len(c["masses"])
            want = checks.renyi(c["masses"], ones, c["p"])

            def call():
                return ql.renyi_entropy(ql.distribution(space(ones), c["masses"]), c["p"])
            return call, lambda h: None if checks.close(h, want) else f"H {h!r} want {want!r}"

        def hill(c):
            ones = [1.0] * len(c["masses"])
            want = math.exp(checks.renyi(c["masses"], ones, c["p"]))

            def call():
                return ql.hill_diversity(ql.distribution(space(ones), c["masses"]), c["p"])
            return call, lambda d: None if checks.close(d, want) else f"D {d!r} want {want!r}"

        def likelihood(c):
            total = math.fsum(c["w"])
            want = checks.neg_log_softmax([x / total for x in c["w"]], c["u"])

            def call():
                return ql.log_likelihood(ql.energy_function(space(c["w"], True), c["u"]))
            return call, lambda r: (None if all(checks.close(a, b) for a, b in zip(r, want))
                                    else f"log-likelihood {r} want {want}")

        makers = {"adjunction_check": adjunction, "transitivity_search": transitivity,
                  "laxity_check": laxity, "reflexivity_check": reflexivity,
                  "softmax_p": softmax, "argmax": argmax, "renyi_entropy": renyi,
                  "hill_diversity": hill, "log_likelihood": likelihood}
        return [[Op(f"small-queries {kind} #{j}: {c}", *makers[kind](c))
                 for j, c in enumerate(self.checks[kind])] for kind in makers]

    def ops(self, traced: bool) -> list[Op]:
        per_kind = self._library_ops() + self._cli_ops(traced)
        library = iter([op for group in zip(*per_kind) for op in group])
        out = []
        for i, (k, free, text) in enumerate(self.queries):
            out.append(self._query(k, free, text))
            if i % self.QUERIES_PER_CHECK == self.QUERIES_PER_CHECK - 1:
                out.extend([op for op in [next(library, None)] if op is not None])
        return out

    # -- in-process CLI calls ------------------------------------------------

    def _cli_ops(self, traced: bool) -> list[list[Op]]:
        """One list per subcommand, as long as the library kinds' lists.

        ``main`` runs in this process with stdout captured, so the figures
        hold argument parsing, environment loading and output formatting but
        not interpreter start.
        """
        env = self.cli_env
        w = env["spaces"]["I"]["weights"]
        n = len(w)
        r = [INF if v == "inf" else v for v in env["atoms"]["r"]["values"]]
        g = env["atoms"]["g"]["values"]
        labels = env["spaces"]["I"]["points"]
        masses = env["atoms"]["phi"]["values"]
        path = self.cli_path

        def run(argv):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(argv)
            return code, out.getvalue(), err.getvalue()

        def checked(check):
            def check_run(result):
                code, stdout, stderr = result
                if traced:
                    self.stdout_bytes += len(stdout.encode())
                if code != 0:
                    return f"exit code {code}: {stderr.strip()[-300:]}"
                try:
                    return check(stdout)
                except (ValueError, IndexError, KeyError) as exc:
                    return f"unparsable output: {exc}"
            return check_run

        def table(p: float, add: bool):
            if add:
                return [checks.napier(checks.exists_mean(
                    p, w, [max(r[x * n + y], g[y]) for y in range(n)])) for x in range(n)]
            return [checks.exists_mean(p, w, [checks.tensor(r[x * n + y], g[y])
                                              for y in range(n)]) for x in range(n)]

        def eval_op(p: str, add: bool):
            if add:
                argv = ["eval", "--env", path, f"E^{p} (y in I). r(x, y) \\/ g(y)",
                        "--mode", "add"]
            else:
                argv = ["eval", "--env", path, f"E^{p} (y in I). r(x, y) (x) g(y)",
                        "--separator", "unitary"]
            want = table(float(p), add)
            return (lambda: run(argv)), checked(lambda out: _table_error(out, labels, want, not add))

        def entropy_op(p: str):
            want = checks.renyi(masses, [1.0] * len(masses), float(p))
            return (lambda: run(["entropy", "--env", path, "phi", "--p", p]),
                    checked(lambda out: _entropy_error(out, want)))

        def softmax_op():
            return (lambda: run(["softmax", "--env", path, "g", "--p", "1"]),
                    checked(lambda out: _softmax_error(out, n)))

        def plot_op():
            return (lambda: run(["plot-data", "--env", path, "g", "--grid", CLI_GRID]),
                    checked(_plot_error))

        def adjunction_op(seed: int):
            return (lambda: run(["doctrine", "--env", path, "adjunction", "--space", "S",
                                 "--trials", "5", "--seed", str(seed)]),
                    checked(lambda out: _verdicts(out, ["holds"])))

        count = len(next(iter(self.checks.values())))
        makers = {
            "cli eval --separator": lambda j: eval_op(("1", "2", "3", "inf")[j % 4], False),
            "cli eval --mode add": lambda j: eval_op(("0", "1", "2")[j % 3], True),
            "cli softmax": lambda j: softmax_op(),
            "cli entropy": lambda j: entropy_op(("0.5", "2", "3")[j % 3]),
            "cli plot-data": lambda j: plot_op(),
            "cli doctrine adjunction": adjunction_op,
        }
        return [[Op(f"small-queries {kind} #{j}", *make(j)) for j in range(count)]
                for kind, make in makers.items()]


CLI_GRID = "0.5:4:3"


def _table_error(stdout: str, labels, want: list[float], sep: bool) -> str | None:
    rows = [line for line in stdout.splitlines() if line and not line.startswith("#")]
    if len(rows) != len(want):
        return f"{len(rows)} rows, want {len(want)}"
    for label, row, v_want in zip(labels, rows, want):
        fields = row.split("\t")
        if fields[0] != label or len(fields) != (3 if sep else 2):
            return f"malformed row {row!r}"
        v = _value(fields[1])
        if not checks.close(v, v_want):
            return f"row {label}: {v!r}, want {v_want!r}"
        if sep and not checks.close(v, 1.0) and fields[2] != ("true" if v >= 1.0 else "false"):
            return f"row {label}: cast {fields[2]} for value {v!r}"
    return None


def _softmax_error(stdout: str, rows: int) -> str | None:
    lines = stdout.splitlines()
    if len(lines) != rows + 1:
        return f"{len(lines)} lines, want {rows + 1}"
    for line in lines[:-1]:
        _value(line.split("\t")[1])
    integral = _value(lines[-1].split("=", 1)[1])
    return None if checks.close(integral, 1.0) else f"integral {integral!r}"


def _entropy_error(stdout: str, want_h: float) -> str | None:
    first, second = stdout.splitlines()
    h = _value(first.split(",")[0].split("=")[1])
    fields = dict(kv.split("=") for kv in second.split()[1:])
    d, gap = _value(fields["D"]), _value(fields["gap"])
    if gap > checks.TOL * max(1.0, d):
        return f"exp(H) - D gap {gap!r}"
    return None if checks.close(h, want_h) else f"H {h!r}, want {want_h!r}"


def _plot_error(stdout: str) -> str | None:
    lines = stdout.splitlines()
    want = int(CLI_GRID.split(":")[2])
    if len(lines) != want + 1:
        return f"{len(lines)} lines, want {want + 1}"
    for line in lines[1:]:
        p, _, _, pos, neg, hi, lo = (_value(t) for t in line.split(","))
        # On a probability space: min <= A^p <= E^p <= max.
        slack = checks.TOL * max(1.0, hi)
        if not (lo - slack <= neg <= pos + slack and pos <= hi + slack):
            return f"p={p}: means out of order in {line!r}"
    return None


def _value(token: str) -> float:
    v = float(token)
    if math.isnan(v):
        raise ValueError("NaN in output")
    return v


def _verdicts(stdout: str, want: list[str]) -> str | None:
    got = [tok.split("=", 1)[1] for tok in stdout.split() if tok.startswith("verdict=")]
    return None if got == want else f"verdicts {got}, want {want}"
