"""Command-line front end.

Subcommands
-----------
eval       evaluate a formula against an environment, print a labeled table
plot-data  CSV of p-sums/p-means/extrema of an atom over a p grid
softmax    soft normalization of an atom's values at a given p
entropy    order-p entropy and diversity of a unitary atom
doctrine   run one of the entailment diagnostics (reflexivity, adjunction,
           transitivity-search, laxity)
translate  rewrite a formula into the other carrier

Values (``--p``, ``t=``, the ends of ``--grid``) are read by ``parse_value``,
and counts and seeds as ASCII-digit integers;
``eval`` types each free variable by the first atom argument naming it and
leaves every check to ``evaluate``, so faults carry the library's codes.

Exit codes: 0 success (or: the doctrine check came out as expected),
1 input/usage error or failed output write (OUTPUT_IO), 2 doctrine check
mismatch.
"""

from __future__ import annotations

import argparse
import math
import re
import sys

from .entailment import (
    adjunction_check,
    canned_laxity_instances,
    canned_transitivity_witness,
    laxity_check,
    reflexivity_check,
    transitivity_search,
)
from .environment import Environment, load_environment, translate_environment
from .errors import QuantLogicError
from .extreal import INF, VALUE_LITERAL, napier_inv, parse_value, spell_value
from .formulas import (
    Atom,
    Context,
    Formula,
    format_formula,
    parse,
    translate_formula,
    walk,
)
from .pmeans import ValueVector, exists_p, forall_p, kahan_sum, p_mean, p_sum
from .semantics import (
    Separator,
    cast_predicate,
    definite_separator,
    evaluate,
    principal_separator,
    unitary_separator,
)
from .spaces import Space, normalize, uniform_space
from .stats import Distribution, hill_diversity, renyi_entropy, softmax_p


def _fmt(v: float) -> str:
    """12 significant digits; infinities as bare tokens."""
    return spell_value(v, "%.12g")


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage, which this tool reserves
    # for doctrine mismatches; remap usage errors to 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        raise QuantLogicError("USAGE", message)

    # argparse takes a word that starts with "-" for an option; one that begins
    # with a value literal (-inf, -1e3, the grid -1:1:3) is an argument.
    def _parse_optional(self, arg_string):
        if VALUE_LITERAL.match(arg_string):
            return None
        return super()._parse_optional(arg_string)


# Counts and seeds: the integer part of extreal.VALUE_LITERAL, in ASCII digits
# (int() would also take "+3", "1_0" and other scripts' digits).
_INTEGER = re.compile(r"-?[0-9]+")


def _integer(text: str) -> int:
    if not _INTEGER.fullmatch(text):
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    return int(text)


def _positive_int(text: str) -> int:
    n = _integer(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return n


def _parse_separator(text: str) -> Separator:
    if text == "unitary":
        return unitary_separator()
    if text == "definite":
        return definite_separator()
    if text.startswith("t="):
        return principal_separator(parse_value(text[2:]))
    raise QuantLogicError("INVALID_SEPARATOR",
                          f"expected unitary, definite or t=<value>, got {text!r}")


def _parse_grid(text: str) -> list[float]:
    try:
        lo, hi, n = text.split(":")
        lo, hi, n = parse_value(lo), parse_value(hi), _integer(n)
    except (QuantLogicError, ValueError, argparse.ArgumentTypeError):
        raise QuantLogicError("GRID_FORMAT", f"grid must be lo:hi:n, got {text!r}") from None
    if n < 1 or not math.isfinite(lo) or not math.isfinite(hi):
        raise QuantLogicError("GRID_FORMAT", "need finite lo, hi and n >= 1")
    if n == 1:
        return [lo]
    step = (hi - lo) / (n - 1)
    return [lo + i * step for i in range(n)]


def _infer_context(formula: Formula, env: Environment) -> Context:
    """Type each free variable by the first known atom argument naming it.
    Raises nothing: evaluate reports every fault, the first in pre-order."""
    found: dict[str, Space] = {}
    for f, bound in walk(formula):
        if isinstance(f, Atom) and f.name in env.atoms:
            for arg, space_name in zip(f.args, env.atoms[f.name].context):
                if arg not in bound:
                    found.setdefault(arg, env.spaces[space_name])
    return Context(tuple(found.items()))


def _atom_vector(env: Environment, atom: str, space: str | None = None) -> ValueVector:
    if atom not in env.atoms:
        raise QuantLogicError("UNKNOWN_ATOM", f"atom {atom!r} not in environment")
    table = env.atoms[atom]
    if len(table.context) != 1:
        raise QuantLogicError("ATOM_ARITY",
                              f"atom {atom!r} must range over exactly one space")
    if space is not None and table.context[0] != space:
        raise QuantLogicError("ATOM_ARITY",
                              f"atom {atom!r} ranges over {table.context[0]!r}, "
                              f"not {space!r}")
    return ValueVector(env.spaces[table.context[0]], table.values)


def _pick_space(env: Environment, name: str | None) -> Space:
    if name is not None:
        if name not in env.spaces:
            raise QuantLogicError("UNKNOWN_SPACE", f"space {name!r} not in environment")
        return env.spaces[name]
    if not env.spaces:
        raise QuantLogicError("UNKNOWN_SPACE", "environment declares no spaces")
    return next(iter(env.spaces.values()))


def _cmd_eval(args) -> int:
    env = load_environment(args.env)
    formula = parse(args.formula)
    mode = args.mode or env.mode
    if mode != env.mode:
        env = translate_environment(env)
        formula = translate_formula(formula, f"to_{mode}")
    ctx = _infer_context(formula, env)
    pred = evaluate(formula, ctx, env)
    sep = _parse_separator(args.separator) if args.separator else None
    casts = cast_predicate(sep, pred) if sep else None
    print(f"# {format_formula(formula)} [{mode}]")
    for i, (labels, value) in enumerate(pred.rows()):
        label = ",".join(labels) if labels else "()"
        line = f"{label}\t{_fmt(value)}"
        if casts is not None:
            line += "\t" + ("true" if casts[i] else "false")
        print(line)
    return 0


def _cmd_plot_data(args) -> int:
    env = load_environment(args.env)
    vec = _atom_vector(env, args.atom, args.space)
    grid = _parse_grid(args.grid)
    hi, lo = p_mean(exists_p(INF), vec), p_mean(forall_p(INF), vec)
    # every row is built before the header, so a grid point that fails
    # (p = 0 has no p-sum) leaves stdout empty
    rows = [[p, p_sum(exists_p(p), vec.values), p_sum(forall_p(p), vec.values),
             p_mean(exists_p(p), vec), p_mean(forall_p(p), vec), hi, lo] for p in grid]
    print("p,psum_pos,psum_neg,pmean_pos,pmean_neg,max,min")
    for row in rows:
        print(",".join(_fmt(v) for v in row))
    return 0


def _cmd_softmax(args) -> int:
    env = load_environment(args.env)
    vec = _atom_vector(env, args.atom)
    out = softmax_p(vec, args.p)
    for label, value in zip(vec.space.points, out):
        print(f"{label}\t{_fmt(value)}")
    integral = kahan_sum(w * s for w, s in zip(vec.space.weights, out) if w > 0.0)
    print(f"integral={_fmt(integral)}")
    return 0


def _cmd_entropy(args) -> int:
    env = load_environment(args.env)
    vec = _atom_vector(env, args.atom)
    phi = Distribution(vec.space, vec.values)
    h = renyi_entropy(phi, args.p)
    d = hill_diversity(phi, args.p)
    print(f"H={spell_value(h, '%.12f')}, D={spell_value(d, '%.12f')}")
    exp_h = napier_inv(-h)
    gap = 0.0 if exp_h == d else abs(exp_h - d)
    print(f"check exp(H)={_fmt(exp_h)} D={_fmt(d)} gap={_fmt(gap)}")
    return 0


def _print_report(report) -> None:
    print(f"check={report.check} lhs={_fmt(report.lhs)} rhs={_fmt(report.rhs)} "
          f"gap={_fmt(report.gap)} verdict={report.verdict}")
    for key, value in sorted(report.details.items()):
        if isinstance(value, tuple) and all(isinstance(v, float) for v in value):
            value = "(" + ", ".join(_fmt(v) for v in value) + ")"
        print(f"  {key}: {value}")


def _cmd_doctrine(args) -> int:
    env = load_environment(args.env)
    if args.check == "reflexivity":
        space = _pick_space(env, args.space)
        if args.atom is not None:
            phi = _atom_vector(env, args.atom, space.name).values
        else:
            phi = (1.0,) * len(space)
        report = reflexivity_check(space, phi, args.p)
        _print_report(report)
        ok = report.holds
    elif args.check == "adjunction":
        import random
        rng = random.Random(args.seed)
        space_i = normalize(_pick_space(env, args.space))
        space_k = normalize(_pick_space(env, args.space2)) \
            if args.space2 else uniform_space(4, name="K")
        worst = 0.0
        ok = True
        for _ in range(args.trials):
            rho = tuple(rng.uniform(0.01, 10.0)
                        for _ in range(len(space_i) * len(space_k)))
            psi = tuple(rng.uniform(0.01, 10.0) for _ in range(len(space_i)))
            report = adjunction_check(space_i, space_k, rho, psi, args.p)
            worst = max(worst, abs(report.gap))
            ok = ok and report.holds
        print(f"check=adjunction trials={args.trials} max|gap|={_fmt(worst)} "
              f"verdict={'holds' if ok else 'violated'}")
    elif args.check == "transitivity-search":
        space = _pick_space(env, args.space) if args.space is not None \
            else canned_transitivity_witness()[0]
        report = transitivity_search(space, args.p, args.trials, args.seed)
        _print_report(report)
        ok = report.verdict == "violated"
    else:  # laxity: argparse's choices admit no other check
        ok = True
        for direction, mapping, phi, psi in canned_laxity_instances():
            report = laxity_check(mapping, phi, psi)
            print(f"instance={direction}", end=" ")
            _print_report(report)
            ok = ok and report.details[f"{direction}_fails"]
    # "ok" already encodes the expected outcome per check: positive checks
    # must hold, counterexample checks must actually produce a violation.
    return 0 if ok else 2


def _cmd_translate(args) -> int:
    formula = parse(args.formula)
    print(format_formula(translate_formula(formula, f"to_{args.mode}")))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="quantlogic",
                     description="quantitative predicate logic toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_env(p):
        p.add_argument("--env", required=True, help="environment JSON path")

    p_eval = sub.add_parser("eval", help="evaluate a formula")
    add_env(p_eval)
    p_eval.add_argument("formula")
    p_eval.add_argument("--mode", choices=("mul", "add"))
    p_eval.add_argument("--separator",
                        help="unitary | definite | t=<value>; adds a Boolean column")

    p_plot = sub.add_parser("plot-data", help="p-sum/p-mean CSV over a p grid")
    add_env(p_plot)
    p_plot.add_argument("atom")
    p_plot.add_argument("space", nargs="?")
    p_plot.add_argument("--grid", default="0.25:8:32", help="lo:hi:n")

    p_soft = sub.add_parser("softmax", help="soft normalization of an atom")
    add_env(p_soft)
    p_soft.add_argument("atom")
    p_soft.add_argument("--p", type=parse_value, default=1.0)

    p_ent = sub.add_parser("entropy", help="order-p entropy and diversity")
    add_env(p_ent)
    p_ent.add_argument("atom")
    p_ent.add_argument("--p", type=parse_value, default=1.0)

    p_doc = sub.add_parser("doctrine", help="entailment diagnostics")
    add_env(p_doc)
    p_doc.add_argument("check", choices=("reflexivity", "adjunction",
                                         "transitivity-search", "laxity"))
    p_doc.add_argument("--p", type=parse_value, default=1.0)
    p_doc.add_argument("--seed", type=_integer, default=0)
    p_doc.add_argument("--trials", type=_positive_int, default=100)
    p_doc.add_argument("--atom")
    p_doc.add_argument("--space")
    p_doc.add_argument("--space2")

    p_tr = sub.add_parser("translate", help="rewrite a formula into the other carrier")
    p_tr.add_argument("formula")
    p_tr.add_argument("--mode", choices=("mul", "add"), required=True,
                      help="target carrier")
    return parser


_COMMANDS = {
    "eval": _cmd_eval,
    "plot-data": _cmd_plot_data,
    "softmax": _cmd_softmax,
    "entropy": _cmd_entropy,
    "doctrine": _cmd_doctrine,
    "translate": _cmd_translate,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except QuantLogicError as exc:
        print(f"error[{exc.code}]: {exc.message}", file=sys.stderr)
        return 1
    except OSError as exc:  # load_environment reports its own, so this one is writing output
        print(f"error[OUTPUT_IO]: cannot write the output: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
