"""Evaluation of formulas to predicates, and separators (truth casts).

A formula in context denotes a table of carrier values, one per tuple of
points (row-major, last variable fastest).  One evaluator serves both
carriers, reading each node's meaning from the carrier's record; the additive
record has its own operations, and the shared quantifier kernel reads
additive values as they are rather than round-tripping through the
multiplicative side, which is what makes the napier-coherence property an
actual check instead of a tautology.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .environment import Environment
from .errors import QuantLogicError
from .extreal import INF, MulReal
from .formulas import (Atom, Binders, BinOp, Context, Div, Dual, Formula, Quant,
                       check_wellformed, fold, walk)
from .pmeans import MUL, add_quantifier, carrier  # noqa: F401 (re-export)


@dataclass(frozen=True)
class Predicate:
    """A carrier-valued table over a context (row-major)."""

    context: Context
    carrier: str  # "mul" | "add"
    table: tuple[float, ...]

    def __len__(self) -> int:
        return len(self.table)

    def rows(self):
        """Yield (point-label tuple, value) pairs in table order."""
        axes = [s.points for _, s in self.context.entries]
        for labels, v in zip(itertools.product(*axes), self.table):
            yield labels, v


# --------------------------------------------------------------------------
# evaluation
# --------------------------------------------------------------------------

def _atom_table(f: Atom, names: tuple, sizes: tuple, env: Environment) -> list[float]:
    """f's values over the variables names (of the given sizes), row-major.

    A variable steps through the atom's table by the sum of the strides of the
    argument positions that name it (r(x, x) walks the diagonal), so the table
    is one slice of the atom's values per row of the outer variables.
    """
    table = env.atoms[f.name]
    stride = dict.fromkeys(names, 0)
    step = 1
    for arg, space in zip(reversed(f.args), reversed(table.context)):
        stride[arg] += step
        step *= len(env.spaces[space])
    values = table.values
    if not names:
        return [values[0]]
    *outer, last = [(stride[v], n) for v, n in zip(names, sizes)]
    starts = [0]
    for s, n in outer:
        starts = [i + s * k for i in starts for k in range(n)]
    s, n = last
    out: list[float] = []
    if s:
        for i in starts:
            out += values[i:i + s * n:s]
    else:
        for i in starts:
            out += [values[i]] * n
    return out


def _evaluate(f: Formula, ctx: Context, env: Environment, mode: str) -> Predicate:
    """The table of f over ctx in one carrier, each node's built from its children's."""
    if env.mode != mode:
        raise QuantLogicError("CARRIER_MISMATCH",
                              f"eval_{mode} needs an environment in {mode!r} mode")
    walked = walk(f)  # one pre-order pass, to validate and then to evaluate
    check_wellformed(f, ctx, env, walked)
    c = carrier(mode)
    names, sizes = ctx.names(), ctx.sizes()

    def node_table(node: Formula, bound: Binders, kids: list) -> list[float]:
        if not kids:  # a leaf: Atom or Const
            here = sizes + tuple([len(env.spaces[s]) for s in bound.values()])
            if isinstance(node, Atom):
                return _atom_table(node, names + tuple(bound), here, env)
            value = node.value
            value = c.constants[value] if isinstance(value, str) else c.check(value)
            return [value] * math.prod(here)
        if isinstance(node, BinOp):
            return c.ops[node.op](*kids)
        if isinstance(node, Quant):
            space = env.spaces[node.space]
            return c.quantifier(node.polarity, node.magnitude, space)(kids[0])
        if isinstance(node, Div):
            return c.div(*kids)
        if isinstance(node, Dual):
            return c.dual(kids[0])
        return c.scalar(node.factor, kids[0])  # the node is a Scalar

    return Predicate(ctx, mode, tuple(fold(f, node_table, walked)))


def eval_mul(f: Formula, ctx: Context, env: Environment) -> Predicate:
    """Evaluate in the multiplicative carrier ([0, inf] tables)."""
    return _evaluate(f, ctx, env, "mul")


def eval_add(f: Formula, ctx: Context, env: Environment) -> Predicate:
    """Evaluate in the additive carrier ([-inf, inf] tables, reversed order)."""
    return _evaluate(f, ctx, env, "add")


def evaluate(f: Formula, ctx: Context, env: Environment) -> Predicate:
    """Evaluate in whichever carrier the environment declares."""
    return _evaluate(f, ctx, env, env.mode)


# --------------------------------------------------------------------------
# separators
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Separator:
    """A truth cast: the upward-closed, tensor-closed sets [t, inf] of [0, inf].

    ``threshold`` 0 is the inconsistent separator (the whole carrier, so
    everything casts to True); otherwise it must be at least 1, because
    [t, inf] with t in (0, 1) is not closed under tensor (t*t < t).
    """

    threshold: float

    def __post_init__(self):
        if not (self.threshold == 0.0 or self.threshold >= 1.0):
            raise QuantLogicError("INVALID_THRESHOLD",
                                  f"thresholds are 0 or at least 1, got {self.threshold!r}")


def inconsistent_separator() -> Separator:
    return Separator(0.0)


def unitary_separator() -> Separator:
    """[1, inf]: everything at least as true as the tensor unit."""
    return Separator(1.0)


def definite_separator() -> Separator:
    """[inf, inf]: only full truth passes."""
    return Separator(INF)


def principal_separator(t: float) -> Separator:
    """[t, inf] for a threshold t >= 1."""
    t = float(t)
    if not t >= 1.0:
        raise QuantLogicError("INVALID_THRESHOLD",
                              f"principal separators need a threshold >= 1, got {t!r}")
    return Separator(t)


def separator_cast(s: Separator, v: MulReal) -> bool:
    return v >= s.threshold


def cast_predicate(s: Separator, pred: Predicate) -> tuple[bool, ...]:
    """Pointwise cast; additive tables are cast through napier_inv."""
    c = carrier(pred.carrier)
    values = pred.table if c is MUL else c.napier_table(pred.table)
    return tuple(separator_cast(s, v) for v in values)
