"""Evaluation of formulas to predicates, and separators (truth casts).

A formula in context denotes a table of carrier values, one per tuple of
points (row-major, last variable fastest).  Inside the evaluator each node's
table spans only the node's free variables, and it is widened to more of them
by reindexing along the projection: a strided gather (``_gather``), the same
one that reads an atom's table through its arguments.  The root's table is
widened to the whole context.  One evaluator serves both carriers, reading
each node's meaning from the carrier's record; the additive record has its
own operations, and the shared quantifier kernel reads additive values as
they are rather than round-tripping through the multiplicative side, which is
what makes the napier-coherence property an actual check instead of a
tautology.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .environment import Environment
from .errors import QuantLogicError
from .extreal import INF, NAN, MulReal, check_add
from .formulas import (Atom, Binders, BinOp, Context, Dual, Formula, Quant, _check_walk, _fold,
                       walk)
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

def _gather(values, strides, sizes) -> list[float]:
    """The table over variables of the given sizes (row-major) whose cell at
    indices (i_1, ..., i_k) is values[strides_1 * i_1 + ... + strides_k * i_k].

    Reading an atom's table through its arguments is such a gather (r(x, x)
    steps by the sum of both argument strides: the diagonal), and so is
    widening a table by variables it does not name (stride 0).  It takes one
    slice of values per row of the outer variables.
    """
    *outer, (s, n) = zip(strides, sizes)
    starts = [0]
    for t, m in outer:
        starts = [i + t * k for i in starts for k in range(m)]
    out: list[float] = []
    if s:
        for i in starts:
            out += values[i:i + s * n:s]
    else:
        for i in starts:
            out += [values[i]] * n
    return out


def _widen(value: tuple, names: tuple, sizes: tuple):
    """The table of a value (its variables, their sizes, its table) over the
    variables names, of the given sizes, which include the value's own.

    The value's variables may come in any order and repeat, as an atom's
    arguments do: a variable steps by the sum of its positions' strides.
    """
    own, own_sizes, table = value
    if own == names:
        return table
    stride, step = {}, 1
    for v, n in zip(reversed(own), reversed(own_sizes)):
        stride[v] = stride.get(v, 0) + step
        step *= n
    return _gather(table, [stride.get(v, 0) for v in names], sizes)


def _evaluate(f: Formula, ctx: Context, env: Environment, mode: str | None) -> Predicate:
    """The table of f over ctx in the carrier mode (None: the environment's),
    each node's built from its children's.

    A node's value is (its free variables, their sizes, its table), the
    variables ordered as the context and then the binders, outermost first.
    An atom spans the variables it names, and a constant is one cell.  A
    binary node spans the union of its children's variables, widening a child
    only where the two differ.  A quantifier's variable is innermost in its
    body, so the body's table is one chunk per row; a body that omits the
    variable is widened by it first.
    """
    if isinstance(env, Environment) and mode not in (None, env.mode):
        raise QuantLogicError("CARRIER_MISMATCH",
                              f"eval_{mode} needs an environment in {mode!r} mode")
    walked = walk(f)  # one pre-order pass, to validate and then to evaluate
    _check_walk(walked, ctx, env)
    c = carrier(env.mode)
    names, sizes = ctx.names(), ctx.sizes()

    def span(bound: Binders, size: dict) -> tuple[tuple, tuple]:
        """The variables of size, in order, and their sizes."""
        own = tuple([v for v in names + tuple(bound) if v in size])
        return own, tuple([size[v] for v in own])

    def node_value(node: Formula, bound: Binders, kids: list) -> tuple:
        if not kids:
            if not isinstance(node, Atom):  # a Const
                return (), (), [c.check(c.constants.get(node.value, node.value))]
            table, args = env.atoms[node.name], node.args
            arg_sizes = tuple([len(env.spaces[s]) for s in table.context])
            if len(args) < 2:  # one variable or none: the table as it is
                return args, arg_sizes, table.values
            own, own_sizes = span(bound, dict(zip(args, arg_sizes)))
            return own, own_sizes, _widen((args, arg_sizes, table.values), own, own_sizes)
        if len(kids) == 2:  # a BinOp or a Div
            (a, a_sizes, x), (b, b_sizes, y) = kids
            if a != b:
                a, a_sizes = span(bound, {**dict(zip(a, a_sizes)), **dict(zip(b, b_sizes))})
                x, y = _widen(kids[0], a, a_sizes), _widen(kids[1], a, a_sizes)
            return a, a_sizes, c.ops[node.op](x, y) if isinstance(node, BinOp) else c.div(x, y)
        own, own_sizes, table = kids[0]
        if isinstance(node, Quant):  # numbers read as _check_walk has read them
            space = env.spaces[node.space]
            if own and own[-1] == node.var:
                own, own_sizes = own[:-1], own_sizes[:-1]
            else:
                table = _widen(kids[0], own + (node.var,), own_sizes + (len(space),))
            quantify = c.quantifier(node.polarity, check_add(node.magnitude), space)
            return own, own_sizes, quantify(table)
        if isinstance(node, Dual):
            return own, own_sizes, c.dual(table)
        return own, own_sizes, c.scalar(check_add(node.factor), table)  # a Scalar

    return Predicate(ctx, c.mode, tuple(_widen(_fold(walked, node_value), names, sizes)))


def eval_mul(f: Formula, ctx: Context, env: Environment) -> Predicate:
    """Evaluate in the multiplicative carrier ([0, inf] tables)."""
    return _evaluate(f, ctx, env, "mul")


def eval_add(f: Formula, ctx: Context, env: Environment) -> Predicate:
    """Evaluate in the additive carrier ([-inf, inf] tables, reversed order)."""
    return _evaluate(f, ctx, env, "add")


def evaluate(f: Formula, ctx: Context, env: Environment) -> Predicate:
    """Evaluate in whichever carrier the environment declares."""
    return _evaluate(f, ctx, env, None)


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
        try:
            t = check_add(self.threshold)
        except QuantLogicError:
            t = NAN
        if not (t == 0.0 or t >= 1.0):
            raise QuantLogicError("INVALID_THRESHOLD",
                                  f"thresholds are 0 or at least 1, got {self.threshold!r}")
        object.__setattr__(self, "threshold", t)


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
    try:
        if (s := Separator(t)).threshold >= 1.0:
            return s
    except QuantLogicError:
        pass
    raise QuantLogicError("INVALID_THRESHOLD",
                          f"principal separators need a threshold >= 1, got {t!r}")


def separator_cast(s: Separator, v: MulReal) -> bool:
    return v >= s.threshold


def cast_predicate(s: Separator, pred: Predicate) -> tuple[bool, ...]:
    """Pointwise cast; additive tables are cast through napier_inv."""
    c = carrier(pred.carrier)
    values = pred.table if c is MUL else c.napier_table(pred.table)
    return tuple(separator_cast(s, v) for v in values)
