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

Before the fold, each quantifier is moved past the operations whose other
operand does not name its variable (``_pushdown``), by one fixed set of rules,
each a law that holds at every value (``_PUSHDOWN_RULES``): a quantifier over
``u(x) -o u(xstar)`` becomes ``(E^1_x u(x)) -o u(xstar)``, so its table takes
n cells rather than n².  The rules change results by rounding only, never at
the corners, and a formula none of them applies to is folded as it stands.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .environment import Environment
from .errors import QuantLogicError
from .extreal import INF, NAN, MulReal, _check_instance, check_add, check_mul
from .formulas import (Atom, Binders, BinOp, Context, Div, Dual, Formula, Quant, Scalar,
                       _check_walk, _fold, rebuild, walk)
from .pmeans import MUL, Polarity, add_quantifier, carrier  # noqa: F401 (re-export)


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


# --------------------------------------------------------------------------
# quantifier pushdown
# --------------------------------------------------------------------------

# The rule set of _pushdown: each operation a quantifier Q^p_y moves past, and
# whether it moves at p = 0 as well as at every p in (0, inf].  Each rule is a
# "holds" cell of the law table in tests/test_laws.py.
_PUSHDOWN_RULES = {"tensor": False, "cotensor": False, "div": False, "dual": True,
                   "scalar": True}
_KINDS = {Div: "div", Dual: "dual", Scalar: "scalar"}
_OTHER = {Polarity.EXISTENTIAL: Polarity.UNIVERSAL, Polarity.UNIVERSAL: Polarity.EXISTENTIAL}


def _movable(node: Formula) -> bool | None:
    """Whether a quantifier moves past node at p = 0 as well as at p > 0, by
    ``_PUSHDOWN_RULES``; None if it does not move past node at all."""
    if type(node) is BinOp:  # the operator's value, read past the enum's property
        return _PUSHDOWN_RULES.get(node.op._value_)
    return _PUSHDOWN_RULES.get(_KINDS.get(type(node)))


def _pushdown(f: Formula) -> Formula:
    """f with each quantifier moved past the operands that do not name its
    variable, as far as the rules of ``_PUSHDOWN_RULES`` go; f itself where
    none fires.

    With Q̄ the other polarity and φ an operand in which no atom names y:

    * Q^p_y(φ (x) ψ) -> φ (x) Q^p_y ψ, and the same for (x*), φ on either side;
    * Q^p_y(φ -o ψ) -> φ -o Q^p_y ψ, and Q^p_y(ψ -o φ) -> (Q̄^p_y ψ) -o φ;
    * Q^p_y(ψ^*) -> (Q̄^p_y ψ)^*;
    * Q^p_y(k . ψ) -> k . Q^(k·p)_y ψ, for k > 0, where p is 0 or inf or
      k·p is in (0, inf).

    The first two hold at every p in (0, inf] (Frobenius reciprocity: each
    p-mean is homogeneous of degree 1), the last two at every p.  A moved
    quantifier is rewritten again until no rule fires, and the inner
    quantifiers first, so one pass reaches the fixed point.  The tree is the
    walk ``_pushed_walk`` gives, folded by rebuilding each node over the
    operands it has there.
    """
    return _fold(_pushed_walk(walk(f)), lambda node, _, kids: rebuild(node, kids))


def _pushed_walk(walked: list, quants: list | None = None) -> list:
    """The walk of ``_pushdown`` of the formula whose walk is ``walked``
    (``walked`` itself where no rule fires), given the indices of its
    quantifiers there, if found already.

    Each quantifier, the last first, moves by moving entries of the walk:
    past ``^*`` or ``k .``, or into a left operand, it swaps with the node
    below it; into a right operand it steps over the left one.  Each entry
    keeps its node and its binders, and only a quantifier that moved gets a
    new node.  So a node's kids are still those of the formula as written,
    and the walk is one to fold (``_fold`` takes the operands from the walk
    order), not to read trees from.  A node a quantifier moved below keeps
    that quantifier's variable among its binders; no table there spans it,
    so the variables a table spans come in the same order.

    One scan back records the length of each subformula and the variables its
    atoms name (a bit each).  A move moves these records with their entries,
    and a quantifier names no atom, so they stay true and each step is a
    lookup: the pass is linear in the walk, plus one shift of each entry of
    a left operand a quantifier steps over.
    """
    if quants is None:
        quants = [i for i, (node, _) in enumerate(walked) if type(node) is Quant]
    for first in quants:  # the first quantifier that can move
        if _movable(walked[first + 1][0]) is not None:
            break
    else:
        return walked
    while first and type(walked[first - 1][0]) is Quant:
        first -= 1
    bit: dict[str, int] = {}
    for q in quants:
        if q >= first:
            bit.setdefault(walked[q][0].var, 1 << len(bit))
    # sizes[i]: the length of the subformula at i; names[i]: the bits of the
    # variables its atoms name
    sizes, names = [1] * len(walked), [0] * len(walked)
    for i in range(len(walked) - 1, first - 1, -1):
        node = walked[i][0]
        n = len(node._kids)
        if n == 2:
            j = i + 1 + sizes[i + 1]  # the second operand's index
            sizes[i], names[i] = sizes[i + 1] + sizes[j] + 1, names[i + 1] | names[j]
        elif n:
            sizes[i], names[i] = sizes[i + 1] + 1, names[i + 1]
        elif type(node) is Atom:
            for v in node.args:
                names[i] |= bit.get(v, 0)
    out = walked
    for q in reversed(quants):
        if q < first:
            break
        (node, bound), i = walked[q], q
        polarity, p, y = node.polarity, check_add(node.magnitude), bit[node.var]
        while True:
            body, right = out[i + 1][0], False
            rule = _movable(body)
            if rule is None or p == 0.0 and not rule:
                break
            if type(body) is Scalar:
                k = check_add(body.factor)
                if not (k > 0.0 and (p == 0.0 or p == INF or 0.0 < k * p < INF)):
                    break
                p = k * p
            elif type(body) is Dual:
                polarity = _OTHER[polarity]
            elif not names[i + 2] & y:  # φ on the left: the quantifier enters the right
                right = True
            elif not names[i + 2 + sizes[i + 2]] & y:
                polarity = _OTHER[polarity] if type(body) is Div else polarity
                sizes[i + 1], names[i + 1] = sizes[i + 2] + 1, names[i + 2]
            else:
                break
            if out is walked:
                out = walked[:]
            if right:
                mid = i + 2 + sizes[i + 2]
                out[i:mid] = [out[i + 1], *out[i + 2:mid], out[i]]
                sizes[i + 1:mid] = [*sizes[i + 2:mid], sizes[mid] + 1]
                names[i + 1:mid] = [*names[i + 2:mid], names[mid]]
                i = mid - 1
            else:
                out[i], out[i + 1] = out[i + 1], out[i]
                i += 1
        if i != q:
            out[i] = Quant(polarity, p, node.var, node.space, node.body), bound
    return out


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

    The walk folded is ``_pushed_walk``'s, which spells ``_pushdown(f)``,
    taken once f has been checked: f's own walk where no rule fires.  No
    fault of f's is lost or reordered: the static ones are found on f, and
    the only one the fold raises, a quantified space of empty support, is
    raised by folding f itself.
    """
    if isinstance(env, Environment) and mode not in (None, env.mode):
        raise QuantLogicError("CARRIER_MISMATCH",
                              f"eval_{mode} needs an environment in {mode!r} mode")
    walked = walk(f)  # one pre-order pass, to validate and then to evaluate
    quants = _check_walk(walked, ctx, env)
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

    def table(walked: list) -> tuple:
        return tuple(_widen(_fold(walked, node_value), names, sizes))

    pushed = _pushed_walk(walked, quants)
    if pushed is not walked:
        try:
            return Predicate(ctx, c.mode, table(pushed))
        except QuantLogicError:  # a space of empty support: raised as f's own order meets it
            pass
    return Predicate(ctx, c.mode, table(walked))


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
    t = _check_instance(s, Separator, "a Separator").threshold
    return check_mul(v) >= t


def cast_predicate(s: Separator, pred: Predicate) -> tuple[bool, ...]:
    """Pointwise cast; additive tables are cast through napier_inv."""
    s = _check_instance(s, Separator, "a Separator")
    c = carrier(_check_instance(pred, Predicate, "a Predicate").carrier)
    values = pred.table if c is MUL else c.napier_table(pred.table)
    t = s.threshold
    return tuple([v >= t for v in values])  # separator_cast of each cell
