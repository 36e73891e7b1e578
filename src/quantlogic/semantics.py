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
from bisect import bisect_right
from dataclasses import dataclass
from heapq import heappop, heappush

from .environment import Environment
from .errors import QuantLogicError
from .extreal import INF, NAN, MulReal, _check_instance, check_add
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
    quantifiers first, so one pass reaches the fixed point.
    """
    return _pushed_walk(walk(f))[0][0]


def _pushed_walk(walked: list, quants: list | None = None) -> list:
    """The walk of ``_pushdown`` of the formula whose walk is ``walked``
    (``walked`` itself where no rule fires), given the indices of its
    quantifiers there, if found already.

    A quantifier can move only if its body (the next node in the walk) is one
    of the operations the rules move it past, or, once that one has moved, a
    quantifier that can.  Only the stretch of the walk below each outermost
    such quantifier is rewritten, and its walk spliced in; the nodes above it
    are rebuilt, and the rest of the walk is kept as it is.
    """
    if quants is None:
        quants = [i for i, (node, _) in enumerate(walked) if type(node) is Quant]
    pushed, end, starts = walked, 0, []
    for q in quants:
        if q < end or _movable(walked[q + 1][0]) is None:
            continue
        start = q
        while start and type(walked[start - 1][0]) is Quant:  # the quantifier whose body it is
            start -= 1
        end = _end(walked, start)
        g = _rewrite(walked, start, end)
        if g is not walked[start][0]:
            pushed = walked[:] if pushed is walked else pushed
            pushed[start:end] = walk(g, walked[start][1])
            starts.append(start)
    if not starts:
        return walked
    # Rebuild the nodes above the rewritten stretches in one scan back.  With
    # R the sum of (operands - 1) over the nodes scanned, a node waiting for
    # its parent, at c, finds it at the first i < c where R reaches its value
    # at c, as operand (operands of i - 1) - (R(i) - R(c)).
    waiting: list[tuple[int, int]] = []  # (R at the node, its index), a heap
    total = 0
    for i in range(starts[-1], -1, -1):
        node, bound = pushed[i]
        n = len(node._kids)
        total += n - 1
        rewritten = bool(starts) and starts[-1] == i  # a rewritten stretch starts here
        if rewritten:
            starts.pop()
        kids = None
        while waiting and waiting[0][0] <= total:  # the operands of i that changed
            r, c = heappop(waiting)
            kids = kids or [getattr(node, name) for name in node._kids]
            kids[n - 1 - (total - r)] = pushed[c][0]
        if kids:
            pushed[i] = rebuild(node, kids), bound
        if kids or rewritten:
            heappush(waiting, (total, i))
    return pushed


def _end(walked: list, i: int) -> int:
    """The index in a pre-order walk just past the subformula at index i."""
    open_ = 1
    while open_:
        open_ += len(walked[i][0]._kids) - 1
        i += 1
    return i


def _rewrite(walked: list, start: int, stop: int) -> Formula:
    """The subformula at ``start`` of a walk, which ends at ``stop``, with its
    quantifiers moved, inner ones first.

    The stretch is read from the walk, each node after its operands, and no
    subformula field is read unless a rule fires.  A rewrite keeps the atoms
    of each operand, so whether an operand names y is read off the stretch
    the operand held in the walk; ``built`` maps each node the pass builds to
    the index of the node it stands for.
    """
    # ends[i - start]: the index just past the subformula at i.  at[v]: the
    # negated indices of the atoms naming v, ascending.
    ends, at, built = [0] * (stop - start), {}, {}

    def names(i: int, var: str) -> bool:
        """Whether an atom of the subformula at i names var."""
        negated = at.get(var, ())
        k = bisect_right(negated, -ends[i - start])
        return k < len(negated) and negated[k] <= -i

    def push(q: Quant, i: int, body: Formula) -> Formula:
        """The quantifier at i over its rewritten body, moved down it."""
        polarity, p, var, moved = q.polarity, check_add(q.magnitude), q.var, []
        b = built[id(body)][1] if id(body) in built else i + 1  # the index body stands for
        while True:
            rule = _movable(body)
            if rule is None or p == 0.0 and not rule:
                break
            if type(body) is Scalar:
                k = check_add(body.factor)
                if not (k > 0.0 and (p == 0.0 or p == INF or 0.0 < k * p < INF)):
                    break
                p, k = k * p, 0
            elif type(body) is Dual:
                polarity, k = _OTHER[polarity], 0
            elif not names(b + 1, var):  # φ on the left: the quantifier enters the right
                k = 1
            elif not names(ends[b + 1 - start], var):
                polarity, k = _OTHER[polarity] if type(body) is Div else polarity, 0
            else:
                break
            moved.append((body, b, k))
            body = getattr(body, body._kids[k])
            b = built[id(body)][1] if id(body) in built else ends[b + 1 - start] if k else b + 1
        if not moved:  # it stays, over its body as rewritten
            if body is not walked[i + 1][0]:
                q = rebuild(q, [body])
                built[id(q)] = q, i
            return q
        out = Quant(polarity, p, var, q.space, body)
        for node, b, k in reversed(moved):
            kids = [getattr(node, name) for name in node._kids]
            kids[k] = out
            out = rebuild(node, kids)
            built[id(out)] = out, b
        return out

    done: list[Formula] = []  # the rewritten operands not yet used, leftmost on top
    for i in range(stop - 1, start - 1, -1):  # each node after its operands
        node = walked[i][0]
        n = len(node._kids)
        if not n:
            ends[i - start] = i + 1
            if type(node) is Atom:
                for v in node.args:
                    at.setdefault(v, []).append(-i)
            done.append(node)
            continue
        kids = done[:-n - 1:-1]
        del done[-n:]
        j = ends[i + 1 - start]  # the second operand's index, or the node's end
        ends[i - start] = ends[j - start] if n == 2 else j
        if type(node) is Quant:
            node = push(node, i, kids[0])
        elif kids[0] is not walked[i + 1][0] or n == 2 and kids[1] is not walked[j][0]:
            node = rebuild(node, kids)
            built[id(node)] = node, i
        done.append(node)
    return done[0]


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

    The walk folded is that of ``_pushdown(f)`` (``_pushed_walk``), taken once
    f has been checked: f's own walk where no rule fires.  No fault of f's is
    lost or reordered: the static ones are found on f, and the only one the
    fold raises, a quantified space of empty support, is raised by folding f
    itself.
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
    return v >= s.threshold


def cast_predicate(s: Separator, pred: Predicate) -> tuple[bool, ...]:
    """Pointwise cast; additive tables are cast through napier_inv."""
    s = _check_instance(s, Separator, "a Separator")
    c = carrier(_check_instance(pred, Predicate, "a Predicate").carrier)
    values = pred.table if c is MUL else c.napier_table(pred.table)
    return tuple(separator_cast(s, v) for v in values)
