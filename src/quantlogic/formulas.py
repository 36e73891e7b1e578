"""The formula language: syntax trees, concrete syntax, and static checks.

Grammar (all whitespace-insensitive)::

    formula  := quantifier | scalar | chain
    quantifier := ("E" | "A") "^" p "(" var "in" space ")" "." formula
    scalar   := k "." formula                   -- k a nonnegative literal
    chain    := postfix (OPTOK postfix)*        -- one operator token per chain
    postfix  := primary ("^*")*
    primary  := "(" formula ")" | constant | number | atom "(" vars ")"

The six operator tokens are ``\\/`` (join), ``/\\`` (meet), ``(+)`` (sum),
``(+*)`` (harmonic sum), ``(x)`` (tensor), ``(x*)`` (cotensor); ``-o`` is
division.  A chain of one repeated operator associates to the left; mixing
distinct operators without parentheses is a syntax error, and ``-o`` does not
chain at all.  Quantifier and scalar bodies extend as far right as possible;
inside an operator chain they must be parenthesized.

Quantifier magnitudes live in [0, inf] ("inf" is a valid literal), scalar
factors in [0, inf).  Named constants: false, true, zero, one, top, bot.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, TypeVar

from .errors import FormulaSyntaxError, QuantLogicError
from .extreal import (INF, MUL_CONSTANTS, VALUE_LITERAL, OpCode, _check_instance, _check_iterable,
                      _check_tag, check_add, format_value)
from .environment import Environment
from .pmeans import ADD, MUL, Polarity, _check_magnitude, carrier
from .spaces import Space

T = TypeVar("T")


# --------------------------------------------------------------------------
# syntax trees
# --------------------------------------------------------------------------

class Formula:
    """Base class; all nodes are frozen dataclasses below.

    ``_kids`` names a node's subformula fields, its last fields.  Every
    traversal goes through ``walk`` and ``fold``, which keep their own stack,
    so depth is limited by memory, not by Python's recursion limit; that
    includes ``==``, ``hash`` and ``repr``, which the nodes take from here.
    """

    __slots__ = ()
    _kids: tuple[str, ...] = ()

    def _head(self) -> tuple[str, ...]:
        """The names of the fields before the subformulas."""
        return self.__match_args__[:len(self.__match_args__) - len(self._kids)]

    def _shape(self) -> list[tuple]:
        return [(type(node), *[getattr(node, k) for k in node._head()])
                for node, _ in walk(self)]

    def __eq__(self, other):
        if not isinstance(other, Formula):
            return NotImplemented
        return self is other or self._shape() == other._shape()

    def __hash__(self):
        return hash(tuple(self._shape()))

    def __repr__(self):
        def show(node: Formula, bound: Binders, kids: list[str]) -> str:
            fields = [f"{k}={getattr(node, k)!r}" for k in node._head()]
            fields += [f"{k}={s}" for k, s in zip(node._kids, kids)]
            return f"{type(node).__qualname__}({', '.join(fields)})"
        return fold(self, show)


@dataclass(frozen=True, eq=False, repr=False)
class Const(Formula):
    """A named constant (str) or a numeric literal of the ambient carrier.

    A literal is stored as ``check_add`` reads it, whatever its number type.
    """

    value: float | str

    def __post_init__(self):
        if not isinstance(self.value, str):
            object.__setattr__(self, "value", check_add(self.value))


@dataclass(frozen=True, eq=False, repr=False)
class Atom(Formula):
    name: str
    args: tuple[str, ...]


@dataclass(frozen=True, eq=False, repr=False)
class BinOp(Formula):
    op: OpCode
    lhs: Formula
    rhs: Formula
    _kids = ("lhs", "rhs")


@dataclass(frozen=True, eq=False, repr=False)
class Div(Formula):
    """lhs -o rhs: the residual of tensor (read "lhs divides rhs")."""

    lhs: Formula
    rhs: Formula
    _kids = ("lhs", "rhs")


@dataclass(frozen=True, eq=False, repr=False)
class Dual(Formula):
    body: Formula
    _kids = ("body",)


@dataclass(frozen=True, eq=False, repr=False)
class Scalar(Formula):
    factor: float
    body: Formula
    _kids = ("body",)


@dataclass(frozen=True, eq=False, repr=False)
class Quant(Formula):
    polarity: Polarity
    magnitude: float
    var: str
    space: str
    body: Formula
    _kids = ("body",)


# The quantifiers around a node, outermost first: variable -> space name.
# Sibling nodes share one dict, so treat it as read-only.
Binders = dict[str, str]


def children(f: Formula) -> tuple[Formula, ...]:
    """The direct subformulas of f, left to right."""
    return tuple([getattr(f, name) for name in f._kids])


def rebuild(f: Formula, kids) -> Formula:
    """f with its direct subformulas replaced by kids (f itself if unchanged)."""
    for name, kid in zip(f._kids, kids):
        if getattr(f, name) is not kid:
            return type(f)(*[getattr(f, field) for field in f._head()], *kids)
    return f


def walk(f: Formula) -> list[tuple[Formula, Binders]]:
    """Pre-order, left to right: each node with its enclosing binders.  An f
    that is no Formula is INVALID_VALUE."""
    out: list[tuple[Formula, Binders]] = []
    stack = [(_check_instance(f, Formula, "a Formula"), {})]
    pop, push, emit = stack.pop, stack.append, out.append
    while stack:
        item = pop()
        emit(item)
        node = item[0]
        names = node._kids
        if names:
            bound = item[1]
            if isinstance(node, Quant):
                bound = {**bound, node.var: node.space}
            for name in reversed(names):
                push((getattr(node, name), bound))
    return out


def fold(f: Formula, combine: Callable[[Formula, Binders, list], T]) -> T:
    """Post-order, left to right: combine(node, binders, values of its children)
    for every node; returns the value at the root."""
    return _fold(walk(f), combine)


def _fold(walked: list[tuple[Formula, Binders]],
          combine: Callable[[Formula, Binders, list], T]) -> T:
    """fold of the formula whose pre-order walk is ``walked``.

    The operands come from the walk order, never from a node's kids.  So a
    combine that reads only each node's own fields (its type, ``op``,
    ``factor``, ``polarity``, ``magnitude``, ``var``, ``space``, ``name``,
    ``args``, ``value``) folds a walk whose kids are stale, as the quantifier
    pushdown gives (``semantics._pushed_walk``), as the formula it spells.
    """
    values: list = []
    # the nodes whose children are not all combined yet, innermost last, each
    # with the length values will have when they are
    waiting: list[tuple[Formula, Binders, int]] = []
    for node, bound in walked:
        n = len(node._kids)
        if n:
            waiting.append((node, bound, len(values) + n))
            continue
        values.append(combine(node, bound, ()))
        while waiting and waiting[-1][2] == len(values):
            node, bound, _ = waiting.pop()
            n = len(node._kids)
            values[-n:] = [combine(node, bound, values[-n:])]
    return values[0]


@dataclass(frozen=True)
class Context:
    """An ordered typing context: (variable, Space) pairs, names distinct."""

    entries: tuple[tuple[str, Space], ...] = ()

    def __post_init__(self):
        entries = tuple(_check_iterable(self.entries, "context"))
        for entry in entries:
            if not (isinstance(entry, tuple) and len(entry) == 2
                    and isinstance(entry[0], str) and isinstance(entry[1], Space)):
                raise QuantLogicError("INVALID_CONTEXT",
                                      f"context entries are (variable, Space) pairs, "
                                      f"got {entry!r}")
        object.__setattr__(self, "entries", entries)
        names = [v for v, _ in entries]
        if len(set(names)) != len(names):
            raise QuantLogicError("SHADOWED_VARIABLE",
                                  f"duplicate variable in context: {names}")

    def names(self) -> tuple[str, ...]:
        return tuple([v for v, _ in self.entries])

    def sizes(self) -> tuple[int, ...]:
        return tuple([len(s) for _, s in self.entries])


# --------------------------------------------------------------------------
# tokens
# --------------------------------------------------------------------------

OP_TOKENS = {
    OpCode.JOIN: "\\/",
    OpCode.MEET: "/\\",
    OpCode.ADD: "(+)",
    OpCode.HADD: "(+*)",
    OpCode.TENSOR: "(x)",
    OpCode.COTENSOR: "(x*)",
}

QUANTIFIERS = {"E": Polarity.EXISTENTIAL, "A": Polarity.UNIVERSAL}

RESERVED = set(QUANTIFIERS) | {"in", "inf"} | set(MUL_CONSTANTS)

# every fixed spelling -> (token kind, token value): the punctuation, and the
# reserved words, of which "inf" is a number
_PUNCT = {s: ("OP", op) for op, s in OP_TOKENS.items()} | {
    s: (kind, s) for kind, s in (("LIMP", "-o"), ("DUAL", "^*"), ("CARET", "^"),
                                 ("LPAREN", "("), ("RPAREN", ")"),
                                 ("DOT", "."), ("COMMA", ","))}
_FIXED = _PUNCT | {w: ("IDENT", w) for w in RESERVED} | {"inf": ("NUMBER", INF)}

# After whitespace: a fixed spelling (group 1; punctuation longest first, a
# reserved word only as a whole name), another name (2) with the "(" after it
# (3), a value literal (4), or else the one character no token starts with, ""
# at the end (5).  After an atom name "(" always opens the argument list, so
# that phi(x) is an application although "(x)" is tensor.  Names come before
# literals, so that inf_1 is a name.
_TOKEN_RE = re.compile(r"\s*(?:(%s|(?:%s)(?![A-Za-z0-9_]))|([A-Za-z_][A-Za-z0-9_]*)(?:\s*(\())?"
                       r"|(%s)|(.?))" % (
                           "|".join(map(re.escape, sorted(_PUNCT, key=len, reverse=True))),
                           "|".join(sorted(RESERVED)), VALUE_LITERAL.pattern))


def _scan(text: str) -> list[tuple]:
    """The tokens of text as plain (kind, value, pos) tuples, EOF last.

    The kinds are NUMBER IDENT OP LIMP LPAREN RPAREN DOT COMMA CARET DUAL EOF.
    """
    toks: list[tuple] = []
    emit = toks.append
    for m in _TOKEN_RE.finditer(text):
        group = m.lastindex
        if group == 1:
            emit(_FIXED[m[1]] + (m.start(1),))
        elif group == 2:
            emit(("IDENT", m[2], m.start(2)))
        elif group == 3:
            emit(("IDENT", m[2], m.start(2)))
            emit(("LPAREN", "(", m.start(3)))
        elif group == 4:
            emit(("NUMBER", float(m[4]), m.start(4)))
        elif m[5]:
            raise FormulaSyntaxError("stray '-'" if m[5] == "-" else
                                     f"unexpected character {m[5]!r}", m.start(5))
        else:  # "" at the end, which a text ending in whitespace matches twice
            emit(("EOF", None, m.start(5)))
            break
    return toks


# --------------------------------------------------------------------------
# parser
# --------------------------------------------------------------------------

class _Parser:
    """Recursive descent over the token tuples of one text.

    ``i`` indexes the current token.  The stream ends in a second EOF, so the
    one-token lookahead past the current token stays in range: every rule that
    consumes an EOF raises at once.
    """

    def __init__(self, text: str):
        toks = _scan(text)
        toks.append(toks[-1])
        self.toks, self.i = toks, 0

    def take(self, kind: str, what: str) -> tuple:
        """The current token, which must be of the given kind; moves past it."""
        tok = self.toks[self.i]
        if tok[0] != kind:
            raise FormulaSyntaxError(f"expected {what}", tok[2])
        self.i += 1
        return tok

    def ident(self, what: str) -> str:
        kind, name, pos = self.toks[self.i]
        if kind != "IDENT" or name in RESERVED:
            raise FormulaSyntaxError(f"expected {what}", pos)
        self.i += 1
        return name

    def parse(self) -> Formula:
        f = self.formula()
        kind, _, pos = self.toks[self.i]
        if kind != "EOF":
            raise FormulaSyntaxError("unexpected trailing input", pos)
        return f

    def formula(self) -> Formula:
        toks, i = self.toks, self.i
        kind, value, pos = toks[i]
        ahead = toks[i + 1][0]
        if kind == "IDENT" and ahead == "CARET" and value in QUANTIFIERS:
            return self.quantifier(QUANTIFIERS[value])
        if kind == "NUMBER" and ahead == "DOT":
            return self.scalar(value, pos)
        return self.chain()

    def quantifier(self, polarity: Polarity) -> Formula:
        self.i += 2  # the quantifier and its "^"
        _, p, pos = self.take("NUMBER", "a quantifier magnitude")
        if p < 0.0:
            raise FormulaSyntaxError("quantifier magnitude must be in [0, inf]", pos)
        self.take("LPAREN", "'(' before the bound variable")
        var = self.ident("a bound variable")
        kind, kw, pos = self.toks[self.i]
        if kind != "IDENT" or kw != "in":
            raise FormulaSyntaxError("expected 'in'", pos)
        self.i += 1
        space = self.ident("a space name")
        self.take("RPAREN", "')' after the space name")
        self.take("DOT", "'.' before the quantifier body")
        return Quant(polarity, p, var, space, self.formula())

    def scalar(self, k: float, pos: int) -> Formula:
        if k < 0.0:
            raise FormulaSyntaxError("scalar factor must be nonnegative", pos)
        if k == INF:
            raise FormulaSyntaxError("scalar factor must be finite", pos)
        self.i += 2  # the factor and its "."
        return Scalar(k, self.formula())

    def chain(self) -> Formula:
        left = self.postfix()
        toks = self.toks
        kind, op, _ = first = toks[self.i]
        if kind != "OP" and kind != "LIMP":
            return left
        self.i += 1
        operands = [left, self.postfix()]
        while True:
            tok = toks[self.i]
            if tok[1] == op and tok[0] == kind:
                self.i += 1
                operands.append(self.postfix())
            elif tok[0] == "OP" or tok[0] == "LIMP":
                raise FormulaSyntaxError(
                    "mixing different operators requires parentheses", tok[2])
            else:
                break
        if kind == "LIMP":
            if len(operands) > 2:
                raise FormulaSyntaxError("'-o' is non-associative; parenthesize", first[2])
            return Div(operands[0], operands[1])
        node = operands[0]
        for rhs in operands[1:]:
            node = BinOp(op, node, rhs)
        return node

    def postfix(self) -> Formula:
        node = self.primary()
        toks = self.toks
        while toks[self.i][0] == "DUAL":
            self.i += 1
            node = Dual(node)
        return node

    def primary(self) -> Formula:
        toks = self.toks
        kind, value, pos = toks[self.i]
        self.i += 1
        if kind == "LPAREN":
            inner = self.formula()
            self.take("RPAREN", "')'")
            return inner
        if kind == "NUMBER":
            return Const(value)
        if kind == "IDENT":
            if value in QUANTIFIERS and toks[self.i][0] == "CARET":
                raise FormulaSyntaxError(
                    "quantifier inside an operator chain must be parenthesized", pos)
            if value in MUL_CONSTANTS:
                return Const(value)
            if value == "in":
                raise FormulaSyntaxError("'in' is reserved", pos)
            self.take("LPAREN", f"'(' after atom {value!r}")
            args: list[str] = []
            if toks[self.i][0] != "RPAREN":
                args.append(self.ident("an argument variable"))
                while toks[self.i][0] == "COMMA":
                    self.i += 1
                    args.append(self.ident("an argument variable"))
            self.take("RPAREN", "')' closing the argument list")
            return Atom(value, tuple(args))
        raise FormulaSyntaxError("expected a formula", pos)


def parse(text: str) -> Formula:
    """Parse concrete syntax into a Formula tree; text that is no str is INVALID_VALUE."""
    try:
        return _Parser(_check_instance(text, str, "formula text")).parse()
    except RecursionError:
        raise FormulaSyntaxError("formula is nested too deeply") from None


# --------------------------------------------------------------------------
# printer
# --------------------------------------------------------------------------

def format_formula(f: Formula) -> str:
    """Render a formula so that ``parse(format_formula(f)) == f``."""
    def combine(node: Formula, bound: Binders, kids: list[str]) -> str:
        if isinstance(node, Const):
            return node.value if isinstance(node.value, str) else format_value(node.value)
        if isinstance(node, Atom):
            return f"{node.name}({', '.join(node.args)})"
        if isinstance(node, Scalar):
            return f"{format_value(node.factor)} . {kids[0]}"
        if isinstance(node, Quant):
            existential = _check_tag(node.polarity, Polarity, "a polarity") is Polarity.EXISTENTIAL
            tag = "E" if existential else "A"
            return (f"{tag}^{format_value(node.magnitude)} "
                    f"({node.var} in {node.space}). {kids[0]}")
        ops = [s if isinstance(kid, (Const, Atom, Dual)) else f"({s})"
               for kid, s in zip(children(node), kids)]
        if isinstance(node, Dual):
            return f"{ops[0]}^*"
        if isinstance(node, BinOp):
            return f"{ops[0]} {OP_TOKENS[_check_tag(node.op, OpCode, 'an operator')]} {ops[1]}"
        return f"{ops[0]} -o {ops[1]}"

    return fold(f, combine)


# --------------------------------------------------------------------------
# static checks and structural operations
# --------------------------------------------------------------------------

def check_wellformed(f: Formula, ctx: Context, env) -> Formula:
    """Validate variables, atom arities/spaces and space names against env.

    Returns the formula unchanged on success; raises QuantLogicError with one
    of UNBOUND_VARIABLE / SHADOWED_VARIABLE / ATOM_ARITY / UNKNOWN_SPACE /
    UNKNOWN_ATOM / INVALID_VALUE / INVALID_P otherwise, for the first
    offending node in pre-order, left to right.  Magnitudes and scalar
    factors of code-built nodes meet the parser's ranges here, and their
    polarities and operators must be ``Polarity`` and ``OpCode`` members
    (INVALID_NODE); a context that is no ``Context`` is INVALID_CONTEXT, and
    an env that is no ``Environment`` ENV_FORMAT.
    """
    _check_walk(walk(f), ctx, env)
    return f


def _check_walk(walked: list[tuple[Formula, Binders]], ctx: Context, env) -> list[int]:
    """check_wellformed of the formula whose pre-order walk is ``walked``;
    returns the indices of its quantifiers in the walk."""
    if not isinstance(ctx, Context):
        raise QuantLogicError("INVALID_CONTEXT", f"expected a Context, got {ctx!r}")
    if not isinstance(env, Environment):
        raise QuantLogicError("ENV_FORMAT", f"expected an Environment, got {env!r}")
    c = carrier(env.mode)
    outer = {v: s.name for v, s in ctx.entries}
    quants = []
    for i, (node, bound) in enumerate(walked):
        if isinstance(node, Const):  # a name that is no constant is no number either
            c.check(c.constants.get(node.value, node.value))
        elif isinstance(node, Scalar):
            if not 0.0 <= check_add(node.factor) < INF:
                raise QuantLogicError("INVALID_VALUE",
                                      f"scalar factors are in [0, inf), got {node.factor!r}")
        elif isinstance(node, Atom):
            table = env.atoms.get(node.name)
            if table is None:
                raise QuantLogicError("UNKNOWN_ATOM",
                                      f"atom {node.name!r} not in environment")
            if len(node.args) != len(table.context):
                raise QuantLogicError(
                    "ATOM_ARITY",
                    f"atom {node.name!r} takes {len(table.context)} arguments, "
                    f"got {len(node.args)}")
            for arg, space_name in zip(node.args, table.context):
                scope = bound if arg in bound else outer
                if arg not in scope:
                    raise QuantLogicError("UNBOUND_VARIABLE",
                                          f"variable {arg!r} is not bound")
                if scope[arg] != space_name:
                    raise QuantLogicError(
                        "ATOM_ARITY",
                        f"atom {node.name!r} expects a {space_name!r} variable, "
                        f"but {arg!r} ranges over {scope[arg]!r}")
        elif isinstance(node, BinOp):
            _check_tag(node.op, OpCode, "an operator")
        elif isinstance(node, Quant):
            _check_tag(node.polarity, Polarity, "a polarity")
            _check_magnitude(node.magnitude)
            if node.space not in env.spaces:
                raise QuantLogicError("UNKNOWN_SPACE",
                                      f"space {node.space!r} not in environment")
            if node.var in outer or node.var in bound:
                raise QuantLogicError("SHADOWED_VARIABLE",
                                      f"variable {node.var!r} is already bound")
            quants.append(i)
    return quants


def free_variables(f: Formula) -> tuple[str, ...]:
    """Free variables in order of first appearance."""
    out: dict[str, None] = {}
    for node, bound in walk(f):
        if isinstance(node, Atom):
            out.update((a, None) for a in node.args if a not in bound)
    return tuple(out)


def substitute(f: Formula, mapping: dict[str, str]) -> Formula:
    """Rename free variables; target names must not collide with binders.  A
    formula that is no ``Formula``, or a mapping that is no dict, is
    INVALID_VALUE."""
    _check_instance(mapping, dict, "a dict of variable names")

    def visible(bound: Binders) -> dict[str, str]:
        return {k: v for k, v in mapping.items() if k not in bound}

    for node, bound in walk(f):
        if isinstance(node, Quant) and node.var in visible(bound).values():
            raise QuantLogicError("CAPTURE",
                                  f"substitution would capture {node.var!r}")

    def rename(node: Formula, bound: Binders, kids: list) -> Formula:
        if isinstance(node, Atom):
            names = visible(bound)
            return Atom(node.name, tuple(names.get(a, a) for a in node.args))
        return rebuild(node, kids)

    return fold(f, rename)


def translate_formula(f: Formula, direction: str) -> Formula:
    """Napier-translate a formula between the carriers.

    Each numeric literal is read by the source carrier's ``check`` (MUL for
    ``to_add``, ADD for ``to_mul``; else INVALID_VALUE) and mapped by its
    ``napier_table``, as ``translate_environment`` maps atom tables.  Named
    constants, operators, scalars and quantifiers carry over unchanged (their
    interpretations are already napier conjugates of each other).
    """
    c = {"to_add": MUL, "to_mul": ADD}.get(str(direction))
    if c is None:
        raise QuantLogicError("INVALID_DIRECTION",
                              f"direction must be to_add or to_mul, got {direction!r}")

    def convert(node: Formula, bound: Binders, kids: list) -> Formula:
        if isinstance(node, Const) and not isinstance(node.value, str):
            return Const(c.napier_table([c.check(node.value)])[0])
        return rebuild(node, kids) if kids else node

    return fold(f, convert)
