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
from typing import Callable, NamedTuple, TypeVar

from .errors import FormulaSyntaxError, QuantLogicError
from .extreal import (INF, MUL_CONSTANTS, VALUE_LITERAL, OpCode, check_add, check_mul,
                      format_value, napier, napier_inv)
from .pmeans import Polarity, SignedP, carrier
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

    A literal is stored as a float, whatever number type it was given as.
    """

    value: float | str

    def __post_init__(self):
        if not isinstance(self.value, str):
            object.__setattr__(self, "value", float(self.value))


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


def _preorder(f: Formula, left_first: bool) -> list[tuple[Formula, Binders]]:
    out: list[tuple[Formula, Binders]] = []
    stack = [(f, {})]
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
            for name in reversed(names) if left_first else names:
                push((getattr(node, name), bound))
    return out


def walk(f: Formula) -> list[tuple[Formula, Binders]]:
    """Pre-order, left to right: each node with its enclosing binders."""
    return _preorder(f, left_first=True)


def fold(f: Formula, combine: Callable[[Formula, Binders, list], T]) -> T:
    """Post-order, left to right: combine(node, binders, values of its children)
    for every node; returns the value at the root."""
    values: list = []
    # reversed right-to-left pre-order is left-to-right post-order
    for node, bound in reversed(_preorder(f, left_first=False)):
        n = len(node._kids)
        if n:
            values[-n:] = [combine(node, bound, values[-n:])]
        else:
            values.append(combine(node, bound, ()))
    return values[0]


@dataclass(frozen=True)
class Context:
    """An ordered typing context: (variable, Space) pairs, names distinct."""

    entries: tuple[tuple[str, Space], ...] = ()

    def __post_init__(self):
        names = [v for v, _ in self.entries]
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

# every fixed spelling -> (token kind, token value)
_PUNCT = {s: ("OP", op) for op, s in OP_TOKENS.items()} | {
    s: (kind, s) for kind, s in (("LIMP", "-o"), ("DUAL", "^*"), ("CARET", "^"),
                                 ("LPAREN", "("), ("RPAREN", ")"),
                                 ("DOT", "."), ("COMMA", ","))}

# After whitespace: a name (group 1; "inf" is one), a value literal (2), a fixed spelling,
# longest first (3), or else the one character no token starts with, "" at the end (4).
_TOKEN_RE = re.compile(r"\s*(?:([A-Za-z_][A-Za-z0-9_]*)|(%s)|(%s)|(.?))" % (
    VALUE_LITERAL.pattern, "|".join(map(re.escape, sorted(_PUNCT, key=len, reverse=True)))))


class _Token(NamedTuple):
    kind: str  # NUMBER IDENT OP LIMP LPAREN RPAREN DOT COMMA CARET DUAL EOF
    value: object
    pos: int


def _tokenize(text: str) -> list[_Token]:
    toks: list[_Token] = []
    match, i = _TOKEN_RE.match, 0
    while True:
        m = match(text, i)
        group = m.lastindex
        pos, i = m.span(group)
        s = m[group]
        if group == 1:
            toks.append(_Token("NUMBER", INF, pos) if s == "inf" else _Token("IDENT", s, pos))
        elif group == 2:
            toks.append(_Token("NUMBER", float(s), pos))
        elif group == 3:
            kind, value = _PUNCT[s]
            if s[0] == "(" and toks and toks[-1].kind == "IDENT" \
                    and toks[-1].value not in RESERVED:
                # After an atom name, "(" always opens the argument list, so
                # that e.g. phi(x) is an application although "(x)" is tensor.
                kind, value, i = "LPAREN", "(", pos + 1
            toks.append(_Token(kind, value, pos))
        elif s:
            raise FormulaSyntaxError(
                "stray '-'" if s == "-" else f"unexpected character {s!r}", pos)
        else:
            toks.append(_Token("EOF", None, pos))
            return toks


# --------------------------------------------------------------------------
# parser
# --------------------------------------------------------------------------

class _Parser:
    def __init__(self, text: str):
        self.toks = _tokenize(text)
        self.i = 0

    def peek(self, ahead: int = 0) -> _Token:
        return self.toks[min(self.i + ahead, len(self.toks) - 1)]

    def next(self) -> _Token:
        tok = self.toks[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str, what: str) -> _Token:
        tok = self.next()
        if tok.kind != kind:
            raise FormulaSyntaxError(f"expected {what}", tok.pos)
        return tok

    def parse(self) -> Formula:
        f = self.formula()
        tok = self.peek()
        if tok.kind != "EOF":
            raise FormulaSyntaxError("unexpected trailing input", tok.pos)
        return f

    def formula(self) -> Formula:
        tok = self.peek()
        if tok.kind == "IDENT" and tok.value in QUANTIFIERS and self.peek(1).kind == "CARET":
            return self.quantifier()
        if tok.kind == "NUMBER" and self.peek(1).kind == "DOT":
            return self.scalar()
        return self.chain()

    def quantifier(self) -> Formula:
        pol = QUANTIFIERS[self.next().value]
        self.expect("CARET", "'^' after quantifier")
        ptok = self.expect("NUMBER", "a quantifier magnitude")
        if ptok.value < 0.0:
            raise FormulaSyntaxError("quantifier magnitude must be in [0, inf]", ptok.pos)
        self.expect("LPAREN", "'(' before the bound variable")
        var = self.ident("a bound variable")
        kw = self.next()
        if kw.kind != "IDENT" or kw.value != "in":
            raise FormulaSyntaxError("expected 'in'", kw.pos)
        space = self.ident("a space name")
        self.expect("RPAREN", "')' after the space name")
        self.expect("DOT", "'.' before the quantifier body")
        return Quant(pol, ptok.value, var, space, self.formula())

    def scalar(self) -> Formula:
        ktok = self.next()
        if ktok.value < 0.0:
            raise FormulaSyntaxError("scalar factor must be nonnegative", ktok.pos)
        if ktok.value == INF:
            raise FormulaSyntaxError("scalar factor must be finite", ktok.pos)
        self.expect("DOT", "'.' after the scalar factor")
        return Scalar(ktok.value, self.formula())

    def chain(self) -> Formula:
        left = self.postfix()
        tok = self.peek()
        if tok.kind not in ("OP", "LIMP"):
            return left
        first = self.next()
        operands = [left, self.postfix()]
        while True:
            tok = self.peek()
            if tok.kind == first.kind and tok.value == first.value:
                self.next()
                operands.append(self.postfix())
                continue
            if tok.kind in ("OP", "LIMP"):
                raise FormulaSyntaxError(
                    "mixing different operators requires parentheses", tok.pos)
            break
        if first.kind == "LIMP":
            if len(operands) > 2:
                raise FormulaSyntaxError("'-o' is non-associative; parenthesize",
                                         first.pos)
            return Div(operands[0], operands[1])
        node = operands[0]
        for rhs in operands[1:]:
            node = BinOp(first.value, node, rhs)
        return node

    def postfix(self) -> Formula:
        node = self.primary()
        while self.peek().kind == "DUAL":
            self.next()
            node = Dual(node)
        return node

    def ident(self, what: str) -> str:
        tok = self.next()
        if tok.kind != "IDENT" or tok.value in RESERVED:
            raise FormulaSyntaxError(f"expected {what}", tok.pos)
        return str(tok.value)

    def primary(self) -> Formula:
        tok = self.next()
        if tok.kind == "LPAREN":
            inner = self.formula()
            self.expect("RPAREN", "')'")
            return inner
        if tok.kind == "NUMBER":
            return Const(float(tok.value))
        if tok.kind == "IDENT":
            name = str(tok.value)
            if name in QUANTIFIERS and self.peek().kind == "CARET":
                raise FormulaSyntaxError(
                    "quantifier inside an operator chain must be parenthesized",
                    tok.pos)
            if name in MUL_CONSTANTS:
                return Const(name)
            if name == "in":
                raise FormulaSyntaxError("'in' is reserved", tok.pos)
            self.expect("LPAREN", f"'(' after atom {name!r}")
            args: list[str] = []
            if self.peek().kind != "RPAREN":
                args.append(self.ident("an argument variable"))
                while self.peek().kind == "COMMA":
                    self.next()
                    args.append(self.ident("an argument variable"))
            self.expect("RPAREN", "')' closing the argument list")
            return Atom(name, tuple(args))
        raise FormulaSyntaxError("expected a formula", tok.pos)


def parse(text: str) -> Formula:
    """Parse concrete syntax into a Formula tree."""
    try:
        return _Parser(text).parse()
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
            tag = next(t for t, pol in QUANTIFIERS.items() if pol is node.polarity)
            return (f"{tag}^{format_value(node.magnitude)} "
                    f"({node.var} in {node.space}). {kids[0]}")
        ops = [s if isinstance(kid, (Const, Atom, Dual)) else f"({s})"
               for kid, s in zip(children(node), kids)]
        if isinstance(node, Dual):
            return f"{ops[0]}^*"
        if isinstance(node, BinOp):
            return f"{ops[0]} {OP_TOKENS[node.op]} {ops[1]}"
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
    factors of code-built nodes meet the parser's ranges here.
    """
    check = carrier(env.mode).check
    outer = {v: s.name for v, s in ctx.entries}
    for node, bound in walk(f):
        if isinstance(node, Const):
            if not isinstance(node.value, str):
                check(node.value)
        elif isinstance(node, Scalar):
            if not 0.0 <= node.factor < INF:  # NaN fails too
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
        elif isinstance(node, Quant):
            SignedP(node.polarity, node.magnitude)  # INVALID_P off [0, inf]
            if node.space not in env.spaces:
                raise QuantLogicError("UNKNOWN_SPACE",
                                      f"space {node.space!r} not in environment")
            if node.var in outer or node.var in bound:
                raise QuantLogicError("SHADOWED_VARIABLE",
                                      f"variable {node.var!r} is already bound")
    return f


def free_variables(f: Formula) -> tuple[str, ...]:
    """Free variables in order of first appearance."""
    out: dict[str, None] = {}
    for node, bound in walk(f):
        if isinstance(node, Atom):
            out.update((a, None) for a in node.args if a not in bound)
    return tuple(out)


def substitute(f: Formula, mapping: dict[str, str]) -> Formula:
    """Rename free variables; target names must not collide with binders."""
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

    ``to_add`` sends every numeric literal through napier (-log), ``to_mul``
    through napier_inv (1/exp), after checking it is a value of the source
    carrier (else INVALID_VALUE); named constants, operators, scalars and
    quantifiers carry over unchanged (their interpretations are already
    napier conjugates of each other).
    """
    # the extreal names are looked up per call, so a rebound one is seen
    pair = {"to_add": (check_mul, napier), "to_mul": (check_add, napier_inv)}.get(str(direction))
    if pair is None:
        raise QuantLogicError("INVALID_DIRECTION",
                              f"direction must be to_add or to_mul, got {direction!r}")
    check, conv = pair

    def convert(node: Formula, bound: Binders, kids: list) -> Formula:
        if isinstance(node, Const) and not isinstance(node.value, str):
            return Const(conv(check(node.value)))
        return rebuild(node, kids) if kids else node

    return fold(f, convert)
