"""Exact arithmetic on two extended-real truth-value carriers.

The *multiplicative* carrier is [0, inf]: 0 plays false, inf plays true, and
the six lattice/monoid operations below make it a commutative quantale that is
self-dual under reciprocal.  The *additive* carrier is [-inf, +inf] with the
logical order **reversed** relative to the numeric one; it is the image of the
multiplicative carrier under ``napier`` (x -> -log x), and every additive
operation here is, by construction, the napier conjugate of its multiplicative
counterpart.

All values are plain Python floats.  The scalar operations decide the corner
cases (0 * inf and friends) by explicit case analysis, and no operation
returns a NaN; NaN is rejected at the boundaries where values enter
(``check_mul`` / ``check_add``, their table forms, ``parse_value``), which
keeps every operation total.

Each operation also has a table-at-a-time form (``MUL_TABLES`` /
``ADD_TABLES``) that maps whole tables with a few passes of IEEE arithmetic.
IEEE gets every cell right but the corners, and there it gives NaN, so the
corner cells are found from what the arithmetic produces and only they are
redone by the scalar operation, which stays the one definition of the corner
rules.
"""

from __future__ import annotations

import enum
import math
import re
from fractions import Fraction
from itertools import compress, count, repeat
from operator import add, mul
from typing import Callable, Iterable

from .errors import QuantLogicError

INF = math.inf
NAN = math.nan

# Type aliases, for signature readability only.
MulReal = float  # a value in [0, inf]
AddReal = float  # a value in [-inf, +inf]


class OpCode(enum.Enum):
    """The six binary operations shared by both carriers."""

    JOIN = "join"
    MEET = "meet"
    ADD = "add"
    HADD = "hadd"
    TENSOR = "tensor"
    COTENSOR = "cotensor"


# --------------------------------------------------------------------------
# validation / io
# --------------------------------------------------------------------------

def check_mul(x: float) -> MulReal:
    """Validate a multiplicative-carrier value (nonnegative, not NaN).

    The carrier has one zero: -0.0 reads as 0.0.
    """
    x = check_add(x)
    if x < 0.0:
        raise QuantLogicError("INVALID_VALUE",
                              f"multiplicative values are nonnegative, got {x!r}")
    return x or 0.0


def check_add(x: float) -> AddReal:
    """Validate an additive-carrier value (any extended real, not NaN)."""
    x = float(x)
    if math.isnan(x):
        raise QuantLogicError("INVALID_VALUE", "NaN is not a carrier value")
    return x


def _clean_floats(xs: tuple) -> bool:
    """Whether xs holds floats only, none of them NaN.  A sum is NaN where a
    value is NaN, and also where both infinities are, so only then are the
    values looked at one by one."""
    if not set(map(type, xs)) <= {float}:
        return False
    total = sum(xs)
    return total == total or not any(map(math.isnan, xs))


def check_mul_table(xs: Iterable) -> tuple:
    """check_mul on each value, as a tuple.

    A table of floats that are not NaN and not below 0 is cleared in a few
    passes; any other goes value by value, so that the first fault raises as
    check_mul raises it.
    """
    xs = tuple(xs)
    if _clean_floats(xs) and (not xs or min(xs) >= 0.0):
        return tuple([x or 0.0 for x in xs]) if 0.0 in xs else xs
    return tuple([check_mul(x) for x in xs])


def check_add_table(xs: Iterable) -> tuple:
    """check_add on each value, as a tuple; cleared as check_mul_table is."""
    xs = tuple(xs)
    if _clean_floats(xs):
        return xs
    return tuple([check_add(x) for x in xs])


# The one value-literal grammar, of parse_value, the formula tokenizer and the CLI.
VALUE_LITERAL = re.compile(r"-?inf|-?[0-9]+(?:\.[0-9]+)?(?:[eE][-+]?[0-9]+)?")


def parse_value(text: str) -> float:
    """Parse a ``VALUE_LITERAL`` with whitespace around: ``inf``, ``-inf`` or an
    ASCII decimal (``Infinity``, ``+1``, ``.5``, ``1_0`` are INVALID_VALUE)."""
    t = text.strip()
    if VALUE_LITERAL.fullmatch(t) is None:
        raise QuantLogicError("INVALID_VALUE", f"not a value literal: {text!r}")
    return float(t)


# The value syntax (formulas, environment JSON, CLI output) spells the
# infinities as bare tokens.
INF_TOKENS = {INF: "inf", -INF: "-inf"}


def spell_value(x: float, pattern: str) -> str:
    """An infinity as its token, anything else as ``pattern % x`` (-0.0 as 0.0)."""
    token = INF_TOKENS.get(x)
    if token is not None:
        return token
    return pattern % (0.0 if x == 0.0 else x)


def format_value(x: float) -> str:
    """Render a value the way ``parse_value`` reads it."""
    return spell_value(x, "%r")


# --------------------------------------------------------------------------
# summation
# --------------------------------------------------------------------------

def kahan_sum(xs: Iterable[float]) -> float:
    """The sum of xs, correctly rounded (``math.fsum``, Shewchuk's exact summation).

    Finite terms never give NaN: a sum beyond the double range is the signed
    infinity, and huge terms that cancel leave their exact finite remainder.
    Infinite terms of one sign give that infinity; mixed-sign infinite terms
    have no sum and raise ValueError, as in ``math.fsum``.
    """
    xs = list(xs)
    try:
        return math.fsum(xs)
    except OverflowError:  # a partial sum left the double range
        pass
    infinite = [x for x in xs if math.isinf(x)]
    if infinite:
        return math.fsum(infinite)
    return exact_float(sum(map(Fraction, xs)))


def exact_float(total: Fraction) -> float:
    """The double nearest an exact total; the signed infinity beyond the double range."""
    try:
        return float(total)
    except OverflowError:
        return INF if total > 0 else -INF


# --------------------------------------------------------------------------
# multiplicative carrier [0, inf]
# --------------------------------------------------------------------------

def mul_join(a: MulReal, b: MulReal) -> MulReal:
    return a if a >= b else b


def mul_meet(a: MulReal, b: MulReal) -> MulReal:
    return a if a <= b else b


def mul_add(a: MulReal, b: MulReal) -> MulReal:
    """Extended sum: unit 0, inf absorbing."""
    return a + b


def mul_hadd(a: MulReal, b: MulReal) -> MulReal:
    """Harmonic sum 1/(1/a + 1/b): unit inf, 0 absorbing."""
    if a == 0.0 or b == 0.0:
        return 0.0
    if a == INF:
        return b
    if b == INF:
        return a
    # lo/(1 + lo/hi) never over- or underflows for positive finite operands.
    lo, hi = (a, b) if a <= b else (b, a)
    return lo / (1.0 + lo / hi)


def mul_tensor(a: MulReal, b: MulReal) -> MulReal:
    """Product with 0 * inf := 0 (unit 1, 0 absorbing)."""
    if a == 0.0 or b == 0.0:
        return 0.0
    if a == INF or b == INF:
        return INF
    return a * b


def mul_cotensor(a: MulReal, b: MulReal) -> MulReal:
    """Product with 0 * inf := inf (unit 1, inf absorbing)."""
    if a == INF or b == INF:
        return INF
    if a == 0.0 or b == 0.0:
        return 0.0
    return a * b


def mul_dual(a: MulReal) -> MulReal:
    """Reciprocal duality: 0 <-> inf, involutive."""
    if a == 0.0:
        return INF
    if a == INF:
        return 0.0
    return 1.0 / a


def mul_div(a: MulReal, b: MulReal) -> MulReal:
    """Residual of tensor: greatest x with tensor(a, x) <= b.

    Equals cotensor(dual(a), b); in particular mul_div(a, 1) == dual(a).
    """
    if a == 0.0:
        return INF
    if b == INF:
        return INF
    if a == INF:
        return 0.0
    if b == 0.0:
        return 0.0
    return b / a


def mul_pow(k: MulReal, a: MulReal) -> MulReal:
    """Scalar action a**k for k in [0, inf].

    The corner rows: k = 0 is constantly 1 (including 0**0 and inf**0);
    k = inf sends [0,1) to 0, 1 to 1, (1,inf] to inf.  Satisfies
    mul_pow(k, mul_pow(h, a)) == mul_pow(mul_tensor(h, k), a).
    """
    if k == 0.0:
        return 1.0
    if a == 1.0:
        return 1.0
    if k == INF:
        return 0.0 if a < 1.0 else INF
    if a == 0.0:
        return 0.0
    if a == INF:
        return INF
    try:
        return a ** k
    except OverflowError:
        return INF


def mul_logical_leq(a: MulReal, b: MulReal) -> bool:
    """Logical order of the multiplicative carrier (numeric order)."""
    return a <= b


# --------------------------------------------------------------------------
# additive carrier [-inf, +inf], logical order reversed
# --------------------------------------------------------------------------

def add_join(a: AddReal, b: AddReal) -> AddReal:
    """Logical join = numeric min (the order is reversed)."""
    return a if a <= b else b


def add_meet(a: AddReal, b: AddReal) -> AddReal:
    return a if a >= b else b


def add_add(a: AddReal, b: AddReal) -> AddReal:
    """Softplus sum -log(e^-a + e^-b): unit +inf, -inf absorbing."""
    if a == -INF or b == -INF:
        return -INF
    if a == INF:
        return b
    if b == INF:
        return a
    lo = a if a <= b else b
    return lo - math.log1p(math.exp(-abs(a - b)))


def add_hadd(a: AddReal, b: AddReal) -> AddReal:
    """log(e^a + e^b): unit -inf, +inf absorbing."""
    if a == INF or b == INF:
        return INF
    if a == -INF:
        return b
    if b == -INF:
        return a
    hi = a if a >= b else b
    return hi + math.log1p(math.exp(-abs(a - b)))


def add_tensor(a: AddReal, b: AddReal) -> AddReal:
    """Extended sum with (-inf) + (+inf) := +inf (unit 0)."""
    if (a == INF and b == -INF) or (a == -INF and b == INF):
        return INF
    return a + b


def add_cotensor(a: AddReal, b: AddReal) -> AddReal:
    """Extended sum with (-inf) + (+inf) := -inf (unit 0)."""
    if (a == INF and b == -INF) or (a == -INF and b == INF):
        return -INF
    return a + b


def add_dual(a: AddReal) -> AddReal:
    """Negation, the additive involution."""
    return 0.0 if a == 0.0 else -a


def add_div(a: AddReal, b: AddReal) -> AddReal:
    """Residual of add_tensor; equals add_cotensor(add_dual(a), b)."""
    return add_cotensor(add_dual(a), b)


def _check_factor(k: float) -> None:
    if math.isnan(k) or math.isinf(k):
        raise QuantLogicError("INVALID_VALUE", f"scalar must be finite, got {k!r}")


def add_scalar(k: float, a: AddReal) -> AddReal:
    """Scalar action k * a with 0 * (+-inf) := 0; k may be any finite real."""
    _check_factor(k)
    if k == 0.0:
        return 0.0
    return k * a


def add_logical_leq(a: AddReal, b: AddReal) -> bool:
    """Logical order of the additive carrier (reversed numeric order)."""
    return a >= b


# --------------------------------------------------------------------------
# napier duality between the carriers
# --------------------------------------------------------------------------

def napier(a: MulReal) -> AddReal:
    """-log: [0, inf] -> [-inf, +inf]; 0 -> +inf, 1 -> 0 (+0.0), inf -> -inf."""
    if a == 0.0:
        return INF
    if a == INF:
        return -INF
    return 0.0 - math.log(a)  # -log(1) would be -0.0


def napier_inv(a: AddReal) -> MulReal:
    """1/exp: the inverse of ``napier``; +inf -> 0, 0 -> 1, -inf -> inf."""
    if a == INF:
        return 0.0
    if a == -INF:
        return INF
    try:
        return math.exp(-a)
    except OverflowError:
        return INF


# --------------------------------------------------------------------------
# table-at-a-time forms
# --------------------------------------------------------------------------
# Tables are lists of carrier values as check_mul / check_add return them, so
# a multiplicative table holds no -0.0.  A form's first pass is plain IEEE
# arithmetic, which is exact wherever the scalar operation's own arithmetic
# is; at the corners it gives NaN (0 * inf, inf - inf, a division by a zero
# masked to NaN), and only those cells are redone by the scalar operation.

def _redo_nan(op: Callable, out: list, *tables: list) -> list:
    """out, with each NaN cell recomputed by op from the tables' cells.

    A sum is NaN where a cell is NaN (or where both infinities are), so the
    NaN cells are looked for only in the blocks of isqrt(len(out)) cells
    whose sum is NaN.
    """
    total = sum(out)
    if total == total:
        return out
    step = math.isqrt(len(out))
    for j in range(0, len(out), step):
        block = out[j:j + step]
        total = sum(block)
        if total != total:
            for i in compress(count(j), map(math.isnan, block)):
                out[i] = op(*[t[i] for t in tables])
    return out


def mul_join_table(xs: list, ys: list) -> list:
    return [a if a >= b else b for a, b in zip(xs, ys)]


def mul_meet_table(xs: list, ys: list) -> list:
    return [a if a <= b else b for a, b in zip(xs, ys)]


def mul_add_table(xs: list, ys: list) -> list:
    return list(map(add, xs, ys))


def mul_hadd_table(xs: list, ys: list) -> list:
    # With zeros masked to NaN, 0 (absorbing) and inf + inf come out NaN, and
    # inf (the unit) gives b / (1 + b/inf) == b.
    out = [a / (1.0 + a / b) if a <= b else b / (1.0 + b / a)
           for a, b in zip([x or NAN for x in xs], [y or NAN for y in ys])]
    return _redo_nan(mul_hadd, out, xs, ys)


def mul_tensor_table(xs: list, ys: list) -> list:
    return _redo_nan(mul_tensor, list(map(mul, xs, ys)), xs, ys)


def mul_cotensor_table(xs: list, ys: list) -> list:
    return _redo_nan(mul_cotensor, list(map(mul, xs, ys)), xs, ys)


def mul_dual_table(xs: list) -> list:
    return _redo_nan(mul_dual, [1.0 / (a or NAN) for a in xs], xs)


def mul_div_table(xs: list, ys: list) -> list:
    return _redo_nan(mul_div, [b / (a or NAN) for a, b in zip(xs, ys)], xs, ys)


def mul_pow_table(k: MulReal, xs: list) -> list:
    """mul_pow(k, .) on each cell: IEEE pow has its corner rows, k = 0 and
    k = inf included; a table where a power overflows goes cell by cell."""
    try:
        return list(map(pow, xs, repeat(k)))
    except OverflowError:
        return [mul_pow(k, a) for a in xs]


def add_join_table(xs: list, ys: list) -> list:
    return [a if a <= b else b for a, b in zip(xs, ys)]


def add_meet_table(xs: list, ys: list) -> list:
    return [a if a >= b else b for a, b in zip(xs, ys)]


def add_add_table(xs: list, ys: list) -> list:
    # -inf absorbs and +inf drops out by themselves; inf - inf gives NaN.
    out = [(a if a <= b else b) - math.log1p(math.exp(-abs(a - b)))
           for a, b in zip(xs, ys)]
    return _redo_nan(add_add, out, xs, ys)


def add_hadd_table(xs: list, ys: list) -> list:
    # d - d is NaN exactly where an operand is infinite (or a - b overflows),
    # so those cells are redone: hadd(-inf, -0.0) keeps the zero's sign, which
    # hi + log1p(0) would not.
    out = [(a if a >= b else b) + math.log1p(math.exp(-abs(d := a - b))) + (d - d)
           for a, b in zip(xs, ys)]
    return _redo_nan(add_hadd, out, xs, ys)


def add_tensor_table(xs: list, ys: list) -> list:
    return _redo_nan(add_tensor, list(map(add, xs, ys)), xs, ys)


def add_cotensor_table(xs: list, ys: list) -> list:
    return _redo_nan(add_cotensor, list(map(add, xs, ys)), xs, ys)


def add_dual_table(xs: list) -> list:
    return [0.0 - a for a in xs]  # -a, and 0.0 at either zero


def add_div_table(xs: list, ys: list) -> list:
    return _redo_nan(add_div, [(0.0 - a) + b for a, b in zip(xs, ys)], xs, ys)


def add_scalar_table(k: float, xs: list) -> list:
    """add_scalar(k, .) on each cell, k checked once."""
    _check_factor(k)
    if k == 0.0:
        return [0.0] * len(xs)
    return [k * a for a in xs]


def napier_table(xs: list) -> list:
    """napier on each cell: 0 comes out NaN from the masked log and is redone."""
    return _redo_nan(napier, [0.0 - math.log(a or NAN) for a in xs], xs)


def napier_inv_table(xs: list) -> list:
    """napier_inv on each cell; a table where exp overflows goes cell by cell."""
    try:
        return [math.exp(-a) for a in xs]
    except OverflowError:
        return [napier_inv(a) for a in xs]


# --------------------------------------------------------------------------
# dispatch tables
# --------------------------------------------------------------------------

MUL_OPS = {
    OpCode.JOIN: mul_join,
    OpCode.MEET: mul_meet,
    OpCode.ADD: mul_add,
    OpCode.HADD: mul_hadd,
    OpCode.TENSOR: mul_tensor,
    OpCode.COTENSOR: mul_cotensor,
}

ADD_OPS = {
    OpCode.JOIN: add_join,
    OpCode.MEET: add_meet,
    OpCode.ADD: add_add,
    OpCode.HADD: add_hadd,
    OpCode.TENSOR: add_tensor,
    OpCode.COTENSOR: add_cotensor,
}


MUL_TABLES = {
    OpCode.JOIN: mul_join_table,
    OpCode.MEET: mul_meet_table,
    OpCode.ADD: mul_add_table,
    OpCode.HADD: mul_hadd_table,
    OpCode.TENSOR: mul_tensor_table,
    OpCode.COTENSOR: mul_cotensor_table,
}

ADD_TABLES = {
    OpCode.JOIN: add_join_table,
    OpCode.MEET: add_meet_table,
    OpCode.ADD: add_add_table,
    OpCode.HADD: add_hadd_table,
    OpCode.TENSOR: add_tensor_table,
    OpCode.COTENSOR: add_cotensor_table,
}


# Named constants of the formula language, per carrier.  The additive column
# is the napier image of the multiplicative one (so the logical extremes are
# the numeric extremes *swapped*: additive true is -inf).
MUL_CONSTANTS = {
    "false": 0.0,
    "zero": 0.0,
    "one": 1.0,
    "bot": 1.0,
    "true": INF,
    "top": INF,
}

ADD_CONSTANTS = {name: napier(v) for name, v in MUL_CONSTANTS.items()}
