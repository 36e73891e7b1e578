"""Exact arithmetic on two extended-real truth-value carriers.

The *multiplicative* carrier is [0, inf]: 0 plays false, inf plays true, and
the six lattice/monoid operations below make it a commutative quantale that is
self-dual under reciprocal.  The *additive* carrier is [-inf, +inf] with the
logical order **reversed** relative to the numeric one; it is the image of the
multiplicative carrier under ``napier`` (x -> -log x), and every additive
operation here is, by construction, the napier conjugate of its multiplicative
counterpart.

All values are plain Python floats.  The corner cases (0 * inf and friends)
are decided by explicit case analysis so that IEEE never gets a chance to
produce a NaN; NaN is rejected at the boundaries where values enter
(``check_mul`` / ``check_add`` / ``parse_value``), which keeps every operation
total.
"""

from __future__ import annotations

import enum
import math
from fractions import Fraction
from typing import Iterable

from .errors import QuantLogicError

INF = math.inf

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
    """Validate a multiplicative-carrier value (nonnegative, not NaN)."""
    x = float(x)
    if math.isnan(x):
        raise QuantLogicError("INVALID_VALUE", "NaN is not a carrier value")
    if x < 0.0:
        raise QuantLogicError("INVALID_VALUE",
                              f"multiplicative values are nonnegative, got {x!r}")
    return x


def check_add(x: float) -> AddReal:
    """Validate an additive-carrier value (any extended real, not NaN)."""
    x = float(x)
    if math.isnan(x):
        raise QuantLogicError("INVALID_VALUE", "NaN is not a carrier value")
    return x


def parse_value(text: str) -> float:
    """Parse a value token: a decimal literal, ``inf`` or ``-inf``."""
    t = text.strip()
    try:
        x = float(t)
    except ValueError:
        raise QuantLogicError("INVALID_VALUE", f"not a value literal: {text!r}") from None
    if math.isnan(x):
        raise QuantLogicError("INVALID_VALUE", "NaN is not a carrier value")
    return x


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


def add_scalar(k: float, a: AddReal) -> AddReal:
    """Scalar action k * a with 0 * (+-inf) := 0; k may be any finite real."""
    if math.isnan(k) or math.isinf(k):
        raise QuantLogicError("INVALID_VALUE", f"scalar must be finite, got {k!r}")
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
    """-log: [0, inf] -> [-inf, +inf]; 0 -> +inf, 1 -> 0, inf -> -inf."""
    if a == 0.0:
        return INF
    if a == INF:
        return -INF
    return -math.log(a)


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
