"""p-sums and weighted p-means of extended nonnegative reals.

A signed exponent selects a *polarity* along with a magnitude p:

* existential polarity aggregates with exponent +p,
  ``(sum_i w_i a_i**p) ** (1/p)`` — a soft maximum;
* universal polarity aggregates with exponent -p,
  ``(sum_i w_i a_i**-p) ** (-1/p)`` — a soft minimum, and exactly the
  reciprocal-conjugate of the existential one.

Magnitude 0 means the geometric regime, which splits in two: the disjunctive
geometric mean folds 0-vs-inf conflicts with cotensor (inf wins), the
conjunctive one with tensor (0 wins).  Magnitude inf means essential extrema
over the support.

Universal aggregation is *implemented* as dual . existential . dual, so the
De Morgan duality of the two polarities holds exactly, corner cases included.

Points of weight 0 never contribute (the integrand is tensored with its
weight, and tensor(0, x) == 0 even at x == inf); p-sums are the unweighted
variant where every listed element counts with weight 1.

``add_quantifier`` is the additive carrier's log-domain kernel; the ``Carrier``
records MUL and ADD pair each kernel with its carrier's constants and operations.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .errors import QuantLogicError
from .extreal import (ADD_CONSTANTS, ADD_OPS, INF, MUL_CONSTANTS, MUL_OPS, AddReal,
                      MulReal, OpCode, add_div, add_dual, add_scalar, check_add,
                      check_mul, kahan_sum, mul_div, mul_dual, mul_pow, napier,
                      napier_inv)
from .spaces import Space

# Kernel routing: go through the log domain for large exponents, wide dynamic
# range, or whenever a**p would leave the double exponent range.
_LOG_ROUTE_P = 64.0
_LOG_ROUTE_RANGE = 1e12
_EXP_BUDGET = 700.0


class Polarity(enum.Enum):
    EXISTENTIAL = "existential"  # exponent +p
    UNIVERSAL = "universal"      # exponent -p


@dataclass(frozen=True)
class SignedP:
    """A quantifier exponent: polarity plus magnitude p in [0, inf]."""

    polarity: Polarity
    magnitude: float

    def __post_init__(self):
        m = self.magnitude
        if math.isnan(m) or m < 0.0:
            raise QuantLogicError("INVALID_P", f"magnitude must be in [0, inf], got {m!r}")


def exists_p(p: float) -> SignedP:
    return SignedP(Polarity.EXISTENTIAL, float(p))


def forall_p(p: float) -> SignedP:
    return SignedP(Polarity.UNIVERSAL, float(p))


@dataclass(frozen=True)
class ValueVector:
    """A multiplicative-carrier value per point of a space."""

    space: Space
    values: tuple[MulReal, ...]

    def __post_init__(self):
        if len(self.values) != len(self.space):
            raise QuantLogicError(
                "VALUE_COUNT",
                f"{len(self.values)} values for {len(self.space)} points of "
                f"space {self.space.name!r}")
        for v in self.values:
            check_mul(v)

    @classmethod
    def _trusted(cls, space: Space, values: tuple[MulReal, ...]) -> ValueVector:
        """A vector of values the evaluator computed from checked inputs, built
        without running ``check_mul`` on each again; only the evaluator's
        quantifier handoff uses it."""
        vv = object.__new__(cls)
        object.__setattr__(vv, "space", space)
        object.__setattr__(vv, "values", values)
        return vv

    def support_pairs(self) -> list[tuple[float, MulReal]]:
        return [(w, v) for w, v in zip(self.space.weights, self.values) if w > 0.0]


def value_vector(space: Space, values: Iterable[float]) -> ValueVector:
    return ValueVector(space, tuple(float(v) for v in values))


# --------------------------------------------------------------------------
# kernels
# --------------------------------------------------------------------------

def _log_mean(p: float, weights: Iterable[float], xs: Iterable[float]) -> float:
    """(1/p) log sum_i w_i e^(p x_i) for finite p > 0, w_i > 0 and finite x_i.

    Factored around the largest term, in units of 1/max(p, 1) so that no term
    overflows however large or small p and the x_i are.
    """
    k = max(p, 1.0)
    q = p / k
    v = [math.log(w) / k + q * x for w, x in zip(weights, xs)]
    m = max(v)
    r = math.log(kahan_sum(math.exp(k * (t - m)) for t in v))
    return m + r / p if k == p else (m + r) / p


def _pow_sum_root(p: float, pairs: Sequence[tuple[float, float]]) -> float:
    """(sum_i w_i * a_i**p) ** (1/p) for finite p > 0, finite positive a_i."""
    amax = max(a for _, a in pairs)
    amin = min(a for _, a in pairs)
    direct = (p < _LOG_ROUTE_P
              and amax / amin <= _LOG_ROUTE_RANGE
              and p * abs(math.log(amax)) <= _EXP_BUDGET
              and p * abs(math.log(amin)) <= _EXP_BUDGET)
    if direct:
        s = kahan_sum(w * a ** p for w, a in pairs)
        if s < INF:  # else a huge weight overflowed the sum: take the log route
            try:
                return s ** (1.0 / p)
            except OverflowError:
                return INF
    weights, values = zip(*pairs)
    try:
        return math.exp(_log_mean(p, weights, map(math.log, values)))
    except OverflowError:
        return INF


def _existential(p: float, pairs: Sequence[tuple[float, float]]) -> MulReal:
    """Existential aggregation over (weight, value) pairs, weights > 0."""
    if p == INF:
        return max(a for _, a in pairs)
    if any(a == INF for _, a in pairs):
        return INF
    positive = [(w, a) for w, a in pairs if a > 0.0]
    if not positive:
        return 0.0
    return _pow_sum_root(p, positive)


def _geometric_disjunctive(pairs: Sequence[tuple[float, float]]) -> MulReal:
    """Weighted geometric product, 0-vs-inf decided by cotensor (inf wins)."""
    if any(a == INF for _, a in pairs):
        return INF
    if any(a == 0.0 for _, a in pairs):
        return 0.0
    terms = [w * math.log(a) for w, a in pairs]
    if INF in terms:  # a huge weight: the product saturates, and inf wins as above
        return INF
    try:
        return math.exp(kahan_sum(terms))
    except OverflowError:
        return INF


def _aggregate(sp: SignedP, pairs: Sequence[tuple[float, float]]) -> MulReal:
    if sp.polarity is Polarity.UNIVERSAL:
        dual_pairs = [(w, mul_dual(a)) for w, a in pairs]
        return mul_dual(_aggregate(exists_p(sp.magnitude), dual_pairs))
    if sp.magnitude == 0.0:
        return _geometric_disjunctive(pairs)
    return _existential(sp.magnitude, pairs)


# --------------------------------------------------------------------------
# public operations
# --------------------------------------------------------------------------

def p_sum(sp: SignedP, values: Sequence[float]) -> MulReal:
    """Unweighted p-sum of a nonempty list (magnitude 0 is undefined)."""
    vals = [check_mul(v) for v in values]
    if not vals:
        raise QuantLogicError("EMPTY_LIST", "p_sum of an empty list")
    if sp.magnitude == 0.0:
        raise QuantLogicError("P_ZERO_SUM", "p-sums require magnitude > 0")
    return _aggregate(sp, [(1.0, v) for v in vals])


def p_mean(sp: SignedP, vv: ValueVector) -> MulReal:
    """Weighted p-mean over the support of the vector's space.

    No normalization happens here: the weights are used as given, so on
    non-probability spaces this is a power *integral* rather than a mean.
    """
    pairs = vv.support_pairs()
    if not pairs:
        raise QuantLogicError("EMPTY_SUPPORT",
                              f"space {vv.space.name!r} has empty support")
    return _aggregate(sp, pairs)


def add_quantifier(polarity: Polarity, p: float, weights, values) -> AddReal:
    """Aggregate additive-carrier values u_i with weights w_i > 0.

    Existential: -(1/p) log sum_i w_i e^(-p u_i); universal flips both signs.
    Magnitude inf gives essential extrema (numeric min for existential, since
    the logical order is reversed); magnitude 0 gives the weighted arithmetic
    sum, with mixed-infinity conflicts resolved per polarity (cotensor for
    existential, tensor for universal).
    """
    pairs = [(w, u) for w, u in zip(weights, values) if w > 0.0]
    if not pairs:
        raise QuantLogicError("EMPTY_SUPPORT", "quantifier over empty support")
    existential = polarity is Polarity.EXISTENTIAL
    if p == INF:
        us = [u for _, u in pairs]
        return min(us) if existential else max(us)
    if p == 0.0:
        terms = [add_scalar(w, u) for w, u in pairs]
        has_pos = any(t == INF for t in terms)
        has_neg = any(t == -INF for t in terms)
        if has_pos and has_neg:
            return -INF if existential else INF
        if has_pos:
            return INF
        if has_neg:
            return -INF
        return kahan_sum(terms)
    sign = -1.0 if existential else 1.0
    # The exponential kernel e^(sign*p*u) blows up at u = sign*inf (that end
    # absorbs) and vanishes at u = -sign*inf (those points drop out).
    if any(u == sign * INF for _, u in pairs):
        return sign * INF
    finite = [(w, u) for w, u in pairs if u != -sign * INF]
    if not finite:
        return -sign * INF
    ws, us = zip(*finite)
    return sign * _log_mean(p, ws, [sign * u for u in us])


# --------------------------------------------------------------------------
# the two carriers
# --------------------------------------------------------------------------

def _mul_quantifier(polarity: Polarity, p: float, space: Space) -> Callable:
    sp = SignedP(polarity, p)
    trusted = ValueVector._trusted
    return lambda values: p_mean(sp, trusted(space, tuple(values)))


def _add_quantifier(polarity: Polarity, p: float, space: Space) -> Callable:
    return lambda values: add_quantifier(polarity, p, space.weights, values)


@dataclass(frozen=True)
class Carrier:
    """What each constant, connective and quantifier means in one carrier.

    MUL is [0, inf]; ADD, its napier image, holds the napier conjugate of each
    field.  Look one up with ``carrier(mode)`` where a mode string comes in.
    Call the function fields through ``live``, so that rebinding the module
    function (a mock, a profiler) reaches every caller.
    """

    mode: str                       # "mul" | "add"
    other: str                      # the mode of the napier-conjugate carrier
    constants: dict[str, float]     # the named constants of the formula language
    ops: dict[OpCode, Callable]     # the six binary operations
    div: Callable                   # residual of tensor
    dual: Callable                  # the involution
    scalar: Callable                # scalar action (k, a) -> k . a
    quantifier: Callable            # (polarity, p, space) -> (values -> aggregate)
    check: Callable                 # validates a value entering from outside
    napier: Callable                # this carrier -> the other one


MUL = Carrier("mul", "add", MUL_CONSTANTS, MUL_OPS, mul_div, mul_dual, mul_pow,
              _mul_quantifier, check_mul, napier)
ADD = Carrier("add", "mul", ADD_CONSTANTS, ADD_OPS, add_div, add_dual, add_scalar,
              _add_quantifier, check_add, napier_inv)


def carrier(mode: str) -> Carrier:
    """The carrier named by a mode string ("mul" or "add")."""
    for c in (MUL, ADD):
        if c.mode == mode:
            return c
    raise QuantLogicError("INVALID_MODE", f"mode must be 'mul' or 'add', got {mode!r}")


def live(fn: Callable) -> Callable:
    """The function fn's module now binds to fn's name (fn itself unless patched)."""
    return fn.__globals__[fn.__name__]
