"""p-sums and weighted p-means of extended nonnegative reals.

A signed exponent selects a *polarity* along with a magnitude p:

* existential polarity aggregates with exponent +p,
  ``(sum_i w_i a_i**p) ** (1/p)`` — a soft maximum;
* universal polarity aggregates with exponent -p,
  ``(sum_i w_i a_i**-p) ** (-1/p)`` — a soft minimum, the De Morgan dual of
  the existential one (exactly at the corners, to rounding elsewhere).

Existential aggregation is absorbed by logical true (inf) and drops logical
false (0); universal aggregation the reverse.  Magnitude 0 means the
geometric regime, where a dropped corner does not drop out but decides the
mean unless the absorbing one is present: the disjunctive geometric mean
folds 0-vs-inf conflicts with cotensor (inf wins), the conjunctive one with
tensor (0 wins).  Magnitude inf means essential extrema over the support.

Points of weight 0 never contribute (the integrand is tensored with its
weight, and tensor(0, x) == 0 even at x == inf); p-sums are the unweighted
variant where every listed element counts with weight 1.

One kernel serves both carriers and both polarities; a carrier only says how
its values are represented (``Carrier``).  The universal polarity takes the
exponent -p as it stands, on the direct route and in the log domain
(``exp(-L)`` with L the log-domain mean of ``-log a``), and no route takes a
reciprocal, so the extremum is exact and values at either end of the double
range keep their place.  A kernel is built where a table is quantified
(``Carrier.quantifier``), from the support record that its space derives
once (``spaces.Space._support_record``); it maps a body table to the
quantified table chunk by chunk.  Each chunk is absorbed, or takes the
extremum, the geometric mean, the direct sum of powers or the log domain; the
direct route is taken where every power and term it computes is a normal
double and their sum is finite, and the log domain everywhere else.  The
corners are found by the arithmetic: at finite p > 0 a chunk first takes its
carrier's route as it stands, a route that cannot succeed on a chunk a corner
decides, and only a chunk where it fails is scanned for the corners
(``_quantifier``, ``_aggregate``).
``p_mean``, ``p_sum``, ``add_quantifier`` and ``escort_quantifier`` run one
chunk through the same kernel.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import repeat
from operator import add, mul, sub
from sys import float_info
from typing import Callable, Iterable, Sequence

from .errors import QuantLogicError
from .extreal import (ADD_CONSTANTS, ADD_TABLES, INF, MUL_CONSTANTS, MUL_TABLES, NAN,
                      AddReal, MulReal, OpCode, _check_count, _check_iterable,
                      add_div_table, add_dual_table, add_scalar_table, check_add,
                      check_add_table, check_mul,
                      check_mul_table, exact_float, kahan_sum, mul_div_table,
                      mul_dual_table, mul_pow_table, napier_inv, napier_inv_table,
                      napier_table)
from .spaces import Space, _support, make_space

class Polarity(enum.Enum):
    EXISTENTIAL = "existential"  # exponent +p
    UNIVERSAL = "universal"      # exponent -p


@dataclass(frozen=True)
class SignedP:
    """A quantifier exponent: polarity plus magnitude p in [0, inf]."""

    polarity: Polarity
    magnitude: float

    def __post_init__(self):
        object.__setattr__(self, "magnitude", _check_magnitude(self.magnitude))


def _check_magnitude(p: float) -> float:
    """p as ``check_add`` reads it, if a quantifier magnitude in [0, inf]; else INVALID_P."""
    try:
        q = check_add(p)
    except QuantLogicError:
        q = NAN
    if not q >= 0.0:
        raise QuantLogicError("INVALID_P", f"magnitude must be in [0, inf], got {p!r}")
    return q


def exists_p(p: float) -> SignedP:
    return SignedP(Polarity.EXISTENTIAL, p)


def forall_p(p: float) -> SignedP:
    return SignedP(Polarity.UNIVERSAL, p)


@dataclass(frozen=True)
class ValueVector:
    """A multiplicative-carrier value per point of a space."""

    space: Space
    values: tuple[MulReal, ...]

    def __post_init__(self):
        values = _check_count(self.values, len(self.space), f"space {self.space.name!r}")
        object.__setattr__(self, "values", check_mul_table(values))


def value_vector(space: Space, values: Iterable[float]) -> ValueVector:
    return ValueVector(space, tuple(_check_iterable(values, f"values over {space.name!r}")))


# --------------------------------------------------------------------------
# the node kernel: set up once per quantified table, applied chunk by chunk
# --------------------------------------------------------------------------

def _log_mean(p: float, lws: Sequence[float], xs: Iterable[float],
              sign: float = 1.0) -> float:
    """(1/p) log sum_i w_i e^(p y_i) with y_i = sign * x_i, for finite p > 0,
    w_i > 0 and sign = +-1, given lws[i] = log(w_i) / max(p, 1).

    Factored around the largest term, in units of 1/max(p, 1) so that no term
    overflows however large or small p and the y_i are.  A y_i of -inf
    contributes nothing; the mean is NaN where some y_i is +inf or all are
    -inf, since the factoring maximum is then not finite.
    """
    k = max(p, 1.0)
    q = p / k
    if q == 1.0:
        v = list(map(add if sign > 0.0 else sub, lws, xs))
    else:
        q *= sign
        v = [lw + q * x for lw, x in zip(lws, xs)]
    m = max(v)
    if not -INF < m < INF:
        return NAN
    exp = math.exp
    r = math.log(kahan_sum([exp(a - m) for a in v] if k == 1.0 else
                           [exp(k * (a - m)) for a in v]))
    return m + r / p if k == p else (m + r) / p


def _weighted_sum(ws: Sequence[float], xs: Iterable[float]) -> float:
    """sum_i w_i x_i for finite w_i and x_i.

    A product beyond the double range is not taken as its signed infinity:
    then the products are summed exactly, so that only the total decides.
    """
    xs = list(xs)
    terms = list(map(mul, ws, xs))
    if INF not in terms and -INF not in terms:
        return kahan_sum(terms)
    return exact_float(sum(map(mul, map(Fraction, ws), map(Fraction, xs))))


def _direct(e: float, ws: Sequence[float], xs: Sequence[float]) -> float:
    """The direct route, ``(sum_i w_i a_i**e) ** (1/e)``; NaN where it does not apply."""
    try:
        pws = list(map(pow, xs, repeat(e)))
        terms = list(map(mul, ws, pws))
        if min(pws) >= float_info.min and min(terms) >= float_info.min:
            s = kahan_sum(terms)
            if s < INF:
                return s ** (1.0 / e)
    except (OverflowError, ZeroDivisionError):  # beyond the double range, or 0**-p
        pass
    return NAN


def _log_domain(p: float, lower: bool, lws: Sequence[float], ls: Iterable[float],
                exp: Callable) -> float:
    """The log-domain route over the log coordinates ls; NaN where a corner
    decides the chunk."""
    if lower:  # 0.0 - L, so that a zero comes out +0.0, never -0.0
        return exp(0.0 - _log_mean(p, lws, ls, -1.0))
    return exp(_log_mean(p, lws, ls))


def _aggregate(kernel: tuple, xs: Sequence[float]) -> float:
    """The aggregate of one chunk by a kernel that ``_quantifier`` built."""
    p, e, lower, absorb, drop, ws, lws, powers, logs, exp = kernel
    if p > 0.0:
        got = _direct(e, ws, xs) if powers else _log_domain(p, lower, lws, logs(xs), exp)
        if got == got:
            return got
    if absorb in xs:
        return absorb
    w, lw = ws, lws
    if drop in xs:  # it drops out of a p-mean, but wins the geometric mean
        if p == 0.0:
            return drop
        keep = [i for i, a in enumerate(xs) if a != drop]
        if not keep:
            return drop
        xs, w, lw = ([s[i] for i in keep] for s in (xs, ws, lws))
        if powers:
            got = _direct(e, w, xs)
            if got == got:
                return got
    if p == 0.0:
        return exp(_weighted_sum(w, logs(xs)))
    return _log_domain(p, lower, lw, logs(xs), exp)


def _quantifier(c: Carrier, polarity: Polarity, p: float, record: tuple) -> Callable:
    """A function from a body table (n values per chunk) to its quantified
    table (one aggregate per chunk) in carrier c, over the ``_support``
    record (n, support, weights ws > 0 on it, their logs): cells off the
    support are dropped first, then each chunk is aggregated.  The record is
    never changed: at p > 1 a kernel keeps its log weights scaled by 1/p.

    A chunk is absorbed, or takes the extremum (p = inf) or the geometric mean
    (p = 0).  At any other p a MUL chunk takes the direct route,
    ``(sum_i w_i a_i**e) ** (1/e)`` with e = +-p, when every power a_i**e and
    every term w_i a_i**e is a normal double and their sum is finite; a chunk
    where one of them underflows, is subnormal or overflows, and every ADD
    chunk, takes the log domain.  Only a chunk holding the dropped corner picks
    out its remaining points one by one.

    At finite p > 0 the corners are found by the arithmetic: a chunk first
    takes its carrier's fast route as it stands, and only a chunk where that
    fails is scanned for the corners.  The direct route fails on every chunk
    holding 0 or inf (0**e is 0, 0**-e raises, an inf term makes the sum
    infinite).  In the log domain a dropped corner contributes exp(-inf) = 0,
    exactly as if it had been picked out, and an absorbing one, or a chunk of
    dropped corners only, makes the factoring maximum non-finite and the mean
    NaN (``_log_mean``).  MUL chunks leave the log domain for after the scans,
    since the log of 0 raises.
    """
    n, support, ws, lws = record
    true, false = c.constants["true"], c.constants["false"]
    absorb, drop = (true, false) if polarity is Polarity.EXISTENTIAL else (false, true)
    # The mean leans to its absorbing corner.  Where that corner is the numeric
    # minimum (MUL universal, ADD existential) the extremum is min, the direct
    # route takes exponent -p and the log domain runs on negated coordinates.
    lower = absorb < drop
    if p == INF:
        aggregate = min if lower else max
    else:
        if p > 1.0:
            lws = [lw / p for lw in lws]
        aggregate = partial(_aggregate, (p, -p if lower else p, lower, absorb, drop, ws, lws,
                                         c.powers, c.logs, c.exp))
    return partial(_chunks, aggregate, n, support)


def _chunks(aggregate: Callable, n: int, support: Sequence[int],
            body: Sequence[float]) -> list[float]:
    """The aggregate of each chunk of n values of body, over the support."""
    m = len(support)
    if m < n:
        body = [body[j + i] for j in range(0, len(body), n) for i in support]
    return [aggregate(body[j:j + m]) for j in range(0, len(body), m)]


# --------------------------------------------------------------------------
# public operations: one chunk through the node kernel
# --------------------------------------------------------------------------

def p_sum(sp: SignedP, values: Sequence[float]) -> MulReal:
    """Unweighted p-sum of a nonempty list (magnitude 0 is undefined)."""
    vals = check_mul_table(values)
    if not vals:
        raise QuantLogicError("EMPTY_LIST", "p_sum of an empty list")
    if sp.magnitude == 0.0:
        raise QuantLogicError("P_ZERO_SUM", "p-sums require magnitude > 0")
    return _quantifier(MUL, sp.polarity, sp.magnitude,
                       _support([1.0] * len(vals), "p_sum"))(vals)[0]


def p_mean(sp: SignedP, vv: ValueVector) -> MulReal:
    """Weighted p-mean over the support of the vector's space.

    No normalization happens here: the weights are used as given, so on
    non-probability spaces this is a power *integral* rather than a mean.
    """
    return MUL.quantifier(sp.polarity, sp.magnitude, vv.space)(vv.values)[0]


def add_quantifier(polarity: Polarity, p: float, weights, values) -> AddReal:
    """Aggregate additive-carrier values u_i with weights w_i.

    Existential: -(1/p) log sum_i w_i e^(-p u_i); universal flips both signs.
    Magnitude inf gives essential extrema (numeric min for existential, since
    the logical order is reversed); magnitude 0 gives the weighted arithmetic
    sum, with mixed-infinity conflicts resolved per polarity (cotensor for
    existential, tensor for universal).  p, the weights and the values are
    read as ``_check_magnitude``, ``make_space`` and ``check_add_table`` read them.
    """
    p, weights = _check_magnitude(p), list(weights)
    values = _check_count(check_add_table(values), len(weights), "quantifier")
    if weights:  # none at all is an empty support, below
        weights = make_space(range(len(weights)), weights, "quantifier").weights
    return _quantifier(ADD, polarity, p, _support(weights, "quantifier"))(values)[0]


def escort_quantifier(c: Carrier, sp: SignedP, space: Space, masses: Sequence[MulReal],
                      values: Sequence[float]) -> float:
    """The quantifier sp of values in carrier c over the escort weights w * m
    of masses m on a space of weights w.  Each is also taken in logs,
    log w + log m, so a point whose product w * m underflows stays in the
    support, with its exact weight on the log-domain route."""
    ws = list(map(mul, space.weights, masses))
    lws = [math.log(w) + math.log(m) if w > 0.0 < m else -INF
           for w, m in zip(space.weights, masses)]
    record = _support(ws, f"space {space.name!r}", lws)
    return _quantifier(c, sp.polarity, sp.magnitude, record)(values)[0]


# --------------------------------------------------------------------------
# the two carriers
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Carrier:
    """What each constant, connective and quantifier means in one carrier.

    MUL is [0, inf]; ADD, its napier image, holds the napier conjugate of each
    field.  Look one up with ``carrier(mode)`` where a mode string comes in.
    The connectives and ``napier_table`` map whole tables (lists of values),
    and redo their corner cells by the module's scalar operations (see
    ``extreal``).

    The one quantifier kernel reads from a carrier only how values are
    represented: in MUL by their logs, with a direct sum of powers allowed;
    ADD values are log coordinates already.
    """

    mode: str                       # "mul" | "add"
    other: str                      # the mode of the napier-conjugate carrier
    constants: dict[str, float]     # the named constants of the formula language
    ops: dict[OpCode, Callable]     # the six binary operations, on tables
    div: Callable                   # residual of tensor, on tables
    dual: Callable                  # the involution, on tables
    scalar: Callable                # scalar action (k, table) -> k . table
    check: Callable                 # validates a value entering from outside
    check_table: Callable           # validates a table entering from outside
    napier_table: Callable          # a table of this carrier -> the other one
    logs: Callable                  # a chunk of values -> their log coordinates
    exp: Callable                   # a log coordinate -> its value
    powers: bool                    # whether the direct sum of powers applies

    def quantifier(self, polarity: Polarity, p: float, space: Space) -> Callable:
        """A function from a body table over space (one chunk per row) to the
        quantified table, built over the support record that the space
        derives at its first quantification."""
        return _quantifier(self, polarity, p, space._support_record)


MUL = Carrier("mul", "add", MUL_CONSTANTS, MUL_TABLES, mul_div_table, mul_dual_table,
              mul_pow_table, check_mul, check_mul_table, napier_table,
              logs=partial(map, math.log), exp=lambda x: napier_inv(-x), powers=True)
ADD = Carrier("add", "mul", ADD_CONSTANTS, ADD_TABLES, add_div_table, add_dual_table,
              add_scalar_table, check_add, check_add_table, napier_inv_table,
              logs=iter, exp=float, powers=False)


def carrier(mode: str) -> Carrier:
    """The carrier named by a mode string ("mul" or "add")."""
    for c in (MUL, ADD):
        if c.mode == mode:
            return c
    raise QuantLogicError("INVALID_MODE", f"mode must be 'mul' or 'add', got {mode!r}")
