"""Shared test utilities: tolerant comparisons, a random formula generator and
reference quantifier kernels."""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

from quantlogic import (
    Atom,
    BinOp,
    Const,
    Div,
    Dual,
    OpCode,
    Quant,
    Scalar,
    environment_from_dict,
)
from quantlogic.extreal import add_scalar, kahan_sum
from quantlogic.formulas import Formula, children, rebuild, walk
from quantlogic.pmeans import Polarity

INF = math.inf


def rel_close(a: float, b: float, tol: float = 1e-9) -> bool:
    """Equal at infinities; relative with an absolute floor of `tol` otherwise.

    The absolute floor matters in the additive carrier, where values sit near 0
    and a pure relative test would blow up.
    """
    if a == b:
        return True
    if math.isinf(a) or math.isinf(b):
        return False
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def assert_close(a: float, b: float, tol: float = 1e-9, what: str = ""):
    assert rel_close(a, b, tol), f"{what}: {a!r} != {b!r} (tol {tol})"


def formulas_close(f: Formula, g: Formula, tol: float = 1e-12) -> bool:
    """Structural equality with tolerant numeric literals.

    Two trees are equal when their pre-order node sequences match node by
    node, since each node type fixes its number of children.
    """
    pairs = itertools.zip_longest((n for n, _ in walk(f)), (n for n, _ in walk(g)))
    return all(_node_close(a, b, tol) for a, b in pairs)


def _node_close(a, b, tol: float) -> bool:
    """a and b agree in everything but their subformulas."""
    if type(a) is not type(b):
        return False
    if isinstance(a, Const) and not isinstance(a.value, str) \
            and not isinstance(b.value, str):
        return rel_close(a.value, b.value, tol)
    return rebuild(a, children(b)) == b


# ---------------------------------------------------------------------------
# random formulas over a fixed two-space environment
# ---------------------------------------------------------------------------

# Atom values stay within e^[-1/2, 1/2] and scalar factors within {0,..,2} so
# that no evaluation can overflow a double in either carrier: a depth-5 tree
# has at most 32 leaves and a worst-case accumulated exponent of about
# 0.5 * 32 * 32 = 512 < log(DBL_MAX) ~= 709.

_MAGNITUDES = (0.0, 0.5, 1.0, 2.0, 7.0, INF)
_SCALARS = (0.0, 0.5, 1.0, 2.0)


def coherence_environment(rng: random.Random):
    def val():
        return math.exp(rng.uniform(-0.5, 0.5))

    doc = {
        "mode": "mul",
        "spaces": {
            "I": {"points": ["i0", "i1", "i2"], "weights": [0.5, 0.25, 0.25]},
            "K": {"points": ["k0", "k1"], "weights": [1.0, 1.0]},
        },
        "atoms": {
            "phi": {"context": ["I"], "values": [val() for _ in range(3)]},
            "psi": {"context": ["I"], "values": [val() for _ in range(3)]},
            "rho": {"context": ["I", "K"], "values": [val() for _ in range(6)]},
        },
    }
    return environment_from_dict(doc)


_ATOM_SIG = {"phi": ("I",), "psi": ("I",), "rho": ("I", "K")}


def random_formula(rng: random.Random, depth: int = 4,
                   bound: tuple[tuple[str, str], ...] = ()) -> Formula:
    """A closed, well-formed formula over coherence_environment's signature.

    `bound` lists (variable, space-name) pairs currently in scope.
    """
    leafy = depth <= 0 or rng.random() < 0.25
    if leafy:
        choices = ["number", "named"]
        usable = [(a, sig) for a, sig in _ATOM_SIG.items()
                  if all(any(s == want for _, s in bound) for want in sig)]
        if usable:
            choices += ["atom"] * 4
        kind = rng.choice(choices)
        if kind == "number":
            return Const(math.exp(rng.uniform(-0.5, 0.5)))
        if kind == "named":
            return Const(rng.choice(("true", "false", "one", "zero", "top", "bot")))
        name, sig = rng.choice(usable)
        args = tuple(rng.choice([v for v, s in bound if s == want])
                     for want in sig)
        return Atom(name, args)
    kind = rng.choice(["binop", "binop", "binop", "div", "dual", "scalar",
                       "quant", "quant"])
    if kind == "binop":
        op = rng.choice(list(OpCode))
        return BinOp(op, random_formula(rng, depth - 1, bound),
                     random_formula(rng, depth - 1, bound))
    if kind == "div":
        return Div(random_formula(rng, depth - 1, bound),
                   random_formula(rng, depth - 1, bound))
    if kind == "dual":
        return Dual(random_formula(rng, depth - 1, bound))
    if kind == "scalar":
        return Scalar(rng.choice(_SCALARS), random_formula(rng, depth - 1, bound))
    var = f"v{len(bound)}"
    space = rng.choice(("I", "K"))
    pol = rng.choice((Polarity.EXISTENTIAL, Polarity.UNIVERSAL))
    return Quant(pol, rng.choice(_MAGNITUDES), var, space,
                 random_formula(rng, depth - 1, bound + ((var, space),)))


# ---------------------------------------------------------------------------
# reference quantifier kernels: one aggregate from (weight, value) pairs, cell
# by cell, as the library computed it before its node kernels; the universal
# multiplicative mean as the node kernel computes it, with exponent -p.  One
# result differs on purpose: at p = 0 a product w * x beyond the double range
# saturates here, except in that universal mean.
# ---------------------------------------------------------------------------

_REF_LOG_ROUTE_P = 64.0
_REF_LOG_ROUTE_RANGE = 1e12
_REF_EXP_BUDGET = 700.0


def _ref_log_mean(p, weights, xs):
    k = max(p, 1.0)
    q = p / k
    v = [math.log(w) / k + q * x for w, x in zip(weights, xs)]
    m = max(v)
    r = math.log(kahan_sum(math.exp(k * (t - m)) for t in v))
    return m + r / p if k == p else (m + r) / p


def _ref_pow_sum_root(p, pairs):
    amax = max(a for _, a in pairs)
    amin = min(a for _, a in pairs)
    direct = (p < _REF_LOG_ROUTE_P
              and amax / amin <= _REF_LOG_ROUTE_RANGE
              and p * abs(math.log(amax)) <= _REF_EXP_BUDGET
              and p * abs(math.log(amin)) <= _REF_EXP_BUDGET)
    if direct:
        s = kahan_sum(w * a ** p for w, a in pairs)
        if s < INF:
            try:
                return s ** (1.0 / p)
            except OverflowError:
                return INF
    weights, values = zip(*pairs)
    try:
        return math.exp(_ref_log_mean(p, weights, map(math.log, values)))
    except OverflowError:
        return INF


def _ref_existential(p, pairs):
    if p == INF:
        return max(a for _, a in pairs)
    if any(a == INF for _, a in pairs):
        return INF
    positive = [(w, a) for w, a in pairs if a > 0.0]
    if not positive:
        return 0.0
    return _ref_pow_sum_root(p, positive)


def _ref_geometric_disjunctive(pairs):
    if any(a == INF for _, a in pairs):
        return INF
    if any(a == 0.0 for _, a in pairs):
        return 0.0
    terms = [w * math.log(a) for w, a in pairs]
    if INF in terms:
        return INF
    try:
        return math.exp(kahan_sum(terms))
    except OverflowError:
        return INF


def _ref_exp(x):
    try:
        return math.exp(x)
    except OverflowError:
        return INF


def _ref_universal(p, pairs):
    """(sum w a**-p) ** (-1/p): 0 absorbs it, inf drops out of it but wins its
    geometric mean, and no reciprocal is taken."""
    if p == INF:
        return min(a for _, a in pairs)
    if any(a == 0.0 for _, a in pairs):
        return 0.0
    finite = [(w, a) for w, a in pairs if a < INF]
    if not finite or p == 0.0 and len(finite) < len(pairs):
        return INF
    weights, values = zip(*finite)
    logs = [math.log(a) for a in values]
    if p == 0.0:
        terms = [w * x for w, x in zip(weights, logs)]
        if not any(math.isinf(t) for t in terms):
            return _ref_exp(kahan_sum(terms))
        exact = sum(Fraction(w) * Fraction(x) for w, x in zip(weights, logs))
        try:  # products beyond the double range, summed exactly
            return _ref_exp(float(exact))
        except OverflowError:
            return INF if exact > 0 else 0.0
    direct = (p < _REF_LOG_ROUTE_P
              and max(values) / min(values) <= _REF_LOG_ROUTE_RANGE
              and p * abs(math.log(max(values))) <= _REF_EXP_BUDGET
              and p * abs(math.log(min(values))) <= _REF_EXP_BUDGET)
    if direct:
        s = kahan_sum(w * a ** -p for w, a in finite)
        if 0.0 < s < INF:
            try:
                return s ** (-1.0 / p)
            except OverflowError:
                return INF
    return _ref_exp(-_ref_log_mean(p, weights, [-x for x in logs]))


def ref_p_mean(polarity, p, weights, values):
    """The multiplicative p-mean of values over the points of positive weight."""
    pairs = [(w, v) for w, v in zip(weights, values) if w > 0.0]
    if polarity is Polarity.UNIVERSAL:
        return _ref_universal(p, pairs)
    if p == 0.0:
        return _ref_geometric_disjunctive(pairs)
    return _ref_existential(p, pairs)


def ref_add_quantifier(polarity, p, weights, values):
    """The additive quantifier of values over the points of positive weight."""
    pairs = [(w, u) for w, u in zip(weights, values) if w > 0.0]
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
    if any(u == sign * INF for _, u in pairs):
        return sign * INF
    finite = [(w, u) for w, u in pairs if u != -sign * INF]
    if not finite:
        return -sign * INF
    ws, us = zip(*finite)
    return sign * _ref_log_mean(p, ws, [sign * u for u in us])
