"""Shared test utilities: tolerant comparisons, a random formula generator and
reference quantifier kernels."""

from __future__ import annotations

import itertools
import math
import random
import sys
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
from quantlogic.extreal import kahan_sum
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
# by cell, with the node kernel's choice between the direct sum of powers and
# the log domain; at p = 0 products w * x beyond the double range are summed
# exactly, so that only the total decides.
# ---------------------------------------------------------------------------

def _ref_log_mean(p, weights, xs):
    k = max(p, 1.0)
    q = p / k
    v = [math.log(w) / k + q * x for w, x in zip(weights, xs)]
    m = max(v)
    r = math.log(kahan_sum(math.exp(k * (t - m)) for t in v))
    return m + r / p if k == p else (m + r) / p


def ref_direct(e, pairs):
    """(sum w a**e) ** (1/e) for finite a > 0, or None where the node kernel
    takes the log domain instead: a power a**e or a term w a**e that is not a
    normal double, or a sum or root beyond the double range."""
    try:
        powers = [a ** e for _, a in pairs]
        terms = [w * x for (w, _), x in zip(pairs, powers)]
        if min(powers + terms) < sys.float_info.min:
            return None
        s = kahan_sum(terms)
        return s ** (1.0 / e) if s < INF else None
    except OverflowError:
        return None


def _ref_exp(x):
    try:
        return math.exp(x)
    except OverflowError:
        return INF


def _ref_weighted_sum(pairs):
    """sum w x, exactly where a product leaves the double range."""
    terms = [w * x for w, x in pairs]
    if not any(math.isinf(t) for t in terms):
        return kahan_sum(terms)
    exact = sum(Fraction(w) * Fraction(x) for w, x in pairs)
    try:
        return float(exact)
    except OverflowError:
        return INF if exact > 0 else -INF


def _ref_existential(p, pairs):
    if p == INF:
        return max(a for _, a in pairs)
    if any(a == INF for _, a in pairs):
        return INF
    positive = [(w, a) for w, a in pairs if a > 0.0]
    if not positive:
        return 0.0
    direct = ref_direct(p, positive)
    if direct is not None:
        return direct
    weights, values = zip(*positive)
    return _ref_exp(_ref_log_mean(p, weights, map(math.log, values)))


def _ref_geometric_disjunctive(pairs):
    if any(a == INF for _, a in pairs):
        return INF
    if any(a == 0.0 for _, a in pairs):
        return 0.0
    return _ref_exp(_ref_weighted_sum([(w, math.log(a)) for w, a in pairs]))


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
    if p == 0.0:
        return _ref_exp(_ref_weighted_sum([(w, math.log(a)) for w, a in finite]))
    direct = ref_direct(-p, finite)
    if direct is not None:
        return direct
    weights, values = zip(*finite)
    return _ref_exp(-_ref_log_mean(p, weights, [-math.log(a) for a in values]))


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
        infinite = {u for _, u in pairs if math.isinf(u)}
        if len(infinite) == 2:  # cotensor (existential) or tensor (universal)
            return -INF if existential else INF
        if infinite:
            return infinite.pop()
        return _ref_weighted_sum(pairs)
    sign = -1.0 if existential else 1.0
    if any(u == sign * INF for _, u in pairs):
        return sign * INF
    finite = [(w, u) for w, u in pairs if u != -sign * INF]
    if not finite:
        return -sign * INF
    ws, us = zip(*finite)
    return sign * _ref_log_mean(p, ws, [sign * u for u in us])
