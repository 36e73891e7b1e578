"""Shared test utilities: tolerant comparisons and a random formula generator."""

from __future__ import annotations

import itertools
import math
import random

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
