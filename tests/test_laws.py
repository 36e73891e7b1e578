"""The quantifier–connective laws as a table, and the pushdown rules it licenses.

Each law moves a quantifier Q^p_y past an operation whose other operand φ
does not depend on y:

* a binary operation: Q^p_y(φ op ψ(y)) = φ op Q^p_y ψ(y); for division both
  Q^p_y(φ -o ψ(y)) = φ -o Q^p_y ψ(y) and Q^p_y(ψ(y) -o φ) = (Q̄^p_y ψ(y)) -o φ,
  with Q̄ the other polarity;
* the dual: Q^p_y(ψ(y)^*) = (Q̄^p_y ψ(y))^*;
* the scalar action: Q^p_y(k . ψ(y)) = k . Q^(k·p)_y ψ(y), for k > 0.

``LAWS`` says, per (operation, polarity, class of p, class of space), whether
the law holds, holds at every value but some corner ones ("corners-only"), or
fails at ordinary values.  The two sides are computed straight from the
carrier records (connective tables and quantifier kernels), in both carriers,
never through the evaluator, which applies the rules.  A side that is a truth
corner (0 or inf in MUL, +-inf in ADD) must match exactly; any other within
1e-12 relative in MUL and 1e-12 * max(1, |u|) in ADD.
"""

import math
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from quantlogic import (INF, Context, Polarity, evaluate, make_space, parse, semantics,
                        translate_environment, translate_formula)
from quantlogic.extreal import OpCode, napier_table
from quantlogic.formulas import Atom, BinOp, Quant
from quantlogic.pmeans import ADD, MUL
from helpers import corner_environment, law_close, random_formula, ref_pushdown

E, A = Polarity.EXISTENTIAL, Polarity.UNIVERSAL
OTHER = {E: A, A: E}

# P_GRID and the corners 0 and inf, by class.  Magnitudes at or below 1e-9 are
# left out: there both sides lose accuracy, by different amounts.
P_CLASSES = {"0": (0.0,), "(0,1)": (0.5,), "1": (1.0,), "(1,inf)": (2.0, 7.0), "inf": (INF,)}
POSITIVE = ("(0,1)", "1", "(1,inf)", "inf")
SPACES = {"probability": make_space(range(3), (0.2, 0.3, 0.5), name="Y"),
          "other": make_space(range(3), (0.5, 0.5, 1.0), name="Y")}  # mass 2
SCALARS = (0.5, 2.0, 3.0)
CORNERS = (0.0, 1.0, INF)


def _table(rows: dict) -> dict:
    """LAWS cells from rows: (operation, polarity) -> ten verdicts, one per
    (class of p, class of space), the classes in the order of P_CLASSES and
    SPACES."""
    keys = [(pc, space) for pc in P_CLASSES for space in SPACES]
    return {(op, pol, pc, space): verdict
            for (op, pol), verdicts in rows.items()
            for (pc, space), verdict in zip(keys, verdicts.split())}


H, C, F = "holds", "corners-only", "fails"
#                 p = 0       (0, 1)      1           (1, inf)    inf
#                 prob other  prob other  prob other  prob other  prob other
LAWS = _table({
    ("tensor", E):   f"{C} {F}  {H} {H}  {H} {H}  {H} {H}  {H} {H}",
    ("tensor", A):   f"{H} {F}  {H} {H}  {H} {H}  {H} {H}  {H} {H}",
    ("cotensor", E): f"{H} {F}  {H} {H}  {H} {H}  {H} {H}  {H} {H}",
    ("cotensor", A): f"{C} {F}  {H} {H}  {H} {H}  {H} {H}  {H} {H}",
    ("div", E):      f"{H} {F}  {H} {H}  {H} {H}  {H} {H}  {H} {H}",
    ("div", A):      f"{C} {F}  {H} {H}  {H} {H}  {H} {H}  {H} {H}",
    ("dual", E):     f"{H} {H}  {H} {H}  {H} {H}  {H} {H}  {H} {H}",
    ("dual", A):     f"{H} {H}  {H} {H}  {H} {H}  {H} {H}  {H} {H}",
    ("scalar", E):   f"{H} {H}  {H} {H}  {H} {H}  {H} {H}  {H} {H}",
    ("scalar", A):   f"{H} {H}  {H} {H}  {H} {H}  {H} {H}  {H} {H}",
    # the mean is linear; the harmonic mean is linear in reciprocals
    ("add", E):      f"{F} {F}  {F} {F}  {H} {F}  {F} {F}  {H} {H}",
    ("add", A):      f"{F} {F}  {F} {F}  {F} {F}  {F} {F}  {H} {H}",
    ("hadd", E):     f"{F} {F}  {F} {F}  {F} {F}  {F} {F}  {H} {H}",
    ("hadd", A):     f"{F} {F}  {F} {F}  {H} {F}  {F} {F}  {H} {H}",
    ("join", E):     f"{F} {F}  {F} {F}  {F} {F}  {F} {F}  {H} {H}",
    ("join", A):     f"{F} {F}  {F} {F}  {F} {F}  {F} {F}  {H} {H}",
    ("meet", E):     f"{F} {F}  {F} {F}  {F} {F}  {F} {F}  {H} {H}",
    ("meet", A):     f"{F} {F}  {F} {F}  {F} {F}  {F} {F}  {H} {H}",
})


def sides(c, op, polarity, p, space, phi, psi, k=2.0):
    """The left and right sides of each law of op in carrier c, as tuples."""
    def q(polarity, p, xs):
        return c.quantifier(polarity, p, space)(xs)[0]

    phis = [phi] * len(psi)
    if op == "dual":
        return (q(polarity, p, c.dual(psi)),), (c.dual([q(OTHER[polarity], p, psi)])[0],)
    if op == "scalar":
        return (q(polarity, p, c.scalar(k, psi)),), (c.scalar(k, [q(polarity, k * p, psi)])[0],)
    if op == "div":
        return ((q(polarity, p, c.div(phis, psi)), q(polarity, p, c.div(psi, phis))),
                (c.div([phi], [q(polarity, p, psi)])[0],
                 c.div([q(OTHER[polarity], p, psi)], [phi])[0]))
    f = c.ops[OpCode(op)]
    return (q(polarity, p, f(phis, psi)),), (f([phi], [q(polarity, p, psi)])[0],)


def law_holds(op, polarity, p, space, phi, psi, k=2.0) -> bool:
    """Whether the laws of op hold at these multiplicative values, in MUL and
    at their napier images in ADD."""
    for c in (MUL, ADD):
        args = (phi, psi) if c is MUL else (napier_table([phi])[0], napier_table(psi))
        lhs, rhs = sides(c, op, polarity, p, space, *args, k)
        if not all(law_close(a, b, c.mode) for a, b in zip(lhs, rhs)):
            return False
    return True


def classify(op, polarity, pc, space_class) -> str:
    """The cell's verdict on a seeded sweep: 60 draws of ordinary values
    (e^[-5, 5]) per p of the class, then 150 with corners among them."""
    rng = random.Random(f"{op} {polarity.value} {pc} {space_class}")

    def draw(corners: bool) -> float:
        if corners and rng.random() < 0.4:
            return rng.choice(CORNERS)
        return math.exp(rng.uniform(-5.0, 5.0))

    space = SPACES[space_class]
    for corners, trials in ((False, 60), (True, 150)):
        for p in P_CLASSES[pc]:
            for _ in range(trials):
                if not law_holds(op, polarity, p, space, draw(corners),
                                 [draw(corners) for _ in range(3)], rng.choice(SCALARS)):
                    return "corners-only" if corners else "fails"
    return "holds"


@pytest.mark.parametrize("cell", sorted(LAWS, key=str), ids=lambda cell: "-".join(
    [cell[0], cell[1].value, cell[2], cell[3]]))
def test_each_cell_of_the_law_table(cell):
    assert classify(*cell) == LAWS[cell]


def test_every_rule_of_the_pushdown_is_a_holds_cell():
    assert set(semantics._PUSHDOWN_RULES) <= {op for op, *_ in LAWS}
    for op, at_zero in semantics._PUSHDOWN_RULES.items():
        for pc in POSITIVE + (("0",) if at_zero else ()):
            for polarity in Polarity:
                for space in SPACES:
                    assert LAWS[op, polarity, pc, space] == "holds", (op, polarity, pc, space)


# The formula of each operation's law, over φ = phi() and ψ(y) = psi(y).
LAW_FORMULAS = {
    "tensor": "phi() (x) psi(y)", "cotensor": "psi(y) (x*) phi()", "div": "phi() -o psi(y)",
    "dual": "psi(y)^*", "scalar": "2 . psi(y)", "add": "phi() (+) psi(y)",
    "hadd": "phi() (+*) psi(y)", "join": "phi() \\/ psi(y)", "meet": "psi(y) /\\ phi()",
}


@pytest.mark.parametrize("op", sorted(LAW_FORMULAS))
@pytest.mark.parametrize("tag, polarity", [("E", E), ("A", A)])
def test_the_pushdown_moves_a_quantifier_exactly_where_a_rule_says(op, tag, polarity):
    for pc, ps in P_CLASSES.items():
        for p in ps:
            f = parse(f"{tag}^{p} (y in Y). {LAW_FORMULAS[op]}")
            rule = semantics._PUSHDOWN_RULES.get(op)
            licensed = rule is not None and (pc != "0" or rule)
            assert (semantics._pushdown(f) is not f) == licensed, (op, tag, p)


def test_the_pushdown_moves_past_either_operand_and_flips_where_the_law_does():
    cases = {
        "E^2 (y in Y). psi(y) -o phi()": "(A^2 (y in Y). psi(y)) -o phi()",
        "E^2 (y in Y). psi(y) (x) phi()": "(E^2 (y in Y). psi(y)) (x) phi()",
        "A^1 (y in Y). (psi(y) (x*) phi())^*": "((E^1 (y in Y). psi(y)) (x*) phi())^*",
        "A^3 (y in Y). 0.5 . psi(y)": "0.5 . A^1.5 (y in Y). psi(y)",
        "E^inf (y in Y). 2 . psi(y)": "2 . E^inf (y in Y). psi(y)",
        "E^0 (y in Y). 2 . (psi(y)^*)": "2 . (A^0 (y in Y). psi(y))^*",
        "E^2 (y in Y). 0 . psi(y)": "E^2 (y in Y). 0 . psi(y)",
        "E^1e308 (y in Y). 2 . psi(y)": "E^1e308 (y in Y). 2 . psi(y)",
        "E^0 (y in Y). phi() (x) psi(y)": "E^0 (y in Y). phi() (x) psi(y)",
        "E^2 (y in Y). psi(y) (x) psi(y)": "E^2 (y in Y). psi(y) (x) psi(y)",
    }
    for text, want in cases.items():
        assert semantics._pushdown(parse(text)) == parse(want), text


def test_the_pushdown_is_the_rules_applied_recursively():
    rng = random.Random(41)
    rewritten = 0
    for _ in range(2000):
        f = random_formula(rng, depth=5)
        g = semantics._pushdown(f)
        assert g == ref_pushdown(f), f
        rewritten += g is not f
    assert rewritten > 300


def test_the_pushdown_takes_deep_formulas():
    # a quantifier moved down 5000 duals, and one at the foot of a chain of
    # 5000 tensors, whose nodes above it are rebuilt
    f = parse("E^2 (y in Y). psi(y)" + "^*" * 5000)
    g = semantics._pushdown(f)
    assert g == parse("(E^2 (y in Y). psi(y))" + "^*" * 5000)
    f = parse(" (x) ".join(["(E^2 (y in Y). psi(y)^*)"] + ["phi()"] * 5000))
    g = semantics._pushdown(f)
    assert g == parse(" (x) ".join(["(A^2 (y in Y). psi(y))^*"] + ["phi()"] * 5000))
    # the pass is linear: a quantifier that enters the left operand 20000
    # times, and one that enters the right operand 20000 times (built in a
    # loop: the parser recurses on parentheses); a pass that scans each
    # operand again takes tens of seconds on either
    n = 20000
    links = ["phi()"] * n
    chains = [(parse("E^2 (y in Y). " + " (x) ".join(["psi(y)"] + links)),
               parse(" (x) ".join(["(E^2 (y in Y). psi(y))"] + links)))]
    phi, psi = Atom("phi", ()), Atom("psi", ("y",))
    f, want = psi, Quant(E, 2.0, "y", "Y", psi)
    for _ in range(n):
        f, want = BinOp(OpCode.TENSOR, phi, f), BinOp(OpCode.TENSOR, phi, want)
    chains.append((Quant(E, 2.0, "y", "Y", f), want))
    for f, want in chains:
        start = time.process_time()
        g = semantics._pushdown(f)
        assert time.process_time() - start < 2.0
        assert g == want


def test_the_folded_walk_is_the_rewritten_formula_bit_for_bit():
    """The evaluator folds a walk whose nodes keep the kids of f as written;
    its table is bit for bit that of the rewritten formula, a fixed point of
    the pass, whose walk the evaluator folds as it stands."""
    rng = random.Random(43)
    rewritten = 0
    for _ in range(500):
        env = corner_environment(rng)
        f = random_formula(rng, depth=5)
        for g, e in ((f, env), (translate_formula(f, "to_add"), translate_environment(env))):
            pushed = ref_pushdown(g)
            assert semantics._pushdown(pushed) is pushed
            want = evaluate(pushed, Context(), e).table
            assert [x.hex() for x in evaluate(g, Context(), e).table] == [x.hex() for x in want], g
            rewritten += pushed is not g
    assert rewritten > 100


# ---------------------------------------------------------------------------
# every cell a rule stands on, over corner-bearing values, in both carriers
# ---------------------------------------------------------------------------

RULE_CELLS = sorted((cell for cell in LAWS if cell[0] in semantics._PUSHDOWN_RULES
                     and LAWS[cell] == "holds"), key=str)
VALUES = st.one_of(st.sampled_from(CORNERS),
                   st.floats(min_value=-20.0, max_value=20.0).map(math.exp))


@pytest.mark.parametrize("cell", RULE_CELLS, ids=lambda cell: "-".join(
    [cell[0], cell[1].value, cell[2], cell[3]]))
@settings(max_examples=20, deadline=None)
@given(data=st.data(), phi=VALUES, psi=st.lists(VALUES, min_size=3, max_size=3),
       k=st.sampled_from(SCALARS))
def test_a_rule_holds_on_corner_bearing_values(cell, data, phi, psi, k):
    op, polarity, pc, space = cell
    p = data.draw(st.sampled_from(P_CLASSES[pc]))
    assert law_holds(op, polarity, p, SPACES[space], phi, psi, k)


# ---------------------------------------------------------------------------
# pinned witnesses: the cells that keep the rule set from growing
# ---------------------------------------------------------------------------

WITNESSES = [
    # (op, polarity, p, space class, φ, ψ)
    # E^0 of inf (x) (0, 1, 1) is inf, but inf (x) E^0 (0, 1, 1) = inf (x) 0 is 0
    ("tensor", E, 0.0, "probability", INF, [0.0, 1.0, 1.0]),
    ("tensor", A, 0.0, "other", 2.0, [1.0, 1.0, 1.0]),  # 2^2 against 2 on mass 2
    ("tensor", E, 0.0, "other", 2.0, [1.0, 1.0, 1.0]),
    # A^0 of 0 (x*) (inf, 1, 1) is 0, but 0 (x*) A^0 (inf, 1, 1) = 0 (x*) inf is inf
    ("cotensor", A, 0.0, "probability", 0.0, [INF, 1.0, 1.0]),
    ("cotensor", E, 0.0, "other", 2.0, [1.0, 1.0, 1.0]),
    ("cotensor", A, 0.0, "other", 2.0, [1.0, 1.0, 1.0]),
    ("div", A, 0.0, "probability", 0.0, [0.0, 1.0, 1.0]),
    ("div", E, 0.0, "other", 2.0, [1.0, 1.0, 1.0]),
    ("div", A, 0.0, "other", 2.0, [1.0, 1.0, 1.0]),
    ("join", E, 2.0, "probability", 2.0, [1.0, 3.0, 1.0]),
    ("meet", A, 2.0, "probability", 2.0, [1.0, 3.0, 1.0]),
    ("add", E, 2.0, "probability", 2.0, [1.0, 3.0, 1.0]),
    ("hadd", A, 2.0, "probability", 2.0, [1.0, 3.0, 1.0]),
    ("add", E, 1.0, "other", 2.0, [1.0, 3.0, 1.0]),
    ("hadd", A, 1.0, "other", 2.0, [1.0, 3.0, 1.0]),
]


@pytest.mark.parametrize("op, polarity, p, space, phi, psi", WITNESSES)
def test_a_pinned_witness_breaks_its_law(op, polarity, p, space, phi, psi):
    pc = next(pc for pc, ps in P_CLASSES.items() if p in ps)
    verdict = LAWS[op, polarity, pc, space]
    assert verdict != "holds"
    assert not law_holds(op, polarity, p, SPACES[space], phi, psi)
    if verdict == "fails":  # at ordinary values
        assert not set([phi, *psi]) & {0.0, INF}
