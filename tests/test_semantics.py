"""Evaluator behavior on both carriers, coherence, and separators."""

import itertools
import math
import random

import pytest
from hypothesis import given, strategies as st

from quantlogic import (
    Atom,
    AtomTable,
    Context,
    INF,
    Polarity,
    QuantLogicError,
    Separator,
    add_quantifier,
    cast_predicate,
    definite_separator,
    environment_from_dict,
    eval_add,
    eval_mul,
    evaluate,
    inconsistent_separator,
    counting_space,
    kahan_sum,
    make_environment,
    mul_tensor,
    napier,
    parse,
    principal_separator,
    separator_cast,
    translate_environment,
    translate_formula,
    unitary_separator,
)
from quantlogic.semantics import _atom_table
from helpers import assert_close, coherence_environment, random_formula


ENV = environment_from_dict({
    "mode": "mul",
    "spaces": {
        "I": {"points": ["a", "b"], "weights": [1, 1]},
        "K": {"points": ["u", "v", "w"], "weights": [0.5, 0.25, 0.25]},
    },
    "atoms": {
        "phi": {"context": ["I"], "values": [3.0, 4.0]},
        "mix": {"context": ["I"], "values": [0.0, "inf"]},
        "rho": {"context": ["I", "K"], "values": [1, 2, 3, 4, 5, 6]},
    },
})

EMPTY = Context(())


def mul_value(text):
    return eval_mul(parse(text), EMPTY, ENV).table[0]


def test_quantifier_worked_examples():
    assert mul_value("E^2 (x in I). phi(x)") == 5.0          # sqrt(9 + 16)
    assert mul_value("E^1 (x in I). phi(x)") == 7.0
    assert mul_value("E^inf (x in I). phi(x)") == 4.0
    assert mul_value("A^inf (x in I). phi(x)") == 3.0
    assert_close(mul_value("A^1 (x in I). phi(x)"), 12.0 / 7.0)
    # split geometric: any inf makes the disjunctive mean inf, any zero the
    # conjunctive one zero, regardless of what else is in the table
    assert mul_value("E^0 (x in I). mix(x)") == INF
    assert mul_value("A^0 (x in I). mix(x)") == 0.0


def test_quantifier_weights_enter_the_sum():
    # the x=a slice of rho is (1, 2, 3): K is the fastest axis
    got = eval_mul(parse("E^2 (k in K). rho(x, k)"),
                   Context((("x", ENV.spaces["I"]),)), ENV)
    assert_close(got.table[0], math.sqrt(0.5 * 1 + 0.25 * 4 + 0.25 * 9))
    assert_close(got.table[1], math.sqrt(0.5 * 16 + 0.25 * 25 + 0.25 * 36))


def test_tables_are_row_major():
    ctx = Context((("x", ENV.spaces["I"]), ("k", ENV.spaces["K"])))
    pred = eval_mul(parse("rho(x, k)"), ctx, ENV)
    assert pred.table == (1.0, 2.0, 3.0, 4.0, 5.0, 6.0)
    labels = [lab for lab, _ in pred.rows()]
    assert labels[0] == ("a", "u") and labels[3] == ("b", "u")
    # swapped context permutes the table accordingly
    swapped = eval_mul(parse("rho(x, k)"),
                       Context((("k", ENV.spaces["K"]), ("x", ENV.spaces["I"]))),
                       ENV)
    assert swapped.table == (1.0, 4.0, 2.0, 5.0, 3.0, 6.0)


def reference_atom_table(f, names, sizes, env):
    """The gather as a walk over every tuple of the context."""
    table = env.atoms[f.name]
    atom_sizes = [len(env.spaces[s]) for s in table.context]
    out = []
    for coords in itertools.product(*[range(n) for n in sizes]):
        at = dict(zip(names, coords))
        idx = 0
        for arg, n in zip(f.args, atom_sizes):
            idx = idx * n + at[arg]
        out.append(table.values[idx])
    return out


@st.composite
def gather_cases(draw):
    """An atom of arity 0-3 over a context of 0-3 variables of 1-4 points each;
    its arguments repeat and come in any order, such as r(x, x) or r(y, x)."""
    names = tuple("xyz"[:draw(st.integers(0, 3))])
    sizes = tuple(draw(st.integers(1, 4)) for _ in names)
    args = tuple(draw(st.lists(st.sampled_from(names), max_size=3)) if names else ())
    spaces = {v: counting_space(n, name=v) for v, n in zip(names, sizes)}
    # distinct values, so that any wrong index shows
    values = tuple(float(i) for i in range(math.prod(sizes[names.index(a)] for a in args)))
    env = make_environment("mul", spaces, {"r": AtomTable(args, values)})
    return Atom("r", args), names, sizes, env


def test_environment_stores_floats():
    spaces = {"I": counting_space(["a", "b"], name="I")}
    env = make_environment("mul", spaces, {"f": AtomTable(("I",), (1, True))})
    cells = [v for t in env.atoms.values() for v in t.values]
    assert cells == [1.0, 1.0] and all(type(v) is float for v in cells)
    pred = eval_mul(parse("f(x)"), Context((("x", spaces["I"]),)), env)
    assert pred.table == (1.0, 1.0) and all(type(v) is float for v in pred.table)


@given(gather_cases())
def test_atom_gather_matches_the_product_walk(case):
    assert _atom_table(*case) == reference_atom_table(*case)


def test_atom_gather_repeated_and_swapped_arguments():
    ctx = Context((("x", ENV.spaces["I"]), ("y", ENV.spaces["I"])))
    env = environment_from_dict({
        "mode": "mul",
        "spaces": {"I": {"points": ["a", "b"], "weights": [1, 1]}},
        "atoms": {"r": {"context": ["I", "I"], "values": [1, 2, 3, 4]},
                  "f": {"context": ["I"], "values": [5, 6]}},
    })
    assert eval_mul(parse("r(x, x)"), ctx, env).table == (1.0, 1.0, 4.0, 4.0)
    assert eval_mul(parse("r(y, x)"), ctx, env).table == (1.0, 3.0, 2.0, 4.0)
    assert eval_mul(parse("f(x)"), ctx, env).table == (5.0, 5.0, 6.0, 6.0)
    assert eval_mul(parse("f(y)"), ctx, env).table == (5.0, 6.0, 5.0, 6.0)


def test_connectives_are_pointwise():
    ctx = Context((("x", ENV.spaces["I"]),))
    pred = eval_mul(parse(r"(phi(x) (x) phi(x)) \/ 2"), ctx, ENV)
    assert pred.table == (mul_tensor(3, 3), 16.0)
    assert eval_mul(parse("phi(x)^*"), ctx, ENV).table == (1 / 3, 0.25)
    assert eval_mul(parse("2 . phi(x)"), ctx, ENV).table == (9.0, 16.0)


def test_constants_fill_the_context():
    ctx = Context((("x", ENV.spaces["I"]),))
    assert eval_mul(parse("true"), ctx, ENV).table == (INF, INF)
    assert eval_mul(parse("one"), EMPTY, ENV).table == (1.0,)


def test_carrier_mismatch():
    with pytest.raises(QuantLogicError) as err:
        eval_add(parse("true"), EMPTY, ENV)
    assert err.value.code == "CARRIER_MISMATCH"
    with pytest.raises(QuantLogicError) as err:
        eval_mul(parse("true"), EMPTY, translate_environment(ENV))
    assert err.value.code == "CARRIER_MISMATCH"
    assert evaluate(parse("true"), EMPTY, ENV).table == (INF,)
    assert evaluate(parse("true"), EMPTY, translate_environment(ENV)).table == (-INF,)


# ---------------------------------------------------------------------------
# the additive kernel on its own
# ---------------------------------------------------------------------------

def test_add_quantifier_against_direct_formula():
    w, u = (0.5, 0.25), (0.1, 0.7)
    got = add_quantifier(Polarity.EXISTENTIAL, 2.0, w, u)
    want = -0.5 * math.log(0.5 * math.exp(-0.2) + 0.25 * math.exp(-1.4))
    assert_close(got, want, 1e-12)
    flipped = add_quantifier(Polarity.UNIVERSAL, 2.0, w, u)
    want_u = 0.5 * math.log(0.5 * math.exp(0.2) + 0.25 * math.exp(1.4))
    assert_close(flipped, want_u, 1e-12)


def test_add_quantifier_corners():
    w = (1.0, 1.0)
    # magnitude inf: essential extrema in the reversed order
    assert add_quantifier(Polarity.EXISTENTIAL, INF, w, (1.0, -3.0)) == -3.0
    assert add_quantifier(Polarity.UNIVERSAL, INF, w, (1.0, -3.0)) == 1.0
    assert add_quantifier(Polarity.EXISTENTIAL, INF, (0.0, 1.0), (-9.0, 2.0)) == 2.0
    # magnitude 0: weighted sum, conflicts resolved per polarity
    assert add_quantifier(Polarity.EXISTENTIAL, 0.0, w, (-INF, INF)) == -INF
    assert add_quantifier(Polarity.UNIVERSAL, 0.0, w, (-INF, INF)) == INF
    assert add_quantifier(Polarity.EXISTENTIAL, 0.0, w, (INF, 1.0)) == INF
    assert_close(add_quantifier(Polarity.EXISTENTIAL, 0.0, (2.0, 1.0), (1.5, -1.0)),
                 2.0, 1e-12)
    # at finite positive magnitude the polarity's own truth absorbs and the
    # opposite one drops out of the sum
    assert add_quantifier(Polarity.EXISTENTIAL, 3.0, w, (-INF, 5.0)) == -INF
    assert add_quantifier(Polarity.UNIVERSAL, 3.0, w, (-INF, 5.0)) == 5.0
    assert add_quantifier(Polarity.UNIVERSAL, 3.0, w, (INF, 5.0)) == INF
    assert add_quantifier(Polarity.EXISTENTIAL, 3.0, w, (INF, 5.0)) == 5.0
    with pytest.raises(QuantLogicError) as err:
        add_quantifier(Polarity.EXISTENTIAL, 1.0, (0.0,), (1.0,))
    assert err.value.code == "EMPTY_SUPPORT"


@pytest.mark.parametrize("p", [0.0, 0.5, 1.0, 2.0, 3.0, INF])
@pytest.mark.parametrize("polarity", [Polarity.EXISTENTIAL, Polarity.UNIVERSAL])
def test_add_quantifier_of_zero_is_positive_zero(polarity, p):
    got = add_quantifier(polarity, p, [1.0], [0.0])
    assert got == 0.0 and math.copysign(1.0, got) == 1.0


@pytest.mark.parametrize("p, weights, values, code", [
    (math.nan, (1.0, 1.0), (0.0, 1.0), "INVALID_P"),
    (-1.0, (1.0, 1.0), (0.0, 1.0), "INVALID_P"),
    (1.0, (1.0, 1.0), (math.nan, 1.0), "INVALID_VALUE"),
    (1.0, (INF, 1.0), (0.0, 1.0), "NONFINITE_WEIGHT"),
    (1.0, (math.nan, 1.0), (0.0, 1.0), "NONFINITE_WEIGHT"),
    (1.0, (-1.0, 1.0), (0.0, 1.0), "NEGATIVE_WEIGHT"),
    (1.0, (), (), "EMPTY_SUPPORT"),
    (1.0, (1.0, 1.0), (0.0,), "VALUE_COUNT"),
])
def test_add_quantifier_validates_its_inputs(p, weights, values, code):
    with pytest.raises(QuantLogicError) as err:
        add_quantifier(Polarity.EXISTENTIAL, p, weights, values)
    assert err.value.code == code


def test_add_quantifier_large_magnitude_is_stable():
    got = add_quantifier(Polarity.EXISTENTIAL, 4096.0, (1.0, 1.0), (700.0, -700.0))
    assert math.isfinite(got)
    assert_close(got, -700.0, 1e-9)


# ---------------------------------------------------------------------------
# coherence: eval_add is napier conjugate to eval_mul
# ---------------------------------------------------------------------------

def coherence_gap(f, env):
    env_add = translate_environment(env)
    mul_pred = eval_mul(f, EMPTY, env)
    add_pred = eval_add(translate_formula(f, "to_add"), EMPTY, env_add)
    gaps = []
    for mv, av in zip(mul_pred.table, add_pred.table):
        want = napier(mv)
        if math.isinf(want) or math.isinf(av):
            gaps.append(0.0 if want == av else INF)
        else:
            gaps.append(abs(want - av))
    return max(gaps)


def test_coherence_random_formulas():
    rng = random.Random(2718)
    env = coherence_environment(rng)
    checked = 0
    for _ in range(250):
        f = random_formula(rng, depth=4)
        assert coherence_gap(f, env) <= 1e-9
        checked += 1
    assert checked == 250


@pytest.mark.parametrize("text", [
    "true (x) false",          # 0 * inf convention, tensor side
    "true (x*) false",         # and the cotensor side
    "false -o false",
    "true -o true",
    "E^2 (x in I). mix(x)",
    "A^2 (x in I). mix(x)",
    "E^0 (x in I). mix(x)",
    "A^0 (x in I). mix(x)",
    "A^inf (x in I). mix(x)",
    "0 . mix(x)^* (+) true",
])
def test_coherence_exact_at_infinities(text):
    f = parse(text)
    ctx = EMPTY if "x in I" in text else Context((("x", ENV.spaces["I"]),))
    env_add = translate_environment(ENV)
    mul_pred = eval_mul(f, ctx, ENV)
    add_pred = eval_add(translate_formula(f, "to_add"), ctx, env_add)
    for mv, av in zip(mul_pred.table, add_pred.table):
        if math.isinf(napier(mv)) or math.isinf(av):
            assert napier(mv) == av
        else:
            assert_close(napier(mv), av, 1e-12)


# ---------------------------------------------------------------------------
# separators
# ---------------------------------------------------------------------------

def test_separator_validation():
    for bad in (0.0, 0.5, 0.999, -1.0, math.nan):
        with pytest.raises(QuantLogicError) as err:
            principal_separator(bad)
        assert err.value.code == "INVALID_THRESHOLD"
    for bad in (0.5, -1.0, math.nan):
        with pytest.raises(QuantLogicError) as err:
            Separator(bad)
        assert err.value.code == "INVALID_THRESHOLD"
    assert Separator(0.0) == inconsistent_separator()
    assert principal_separator(1.0) == unitary_separator()
    assert principal_separator(INF) == definite_separator()


def test_separator_casts():
    s = unitary_separator()
    assert separator_cast(s, 1.0) and separator_cast(s, INF)
    assert not separator_cast(s, 0.999999)
    d = definite_separator()
    assert separator_cast(d, INF) and not separator_cast(d, 1e300)
    i = inconsistent_separator()
    assert separator_cast(i, 0.0)


def test_separator_is_tensor_closed_and_upward_closed():
    rng = random.Random(7)
    for t in (1.0, 2.5, 100.0):
        s = principal_separator(t)
        for _ in range(200):
            a = math.exp(rng.uniform(0.0, 4.0)) * t
            b = math.exp(rng.uniform(0.0, 4.0)) * t
            assert separator_cast(s, a) and separator_cast(s, b)
            assert separator_cast(s, mul_tensor(a, b))
            assert separator_cast(s, max(a, 2 * a))


def test_cast_predicate_both_carriers():
    ctx = Context((("x", ENV.spaces["I"]),))
    pred = eval_mul(parse("phi(x)^*"), ctx, ENV)  # (1/3, 1/4)
    assert cast_predicate(unitary_separator(), pred) == (False, False)
    assert cast_predicate(inconsistent_separator(), pred) == (True, True)
    env_add = translate_environment(ENV)
    pred_add = eval_add(parse("phi(x)"), ctx, env_add)  # (-log 3, -log 4)
    assert cast_predicate(unitary_separator(), pred_add) == (True, True)
    assert cast_predicate(principal_separator(3.5), pred_add) == (False, True)


def test_evaluation_is_deterministic():
    rng = random.Random(99)
    env = coherence_environment(rng)
    f = random_formula(rng, depth=4)
    a = eval_mul(f, EMPTY, env).table
    b = eval_mul(f, EMPTY, env).table
    assert a == b
