"""Every number a caller passes is read by ``extreal.check_add``: junk numbers
at each public entry raise a QuantLogicError, never a raw Python error, and an
integer beyond the double range reads as its infinity everywhere."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from quantlogic import (
    INF,
    Atom,
    AtomTable,
    Const,
    Context,
    PointMap,
    Polarity,
    QuantLogicError,
    Quant,
    Scalar,
    Separator,
    SignedP,
    Space,
    ValueVector,
    add_quantifier,
    adjunction_check,
    argmax,
    check_add,
    check_mul,
    check_wellformed,
    counting_space,
    distribution,
    energy_function,
    entails,
    environment_from_dict,
    eval_add,
    eval_mul,
    exists_p,
    forall_p,
    hill_diversity,
    laxity_check,
    make_environment,
    make_space,
    p_mean,
    p_sum,
    principal_separator,
    pushforward_density,
    reflexivity_check,
    reindex_monotonicity_check,
    renyi_entropy,
    renyi_formula_path,
    softmax_formula_path,
    softmax_p,
    translate_environment,
    translate_formula,
    transitivity_search,
    uniform_space,
    value_vector,
)
from quantlogic.extreal import add_scalar, add_scalar_table

HUGE = 10 ** 400
JUNK = st.sampled_from(["x", "inf", None, [1], b"1", HUGE, -HUGE, math.nan]) | st.floats()

S = make_space(["a", "b"], [0.5, 0.5], name="I")
K = uniform_space(2, name="K")
F = PointMap(S, make_space(["t"], [1.0], name="T"), (0, 0))
ENV = make_environment("mul", {"I": S}, {"f": AtomTable(("I",), (1.0, 2.0))})
ENV_ADD = translate_environment(ENV)
VEC = ValueVector(S, (1.0, 2.0))
PHI = distribution(make_space(["a", "b"], [1.0, 1.0]), (0.25, 0.75))
F_X = Atom("f", ("x",))


def in_both_carriers(node):
    eval_mul(node, Context(), ENV)
    eval_add(translate_formula(node, "to_add"), Context(), ENV_ADD)


def json_env(values, weights, mode="mul"):
    return environment_from_dict({"mode": mode,
                                  "spaces": {"I": {"points": ["a", "b"], "weights": weights}},
                                  "atoms": {"f": {"context": ["I"], "values": values}}})


# each public entry with one numeric argument (or one cell of a table) left open
ENTRIES = {
    "check_mul": check_mul,
    "check_add": check_add,
    "value_vector": lambda x: value_vector(S, [x, 1.0]),
    "ValueVector": lambda x: ValueVector(S, (1.0, x)),
    "distribution": lambda x: distribution(S, [x, 1.0]),
    "energy_function": lambda x: energy_function(S, [x, 1.0]),
    "make_space": lambda x: make_space(["a", "b"], [1.0, x]),
    "make_environment": lambda x: make_environment(
        "add", {"I": S}, {"f": AtomTable(("I",), (x, 1.0))}),
    "environment_from_dict values": lambda x: json_env([x, 1], [1, 1]),
    "environment_from_dict weights": lambda x: json_env([1, 1], [1, x]),
    "entails p": lambda x: entails(S, (1.0, 2.0), (2.0, 1.0), x),
    "entails phi": lambda x: entails(S, (x, 2.0), (2.0, 1.0)),
    "reflexivity_check": lambda x: reflexivity_check(S, (1.0, 2.0), x),
    "adjunction_check p": lambda x: adjunction_check(S, K, (1.0,) * 4, (1.0, 2.0), x),
    "adjunction_check rho": lambda x: adjunction_check(S, K, (x, 1.0, 1.0, 1.0), (1.0, 2.0)),
    "transitivity_search": lambda x: transitivity_search(S, x, 2, 0),
    "reindex_monotonicity_check p": lambda x: reindex_monotonicity_check(F, (1.0,), (2.0,), x),
    "reindex_monotonicity_check psi": lambda x: reindex_monotonicity_check(F, (1.0,), (x,)),
    "pushforward_density": lambda x: pushforward_density(F, (x, 1.0)),
    "laxity_check": lambda x: laxity_check(F, (x, 1.0), (1.0, 1.0)),
    "exists_p": exists_p,
    "forall_p": forall_p,
    "SignedP": lambda x: SignedP(Polarity.UNIVERSAL, x),
    "add_quantifier p": lambda x: add_quantifier(Polarity.EXISTENTIAL, x, (1.0, 1.0), (0.0, 1.0)),
    "add_quantifier weight": lambda x: add_quantifier(Polarity.UNIVERSAL, 2.0, (x, 1.0),
                                                      (0.0, 1.0)),
    "add_quantifier value": lambda x: add_quantifier(Polarity.UNIVERSAL, 2.0, (1.0, 1.0),
                                                     (x, 1.0)),
    "p_sum": lambda x: p_sum(exists_p(1.0), [x, 1.0]),
    "p_mean": lambda x: p_mean(forall_p(2.0), value_vector(S, (x, 1.0))),
    "principal_separator": principal_separator,
    "Separator": Separator,
    "Const": lambda x: in_both_carriers(Const(x)),
    "Scalar": lambda x: in_both_carriers(Scalar(x, Const(2.0))),
    "Quant": lambda x: in_both_carriers(Quant(Polarity.EXISTENTIAL, x, "x", "I", F_X)),
    "check_wellformed": lambda x: check_wellformed(
        Quant(Polarity.UNIVERSAL, x, "x", "I", Scalar(x, F_X)), Context(), ENV),
    "softmax_p": lambda x: softmax_p(VEC, x),
    "softmax_formula_path": lambda x: softmax_formula_path(VEC, x),
    "argmax": lambda x: argmax(value_vector(S, (x, 1.0))),
    "renyi_entropy": lambda x: renyi_entropy(PHI, x),
    "hill_diversity": lambda x: hill_diversity(PHI, x),
    "renyi_formula_path": lambda x: renyi_formula_path(PHI, x),
}


@pytest.mark.parametrize("entry", sorted(ENTRIES))
@settings(max_examples=40, deadline=None)
@given(x=JUNK)
def test_junk_numbers_raise_only_quantlogic_errors(entry, x):
    try:
        ENTRIES[entry](x)
    except QuantLogicError:
        pass


@pytest.mark.parametrize("x", ["1", "inf", " 2 ", None, [1], b"1", bytearray(b"1"), math.nan],
                         ids=repr)
def test_text_and_non_numbers_are_no_values(x):
    with pytest.raises(QuantLogicError) as err:
        check_add(x)
    assert err.value.code == "INVALID_VALUE"


@pytest.mark.parametrize("make, code", [
    (exists_p, "INVALID_P"),
    (lambda x: transitivity_search(S, x), "INVALID_P"),
    (lambda x: softmax_p(VEC, x), "INVALID_P"),
    (lambda x: renyi_entropy(PHI, x), "INVALID_P"),
    (lambda x: check_wellformed(Quant(Polarity.UNIVERSAL, x, "x", "I", F_X), Context(), ENV),
     "INVALID_P"),
    (principal_separator, "INVALID_THRESHOLD"),
    (Separator, "INVALID_THRESHOLD"),
])
@pytest.mark.parametrize("x", ["1", None, [1], math.nan], ids=repr)
def test_each_input_kind_keeps_its_code(make, code, x):
    with pytest.raises(QuantLogicError) as err:
        make(x)
    assert err.value.code == code


@pytest.mark.parametrize("x, code", [("1", "INVALID_VALUE"), (None, "INVALID_VALUE"),
                                     (math.nan, "NONFINITE_WEIGHT"),
                                     (HUGE, "NONFINITE_WEIGHT"), (-1, "NEGATIVE_WEIGHT")],
                         ids=repr)
def test_weights_are_read_then_checked_as_weights(x, code):
    with pytest.raises(QuantLogicError) as err:
        make_space(["a", "b"], [1, x])
    assert err.value.code == code


@pytest.mark.parametrize("x, code", [("x", "INVALID_VALUE"), ([1], "INVALID_VALUE"),
                                     (math.nan, "NONFINITE_WEIGHT"),
                                     (HUGE, "NONFINITE_WEIGHT"), (-HUGE, "NONFINITE_WEIGHT"),
                                     (-1, "NEGATIVE_WEIGHT")],
                         ids=repr)
def test_a_space_reads_its_own_weights(x, code):
    with pytest.raises(QuantLogicError) as err:
        Space("S", ("a", "b"), (1.0, x))
    assert err.value.code == code


def test_a_space_stores_its_weights_as_read():
    with pytest.raises(QuantLogicError) as err:
        Space("S", ("a",), None)
    assert err.value.code == "INVALID_VALUE"
    space = Space("S", ("a", "b", "c"), [True, 2, 0.5])
    assert space.weights == (1.0, 2.0, 0.5) and all(type(w) is float for w in space.weights)
    assert space == make_space("abc", (1.0, 2.0, 0.5))


@pytest.mark.parametrize("make, code", [
    (lambda: make_space(["a"], None), "INVALID_VALUE"),
    (lambda: make_space(None, [1.0]), "INVALID_VALUE"),
    (lambda: make_space(["a"], 1.0), "INVALID_VALUE"),
    (lambda: value_vector(S, None), "INVALID_VALUE"),
    (lambda: counting_space(None), "INVALID_VALUE"),
    (lambda: uniform_space(2.5), "INVALID_VALUE"),
    (lambda: PointMap(S, S, None), "INVALID_VALUE"),
    (lambda: value_vector(S, 2.0), "INVALID_VALUE"),
    (lambda: make_environment("mul", None, {}), "ENV_FORMAT"),
    (lambda: make_environment("mul", {}, None), "ENV_FORMAT"),
    (lambda: make_environment("mul", [1], {}), "ENV_FORMAT"),
    (lambda: add_scalar("x", 1.0), "INVALID_VALUE"),
    (lambda: add_scalar(None, 1.0), "INVALID_VALUE"),
    (lambda: add_scalar_table("x", [1.0]), "INVALID_VALUE"),
    (lambda: make_environment("mul", {"I": S}, {"f": [1, 2]}), "ENV_FORMAT"),
    (lambda: make_environment("mul", {"I": [1.0, 1.0]}, {}), "ENV_FORMAT"),
    (lambda: Context((("x",),)), "INVALID_CONTEXT"),
    (lambda: Context((("x", "I"),)), "INVALID_CONTEXT"),
    (lambda: Context(((1, S),)), "INVALID_CONTEXT"),
    (lambda: Context(None), "INVALID_VALUE"),
    (lambda: eval_mul(Const(1.0), None, ENV), "INVALID_CONTEXT"),
    (lambda: check_wellformed(F_X, (("x", S),), ENV), "INVALID_CONTEXT"),
])
def test_containers_and_factors_that_cannot_be_read(make, code):
    with pytest.raises(QuantLogicError) as err:
        make()
    assert err.value.code == code


def test_integers_beyond_the_double_range_read_alike():
    assert check_mul(HUGE) == check_add(HUGE) == INF
    assert check_add(-HUGE) == -INF
    built = make_environment("add", {"I": S}, {"f": AtomTable(("I",), (HUGE, -HUGE))})
    assert built.atoms["f"].values == (INF, -INF)
    assert json_env([HUGE, -HUGE], [1, 1], "add").atoms["f"].values == (INF, -INF)
    assert json_env([HUGE, 0], [1, 1]).atoms["f"].values == (INF, 0.0)
    assert exists_p(HUGE).magnitude == INF
    assert Const(HUGE) == Const(INF)
    assert eval_mul(Quant(Polarity.EXISTENTIAL, HUGE, "x", "I", F_X), Context(), ENV).table \
        == (2.0,)
