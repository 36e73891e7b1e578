"""Grammar round-trips, parse errors, well-formedness, and translation."""

import inspect
import math
import os
import random

import pytest

from quantlogic import (
    Atom,
    BinOp,
    Const,
    Context,
    Div,
    Dual,
    FormulaSyntaxError,
    INF,
    OpCode,
    Quant,
    QuantLogicError,
    Scalar,
    check_wellformed,
    environment_from_dict,
    eval_mul,
    evaluate,
    format_formula,
    free_variables,
    make_space,
    napier,
    parse,
    substitute,
    translate_environment,
    translate_formula,
)
from quantlogic.formulas import Formula, _scan, fold, walk
from quantlogic.pmeans import Polarity
import parse_corpus
from helpers import coherence_environment, formulas_close, random_formula


def test_parse_operators():
    f = parse(r"phi(x) \/ psi(x)")
    assert f == BinOp(OpCode.JOIN, Atom("phi", ("x",)), Atom("psi", ("x",)))
    assert parse(r"f() /\ g()").op == OpCode.MEET
    assert parse(r"f() (+) g()").op == OpCode.ADD
    assert parse(r"f() (+*) g()").op == OpCode.HADD
    assert parse(r"f() (x) g()").op == OpCode.TENSOR
    assert parse(r"f() (x*) g()").op == OpCode.COTENSOR
    assert parse(r"f() -o g()") == Div(Atom("f", ()), Atom("g", ()))


def test_atom_application_vs_tensor_token():
    # "(x)" spells tensor, except right after an atom name
    f = parse("phi(x) (x) psi(x)")
    assert f.op == OpCode.TENSOR
    assert f.lhs == Atom("phi", ("x",))
    g = parse("true (x) false")
    assert g == BinOp(OpCode.TENSOR, Const("true"), Const("false"))
    assert parse("r(x, y)") == Atom("r", ("x", "y"))


def test_parse_constants_and_numbers():
    assert parse("true") == Const("true")
    assert parse("bot") == Const("bot")
    assert parse("inf") == Const(INF)
    assert parse("3.5e-2") == Const(0.035)
    assert parse("-inf") == Const(-INF)
    assert parse("-2.5") == Const(-2.5)


def test_parse_quantifiers():
    f = parse("E^2 (x in I). phi(x)")
    assert f == Quant(Polarity.EXISTENTIAL, 2.0, "x", "I", Atom("phi", ("x",)))
    g = parse("A^inf (k in K). E^0 (x in I). rho(x, k)")
    assert g.polarity is Polarity.UNIVERSAL and g.magnitude == INF
    assert g.body.magnitude == 0.0


def test_parse_scalar_and_dual():
    f = parse("2 . phi(x)")
    assert f == Scalar(2.0, Atom("phi", ("x",)))
    g = parse("phi(x)^*^*")
    assert g == Dual(Dual(Atom("phi", ("x",))))
    h = parse("(f() (+) g())^*")
    assert isinstance(h, Dual) and h.body.op == OpCode.ADD


def test_chains_associate_left():
    f = parse("a() (+) b() (+) c()")
    assert f == BinOp(OpCode.ADD, BinOp(OpCode.ADD, Atom("a", ()), Atom("b", ())),
                      Atom("c", ()))


@pytest.mark.parametrize("text,fragment", [
    (r"a() \/ b() /\ c()", "mixing"),
    ("a() -o b() -o c()", "non-associative"),
    ("E^2 (x in I). phi(x) (x) E^2 (y in I). phi(y)", "parenthesized"),
    ("E^-2 (x in I). phi(x)", "magnitude"),
    ("inf . phi(x)", "finite"),
    ("-3 . phi(x)", "nonnegative"),
    ("phi(x", ")"),
    ("phi x", "'('"),
    ("in(x)", "reserved"),
    ("E^2 (in in I). phi(in)", "bound variable"),
    ("", "formula"),
    ("a() b()", "trailing"),
    ("?", "unexpected character"),
    ("\u00b2", "unexpected character '\u00b2' (at position 0)"),  # isdigit, not decimal
    ("f(x) (x) 1\u2460", "unexpected character '\u2460' (at position 10)"),
    ("-", "stray"),
])
def test_syntax_errors(text, fragment):
    with pytest.raises(FormulaSyntaxError) as err:
        parse(text)
    assert err.value.code == "SYNTAX_ERROR"
    assert fragment in str(err.value)


@pytest.mark.parametrize("text,tokens", [
    ("-info", [("NUMBER", -INF, 0), ("IDENT", "o", 4), ("EOF", None, 5)]),
    ("phi(x)(x)psi(x)", [
        ("IDENT", "phi", 0), ("LPAREN", "(", 3), ("IDENT", "x", 4), ("RPAREN", ")", 5),
        ("OP", OpCode.TENSOR, 6), ("IDENT", "psi", 9), ("LPAREN", "(", 12),
        ("IDENT", "x", 13), ("RPAREN", ")", 14), ("EOF", None, 15)]),
    ("inf_1", [("IDENT", "inf_1", 0), ("EOF", None, 5)]),
    ("1.5.x", [("NUMBER", 1.5, 0), ("DOT", ".", 3), ("IDENT", "x", 4), ("EOF", None, 5)]),
    ("E(y)", [("IDENT", "E", 0), ("LPAREN", "(", 1), ("IDENT", "y", 2),
              ("RPAREN", ")", 3), ("EOF", None, 4)]),
    ("(x *)", ("unexpected character '*'", 3)),
])
def test_token_streams(text, tokens):
    if isinstance(tokens, tuple):
        with pytest.raises(FormulaSyntaxError) as err:
            _scan(text)
        assert tokens[0] in err.value.message
        assert err.value.position == tokens[1]
    else:
        assert _scan(text) == tokens


def test_front_end_reproduces_the_differential_corpus():
    # seeded texts and one-character mutations of them, each with the tree or
    # the syntax error that the reference front end gave (tests/parse_corpus.py)
    entries = parse_corpus.load(os.path.join(os.path.dirname(__file__), parse_corpus.FIXTURE))
    assert len(entries) == 4 * parse_corpus.BASE_TEXTS
    assert [text for text, _ in entries] == parse_corpus.corpus()
    wrong = [(text, want, got) for text, want in entries
             if (got := parse_corpus.outcome(text)) != want]
    assert not wrong, wrong[:5]


def test_syntax_error_position():
    with pytest.raises(FormulaSyntaxError) as err:
        parse(r"phi(x) \/ psi(x) /\ chi(x)")
    assert err.value.position == 17


# ---------------------------------------------------------------------------
# printing
# ---------------------------------------------------------------------------

def test_format_examples():
    cases = [
        "phi(x)",
        r"phi(x) \/ psi(x)",
        "(phi(x) (+) psi(x)) (x) chi(y)",
        "E^2.0 (x in I). phi(x)",
        "A^inf (x in I). 2.0 . phi(x)^*",
        "f() -o g()",
    ]
    for text in cases:
        assert format_formula(parse(text)) == text


def test_repr_matches_the_dataclass_form():
    assert repr(parse("E^2 (x in I). f(x) (x) -1.5")) == (
        "Quant(polarity=<Polarity.EXISTENTIAL: 'existential'>, magnitude=2.0, "
        "var='x', space='I', body=BinOp(op=<OpCode.TENSOR: 'tensor'>, "
        "lhs=Atom(name='f', args=('x',)), rhs=Const(value=-1.5)))")
    assert repr(parse("2 . A^inf (y in K). (r(x, y) -o true)^*")) == (
        "Scalar(factor=2.0, body=Quant(polarity=<Polarity.UNIVERSAL: 'universal'>, "
        "magnitude=inf, var='y', space='K', body=Dual(body=Div("
        "lhs=Atom(name='r', args=('x', 'y')), rhs=Const(value='true')))))")


def test_deep_formula_compares_hashes_and_prints():
    text = "one" + "^*" * 5000
    f, g = parse(text), parse(text)
    assert f == g and hash(f) == hash(g)
    assert f != parse(text[:-2]) and f != parse("zero" + "^*" * 5000)
    assert repr(f) == "Dual(body=" * 5000 + "Const(value='one')" + ")" * 5000
    assert {f: 1}[g] == 1


def test_print_parse_round_trip_random():
    rng = random.Random(999)
    for _ in range(300):
        f = random_formula(rng, depth=5)
        assert parse(format_formula(f)) == f


def test_round_trip_is_exact_on_literals():
    # repr round-trips doubles, so even ugly literals survive
    f = Const(0.1 + 0.2)
    assert parse(format_formula(f)) == f


# ---------------------------------------------------------------------------
# scope and typing
# ---------------------------------------------------------------------------

ENV = environment_from_dict({
    "mode": "mul",
    "spaces": {
        "I": {"points": ["a", "b"], "weights": [1, 1]},
        "K": {"points": ["u"], "weights": [1]},
    },
    "atoms": {
        "phi": {"context": ["I"], "values": [1.0, 2.0]},
        "rho": {"context": ["I", "K"], "values": [1.0, 2.0]},
    },
})


def ctx(*pairs):
    return Context(tuple((v, ENV.spaces[s]) for v, s in pairs))


def test_wellformed_ok():
    f = parse("E^1 (x in I). A^2 (k in K). rho(x, k)")
    assert check_wellformed(f, Context(()), ENV) is f
    g = parse("phi(y)")
    assert check_wellformed(g, ctx(("y", "I")), ENV) is g


@pytest.mark.parametrize("text,context,code", [
    ("phi(y)", (), "UNBOUND_VARIABLE"),
    ("E^1 (x in I). E^2 (x in K). phi(x)", (), "SHADOWED_VARIABLE"),
    ("E^1 (x in I). rho(x)", (), "ATOM_ARITY"),
    ("E^1 (k in K). phi(k)", (), "ATOM_ARITY"),
    ("E^1 (x in J). phi(x)", (), "UNKNOWN_SPACE"),
    ("E^1 (x in I). zeta(x)", (), "UNKNOWN_ATOM"),
    ("-2.5", (), "INVALID_VALUE"),
])
def test_wellformed_rejects(text, context, code):
    with pytest.raises(QuantLogicError) as err:
        check_wellformed(parse(text), ctx(*context), ENV)
    assert err.value.code == code


@pytest.mark.parametrize("text,code", [
    ("E^1 (x in Nope). f(y)", "UNKNOWN_SPACE"),
    ("g(x) (x) f(y)", "UNKNOWN_ATOM"),
    ("f(y) (x) g(x)", "UNBOUND_VARIABLE"),
    ("E^1 (x in I). E^1 (x in I). f(z)", "SHADOWED_VARIABLE"),
])
def test_wellformed_reports_first_fault_in_pre_order(text, code):
    # Each formula has two faults; the one met first in pre-order, left to
    # right, is reported.
    env = environment_from_dict({
        "spaces": {"I": {"points": ["a"], "weights": [1]}},
        "atoms": {"f": {"context": ["I"], "values": [1.0]}},
    })
    with pytest.raises(QuantLogicError) as err:
        check_wellformed(parse(text), Context(()), env)
    assert err.value.code == code


F_X, G_Y = Atom("f", ("x",)), Atom("g", ("y",))


@pytest.mark.parametrize("mode", ["mul", "add"])
@pytest.mark.parametrize("node, code", [
    (Quant(Polarity.EXISTENTIAL, math.nan, "x", "I", F_X), "INVALID_P"),
    (Quant(Polarity.UNIVERSAL, -1.0, "x", "I", F_X), "INVALID_P"),
    (Scalar(-1.0, G_Y), "INVALID_VALUE"),
    (Scalar(INF, G_Y), "INVALID_VALUE"),
])
def test_wellformed_rejects_code_built_nodes_outside_the_grammar(node, code, mode):
    # the parser rejects these magnitudes and factors; a node built in code
    # meets the same ranges before it is evaluated, in either carrier
    env = environment_from_dict({
        "mode": mode,
        "spaces": {"I": {"points": ["a", "b"], "weights": [1, 1]}},
        "atoms": {"f": {"context": ["I"], "values": [2, 3]},
                  "g": {"context": ["I"], "values": [2, 0]}},
    })
    context = Context((("y", env.spaces["I"]),))
    with pytest.raises(QuantLogicError) as err:
        check_wellformed(node, context, env)
    assert err.value.code == code


@pytest.mark.parametrize("node", [
    Quant("existential", 1.0, "x", "I", F_X),
    Quant(None, 1.0, "x", "I", F_X),
    Quant(Polarity.EXISTENTIAL, 1.0, "x", "I", BinOp("tensor", F_X, F_X)),
    Dual(BinOp(Polarity.UNIVERSAL, G_Y, G_Y)),
])
def test_code_built_nodes_take_a_polarity_and_an_operator(node):
    # the value string of a Polarity or an OpCode is no member: every entry
    # that reads the node reports it, none evaluates it as another member
    env = environment_from_dict({
        "spaces": {"I": {"points": ["a", "b"], "weights": [0.5, 0.5]}},
        "atoms": {"f": {"context": ["I"], "values": [1, 4]},
                  "g": {"context": ["I"], "values": [2, 0]}},
    })
    context = Context((("y", env.spaces["I"]),))
    for read in (lambda: check_wellformed(node, context, env),
                 lambda: eval_mul(node, context, env),
                 lambda: format_formula(node)):
        with pytest.raises(QuantLogicError) as err:
            read()
        assert err.value.code == "INVALID_NODE"


@pytest.mark.parametrize("mode", ["mul", "add"])
def test_evaluate_walks_its_formula_once(monkeypatch, mode):
    # A pre-order pass reads every subformula field once; one pass serves both
    # the check and the evaluation, so evaluate reads each field once.
    env = coherence_environment(random.Random(5))
    if mode == "add":
        env = translate_environment(env)
    f = parse("E^2 (x in I). phi(x) (x) (A^1 (k in K). rho(x, k))^*")
    edges = len(walk(f)) - 1
    reads = []
    read = object.__getattribute__

    def spy(node, name):
        if name in ("lhs", "rhs", "body"):
            reads.append(name)
        return read(node, name)

    monkeypatch.setattr(Formula, "__getattribute__", spy)
    pred = evaluate(f, Context(), env)
    monkeypatch.undo()
    assert len(reads) == edges == 5
    assert pred == evaluate(f, Context(), env)


def test_the_public_walks_take_no_walk_of_the_caller():
    # a caller cannot hand check_wellformed or fold the walk of another formula
    assert list(inspect.signature(check_wellformed).parameters) == ["f", "ctx", "env"]
    assert list(inspect.signature(fold).parameters) == ["f", "combine"]
    env = coherence_environment(random.Random(5))
    good, bad = parse("E^1 (x in I). phi(x)"), parse("E^1 (x in I). nope(x)")
    with pytest.raises(QuantLogicError) as err:
        check_wellformed(bad, Context(), env)
    assert err.value.code == "UNKNOWN_ATOM"
    assert fold(bad, lambda node, bound, kids: 1 + sum(kids)) == len(walk(bad)) == 2
    assert check_wellformed(good, Context(), env) is good


def test_context_rejects_a_repeated_variable():
    with pytest.raises(QuantLogicError) as err:
        ctx(("x", "I"), ("x", "K"))
    assert err.value.code == "SHADOWED_VARIABLE"


def test_shadowing_context_variable():
    f = parse("E^1 (y in I). phi(y)")
    with pytest.raises(QuantLogicError) as err:
        check_wellformed(f, ctx(("y", "I")), ENV)
    assert err.value.code == "SHADOWED_VARIABLE"


def test_free_variables_order():
    f = parse(r"rho(x, k) \/ (E^1 (z in I). rho(z, k)) \/ phi(y)")
    assert free_variables(f) == ("x", "k", "y")


def test_substitute():
    f = parse("phi(x) (x) (E^1 (y in I). rho(y, k))")
    g = substitute(f, {"x": "w", "k": "m"})
    assert free_variables(g) == ("w", "m")
    with pytest.raises(QuantLogicError) as err:
        substitute(f, {"x": "y"})  # would be captured by the binder
    assert err.value.code == "CAPTURE"


# ---------------------------------------------------------------------------
# translation between the carriers
# ---------------------------------------------------------------------------

def test_translate_literals():
    f = parse("phi(x) (x) 0.5")
    g = translate_formula(f, "to_add")
    assert g.rhs == Const(napier(0.5))
    assert g.lhs == f.lhs  # atoms translate via the environment, not here
    back = translate_formula(g, "to_mul")
    assert formulas_close(back, f)


def test_translate_checks_literals_first():
    # -2 is no multiplicative value, so it has no napier image
    with pytest.raises(QuantLogicError) as err:
        translate_formula(parse("f(x) (x) -2"), "to_add")
    assert err.value.code == "INVALID_VALUE"
    assert translate_formula(parse("f(x) (x) -2"), "to_mul") == BinOp(
        OpCode.TENSOR, Atom("f", ("x",)), Const(math.exp(2.0)))


def test_numeric_literals_are_floats():
    assert Const(2) == Const(2.0) and type(Const(2).value) is float
    assert translate_formula(Const(2), "to_add") == Const(napier(2.0))
    # an int literal is checked like any other: -1 is no multiplicative value
    env = environment_from_dict({"mode": "mul", "spaces": {}, "atoms": {}})
    with pytest.raises(QuantLogicError) as err:
        eval_mul(Const(-1), Context(), env)
    assert err.value.code == "INVALID_VALUE"


def test_nan_scalar_factor_is_rejected():
    env = environment_from_dict({"mode": "mul", "spaces": {}, "atoms": {}})
    with pytest.raises(QuantLogicError) as err:
        eval_mul(Scalar(math.nan, Const(2.0)), Context(), env)
    assert err.value.code == "INVALID_VALUE"


def test_translate_named_constants_fixed():
    f = parse(r"true \/ bot")
    assert translate_formula(f, "to_add") == f


def test_translate_direction_validation():
    with pytest.raises(QuantLogicError) as err:
        translate_formula(parse("true"), "sideways")
    assert err.value.code == "INVALID_DIRECTION"


def test_translate_round_trip_random():
    rng = random.Random(424)
    for _ in range(200):
        f = random_formula(rng, depth=4)
        there_and_back = translate_formula(translate_formula(f, "to_add"), "to_mul")
        assert formulas_close(there_and_back, f, 1e-12)


def test_a_quantifier_needs_in():
    with pytest.raises(FormulaSyntaxError) as err:
        parse("E^1 (x on I). f(x)")
    assert err.value.code == "SYNTAX_ERROR"
    assert "expected 'in'" in str(err.value)
