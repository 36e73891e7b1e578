"""The table-at-a-time carrier operations: bit for bit the scalar operations
mapped over the cells, also at the corners, and redoing only corner cells."""

import copy
import dataclasses
import itertools
import math
import pickle
import random
import sys
import threading
import types

import pytest

from quantlogic import (INF, Context, PointMap, QuantLogicError, ValueVector,
                        adjunction_check, counting_space, distribution, energy_function,
                        entailment, entails, environment_from_dict, evaluate, extreal,
                        laxity_check, log_likelihood, make_space,
                        normalize, parse, pmeans, pushforward_density, reflexivity_check,
                        reindex_monotonicity_check, renyi_entropy, renyi_formula_path,
                        semantics, softmax_formula_path, softmax_p, spaces, stats,
                        translate_environment,
                        translate_formula, transitivity_search, uniform_space)
from quantlogic.extreal import (ADD_OPS, ADD_TABLES, MUL_OPS, MUL_TABLES, OpCode,
                                add_div, add_div_table, add_dual, add_dual_table,
                                add_scalar, add_scalar_table, check_add, check_mul,
                                mul_div, mul_div_table, mul_dual, mul_dual_table,
                                mul_pow, mul_pow_table, napier, napier_inv,
                                napier_inv_table, napier_table)
from quantlogic.formulas import Atom, BinOp, Const, Div, Dual, Quant, Scalar, walk
from quantlogic.pmeans import ADD, MUL
from helpers import (coherence_environment, corner_environment, law_close, random_formula,
                     ref_add_quantifier, ref_p_mean)

TINY, MIN, MAX = 5e-324, sys.float_info.min, sys.float_info.max
_rng = random.Random(7)
_RANDOM = [math.exp(_rng.uniform(-50.0, 50.0)) for _ in range(4)] + [0.3, 7.5]
# The corners, the ends of the double range and ordinary values.  -0.0 is a
# value only of the additive carrier, which keeps it as given; the
# multiplicative check reads it as 0.0.
MUL_ALPHABET = [check_mul(a) for a in
                [0.0, -0.0, 1.0, INF, TINY, 2.2e-310, MIN, MAX, *_RANDOM]]
ADD_ALPHABET = [s * a for a in [0.0, 1.0, INF, TINY, 2.2e-310, MIN, MAX, *_RANDOM]
                for s in (1.0, -1.0)]

# The six operations are named by carrier and operation, since the additive
# join and meet are the multiplicative meet and join, functions and tables.
BINARY = [pytest.param(tables[op], ops[op], alphabet,
                       id=f"{mode}_{op.value}_table-{mode}_{op.value}-")
          for mode, tables, ops, alphabet in (("mul", MUL_TABLES, MUL_OPS, MUL_ALPHABET),
                                              ("add", ADD_TABLES, ADD_OPS, ADD_ALPHABET))
          for op in OpCode] \
    + [(mul_div_table, mul_div, MUL_ALPHABET), (add_div_table, add_div, ADD_ALPHABET)]
UNARY = [(mul_dual_table, mul_dual, MUL_ALPHABET), (add_dual_table, add_dual, ADD_ALPHABET),
         (napier_table, napier, MUL_ALPHABET), (napier_inv_table, napier_inv, ADD_ALPHABET)]
FACTORS = (0.0, -0.0, 0.5, 1.0, 2.0, 3.0, 700.0)


def hexes(values):
    return [float(v).hex() for v in values]


def test_check_mul_reads_negative_zero_as_zero():
    assert check_mul(-0.0).hex() == "0x0.0p+0"
    assert check_add(-0.0).hex() == "-0x0.0p+0"


@pytest.mark.parametrize("table, scalar, alphabet", BINARY,
                         ids=lambda x: getattr(x, "__name__", ""))
def test_binary_table_matches_the_scalar_operation_bit_for_bit(table, scalar, alphabet):
    pairs = list(itertools.product(alphabet, repeat=2))
    xs, ys = [a for a, _ in pairs], [b for _, b in pairs]
    assert hexes(table(xs, ys)) == hexes(map(scalar, xs, ys))
    for a, b in pairs:  # a table of one cell
        assert hexes(table([a], [b])) == hexes([scalar(a, b)]), (a, b)


@pytest.mark.parametrize("table, scalar, alphabet", UNARY,
                         ids=lambda x: getattr(x, "__name__", ""))
def test_unary_table_matches_the_scalar_operation_bit_for_bit(table, scalar, alphabet):
    assert hexes(table(alphabet)) == hexes(map(scalar, alphabet))
    for a in alphabet:
        assert hexes(table([a])) == hexes([scalar(a)]), a


@pytest.mark.parametrize("k", FACTORS + (INF,))
def test_pow_table_matches_the_scalar_action_bit_for_bit(k):
    # 700 sends the values above about 2.75 beyond the double range
    assert hexes(mul_pow_table(k, MUL_ALPHABET)) == hexes(mul_pow(k, a) for a in MUL_ALPHABET)


@pytest.mark.parametrize("k", FACTORS)
def test_add_scalar_table_matches_the_scalar_action_bit_for_bit(k):
    assert hexes(add_scalar_table(k, ADD_ALPHABET)) \
        == hexes(add_scalar(k, a) for a in ADD_ALPHABET)


@pytest.mark.parametrize("k", (INF, -INF, math.nan))
def test_add_scalar_table_checks_its_factor(k):
    with pytest.raises(QuantLogicError):
        add_scalar_table(k, [1.0])


def test_napier_inv_table_past_the_double_range():
    # exp(1000) overflows: that table goes cell by cell, to inf
    assert napier_inv_table([-1000.0, 0.0, INF]) == [INF, 1.0, 0.0]


def test_random_tables_match_bit_for_bit():
    rng = random.Random(11)
    for alphabet, tables, scalars in ((MUL_ALPHABET, MUL_TABLES, MUL_OPS),
                                      (ADD_ALPHABET, ADD_TABLES, ADD_OPS)):
        for n in (1, 2, 7, 300, 1000):
            xs = [rng.choice(alphabet) if rng.random() < 0.2 else rng.uniform(-9.0, 9.0)
                  for _ in range(n)]
            ys = [rng.choice(alphabet) if rng.random() < 0.2 else rng.uniform(-9.0, 9.0)
                  for _ in range(n)]
            if alphabet is MUL_ALPHABET:
                xs, ys = [abs(x) for x in xs], [abs(y) for y in ys]
            for op in OpCode:
                assert hexes(tables[op](xs, ys)) == hexes(map(scalars[op], xs, ys)), (op, n)


# ---------------------------------------------------------------------------
# the evaluator against a cell-by-cell reference evaluator
# ---------------------------------------------------------------------------

def ref_value(f, point, env, mode):
    """f's value at one assignment (variable -> point index), from the scalar
    operations and the reference kernels of helpers."""
    mul = mode == "mul"
    c = MUL if mul else ADD
    if isinstance(f, Const):
        return c.constants[f.value] if isinstance(f.value, str) else c.check(f.value)
    if isinstance(f, Atom):
        table = env.atoms[f.name]
        i = 0
        for var, space in zip(f.args, table.context):
            i = i * len(env.spaces[space]) + point[var]
        return table.values[i]
    if isinstance(f, BinOp):
        ops = MUL_OPS if mul else ADD_OPS
        return ops[f.op](ref_value(f.lhs, point, env, mode), ref_value(f.rhs, point, env, mode))
    if isinstance(f, Div):
        return (mul_div if mul else add_div)(ref_value(f.lhs, point, env, mode),
                                             ref_value(f.rhs, point, env, mode))
    if isinstance(f, Dual):
        return (mul_dual if mul else add_dual)(ref_value(f.body, point, env, mode))
    if isinstance(f, Scalar):
        return (mul_pow if mul else add_scalar)(f.factor, ref_value(f.body, point, env, mode))
    assert isinstance(f, Quant)
    space = env.spaces[f.space]
    body = [ref_value(f.body, {**point, f.var: i}, env, mode) for i in range(len(space))]
    kernel = ref_p_mean if mul else ref_add_quantifier
    return kernel(f.polarity, f.magnitude, space.weights, body)


def ref_table(f, ctx, env, mode):
    names = ctx.names()
    sizes = [range(n) for n in ctx.sizes()]
    return [ref_value(f, dict(zip(names, idx)), env, mode) for idx in itertools.product(*sizes)]


def assert_matches_the_reference(g, ctx, env, mode):
    """evaluate(g) is bit for bit the reference table of g as the evaluator
    folds it, g after the quantifier pushdown; and that reference is g's own
    within the laws' tolerance, exact at the truth corners."""
    pushed = semantics._pushdown(g)
    want = ref_table(pushed, ctx, env, mode)
    assert hexes(evaluate(g, ctx, env).table) == hexes(want), (mode, g, ctx.names())
    if pushed is not g:
        for a, b in zip(ref_table(g, ctx, env, mode), want):
            assert law_close(a, b, mode), (mode, g, ctx.names(), a, b)


@pytest.mark.parametrize("make_env", (coherence_environment, corner_environment))
def test_evaluator_matches_the_cell_by_cell_reference(make_env):
    rng = random.Random(2024)
    ctx = Context(())
    for _ in range(150):
        env = make_env(rng)
        f = random_formula(rng, depth=4)
        env_add, f_add = translate_environment(env), translate_formula(f, "to_add")
        for g, e, mode in ((f, env, "mul"), (f_add, env_add, "add")):
            assert_matches_the_reference(g, ctx, e, mode)


def factor_environment(rng):
    """coherence_environment's signature with K weighted unevenly, mu over K
    and r over I x I, and 0, 1 and inf among the atom values."""
    def values(n):
        return [rng.choice((0.0, 1.0, INF)) if rng.random() < 0.2
                else math.exp(rng.uniform(-0.5, 0.5)) for _ in range(n)]

    return environment_from_dict({
        "mode": "mul",
        "spaces": {"I": {"points": ["i0", "i1", "i2"], "weights": [0.5, 0.25, 0.25]},
                   "K": {"points": ["k0", "k1"], "weights": [1.0, 2.0]}},
        "atoms": {"phi": {"context": ["I"], "values": values(3)},
                  "psi": {"context": ["I"], "values": values(3)},
                  "mu": {"context": ["K"], "values": values(2)},
                  "rho": {"context": ["I", "K"], "values": values(6)},
                  "r": {"context": ["I", "I"], "values": values(9)}},
    })


# Each over the context x in I, z in K, or closed.
FACTOR_CASES = (
    # a quantifier whose body omits its variable
    "E^2 (v in I). phi(x)",
    "A^0 (v in K). E^1 (w in I). rho(w, z)",
    "E^inf (v in I). A^3 (w in K). true",
    "A^1 (v in K). (E^0.5 (w in I). r(w, x)) (x) mu(z)",
    # sibling quantifiers binding one name over different spaces
    "(E^1 (v in I). phi(v)) (x) (E^1 (v in K). mu(v))",
    "(A^2 (v in K). rho(x, v)) (+) (E^inf (v in I). r(v, x) (+*) phi(v))",
    # an atom naming one variable twice
    "r(x, x)",
    "E^2 (y in I). r(y, y) -o r(x, y)",
    "A^0.5 (y in I). r(y, y) \\/ r(y, x)",
    # constants and closed subformulas under binders
    "E^2 (y in I). (0.5 (x) (A^1 (k in K). mu(k))) \\/ phi(y)",
    "A^1 (y in I). E^0 (k in K). (2 . one) (x*) (zero -o rho(y, k))",
    "E^3 (y in I). (E^1 (k in K). true) /\\ (A^inf (w in I). phi(w)^*)",
    # open contexts: free variables a subformula, or the whole formula, omits
    "(rho(x, z) (x) phi(x)) -o rho(x, z)^*",
    "E^2 (y in I). rho(y, z) (+*) (0.5 . (phi(x) (+) psi(y)))",
    "A^0 (k in K). rho(x, k) (x*) (phi(x) \\/ psi(x))",
    "true",
    "mu(z)",
    "rho(x, z) (x) phi(x)",
    "mu(z) (+) phi(x)",
    "E^2 (y in I). rho(y, z) (x) 0.25",
)


def free_variables(f):
    """The variables f's atoms name that no quantifier inside f binds (a
    well-formed formula never binds a name that is bound around it)."""
    named, bound = set(), set()
    for node, _ in walk(f):
        if isinstance(node, Atom):
            named.update(node.args)
        elif isinstance(node, Quant):
            bound.add(node.var)
    return named - bound


def factor_formulas():
    rng = random.Random(19)
    env = factor_environment(rng)
    x, z = ("x", env.spaces["I"]), ("z", env.spaces["K"])
    for text in FACTOR_CASES:
        f = parse(text)
        for ctx in (Context((x, z)), Context((z, x)), Context((x,)), Context(())):
            if free_variables(f) <= set(ctx.names()):
                yield f, ctx, env


def test_evaluator_matches_the_reference_over_free_variables():
    seen = 0
    for f, ctx, env in factor_formulas():
        for g, e, mode in ((f, env, "mul"),
                           (translate_formula(f, "to_add"), translate_environment(env), "add")):
            assert_matches_the_reference(g, ctx, e, mode)
        seen += 1
    assert seen >= 2 * len(FACTOR_CASES)


def test_each_node_table_spans_its_free_variables(monkeypatch):
    """A node's table has one cell per tuple of its free variables, ordered as
    the context and then the binders, outermost first.

    The walk folded is f's after the quantifier pushdown, whose kids may be
    stale: each node's free variables are read off the node at the same index
    of the walk of ``_pushdown(f)``, the formula that walk spells."""
    values, folded = [], []
    fold = semantics._fold

    def spy(walked, combine):
        def record(node, at, kids):  # at: the node's index in the walk, and its binders
            values.append((at[0], at[1], combine(node, at[1], kids)))
            return values[-1][2]
        folded.append(walked)
        return fold([(node, (i, bound)) for i, (node, bound) in enumerate(walked)], record)

    monkeypatch.setattr(semantics, "_fold", spy)
    rng = random.Random(29)
    cases = list(factor_formulas())
    for _ in range(100):
        env = factor_environment(rng)
        cases.append((random_formula(rng, depth=4), Context(()), env))
    for f, ctx, env in cases:
        for g, e in ((f, env), (translate_formula(f, "to_add"), translate_environment(env))):
            spelled = semantics._pushdown(g)
            values.clear()
            folded.clear()
            evaluate(g, ctx, e)
            (pushed,) = folded
            assert [(type(node), *[getattr(node, k) for k in node._head()])
                    for node, _ in pushed] == spelled._shape(), g  # the nodes' own fields
            spelled = walk(spelled)
            for i, bound, (names, sizes, table) in values:
                node = spelled[i][0]
                order = ctx.names() + tuple(bound)
                free = free_variables(node)
                assert names == tuple([v for v in order if v in free]), node
                spaces = {**{v: s for v, s in ctx.entries},
                          **{v: e.spaces[s] for v, s in bound.items()}}
                assert sizes == tuple([len(spaces[v]) for v in names]), node
                assert len(table) == math.prod(sizes), node


# ---------------------------------------------------------------------------
# quantifier pushdown: cells computed
# ---------------------------------------------------------------------------

@pytest.fixture
def cells(monkeypatch):
    """The cells the evaluator computes, counted so far: the table length of
    every node but the atoms and constants, whose tables it reads."""
    count = [0]
    fold = semantics._fold

    def spy(walked, combine):
        def record(node, bound, kids):
            value = combine(node, bound, kids)
            if kids:
                count[0] += len(value[2])
            return value
        return fold(walked, record)

    monkeypatch.setattr(semantics, "_fold", spy)
    return count


def pushdown_environment(n):
    rng = random.Random(n)
    return environment_from_dict({
        "mode": "mul",
        "spaces": {"I": {"points": [f"i{i}" for i in range(n)],
                         "weights": [rng.uniform(0.5, 1.5) for _ in range(n)]}},
        "atoms": {name: {"context": ["I"] * arity,
                         "values": [math.exp(rng.uniform(-2, 2)) for _ in range(n ** arity)]}
                  for name, arity in (("f", 1), ("g", 1), ("r", 2))},
    })


@pytest.mark.parametrize("text, free", [
    ("E^2 (x in I). E^2 (y in I). f(x) (x) g(y)", False),
    # eval-bulk's shapes, over each row of x
    ("A^1 (y in I). 2 . (r(x, y) (x*) f(x))", True),
    ("E^2 (y in I). 0.5 . (r(y, x)^* (x) g(x))", True),
    ("A^2 (y in I). r(x, y) -o f(x)", True),
])
@pytest.mark.parametrize("mode", ("mul", "add"))
def test_the_pushdown_computes_at_most_2n_cells(cells, text, free, mode):
    n = 300
    env = pushdown_environment(n)
    f = parse(text)
    if mode == "add":
        env, f = translate_environment(env), translate_formula(f, "to_add")
    ctx = Context((("x", env.spaces["I"]),)) if free else Context(())
    evaluate(f, ctx, env)
    assert cells[0] / (n if free else 1) <= 2 * n, cells[0]


def test_log_likelihood_and_the_softmax_formula_compute_at_most_2n_cells(cells):
    n = 2000
    rng = random.Random(5)
    space = make_space(range(n), [rng.uniform(0.5, 1.5) for _ in range(n)], name="X")
    log_likelihood(energy_function(space, [rng.uniform(-5.0, 5.0) for _ in range(n)]))
    assert cells[0] <= 2 * n
    cells[0] = 0
    softmax_formula_path(ValueVector(space, [math.exp(rng.uniform(-5, 5)) for _ in range(n)]),
                         2.0)
    assert cells[0] <= 2 * n


def test_log_likelihood_is_minus_log_softmax():
    """At n = 2000, against -log softmax in closed form: u(x) + log of the
    exactly rounded sum of w e^(-u)."""
    n = 2000
    rng = random.Random(6)
    space = make_space(range(n), [rng.uniform(0.5, 1.5) for _ in range(n)], name="X")
    u = [rng.uniform(-5.0, 5.0) for _ in range(n)]
    z = math.log(math.fsum(w * math.exp(-ui) for w, ui in zip(space.weights, u)))
    for got, ui in zip(log_likelihood(energy_function(space, u)), u):
        assert abs(got - (ui + z)) <= 1e-12 * max(1.0, abs(ui + z)), (got, ui + z)


def test_a_rewritten_formula_reports_the_fault_of_its_own_fold_order():
    # both spaces have empty support: the fold of the formula as written meets
    # Z (the left operand) first, the rewritten one meets Y first
    env = environment_from_dict({
        "mode": "mul",
        "spaces": {"Y": {"points": ["a"], "weights": [0]},
                   "Z": {"points": ["a"], "weights": [0]}},
        "atoms": {"phi": {"context": ["Y"], "values": [2]}}})
    f = parse("E^2 (y in Y). phi(y) -o (E^1 (z in Z). one)")
    assert semantics._pushdown(f) != f
    with pytest.raises(QuantLogicError) as err:
        evaluate(f, Context(()), env)
    assert err.value.code == "EMPTY_SUPPORT" and "'Z'" in err.value.message


# ---------------------------------------------------------------------------
# contract: the scalar operations are called for corner cells only
# ---------------------------------------------------------------------------

SCALAR_OPS = sorted({fn.__name__ for fn in [*MUL_OPS.values(), *ADD_OPS.values()]}
                    | {"mul_div", "mul_dual", "mul_pow", "add_div", "add_dual",
                       "add_scalar", "napier", "napier_inv"})


@pytest.fixture
def scalar_calls(monkeypatch):
    """The number of scalar-operation calls made so far, through the module,
    the MUL_OPS/ADD_OPS tables or the names entailment and stats import, not
    counting those one scalar operation makes to another (add_div to
    add_cotensor)."""
    calls, depth, spies = [0], [0], {}
    for name in SCALAR_OPS:
        def spy(*args, _fn=getattr(extreal, name)):
            calls[0] += not depth[0]
            depth[0] += 1
            try:
                return _fn(*args)
            finally:
                depth[0] -= 1
        spies[getattr(extreal, name)] = spy
        for module in (extreal, entailment, stats):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, spy)
    for ops in (MUL_OPS, ADD_OPS):
        for op, fn in ops.items():
            monkeypatch.setitem(ops, op, spies[fn])
    return calls


N = 300
# every connective, and a quantifier, over one free variable of 300 points
CONTRACT_FORMULA = ("(((f(x) (x) g(x)) (x*) (f(x) -o g(x))) \\/ (f(x)^* /\\ (2 . g(x))))"
                    " (+) ((f(x) (+*) g(x)) (x) (E^2 (y in I). r(x, y)))")


def corner_free_environment(rng):
    def values(n):
        return [math.exp(rng.uniform(-2, 2)) for _ in range(n)]

    return environment_from_dict({
        "mode": "mul",
        "spaces": {"I": {"points": [f"i{i}" for i in range(N)], "weights": [1.0] * N}},
        "atoms": {"f": {"context": ["I"], "values": values(N)},
                  "g": {"context": ["I"], "values": values(N)},
                  "r": {"context": ["I", "I"], "values": values(N * N)}},
    })


def test_corner_free_evaluation_calls_no_scalar_operation(scalar_calls):
    env = corner_free_environment(random.Random(3))
    ctx = Context((("x", env.spaces["I"]),))
    f = parse(CONTRACT_FORMULA)
    env_add, f_add = translate_environment(env), translate_formula(f, "to_add")
    for g, e in ((f, env), (f_add, env_add)):
        assert len(evaluate(g, ctx, e).table) == N
    assert scalar_calls[0] == 0


CORNERS = {"mul": (0.0, INF), "add": (-INF, INF)}
TABLES = {"mul": [*MUL_TABLES.values(), mul_div_table],
          "add": [*ADD_TABLES.values(), add_div_table]}
UNARY_TABLES = {"mul": [mul_dual_table, napier_table, lambda xs: mul_pow_table(2.0, xs)],
                "add": [add_dual_table, napier_inv_table, lambda xs: add_scalar_table(2.0, xs)]}


@pytest.mark.parametrize("mode", ("mul", "add"))
def test_a_table_with_k_corner_cells_makes_at_most_k_calls(scalar_calls, mode):
    rng = random.Random(17)
    for k in (0, 1, 5, 40):
        xs = [math.exp(rng.uniform(-2, 2)) for _ in range(N)]
        ys = [math.exp(rng.uniform(-2, 2)) for _ in range(N)]
        if mode == "add":
            xs, ys = [-math.log(x) for x in xs], [-math.log(y) for y in ys]
        cells = rng.sample(range(N), k)
        for i in cells:
            (xs if rng.random() < 0.5 else ys)[i] = rng.choice(CORNERS[mode])
            if rng.random() < 0.5:  # a cell where both operands are corners
                xs[i], ys[i] = rng.choice(CORNERS[mode]), rng.choice(CORNERS[mode])
        for table in TABLES[mode]:
            scalar_calls[0] = 0
            table(xs, ys)
            assert scalar_calls[0] <= k, (table, k)
        for table in UNARY_TABLES[mode]:
            scalar_calls[0] = 0
            table(xs)
            assert scalar_calls[0] <= k, (table, k)


# ---------------------------------------------------------------------------
# entailment and statistics on the table path: no scalar operation on a
# corner-free cell, one kernel per quantified table
# ---------------------------------------------------------------------------

@pytest.fixture
def kernels(monkeypatch):
    """The quantifier kernels built so far, as (carrier, polarity, p) each,
    and in ``records`` the weights of each support record a space derived."""
    built, records = [], []
    build, derive = pmeans._quantifier, spaces._support

    def building(c, polarity, p, record):
        built.append((c.mode, polarity, p))
        return build(c, polarity, p, record)

    def deriving(weights, *args):
        records.append(tuple(weights))
        return derive(weights, *args)

    monkeypatch.setattr(pmeans, "_quantifier", building)
    monkeypatch.setattr(spaces, "_support", deriving)
    return types.SimpleNamespace(built=built, records=records)


def corner_free(rng, n):
    return tuple(math.exp(rng.uniform(-2, 2)) for _ in range(n))


def trials_run(report, trials):
    source = report.details["source"]
    return source["trial"] + 1 if source["kind"] == "random" else trials + 1


@pytest.mark.parametrize("p", (0.5, 2.0, INF))
def test_corner_free_checks_and_statistics_call_no_scalar_operation(scalar_calls, p):
    rng = random.Random(23)
    n = 60
    space = make_space(range(n), [rng.uniform(0.5, 2.0) for _ in range(n)], name="I")
    phi, psi = corner_free(rng, n), corner_free(rng, n)
    # pairs of points onto a target of twice their mass
    target = make_space(range(n // 2), [2.0 * (space.weights[2 * j] + space.weights[2 * j + 1])
                                        for j in range(n // 2)], name="T")
    f = PointMap(space, target, tuple(i // 2 for i in range(n)))
    raw = corner_free(rng, n)
    masses = [r / math.fsum(raw) for r in raw]
    runs = {
        "entails": lambda: entails(space, phi, psi, p),
        "reflexivity_check": lambda: reflexivity_check(space, phi, p),
        "adjunction_check": lambda: adjunction_check(
            normalize(space), uniform_space(4, "K"), corner_free(rng, 4 * n), psi, p),
        "reindex_monotonicity_check": lambda: reindex_monotonicity_check(
            f, phi[:n // 2], psi[:n // 2], p),
        "pushforward_density": lambda: pushforward_density(f, phi),
        "laxity_check": lambda: laxity_check(f, phi, psi),
        "softmax_p": lambda: softmax_p(ValueVector(space, phi), p),
        "renyi_entropy": lambda: renyi_entropy(distribution(counting_space(n), masses), p),
    }
    for name, run in runs.items():
        scalar_calls[0] = 0
        run()
        assert scalar_calls[0] == 0, name
    if p < INF:  # at p = inf the formula path is undefined and transitivity holds
        scalar_calls[0] = 0
        renyi_formula_path(distribution(counting_space(n), masses), p)
        assert scalar_calls[0] == 0
        report = transitivity_search(space, p, 20, seed=3)
        # one tensor of two entailments per trial, and no cell operation
        assert scalar_calls[0] == trials_run(report, 20)


@pytest.mark.parametrize("ni", (1, 4, 8))
def test_adjunction_check_builds_three_kernels(kernels, ni):
    # one per space: the marginal over K, the entailments over I and over I x K
    rng = random.Random(ni)
    space_i, space_k = uniform_space(ni, "I"), uniform_space(3, "K")
    adjunction_check(space_i, space_k, corner_free(rng, 3 * ni), corner_free(rng, ni), 2.0)
    assert len(kernels.built) == 3 and len(kernels.records) == 3
    # a second check on the same spaces derives a record only for its new
    # product space
    adjunction_check(space_i, space_k, corner_free(rng, 3 * ni), corner_free(rng, ni), 2.0)
    assert len(kernels.built) == 6 and len(kernels.records) == 4


@pytest.mark.parametrize("trials, seed", [(0, 0), (1, 0), (40, 0), (40, 4)])
def test_transitivity_search_builds_one_kernel_per_trial(kernels, trials, seed):
    """Each trial, and the canned witness, takes one kernel; each space
    derives one record: the searched one and the witness's."""
    report = transitivity_search(uniform_space(2, "I"), 1.0, trials, seed)
    assert kernels.built == [("mul", pmeans.Polarity.UNIVERSAL, 1.0)] * trials_run(report, trials)
    canned = report.details["source"]["kind"] == "canned"
    assert len(kernels.records) == (trials > 0) + canned


# ---------------------------------------------------------------------------
# the support record a space derives
# ---------------------------------------------------------------------------

MAGNITUDES = (0.0, 0.5, 1.0, 2.0, 100.0, INF)


def quantify_all(space, body):
    return {(c.mode, polarity, p): hexes(c.quantifier(polarity, p, space)(body))
            for c in (MUL, ADD) for polarity in pmeans.Polarity for p in MAGNITUDES}


def test_a_kept_kernel_gives_what_a_new_one_gives(kernels):
    """Kernels built over a space's kept record give what kernels over a
    fresh space's record give."""
    rng = random.Random(31)
    space = make_space(range(4), [0.5, 0.0, 2.0, 1e-320], name="I")
    bodies = [[rng.choice((0.0, 1.0, INF, 3.0, 1e-300)) for _ in range(8)] for _ in range(20)]
    first = [quantify_all(space, body) for body in bodies]
    assert kernels.records == [space.weights]
    assert len(kernels.built) == len(bodies) * len(first[0])  # one per ask
    assert [quantify_all(space, body) for body in bodies] == first
    assert kernels.records == [space.weights]
    fresh = [quantify_all(make_space(range(4), space.weights, name="I"), body)
             for body in bodies]
    assert fresh == first
    assert len(kernels.records) == 1 + len(bodies)


def test_a_space_derives_its_support_record_once(kernels):
    space = uniform_space(3, "I")
    for p in range(100):
        for c in (MUL, ADD):
            c.quantifier(pmeans.Polarity.EXISTENTIAL, float(p), space)
    assert kernels.records == [space.weights] and len(kernels.built) == 200
    # an empty support is found at each quantification, and no record is kept
    empty = make_space("ab", [0.0, 0.0], name="Z")
    for _ in range(2):
        with pytest.raises(QuantLogicError) as err:
            MUL.quantifier(pmeans.Polarity.UNIVERSAL, 2.0, empty)
        assert err.value.code == "EMPTY_SUPPORT" and "'Z'" in err.value.message
    assert kernels.records == [space.weights, empty.weights, empty.weights]


def test_threads_sharing_a_space_get_right_results():
    """Threads asking one space for kernels, switching as often as the
    interpreter allows: none fails and every result is right."""
    space = make_space(range(3), [0.25, 0.5, 0.25], name="I")
    body = [2.0, 0.5, 4.0]
    magnitudes = [float(p) for p in range(80)]
    want = {p: MUL.quantifier(pmeans.Polarity.EXISTENTIAL, p, make_space(
        range(3), space.weights, name="I"))(body) for p in magnitudes}
    failures = []

    def ask(seed):
        order = random.Random(seed).sample(magnitudes, len(magnitudes))
        try:
            for _ in range(5):
                for p in order:
                    if MUL.quantifier(pmeans.Polarity.EXISTENTIAL, p, space)(body) != want[p]:
                        failures.append(p)
        except Exception as exc:  # noqa: BLE001 (reported below)
            failures.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=ask, args=(i,)) for i in range(6)]
        for t in workers:
            t.start()
        for t in workers:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in workers)
    assert failures == []


def test_the_support_record_is_no_part_of_a_space():
    weights = (0.25, 0.0, 0.75)
    space, twin = make_space("abc", weights, name="I"), make_space("abc", weights, name="I")
    before = (hash(space), repr(space))
    quantified = quantify_all(space, [2.0, 0.0, 0.5])
    assert "_support_record" in vars(space) and "_support_record" not in vars(twin)
    assert space == twin and hash(space) == hash(twin) and (hash(space), repr(space)) == before
    assert dataclasses.replace(space) == space
    assert "_support_record" not in vars(dataclasses.replace(space, name="J"))
    for copy_ in (pickle.loads(pickle.dumps(space)), copy.deepcopy(space), copy.copy(space)):
        assert copy_ == space and hash(copy_) == hash(space) and repr(copy_) == repr(space)
        assert quantify_all(copy_, [2.0, 0.0, 0.5]) == quantified
