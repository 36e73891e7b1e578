"""The table-at-a-time carrier operations: bit for bit the scalar operations
mapped over the cells, also at the corners, and redoing only corner cells."""

import itertools
import math
import random
import sys

import pytest

from quantlogic import (INF, Context, QuantLogicError, environment_from_dict, evaluate,
                        extreal, parse, translate_environment, translate_formula)
from quantlogic.extreal import (ADD_OPS, ADD_TABLES, MUL_OPS, MUL_TABLES, OpCode,
                                add_div, add_div_table, add_dual, add_dual_table,
                                add_scalar, add_scalar_table, check_add, check_mul,
                                mul_div, mul_div_table, mul_dual, mul_dual_table,
                                mul_pow, mul_pow_table, napier, napier_inv,
                                napier_inv_table, napier_table)
from quantlogic.formulas import Atom, BinOp, Const, Div, Dual, Quant, Scalar
from quantlogic.pmeans import ADD, MUL
from helpers import coherence_environment, random_formula, ref_add_quantifier, ref_p_mean

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

BINARY = [(MUL_TABLES[op], MUL_OPS[op], MUL_ALPHABET) for op in OpCode] \
    + [(ADD_TABLES[op], ADD_OPS[op], ADD_ALPHABET) for op in OpCode] \
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


def corner_environment(rng):
    """coherence_environment's signature with 0, 1 and inf among the atom values."""
    env = coherence_environment(rng)
    corners = (0.0, 1.0, INF)
    return environment_from_dict({
        "mode": "mul",
        "spaces": {name: {"points": list(s.points), "weights": list(s.weights)}
                   for name, s in env.spaces.items()},
        "atoms": {name: {"context": list(t.context),
                         "values": [rng.choice(corners) if rng.random() < 0.3 else v
                                    for v in t.values]}
                  for name, t in env.atoms.items()},
    })


@pytest.mark.parametrize("make_env", (coherence_environment, corner_environment))
def test_evaluator_matches_the_cell_by_cell_reference(make_env):
    rng = random.Random(2024)
    ctx = Context(())
    for _ in range(150):
        env = make_env(rng)
        f = random_formula(rng, depth=4)
        env_add, f_add = translate_environment(env), translate_formula(f, "to_add")
        for g, e, mode in ((f, env, "mul"), (f_add, env_add, "add")):
            got = evaluate(g, ctx, e).table
            assert hexes(got) == hexes(ref_table(g, ctx, e, mode)), (mode, g)


def test_evaluator_matches_the_reference_over_free_variables():
    env = corner_environment(random.Random(5))
    ctx = Context((("x", env.spaces["I"]), ("z", env.spaces["K"])))
    for text in ("(rho(x, z) (x) phi(x)) -o rho(x, z)^*",
                 "E^2 (y in I). rho(y, z) (+*) (0.5 . (phi(x) (+) psi(y)))",
                 "A^0 (k in K). rho(x, k) (x*) (phi(x) \\/ psi(x))"):
        f = parse(text)
        for g, e, mode in ((f, env, "mul"),
                           (translate_formula(f, "to_add"), translate_environment(env), "add")):
            assert hexes(evaluate(g, ctx, e).table) == hexes(ref_table(g, ctx, e, mode))


# ---------------------------------------------------------------------------
# contract: the scalar operations are called for corner cells only
# ---------------------------------------------------------------------------

SCALAR_OPS = sorted({fn.__name__ for fn in [*MUL_OPS.values(), *ADD_OPS.values()]}
                    | {"mul_div", "mul_dual", "mul_pow", "add_div", "add_dual",
                       "add_scalar", "napier", "napier_inv"})


@pytest.fixture
def scalar_calls(monkeypatch):
    """The number of scalar-operation calls made so far, through the module
    or the MUL_OPS/ADD_OPS tables, not counting those one scalar operation
    makes to another (add_div to add_cotensor)."""
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
        monkeypatch.setattr(extreal, name, spy)
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
