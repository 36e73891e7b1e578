"""Carrier arithmetic: operation tables, algebraic laws, and the duality."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from quantlogic import (
    INF,
    OpCode,
    QuantLogicError,
    add_add,
    add_dual,
    add_hadd,
    add_join,
    add_logical_leq,
    add_meet,
    add_scalar,
    add_tensor,
    add_cotensor,
    check_add,
    check_mul,
    format_value,
    kahan_sum,
    mul_add,
    mul_cotensor,
    mul_div,
    mul_dual,
    mul_hadd,
    mul_join,
    mul_logical_leq,
    mul_meet,
    mul_pow,
    mul_tensor,
    napier,
    napier_inv,
    parse_value,
)
from quantlogic import extreal

MUL_GRID = (0.0, 1.0, INF)
ADD_GRID = (-INF, 0.0, INF)
# a finer grid for laws that must hold exactly: powers of two only, so that
# products, reciprocals and short sums are all computed without rounding
MUL_GRID9 = (0.0, 2.0 ** -9, 0.125, 0.5, 1.0, 2.0, 8.0, 2.0 ** 9, INF)

finite_pos = st.floats(min_value=1e-9, max_value=1e9)
finite_add = st.floats(min_value=-30.0, max_value=30.0)


def close(a, b, tol=1e-12):
    if a == b:
        return True
    if math.isinf(a) or math.isinf(b):
        return False
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


# ---------------------------------------------------------------------------
# operation tables (multiplicative carrier)
# ---------------------------------------------------------------------------

def test_tensor_table():
    assert mul_tensor(0.0, INF) == 0.0
    assert mul_tensor(INF, 0.0) == 0.0
    assert mul_tensor(INF, INF) == INF
    assert mul_tensor(2.0, 3.0) == 6.0
    assert mul_tensor(0.0, 0.0) == 0.0


def test_cotensor_table():
    assert mul_cotensor(0.0, INF) == INF
    assert mul_cotensor(INF, 0.0) == INF
    assert mul_cotensor(2.0, 3.0) == 6.0
    assert mul_cotensor(0.0, 0.0) == 0.0


def test_hadd_table():
    assert mul_hadd(2.0, 2.0) == 1.0          # 1/(1/2 + 1/2)
    assert mul_hadd(0.0, INF) == 0.0          # 0 absorbs
    assert mul_hadd(INF, 5.0) == 5.0          # inf is the unit
    assert mul_hadd(INF, INF) == INF
    assert close(mul_hadd(3.0, 6.0), 2.0)


def test_add_table():
    assert mul_add(INF, 0.0) == INF
    assert mul_add(3.0, 4.0) == 7.0
    assert mul_add(0.0, 0.0) == 0.0


def test_join_meet():
    for a in MUL_GRID9:
        assert mul_join(a, 0.0) == a          # false is the join unit
        assert mul_meet(a, INF) == a          # true is the meet unit
    assert mul_join(2.0, 3.0) == 3.0
    assert mul_meet(2.0, 3.0) == 2.0


def test_dual_table():
    assert mul_dual(0.0) == INF
    assert mul_dual(INF) == 0.0
    assert mul_dual(2.0) == 0.5
    assert mul_dual(mul_dual(0.3)) == 0.3


@given(st.floats(min_value=0.0, max_value=1e300))
def test_dual_involution(a):
    # reciprocals round, so the involution is 1-ulp-exact rather than bitwise
    assert close(mul_dual(mul_dual(a)), a)
    assert mul_dual(mul_dual(a)) == mul_dual(mul_dual(mul_dual(mul_dual(a))))


def test_div_table():
    # column a=0 is constantly inf; row b=inf is inf; a=inf kills finite b
    for b in MUL_GRID9:
        assert mul_div(0.0, b) == INF
    for a in MUL_GRID9:
        assert mul_div(a, INF) == INF
    assert mul_div(INF, 5.0) == 0.0
    assert mul_div(5.0, 0.0) == 0.0
    assert mul_div(2.0, 6.0) == 3.0
    for a in (0.0, 0.5, 1.0, 7.0, INF):
        assert mul_div(a, 1.0) == mul_dual(a)
        # alternative route through the dual and the cotensor
        assert mul_div(a, 1.0) == mul_cotensor(mul_dual(a), 1.0)


@given(finite_pos, finite_pos)
def test_div_is_residual(a, b):
    assert close(mul_tensor(a, mul_div(a, b)), b)


def test_pow_table():
    for a in MUL_GRID9:
        assert mul_pow(0.0, a) == 1.0         # k=0 row constantly 1
        assert mul_pow(1.0, a) == a
    assert mul_pow(0.0, 0.0) == 1.0
    assert mul_pow(INF, 0.5) == 0.0
    assert mul_pow(INF, 1.0) == 1.0
    assert mul_pow(INF, 2.0) == INF
    assert mul_pow(INF, INF) == INF
    assert mul_pow(INF, 0.0) == 0.0
    assert mul_pow(2.0, 3.0) == 9.0
    assert mul_pow(2.0, 1e300) == INF         # overflow saturates, no exception


@given(st.sampled_from((0.5, 1.0, 2.0, 3.0)), st.sampled_from((0.5, 1.0, 2.0, 3.0)),
       finite_pos)
def test_pow_is_action(h, k, a):
    assert close(mul_pow(k, mul_pow(h, a)), mul_pow(mul_tensor(h, k), a), 1e-9)


# ---------------------------------------------------------------------------
# operation tables (additive carrier)
# ---------------------------------------------------------------------------

def test_add_carrier_tables():
    assert add_tensor(-INF, INF) == INF
    assert add_tensor(INF, -INF) == INF
    assert add_cotensor(-INF, INF) == -INF
    assert add_tensor(2.0, 3.0) == 5.0
    assert add_cotensor(2.0, 3.0) == 5.0
    assert close(add_add(0.0, 0.0), -math.log(2.0))
    assert close(add_hadd(0.0, 0.0), math.log(2.0))
    assert add_join(3.0, 5.0) == 3.0          # order reversed: join is min
    assert add_meet(3.0, 5.0) == 5.0
    assert add_add(INF, 7.0) == 7.0           # +inf is the softplus unit
    assert add_add(-INF, 7.0) == -INF         # -inf absorbs
    assert add_hadd(-INF, 7.0) == 7.0
    assert add_hadd(INF, 7.0) == INF
    assert add_dual(3.0) == -3.0
    assert add_dual(add_dual(INF)) == INF


def test_add_scalar_modality():
    assert add_scalar(0.0, INF) == 0.0        # 0 * (+-inf) := 0
    assert add_scalar(0.0, -INF) == 0.0
    assert add_scalar(2.0, 3.0) == 6.0
    assert add_scalar(-1.0, INF) == -INF
    with pytest.raises(QuantLogicError) as err:
        add_scalar(INF, 1.0)
    assert err.value.code == "INVALID_VALUE"


def test_logical_order():
    assert mul_logical_leq(0.0, 5.0) and not mul_logical_leq(5.0, 0.0)
    # additive truth increases toward -inf
    assert add_logical_leq(5.0, 3.0) and not add_logical_leq(3.0, 5.0)
    assert add_logical_leq(INF, -INF)


def test_validation():
    with pytest.raises(QuantLogicError) as err:
        check_mul(-1.0)
    assert err.value.code == "INVALID_VALUE"
    with pytest.raises(QuantLogicError):
        check_mul(float("nan"))
    with pytest.raises(QuantLogicError):
        check_add(float("nan"))
    assert check_add(-INF) == -INF


def test_value_round_trip():
    for text, v in (("inf", INF), ("-inf", -INF), ("2.5", 2.5), ("0", 0.0)):
        assert parse_value(text) == v
    for v in (0.0, 1.0, INF, -INF, 0.1, -3.5):
        assert parse_value(format_value(v)) == v


# ---------------------------------------------------------------------------
# laws
# ---------------------------------------------------------------------------

MUL_OPS = [mul_join, mul_meet, mul_add, mul_hadd, mul_tensor, mul_cotensor]
ADD_OPS = [add_join, add_meet, add_add, add_hadd, add_tensor, add_cotensor]
# named by their additive names: add_join and add_meet are mul_meet and mul_join
ADD_IDS = ["add_join", "add_meet", "add_add", "add_hadd", "add_tensor", "add_cotensor"]

MUL_UNITS = {mul_join: 0.0, mul_meet: INF, mul_add: 0.0, mul_hadd: INF,
             mul_tensor: 1.0, mul_cotensor: 1.0}
ADD_UNITS = {add_join: INF, add_meet: -INF, add_add: INF, add_hadd: -INF,
             add_tensor: 0.0, add_cotensor: 0.0}


@pytest.mark.parametrize("op", MUL_OPS)
def test_mul_commutative_associative_grid(op):
    for a in MUL_GRID:
        for b in MUL_GRID:
            assert op(a, b) == op(b, a)
            for c in MUL_GRID:
                assert op(op(a, b), c) == op(a, op(b, c))


@pytest.mark.parametrize("op", ADD_OPS, ids=ADD_IDS)
def test_add_commutative_associative_grid(op):
    for a in ADD_GRID:
        for b in ADD_GRID:
            assert op(a, b) == op(b, a)
            for c in ADD_GRID:
                assert op(op(a, b), c) == op(a, op(b, c))


@pytest.mark.parametrize("op", MUL_OPS)
@given(data=st.data())
def test_mul_laws_random(op, data):
    a = data.draw(finite_pos)
    b = data.draw(finite_pos)
    c = data.draw(finite_pos)
    assert op(a, b) == op(b, a)  # both sides evaluate identically
    assert close(op(op(a, b), c), op(a, op(b, c)))
    assert close(op(a, MUL_UNITS[op]), a)


@pytest.mark.parametrize("op", ADD_OPS, ids=ADD_IDS)
@given(data=st.data())
def test_add_laws_random(op, data):
    a = data.draw(finite_add)
    b = data.draw(finite_add)
    c = data.draw(finite_add)
    assert op(a, b) == op(b, a)
    assert close(op(op(a, b), c), op(a, op(b, c)))
    assert close(op(a, ADD_UNITS[op]), a)


def test_star_autonomy_biconditional():
    for a in MUL_GRID9:
        for b in MUL_GRID9:
            for c in MUL_GRID9:
                lhs = mul_logical_leq(mul_tensor(a, b), mul_dual(c))
                rhs = mul_logical_leq(a, mul_dual(mul_tensor(b, c)))
                assert lhs == rhs, (a, b, c)


def test_residuation_biconditional():
    for a in MUL_GRID9:
        for b in MUL_GRID9:
            for c in MUL_GRID9:
                lhs = mul_logical_leq(mul_tensor(a, b), c)
                rhs = mul_logical_leq(b, mul_div(a, c))
                assert lhs == rhs, (a, b, c)


def test_de_morgan_defect():
    # taking duals maps tensor to cotensor, not to itself: the corner
    # 0 (x) inf witnesses the difference exactly.
    assert mul_dual(mul_tensor(INF, 0.0)) == INF
    assert mul_tensor(mul_dual(INF), mul_dual(0.0)) == 0.0
    assert mul_dual(mul_tensor(INF, 0.0)) != mul_tensor(mul_dual(INF), mul_dual(0.0))
    # ... while the dual really does land on the cotensor, everywhere
    for a in MUL_GRID9:
        for b in MUL_GRID9:
            assert mul_dual(mul_tensor(a, b)) == mul_cotensor(mul_dual(a), mul_dual(b))


@given(finite_pos, finite_pos)
def test_de_morgan_equality_on_finites(a, b):
    assert close(mul_dual(mul_tensor(a, b)), mul_tensor(mul_dual(a), mul_dual(b)))


def test_lax_linear_distributivity():
    # a (x) (b (x*) c) <= (a (x) b) (x*) c, equal on finites, strict at (0,0,inf)
    for a in MUL_GRID9:
        for b in MUL_GRID9:
            for c in MUL_GRID9:
                lhs = mul_tensor(a, mul_cotensor(b, c))
                rhs = mul_cotensor(mul_tensor(a, b), c)
                assert mul_logical_leq(lhs, rhs), (a, b, c)
                if all(map(math.isfinite, (a, b, c))):
                    assert close(lhs, rhs), (a, b, c)
    assert mul_tensor(0.0, mul_cotensor(0.0, INF)) == 0.0
    assert mul_cotensor(mul_tensor(0.0, 0.0), INF) == INF


def test_nonlinear_distributivity_grid():
    for a in MUL_GRID9:
        for b in MUL_GRID9:
            for c in MUL_GRID9:
                assert mul_tensor(a, mul_add(b, c)) == \
                    mul_add(mul_tensor(a, b), mul_tensor(a, c))
                assert mul_tensor(a, mul_join(b, c)) == \
                    mul_join(mul_tensor(a, b), mul_tensor(a, c))
                assert mul_add(a, mul_join(b, c)) == \
                    mul_join(mul_add(a, b), mul_add(a, c))


@given(finite_pos, finite_pos, finite_pos)
def test_nonlinear_distributivity_random(a, b, c):
    assert close(mul_tensor(a, mul_add(b, c)),
                 mul_add(mul_tensor(a, b), mul_tensor(a, c)))
    assert close(mul_tensor(a, mul_join(b, c)),
                 mul_join(mul_tensor(a, b), mul_tensor(a, c)))
    assert close(mul_add(a, mul_join(b, c)),
                 mul_join(mul_add(a, b), mul_add(a, c)))


# ---------------------------------------------------------------------------
# the -log / exp(-) bridge
# ---------------------------------------------------------------------------

def test_napier_fixed_points():
    assert napier(1.0) == 0.0
    # +0.0, as add_dual gives it: -log(1) would be -0.0
    assert math.copysign(1.0, napier(1.0)) == 1.0
    assert [math.copysign(1.0, extreal.ADD_CONSTANTS[k]) for k in ("one", "bot")] == [1.0, 1.0]
    assert napier(0.0) == INF
    assert napier(INF) == -INF
    for x in (0.0, 0.3, 1.0, 7.0, INF):
        assert close(napier_inv(napier(x)), x)


@given(finite_add)
def test_napier_inverse_add_side(u):
    assert close(napier(napier_inv(u)), u)


@pytest.mark.parametrize("op", list(OpCode))
def test_napier_conjugation_grid(op):
    for a in MUL_GRID:
        for b in MUL_GRID:
            assert extreal.ADD_OPS[op](napier(a), napier(b)) == napier(extreal.MUL_OPS[op](a, b))


@pytest.mark.parametrize("op", list(OpCode))
@given(data=st.data())
def test_napier_conjugation_random(op, data):
    a = data.draw(st.floats(min_value=1e-6, max_value=1e6))
    b = data.draw(st.floats(min_value=1e-6, max_value=1e6))
    assert close(extreal.ADD_OPS[op](napier(a), napier(b)),
                 napier(extreal.MUL_OPS[op](a, b)), 1e-12)


# ---------------------------------------------------------------------------
# the summation kernel
# ---------------------------------------------------------------------------

# finite doubles, with the huge magnitudes whose partial sums overflow drawn often
summands = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from((1e308, -1e308, 1.7976931348623157e308, -1.7976931348623157e308,
                     8.98846567431158e307, 5e-324, -5e-324, 1.0)),
)


def exact_sum(xs):
    """The exact sum of xs rounded to a float, or its signed infinity."""
    total = sum(map(Fraction, xs), Fraction(0))
    try:
        return float(total)
    except OverflowError:
        return INF if total > 0 else -INF


@given(st.lists(summands, max_size=12))
def test_kahan_sum_is_the_exact_sum_correctly_rounded(xs):
    got = kahan_sum(xs)
    assert not math.isnan(got)
    assert got == exact_sum(xs)


def test_kahan_sum_overflow_is_signed_not_nan():
    assert kahan_sum([1e308, 1e308]) == INF
    assert kahan_sum([-1e308, -1e308]) == -INF
    assert kahan_sum([1e308, 1e308, -1e308]) == 1e308  # the partials overflow
    assert kahan_sum([1e308, 1e308, -1e308, -1e308, 5e-324]) == 5e-324
    assert kahan_sum([INF, 1.0]) == INF
    assert kahan_sum([1e308, 1e308, -INF]) == -INF
    assert kahan_sum(x for x in (0.1, 0.2, 0.3)) == 0.6  # correctly rounded
    assert kahan_sum([]) == 0.0
