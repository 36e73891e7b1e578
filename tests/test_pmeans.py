"""p-sums, p-means, and the lemma-level properties they satisfy.

The random-instance properties mirror the library's advertised guarantees:
relative 1e-9 on finite results, exact whenever a result is 0 or inf.
Corners where a law genuinely breaks (0 and inf under the same quantifier)
are pinned as regression values at the bottom instead of being asserted
as laws — see the corner-catalog tests.
"""

import math
import random

import pytest
from hypothesis import given, strategies as st

from quantlogic import (
    INF,
    Polarity,
    QuantLogicError,
    SignedP,
    ValueVector,
    add_quantifier,
    check_mul,
    counting_space,
    exists_p,
    forall_p,
    make_space,
    mul_add,
    mul_cotensor,
    mul_div,
    mul_dual,
    mul_logical_leq,
    mul_pow,
    mul_tensor,
    p_mean,
    p_sum,
    product_space,
    uniform_space,
    value_vector,
)
from helpers import rel_close

P_GRID = (0.5, 1.0, 2.0, 7.0, INF)
P_GRID_WITH_ZERO = (0.0,) + P_GRID


def rand_space(rng, max_points=8, probability=False):
    n = rng.randint(1, max_points)
    if probability:
        raw = [rng.uniform(0.05, 1.0) for _ in range(n)]
        total = sum(raw)
        return make_space(range(n), [w / total for w in raw])
    return make_space(range(n), [rng.uniform(0.05, 2.0) for _ in range(n)])


def rand_values(rng, n, lo=1e-3, hi=1e3):
    return [math.exp(rng.uniform(math.log(lo), math.log(hi))) for _ in range(n)]


# ---------------------------------------------------------------------------
# worked examples
# ---------------------------------------------------------------------------

def test_p_sum_examples():
    assert p_sum(exists_p(2), [3.0, 4.0]) == 5.0
    assert p_sum(exists_p(INF), [1.0, 3.0]) == 3.0
    assert p_sum(forall_p(1), [2.0, 2.0]) == 1.0
    assert p_sum(exists_p(1), [3.0, 4.0]) == 7.0


def test_p_sum_errors():
    with pytest.raises(QuantLogicError) as err:
        p_sum(exists_p(1), [])
    assert err.value.code == "EMPTY_LIST"
    with pytest.raises(QuantLogicError) as err:
        p_sum(exists_p(0), [1.0])
    assert err.value.code == "P_ZERO_SUM"


def test_p_mean_examples():
    half = make_space(["a", "b"], [0.5, 0.5])
    assert p_mean(exists_p(1), value_vector(half, [1, 3])) == 2.0
    # the geometric mean splits: disjunctive sees inf, conjunctive sees 0
    v = value_vector(half, [0.0, INF])
    assert p_mean(exists_p(0), v) == INF
    assert p_mean(forall_p(0), v) == 0.0
    single = make_space(["x"], [1.0])
    for sp in (exists_p(0), exists_p(2), forall_p(7), forall_p(INF)):
        assert rel_close(p_mean(sp, value_vector(single, [0.37])), 0.37, 1e-12)
    # zero-weight points are invisible to the essential supremum
    skewed = make_space(["dead", "live"], [0.0, 1.0])
    assert p_mean(exists_p(INF), value_vector(skewed, [9.0, 2.0])) == 2.0
    assert p_mean(forall_p(INF), value_vector(skewed, [9.0, 2.0])) == 2.0


def test_empty_support():
    dead = make_space(["a"], [0.0])
    with pytest.raises(QuantLogicError) as err:
        p_mean(exists_p(1), value_vector(dead, [1.0]))
    assert err.value.code == "EMPTY_SUPPORT"


def test_signed_p_validation():
    with pytest.raises(QuantLogicError):
        exists_p(-1.0)
    with pytest.raises(QuantLogicError):
        forall_p(float("nan"))
    assert exists_p(0) != forall_p(0)  # the two zero regimes stay distinct


def test_value_vector_validation():
    s = make_space(["a"], [1.0])
    with pytest.raises(QuantLogicError) as err:
        value_vector(s, [1.0, 2.0])
    assert err.value.code == "VALUE_COUNT"
    with pytest.raises(QuantLogicError):
        value_vector(s, [-3.0])


# ---------------------------------------------------------------------------
# numerically demanding regimes (the log-domain kernel)
# ---------------------------------------------------------------------------

def test_large_p_does_not_overflow():
    vals = [0.5, 2.0, 1.7]
    # 2.0**4096 overflows a double, so this must route through logs
    got = p_sum(exists_p(4096), vals)
    assert rel_close(got, 2.0, 1e-9)
    assert rel_close(p_sum(forall_p(4096), vals), 0.5, 1e-9)


def test_wide_dynamic_range():
    s = make_space(["lo", "hi"], [0.5, 0.5])
    v = value_vector(s, [1e-200, 1e200])
    # sqrt(0.5 * (1e-400 + 1e400)): the 1e-400 term is negligible; the oracle
    # must itself be computed in the log domain to stay finite
    expected = math.exp(0.5 * (math.log(0.5) + 400.0 * math.log(10.0)))
    assert rel_close(p_mean(exists_p(2), v), expected, 1e-9)


def test_huge_values():
    # sqrt(2 * 1e616) is ~1.414e308: still representable, and the log-domain
    # kernel must deliver it rather than overflowing along the way
    assert rel_close(p_sum(exists_p(2), [1e308, 1e308]),
                     math.sqrt(2.0) * 1e308, 1e-9)
    # ... while a result beyond the double range honestly saturates
    assert p_sum(exists_p(1), [1e308, 1e308]) == INF
    assert p_sum(forall_p(2), [1e-308, 1e-308]) > 0.0


# ---------------------------------------------------------------------------
# lemma-level properties on random instances
# ---------------------------------------------------------------------------

def test_de_morgan_duality():
    rng = random.Random(101)
    for _ in range(200):
        space = rand_space(rng)
        vals = rand_values(rng, len(space))
        p = rng.choice(P_GRID_WITH_ZERO)
        vv = value_vector(space, vals)
        dual_vv = value_vector(space, [mul_dual(a) for a in vals])
        lhs = p_mean(exists_p(p), vv)
        rhs = mul_dual(p_mean(forall_p(p), dual_vv))
        assert rel_close(lhs, rhs, 1e-9), (p, vals)


def test_fundamental_property():
    # dividing out a constant commutes with the quantifier, polarity flipped
    rng = random.Random(102)
    for _ in range(200):
        space = rand_space(rng)
        b = rand_values(rng, len(space))
        a = rand_values(rng, 1)[0]
        p = rng.choice(P_GRID)
        lhs = p_mean(forall_p(p),
                     value_vector(space, [mul_div(bi, a) for bi in b]))
        rhs = mul_div(p_mean(exists_p(p), value_vector(space, b)), a)
        assert rel_close(lhs, rhs, 1e-9), (p, a, b)


def test_homogeneity():
    rng = random.Random(103)
    for _ in range(200):
        space = rand_space(rng)
        vals = rand_values(rng, len(space))
        k = rand_values(rng, 1)[0]
        p = rng.choice(P_GRID)
        for sp in (exists_p(p), forall_p(p)):
            for op in (mul_tensor, mul_cotensor):
                lhs = op(k, p_mean(sp, value_vector(space, vals)))
                rhs = p_mean(sp, value_vector(space, [op(k, a) for a in vals]))
                assert rel_close(lhs, rhs, 1e-9), (p, k, op.__name__)


def test_homogeneity_geometric_regime():
    # at magnitude 0 the scale factor is raised to the total mass, so the
    # identity needs probability weights
    rng = random.Random(113)
    for _ in range(100):
        space = rand_space(rng, probability=True)
        vals = rand_values(rng, len(space))
        k = rand_values(rng, 1)[0]
        for sp in (exists_p(0), forall_p(0)):
            lhs = mul_tensor(k, p_mean(sp, value_vector(space, vals)))
            rhs = p_mean(sp, value_vector(space, [mul_tensor(k, a) for a in vals]))
            assert rel_close(lhs, rhs, 1e-9)


def test_product_of_means_over_two_index_sets():
    rng = random.Random(104)
    for _ in range(100):
        sa = rand_space(rng, max_points=4)
        sb = rand_space(rng, max_points=4)
        a = rand_values(rng, len(sa))
        b = rand_values(rng, len(sb))
        p = rng.choice(P_GRID)
        joint = value_vector(product_space(sa, sb),
                             [x * y for x in a for y in b])
        for sp in (exists_p(p), forall_p(p)):
            lhs = p_mean(sp, joint)
            rhs = mul_tensor(p_mean(sp, value_vector(sa, a)),
                             p_mean(sp, value_vector(sb, b)))
            assert rel_close(lhs, rhs, 1e-9)


def test_fubini():
    rng = random.Random(105)
    for _ in range(150):
        sa = rand_space(rng, max_points=5)
        sb = rand_space(rng, max_points=5)
        na, nb = len(sa), len(sb)
        table = [rand_values(rng, nb) for _ in range(na)]
        p = rng.choice(P_GRID_WITH_ZERO)
        for sp in (exists_p(p), forall_p(p)):
            joint = p_mean(sp, value_vector(product_space(sa, sb),
                                            [v for row in table for v in row]))
            inner_b = [p_mean(sp, value_vector(sb, row)) for row in table]
            iterated_ab = p_mean(sp, value_vector(sa, inner_b))
            inner_a = [p_mean(sp, value_vector(sa, [table[i][j] for i in range(na)]))
                       for j in range(nb)]
            iterated_ba = p_mean(sp, value_vector(sb, inner_a))
            assert rel_close(joint, iterated_ab, 1e-9), (p, sp.polarity)
            assert rel_close(joint, iterated_ba, 1e-9), (p, sp.polarity)


def test_monotone_in_argument():
    rng = random.Random(106)
    for _ in range(200):
        space = rand_space(rng)
        v = rand_values(rng, len(space))
        w = [a * (1.0 + rng.uniform(0.0, 3.0)) for a in v]
        p = rng.choice(P_GRID_WITH_ZERO)
        for sp in (exists_p(p), forall_p(p)):
            assert mul_logical_leq(p_mean(sp, value_vector(space, v)),
                                   p_mean(sp, value_vector(space, w)))


def test_p_sum_index_antitonicity():
    rng = random.Random(107)
    for _ in range(200):
        vals = rand_values(rng, rng.randint(2, 8))
        p = rng.choice(P_GRID)
        shorter = vals[:-1]
        # universally, fewer obligations means a larger value;
        # existentially, fewer witnesses means a smaller one
        assert mul_logical_leq(p_sum(forall_p(p), vals),
                               p_sum(forall_p(p), shorter) * (1 + 1e-12))
        assert mul_logical_leq(p_sum(exists_p(p), shorter),
                               p_sum(exists_p(p), vals) * (1 + 1e-12))


def test_sandwich_on_probability_spaces():
    rng = random.Random(108)
    for _ in range(200):
        space = rand_space(rng, probability=True)
        vals = rand_values(rng, len(space))
        p = rng.choice(P_GRID_WITH_ZERO)
        lo = min(vals)
        hi = max(vals)
        fa = p_mean(forall_p(p), value_vector(space, vals))
        ex = p_mean(exists_p(p), value_vector(space, vals))
        eps = 1 + 1e-12
        assert lo <= fa * eps and fa <= ex * eps and ex <= hi * eps


def test_p_sum_conjugation_structure():
    # the p-sum is literally "apply the scalar modality, add, unapply"
    rng = random.Random(109)
    for _ in range(200):
        vals = rand_values(rng, rng.randint(1, 8), lo=0.1, hi=10.0)
        p = rng.choice((0.5, 1.0, 2.0, 7.0))
        folded = 0.0
        for a in vals:
            folded = mul_add(folded, mul_pow(p, a))
        assert rel_close(p_sum(exists_p(p), vals),
                         mul_pow(mul_dual(p), folded), 1e-9)


def test_determinism():
    rng = random.Random(110)
    space = rand_space(rng)
    vals = rand_values(rng, len(space))
    vv = value_vector(space, vals)
    for sp in (exists_p(3), forall_p(0.5)):
        assert p_mean(sp, vv) == p_mean(sp, vv)


# ---------------------------------------------------------------------------
# corner catalog: laws that genuinely break when 0 and inf meet a quantifier.
# These record the current (table-consistent) behavior; they are not laws.
# ---------------------------------------------------------------------------

def test_corner_tensor_homogeneity_breaks_at_inf():
    half = make_space(["a", "b"], [0.5, 0.5])
    v = value_vector(half, [0.0, 4.0])
    mean = p_mean(exists_p(0), v)          # 0 wins disjunctively: mean == 0
    assert mean == 0.0
    lhs = mul_tensor(INF, mean)            # inf (x) 0 == 0
    rhs = p_mean(exists_p(0), value_vector(half, [mul_tensor(INF, 0.0),
                                                  mul_tensor(INF, 4.0)]))
    assert lhs == 0.0
    assert rhs == INF                      # {0, inf} disjunctively: inf wins
    assert lhs != rhs


def test_corner_cotensor_homogeneity_breaks_at_zero():
    half = make_space(["a", "b"], [0.5, 0.5])
    v = value_vector(half, [INF, 4.0])
    mean = p_mean(forall_p(0), v)          # no zero present: mean == inf
    assert mean == INF
    lhs = mul_cotensor(0.0, mean)          # 0 (x*) inf == inf
    rhs = p_mean(forall_p(0), value_vector(half, [mul_cotensor(0.0, INF),
                                                  mul_cotensor(0.0, 4.0)]))
    assert lhs == INF
    assert rhs == 0.0                      # {inf, 0} conjunctively: 0 wins
    assert lhs != rhs


# ---------------------------------------------------------------------------
# huge weights: every kernel route stays total (no NaN, no raw overflow)
# ---------------------------------------------------------------------------

huge_weights = st.lists(st.one_of(st.floats(min_value=0.0, max_value=1e308),
                                  st.sampled_from((1e308, 1.0, 0.0))),
                        min_size=1, max_size=5).filter(lambda ws: any(w > 0.0 for w in ws))
# four magnitude classes: 0, inf, p >= 64 and the rest
magnitudes = st.one_of(st.just(0.0), st.just(INF),
                       st.floats(min_value=64.0, max_value=1e300),
                       st.floats(min_value=5e-324, max_value=64.0, exclude_max=True))
mul_values = st.floats(min_value=0.0, allow_nan=False)
add_values = st.floats(allow_nan=False)


@given(huge_weights, st.data(), magnitudes, st.sampled_from(list(Polarity)))
def test_p_mean_never_nan_for_huge_weights(weights, data, p, polarity):
    values = data.draw(st.lists(mul_values, min_size=len(weights), max_size=len(weights)))
    space = make_space(range(len(weights)), weights)
    got = p_mean(SignedP(polarity, p), value_vector(space, values))
    assert check_mul(got) == got


@given(huge_weights, st.data(), magnitudes, st.sampled_from(list(Polarity)))
def test_add_quantifier_never_nan_for_huge_weights(weights, data, p, polarity):
    values = data.draw(st.lists(add_values, min_size=len(weights), max_size=len(weights)))
    assert not math.isnan(add_quantifier(polarity, p, weights, values))


def test_huge_weights_keep_representable_results():
    huge = make_space(["a", "b"], [1e308, 1e308])
    # sqrt(1e308 * 1 + 1e308 * 4): the direct sum overflows, the mean does not
    got = p_mean(exists_p(2), value_vector(huge, [1.0, 2.0]))
    assert rel_close(got, math.sqrt(5.0) * 1e154, 1e-12)
    # geometric (p = 0): products w * log(a) beyond the double range are
    # summed exactly, so the total decides: 2e308 - 3e308 = -1e308 for the
    # first, whose mean e^-1e308 rounds to 0 while its napier image 1e308 is a
    # double; the same in both carriers
    e = math.e
    for values, log_sum in (([e ** 2, e ** -3], -1e308), ([e ** 3, e ** -2], 1e308),
                            ([e ** -2, e ** -3], -INF)):
        mul = p_mean(exists_p(0), value_vector(huge, values))
        add = add_quantifier(Polarity.EXISTENTIAL, 0.0, huge.weights,
                             [-math.log(a) for a in values])
        assert mul == (0.0 if log_sum < 0.0 else INF)
        assert add == -log_sum
    # a large p * u no longer meets its own infinity as inf - inf
    assert add_quantifier(Polarity.EXISTENTIAL, 2.0, (1.0,), (-1e308,)) == -1e308
    assert rel_close(p_mean(exists_p(1e306), value_vector(huge, [10.0, 1.0])), 10.0, 1e-12)


def test_value_vectors_keep_the_checked_values():
    # the multiplicative carrier has one zero, and its values are floats
    vv = ValueVector(counting_space(2), (-0.0, 1.0))
    assert vv.values[0].hex() == "0x0.0p+0"
    assert p_mean(forall_p(INF), vv).hex() == "0x0.0p+0"
    assert [type(v) for v in ValueVector(counting_space(2), (1, True)).values] == [float, float]
