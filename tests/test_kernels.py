"""The quantifier node kernels: agreement with the cell-by-cell reference
kernels of ``helpers``, and the route each chunk takes."""

import decimal
import math
import sys
from decimal import Decimal

import pytest
from hypothesis import given, settings, strategies as st

from quantlogic import INF, Polarity, make_space, pmeans
from quantlogic.pmeans import carrier
from helpers import ref_add_quantifier, ref_direct, ref_p_mean

E, A = Polarity.EXISTENTIAL, Polarity.UNIVERSAL
MAGNITUDES = (0.0, 0.5, 1.0, 2.0, 63.9, 64.0, 100.0, INF)
MIN_NORMAL = 2.0 ** -1022

weights_lists = st.lists(st.one_of(st.sampled_from((0.0, 0.5, 1.0, 1e308)),
                                   st.floats(min_value=0.0, max_value=1e308)),
                         min_size=1, max_size=5).filter(lambda ws: any(w > 0.0 for w in ws))
# the corners 0, 1 and inf of each carrier, and any other value
carrier_values = {
    "mul": st.one_of(st.sampled_from((0.0, 1.0, INF)),
                     st.floats(min_value=0.0, allow_nan=False)),
    "add": st.one_of(st.sampled_from((INF, 0.0, -INF)), st.floats(allow_nan=False)),
}


def quantify(mode, polarity, p, weights, body):
    space = make_space(range(len(weights)), weights)
    return carrier(mode).quantifier(polarity, p, space)(body)


@settings(max_examples=400, deadline=None)
@given(weights_lists, st.data(), st.sampled_from(MAGNITUDES),
       st.sampled_from((E, A)), st.sampled_from(("mul", "add")))
def test_node_kernel_matches_the_reference(weights, data, p, polarity, mode):
    n = len(weights)
    chunks = data.draw(st.integers(min_value=1, max_value=3))
    body = data.draw(st.lists(carrier_values[mode], min_size=n * chunks,
                              max_size=n * chunks))
    reference = ref_p_mean if mode == "mul" else ref_add_quantifier
    got = quantify(mode, polarity, p, weights, body)
    assert len(got) == chunks
    for j, cell in enumerate(got):
        chunk = body[j * n:(j + 1) * n]
        ref = reference(polarity, p, weights, chunk)
        assert not math.isnan(cell)
        assert cell.hex() == ref.hex(), (chunk, cell, ref)


# The edges of the direct route at weights [0.5, 2.0]: the power a**e of the
# value a that fills each None of the chunk sits at the edge.
ROUTE_EDGES = [(MIN_NORMAL, [2.0, None]),          # a power leaves the normal range
               (2.0 * MIN_NORMAL, [None, 2.0]),    # the term 0.5 * a**e does
               (sys.float_info.max, [None, 2.0]),  # a power overflows
               (sys.float_info.max / 2.5, [None, None])]  # the sum 2.5 * a**e does


def test_node_kernel_matches_the_reference_at_route_boundaries():
    weights = [0.5, 2.0]
    for p in (0.5, 1.0, 2.0, 7.0, 63.9, 64.0, 100.0):
        for polarity, e in ((E, p), (A, -p)):
            for power, template in ROUTE_EDGES:
                try:
                    edge = power ** (1.0 / e)
                except OverflowError:
                    continue
                if not 0.0 < edge < INF:  # the edge value is beyond the double range
                    continue
                direct = []
                for f in (1.0 - 1e-6, 1.0 + 1e-6):  # either side of the edge
                    chunk = [edge * f if x is None else x for x in template]
                    direct.append(ref_direct(e, list(zip(weights, chunk))) is not None)
                    got = quantify("mul", polarity, p, weights, chunk)[0]
                    assert got.hex() == ref_p_mean(polarity, p, weights, chunk).hex()
                    us = [-math.log(a) for a in chunk]
                    got = quantify("add", polarity, p, weights, us)[0]
                    assert got.hex() == ref_add_quantifier(polarity, p, weights, us).hex()
                assert direct[0] != direct[1], (p, polarity, power)


def test_universal_mean_below_the_normal_range():
    # (1e155 * 1) ** 2 leaves the double range, its reciprocal 1e-310 does not
    got = quantify("mul", A, 0.5, [1e155], [1.0])[0]
    assert 0.0 < got < MIN_NORMAL
    add = quantify("add", A, 0.5, [1e155], [0.0])[0]
    assert math.isclose(-math.log(got), add, rel_tol=1e-12)
    assert quantify("mul", E, 0.5, [1e155], [1.0]) == [INF]


@pytest.mark.parametrize("p, weights, values, want", [
    (0.0, [0.5], [1e-310], 1e-155),                 # (1e-310) ** 0.5
    (0.5, [1e-10], [1e-310], 1e-290),               # (1e-10 * 1e155) ** -2
    (1.0, [0.5, 0.5], [1e-310, 1.0], 2e-310),       # 1 / (0.5e310 + 0.5)
    (2.0, [1.0, 1.0], [5e-324, INF], 5e-324)])      # inf drops out
def test_universal_mean_of_a_value_whose_dual_overflows(p, weights, values, want):
    # 1/a is inf for these a: the value must neither absorb the mean nor be
    # lost, and the additive carrier agrees
    got = quantify("mul", A, p, weights, values)[0]
    assert math.isclose(got, want, rel_tol=1e-12)
    add = quantify("add", A, p, weights, [-math.log(a) for a in values])[0]
    assert math.isclose(-math.log(got), add, rel_tol=1e-12)


LOG2 = math.log(2.0)


@pytest.mark.parametrize("p, weights, values, want, want_add", [
    # (2**-1076) ** (1/2)
    (2.0, [2.0 ** -1074], [0.5], 2.0 ** -538, 538 * LOG2),
    # (25 * 2**-1074 * a**7) ** (1/7): 1.24e-322 is 25 * 2**-1074
    (7.0, [1.24e-322], [3.0998691361562103e-4],
     (25 * 2.0 ** -1074) ** (1 / 7) * 3.0998691361562103e-4,
     (1074 * LOG2 - math.log(25)) / 7 - math.log(3.0998691361562103e-4)),
    # 0.75 * 2**-1074, which rounds to 2**-1074
    (1.0, [2.0 ** -1074] * 2, [0.5, 0.25], 5e-324, 1074 * LOG2 - math.log(0.75))])
def test_existential_mean_of_terms_below_the_normal_range(p, weights, values, want, want_add):
    # every term w * a**p underflows to 0 or a subnormal: the mean is
    # representable nonetheless, and the additive carrier agrees
    got = quantify("mul", E, p, weights, values)[0]
    assert math.isclose(got, want, rel_tol=1e-12)
    add = quantify("add", E, p, weights, [-math.log(a) for a in values])[0]
    assert math.isclose(add, want_add, rel_tol=1e-12)


# weights and values from the whole positive double range
positive = st.one_of(st.sampled_from((5e-324, MIN_NORMAL, 0.5, 1.0, 2.0, 1e308)),
                     st.floats(min_value=5e-324, max_value=1e308))
# The most ulps by which a mean that is a normal double may miss the 60-digit
# oracle, per route.  A targeted search of 20000 examples found 118 (direct:
# the rounded exponent 1/p, times log s) and 1224 (log domain: the rounding
# of log coordinates up to about 745, times 1/p at p < 1).
ORACLE_ULPS = {"direct": 256, "log": 4096}


def oracle_mean(e, weights, values):
    """(sum w a**e) ** (1/e) in 60-digit decimal arithmetic."""
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        s = sum(Decimal(w) * Decimal(a) ** Decimal(e) for w, a in zip(weights, values))
        return s ** (1 / Decimal(e))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(positive, positive), min_size=1, max_size=4),
       st.sampled_from((0.5, 1.0, 2.0, 3.0, 7.0, 63.9, 64.0, 100.0)), st.sampled_from((E, A)))
def test_mul_kernel_against_a_decimal_oracle(pairs, p, polarity):
    e = p if polarity is E else -p
    weights, values = zip(*pairs)
    want = oracle_mean(e, weights, values)
    if not MIN_NORMAL <= want <= sys.float_info.max:
        return
    got = quantify("mul", polarity, p, weights, values)[0]
    assert 0.0 < got < INF
    route = "log" if ref_direct(e, pairs) is None else "direct"
    ulps = abs(Decimal(got) - want) / Decimal(math.ulp(float(want)))
    assert ulps <= ORACLE_ULPS[route], (route, float(ulps))


def test_one_chunk_entry_points_share_the_node_kernel():
    space = make_space(range(3), [0.5, 0.0, 2.0])
    values = [3.0, 7.0, 0.25]
    for p in MAGNITUDES:
        for polarity in (E, A):
            assert pmeans.p_mean(pmeans.SignedP(polarity, p), pmeans.value_vector(space, values)) \
                == quantify("mul", polarity, p, space.weights, values)[0]
            us = [-math.log(v) for v in values]
            assert pmeans.add_quantifier(polarity, p, space.weights, us) \
                == quantify("add", polarity, p, space.weights, us)[0]


# ---------------------------------------------------------------------------
# routes: the helpers whose results made each chunk's value
# ---------------------------------------------------------------------------

DIRECT = ["kahan_sum"]
LOG = ["_log_mean", "kahan_sum"]
GEOMETRIC = ["_weighted_sum", "kahan_sum"]


@pytest.fixture
def route(monkeypatch):
    """The kernel helpers whose results made the values so far, in order.

    A chunk may try a route that turns out not to apply, and such an attempt
    is not listed, with the helpers it called: a direct sum of powers that
    comes out infinite (an inf term, or a sum beyond the double range), and a
    log-domain mean that comes out NaN (a corner decides the chunk).
    """
    calls, depth = [], [0]
    for name in ("kahan_sum", "_log_mean", "_weighted_sum"):
        def spy(*args, _fn=getattr(pmeans, name), _name=name):
            start = len(calls)
            calls.append(_name)
            depth[0] += 1
            try:
                got = _fn(*args)
            finally:
                depth[0] -= 1
            if got != got or _name == "kahan_sum" and not depth[0] and got == INF:
                del calls[start:]
            return got
        monkeypatch.setattr(pmeans, name, spy)
    return calls


def test_route_direct(route):
    assert quantify("mul", E, 2.0, [1.0, 1.0], [3.0, 4.0]) == [5.0]
    assert quantify("mul", A, 1.0, [1.0, 1.0], [2.0, 2.0]) == [1.0]
    # neither a large p nor a wide range leaves the direct route by itself
    assert quantify("mul", E, 100.0, [1.0, 1.0], [1.0, 1.0]) == [2.0 ** 0.01]
    assert math.isclose(quantify("mul", E, 2.0, [1.0, 1.0], [1e-10, 1e10])[0], 1e10,
                        rel_tol=1e-15)
    assert route == DIRECT * 4


def test_route_log_domain(route):
    # a power that overflows, a term below the normal range, and a sum that a
    # huge weight overflows
    assert math.isclose(quantify("mul", E, 100.0, [1.0, 1.0], [1e4, 1.0])[0], 1e4,
                        rel_tol=1e-15)
    assert route == LOG
    route.clear()
    assert math.isclose(quantify("mul", E, 2.0, [2.0 ** -1074], [0.5])[0], 2.0 ** -538,
                        rel_tol=1e-12)
    assert route == LOG
    route.clear()
    got = quantify("mul", A, 1.0, [1e308, 1e308], [1.0, 1.0])
    assert route == LOG
    assert 0.0 < got[0] < MIN_NORMAL  # 1/(2e308), not 1/inf
    route.clear()
    # the additive carrier takes the log domain at every finite p > 0
    assert quantify("add", E, 1.0, [1.0, 1.0], [0.0, 0.0]) == [-math.log(2.0)]
    assert quantify("add", A, 0.5, [1.0, 1.0], [0.0, 0.0]) == [2.0 * math.log(2.0)]
    assert route == LOG + LOG


@pytest.mark.parametrize("mode, values, expected", [
    ("mul", [math.e ** 2, math.e ** -1], math.e),
    ("add", [-2.0, 1.0], -1.0),
])
def test_route_geometric(route, mode, values, expected):
    for polarity in (E, A):
        got = quantify(mode, polarity, 0.0, [1.0, 1.0], values)[0]
        assert math.isclose(got, expected, rel_tol=1e-15)
    assert route == GEOMETRIC + GEOMETRIC
    route.clear()
    # products beyond the double range are summed exactly: no kahan_sum
    assert quantify("add", E, 0.0, [1e308, 1e308], [-2.0, 3.0]) == [1e308]
    assert route == ["_weighted_sum"]


def test_route_extremum(route):
    assert quantify("mul", E, INF, [1.0, 0.0, 1.0], [2.0, 9.0, 0.5]) == [2.0]
    assert quantify("mul", A, INF, [1.0, 0.0, 1.0], [2.0, 0.1, 0.5]) == [0.5]
    assert quantify("add", E, INF, [1.0, 1.0], [2.0, -1.0]) == [-1.0]
    assert quantify("add", A, INF, [1.0, 1.0], [2.0, -1.0]) == [2.0]
    assert route == []


@settings(max_examples=200, deadline=None)
@given(weights_lists, st.data(), st.sampled_from((E, A)), st.sampled_from(("mul", "add")))
def test_extremum_is_a_support_value(weights, data, polarity, mode):
    # p = inf picks the logical maximum (E) or minimum (A) of the support,
    # exactly: in the additive carrier the logical order is reversed
    chunk = data.draw(st.lists(carrier_values[mode], min_size=len(weights),
                               max_size=len(weights)))
    support = [x for w, x in zip(weights, chunk) if w > 0.0]
    want = (max if (polarity is E) == (mode == "mul") else min)(support)
    assert quantify(mode, polarity, INF, weights, chunk)[0] == want


@pytest.mark.parametrize("values, want", [([0.9, 2.0], 0.9), ([1e-310, 1.0], 1e-310)])
def test_universal_extremum_is_exact(values, want):
    # no reciprocal on the way: 1/(1/0.9) is not 0.9, and 1/1e-310 overflows
    space = make_space(range(len(values)), [1.0] * len(values))
    assert pmeans.p_mean(pmeans.forall_p(INF), pmeans.value_vector(space, values)) == want
    assert quantify("add", A, INF, space.weights, [-math.log(v) for v in values]) \
        == [-math.log(want)]


def test_route_absorbed_by_inf(route):
    assert quantify("mul", E, 2.0, [1.0, 1.0], [INF, 1.0]) == [INF]
    assert quantify("mul", E, 0.0, [1.0, 1.0], [INF, 0.0]) == [INF]  # cotensor: inf wins
    assert quantify("mul", A, 2.0, [1.0, 1.0], [0.0, 1.0]) == [0.0]
    assert quantify("add", E, 2.0, [1.0, 1.0], [-INF, 1.0]) == [-INF]
    assert quantify("add", A, 2.0, [1.0, 1.0], [INF, 1.0]) == [INF]
    assert quantify("add", E, 0.0, [1.0, 1.0], [-INF, INF]) == [-INF]
    assert route == []


def test_each_chunk_takes_its_own_route(route):
    body = [3.0, 4.0,   1e200, 1.0,   INF, 1.0,   0.0, 2.0]
    got = quantify("mul", E, 2.0, [1.0, 1.0], body)
    assert got[0] == 5.0 and math.isclose(got[1], 1e200, rel_tol=1e-13)
    assert got[2:] == [INF, 2.0]
    # direct, log domain, absorbed, direct over the one positive value
    assert route == DIRECT + LOG + DIRECT
