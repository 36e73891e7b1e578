"""Softmax, argmax, likelihood, and entropy against closed forms."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from quantlogic import (
    INF,
    Distribution,
    EnergyFunction,
    QuantLogicError,
    ValueVector,
    argmax,
    counting_space,
    distribution,
    energy_function,
    hill_diversity,
    kahan_sum,
    log_likelihood,
    make_space,
    renyi_entropy,
    renyi_formula_path,
    shannon_entropy,
    softmax_formula_path,
    softmax_p,
    uniform_space,
)
from helpers import assert_close


def test_softmax_worked_example():
    f = ValueVector(uniform_space(4), (1.0, 2.0, 3.0, 4.0))
    got = softmax_p(f, 1.0)
    assert got == (0.4, 0.8, 1.2, 1.6)
    integral = kahan_sum(w * v for w, v in zip(f.space.weights, got))
    assert abs(integral - 1.0) < 1e-15


def test_softmax_integrates_to_one_at_p1():
    rng = random.Random(31)
    for _ in range(50):
        n = rng.randint(1, 9)
        space = uniform_space(n)
        f = ValueVector(space, tuple(math.exp(rng.uniform(-4, 4)) for _ in range(n)))
        got = softmax_p(f, 1.0)
        integral = kahan_sum(w * v for w, v in zip(space.weights, got))
        assert abs(integral - 1.0) < 1e-12


def test_softmax_inf_divides_by_the_max():
    f = ValueVector(counting_space(["a", "b", "c"]), (1.0, 4.0, 2.0))
    assert softmax_p(f, INF) == (0.25, 1.0, 0.5)


def test_softmax_formula_path_agrees():
    rng = random.Random(32)
    for p in (0.5, 1.0, 2.0, 7.0):
        n = 5
        f = ValueVector(uniform_space(n),
                        tuple(math.exp(rng.uniform(-3, 3)) for _ in range(n)))
        direct = softmax_p(f, p)
        via_formula = softmax_formula_path(f, p)
        for a, b in zip(direct, via_formula):
            assert_close(a, b, 1e-12)


def test_softmax_errors():
    f = ValueVector(uniform_space(2), (0.0, 0.0))
    with pytest.raises(QuantLogicError) as err:
        softmax_p(f, 1.0)
    assert err.value.code == "ZERO_PREDICATE"
    # a zero vector "essentially": the only positive value has weight zero
    g = ValueVector(make_space(["a", "b"], [1.0, 0.0]), (0.0, 5.0))
    with pytest.raises(QuantLogicError):
        softmax_p(g, 1.0)
    for p in (0.0, -1.0, math.nan):
        with pytest.raises(QuantLogicError) as err:
            softmax_p(ValueVector(uniform_space(2), (1.0, 1.0)), p)
        assert err.value.code == "INVALID_P"


def brute_argmax(space, values):
    top = max(v for v, w in zip(values, space.weights) if w > 0.0)
    return tuple(v >= top for v in values)


def test_argmax_random_vectors():
    rng = random.Random(33)
    for _ in range(200):
        n = rng.randint(1, 12)
        space = counting_space([f"p{i}" for i in range(n)])
        # draw from a small pool so ties actually happen
        values = tuple(float(rng.choice((0.5, 1.0, 2.0, 3.0))) for _ in range(n))
        f = ValueVector(space, values)
        assert argmax(f) == brute_argmax(space, values)


def test_argmax_corners():
    space = counting_space(["a", "b", "c"])
    assert argmax(ValueVector(space, (2.0, 2.0, 1.0))) == (True, True, False)
    assert argmax(ValueVector(space, (INF, 3.0, INF))) == (True, False, True)
    # a zero-weight point doesn't set the bar but is still compared against it
    lop = make_space(["a", "b", "c"], [1.0, 1.0, 0.0])
    assert argmax(ValueVector(lop, (1.0, 2.0, 9.0))) == (False, True, True)


def test_log_likelihood_worked_example():
    space = make_space(["h", "t"], [0.5, 0.5])
    ll = log_likelihood(energy_function(space, (0.0, INF)))
    assert_close(ll[0], -math.log(2.0), 1e-12)
    assert ll[1] == INF
    counting = counting_space(["h", "t"])
    ll2 = log_likelihood(energy_function(counting, (0.0, INF)))
    assert ll2[0] == 0.0 and ll2[1] == INF


def test_log_likelihood_matches_direct_formula():
    rng = random.Random(34)
    for _ in range(50):
        n = rng.randint(2, 6)
        space = uniform_space(n)
        u = tuple(rng.uniform(-5.0, 5.0) for _ in range(n))
        ll = log_likelihood(energy_function(space, u))
        z = math.log(math.fsum(w * math.exp(-ui)
                               for w, ui in zip(space.weights, u)))
        for i in range(n):
            assert_close(ll[i], u[i] + z, 1e-12)


def test_energy_function_rejects_minus_inf():
    with pytest.raises(QuantLogicError) as err:
        energy_function(uniform_space(2), (0.0, -INF))
    assert err.value.code == "INVALID_VALUE"


# ---------------------------------------------------------------------------
# entropy and diversity
# ---------------------------------------------------------------------------

P_GRID = (0.0, 0.5, 2.0, 5.0, INF)


@pytest.mark.parametrize("n", [2, 4, 8])
def test_uniform_entropy_is_log_n(n):
    phi = distribution(counting_space([f"p{i}" for i in range(n)]), [1 / n] * n)
    for p in P_GRID + (1.0,):
        assert_close(renyi_entropy(phi, p), math.log(n), 1e-12)
        assert_close(hill_diversity(phi, p), float(n), 1e-12)


def test_point_mass_has_zero_entropy():
    phi = distribution(counting_space(["a", "b", "c"]), (1.0, 0.0, 0.0))
    for p in P_GRID + (1.0,):
        assert renyi_entropy(phi, p) == 0.0
        assert hill_diversity(phi, p) == 1.0


def test_nonuniform_closed_forms():
    phi = distribution(counting_space(["a", "b"]), (0.75, 0.25))
    assert_close(renyi_entropy(phi, 0.0), math.log(2.0), 1e-12)
    assert_close(renyi_entropy(phi, 2.0), -math.log(0.625), 1e-12)
    assert_close(renyi_entropy(phi, INF), -math.log(0.75), 1e-12)
    shannon = -(0.75 * math.log(0.75) + 0.25 * math.log(0.25))
    assert_close(shannon_entropy(phi), shannon, 1e-12)
    assert_close(renyi_entropy(phi, 1.0), shannon, 1e-12)


def test_entropy_is_density_based():
    # density 1 everywhere on a probability space carries no information
    space = make_space(["a", "b", "c"], [0.5, 0.25, 0.25])
    phi = distribution(space, (1.0, 1.0, 1.0))
    for p in P_GRID + (1.0,):
        assert_close(renyi_entropy(phi, p), 0.0, 1e-12)
        assert_close(hill_diversity(phi, p), 1.0, 1e-12)


def test_entropy_ignores_zero_weight_points():
    space = make_space(["a", "b", "ghost"], [1.0, 1.0, 0.0])
    phi = distribution(space, (0.5, 0.5, 0.9))
    assert_close(renyi_entropy(phi, 0.0), math.log(2.0), 1e-12)
    assert_close(renyi_entropy(phi, INF), math.log(2.0), 1e-12)


def test_entropy_near_one_approaches_shannon():
    phi = distribution(counting_space(["a", "b", "c"]), (0.2, 0.3, 0.5))
    shannon = shannon_entropy(phi)
    for p in (1.0 - 1e-4, 1.0 + 1e-4):
        assert abs(renyi_entropy(phi, p) - shannon) < 1e-3


@pytest.mark.parametrize("space, masses", [
    (counting_space(2), (0.5, 0.5)),
    (make_space(["a", "b", "c"], [4, 4, 4]), (1 / 12,) * 3),
])
def test_uniform_entropy_off_probability_spaces(space, masses):
    # the escort weights w * phi integrate to 1 whatever the total weight is,
    # so no order overflows on the way to log(total) and total
    phi = distribution(space, masses)
    total = space.total_mass
    for p in (1e-6, 1e-4, 1e-3, 0.5, 2.0, 1e3):
        assert_close(renyi_entropy(phi, p), math.log(total), 1e-12)
        assert_close(hill_diversity(phi, p), total, 1e-12)


@pytest.mark.parametrize("weights, masses", [((1.0, 1.0), (1e-310, 1.0)),
                                             ((0.4, 1.0), (5e-324, 1.0))])
@pytest.mark.parametrize("p", [0.0, 1e-4, 0.5])
def test_entropy_keeps_masses_below_the_normal_range(weights, masses, p):
    # 1/m overflows for both small masses, and the escort weight 0.4 * 5e-324
    # underflows to 0; neither point may be dropped or absorb the mean.  The
    # log route cancels log(m) of about -745, hence the tolerance.
    phi = distribution(make_space(["a", "b"], weights), masses)
    total = kahan_sum(w * math.exp(p * math.log(m)) for w, m in zip(weights, masses))
    want = math.log(total) / (1.0 - p)
    assert_close(renyi_entropy(phi, p), want, 1e-12)
    assert math.isclose(hill_diversity(phi, p), math.exp(want), rel_tol=1e-12)


def test_hill_is_exp_entropy():
    rng = random.Random(35)
    for _ in range(30):
        n = rng.randint(2, 6)
        raw = [rng.uniform(0.05, 1.0) for _ in range(n)]
        total = math.fsum(raw)
        phi = distribution(counting_space([f"p{i}" for i in range(n)]),
                           [m / total for m in raw])
        for p in (0.0, 0.5, 1.0, 2.0, 5.0, INF):
            assert_close(hill_diversity(phi, p),
                         math.exp(renyi_entropy(phi, p)), 1e-12)


# masses from the whole double range, subnormals included, each at most
# 1/16; the first point (weight >= 1) takes up the rest of the unit mass
tiny_masses = st.lists(st.one_of(st.sampled_from((0.0, 5e-324, 1e-310, 2.0 ** -1022)),
                                 st.floats(0.0, 1.0 / 16)), min_size=1, max_size=4)


@settings(max_examples=300, deadline=None)
@given(tiny_masses, st.data())
def test_entropy_matches_its_definition_on_any_masses(rest, data):
    ws = data.draw(st.lists(st.floats(0.1, 4.0), min_size=len(rest) + 1,
                            max_size=len(rest) + 1))
    ws[0] = max(ws[0], 1.0)
    m0 = (1.0 - math.fsum(w * m for w, m in zip(ws[1:], rest))) / ws[0]
    masses = [m0, *rest]
    phi = distribution(make_space(range(len(ws)), ws), masses)
    support = [(w, m) for w, m in zip(ws, masses) if m > 0.0]
    for p in (0.0, 0.25, 0.5, 1.0, 2.0, 5.0, INF):
        if p == 1.0:
            want = -math.fsum(w * m * math.log(m) for w, m in support)
        elif p == INF:
            want = -math.log(max(m for _, m in support))
        else:
            want = math.log(math.fsum(w * math.exp(p * math.log(m))
                                      for w, m in support)) / (1.0 - p)
        h, d = renyi_entropy(phi, p), hill_diversity(phi, p)
        assert_close(h, want, 1e-12, f"H at p={p}")
        assert math.isclose(d, math.exp(want), rel_tol=1e-12), (p, d, math.exp(want))


def test_renyi_formula_path_agrees():
    phi = distribution(counting_space(["a", "b", "c"]), (0.2, 0.3, 0.5))
    for p in (0.5, 2.0, 5.0):
        assert_close(renyi_formula_path(phi, p), renyi_entropy(phi, p), 1e-12)
    for p in (1.0, INF):
        with pytest.raises(QuantLogicError) as err:
            renyi_formula_path(phi, p)
        assert err.value.code == "INVALID_P"


def test_entropy_order_is_nonincreasing_in_p():
    phi = distribution(counting_space(["a", "b", "c", "d"]),
                       (0.1, 0.2, 0.3, 0.4))
    ps = (0.0, 0.25, 0.5, 1.0, 2.0, 4.0, 16.0, INF)
    values = [renyi_entropy(phi, p) for p in ps]
    for lo, hi in zip(values[1:], values):
        assert lo <= hi + 1e-12


def test_distribution_validation():
    space = counting_space(["a", "b"])
    with pytest.raises(QuantLogicError) as err:
        distribution(space, (0.9, 0.2))
    assert err.value.code == "NOT_UNITARY"
    with pytest.raises(QuantLogicError) as err:
        distribution(space, (1.5, -0.5))
    assert err.value.code in ("NOT_UNITARY", "INVALID_VALUE")
    with pytest.raises(QuantLogicError) as err:
        distribution(space, (1.0,))
    assert err.value.code == "VALUE_COUNT"
    with pytest.raises(QuantLogicError) as err:
        renyi_entropy(distribution(space, (0.5, 0.5)), -2.0)
    assert err.value.code == "INVALID_P"


@pytest.mark.parametrize("make, values, message", [
    (distribution, (2.0, -1.0), "mass 2.0 exceeds 1"),
    (distribution, (-1.0, 2.0), "multiplicative values are nonnegative, got -1.0"),
    (distribution, (math.nan, 2.0), "NaN is not a carrier value"),
    (energy_function, (-INF, math.nan), "energies must be finite or +inf"),
    (energy_function, (math.nan, -INF), "NaN is not a carrier value"),
])
def test_the_first_fault_is_reported(make, values, message):
    with pytest.raises(QuantLogicError) as err:
        make(counting_space(["a", "b"]), values)
    assert err.value.message == message


def test_checked_values_are_stored():
    # built directly, without the float() of distribution/energy_function
    phi = Distribution(counting_space(2), (-0.0, 1.0))
    assert [math.copysign(1.0, m) for m in phi.masses] == [1.0, 1.0]
    u = EnergyFunction(counting_space(2), (1, True))
    assert [type(e) for e in u.energies] == [float, float]


@pytest.mark.parametrize("p", [0.0, 0.5, 1.0, 2.0, 3.0, INF])
def test_entropy_of_a_point_mass_is_positive_zero(p):
    h = renyi_entropy(distribution(counting_space(2), (0.0, 1.0)), p)
    assert h == 0.0 and math.copysign(1.0, h) == 1.0


def test_energy_functions_have_one_energy_per_point():
    with pytest.raises(QuantLogicError) as err:
        energy_function(counting_space(3), (1.0, 2.0))
    assert err.value.code == "VALUE_COUNT"
