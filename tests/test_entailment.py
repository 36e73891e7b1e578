"""The graded entailment functional and its (non-)laws."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from quantlogic import (
    INF,
    PointMap,
    QuantLogicError,
    adjunction_check,
    canned_laxity_instances,
    canned_transitivity_witness,
    counting_space,
    entails,
    identity_map,
    kahan_sum,
    laxity_check,
    make_space,
    mul_tensor,
    normalize,
    pushforward_density,
    reflexivity_check,
    reindex_monotonicity_check,
    transitivity_search,
    uniform_space,
)
from helpers import (assert_close, outcome, ref_adjunction_check, ref_entails,
                     ref_laxity_check, ref_pushforward_density, ref_reflexivity_check,
                     ref_reindex_monotonicity_check, ref_transitivity_search)

P_GRID = (0.5, 1.0, 2.0, 7.0, INF)


def rand_space(rng, n, name="I"):
    return make_space([f"p{i}" for i in range(n)],
                      [math.exp(rng.uniform(-1.5, 1.5)) for _ in range(n)],
                      name=name)


def rand_values(rng, n):
    return tuple(math.exp(rng.uniform(-3, 3)) for _ in range(n))


def test_entails_worked_example():
    space = make_space(["a", "b"], [0.5, 0.5])
    # residuals are 2 and 1/2; their universal 1-mean is 1/1.25
    assert_close(entails(space, (2.0, 2.0), (4.0, 1.0), 1.0), 0.8, 1e-12)
    # at p = inf only the worst residual matters
    assert entails(space, (2.0, 2.0), (4.0, 1.0), INF) == 0.5


def test_reflexivity_on_probability_spaces():
    rng = random.Random(41)
    for _ in range(25):
        n = rng.randint(1, 7)
        space = normalize(rand_space(rng, n))
        phi = rand_values(rng, n)
        for p in P_GRID:
            report = reflexivity_check(space, phi, p)
            assert report.holds
            assert_close(report.lhs, 1.0, 1e-12)


def test_reflexivity_grading_by_mass():
    space = counting_space(["a", "b", "c", "d"])  # mass 4
    phi = (3.0, 0.1, 12.0, 1.0)
    for p in (0.5, 1.0, 2.0, 7.0):
        report = reflexivity_check(space, phi, p)
        assert report.holds
        assert_close(report.lhs, 4.0 ** (-1.0 / p), 1e-12)
        assert report.rhs == 4.0 ** (-1.0 / p)
    assert reflexivity_check(space, phi, INF).lhs == 1.0


def test_reflexivity_is_independent_of_phi():
    rng = random.Random(42)
    space = make_space(["a", "b", "c"], [0.2, 1.7, 0.6])
    first = reflexivity_check(space, rand_values(rng, 3), 2.0).lhs
    for _ in range(10):
        again = reflexivity_check(space, rand_values(rng, 3), 2.0).lhs
        assert_close(again, first, 1e-12)


def test_reflexivity_zero_points_leave_the_mean():
    # 0 -o 0 is inf, which a universal mean ignores, so a zero coordinate
    # effectively shrinks the mass: not a law, pinned as behavior
    space = make_space(["a", "b"], [0.5, 0.5])
    report = reflexivity_check(space, (0.0, 1.0), 1.0)
    assert report.lhs == 2.0
    assert report.verdict == "violated"


def test_reflexivity_rejects_bad_p():
    space = uniform_space(2)
    for p in (0.0, -1.0):
        with pytest.raises(QuantLogicError) as err:
            reflexivity_check(space, (1.0, 1.0), p)
        assert err.value.code == "INVALID_P"


# ---------------------------------------------------------------------------
# adjunction
# ---------------------------------------------------------------------------

def test_adjunction_random_instances():
    rng = random.Random(43)
    for _ in range(60):
        ni, nk = rng.randint(1, 5), rng.randint(1, 5)
        space_i = normalize(rand_space(rng, ni, "I"))
        space_k = normalize(rand_space(rng, nk, "K"))
        rho = rand_values(rng, ni * nk)
        psi = rand_values(rng, ni)
        p = rng.choice(P_GRID)
        report = adjunction_check(space_i, space_k, rho, psi, p)
        assert report.holds, (report, p)
        if report.lhs != report.rhs:
            assert abs(report.gap) <= 1e-9 * max(1.0, report.lhs, report.rhs)


def test_adjunction_requires_probability_spaces():
    with pytest.raises(QuantLogicError) as err:
        adjunction_check(counting_space(["a", "b"]), uniform_space(2),
                         (1.0,) * 4, (1.0,) * 2)
    assert err.value.code == "NOT_PROBABILITY"


def test_adjunction_checks_shapes():
    with pytest.raises(QuantLogicError) as err:
        adjunction_check(uniform_space(2), uniform_space(2),
                         (1.0,) * 3, (1.0,) * 2)
    assert err.value.code == "VALUE_COUNT"


# ---------------------------------------------------------------------------
# transitivity fails
# ---------------------------------------------------------------------------

def test_canned_transitivity_numbers():
    space, phi, psi, sigma = canned_transitivity_witness()
    e1 = entails(space, phi, psi, 1.0)
    e2 = entails(space, psi, sigma, 1.0)
    e3 = entails(space, phi, sigma, 1.0)
    assert_close(mul_tensor(e1, e2), 0.36327309054581786, 1e-12)
    assert_close(e3, 0.19998000199980004, 1e-12)
    assert mul_tensor(e1, e2) > e3


def test_transitivity_search_finds_a_violation():
    report = transitivity_search(uniform_space(3), p=1.0, trials=200, seed=0)
    assert report.verdict == "violated"
    assert report.lhs > report.rhs
    # re-evaluate the reported triple: the violation must be reproducible
    d = report.details
    space = d["space"]
    e1 = entails(space, d["phi"], d["psi"], d["p"])
    e2 = entails(space, d["psi"], d["sigma"], d["p"])
    e3 = entails(space, d["phi"], d["sigma"], d["p"])
    assert_close(mul_tensor(e1, e2), report.lhs, 1e-12)
    assert_close(e3, report.rhs, 1e-12)


def test_transitivity_search_falls_back_to_canned():
    # a single-point space admits no violation; the canned pair still does
    report = transitivity_search(uniform_space(1), p=1.0, trials=5, seed=0)
    assert report.verdict == "violated"
    assert report.details["source"]["kind"] == "canned"


@pytest.mark.parametrize("p", [0.0, INF])
def test_transitivity_search_where_the_law_is_a_theorem(p):
    # geometric means multiply, and minimum residuals compose
    with pytest.raises(QuantLogicError) as err:
        transitivity_search(uniform_space(3), p=p, trials=5, seed=0)
    assert err.value.code == "INVALID_P"


@pytest.mark.parametrize("trials, seed", [(2.5, 0), ("3", 0), (None, 0), (-1, 0),
                                         (2, [1]), (2, 1.5), (2, "0"), (2, None)], ids=repr)
def test_transitivity_search_reads_its_trials_and_seed(trials, seed):
    # trials a nonnegative integer, the seed an integer
    with pytest.raises(QuantLogicError) as err:
        transitivity_search(uniform_space(2), 1.0, trials, seed)
    assert err.value.code == "INVALID_VALUE"


class IntLike:
    """An integer type other than int: it has __index__ only."""

    def __init__(self, n):
        self.n = n

    def __index__(self):
        return self.n


def test_transitivity_search_takes_integer_types():
    space = uniform_space(2)
    want = transitivity_search(space, 1.0, 40, 4)
    assert transitivity_search(space, 1.0, IntLike(40), IntLike(4)) == want


def test_transitivity_search_finds_a_violation_at_p_7():
    # p = 1: test_transitivity_search_finds_a_violation
    report = transitivity_search(uniform_space(3), p=7.0, trials=200, seed=0)
    assert report.verdict == "violated" and report.lhs > report.rhs


# ---------------------------------------------------------------------------
# reindexing
# ---------------------------------------------------------------------------

def test_reindex_monotonicity():
    rng = random.Random(44)
    target = make_space(["a", "b", "c"], [1.0, 0.5, 2.0], name="T")
    source = make_space(["x", "y"], [0.5, 0.25], name="S")
    f = PointMap(source, target, (0, 1))
    assert f.measure_non_increasing
    for _ in range(40):
        phi, psi = rand_values(rng, 3), rand_values(rng, 3)
        p = rng.choice(P_GRID)
        report = reindex_monotonicity_check(f, phi, psi, p)
        assert report.holds
        assert report.lhs <= report.rhs + 1e-12


def test_reindex_along_a_mass_preserving_map_holds_at_large_values():
    # Pulling back along an exactly mass-preserving map leaves entailment
    # unchanged, up to rounding; with psi up to 1e12 the two sides differ by
    # an ulp of about 1e-5, which the tolerance scaled by rhs absorbs (an
    # unscaled 1e-12 reported 126 of these 2000 draws as violated).
    source = make_space(["a", "b", "c"], [0.25, 0.5, 0.25], name="S")
    target = make_space(["u", "v"], [0.75, 0.25], name="T")
    f = PointMap(source, target, (0, 0, 1))
    rng = random.Random(2)
    for _ in range(2000):
        p = rng.choice((0.5, 1.0, 2.0, 3.0))
        phi = (rng.random(), rng.random())
        psi = (rng.uniform(0.0, 1e12), rng.uniform(0.0, 1e12))
        report = reindex_monotonicity_check(f, phi, psi, p)
        assert report.holds, (p, phi, psi, report)
        assert math.isclose(report.lhs, report.rhs, rel_tol=1e-12)


def test_reindex_rejects_mass_increasing_maps():
    source = counting_space(["x", "y"])
    target = make_space(["a", "b"], [1.0, 0.5])
    f = PointMap(source, target, (0, 1))
    assert not f.measure_non_increasing
    with pytest.raises(QuantLogicError) as err:
        reindex_monotonicity_check(f, (1.0, 1.0), (1.0, 1.0))
    assert err.value.code == "MAP_NOT_NONINCREASING"


# ---------------------------------------------------------------------------
# pushforward of densities
# ---------------------------------------------------------------------------

def test_pushforward_collapse_is_the_mass_average():
    source = make_space(["i1", "i2"], [0.5, 0.5])
    target = make_space(["pt"], [1.0])
    f = PointMap(source, target, (0, 0))
    assert pushforward_density(f, (3.0, 5.0)) == (4.0,)
    assert pushforward_density(f, (3.0, INF)) == (INF,)


def test_pushforward_skips_points_outside_the_image():
    source = make_space(["x"], [0.25])
    target = make_space(["a", "b"], [0.5, 1.0])
    f = PointMap(source, target, (1,))
    assert pushforward_density(f, (2.0,)) == (0.0, 0.5)


def test_pushforward_preserves_mass():
    rng = random.Random(45)
    for _ in range(30):
        ns, nt = rng.randint(1, 6), rng.randint(1, 4)
        source = rand_space(rng, ns, "S")
        target = rand_space(rng, nt, "T")
        f = PointMap(source, target, tuple(rng.randrange(nt) for _ in range(ns)))
        phi = rand_values(rng, ns)
        pushed = pushforward_density(f, phi)
        src_mass = kahan_sum(w * v for w, v in zip(source.weights, phi))
        dst_mass = kahan_sum(w * v for w, v in zip(target.weights, pushed))
        assert_close(src_mass, dst_mass, 1e-12)


def test_pushforward_composes():
    rng = random.Random(46)
    a = rand_space(rng, 5, "A")
    b = rand_space(rng, 3, "B")
    c = rand_space(rng, 2, "C")
    f = PointMap(a, b, (0, 1, 1, 2, 0))
    g = PointMap(b, c, (1, 0, 1))
    gf = PointMap(a, c, tuple(g(f(i)) for i in range(5)))
    phi = rand_values(rng, 5)
    two_steps = pushforward_density(g, pushforward_density(f, phi))
    one_step = pushforward_density(gf, phi)
    for x, y in zip(two_steps, one_step):
        assert_close(x, y, 1e-12)


def test_pushforward_reads_the_assignment_in_one_pass():
    class CountedReads(tuple):
        reads = 0

        def __iter__(self):
            CountedReads.reads += len(self)
            return super().__iter__()

        def __getitem__(self, i):
            CountedReads.reads += 1
            return super().__getitem__(i)

    space = counting_space(8000)
    f = identity_map(space)
    f = PointMap(f.source, f.target, CountedReads(f.assignment))
    CountedReads.reads = 0
    assert pushforward_density(f, (2.0,) * len(space)) == (2.0,) * len(space)
    assert CountedReads.reads <= 2 * len(space)


def test_pushforward_rejects_zero_weight_targets():
    source = make_space(["x"], [1.0])
    target = make_space(["a", "b"], [0.0, 1.0])
    f = PointMap(source, target, (0,))
    with pytest.raises(QuantLogicError) as err:
        pushforward_density(f, (1.0,))
    assert err.value.code == "ZERO_TARGET_WEIGHT"


# ---------------------------------------------------------------------------
# (no) monoidality of the pushforward
# ---------------------------------------------------------------------------

def test_canned_laxity_instances():
    results = {}
    for direction, f, phi, psi in canned_laxity_instances():
        report = laxity_check(f, phi, psi)
        assert report.verdict == "violated"
        results[direction] = report.details
    assert results["lax"]["lax_fails"] and not results["lax"]["colax_fails"]
    assert results["colax"]["colax_fails"] and not results["colax"]["lax_fails"]
    # and the actual numbers behind each direction
    assert results["lax"]["pointwise_lhs"] == (0.25,)
    assert results["lax"]["pointwise_rhs"] == (0.0,)
    assert results["colax"]["pointwise_lhs"] == (1.0,)
    assert results["colax"]["pointwise_rhs"] == (2.0,)


def test_laxity_holds_along_identity_maps():
    space = make_space(["a", "b"], [0.5, 2.0])
    ident = PointMap(space, space, (0, 1))
    report = laxity_check(ident, (3.0, 0.5), (1.0, 4.0))
    assert report.holds


def test_report_holds_property():
    space = uniform_space(2)
    report = reflexivity_check(space, (1.0, 2.0), 1.0)
    assert report.holds is (report.verdict == "holds")


def test_pushforward_checks_the_value_count():
    f = PointMap(make_space(["i1", "i2"], [0.5, 0.5]), make_space(["pt"], [1.0]), (0, 0))
    with pytest.raises(QuantLogicError) as err:
        pushforward_density(f, (1.0, 2.0, 3.0))
    assert err.value.code == "VALUE_COUNT"


def test_reflexivity_of_an_all_zero_phi():
    # 0 -o 0 is inf at every point, so the graded reflexivity is lost
    report = reflexivity_check(uniform_space(3), (0.0, 0.0, 0.0), 2.0)
    assert report.lhs == INF and report.rhs == 1.0
    assert report.verdict == "violated"


# ---------------------------------------------------------------------------
# the table path against the scalar formulation (helpers), bit for bit
# ---------------------------------------------------------------------------

P_CORNERS = (0.0, 0.5, 1.0, 2.0, 7.0, INF)
WEIGHTS = st.one_of(st.just(0.0), st.just(1.0), st.floats(0.05, 4.0))
VALUES = st.one_of(st.sampled_from((0.0, 1.0, INF)), st.floats(1e-3, 1e3))


def table(data, n):
    return tuple(data.draw(st.lists(VALUES, min_size=n, max_size=n)))


@settings(max_examples=300, deadline=None)
@given(st.lists(WEIGHTS, min_size=1, max_size=5), st.sampled_from(P_CORNERS), st.data())
def test_entailments_match_the_scalar_formulation(ws, p, data):
    n = len(ws)
    space = make_space(range(n), ws, name="I")  # all weights 0: EMPTY_SUPPORT
    phi, psi = table(data, n), table(data, n)
    assert outcome(entails, space, phi, psi, p) == outcome(ref_entails, space, phi, psi, p)
    assert outcome(reflexivity_check, space, phi, p) \
        == outcome(ref_reflexivity_check, space, phi, p)
    seed = data.draw(st.integers(0, 99))
    assert outcome(transitivity_search, space, p, 3, seed) \
        == outcome(ref_transitivity_search, space, p, 3, seed)
    if sum(ws) > 0.0:
        space_i = normalize(space)
        space_k = normalize(make_space(range(3), data.draw(
            st.lists(WEIGHTS, min_size=3, max_size=3).filter(any)), name="K"))
        rho = table(data, 3 * n)
        assert outcome(adjunction_check, space_i, space_k, rho, psi, p) \
            == outcome(ref_adjunction_check, space_i, space_k, rho, psi, p)


@settings(max_examples=300, deadline=None)
@given(st.lists(WEIGHTS, min_size=1, max_size=6), st.integers(1, 3),
       st.sampled_from(P_CORNERS), st.data())
def test_point_map_checks_match_the_scalar_formulation(ws, m, p, data):
    n = len(ws)
    source = make_space(range(n), ws, name="S")
    assignment = tuple(data.draw(st.lists(st.integers(0, m - 1), min_size=n, max_size=n)))
    # target weights around the fiber masses: some maps increase mass, and a
    # point in the image may have weight 0
    fiber_mass = [math.fsum(w for w, j in zip(ws, assignment) if j == t) for t in range(m)]
    scale = data.draw(st.lists(st.sampled_from((0.0, 0.5, 1.0, 2.0)), min_size=m, max_size=m))
    f = PointMap(source, make_space(range(m), [w * s for w, s in zip(fiber_mass, scale)],
                                    name="T"), assignment)
    phi, psi = table(data, n), table(data, n)
    phi_t, psi_t = table(data, m), table(data, m)
    assert outcome(reindex_monotonicity_check, f, phi_t, psi_t, p) \
        == outcome(ref_reindex_monotonicity_check, f, phi_t, psi_t, p)
    assert outcome(pushforward_density, f, phi) == outcome(ref_pushforward_density, f, phi)
    assert outcome(laxity_check, f, phi, psi) == outcome(ref_laxity_check, f, phi, psi)


NAN = math.nan
_S = make_space(["a", "b"], [0.5, 0.5], name="I")
_K = uniform_space(2, name="K")
_F = PointMap(_S, make_space(["t"], [1.0], name="T"), (0, 0))
MALFORMED = [
    (entails, ref_entails, (_S, (1.0, NAN), (1.0, 2.0), -1.0)),
    (entails, ref_entails, (_S, (1.0,), (1.0, -2.0), 1.0)),
    (entails, ref_entails, (_S, (1.0, 2.0), (1.0, 2.0), NAN)),
    (entails, ref_entails, (_S, (1.0, 2.0), (1.0, 2.0), "x")),
    (reflexivity_check, ref_reflexivity_check, (_S, (1.0, NAN), 0.0)),
    (reflexivity_check, ref_reflexivity_check, (_S, (1.0, NAN), 2.0)),
    (reflexivity_check, ref_reflexivity_check, (_S, (1.0,), NAN)),
    (adjunction_check, ref_adjunction_check, (_S, _K, (1.0,) * 3, (1.0, -1.0), -1.0)),
    (adjunction_check, ref_adjunction_check, (_S, _K, (1.0,) * 4, (1.0, 2.0), NAN)),
    (adjunction_check, ref_adjunction_check, (_S, _K, (1.0,) * 4, (1.0,), 1.0)),
    (transitivity_search, ref_transitivity_search, (_S, -1.0, 2, 0)),
    (reindex_monotonicity_check, ref_reindex_monotonicity_check,
     (_F, (1.0, 2.0), (NAN,), 1.0)),
    (reindex_monotonicity_check, ref_reindex_monotonicity_check, (_F, (1.0,), (2.0,), -1.0)),
    (reindex_monotonicity_check, ref_reindex_monotonicity_check, (_F, (1.0, 2.0), (2.0,), 1.0)),
    (pushforward_density, ref_pushforward_density, (_F, (1.0,))),
    (pushforward_density, ref_pushforward_density, (_F, (1.0, -1.0))),
    (laxity_check, ref_laxity_check, (_F, (1.0, 2.0), (1.0,))),
    (laxity_check, ref_laxity_check, (_F, (1.0,), (1.0, NAN))),
]


@pytest.mark.parametrize("check, reference, args", MALFORMED,
                         ids=lambda x: getattr(x, "__name__", ""))
def test_malformed_inputs_raise_as_the_scalar_formulation(check, reference, args):
    got = outcome(check, *args)
    assert got[0] == "error"
    assert got == outcome(reference, *args)
