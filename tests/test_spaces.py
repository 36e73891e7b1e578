import math
import random

import pytest

from quantlogic import (
    INF,
    PointMap,
    QuantLogicError,
    compose,
    counting_space,
    identity_map,
    make_space,
    normalize,
    point_map,
    product_space,
    pushforward_measure,
    reindex_monotonicity_check,
    uniform_space,
)
from quantlogic.extreal import kahan_sum


def test_make_space_basic():
    s = make_space(["x1", "x2"], [0.5, 0.5])
    assert s.is_probability and s.total_mass == 1.0
    c = make_space(["i1", "i2"], [1, 1])
    assert not c.is_probability and c.total_mass == 2.0
    assert c.support() == (0, 1)


@pytest.mark.parametrize("points,weights,code", [
    (["a"], [-1.0], "NEGATIVE_WEIGHT"),
    ([], [], "EMPTY_SPACE"),
    (["a"], [math.inf], "NONFINITE_WEIGHT"),
    (["a", "a"], [1, 1], "DUPLICATE_POINT"),
    (["a", "b"], [1], "WEIGHT_COUNT"),
])
def test_make_space_rejects(points, weights, code):
    with pytest.raises(QuantLogicError) as err:
        make_space(points, weights)
    assert err.value.code == code


def test_zero_weight_points_are_kept():
    s = make_space(["a", "b"], [0.0, 1.0])
    assert len(s) == 2 and s.support() == (1,)


def test_product_space():
    u = uniform_space(2, name="A")
    p = product_space(u, u)
    assert p.weights == (0.25,) * 4
    assert p.points == ("(0,0)", "(0,1)", "(1,0)", "(1,1)")
    single = make_space(["*"], [1.0], name="PT")
    a = make_space(["a", "b"], [0.3, 0.7], name="W")
    assert product_space(a, single).weights == a.weights

    rng = random.Random(7)
    for _ in range(50):
        n = rng.randint(1, 5)
        x = make_space(range(n), [rng.uniform(0, 2) for _ in range(n)])
        m = rng.randint(1, 5)
        y = make_space(range(m), [rng.uniform(0, 2) for _ in range(m)])
        assert abs(product_space(x, y).total_mass
                   - x.total_mass * y.total_mass) <= 1e-12 * max(1.0, x.total_mass * y.total_mass)


def test_product_associative_up_to_relabeling():
    a = make_space(["a", "b"], [1, 2], name="A")
    b = make_space(["c"], [3], name="B")
    c = make_space(["d", "e"], [4, 5], name="C")
    left = product_space(product_space(a, b), c)
    right = product_space(a, product_space(b, c))
    assert len(left) == len(right)
    assert sorted(left.weights) == pytest.approx(sorted(right.weights), rel=1e-12)
    assert abs(left.total_mass - right.total_mass) <= 1e-12 * left.total_mass


def test_normalize():
    s = normalize(make_space(["i1", "i2"], [1, 1]))
    assert s.weights == (0.5, 0.5)
    p = make_space(["a", "b"], [0.25, 0.75])
    assert normalize(p).weights == p.weights
    with pytest.raises(QuantLogicError) as err:
        normalize(make_space(["a"], [0.0]))
    assert err.value.code == "ZERO_MASS"


def test_normalize_overflowing_mass():
    big = make_space(["a", "b"], [1e308, 1e308])
    assert big.total_mass == INF
    assert normalize(big).weights == (0.5, 0.5)
    assert normalize(make_space(["a", "b", "c"], [1e308, 1e308, 0.0])).weights == (0.5, 0.5, 0.0)


def test_pushforward_measure():
    two = make_space(["a", "b"], [0.5, 0.5], name="S2")
    pt = make_space(["*"], [1.0], name="PT")
    collapse = point_map(two, pt, ["*", "*"])
    assert pushforward_measure(collapse) == (1.0,)
    assert pushforward_measure(identity_map(two)) == two.weights
    # point with empty fiber gets the empty-sum weight
    wide = make_space(["u", "v"], [1.0, 1.0], name="W")
    into_u = point_map(two, wide, ["u", "u"])
    assert pushforward_measure(into_u) == (1.0, 0.0)


def test_pushforward_preserves_mass():
    rng = random.Random(3)
    for _ in range(30):
        n, m = rng.randint(1, 6), rng.randint(1, 4)
        src = make_space(range(n), [rng.uniform(0, 3) for _ in range(n)])
        tgt = make_space(range(m), [rng.uniform(0, 3) for _ in range(m)])
        f = point_map(src, tgt, [str(rng.randrange(m)) for _ in range(n)])
        assert math.fsum(pushforward_measure(f)) == pytest.approx(
            src.total_mass, rel=1e-12, abs=1e-15)


def test_pushforward_sums_each_fiber_correctly_rounded():
    # a naive running sum reads 100000.20000000001 here, above the target weight
    weights = [100000.0, 0.1, 0.1]
    src = make_space(range(3), weights)
    pt = make_space(["*"], [kahan_sum(weights)], name="PT")
    collapse = point_map(src, pt, ["*"] * 3)
    assert pushforward_measure(collapse) == (100000.2,)
    assert collapse.measure_non_increasing
    report = reindex_monotonicity_check(collapse, (2.0,), (3.0,))
    assert report.holds


def test_collapsing_many_equal_weights_keeps_the_mass():
    # a naive running sum of 200000 weights 1/200000 reads 1.0000000000023175,
    # beyond the 1e-12 slack of a target point of weight 1
    n = 200_000
    collapse = PointMap(uniform_space(n), make_space(["*"], [1.0], name="PT"), (0,) * n)
    assert pushforward_measure(collapse) == (1.0,)
    assert collapse.measure_non_increasing


def test_measure_non_increasing_flag():
    two = make_space(["a", "b"], [0.5, 0.5], name="S2")
    pt = make_space(["*"], [1.0], name="PT")
    assert point_map(two, pt, ["*", "*"]).measure_non_increasing
    light = make_space(["*"], [0.5], name="L")
    assert not point_map(two, light, ["*", "*"]).measure_non_increasing
    assert identity_map(two).measure_non_increasing


def test_composition_preserves_non_increasing():
    rng = random.Random(11)
    for _ in range(60):
        sizes = [rng.randint(1, 4) for _ in range(3)]
        spaces = [make_space(range(s), [rng.uniform(0.1, 2) for _ in range(s)],
                             name=f"S{i}") for i, s in enumerate(sizes)]
        f = point_map(spaces[0], spaces[1],
                      [str(rng.randrange(sizes[1])) for _ in range(sizes[0])])
        g = point_map(spaces[1], spaces[2],
                      [str(rng.randrange(sizes[2])) for _ in range(sizes[1])])
        if f.measure_non_increasing and g.measure_non_increasing:
            assert compose(g, f).measure_non_increasing


def test_compose_mismatch():
    a = make_space(["x"], [1.0], name="A")
    b = make_space(["y"], [1.0], name="B")
    f = point_map(a, b, ["y"])
    with pytest.raises(QuantLogicError) as err:
        compose(f, f)
    assert err.value.code == "MAP_MISMATCH"


def test_point_map_validation():
    a = make_space(["x", "y"], [1, 1], name="A")
    b = make_space(["u"], [5.0], name="B")
    with pytest.raises(QuantLogicError) as err:
        point_map(a, b, ["u"])
    assert err.value.code == "MAP_ARITY"
    with pytest.raises(QuantLogicError) as err:
        point_map(a, b, ["u", "nope"])
    assert err.value.code == "UNKNOWN_POINT"
    with pytest.raises(QuantLogicError) as err:
        PointMap(a, b, (0, 5))
    assert err.value.code == "MAP_RANGE"
    f = point_map(a, b, ["u", "u"])
    assert f.fiber(0) == (0, 1)


@pytest.mark.parametrize("j", [0.5, "x", "0", None, 1.0, -1], ids=repr)
def test_point_map_indices_are_integers_in_range(j):
    a = make_space(["x", "y"], [1, 1], name="A")
    with pytest.raises(QuantLogicError) as err:
        PointMap(a, a, (j, 1))
    assert err.value.code == "MAP_RANGE"


def test_point_map_looks_up_only_an_unknown_label_in_the_space(monkeypatch):
    from quantlogic import Space
    a = counting_space(1000, name="A")
    asked, index = [], Space.index
    monkeypatch.setattr(Space, "index", lambda self, point: asked.append(point) or index(self, point))
    labels = [str(i) for i in reversed(range(1000))]
    assert point_map(a, a, labels).assignment == tuple(reversed(range(1000)))
    assert point_map(a, a, range(1000)).assignment == tuple(range(1000))  # read as str
    assert asked == []
    with pytest.raises(QuantLogicError) as err:
        point_map(a, a, labels[:-2] + ["nope", "gone"])
    assert (err.value.code, err.value.message) == ("UNKNOWN_POINT", "no point 'nope' in space 'A'")
    assert asked == ["nope"]


def test_point_map_stores_its_indices_as_read():
    a = make_space(["x", "y"], [1, 1], name="A")
    f = PointMap(a, a, [True, 0])
    assert f.assignment == (1, 0) and all(type(j) is int for j in f.assignment)


def test_counting_and_uniform_shorthand():
    assert counting_space(3).weights == (1.0, 1.0, 1.0)
    assert uniform_space(4).points == ("0", "1", "2", "3")
    assert uniform_space(4).is_probability


def test_uniform_space_of_no_points():
    with pytest.raises(QuantLogicError) as err:
        uniform_space(0)
    assert err.value.code == "EMPTY_SPACE"
    assert err.value.message == "space 'S' has no points"
