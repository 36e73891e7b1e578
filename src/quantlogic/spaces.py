"""Finite weighted point spaces and maps between them.

A ``Space`` is the integration domain everything else runs over: a nonempty
tuple of labelled points with nonnegative finite weights.  Weights are a
measure, not a distribution — nothing here normalizes behind your back.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from operator import index
from typing import Sequence

from .errors import QuantLogicError
from .extreal import INF, _check_instance, _check_iterable, check_add, kahan_sum

# Slack for comparisons between floating-point weight sums.
_WEIGHT_TOL = 1e-12


@dataclass(frozen=True)
class Space:
    """Finite weighted space: labelled points with nonnegative weights.

    The points may be any iterable, and each label is read as its ``str``."""

    name: str
    points: tuple[str, ...]
    weights: tuple[float, ...]

    def __post_init__(self):
        points = _check_iterable(self.points, f"points of {self.name!r}")
        object.__setattr__(self, "points", tuple(map(str, points)))
        # each weight is read by check_add, but a NaN is left for the check below
        weights = _check_iterable(self.weights, f"weights of {self.name!r}")
        object.__setattr__(self, "weights",
                           tuple([w if w != w else check_add(w) for w in weights]))
        if len(self.points) == 0:
            raise QuantLogicError("EMPTY_SPACE", f"space {self.name!r} has no points")
        if len(self.points) != len(self.weights):
            raise QuantLogicError(
                "WEIGHT_COUNT",
                f"space {self.name!r}: {len(self.points)} points, {len(self.weights)} weights")
        if len(set(self.points)) != len(self.points):
            raise QuantLogicError("DUPLICATE_POINT",
                                  f"space {self.name!r} has duplicate point labels")
        for p, w in zip(self.points, self.weights):
            if math.isnan(w) or math.isinf(w):
                raise QuantLogicError("NONFINITE_WEIGHT",
                                      f"weight of {p!r} in {self.name!r} is {w!r}")
            if w < 0.0:
                raise QuantLogicError("NEGATIVE_WEIGHT",
                                      f"weight of {p!r} in {self.name!r} is {w!r}")

    def __len__(self) -> int:
        return len(self.points)

    @cached_property
    def _support_record(self) -> tuple:
        """The ``_support`` record of the weights, derived at the first
        quantification over the space (``pmeans.Carrier.quantifier``)."""
        return _support(self.weights, f"space {self.name!r}")

    @property
    def total_mass(self) -> float:
        return kahan_sum(self.weights)

    def scaled_mass(self) -> tuple[float, int]:
        """(m, e) with total_mass == m * 2**e and m finite: where the sum of
        the weights overflows, e = 64 and m sums the weights scaled by 2**-64."""
        m = self.total_mass
        if m < math.inf:
            return m, 0
        return kahan_sum(math.ldexp(w, -64) for w in self.weights), 64

    @property
    def is_probability(self) -> bool:
        return abs(self.total_mass - 1.0) <= _WEIGHT_TOL

    def support(self) -> tuple[int, ...]:
        """Indices of the points with strictly positive weight."""
        return tuple(i for i, w in enumerate(self.weights) if w > 0.0)

    def index(self, point: str) -> int:
        try:
            return self.points.index(point)
        except ValueError:
            raise QuantLogicError("UNKNOWN_POINT",
                                  f"no point {point!r} in space {self.name!r}") from None


def _support(weights: Sequence[float], where: str,
             log_weights: Sequence[float] | None = None) -> tuple:
    """(n, support, its weights, their logs) of n weights: what a quantifier
    kernel over them reads.

    Points of weight 0 never contribute, so they are left out of the support.
    ``log_weights`` (default: log w, -inf off the support) may be exact where
    a weight w underflowed: such a point stays in the support.
    """
    if log_weights is None:
        log_weights = [math.log(w) if w > 0.0 else -INF for w in weights]
    support = [i for i, lw in enumerate(log_weights) if lw > -INF]
    if not support:
        raise QuantLogicError("EMPTY_SUPPORT", f"{where} has empty support")
    return (len(weights), support, [weights[i] for i in support],
            [log_weights[i] for i in support])


def make_space(points, weights, name: str = "S") -> Space:
    return Space(name, points, weights)


def _point_labels(points) -> tuple:
    # an int n is shorthand for points labeled "0" .. "n-1"; Space reads each as its str
    return tuple(range(points) if isinstance(points, int) else _check_iterable(points, "points"))


def counting_space(points, name: str = "S") -> Space:
    """All weights 1 (so integrals are plain sums)."""
    pts = _point_labels(points)
    return Space(name, pts, (1.0,) * len(pts))


def uniform_space(points, name: str = "S") -> Space:
    """Probability space with equal weights."""
    pts = _point_labels(points)
    return Space(name, pts, tuple(1.0 / len(pts) for _ in pts))  # no points: EMPTY_SPACE


def product_space(a: Space, b: Space) -> Space:
    """Product with product weights; points in row-major order (a outer)."""
    a, b = _check_instance(a, Space, "a Space"), _check_instance(b, Space, "a Space")
    points = tuple(f"({p},{q})" for p in a.points for q in b.points)
    weights = tuple(wa * wb for wa in a.weights for wb in b.weights)
    return Space(f"{a.name}x{b.name}", points, weights)


def normalize(a: Space) -> Space:
    """Rescale weights to total mass 1 (also where the total overflows)."""
    m, e = _check_instance(a, Space, "a Space").scaled_mass()
    if m <= 0.0:
        raise QuantLogicError("ZERO_MASS", f"space {a.name!r} has zero total mass")
    return Space(a.name, a.points, tuple(math.ldexp(w, -e) / m for w in a.weights))


@dataclass(frozen=True)
class PointMap:
    """A map of spaces: one target point per source point.

    ``assignment`` holds target indices, aligned with ``source.points``,
    each read by ``operator.index`` (anything else is MAP_RANGE).
    """

    source: Space
    target: Space
    assignment: tuple[int, ...]

    def __post_init__(self):
        _check_instance(self.source, Space, "a source Space")
        _check_instance(self.target, Space, "a target Space")
        assignment = tuple(_check_iterable(self.assignment, "assignment"))
        if len(assignment) != len(self.source):
            raise QuantLogicError("MAP_ARITY",
                                  "assignment length differs from source size")
        indices = []
        for j in assignment:
            try:
                i = index(j)
            except TypeError:
                i = -1
            if not 0 <= i < len(self.target):
                raise QuantLogicError("MAP_RANGE", f"target index {j!r} out of range")
            indices.append(i)
        object.__setattr__(self, "assignment", tuple(indices))

    def __call__(self, i: int) -> int:
        return self.assignment[i]

    def _fibers(self) -> list[list[int]]:
        """The source indices mapping onto each target index, in one pass."""
        fibers: list[list[int]] = [[] for _ in self.target.points]
        for i, j in enumerate(self.assignment):
            fibers[j].append(i)
        return fibers

    def fiber(self, j: int) -> tuple[int, ...]:
        """Source indices mapping onto target index j."""
        fibers = self._fibers()
        return tuple(fibers[j]) if 0 <= j < len(fibers) else ()

    @property
    def measure_non_increasing(self) -> bool:
        """True when every fiber's source mass is <= its target weight."""
        sums = pushforward_measure(self)
        return all(s <= w + _WEIGHT_TOL
                   for s, w in zip(sums, self.target.weights))


def point_map(source: Space, target: Space, labels) -> PointMap:
    """Build a PointMap from target point *labels* (one per source point),
    looking each up in one dict of the target's points."""
    points = _check_instance(target, Space, "a target Space").points
    at = {p: i for i, p in enumerate(points)}
    labels = map(str, _check_iterable(labels, "point labels"))
    return PointMap(source, target, tuple([at[l] if l in at else target.index(l) for l in labels]))


def identity_map(a: Space) -> PointMap:
    return PointMap(a, a, tuple(range(len(_check_instance(a, Space, "a Space")))))


def compose(g: PointMap, f: PointMap) -> PointMap:
    """g after f (so f.target must be g.source)."""
    _check_instance(g, PointMap, "a PointMap")
    _check_instance(f, PointMap, "a PointMap")
    if f.target is not g.source and f.target != g.source:
        raise QuantLogicError("MAP_MISMATCH",
                              "composition needs f.target == g.source")
    return PointMap(f.source, g.target,
                    tuple(g.assignment[j] for j in f.assignment))


def pushforward_measure(f: PointMap) -> tuple[float, ...]:
    """Fiber-wise sums of source weights, as a measure on the target."""
    ws = _check_instance(f, PointMap, "a PointMap").source.weights
    return tuple([kahan_sum([ws[i] for i in fiber]) for fiber in f._fibers()])
