"""Graded entailment between predicates, and the laws it does(n't) satisfy.

``entails(phi, psi, p)`` is the universal p-mean of the pointwise residuals
phi -o psi — a number in [0, inf] measuring how strongly phi forces psi on
average.  The checks below probe its algebra; like it, they compute on the
evaluator's table path (whole checked tables, one kernel per quantified table):

* reflexivity is *graded*: entails(phi, phi, p) equals total_mass^(-1/p), so
  it is 1 exactly on probability spaces;
* the quantifier-reindexing adjunction holds on the nose;
* transitivity (a tensor-composition law) genuinely fails, and
  ``transitivity_search`` finds violating triples;
* densities push forward along point maps, compositionally, but the
  pushforward is neither lax nor colax monoidal — ``laxity_check``
  demonstrates both failure directions.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from operator import index

from .errors import QuantLogicError
from .extreal import (INF, MulReal, _check_count, _check_instance, check_mul_table,
                      mul_div_table, mul_tensor, mul_tensor_table)
from .pmeans import MUL, Polarity, _check_magnitude, kahan_sum, value_vector
from .spaces import PointMap, Space, make_space, product_space

_REL_TOL = 1e-9
_ABS_TOL = 1e-12


@dataclass(frozen=True)
class EntailmentReport:
    check: str
    lhs: float
    rhs: float
    gap: float
    verdict: str  # "holds" | "violated"
    details: dict = field(default_factory=dict)

    @property
    def holds(self) -> bool:
        return self.verdict == "holds"


def _rel_close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=_REL_TOL, abs_tol=_REL_TOL)


def _above(a: float, b: float) -> bool:
    """Whether a exceeds b by more than the absolute tolerance (scaled by b)."""
    return a > b + _ABS_TOL * max(1.0, b if b != INF else 1.0)


def _gap(lhs: float, rhs: float) -> float:
    return 0.0 if lhs == rhs else lhs - rhs


def entails(space: Space, phi, psi, p: float = 1.0) -> MulReal:
    """Universal p-mean of the residuals phi(i) -o psi(i) over the space."""
    phi = value_vector(space, phi).values
    psi = value_vector(space, psi).values
    return _entailments(space, phi, psi, _check_magnitude(p))[0]


def _entailments(space: Space, phi, psi, p: float) -> list[MulReal]:
    """entails row by row, of checked tables phi and psi and a checked p."""
    return MUL.quantifier(Polarity.UNIVERSAL, p, space)(mul_div_table(phi, psi))


def reflexivity_check(space: Space, phi, p: float = 1.0) -> EntailmentReport:
    """entails(phi, phi, p) against the predicted total_mass^(-1/p)."""
    if (p := _check_magnitude(p)) == 0.0:
        raise QuantLogicError("INVALID_P", "reflexivity check needs p > 0")
    phi = value_vector(space, phi).values
    value = _entailments(space, phi, phi, p)[0]
    mass = space.total_mass
    if p == INF:
        expected = 1.0
    elif mass < INF:
        try:
            expected = mass ** (-1.0 / p)
        except OverflowError:
            expected = INF
    else:  # the mass overflows but its log does not
        m, e = space.scaled_mass()
        expected = math.exp(-(math.log(m) + e * math.log(2.0)) / p)
    verdict = "holds" if _rel_close(value, expected) else "violated"
    return EntailmentReport("reflexivity", value, expected, _gap(value, expected),
                            verdict, {"total_mass": mass, "p": p})


def adjunction_check(space_i: Space, space_k: Space, rho, psi,
                     p: float = 1.0) -> EntailmentReport:
    """Existential marginalization is left adjoint to pulling back.

    lhs: entails_I(existential p-mean over K of rho, psi)
    rhs: entails_{IxK}(rho, psi pulled back along the projection)
    Both spaces must be probability spaces.
    """
    space_i = _check_instance(space_i, Space, "a Space")
    space_k = _check_instance(space_k, Space, "a Space")
    if not (space_i.is_probability and space_k.is_probability):
        raise QuantLogicError("NOT_PROBABILITY",
                              "adjunction check needs probability spaces")
    rho = check_mul_table(rho)
    psi = check_mul_table(psi)
    nk = len(space_k)
    _check_count(rho, len(space_i) * nk, "rho over I x K")
    _check_count(psi, len(space_i), "psi over I")
    p = _check_magnitude(p)
    marginal = MUL.quantifier(Polarity.EXISTENTIAL, p, space_k)(rho)
    lhs = _entailments(space_i, marginal, psi, p)[0]
    pulled = [v for v in psi for _ in range(nk)]
    rhs = _entailments(product_space(space_i, space_k), rho, pulled, p)[0]
    verdict = "holds" if _rel_close(lhs, rhs) else "violated"
    return EntailmentReport("adjunction", lhs, rhs, _gap(lhs, rhs), verdict,
                            {"p": p})


def canned_transitivity_witness():
    """A fixed 2-point triple violating tensor-transitivity."""
    space = make_space(["i1", "i2"], [0.5, 0.5], name="I2")
    phi = (10.0, 0.001)
    psi = (10.0, 1.0)
    sigma = (1.0, 1.0)
    return space, phi, psi, sigma


def _transitivity_report(space, phi, psi, sigma, p, source) -> EntailmentReport | None:
    e1, e2, e3 = _entailments(space, phi + psi + phi, psi + sigma + sigma, p)
    lhs = mul_tensor(e1, e2)
    if _above(lhs, e3):
        return EntailmentReport(
            "transitivity", lhs, e3, _gap(lhs, e3), "violated",
            {"phi": phi, "psi": psi, "sigma": sigma, "p": p, "source": source,
             "entailments": (e1, e2, e3), "space": space})
    return None


def _read_integer(x, what: str) -> int:
    """x as ``operator.index`` reads it; INVALID_VALUE if it is no integer."""
    try:
        return index(x)
    except TypeError:
        raise QuantLogicError("INVALID_VALUE", f"{what} must be an integer, got {x!r}") from None


def transitivity_search(space: Space, p: float = 1.0, trials: int = 1000,
                        seed: int = 0) -> EntailmentReport:
    """Search random triples for a transitivity violation.

    Values are drawn log-uniformly from [1e-3, 1e3].  If no random violation
    shows up, the canned witness is evaluated (on its own 2-point space).
    NO_VIOLATION_FOUND says neither showed a gap above the ``_ABS_TOL``
    tolerance; near p = 0 or p = inf a true gap can lie below it.  At p = 0
    and p = inf the law is a theorem, so there is nothing to search for: INVALID_P.
    """
    if (p := _check_magnitude(p)) in (0.0, INF):
        raise QuantLogicError("INVALID_P",
                              "transitivity holds at p = 0 (geometric means multiply) and "
                              "at p = inf (minimum residuals compose); search at 0 < p < inf")
    if (trials := _read_integer(trials, "trials")) < 0:
        raise QuantLogicError("INVALID_VALUE", f"trials must be at least 0, got {trials}")
    seed = _read_integer(seed, "seed")
    space = _check_instance(space, Space, "a Space")
    rng = random.Random(seed)
    lo, hi = math.log(1e-3), math.log(1e3)

    def vec():
        return tuple(math.exp(rng.uniform(lo, hi)) for _ in range(len(space)))

    for trial in range(trials):
        report = _transitivity_report(space, vec(), vec(), vec(), p,
                                      {"kind": "random", "trial": trial})
        if report is not None:
            return report
    canned = canned_transitivity_witness()
    report = _transitivity_report(*canned, p, {"kind": "canned"})
    if report is not None:
        return report
    raise QuantLogicError("NO_VIOLATION_FOUND",
                          f"{trials} trials and the canned witness showed no transitivity gap "
                          f"above the {_ABS_TOL:g} tolerance; near p = 0 or p = inf a true "
                          "gap can lie below it")


def reindex_monotonicity_check(f: PointMap, phi, psi,
                               p: float = 1.0) -> EntailmentReport:
    """Entailment does not decrease when pulled back along a mass-non-increasing map."""
    if not _check_instance(f, PointMap, "a PointMap").measure_non_increasing:
        raise QuantLogicError("MAP_NOT_NONINCREASING",
                              "point map increases mass somewhere")
    phi = check_mul_table(phi)
    psi = check_mul_table(psi)
    _check_count(phi, len(f.target), "phi over the target space")
    _check_count(psi, len(f.target), "psi over the target space")
    p = _check_magnitude(p)
    lhs = _entailments(f.target, phi, psi, p)[0]
    rhs = _entailments(f.source, [phi[j] for j in f.assignment],
                       [psi[j] for j in f.assignment], p)[0]
    return EntailmentReport("reindex-monotonicity", lhs, rhs, _gap(lhs, rhs),
                            "violated" if _above(lhs, rhs) else "holds", {"p": p})


def pushforward_density(f: PointMap, phi) -> tuple[MulReal, ...]:
    """Fiberwise mass average: (sum over the fiber of phi*w_source) / w_target.

    Every point in the image of the map must carry positive target weight;
    points outside the image get density 0.
    """
    f = _check_instance(f, PointMap, "a PointMap")
    phi = _check_count(check_mul_table(phi), len(f.source), "phi over the source space")
    fibers = f._fibers()
    image = [j for j, fiber in enumerate(fibers) if fiber]
    for j in image:
        if f.target.weights[j] == 0.0:
            raise QuantLogicError(
                "ZERO_TARGET_WEIGHT",
                f"target point {f.target.points[j]!r} is hit but has weight 0")
    terms = mul_tensor_table(phi, f.source.weights)
    sums = [kahan_sum([terms[i] for i in fibers[j]]) for j in image]
    densities = dict(zip(image, mul_div_table([f.target.weights[j] for j in image], sums)))
    return tuple(densities.get(j, 0.0) for j in range(len(f.target)))


def laxity_check(f: PointMap, phi, psi) -> EntailmentReport:
    """Compare (f!phi) tensor (f!psi) against f!(phi tensor psi) pointwise.

    Reports which inequality directions fail; the pushforward is neither lax
    nor colax monoidal in general.
    """
    phi = check_mul_table(phi)
    psi = check_mul_table(psi)
    lhs = tuple(mul_tensor_table(pushforward_density(f, phi), pushforward_density(f, psi)))
    rhs = pushforward_density(f, mul_tensor_table(phi, psi))
    lax_fails = any(_above(a, b) for a, b in zip(lhs, rhs))
    colax_fails = any(_above(b, a) for a, b in zip(lhs, rhs))
    verdict = "violated" if (lax_fails or colax_fails) else "holds"
    return EntailmentReport(
        "laxity", max(lhs), max(rhs), _gap(max(lhs), max(rhs)), verdict,
        {"pointwise_lhs": lhs, "pointwise_rhs": rhs,
         "lax_fails": lax_fails, "colax_fails": colax_fails})


def canned_laxity_instances():
    """The collapse-map counterexamples breaking each monoidality direction."""
    source = make_space(["i1", "i2"], [0.5, 0.5], name="I2")
    target = make_space(["pt"], [1.0], name="PT")
    collapse = PointMap(source, target, (0, 0))
    return [
        ("lax", collapse, (1.0, 0.0), (0.0, 1.0)),
        ("colax", collapse, (2.0, 0.0), (2.0, 0.0)),
    ]
