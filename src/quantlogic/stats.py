"""Statistical readings of the quantifiers.

Everything here is a thin specialization of the p-mean machinery:

* ``softmax_p``       — a value vector divided by its existential p-mean;
  p = 1 is the classical softmax of the negative energies, p = inf the
  sharp (arg)max.
* ``argmax``          — the unitary-separator cast of ``softmax_p(f, inf)``.
* ``log_likelihood``  — the additive-carrier reading of softmax at p = 1:
  ``A^p (x in X). a(x) -o a(xstar)`` is softmax in one carrier and the
  negative log-likelihood in the other.
* ``renyi_entropy`` / ``hill_diversity`` — order-p entropy H_p and the
  effective number of outcomes D_p = exp(H_p), as the additive and the
  multiplicative reading of one quantifier: ``E^(p-1)`` (``A^(1-p)`` for
  p < 1) of phi over the *escort* weights w * phi.  Those integrate to 1, so
  the quantifier is a true mean, continuous in p; the orders 0, 1 and inf
  are its harmonic, geometric and extremum routes, not special cases.
"""

from __future__ import annotations

from dataclasses import dataclass

from .environment import AtomTable, Environment
from .errors import QuantLogicError
from .extreal import (INF, AddReal, MulReal, _check_count, _check_instance, check_add, check_mul,
                      mul_div_table, mul_dual, mul_dual_table, napier_table)
from .formulas import Atom, Context, Div, Formula, Quant
from .pmeans import (ADD, MUL, Polarity, SignedP, ValueVector, _check_magnitude,
                     escort_quantifier, exists_p, kahan_sum, p_mean)
from .semantics import evaluate, unitary_separator
from .spaces import Space

_UNITARY_TOL = 1e-12

# The body of softmax, quantified by A^p over x (log_likelihood, softmax_formula_path).
_SOFTMAX = Div(Atom("a", ("x",)), Atom("a", ("xstar",)))


@dataclass(frozen=True)
class Distribution:
    """A mass function on a space: values in [0, 1] integrating to 1."""

    space: Space
    masses: tuple[MulReal, ...]

    def __post_init__(self):
        masses = []  # read one by one: a fault before the first mass above 1 is reported first
        space = _check_instance(self.space, Space, "a Space")
        for m in map(check_mul, _check_count(self.masses, len(space), "masses")):
            if m > 1.0:
                raise QuantLogicError("NOT_UNITARY", f"mass {m!r} exceeds 1")
            masses.append(m)
        object.__setattr__(self, "masses", tuple(masses))
        total = kahan_sum(w * m for w, m in zip(self.space.weights, self.masses))
        if abs(total - 1.0) > _UNITARY_TOL:
            raise QuantLogicError("NOT_UNITARY",
                                  f"masses integrate to {total!r}, not 1")


def distribution(space: Space, masses) -> Distribution:
    return Distribution(space, masses)


@dataclass(frozen=True)
class EnergyFunction:
    """Additive-carrier scores, finite or +inf (+inf = impossible)."""

    space: Space
    energies: tuple[AddReal, ...]

    def __post_init__(self):
        energies = []  # read one by one: a fault before the first -inf is reported first
        space = _check_instance(self.space, Space, "a Space")
        for u in map(check_add, _check_count(self.energies, len(space), "energies")):
            if u == -INF:
                raise QuantLogicError("INVALID_VALUE", "energies must be finite or +inf")
            energies.append(u)
        object.__setattr__(self, "energies", tuple(energies))


def energy_function(space: Space, energies) -> EnergyFunction:
    return EnergyFunction(space, energies)


def _universal(mode: str, space: Space, values, p: float, body: Formula,
               free: tuple[str, ...] = ()) -> tuple[float, ...]:
    """The table of ``A^p (x in S). body`` over the variables ``free``, all in S,
    where the atom ``a`` over S holds the given values.  The callers have
    checked them, so the environment is built unchecked, as
    ``translate_environment`` builds its own."""
    env = Environment(mode, {space.name: space}, {"a": AtomTable((space.name,), tuple(values))})
    formula = Quant(Polarity.UNIVERSAL, p, "x", space.name, body)
    return evaluate(formula, Context(tuple((v, space) for v in free)), env).table


def _check_p(p: float, positive: bool) -> float:
    if (p := _check_magnitude(p)) == 0.0 and positive:
        raise QuantLogicError("INVALID_P", f"order must be in (0, inf], got {p!r}")
    return p


def softmax_p(f: ValueVector, p: float) -> tuple[MulReal, ...]:
    """Pointwise f(x) divided by the existential p-mean of f.

    Over a probability space, p = 1 integrates to 1 against the weights
    (normalize the space first otherwise).  Equals the universal-quantifier
    formula "A^p (x in X). f(x) -o f(xstar)" evaluated at each xstar.
    """
    p = _check_p(p, positive=True)
    mean = p_mean(exists_p(p), _check_instance(f, ValueVector, "a ValueVector"))
    if mean == 0.0:
        raise QuantLogicError("ZERO_PREDICATE",
                              "softmax of an (essentially) zero vector")
    return tuple(mul_div_table([mean] * len(f.values), f.values))


def argmax(f: ValueVector) -> tuple[bool, ...]:
    """True exactly where f is at least every support value (via softmax_inf)."""
    t = unitary_separator().threshold
    return tuple([v >= t for v in softmax_p(f, INF)])  # separator_cast of each value


def log_likelihood(u: EnergyFunction) -> tuple[AddReal, ...]:
    """Negative log softmax-probability of each point under energies u.

    Computed as the additive evaluation of
    ``A^1 (x in X). u(x) -o u(xstar)``, the formula of
    ``softmax_formula_path``, which agrees with -log(softmax_1(e^-u)) pointwise.
    The evaluator moves the quantifier past ``-o`` (``(E^1_x u(x)) -o
    u(xstar)``), so it takes O(n) cells, not n².
    """
    u = _check_instance(u, EnergyFunction, "an EnergyFunction")
    return _universal("add", u.space, u.energies, 1.0, _SOFTMAX, ("xstar",))


def _escort(p: float) -> SignedP:
    """The quantifier that reads order p over the escort weights w * phi,
    which integrate to 1: ``E^(p-1)`` for p >= 1, ``A^(1-p)`` below."""
    p = _check_p(p, positive=False)
    return SignedP(Polarity.EXISTENTIAL if p >= 1.0 else Polarity.UNIVERSAL, abs(p - 1.0))


def renyi_entropy(phi: Distribution, p: float) -> float:
    """Order-p entropy (1/(1-p)) log integral(phi^p) = napier(M_(p-1)(phi; w * phi)),
    the additive reading of the escort quantifier on -log(phi).

    p = 1 is Shannon entropy, p = 0 the log of the support mass, p = inf
    -log of the essential maximum.
    """
    phi = _check_instance(phi, Distribution, "a Distribution")
    return escort_quantifier(ADD, _escort(p), phi.space, phi.masses,
                             napier_table(phi.masses))


def hill_diversity(phi: Distribution, p: float) -> MulReal:
    """The effective number of outcomes exp(renyi_entropy): the dual of the
    multiplicative reading of the same escort quantifier on phi,
    D_p = 1 / M_(p-1)(phi; w * phi) (Leinster, *Entropy and Diversity*, 2021).
    """
    phi = _check_instance(phi, Distribution, "a Distribution")
    return mul_dual(escort_quantifier(MUL, _escort(p), phi.space, phi.masses,
                                      phi.masses))


def shannon_entropy(phi: Distribution) -> float:
    return renyi_entropy(phi, 1.0)


def softmax_formula_path(f: ValueVector, p: float) -> tuple[MulReal, ...]:
    """The same values through the formula evaluator: the multiplicative
    evaluation of ``A^p (x in X). f(x) -o f(xstar)``.  The evaluator moves the
    quantifier past ``-o``, so this computes f(xstar) / E^p f in O(n) cells,
    as ``softmax_p`` does by hand."""
    p = _check_p(p, positive=True)
    f = _check_instance(f, ValueVector, "a ValueVector")
    return _universal("mul", f.space, f.values, p, _SOFTMAX, ("xstar",))


def renyi_formula_path(phi: Distribution, p: float) -> float:
    """H_p as p/(1-p) times the additive universal quantifier of log(phi).

    The atom is napier(dual(phi)) = log(phi); only meaningful away from the
    limit orders (the scalar p/(1-p) is applied at library level because it
    may be negative).
    """
    p = _check_p(p, positive=True)
    if p == 1.0 or p == INF:
        raise QuantLogicError("INVALID_P", "formula path needs p outside {1, inf}")
    phi = _check_instance(phi, Distribution, "a Distribution")
    logphi = napier_table(mul_dual_table(phi.masses))
    value = _universal("add", phi.space, logphi, p, Atom("a", ("x",)))[0]
    return p / (1.0 - p) * value
