"""Shared test utilities: tolerant comparisons, a random formula generator,
reference quantifier kernels, and the scalar formulation of the entailment
checks and statistics as their reference."""

from __future__ import annotations

import itertools
import math
import random
import sys
from fractions import Fraction

from quantlogic import (
    Atom,
    AtomTable,
    BinOp,
    Const,
    Context,
    Div,
    Dual,
    EntailmentReport,
    OpCode,
    QuantLogicError,
    Quant,
    Scalar,
    SignedP,
    ValueVector,
    canned_transitivity_witness,
    environment_from_dict,
    evaluate,
    exists_p,
    forall_p,
    make_environment,
    mul_div,
    mul_dual,
    mul_tensor,
    napier,
    p_mean,
    product_space,
    value_vector,
)
from quantlogic.extreal import check_add, check_mul_table, kahan_sum
from quantlogic.formulas import Formula, children, rebuild, walk
from quantlogic.pmeans import ADD, Polarity, escort_quantifier

INF = math.inf


def rel_close(a: float, b: float, tol: float = 1e-9) -> bool:
    """Equal at infinities; relative with an absolute floor of `tol` otherwise.

    The absolute floor matters in the additive carrier, where values sit near 0
    and a pure relative test would blow up.
    """
    if a == b:
        return True
    if math.isinf(a) or math.isinf(b):
        return False
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def assert_close(a: float, b: float, tol: float = 1e-9, what: str = ""):
    assert rel_close(a, b, tol), f"{what}: {a!r} != {b!r} (tol {tol})"


def law_close(a: float, b: float, mode: str, tol: float = 1e-12) -> bool:
    """Whether two values of a law's sides agree: exactly where either is a
    truth corner (0 or inf in MUL, +-inf in ADD), else within tol relative in
    MUL and tol * max(1, |u|) in ADD, whose values are log coordinates."""
    if a == b:
        return True
    corners = (0.0, INF) if mode == "mul" else (-INF, INF)
    if a in corners or b in corners:
        return False
    return abs(a - b) <= tol * max(1.0 if mode == "add" else 0.0, abs(a), abs(b))


def formulas_close(f: Formula, g: Formula, tol: float = 1e-12) -> bool:
    """Structural equality with tolerant numeric literals.

    Two trees are equal when their pre-order node sequences match node by
    node, since each node type fixes its number of children.
    """
    pairs = itertools.zip_longest((n for n, _ in walk(f)), (n for n, _ in walk(g)))
    return all(_node_close(a, b, tol) for a, b in pairs)


def _node_close(a, b, tol: float) -> bool:
    """a and b agree in everything but their subformulas."""
    if type(a) is not type(b):
        return False
    if isinstance(a, Const) and not isinstance(a.value, str) \
            and not isinstance(b.value, str):
        return rel_close(a.value, b.value, tol)
    return rebuild(a, children(b)) == b


# ---------------------------------------------------------------------------
# random formulas over a fixed two-space environment
# ---------------------------------------------------------------------------

# Atom values stay within e^[-1/2, 1/2] and scalar factors within {0,..,2} so
# that no evaluation can overflow a double in either carrier: a depth-5 tree
# has at most 32 leaves and a worst-case accumulated exponent of about
# 0.5 * 32 * 32 = 512 < log(DBL_MAX) ~= 709.

_MAGNITUDES = (0.0, 0.5, 1.0, 2.0, 7.0, INF)
_SCALARS = (0.0, 0.5, 1.0, 2.0)


def coherence_environment(rng: random.Random):
    def val():
        return math.exp(rng.uniform(-0.5, 0.5))

    doc = {
        "mode": "mul",
        "spaces": {
            "I": {"points": ["i0", "i1", "i2"], "weights": [0.5, 0.25, 0.25]},
            "K": {"points": ["k0", "k1"], "weights": [1.0, 1.0]},
        },
        "atoms": {
            "phi": {"context": ["I"], "values": [val() for _ in range(3)]},
            "psi": {"context": ["I"], "values": [val() for _ in range(3)]},
            "rho": {"context": ["I", "K"], "values": [val() for _ in range(6)]},
        },
    }
    return environment_from_dict(doc)


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


_ATOM_SIG = {"phi": ("I",), "psi": ("I",), "rho": ("I", "K")}


def random_formula(rng: random.Random, depth: int = 4,
                   bound: tuple[tuple[str, str], ...] = ()) -> Formula:
    """A closed, well-formed formula over coherence_environment's signature.

    `bound` lists (variable, space-name) pairs currently in scope.
    """
    leafy = depth <= 0 or rng.random() < 0.25
    if leafy:
        choices = ["number", "named"]
        usable = [(a, sig) for a, sig in _ATOM_SIG.items()
                  if all(any(s == want for _, s in bound) for want in sig)]
        if usable:
            choices += ["atom"] * 4
        kind = rng.choice(choices)
        if kind == "number":
            return Const(math.exp(rng.uniform(-0.5, 0.5)))
        if kind == "named":
            return Const(rng.choice(("true", "false", "one", "zero", "top", "bot")))
        name, sig = rng.choice(usable)
        args = tuple(rng.choice([v for v, s in bound if s == want])
                     for want in sig)
        return Atom(name, args)
    kind = rng.choice(["binop", "binop", "binop", "div", "dual", "scalar",
                       "quant", "quant"])
    if kind == "binop":
        op = rng.choice(list(OpCode))
        return BinOp(op, random_formula(rng, depth - 1, bound),
                     random_formula(rng, depth - 1, bound))
    if kind == "div":
        return Div(random_formula(rng, depth - 1, bound),
                   random_formula(rng, depth - 1, bound))
    if kind == "dual":
        return Dual(random_formula(rng, depth - 1, bound))
    if kind == "scalar":
        return Scalar(rng.choice(_SCALARS), random_formula(rng, depth - 1, bound))
    var = f"v{len(bound)}"
    space = rng.choice(("I", "K"))
    pol = rng.choice((Polarity.EXISTENTIAL, Polarity.UNIVERSAL))
    return Quant(pol, rng.choice(_MAGNITUDES), var, space,
                 random_formula(rng, depth - 1, bound + ((var, space),)))


# ---------------------------------------------------------------------------
# the quantifier pushdown, rule by rule and recursively
# ---------------------------------------------------------------------------

def ref_pushdown(f: Formula) -> Formula:
    """f with each quantifier moved by the rules of ``semantics._pushdown``,
    inner quantifiers first, each as far as the rules go."""
    f = rebuild(f, [ref_pushdown(kid) for kid in children(f)])
    return _ref_push(f) if isinstance(f, Quant) else f


def _ref_push(q: Quant) -> Formula:
    body, p, other = q.body, check_add(q.magnitude), {Polarity.EXISTENTIAL: Polarity.UNIVERSAL,
                                                      Polarity.UNIVERSAL: Polarity.EXISTENTIAL}

    def quant(polarity, p, g):
        return _ref_push(Quant(polarity, p, q.var, q.space, g))

    def names(g):
        return any(isinstance(n, Atom) and q.var in n.args for n, _ in walk(g))

    if isinstance(body, Scalar) and body.factor > 0.0 \
            and (p in (0.0, INF) or 0.0 < body.factor * p < INF):
        return Scalar(body.factor, quant(q.polarity, body.factor * p, body.body))
    if isinstance(body, Dual):
        return Dual(quant(other[q.polarity], p, body.body))
    binary = isinstance(body, Div) or isinstance(body, BinOp) \
        and body.op in (OpCode.TENSOR, OpCode.COTENSOR)
    if binary and p > 0.0:
        if not names(body.lhs):
            return rebuild(body, [body.lhs, quant(q.polarity, p, body.rhs)])
        if not names(body.rhs):
            flipped = other[q.polarity] if isinstance(body, Div) else q.polarity
            return rebuild(body, [quant(flipped, p, body.lhs), body.rhs])
    return q


# ---------------------------------------------------------------------------
# reference quantifier kernels: one aggregate from (weight, value) pairs, cell
# by cell, with the node kernel's choice between the direct sum of powers and
# the log domain; at p = 0 products w * x beyond the double range are summed
# exactly, so that only the total decides.
# ---------------------------------------------------------------------------

def _ref_log_mean(p, weights, xs):
    k = max(p, 1.0)
    q = p / k
    v = [math.log(w) / k + q * x for w, x in zip(weights, xs)]
    m = max(v)
    r = math.log(kahan_sum(math.exp(k * (t - m)) for t in v))
    return m + r / p if k == p else (m + r) / p


def ref_direct(e, pairs):
    """(sum w a**e) ** (1/e) for finite a > 0, or None where the node kernel
    takes the log domain instead: a power a**e or a term w a**e that is not a
    normal double, or a sum or root beyond the double range."""
    try:
        powers = [a ** e for _, a in pairs]
        terms = [w * x for (w, _), x in zip(pairs, powers)]
        if min(powers + terms) < sys.float_info.min:
            return None
        s = kahan_sum(terms)
        return s ** (1.0 / e) if s < INF else None
    except OverflowError:
        return None


def _ref_exp(x):
    try:
        return math.exp(x)
    except OverflowError:
        return INF


def _ref_weighted_sum(pairs):
    """sum w x, exactly where a product leaves the double range."""
    terms = [w * x for w, x in pairs]
    if not any(math.isinf(t) for t in terms):
        return kahan_sum(terms)
    exact = sum(Fraction(w) * Fraction(x) for w, x in pairs)
    try:
        return float(exact)
    except OverflowError:
        return INF if exact > 0 else -INF


def _ref_existential(p, pairs):
    if p == INF:
        return max(a for _, a in pairs)
    if any(a == INF for _, a in pairs):
        return INF
    positive = [(w, a) for w, a in pairs if a > 0.0]
    if not positive:
        return 0.0
    direct = ref_direct(p, positive)
    if direct is not None:
        return direct
    weights, values = zip(*positive)
    return _ref_exp(_ref_log_mean(p, weights, map(math.log, values)))


def _ref_geometric_disjunctive(pairs):
    if any(a == INF for _, a in pairs):
        return INF
    if any(a == 0.0 for _, a in pairs):
        return 0.0
    return _ref_exp(_ref_weighted_sum([(w, math.log(a)) for w, a in pairs]))


def _ref_universal(p, pairs):
    """(sum w a**-p) ** (-1/p): 0 absorbs it, inf drops out of it but wins its
    geometric mean, and no reciprocal is taken."""
    if p == INF:
        return min(a for _, a in pairs)
    if any(a == 0.0 for _, a in pairs):
        return 0.0
    finite = [(w, a) for w, a in pairs if a < INF]
    if not finite or p == 0.0 and len(finite) < len(pairs):
        return INF
    if p == 0.0:
        return _ref_exp(_ref_weighted_sum([(w, math.log(a)) for w, a in finite]))
    direct = ref_direct(-p, finite)
    if direct is not None:
        return direct
    weights, values = zip(*finite)
    return _ref_exp(-_ref_log_mean(p, weights, [-math.log(a) for a in values]))


def ref_p_mean(polarity, p, weights, values):
    """The multiplicative p-mean of values over the points of positive weight."""
    pairs = [(w, v) for w, v in zip(weights, values) if w > 0.0]
    if polarity is Polarity.UNIVERSAL:
        return _ref_universal(p, pairs)
    if p == 0.0:
        return _ref_geometric_disjunctive(pairs)
    return _ref_existential(p, pairs)


def ref_add_quantifier(polarity, p, weights, values):
    """The additive quantifier of values over the points of positive weight."""
    pairs = [(w, u) for w, u in zip(weights, values) if w > 0.0]
    existential = polarity is Polarity.EXISTENTIAL
    if p == INF:
        us = [u for _, u in pairs]
        return min(us) if existential else max(us)
    if p == 0.0:
        infinite = {u for _, u in pairs if math.isinf(u)}
        if len(infinite) == 2:  # cotensor (existential) or tensor (universal)
            return -INF if existential else INF
        if infinite:
            return infinite.pop()
        return _ref_weighted_sum(pairs)
    sign = -1.0 if existential else 1.0
    if any(u == sign * INF for _, u in pairs):
        return sign * INF
    finite = [(w, u) for w, u in pairs if u != -sign * INF]
    if not finite:
        return -sign * INF
    ws, us = zip(*finite)
    if existential:  # 0.0 - L, as the kernel takes it: a zero comes out +0.0
        return 0.0 - _ref_log_mean(p, ws, [-u for u in us])
    return _ref_log_mean(p, ws, us)


# ---------------------------------------------------------------------------
# reference entailment checks and statistics: the scalar formulation, one
# carrier operation per cell and one p-mean per row or entailment
# ---------------------------------------------------------------------------

def ref_entails(space, phi, psi, p=1.0):
    phi = value_vector(space, phi)
    psi = value_vector(space, psi)
    ratios = tuple(mul_div(a, b) for a, b in zip(phi.values, psi.values))
    return p_mean(forall_p(p), ValueVector(space, ratios))


def _ref_report(check, lhs, rhs, verdict, details):
    return EntailmentReport(check, lhs, rhs, 0.0 if lhs == rhs else lhs - rhs, verdict,
                            details)


def _ref_rel_close(a, b):
    if a == b:
        return True
    if math.isinf(a) or math.isinf(b):
        return False
    return abs(a - b) <= 1e-9 * max(1.0, abs(a), abs(b))


def _ref_above(a, b):
    return a > b + 1e-12 * max(1.0, b if b != INF else 1.0)


def ref_reflexivity_check(space, phi, p=1.0):
    if not (p > 0.0):
        raise QuantLogicError("INVALID_P", "reflexivity check needs p > 0")
    value = ref_entails(space, phi, phi, p)
    mass = space.total_mass
    if p == INF:
        expected = 1.0
    elif mass < INF:
        try:
            expected = mass ** (-1.0 / p)
        except OverflowError:
            expected = INF
    else:
        m, e = space.scaled_mass()
        expected = math.exp(-(math.log(m) + e * math.log(2.0)) / p)
    verdict = "holds" if _ref_rel_close(value, expected) else "violated"
    return _ref_report("reflexivity", value, expected, verdict, {"total_mass": mass, "p": p})


def ref_adjunction_check(space_i, space_k, rho, psi, p=1.0):
    if not (space_i.is_probability and space_k.is_probability):
        raise QuantLogicError("NOT_PROBABILITY", "adjunction check needs probability spaces")
    rho = check_mul_table(rho)
    psi = check_mul_table(psi)
    ni, nk = len(space_i), len(space_k)
    if len(rho) != ni * nk or len(psi) != ni:
        raise QuantLogicError("VALUE_COUNT", "rho must be I x K, psi over I")
    marginal = tuple(p_mean(exists_p(p), ValueVector(space_k, rho[i * nk:(i + 1) * nk]))
                     for i in range(ni))
    lhs = ref_entails(space_i, marginal, psi, p)
    pulled = tuple(psi[i] for i in range(ni) for _ in range(nk))
    rhs = ref_entails(product_space(space_i, space_k), rho, pulled, p)
    verdict = "holds" if _ref_rel_close(lhs, rhs) else "violated"
    return _ref_report("adjunction", lhs, rhs, verdict, {"p": p})


def _ref_transitivity_report(space, phi, psi, sigma, p, source):
    e1 = ref_entails(space, phi, psi, p)
    e2 = ref_entails(space, psi, sigma, p)
    e3 = ref_entails(space, phi, sigma, p)
    lhs = mul_tensor(e1, e2)
    if _ref_above(lhs, e3):
        return _ref_report("transitivity", lhs, e3, "violated",
                           {"phi": phi, "psi": psi, "sigma": sigma, "p": p, "source": source,
                            "entailments": (e1, e2, e3), "space": space})
    return None


def ref_transitivity_search(space, p=1.0, trials=1000, seed=0):
    if p in (0.0, INF):  # the law is a theorem there
        raise QuantLogicError("INVALID_P", "transitivity holds at p = 0 and p = inf")
    rng = random.Random(seed)
    n = len(space)
    lo, hi = math.log(1e-3), math.log(1e3)

    def vec():
        return tuple(math.exp(rng.uniform(lo, hi)) for _ in range(n))

    for trial in range(trials):
        report = _ref_transitivity_report(space, vec(), vec(), vec(), p,
                                          {"kind": "random", "trial": trial})
        if report is not None:
            return report
    report = _ref_transitivity_report(*canned_transitivity_witness(), p, {"kind": "canned"})
    if report is not None:
        return report
    raise QuantLogicError("NO_VIOLATION_FOUND", "no transitivity violation found")


def ref_reindex_monotonicity_check(f, phi, psi, p=1.0):
    if not f.measure_non_increasing:
        raise QuantLogicError("MAP_NOT_NONINCREASING", "point map increases mass somewhere")
    phi = check_mul_table(phi)
    psi = check_mul_table(psi)
    lhs = ref_entails(f.target, phi, psi, p)
    pulled_phi = tuple(phi[f(i)] for i in range(len(f.source)))
    pulled_psi = tuple(psi[f(i)] for i in range(len(f.source)))
    rhs = ref_entails(f.source, pulled_phi, pulled_psi, p)
    return _ref_report("reindex-monotonicity", lhs, rhs,
                       "violated" if _ref_above(lhs, rhs) else "holds", {"p": p})


def ref_pushforward_density(f, phi):
    phi = check_mul_table(phi)
    if len(phi) != len(f.source):
        raise QuantLogicError("VALUE_COUNT", "phi must live on the source space")
    image = set(f.assignment)
    for j in sorted(image):
        if f.target.weights[j] == 0.0:
            raise QuantLogicError("ZERO_TARGET_WEIGHT", "target point is hit but has weight 0")
    out = []
    for j in range(len(f.target)):
        if j not in image:
            out.append(0.0)
            continue
        terms = [mul_tensor(phi[i], f.source.weights[i]) for i in f.fiber(j)]
        out.append(mul_div(f.target.weights[j], kahan_sum(terms)))
    return tuple(out)


def ref_laxity_check(f, phi, psi):
    phi = check_mul_table(phi)
    psi = check_mul_table(psi)
    lhs = tuple(mul_tensor(a, b) for a, b in
                zip(ref_pushforward_density(f, phi), ref_pushforward_density(f, psi)))
    product = tuple(mul_tensor(a, b) for a, b in zip(phi, psi))
    rhs = ref_pushforward_density(f, product)
    lax_fails = any(_ref_above(a, b) for a, b in zip(lhs, rhs))
    colax_fails = any(_ref_above(b, a) for a, b in zip(lhs, rhs))
    return _ref_report("laxity", max(lhs), max(rhs),
                       "violated" if (lax_fails or colax_fails) else "holds",
                       {"pointwise_lhs": lhs, "pointwise_rhs": rhs,
                        "lax_fails": lax_fails, "colax_fails": colax_fails})


def _ref_check_p(p, positive):
    try:
        p = check_add(p)  # the one reader of numbers: text and non-numbers are no order
    except QuantLogicError:
        p = math.nan
    if math.isnan(p) or p < 0.0 or (positive and p == 0.0):
        raise QuantLogicError("INVALID_P", f"bad order {p!r}")
    return p


def ref_softmax_p(f, p):
    p = _ref_check_p(p, positive=True)
    mean = p_mean(exists_p(p), f)
    if mean == 0.0:
        raise QuantLogicError("ZERO_PREDICATE", "softmax of an (essentially) zero vector")
    return tuple(mul_div(mean, v) for v in f.values)


def ref_renyi_entropy(phi, p):
    p = _ref_check_p(p, positive=False)
    sp = SignedP(Polarity.EXISTENTIAL if p >= 1.0 else Polarity.UNIVERSAL, abs(p - 1.0))
    return escort_quantifier(ADD, sp, phi.space, phi.masses, [napier(m) for m in phi.masses])


def ref_renyi_formula_path(phi, p):
    p = _ref_check_p(p, positive=True)
    if p == 1.0 or p == INF:
        raise QuantLogicError("INVALID_P", "formula path needs p outside {1, inf}")
    logphi = [napier(mul_dual(m)) for m in phi.masses]
    space = phi.space
    env = make_environment("add", {space.name: space},
                           {"a": AtomTable((space.name,), tuple(logphi))})
    formula = Quant(Polarity.UNIVERSAL, p, "x", space.name, Atom("a", ("x",)))
    value = evaluate(formula, Context(), env).table[0]
    k = p / (1.0 - p)
    if value in (INF, -INF):
        return -value if k < 0 else value
    return k * value


def canonical(x):
    """x with every float spelled by float.hex, for bit-for-bit comparison."""
    if isinstance(x, float):
        return x.hex()
    if isinstance(x, (list, tuple)):
        return [canonical(v) for v in x]
    if isinstance(x, dict):
        return {k: canonical(v) for k, v in x.items()}
    if isinstance(x, EntailmentReport):
        return canonical([x.check, x.lhs, x.rhs, x.gap, x.verdict, x.details])
    return x


def outcome(fn, *args):
    """fn(*args) as ("ok", its canonical value), or the error it raised."""
    try:
        return "ok", canonical(fn(*args))
    except QuantLogicError as err:
        return "error", err.code
    except (TypeError, ValueError) as err:
        return "error", type(err).__name__
