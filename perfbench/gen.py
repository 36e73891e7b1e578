"""Seeded input generator for the quantlogic benchmark.

Every input is plain data (JSON environment documents, formula text, lists of
numbers) made from one ``random.Random(seed)``, so the same seed always gives
the same inputs and the program under test only ever sees the generated
files and strings.  This module does not import quantlogic.

Corner cells (exact 0, 1 and inf) are part of the traffic, at the shares
stated in the ``*_CORNERS`` constants; they exercise the exact corner
arithmetic that every carrier operation must get right.

Write one workload's inputs to a directory::

    python3 perfbench/gen.py --workload eval-bulk --seed 1 --out /tmp/inputs
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random

INF = math.inf

# Shares of cells that are exactly 0, 1 and inf.  The relation of eval-bulk
# is summed over 300-point rows, so its shares stay low enough that most
# closed formulas come out finite; the small spaces of small-queries take
# more.  Unary atoms get no 0 or inf cells: in eval-bulk one such cell decides
# every row it meets, which would make a run's cost depend on the seed rather
# than on the program, and softmax needs an atom that is not zero.
RELATION_CORNERS = {0.0: 2e-4, 1.0: 1e-3, INF: 2e-4}
UNARY_CORNERS = {1.0: 1e-3}
SMALL_CORNERS = {0.0: 0.03, 1.0: 0.05, INF: 0.03}

# eval-bulk: every formula is closed and doubly nested over I (300 points).
# Together they take every quantifier route (p = 1, 2, 0, inf, p >= 64 on the
# log route, universal) and use every binary operator, -o, ^* and k . ;
# polarities alternate so that a corner cell rarely decides the result.
EVAL_BULK_FORMULAS = (
    "E^2 (x in I). A^1 (y in I). r(x, y) (x) r(y, x)",
    "A^1 (x in I). E^inf (y in I). r(x, y) \\/ f(y)",
    "E^0 (x in I). A^2 (y in I). r(x, y) /\\ g(x)",
    "A^2 (x in I). E^100 (y in I). r(x, y) -o f(x)",
    "E^1 (x in I). A^0 (y in I). r(x, y) (+) f(y)",
    "A^inf (x in I). E^3 (y in I). r(x, y)^* (+*) g(y)",
    "E^64 (x in I). A^0.5 (y in I). 2 . (r(x, y) (x*) f(x))",
    "A^3 (x in I). E^2 (y in I). 0.5 . (r(y, x)^* (x) g(x))",
)
EVAL_BULK_POINTS = 300

# (|I|, |K|) of the eight small-queries environments: fixed, so that a seed
# changes values, weights and formulas but not the table sizes.
SQ_SIZES = ((2, 8), (3, 7), (4, 6), (5, 5), (6, 4), (7, 3), (8, 2), (8, 8))
SQ_QUERIES = 4000
SQ_CHECKS_PER_KIND = 64
SQ_MAX_DEPTH = 5
# At most two nested quantifiers keep every table at 8^3 cells or fewer, so
# no rare formula dominates the pool's cost and per-call costs stay the load.
SQ_MAX_NESTING = 2
SQ_MAGNITUDES = ("0", "0.5", "1", "2", "3", "7", "64", "100", "inf")
SQ_SCALARS = ("0", "0.5", "1", "2")
SQ_CONSTANTS = ("true", "false", "one", "zero", "top", "bot")
SQ_CLI_POINTS = 8


def encode(x: float):
    """JSON form of a carrier value: the environment format spells inf."""
    return "inf" if x == INF else x


def cell(rng: random.Random, lo: float, hi: float, corners: dict) -> float:
    """A log-uniform value in [e^lo, e^hi], or a corner value at its share."""
    u = rng.random()
    for value, share in corners.items():
        if u < share:
            return value
        u -= share
    return math.exp(rng.uniform(lo, hi))


def _weights(rng: random.Random, n: int) -> list[float]:
    return [rng.uniform(0.5, 1.5) for _ in range(n)]


def _space(prefix: str, weights: list[float]) -> dict:
    return {"points": [f"{prefix}{i}" for i in range(len(weights))],
            "weights": weights}


def _unit_masses(rng: random.Random, n: int) -> list[float]:
    raw = [math.exp(rng.uniform(-2.0, 2.0)) for _ in range(n)]
    total = math.fsum(raw)
    return [x / total for x in raw]


# ---------------------------------------------------------------------------
# eval-bulk
# ---------------------------------------------------------------------------

def eval_bulk(seed: int) -> dict:
    """One 300-point space with unnormalized weights, r over I x I, f and g."""
    rng = random.Random(seed)
    corners = RELATION_CORNERS
    n = EVAL_BULK_POINTS
    env = {
        "mode": "mul",
        "spaces": {"I": _space("i", _weights(rng, n))},
        "atoms": {
            "r": {"context": ["I", "I"],
                  "values": [encode(cell(rng, -4.6, 4.6, corners))
                             for _ in range(n * n)]},
            "f": {"context": ["I"],
                  "values": [cell(rng, -4.6, 4.6, UNARY_CORNERS) for _ in range(n)]},
            "g": {"context": ["I"],
                  "values": [cell(rng, -4.6, 4.6, UNARY_CORNERS) for _ in range(n)]},
        },
    }
    return {"env": env, "formulas": list(EVAL_BULK_FORMULAS)}


# ---------------------------------------------------------------------------
# small-queries
# ---------------------------------------------------------------------------

_SQ_SIG = {"phi": ("I",), "psi": ("I",), "rho": ("I", "K"), "mu": ("K",)}


def _sq_env(rng: random.Random, ni: int, nk: int) -> dict:
    corners = SMALL_CORNERS

    def vals(k):
        # e^[-1/2, 1/2] keeps every depth-5 evaluation inside the double
        # range in both carriers (at most 32 leaves, scalars at most 2).
        return [encode(cell(rng, -0.5, 0.5, corners)) for _ in range(k)]

    return {
        "mode": "mul",
        "spaces": {"I": _space("i", _weights(rng, ni)),
                   "K": _space("k", _weights(rng, nk))},
        "atoms": {"phi": {"context": ["I"], "values": vals(ni)},
                  "psi": {"context": ["I"], "values": vals(ni)},
                  "rho": {"context": ["I", "K"], "values": vals(ni * nk)},
                  "mu": {"context": ["K"], "values": vals(nk)}},
    }


def formula_text(rng: random.Random, depth: int,
                 bound: tuple[tuple[str, str], ...]) -> str:
    """A random well-formed formula over _SQ_SIG, every compound parenthesized."""
    if depth <= 0 or rng.random() < 0.25:
        usable = [(a, sig) for a, sig in _SQ_SIG.items()
                  if all(any(s == want for _, s in bound) for want in sig)]
        kind = rng.choice(["number", "named"] + ["atom"] * (4 if usable else 0))
        if kind == "number":
            return repr(round(math.exp(rng.uniform(-0.5, 0.5)), 6))
        if kind == "named":
            return rng.choice(SQ_CONSTANTS)
        name, sig = rng.choice(usable)
        args = [rng.choice([v for v, s in bound if s == want]) for want in sig]
        return f"{name}({', '.join(args)})"

    def sub(b=bound):
        return f"({formula_text(rng, depth - 1, b)})"

    kinds = ["binop"] * 3 + ["div", "dual", "scalar"]
    if sum(1 for v, _ in bound if v != "x") < SQ_MAX_NESTING:
        kinds += ["quant", "quant"]
    kind = rng.choice(kinds)
    if kind == "binop":
        op = rng.choice(("\\/", "/\\", "(+)", "(+*)", "(x)", "(x*)"))
        return f"{sub()} {op} {sub()}"
    if kind == "div":
        return f"{sub()} -o {sub()}"
    if kind == "dual":
        return f"{sub()}^*"
    if kind == "scalar":
        return f"{rng.choice(SQ_SCALARS)} . {sub()}"
    var = f"v{len(bound)}"
    space = rng.choice(("I", "K"))
    tag = rng.choice("EA")
    return (f"{tag}^{rng.choice(SQ_MAGNITUDES)} ({var} in {space}). "
            f"{sub(bound + ((var, space),))}")


def _positive(rng: random.Random, n: int, lo: float = -2.3, hi: float = 2.3) -> list[float]:
    return [math.exp(rng.uniform(lo, hi)) for _ in range(n)]


def _sq_cli_env(rng: random.Random) -> dict:
    """The environment of the CLI calls: r over a probability space I, a
    positive atom g on I, a unitary distribution phi on a counting space D,
    and a raw-weighted space S for the adjunction check."""
    n = SQ_CLI_POINTS
    w = _weights(rng, n)
    total = math.fsum(w)
    return {
        "mode": "mul",
        "spaces": {"I": _space("i", [x / total for x in w]),
                   "D": _space("d", [1.0] * n),
                   "S": _space("s", _weights(rng, n))},
        "atoms": {"r": {"context": ["I", "I"],
                        "values": [encode(cell(rng, -2.3, 2.3, SMALL_CORNERS))
                                   for _ in range(n * n)]},
                  "g": {"context": ["I"],
                        "values": [cell(rng, -2.3, 2.3, UNARY_CORNERS) for _ in range(n)]},
                  "phi": {"context": ["D"], "values": _unit_masses(rng, n)}},
    }


def small_queries(seed: int) -> dict:
    """Environments, formula queries and inputs for the interleaved library checks.

    A query is (environment index, free variable or None, formula text); an
    open query has the free variable x over I.  Weights are raw: the checks
    that need a probability space normalize them through the program.
    ``cli_env`` is the environment file of the in-process CLI calls.
    """
    rng = random.Random(seed)
    envs = [_sq_env(rng, ni, nk) for ni, nk in SQ_SIZES]
    queries = []
    for i in range(SQ_QUERIES):
        free = "x" if rng.random() < 0.3 else None
        bound = (("x", "I"),) if free else ()
        queries.append((i % len(envs), free, formula_text(rng, SQ_MAX_DEPTH, bound)))
    ps = (0.5, 1.0, 2.0, 3.0, INF)
    checks = {
        "adjunction_check": [], "transitivity_search": [], "laxity_check": [],
        "reflexivity_check": [], "softmax_p": [], "argmax": [],
        "renyi_entropy": [], "hill_diversity": [], "log_likelihood": [],
    }
    for _ in range(SQ_CHECKS_PER_KIND):
        ni, nk, n = rng.randint(2, 8), rng.randint(2, 8), rng.randint(2, 8)
        checks["adjunction_check"].append({
            "wi": _weights(rng, ni), "wk": _weights(rng, nk),
            "rho": _positive(rng, ni * nk), "psi": _positive(rng, ni),
            "p": rng.choice(ps)})
        checks["transitivity_search"].append({
            "w": _weights(rng, n), "p": rng.choice(ps[:4]),
            "trials": 20, "seed": rng.randrange(1 << 30)})
        checks["laxity_check"].append({"instance": rng.randrange(2)})
        checks["reflexivity_check"].append({
            "w": _weights(rng, n), "phi": _positive(rng, n), "p": rng.choice(ps)})
        f = [cell(rng, -2.3, 2.3, {0.0: 0.05, 1.0: 0.05}) for _ in range(n)]
        if not any(f):
            f[0] = 1.0  # softmax of an all-zero vector is an input error
        checks["softmax_p"].append({"w": _weights(rng, n), "f": f,
                                    "p": rng.choice((1.0, INF))})
        checks["argmax"].append({"w": _weights(rng, n),
                                 "f": [rng.choice((0.5, 1.0, 2.0, 3.0))
                                       for _ in range(n)]})
        p = rng.choice((0.0, 0.5, 1.0, 2.0, 3.0, INF))
        checks["renyi_entropy"].append({"masses": _unit_masses(rng, n), "p": p})
        checks["hill_diversity"].append({"masses": _unit_masses(rng, n), "p": p})
        checks["log_likelihood"].append({
            "w": _weights(rng, n),
            "u": [rng.uniform(-3.0, 3.0) for _ in range(n)]})
    return {"envs": envs, "queries": queries, "checks": checks,
            "cli_env": _sq_cli_env(rng)}


GENERATORS = {"eval-bulk": eval_bulk, "small-queries": small_queries}


def write_json(doc, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(GENERATORS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True, help="directory to write into")
    args = ap.parse_args(argv)
    os.makedirs(args.out, exist_ok=True)
    data = GENERATORS[args.workload](args.seed)
    for name, doc in data.items():
        write_json(doc, os.path.join(args.out, f"{name}.json"))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
