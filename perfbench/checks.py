"""Reference results and tolerances the benchmark checks the program against.

Written from the definitions, not from quantlogic's code, so that a check
fails when the program drifts.  Tolerances follow the program's contract:
results agree exactly at the infinities and to 1e-9 elsewhere (relative, with
an absolute floor of 1e-9 for values near 0).
"""

from __future__ import annotations

import math

INF = math.inf
TOL = 1e-9


def close(a: float, b: float) -> bool:
    """Equal at infinities; relative with an absolute floor otherwise."""
    if a == b:
        return True
    if math.isnan(a) or math.isnan(b) or math.isinf(a) or math.isinf(b):
        return False
    return abs(a - b) <= TOL * max(1.0, abs(a), abs(b))


def napier(a: float) -> float:
    """x -> -log x on [0, inf]."""
    if a == 0.0:
        return INF
    if a == INF:
        return -INF
    return -math.log(a)


def coherence_error(mul_table, add_table) -> str | None:
    """None when add_table is the napier image of mul_table, else a reason."""
    if len(mul_table) != len(add_table):
        return f"table sizes differ: {len(mul_table)} vs {len(add_table)}"
    for i, (m, a) in enumerate(zip(mul_table, add_table)):
        if math.isnan(m) or math.isnan(a):
            return f"NaN at cell {i}: mul={m!r} add={a!r}"
        if not close(napier(m), a):
            return f"napier(mul) != add at cell {i}: mul={m!r} add={a!r}"
    return None


def nan_error(values) -> str | None:
    for i, v in enumerate(values):
        if math.isnan(v):
            return f"NaN at cell {i}"
    return None


def tensor(a: float, b: float) -> float:
    """Product with 0 * inf = 0."""
    if a == 0.0 or b == 0.0:
        return 0.0
    if a == INF or b == INF:
        return INF
    return a * b


def exists_mean(p: float, weights, values) -> float:
    """Existential weighted p-mean over the points of positive weight.

    p = inf is the maximum; p = 0 the weighted geometric product, where an inf
    value wins over a 0.
    """
    pairs = [(w, a) for w, a in zip(weights, values) if w > 0.0]
    if p == INF:
        return max(a for _, a in pairs)
    if any(a == INF for _, a in pairs):
        return INF
    if p == 0.0:
        if any(a == 0.0 for _, a in pairs):
            return 0.0
        return math.exp(math.fsum(w * math.log(a) for w, a in pairs))
    logs = [math.log(w) + p * math.log(a) for w, a in pairs if a > 0.0]
    if not logs:
        return 0.0
    top = max(logs)
    r = (top + math.log(math.fsum(math.exp(t - top) for t in logs))) / p
    return math.exp(r) if r < 709.0 else INF


def renyi(masses, weights, p: float) -> float:
    """Order-p entropy of a mass function against weights."""
    pairs = [(w, m) for w, m in zip(weights, masses) if w > 0.0 and m > 0.0]
    if p == 0.0:
        return math.log(math.fsum(w for w, _ in pairs))
    if p == 1.0:
        return -math.fsum(w * m * math.log(m) for w, m in pairs)
    if p == INF:
        return -math.log(max(m for _, m in pairs))
    return math.log(math.fsum(w * m ** p for w, m in pairs)) / (1.0 - p)


def neg_log_softmax(weights, energies) -> list[float]:
    """-log of the p = 1 softmax of e^-u on a probability space."""
    top = -min(energies)
    z = top + math.log(math.fsum(w * math.exp(-u - top)
                                 for w, u in zip(weights, energies)))
    return [u + z for u in energies]
