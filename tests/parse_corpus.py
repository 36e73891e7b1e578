"""The differential corpus of the formula front end.

Seeded formula texts in the style of the small-queries benchmark (depth-5
formulas over two spaces, every compound parenthesized), texts with
unparenthesized chains, scalar and quantifier bodies and squeezed whitespace,
and three one-character mutations (a deletion, an insertion, a replacement)
of each.  For every text the fixture records what ``parse`` made of it:
``format_formula`` of the tree, or the ``FormulaSyntaxError`` message and
position.  ``tests/test_formulas.py`` checks that the current front end
reproduces every entry.

The committed fixture was written by the front end of commit e958e3e, before
tokens became plain-tuple-built and the parser lost its per-peek clamp::

    python3 tests/parse_corpus.py path/to/that/checkout/src tests/data/parse_corpus.json.gz
"""

from __future__ import annotations

import gzip
import json
import random
import re
import sys

FIXTURE = "data/parse_corpus.json.gz"
SEED = 20241014
BASE_TEXTS = 1500
MUTATION_ALPHABET = "()^*.,+-ox/\\ EAin0123456789_fgrxyzIKv\t?é²"

_OPS = ("\\/", "/\\", "(+)", "(+*)", "(x)", "(x*)")
_CONSTANTS = ("true", "false", "one", "zero", "top", "bot")
_NUMBERS = ("0", "1", "2.5", "0.75", "inf", "-inf", "-2.5", "1e3", "3.5e-2", "7")
_MAGNITUDES = ("0", "0.5", "1", "2", "3", "7", "64", "100", "inf")
_SCALARS = ("0", "0.5", "1", "2")
_SIG = {"f": ("I",), "g": ("I",), "r": ("I", "K"), "mu": ("K",), "c": ()}


def _leaf(rng: random.Random, bound: tuple) -> str:
    usable = [(a, sig) for a, sig in _SIG.items()
              if all(any(s == want for _, s in bound) for want in sig)]
    kind = rng.choice(["number", "named"] + ["atom"] * 4)
    if kind == "number":
        return rng.choice(_NUMBERS) if rng.random() < 0.3 else \
            repr(round(2.718281828 ** rng.uniform(-0.5, 0.5), 6))
    if kind == "named":
        return rng.choice(_CONSTANTS)
    name, sig = rng.choice(usable)
    args = [rng.choice([v for v, s in bound if s == want]) for want in sig]
    return f"{name}({', '.join(args)})"


def formula_text(rng: random.Random, depth: int, bound: tuple = (("x", "I"),)) -> str:
    """A random formula text; most are well formed, a few mix operators."""
    if depth <= 0 or rng.random() < 0.25:
        return _leaf(rng, bound)

    def sub(b=bound):
        return f"({formula_text(rng, depth - 1, b)})"

    kind = rng.choice(["binop"] * 3 + ["chain", "div", "dual", "scalar", "quant", "quant"])
    if kind == "binop":
        return f"{sub()} {rng.choice(_OPS)} {sub()}"
    if kind == "chain":  # one operator repeated, or (rarely) two mixed
        ops = [rng.choice(_OPS)] * 3
        if rng.random() < 0.1:
            ops[1] = rng.choice(_OPS)
        leaves = [_leaf(rng, bound) + "^*" * rng.randrange(2) for _ in range(rng.randint(2, 4))]
        return leaves[0] + "".join(f" {op} {x}" for op, x in zip(ops, leaves[1:]))
    if kind == "div":
        return f"{sub()} -o {sub()}"
    if kind == "dual":
        return f"{sub()}^*" if rng.random() < 0.7 else f"{_leaf(rng, bound)}^*^*"
    if kind == "scalar":
        body = sub() if rng.random() < 0.7 else formula_text(rng, depth - 1)
        return f"{rng.choice(_SCALARS)} . {body}"
    var = f"v{len(bound)}"
    space = rng.choice(("I", "K"))
    inner = bound + ((var, space),)
    body = sub(inner) if rng.random() < 0.7 else formula_text(rng, depth - 1, inner)
    return f"{rng.choice('EA')}^{rng.choice(_MAGNITUDES)} ({var} in {space}). {body}"


def _mutate(rng: random.Random, text: str, how: str) -> str:
    i = rng.randrange(len(text) + (how == "insert"))
    c = rng.choice(MUTATION_ALPHABET)
    if how == "delete":
        return text[:i] + text[i + 1:]
    if how == "insert":
        return text[:i] + c + text[i:]
    return text[:i] + c + text[i + 1:]


def corpus() -> list[str]:
    """Every text of the corpus, in a fixed order."""
    rng = random.Random(SEED)
    texts = []
    for _ in range(BASE_TEXTS):
        text = formula_text(rng, 5)
        if rng.random() < 0.3:  # no space next to punctuation
            text = re.sub(r"\s*([^\w\s])\s*", r"\1", text)
        texts.append(text)
        texts += [_mutate(rng, text, how) for how in ("delete", "insert", "replace")]
    return texts


def outcome(text: str):
    """What parse makes of text: the formatted tree, or [message, position]."""
    from quantlogic import FormulaSyntaxError, format_formula, parse
    try:
        return format_formula(parse(text))
    except FormulaSyntaxError as exc:
        return [exc.message, exc.position]


def load(path: str) -> list:
    with gzip.open(path, "rt", encoding="utf-8") as fh:
        return json.load(fh)


if __name__ == "__main__":
    src, out = sys.argv[1:]
    sys.path.insert(0, src)
    entries = [[text, outcome(text)] for text in corpus()]
    with gzip.GzipFile(out, "wb", mtime=0) as fh:
        fh.write(json.dumps(entries, ensure_ascii=False, separators=(",", ":")).encode())
