"""Fuzzing the front ends: formula texts drawn from the token alphabet, and
environment documents of every shape run through the CLI commands."""

import contextlib
import io
import json
import math

import pytest
from hypothesis import example, given, settings, strategies as st

from quantlogic import FormulaSyntaxError, QuantLogicError, format_formula, parse, parse_value
from quantlogic.cli import _infer_context, main
from quantlogic.environment import load_environment
from quantlogic.formulas import _scan

# Token spellings and near misses; "²" and "①" pass str.isdigit()
# but are no decimal digits.  No piece starts with "h", so that no text can
# spell argparse's --help.
ALPHABET = [
    "\\/", "/\\", "(+)", "(+*)", "(x)", "(x*)", "-", "-o", "-inf", "inf", "^", "^*",
    "(", ")", ".", ",", "*", "+", "0", "2", "1.5", "3e2", "1e999", "²", "①",
    "f", "g", "r", "x", "y", "I", "K", "inf_1", "o", "e",
    "E", "A", "in", "true", "false", "zero", "one", "top", "bot",
    "f(x)", "r(x, y)", "g()", "E^2 (x in I). ", "A^inf (y in K). ",
    " ", "\t", "\n",
]

texts = st.lists(st.sampled_from(ALPHABET), max_size=12).map("".join)

ENV_DOC = {
    "mode": "mul",
    "spaces": {
        "I": {"points": ["a", "b", "c"], "weights": [1, 0.5, 2]},
        "K": {"points": ["u", "v"], "weights": [0.5, 0.5]},
    },
    "atoms": {
        "f": {"context": ["I"], "values": [0, 1, "inf"]},
        "g": {"context": [], "values": [0.25]},
        "r": {"context": ["I", "K"], "values": [1, 2, 0, 4, "inf", 0.5]},
    },
}


@pytest.fixture(scope="module")
def envfile(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "env.json"
    path.write_text(json.dumps(ENV_DOC))
    return str(path)


@settings(max_examples=400, deadline=None)
@given(texts)
def test_parse_fails_only_with_syntax_errors_and_round_trips(text):
    try:
        f = parse(text)
    except FormulaSyntaxError:
        return
    assert parse(format_formula(f)) == f


@settings(max_examples=400, deadline=None)
@given(texts)
@example("f(x, y)")
@example("E^2 (x in I). ef(x) (x) r(y, x)")
def test_context_inference_raises_nothing(envfile, text):
    try:
        f = parse(text)
    except FormulaSyntaxError:
        return
    _infer_context(f, load_environment(envfile))


# Pieces of value literals and near misses: other spellings float() reads,
# non-ASCII digits, and whitespace that str.strip() and the tokenizer skip.
LITERAL_PIECES = ["-", "+", ".", "_", "e", "E", "inf", "in", "f", "Infinity", "nan",
                  "0", "1", "25", "9e9", "\u0661", "\u00b2", " ", "\t", "\x1c", "\xa0",
                  "\u2028", "\u3000"]


@settings(max_examples=1000, deadline=None)
@given(st.text() | st.lists(st.sampled_from(LITERAL_PIECES), max_size=6).map("".join))
def test_value_literals_read_alike_in_values_and_formulas(text):
    try:
        value = parse_value(text)
    except QuantLogicError as exc:
        assert exc.code == "INVALID_VALUE"
        value = None
    try:
        toks = _scan(text)
    except FormulaSyntaxError:
        toks = []
    one_number = [kind for kind, _, _ in toks] == ["NUMBER", "EOF"]
    assert one_number == (value is not None)
    if one_number:
        assert toks[0][1].hex() == value.hex()


@settings(max_examples=150, deadline=None)
@given(text=texts)
def test_cli_eval_exits_0_or_1(envfile, text):
    for mode in ("mul", "add"):
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            rc = main(["eval", "--env", envfile, "--mode", mode, text])
        assert rc in (0, 1)


# Environment documents: a well-formed document, then up to two defects
# (NaN/inf tokens, integers beyond the double range, wrong types and shapes,
# contexts or value counts that do not match the spaces), or raw bytes.
BAD = st.one_of(st.floats(), st.sampled_from(
    [-1, "-inf", " inf", "nan", "x", 10 ** 400, -(10 ** 400), True, None, [1]]))
JUNK = st.recursive(st.none() | st.booleans() | st.integers() | st.text(max_size=3),
                    lambda inner: st.lists(inner, max_size=3)
                    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
                    max_leaves=6)
RAW = [b"", b"{", b"nul", b"1" * 5000, b"[" * 100000, b"\xff\xfe{}"]
DEFECTS = ("value", "weight", "context", "count", "labels", "shape", "mode")


@st.composite
def environment_documents(draw) -> bytes:
    if draw(st.integers(0, 9)) == 0:
        return draw(st.sampled_from(RAW) | JUNK.map(lambda d: json.dumps(d).encode()))
    mode = draw(st.sampled_from(["mul", "add"]))
    value = (st.floats(0.0, 4.0) if mode == "mul" else st.floats(-4.0, 4.0)) \
        | st.sampled_from([0, "inf", 10 ** 400] + (["-inf"] if mode == "add" else []))
    sizes = {"I": draw(st.integers(1, 3)), "K": draw(st.integers(1, 3))}
    tidy = draw(st.booleans())  # I counts its points and phi is uniform on it
    spaces = {name: {"points": list("abc"[:n]),
                     "weights": [1] * n if tidy and name == "I" else draw(st.lists(
                         st.floats(0.0, 4.0) | st.sampled_from([0, 1, 1e308]),
                         min_size=n, max_size=n))}
              for name, n in sizes.items()}
    atoms = {name: {"context": context, "values": draw(st.lists(
                 value, min_size=math.prod(sizes[c] for c in context),
                 max_size=math.prod(sizes[c] for c in context)))}
             for name, context in (("f", ["I"]), ("phi", ["I"]), ("r", ["I", "K"]))}
    if tidy:
        atoms["phi"]["values"] = [1.0 / sizes["I"]] * sizes["I"]
    doc = {"mode": mode, "spaces": spaces, "atoms": atoms}
    # in the order of DEFECTS, so that no defect reads what "shape" replaced
    for defect in sorted(draw(st.lists(st.sampled_from(DEFECTS), max_size=2)),
                         key=DEFECTS.index):
        space = spaces[draw(st.sampled_from(sorted(spaces)))]
        atom = atoms[draw(st.sampled_from(sorted(atoms)))]
        if defect == "value":
            atom["values"][draw(st.integers(0, len(atom["values"]) - 1))] = draw(BAD)
        elif defect == "weight":
            space["weights"][draw(st.integers(0, len(space["weights"]) - 1))] = draw(BAD)
        elif defect == "context":
            atom["context"] = draw(st.lists(st.sampled_from(["I", "K", "J", 3]), max_size=2))
        elif defect == "count":
            atom["values"] = atom["values"][1:] if draw(st.booleans()) else atom["values"] * 2
        elif defect == "labels":
            space["points"] = draw(st.lists(st.sampled_from(["a", 0, "0", ""]),
                                            min_size=len(space["points"]),
                                            max_size=len(space["points"])))
        elif defect == "shape":
            target = draw(st.sampled_from([doc, spaces, atoms]))
            target[draw(st.sampled_from(sorted(target)))] = draw(JUNK)
        else:
            doc["mode"] = draw(JUNK)
    return json.dumps(doc).encode()


def env_commands(path: str, p: str) -> list[list[str]]:
    env = ["--env", path]
    return [
        ["eval", *env, "E^2 (x in I). f(x)"],
        ["eval", *env, "--mode", "add", "A^0 (y in K). r(x, y)"],
        ["softmax", *env, "f", "--p", p],
        ["entropy", *env, "phi", "--p", p],
        ["plot-data", *env, "f", "--grid", "0.5:4:3"],
        ["doctrine", *env, "reflexivity", "--space", "I", "--p", p],
        ["doctrine", *env, "adjunction", "--space", "I", "--space2", "K",
         "--trials", "2", "--p", p],
        ["doctrine", *env, "transitivity-search", "--space", "I", "--trials", "3"],
    ]


@settings(max_examples=150, deadline=None)
@given(data=environment_documents(),
       p=st.sampled_from(["0", "0.5", "1", "2", "inf", "1e-300", "nan", "-1"]))
def test_cli_on_fuzzed_environments_exits_0_1_or_2(tmp_path_factory, data, p):
    path = tmp_path_factory.getbasetemp() / "fuzz-env.json"
    path.write_bytes(data)
    for argv in env_commands(str(path), p):
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            rc = main(argv)
        assert rc in (0, 1, 2), argv
