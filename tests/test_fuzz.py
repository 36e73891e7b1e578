"""Fuzzing the formula front end with texts drawn from the token alphabet."""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from quantlogic import FormulaSyntaxError, format_formula, parse
from quantlogic.cli import main

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


@settings(max_examples=150, deadline=None)
@given(text=texts)
def test_cli_eval_exits_0_or_1(envfile, text):
    for mode in ("mul", "add"):
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            rc = main(["eval", "--env", envfile, "--mode", mode, text])
        assert rc in (0, 1)
