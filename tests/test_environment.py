"""The environment JSON codec."""

import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from quantlogic import (INF, QuantLogicError, environment_from_dict, environment_to_dict,
                        extreal, load_environment, save_environment, translate_environment)
from quantlogic import environment
from quantlogic.pmeans import carrier


@pytest.mark.parametrize("mode, values", [
    ("mul", [0, 1.5, INF, 0.25]),
    ("add", [-INF, 1.5, INF, -0.25]),
])
def test_round_trip(tmp_path, mode, values):
    env = environment_from_dict({
        "mode": mode,
        "spaces": {"I": {"points": ["a", "b"], "weights": [0, 2.5]},
                   "K": {"points": ["u", "v"], "weights": [1, 1]}},
        "atoms": {"r": {"context": ["I", "K"], "values": values},
                  "c": {"context": [], "values": [values[2]]}},
    })
    assert environment_from_dict(environment_to_dict(env)) == env
    path = tmp_path / "env.json"
    save_environment(env, str(path))
    assert load_environment(str(path)) == env
    # infinities are written as the value tokens, so the file is strict JSON
    json.loads(path.read_text(), parse_constant=lambda token: pytest.fail(token))


def test_integers_beyond_the_double_range_read_as_infinities():
    env = environment_from_dict({
        "mode": "add", "spaces": {"I": {"points": ["a", "b"], "weights": [1, 1]}},
        "atoms": {"f": {"context": ["I"], "values": [10 ** 400, -(10 ** 400)]}}})
    assert env.atoms["f"].values == (INF, -INF)


@pytest.mark.parametrize("text", [b"1" * 5000, b"[" * 100000, b"\xff\xfe{}"],
                         ids=["long-integer", "deep-nesting", "bad-utf-8"])
def test_unreadable_json_is_a_format_error(tmp_path, text):
    path = tmp_path / "env.json"
    path.write_bytes(text)
    with pytest.raises(QuantLogicError) as err:
        load_environment(str(path))
    assert err.value.code == "ENV_FORMAT"


# ---------------------------------------------------------------------------
# the table codec: a few passes per table, the scalar codec where they fail
# ---------------------------------------------------------------------------

CLEAN = st.one_of(
    st.floats(allow_nan=False),
    st.sampled_from([0.0, -0.0, 1.0, INF, -INF, "inf", "-inf"]),
    st.integers(-(10 ** 6), 10 ** 6),
)
DIRTY = st.one_of(
    st.floats(),                                   # JSON NaN included
    st.integers(),
    st.sampled_from([10 ** 400, -(10 ** 400), 2 ** 1024, math.nan]),
    st.booleans(), st.none(), st.lists(st.integers(), max_size=2),
    st.sampled_from(["inf", " -inf ", "nan", "1"]),
)
WHERE = "atom 'f'"


def outcome(codec, values, mode):
    """The decoded and checked values as float.hex, or the first fault."""
    try:
        return [x.hex() for x in codec(values, mode)]
    except QuantLogicError as err:
        return err.code, err.message


def scalar_codec(values, mode):
    decoded = [environment._decode_number(v, WHERE) for v in values]
    return [carrier(mode).check(x) for x in decoded]


def table_codec(values, mode):
    return carrier(mode).check_table(environment._decode_table(values, WHERE))


@settings(max_examples=500, deadline=None)
@given(values=st.lists(CLEAN, max_size=12) | st.lists(CLEAN | DIRTY, max_size=12),
       mode=st.sampled_from(["mul", "add"]))
def test_the_table_codec_matches_the_scalar_codec(values, mode):
    assert outcome(table_codec, values, mode) == outcome(scalar_codec, values, mode)


@pytest.fixture
def scalar_codec_calls(monkeypatch):
    """The number of calls made so far to the scalar codec: _decode_number,
    check_mul and check_add."""
    calls = [0]
    for module, name in ((environment, "_decode_number"), (extreal, "check_mul"),
                         (extreal, "check_add")):
        def spy(*args, _fn=getattr(module, name)):
            calls[0] += 1
            return _fn(*args)
        monkeypatch.setattr(module, name, spy)
    return calls


@pytest.mark.parametrize("mode, row", [
    ("mul", [0, 1.5, "inf", -0.0, 2 ** 40]),
    ("add", [0, -1.5, "inf", "-inf", -0.0]),  # both infinities: the sum is NaN
])
def test_clean_tables_make_no_scalar_codec_call(tmp_path, scalar_codec_calls, mode, row):
    n = 10_000
    values = [row[i % len(row)] for i in range(n)]
    path = tmp_path / "env.json"
    path.write_text(json.dumps({
        "mode": mode, "spaces": {"I": {"points": list(range(n)), "weights": [0.5] * n}},
        "atoms": {"f": {"context": ["I"], "values": values}}}))
    env = load_environment(str(path))
    assert scalar_codec_calls[0] == 0
    translate_environment(translate_environment(env))
    assert scalar_codec_calls[0] == 0
    assert [x.hex() for x in env.atoms["f"].values] == \
        [x.hex() for x in scalar_codec(values, mode)]


@pytest.mark.parametrize("context, code", [(["I", "Nope"], "UNKNOWN_SPACE"),
                                           (["I", 1], "ENV_FORMAT")])
def test_atom_contexts_name_declared_spaces(context, code):
    doc = {"spaces": {"I": {"points": ["a"], "weights": [1]}},
           "atoms": {"f": {"context": context, "values": [1]}}}
    with pytest.raises(QuantLogicError) as err:
        environment_from_dict(doc)
    assert err.value.code == code
