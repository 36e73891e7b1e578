"""The environment JSON codec."""

import json

import pytest

from quantlogic import (INF, QuantLogicError, environment_from_dict, environment_to_dict,
                        load_environment, save_environment)


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
