"""Evaluation environments: named spaces plus tabulated atoms.

The on-disk format is JSON::

    {
      "mode": "mul",
      "spaces": {"X": {"points": ["x1", "x2"], "weights": [0.5, 0.5]}},
      "atoms":  {"f": {"context": ["X"], "values": [1, 3]}}
    }

Atom values are row-major over the context spaces (last space fastest) and
may be JSON numbers or the strings "inf"/"-inf".  ``mode`` declares which
carrier the tables live in: "mul" values must be nonnegative, "add" values
may be any extended real; NaN is rejected everywhere.  "spaces" and "atoms"
may be left out (or null), and are objects where they are given.

Values are decoded and checked a table at a time.  A few passes over a whole
array clear a table of plain numbers and exact value tokens (``_decode_table``,
then the carrier's ``check_table``, or ``make_space`` for weights); the scalar
codec (``_decode_number``, then ``check_add``, the one reader of numbers)
decides, value by value, any table those passes cannot clear, so that the
first fault is reported as it reports it.  The napier maps' tables are carrier
values by construction and are not checked again (``translate_environment``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .errors import QuantLogicError
from .extreal import INF_TOKENS, _check_count
from .pmeans import carrier
from .spaces import Space, make_space


@dataclass(frozen=True)
class AtomTable:
    """A tabulated atom: context space names and a row-major value table."""

    context: tuple[str, ...]
    values: tuple[float, ...]


@dataclass(frozen=True)
class Environment:
    mode: str  # "mul" | "add"
    spaces: dict[str, Space]
    atoms: dict[str, AtomTable]


def make_environment(mode: str, spaces: dict[str, Space],
                     atoms: dict[str, AtomTable]) -> Environment:
    """Validate and build an Environment; atom values are stored as floats."""
    check = carrier(mode).check_table
    try:
        spaces, atoms = dict(spaces), dict(atoms)
    except (TypeError, ValueError):
        raise QuantLogicError("ENV_FORMAT", "spaces and atoms are mappings by name") from None
    for name, space in spaces.items():
        if not isinstance(space, Space):
            raise QuantLogicError("ENV_FORMAT", f"space {name!r} is no Space: {space!r}")
    checked: dict[str, AtomTable] = {}
    for name, table in atoms.items():
        if not isinstance(table, AtomTable):
            raise QuantLogicError("ENV_FORMAT", f"atom {name!r} is no AtomTable: {table!r}")
        size = 1
        for space_name in table.context:
            if space_name not in spaces:
                raise QuantLogicError(
                    "UNKNOWN_SPACE",
                    f"atom {name!r} refers to unknown space {space_name!r}")
            size *= len(spaces[space_name])
        checked[name] = AtomTable(table.context,
                                  check(_check_count(table.values, size, f"atom {name!r}")))
    return Environment(mode, spaces, checked)


_TOKEN_VALUES = {token: value for value, token in INF_TOKENS.items()}


def _decode_number(x, where: str) -> float | int:
    if isinstance(x, str):
        value = _TOKEN_VALUES.get(x.strip())
        if value is not None:
            return value
        raise QuantLogicError("ENV_FORMAT", f"{where}: bad value token {x!r}")
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise QuantLogicError("ENV_FORMAT", f"{where}: expected a number, got {x!r}")
    return x  # read where it is checked, by check_add


def _decode_table(xs: list, where: str) -> tuple[float | int, ...]:
    """_decode_number on each value of a JSON array: in a few passes where they
    are numbers and exact value tokens, else value by value, so that the first
    fault raises as _decode_number raises it."""
    types = set(map(type, xs))
    try:
        if str in types:
            xs = list(map(_TOKEN_VALUES.get, xs, xs))
            types = set(map(type, xs))
        if types <= {float, int}:
            return tuple(xs)
    except TypeError:  # an unhashable value
        pass
    return tuple([_decode_number(x, where) for x in xs])


def _encode_number(x: float):
    return INF_TOKENS.get(x, x)


def _lists(spec, what: str, keys: tuple[str, str]) -> list:
    """spec[key] for each key, where spec is an object and each value an array."""
    if not (isinstance(spec, dict) and all(isinstance(spec.get(k), (list, tuple)) for k in keys)):
        raise QuantLogicError("ENV_FORMAT", f"{what} needs lists {keys[0]!r} and {keys[1]!r}")
    return [spec[k] for k in keys]


def environment_from_dict(doc: dict) -> Environment:
    if not isinstance(doc, dict) or not all(
            isinstance({} if doc.get(k) is None else doc[k], dict) for k in ("spaces", "atoms")):
        raise QuantLogicError("ENV_FORMAT",
                              "environment must be a JSON object with objects "
                              "'spaces' and 'atoms'")
    spaces: dict[str, Space] = {}
    for name, spec in (doc.get("spaces") or {}).items():
        points, weights = _lists(spec, f"space {name!r}", ("points", "weights"))
        spaces[name] = make_space(points, _decode_table(weights, f"space {name!r}"), name=name)
    atoms: dict[str, AtomTable] = {}
    for name, spec in (doc.get("atoms") or {}).items():
        context, values = _lists(spec, f"atom {name!r}", ("context", "values"))
        if not all(isinstance(s, str) for s in context):
            raise QuantLogicError("ENV_FORMAT", f"atom {name!r}: context lists space names")
        atoms[name] = AtomTable(tuple(context), _decode_table(values, f"atom {name!r}"))
    return make_environment(doc.get("mode", "mul"), spaces, atoms)


def environment_to_dict(env: Environment) -> dict:
    return {
        "mode": env.mode,
        "spaces": {
            name: {"points": list(sp.points),
                   "weights": [_encode_number(w) for w in sp.weights]}
            for name, sp in env.spaces.items()
        },
        "atoms": {
            name: {"context": list(t.context),
                   "values": [_encode_number(v) for v in t.values]}
            for name, t in env.atoms.items()
        },
    }


def load_environment(path: str) -> Environment:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as e:
        raise QuantLogicError("ENV_IO", f"cannot read {path!r}: {e}") from None
    except (ValueError, RecursionError) as e:  # also bad UTF-8, huge integers, deep nesting
        raise QuantLogicError("ENV_FORMAT", f"{path!r} is not valid JSON: {e}") from None
    return environment_from_dict(doc)


def save_environment(env: Environment, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(environment_to_dict(env), fh, indent=2)
        fh.write("\n")


def translate_environment(env: Environment) -> Environment:
    """Napier-translate every atom table into the opposite carrier.

    The napier maps take carrier values to carrier values, so the translated
    tables are not checked again.
    """
    c = carrier(env.mode)
    atoms = {name: AtomTable(t.context, tuple(c.napier_table(t.values)))
             for name, t in env.atoms.items()}
    return Environment(c.other, dict(env.spaces), atoms)
