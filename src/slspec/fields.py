"""Readers for the fields of strict JSON documents, shared by every config parser.

Each reader takes an object, a key and the path of the object in the
document ("" at its root), and returns the field's value or raises
ValueError naming the field.  A number is finite and never null or a
boolean (Python's json reads NaN and Infinity); an integer is never a
boolean; lists, objects and strings are checked for their type.

A tagged object {"kind": k, ...} holds the fields of kind k; one table
{kind: (class, fields)} per family serves its reader, tagged, and its writer, to_tagged.
"""

from __future__ import annotations

import sys


def _name(where, key):
    return f"{where}.{key}" if where else key


def _at(where, message):
    return f"{where}: {message}" if where else message


def is_finite_number(v) -> bool:
    # NaN fails the comparison too; an integer too large for a float compares exactly
    return not isinstance(v, bool) and isinstance(v, (int, float)) and abs(v) <= sys.float_info.max


def is_integer(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def check_keys(obj, where, required, optional=()):
    """obj, once it is an object holding every required key and no key outside optional."""
    if not isinstance(obj, dict):
        raise ValueError(_at(where, "expected an object"))
    unknown = set(obj) - set(required) - set(optional)
    missing = set(required) - set(obj)
    if unknown:
        raise ValueError(_at(where, f"unknown keys {sorted(unknown)}"))
    if missing:
        raise ValueError(_at(where, f"missing keys {sorted(missing)}"))
    return obj


def number(obj, key, where, default=None) -> float:
    """The finite number at key, or default when obj has no such key."""
    v = obj.get(key, default)
    if not is_finite_number(v):
        raise ValueError(f"{_name(where, key)} must be a finite number")
    return float(v)


def items(obj, key, where) -> list:
    """The list at key."""
    v = obj.get(key)
    if not isinstance(v, list):
        raise ValueError(f"{_name(where, key)} must be a list")
    return v


def numbers(obj, key, where) -> tuple:
    """The list of finite numbers at key, as a tuple of floats."""
    if not all(map(is_finite_number, items(obj, key, where))):
        raise ValueError(f"{_name(where, key)} must be a list of finite numbers")
    return tuple(float(t) for t in obj[key])


def integer(obj, key, where, minimum, default=None) -> int:
    """The integer >= minimum at key, or default when obj has no such key."""
    v = obj.get(key, default)
    if not is_integer(v) or v < minimum:
        raise ValueError(f"{_name(where, key)} must be an integer >= {minimum}")
    return v


def boolean(obj, key, where) -> bool:
    """The JSON boolean at key, false when obj has no such key."""
    v = obj.get(key, False)
    if not isinstance(v, bool):
        raise ValueError(f"{_name(where, key)} must be true or false")
    return v


def string(obj, key, where, choices=None, default=None) -> str:
    """The string at key, one of choices if they are given, or default when obj has no such key."""
    v = obj.get(key, default)
    if not isinstance(v, str):
        raise ValueError(f"{_name(where, key)} must be a string")
    if choices is not None and v not in choices:
        raise ValueError(f"{_name(where, key)} must be one of {sorted(choices)}, got {v!r}")
    return v


def tagged(obj, where, kinds):
    """The (class, fields) of kinds[obj["kind"]], once obj's other keys are exactly the fields."""
    check_keys(obj, where, {"kind"}, {key for _, keys in kinds.values() for key in keys})
    cls, keys = kinds[string(obj, "kind", where, kinds)]
    check_keys(obj, where, {"kind", *keys})
    return cls, keys


def to_tagged(obj, kinds, what) -> dict:
    """obj as {"kind": ..., **fields} by tagged's table kinds, tuples as lists; else TypeError."""
    for kind, (cls, keys) in kinds.items():
        if isinstance(obj, cls):
            fields = {key: getattr(obj, key) for key in keys}
            return {"kind": kind} | {key: list(t) if isinstance(t, tuple) else t
                                     for key, t in fields.items()}
    raise TypeError(f"not a {what}: {obj!r}")
