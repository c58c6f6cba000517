"""The reading rules of every JSON input document.

baoc hands its work from stage to stage as JSON documents: the model
description, the stream profiles, the partition blocks with their metrics,
the problem, the plan, the cost model and the risk settings. Their readers
use only these functions, so one rule reads each kind of value: a number is
a finite JSON int or float, never a bool, a string or null (only
`json_number_or_inf` also takes Infinity, which `json` writes for an
infinite float); an integer is a JSON int in the 64-bit range; a flag, a
string, a list and an object are just that.

A value that breaks its rule raises `BadValue`, "must be ..., got <the value
as JSON>". `read`, `read_list` and `naming` put the key or entry in front
("blocks[3]: 'phi' must be a finite number, got \"0.5\""), and `load` the
file, so a malformed document is one ValueError that says where it is.
"""

from __future__ import annotations

import json
import math
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterator, TypeVar

import numpy as np

T = TypeVar("T")
_REQUIRED = object()
_FLOAT_MAX = sys.float_info.max


class BadValue(ValueError):
    """A value that breaks its reading rule; `naming` puts its key or entry in front."""

    def __init__(self, expected: str, value: object) -> None:
        text = json.dumps(value, default=repr)
        super().__init__(f"must be {expected}, got {text if len(text) <= 60 else text[:57] + '...'}")


def _finite_number(value: object) -> bool:
    return type(value) in (int, float) and -_FLOAT_MAX <= value <= _FLOAT_MAX


def json_number(value: object) -> float:
    """A finite JSON number, as a float; floats read back bit-identical."""
    if _finite_number(value):
        return float(value)
    raise BadValue("a finite number", value)


def json_number_or_inf(value: object) -> float:
    """A finite JSON number or Infinity, which `json` writes for an infinite float."""
    if _finite_number(value) or (type(value) is float and value == math.inf):
        return float(value)
    raise BadValue("a finite number or Infinity", value)


def json_fraction(value: object) -> float:
    """A finite number in (0, 1], such as a sampling ratio or a precision cosine."""
    number = json_number(value)
    if 0 < number <= 1:
        return number
    raise BadValue("a number in (0, 1]", value)


def json_int(value: object) -> int:
    """A JSON integer in the 64-bit range; a float such as 2.0, a string or a bool is rejected."""
    if type(value) is int and -(2**63) <= value < 2**63:
        return value
    raise BadValue("a 64-bit integer", value)


def json_count(value: object) -> int:
    """A JSON integer >= 1 in the 64-bit range, such as a number of steps or samples."""
    if type(value) is int and 1 <= value < 2**63:
        return value
    raise BadValue("an integer >= 1", value)


def json_ints(values: object) -> np.ndarray:
    """A JSON list of integers in the 64-bit range as a read-only 1-D int64
    array, which a reader can keep as it is; the error names the first
    element that is not an integer."""
    if not isinstance(values, (list, tuple)):
        raise ValueError(f"expected a list of integers, got {type(values).__name__}")
    if not set(map(type, values)) <= {int}:
        bad = next(v for v in values if type(v) is not int)
        raise ValueError(f"{bad!r} is not an integer")
    try:
        array = np.array(values, dtype=np.int64)
    except OverflowError:
        raise ValueError("expected integers in the 64-bit range") from None
    array.flags.writeable = False
    return array


def json_bool(value: object) -> bool:
    if type(value) is bool:
        return value
    raise BadValue("true or false", value)


def json_str(value: object) -> str:
    if type(value) is str:
        return value
    raise BadValue("a string", value)


def json_list(value: object) -> list:
    if type(value) is list:
        return value
    raise BadValue("a list", value)


def json_object(value: object) -> dict:
    if type(value) is dict:
        return value
    raise BadValue("an object", value)


def _named(where: str, exc: ValueError) -> ValueError:
    """`exc` with `where` in front: "<where> must be ..." for a `BadValue`,
    "<where>: <message>" for any other."""
    return ValueError(f"{where} {exc}" if isinstance(exc, BadValue) else f"{where}: {exc}")


@contextmanager
def naming(where: str) -> Iterator[None]:
    """Put `where` in front of a ValueError raised inside, as `_named` does."""
    try:
        yield
    except ValueError as exc:
        raise _named(where, exc) from None


def read(d: object, key: str, parse: Callable[[object], T], default: object = _REQUIRED) -> T:
    """`parse(d[key])` of an object `d`, naming the key in its error; `default`
    when `d` lacks the key, and a ValueError when there is no default."""
    if key not in json_object(d):
        if default is _REQUIRED:
            raise ValueError(f"missing key {key!r}")
        return default
    try:
        return parse(d[key])
    except ValueError as exc:
        raise _named(repr(key), exc) from None


def read_list(d: object, key: str, parse: Callable[[object], T], default: object = _REQUIRED) -> list[T]:
    """`parse` of each element of the list `d[key]`, an error naming the element
    as `key[i]`; `default` when `d` lacks the key."""
    parsed = []
    for i, value in enumerate(read(d, key, json_list, default)):
        try:
            parsed.append(parse(value))
        except ValueError as exc:
            raise _named(f"{key}[{i}]", exc) from None
    return parsed


def load(path: str | Path, label: str, parse: Callable[[dict], T]) -> T:
    """`parse` of the JSON object in the file at `path`.

    Text that is not JSON, a document that is not an object and any value
    `parse` rejects raise one ValueError that starts with "<label> <path>: ".
    A file that cannot be opened raises OSError.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return parse(json_object(json.load(fh)))
        except ValueError as exc:
            raise ValueError(f"{label} {path}: {exc}") from None
