"""The text formats: every JSON and CSV document boundarylab writes or reads.

``dumps`` writes strict JSON: a NaN or an infinity is a ``DomainError``, never
``NaN`` or ``Infinity``.  ``csv_text`` and ``records_csv`` write a header row,
then one row per index: a float at 17 significant digits, which reads back as
the same double, None as an empty cell, anything else by ``str``.
``read_object`` parses a JSON object; ``number`` (never a boolean),
``integer``, ``boolean``, ``string``, ``numbers`` (a list of numbers),
``number_object`` and ``field`` (any test) read one of its fields.  Each failure is a
``DomainError`` naming the document and the field, so a malformed file is an
input error (the CLI exits 2), never a traceback.
"""

from __future__ import annotations

import dataclasses
import io
import itertools
import json
import sys

import numpy as np

from .errors import DomainError

_FLOAT = "%.17g"
_ROWS = 2048
_REQUIRED = object()


def dumps(obj) -> str:
    try:
        return json.dumps(obj, allow_nan=False)
    except ValueError as exc:
        raise DomainError(f"result is not finite: {exc}") from None


def csv_text(names, columns, preamble: str = "") -> str:
    """``preamble``, header ``names``, then row i of the i-th cells of
    ``columns``.  A float array is formatted as a column, ``_ROWS`` rows at a
    time into one buffer: a whole column at once holds a float object per
    cell, and prepending to a finished text copies it, each raising the peak
    memory of a 200,001-row table.  Other columns go cell by cell."""
    cells, formats = [], []
    for col in columns:
        if isinstance(col, np.ndarray):
            cells.append(col)
            formats.append(_FLOAT)
        else:
            cells.append(["" if x is None else _FLOAT % x if isinstance(x, float) else str(x)
                          for x in col])
            formats.append("%s")
    row = ",".join(formats) + "\n"
    buf = io.StringIO()
    buf.write(preamble + ",".join(names) + "\n")
    for i in range(0, len(cells[0]), _ROWS):
        block = [c[i:i + _ROWS].tolist() if isinstance(c, np.ndarray) else c[i:i + _ROWS]
                 for c in cells]
        buf.write(row * len(block[0]) % tuple(itertools.chain.from_iterable(zip(*block))))
    return buf.getvalue()


def records_csv(cls, records) -> str:
    """``csv_text`` of dataclass ``records``: one column per field of ``cls``."""
    names = [f.name for f in dataclasses.fields(cls)]
    return csv_text(names, [[getattr(r, name) for r in records] for name in names])


def read_object(text, what: str) -> dict:
    """A copy of the JSON object ``text`` holds, or of ``text`` if it is a dict."""
    if isinstance(text, str):
        try:
            text = json.loads(text)
        except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: deep nesting
            raise DomainError(f"bad {what} JSON: {exc}") from None
    if not isinstance(text, dict):
        raise DomainError(f"bad {what} JSON: expected a JSON object, got {text!r}")
    return dict(text)


def is_number(x) -> bool:
    """An int (not a boolean) within the float range, or a float."""
    return isinstance(x, float) or (is_integer(x) and abs(x) <= sys.float_info.max)


def is_integer(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def field(obj: dict, key: str, what: str, ok=None, kind: str = "", default=_REQUIRED):
    """``obj[key]``, which must pass ``ok`` (it must be ``kind``), or ``default``
    when the field is absent and has one."""
    if key not in obj:
        if default is _REQUIRED:
            raise DomainError(f"{what} JSON missing field {key!r}")
        return default
    value = obj[key]
    if ok is not None and not ok(value):
        raise DomainError(f"{what} JSON field {key!r} must be {kind}, got {value!r}")
    return value


def number(obj: dict, key: str, what: str, default=_REQUIRED):
    """A number field, as a float."""
    value = field(obj, key, what, is_number, "a number", default)
    return value if value is default else float(value)


def _getter(ok, kind: str):
    def get(obj: dict, key: str, what: str, default=_REQUIRED):
        return field(obj, key, what, ok, kind, default)
    return get


integer = _getter(is_integer, "an integer")
boolean = _getter(lambda x: isinstance(x, bool), "true or false")
string = _getter(lambda x: isinstance(x, str), "a string")
numbers = _getter(lambda x: isinstance(x, list) and all(map(is_number, x)), "a list of numbers")
number_object = _getter(lambda x: isinstance(x, dict) and all(map(is_number, x.values())),
                        "an object of numbers")
