"""The text formats: every JSON and CSV document boundarylab writes or reads.

``dumps`` writes strict JSON: a NaN or an infinity is a ``DomainError``, never
``NaN`` or ``Infinity``.  ``csv_text`` and ``records_csv`` write a header row,
then one row per index: a float at 17 significant digits, which reads back as
the same double, None as an empty cell, anything else by ``str``.

Each input document has a table here, field -> JSON-Schema fragment of the
type vocabulary below plus a ``default`` when the field may be left out, which
is also the ``properties`` of the document's JSON Schema.  ``read`` checks a
document against its table and ``check`` one value against one type, with
stricter rules than Draft 7: an integer is a JSON integer literal (``3``, not
``3.0``) within the float range, and a number is never a boolean.  Each
failure is a ``DomainError`` naming the document and the field, so a malformed
file is an input error (the CLI exits 2), never a traceback.
"""

from __future__ import annotations

import dataclasses
import io
import itertools
import json
import numbers
import sys

from .errors import DomainError

_FLOAT = "%.17g"
_ROWS = 2048


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
    memory of a 200,001-row table.  Other columns go cell by cell.  An array
    is told by its ``dtype``, so a table of lists never imports numpy."""
    cells, formats = [], []
    for col in columns:
        if hasattr(col, "dtype"):
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
        block = [c[i:i + _ROWS] if isinstance(c, list) else c[i:i + _ROWS].tolist()
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
    """A float, or an int that ``is_integer``."""
    return isinstance(x, float) or is_integer(x)


def is_integer(x) -> bool:
    """An int, not a boolean, within the float range."""
    return isinstance(x, int) and not isinstance(x, bool) and abs(x) <= sys.float_info.max


def is_index(x) -> bool:
    """An int that ``is_integer`` or a numpy integer (an ``Integral`` that is no
    int), as Python callers pass ids and dimensions; never a boolean."""
    return is_integer(x) or isinstance(x, numbers.Integral) and not isinstance(x, int)


NUMBER = {"type": "number", "description": "a number"}
INTEGER = {"type": "integer", "description": "an integer"}
BOOLEAN = {"type": "boolean", "description": "true or false"}
STRING = {"type": "string", "description": "a string"}
OBJECT = {"type": "object", "description": "an object"}
NUMBERS = {"type": "array", "items": NUMBER, "description": "a list of numbers"}
INTEGERS = {"type": "array", "items": INTEGER, "description": "a list of integers"}
NUMBER_OBJECT = {"type": "object", "additionalProperties": NUMBER,
                 "description": "an object of numbers"}
_SCALARS = {"number": is_number, "integer": is_integer,
            "boolean": lambda x: isinstance(x, bool), "string": lambda x: isinstance(x, str)}

# The input documents, one table each; a tagged one has a table per value of its tag.
_ENDS = ["dirichlet", "neumann"]
_END = {"enum": _ENDS, "default": "dirichlet", "description": f"one of {_ENDS}"}
PROBLEM_HEADER = {"left_bc": _END, "right_bc": _END,
                  "nonneg_ricci_f": {**BOOLEAN, "default": False},
                  "nonneg_mean_curv": {**BOOLEAN, "default": False},
                  "note": {**STRING, "default": ""}}
GRAPH = {"vertices": INTEGER,
         "edges": {"type": "array", "description": "a list of [u, v, length] triples",
                   "items": {"type": "array", "items": [INTEGER, INTEGER, NUMBER],
                             "minItems": 3, "additionalItems": False}},
         "boundary": INTEGERS, "measure": NUMBERS}
MODELS = {  # by tag; a table is also the arguments of its ModelSpace constructor
    "ball": {"n": INTEGER, "kappa": NUMBER, "lam": NUMBER},
    "warped": {"n": INTEGER, "kappa": NUMBER},
    "half_gaussian": {"K": NUMBER, "Lam": NUMBER},
    "exponential": {"Lam": NUMBER},
    "weighted_warped_exp": {"n": INTEGER, "N": NUMBER, "kappa": NUMBER},
    "weighted_warped_gauss": {"n": INTEGER, "kappa": NUMBER, "delta": NUMBER},
}
SCREENS = {  # by kind
    "grid": {"t": NUMBERS, "F": NUMBERS, "full_support": {**BOOLEAN, "default": None}},
    "atoms": {"t": NUMBERS, "p": NUMBERS},
    "closed": {"family": STRING, "params": NUMBER_OBJECT, "scale": {**NUMBER, "default": 1.0},
               "full_support": {**BOOLEAN, "default": True}},
}
SCHEDULES = {"power": {"coef": NUMBER, "exp": NUMBER}, "const": {"value": NUMBER},
             "table": {"values": NUMBER_OBJECT}}  # by kind
# a classification gives a schedule, a canonical sweep its family's parameter
SWEEP_CONFIG = {"family": STRING, "n": INTEGERS, "eta": {**NUMBER, "default": 0.5},
                "schedule": {**OBJECT, "default": None},
                "kappa": {**NUMBER, "default": None}, "lambda": {**NUMBER, "default": None}}


def _is(kind: dict, x) -> bool:
    """Whether ``x`` has the type ``kind``: a scalar, an array of one type or a
    tuple of them, an object of values of one type, an ``enum``, or anything."""
    t = kind.get("type")
    if t in _SCALARS:
        return _SCALARS[t](x)
    if t == "array":
        items = kind["items"]
        if isinstance(items, list):
            return isinstance(x, list) and len(x) == len(items) and all(map(_is, items, x))
        test = _SCALARS.get(items["type"]) or (lambda v: _is(items, v))
        return isinstance(x, list) and all(map(test, x))
    if t == "object":
        values = kind.get("additionalProperties", {})
        return isinstance(x, dict) and all(_is(values, v) for v in x.values())
    return "enum" not in kind or x in kind["enum"]


def check(kind: dict, value, what: str):
    """``value``, a number as a float, if it has the type ``kind``."""
    if not _is(kind, value):
        raise DomainError(f"{what} must be {kind['description']}, got {value!r}")
    return float(value) if kind.get("type") == "number" else value


def read(table: dict, doc, what: str) -> dict:
    """The fields of the JSON object ``doc`` in ``table`` order, each checked,
    or its default when it is absent and has one; an unlisted field is refused last."""
    obj = read_object(doc, what)
    values = {}
    for key, kind in table.items():
        if key in obj:
            values[key] = check(kind, obj.pop(key), f"{what} JSON field {key!r}")
        elif "default" in kind:
            values[key] = kind["default"]
        else:
            raise DomainError(f"{what} JSON missing field {key!r}")
    if obj:
        raise DomainError(f"{what} JSON has unknown field {next(iter(obj))!r}")
    return values
