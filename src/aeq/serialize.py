"""Point-set and report serialization.

Point sets travel as JSON {"dim": d, "mode": "float"|"exact", "points":
[...]} with exact coordinates encoded as "p/q" strings, or as plain CSV
(one point per row, floating only).

Reports are rendered in one walk: a dataclass is an object of its fields
in field order, a dict an object keyed by ``str(key)``, a list, tuple or
``np.ndarray`` (through ``tolist()``) an array, a ``Fraction`` the string
``"p/q"``, a float or numpy float ``format(x, ".17g")``, which round-trips
(a negative zero is ``-0.0``), and ``None``, bools, ints, numpy integers and
strings their JSON. NaN and infinity raise ``ValueError`` (the CLI exits 2),
any other type ``TypeError``. Items go one to a line, a space of indent a level.
The walk dispatches on the exact type first (float, int, str, bool, None,
dict, list, tuple), escaping strings with ``json.encoder.encode_basestring_ascii``,
the function behind ``json.dumps`` of a string; subclasses of those types,
numpy values, Fractions and dataclasses take an isinstance chain. Both give
the texts of the rule above.

JSON point sets are decoded by one rule: orjson reads the text and
``pointset_from_dict`` checks the tree; if either raises ``ValueError``,
the stdlib ``json`` re-reads the text and that result, or that error,
stands. The two parsers give the same floats, bit for bit; orjson refuses
what only the stdlib reads (NaN, Infinity, 1e400, lone surrogates) and
turns integers past 64 bits into floats, which are the same numbers in
float mode and fail the exact-mode check, so those documents load or fail
exactly as the stdlib alone would have them.

Exact coordinates are decoded by one rule as well, ``geometry._integer_form``:
where the coordinates are strings and ints whose values repeat, each
distinct value is converted once by ``_ratio`` and every coordinate looked
up (no string equals an int, and a ``true`` keeps the lookup out, so
``true`` and ``1`` stay apart). A document that this pass does not take
(``dim`` not an int of at least 1, a row that is not a list of ``dim``
coordinates, a coordinate that is not a string or an int or that ``_ratio``
rejects, or values that mostly do not repeat) takes the per-coordinate row
walk, and that result, or that error, stands; the walk names the first bad
coordinate in row order.

CSV texts, points and matrices alike, are read by one rule too. A text that
is ASCII, holds only digits, ``+ - . e E``, commas, spaces and newlines, and
has no integer token ``-0``, is read by orjson as ``[[`` + its lines joined
by ``],[`` + ``]]``, blank lines dropped; any other text, or one that orjson
refuses, takes the line walk ``_csv_rows``, and that result, or that error,
stands. Those characters leave orjson only numbers to read, one list per
line; JSON's numbers are a subset of what ``float()`` reads, and orjson
gives the same floats, refuses the ones past the float range and turns
integers past 64 bits into ``float()``'s float. So the line walk reads
``-0`` (orjson's int 0, ``float()``'s -0.0), ``+1``, ``.5``, ``1.``, empty
cells, trailing commas, space-only separators, tabs, carriage returns,
comments, ``nan``, ``inf`` and ``1e400``.
"""
from __future__ import annotations

import json
import math
import re
from dataclasses import fields, is_dataclass
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import Tuple

import numpy as np
import orjson

from .geometry import EXACT_MODE, FLOAT_MODE, PointSet, _checked_rows, _integer_form


def pointset_to_dict(s: PointSet) -> dict:
    if s.mode == EXACT_MODE:
        points = [[str(c) for c in row] for row in s.points]
    else:
        points = s.array.tolist()
    return {"dim": s.dim, "mode": s.mode, "points": points}


# Fraction(text) builds 10**exponent; past Python's own limit of 4300
# digits on int strings that takes seconds, then minutes
MAX_EXPONENT = 4300
_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)\s*\Z")


def _fraction(text: str) -> Fraction:
    exponent = _EXPONENT.search(text)
    if exponent and abs(int(exponent[1])) > MAX_EXPONENT:
        raise ValueError(f"coordinate {text!r} has an exponent beyond {MAX_EXPONENT}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"coordinate {text!r} has a zero denominator") from None


def _float(text: str) -> float:
    """The float nearest Fraction(text); past the float range an infinity,
    which the point set rejects as non-finite. Fraction has no negative
    zero, so a zero written with a "-" reads as -0.0."""
    f = _fraction(text)
    if not f and text.lstrip().startswith("-"):
        return -0.0
    try:
        return float(f)
    except OverflowError:
        return math.inf if f > 0 else -math.inf


def _ratio(c) -> Tuple[int, int]:
    """(p, q) with p / q the value of an exact-mode coordinate and q > 0, not
    always in lowest terms: an int as (c, 1); "p" and "p/q" in ASCII digits,
    p with an optional "-", as two ints; any other string through Fraction,
    for its values and errors; any other type raises."""
    if isinstance(c, str):
        num, slash, den = c.partition("/")
        digits = num[1:] if num[:1] == "-" else num
        if digits.isascii() and digits.isdigit():
            if not slash:
                return int(num), 1
            if den.isascii() and den.isdigit() and (d := int(den)) > 0:
                return int(num), d
        f = _fraction(c)
        return f.numerator, f.denominator
    if isinstance(c, bool) or not isinstance(c, int):
        raise ValueError("exact mode coordinates must be integers or 'p/q' strings")
    return c, 1


def pointset_from_dict(obj: dict) -> PointSet:
    if not isinstance(obj, dict):
        raise ValueError("point set JSON must be an object")
    try:
        dim = obj["dim"]
        mode = obj.get("mode", FLOAT_MODE)
        rows = obj["points"]
    except KeyError as e:
        raise ValueError(f"point set JSON missing key {e}")
    integral = isinstance(dim, int) or (isinstance(dim, float) and dim.is_integer())
    if isinstance(dim, bool) or not integral:
        raise ValueError(f"dim must be an integer, got {dim!r}")
    if not isinstance(rows, list) or not rows:
        raise ValueError("points must be a nonempty list")
    if mode == EXACT_MODE:
        def walk():  # each coordinate, then dim and the row widths
            return _checked_rows(int(dim), [_walked_row(r, _ratio) for r in rows], list)

        return PointSet._from_integers(*_integer_form(dim, rows, _ratio, walk))
    # a float row of plain JSON numbers needs no per-coordinate walk; a
    # bool, str or any other type in it sends the row down the walk
    parsed = [row if isinstance(row, list) and set(map(type, row)) <= {int, float}
              else _walked_row(row, _float_coordinate) for row in rows]
    return PointSet(dim=int(dim), points=parsed, mode=mode)


def _float_coordinate(c):
    """A float-mode coordinate: a number, or a string read by _float."""
    if isinstance(c, str):
        return _float(c)
    if isinstance(c, bool) or not isinstance(c, (int, float)):
        raise ValueError("coordinates must be numbers")
    return c


def _walked_row(row, coordinate) -> list:
    """The per-coordinate walk of one row, which must be a list."""
    if not isinstance(row, list):
        raise ValueError("each point must be a list of coordinates")
    return [coordinate(c) for c in row]


def load_pointset(text: str) -> PointSet:
    """The point set of a JSON text, by the module's decode rule."""
    try:
        return pointset_from_dict(orjson.loads(text))
    except ValueError:  # orjson.JSONDecodeError is one
        pass
    try:
        obj = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as e:
        raise ValueError(f"invalid JSON: {e}")
    return pointset_from_dict(obj)


# the characters of a CSV text that orjson may read (module docstring)
_JSON_CSV_CHARS = b"0123456789+-.eE, \n"
# an integer token -0: orjson reads the int 0, float() reads -0.0
_INTEGER_NEGATIVE_ZERO = re.compile(rb"-0(?![0-9.eE])")


def _json_csv_rows(text: str):
    """The rows of a CSV text read by orjson, one per line, blank lines
    as empty rows; None when the module's CSV rule sends the text to the
    line walk."""
    if not text.isascii():
        return None
    raw = text.encode()
    if raw.translate(None, _JSON_CSV_CHARS) or _INTEGER_NEGATIVE_ZERO.search(raw):
        return None
    try:
        return orjson.loads(b"[[" + raw.replace(b"\n", b"],[") + b"]]")
    except ValueError:  # orjson.JSONDecodeError is one
        return None


def _read_csv(text: str, cell: str):
    """(line number, row of numbers) for each row of a CSV text, by the
    module's CSV rule: orjson's rows when it reads the text, else the line
    walk's rows, lazily, so its error comes after the rows before it."""
    rows = _json_csv_rows(text)
    if rows is None:
        return _csv_rows(text, cell)
    return [(lineno, row) for lineno, row in enumerate(rows, 1) if row]


def _csv_rows(text: str, cell: str):
    """The line walk: (line number, row of floats) for each line of a CSV
    text that is not blank or a # comment, its cells split on commas and
    spaces; a cell that float() rejects raises "line N: non-numeric <cell>".
    It reads every text that orjson does not (module docstring), and is the
    oracle of the orjson read."""
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            row = list(map(float, line.replace(",", " ").split()))
        except ValueError:
            raise ValueError(f"line {lineno}: non-numeric {cell}") from None
        yield lineno, row


def load_pointset_csv(text: str) -> PointSet:
    rows = [row for _, row in _read_csv(text, "coordinate")]
    if not rows:
        raise ValueError("empty point CSV")
    width = len(rows[0])
    for i, r in enumerate(rows, 1):
        if len(r) != width:
            raise ValueError(f"ragged CSV: row {i} has {len(r)} columns, expected {width}")
    return PointSet(dim=width, points=rows)


def load_matrix_csv(text: str) -> np.ndarray:
    rows = []
    for lineno, row in _read_csv(text, "entry"):
        if not all(map(math.isfinite, row)):
            raise ValueError(f"line {lineno}: entries must be finite")
        rows.append(row)
    if not rows:
        raise ValueError("empty matrix CSV")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ValueError("ragged matrix CSV")
    if len(rows) != width:
        raise ValueError(f"matrix CSV must be square, got {len(rows)} rows of {width}")
    return np.array(rows, dtype=float)


def _format_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError("reports may not contain NaN or infinity")
    if x == 0.0 and math.copysign(1.0, x) < 0:
        return "-0.0"  # "-0" would read back as the integer 0
    return format(x, ".17g")


def dumps_report(obj) -> str:
    """The report text of obj, by the module's render rule, newline-ended."""
    return _render(obj, "\n") + "\n"


def _render(obj, nl: str) -> str:
    """The text of obj; nl is a newline and the indent of obj's own level,
    before its closing bracket, and its items indent one space more."""
    leaf = _LEAVES.get(type(obj))
    if leaf is not None:
        return leaf(obj)
    if type(obj) is dict:
        return _render_object(obj, nl)
    if type(obj) is list or type(obj) is tuple:
        return _render_array(obj, nl)
    return _render_instance(obj, nl)


# the exact leaf types and their texts; None and bool have no subclasses
_LEAVES = {
    float: _format_float,
    int: repr,
    str: encode_basestring_ascii,
    bool: lambda b: "true" if b else "false",
    type(None): lambda _: "null",
}


def _render_instance(obj, nl: str) -> str:
    """The text of any other obj, by its isinstance type: subclasses of the
    exact types, numpy values, Fractions and dataclasses."""
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _format_float(float(obj))
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if isinstance(obj, Fraction):
        return encode_basestring_ascii(str(obj))
    if isinstance(obj, np.ndarray):
        return _render(obj.tolist(), nl)
    if is_dataclass(obj) and not isinstance(obj, type):
        return _render_object({f.name: getattr(obj, f.name) for f in fields(obj)}, nl)
    if isinstance(obj, dict):
        return _render_object(obj, nl)
    if isinstance(obj, (list, tuple)):
        return _render_array(obj, nl)
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _render_object(obj: dict, nl: str) -> str:
    if not obj:
        return "{}"
    inner = nl + " "
    items = [f"{encode_basestring_ascii(k if type(k) is str else str(k))}: {_render(v, inner)}"
             for k, v in obj.items()]
    return "{" + inner + ("," + inner).join(items) + nl + "}"


def _render_array(obj, nl: str) -> str:
    if not obj:
        return "[]"
    inner = nl + " "
    return "[" + inner + ("," + inner).join([_render(v, inner) for v in obj]) + nl + "]"
