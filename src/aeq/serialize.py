"""Point-set and report serialization.

Point sets travel as JSON {"dim": d, "mode": "float"|"exact", "points":
[...]} with exact coordinates encoded as "p/q" strings, or as plain CSV
(one point per row, floating only). Reports are emitted with floats
rendered at 17 significant digits so every value round-trips.
"""
from __future__ import annotations

import json
import math
import re
from dataclasses import fields, is_dataclass
from fractions import Fraction
from typing import Tuple

import numpy as np

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


def _ratio(text: str) -> Tuple[int, int]:
    """(p, q) with p / q == Fraction(text) and q > 0, not always in lowest
    terms. "p" and "p/q" in ASCII digits, p with an optional "-", are read as
    two ints; any other text goes to Fraction, for its values and errors."""
    num, slash, den = text.partition("/")
    digits = num[1:] if num[:1] == "-" else num
    if digits.isascii() and digits.isdigit():
        if not slash:
            return int(num), 1
        if den.isascii() and den.isdigit() and int(den) > 0:
            return int(num), int(den)
    f = _fraction(text)
    return f.numerator, f.denominator


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
    parsed = []  # exact: (p, q) pairs; float: numbers, which PointSet converts
    for row in rows:
        # a float row of plain JSON numbers needs no per-coordinate walk; a
        # bool, str or any other type in it sends the row down the walk
        if mode != EXACT_MODE and isinstance(row, list) and set(map(type, row)) <= {int, float}:
            parsed.append(row)
            continue
        if not isinstance(row, list):
            raise ValueError("each point must be a list of coordinates")
        coords = []
        for c in row:
            if mode == EXACT_MODE:
                if isinstance(c, str):
                    c = _ratio(c)
                elif isinstance(c, bool) or not isinstance(c, int):
                    raise ValueError(
                        "exact mode coordinates must be integers or 'p/q' strings"
                    )
                else:
                    c = (c, 1)
            elif isinstance(c, str):
                c = _float(c)
            elif isinstance(c, bool) or not isinstance(c, (int, float)):
                raise ValueError("coordinates must be numbers")
            coords.append(c)
        parsed.append(coords)
    if mode == EXACT_MODE:
        # each coordinate is checked above; the row check adds dim and width
        return PointSet._from_integers(*_integer_form(_checked_rows(int(dim), parsed, list)))
    return PointSet(dim=int(dim), points=parsed, mode=mode)


def load_pointset(text: str) -> PointSet:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise ValueError(f"invalid JSON: {e}")
    return pointset_from_dict(obj)


def _csv_rows(text: str, cell: str):
    """(line number, row of floats) for each line of a CSV text that is not
    blank or a # comment, its cells split on commas and spaces; a cell that
    float() rejects raises "line N: non-numeric <cell>"."""
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
    rows = [row for _, row in _csv_rows(text, "coordinate")]
    if not rows:
        raise ValueError("empty point CSV")
    width = len(rows[0])
    for i, r in enumerate(rows, 1):
        if len(r) != width:
            raise ValueError(f"ragged CSV: row {i} has {len(r)} columns, expected {width}")
    return PointSet(dim=width, points=rows)


def load_matrix_csv(text: str) -> np.ndarray:
    rows = []
    for lineno, row in _csv_rows(text, "entry"):
        if not all(map(math.isfinite, row)):
            raise ValueError(f"line {lineno}: entries must be finite")
        rows.append(row)
    if not rows:
        raise ValueError("empty matrix CSV")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ValueError("ragged matrix CSV")
    return np.array(rows, dtype=float)


def _format_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError("reports may not contain NaN or infinity")
    if x == 0.0 and math.copysign(1.0, x) < 0:
        return "-0.0"  # "-0" would read back as the integer 0
    return format(x, ".17g")


def dumps_report(obj, indent: int = 0) -> str:
    """JSON text with floats at 17 significant digits (round-trip safe)."""
    return _dumps(_plain(obj), indent, 0) + "\n"


def _plain(obj):
    if is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: _plain(getattr(obj, f.name)) for f in fields(obj)}
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [_plain(v) for v in obj.tolist()]
    return obj


def _dumps(obj, indent: int, level: int) -> str:
    pad = " " * (indent * (level + 1)) if indent else ""
    endpad = " " * (indent * level) if indent else ""
    sep = ",\n" if indent else ", "
    nl = "\n" if indent else ""
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _format_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f"{pad}{json.dumps(str(k))}: {_dumps(v, indent, level + 1)}"
            for k, v in obj.items()
        ]
        return "{" + nl + sep.join(items) + nl + endpad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{pad}{_dumps(v, indent, level + 1)}" for v in obj]
        return "[" + nl + sep.join(items) + nl + endpad + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")
