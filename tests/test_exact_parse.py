"""The exact parse's distinct pass against the per-coordinate walk it replaced.

``geometry._integer_form`` converts each distinct (type, value) coordinate
once. The oracles below are the walks as they read exact input before that
pass: ``pointset_from_dict``'s row walk for a JSON document and
``PointSet``'s row walk for Fraction rows, each converting every coordinate
and building (X, q) from all of them. Every document or row set must give
the same (X, q), or the same error type and text.
"""
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import aeq
from aeq import PointSet
from aeq.geometry import _checked_rows, _exact_pair
from aeq.serialize import MAX_EXPONENT, _fraction
from conftest import in_one_form

# -- the per-coordinate walks -------------------------------------------------


def walked_form(rows):
    """(X, q) in lowest terms from every (p, d) pair of the rows."""
    q = math.lcm(*{d for row in rows for _, d in row})
    x = [[p * (q // d) for p, d in row] for row in rows]
    g = math.gcd(q, *(v for row in x for v in row))
    if g > 1:
        q //= g
        x = [[v // g for v in row] for row in x]
    m = max(abs(v) for row in x for v in row)
    return np.array(x, dtype=np.int64 if 4 * len(x[0]) * m * m < 2 ** 53 else object), q


def text_ratio(text):
    """(p, q) of an exact coordinate string, as the walk read it."""
    num, slash, den = text.partition("/")
    digits = num[1:] if num[:1] == "-" else num
    if digits.isascii() and digits.isdigit():
        if not slash:
            return int(num), 1
        if den.isascii() and den.isdigit() and int(den) > 0:
            return int(num), int(den)
    f = _fraction(text)
    return f.numerator, f.denominator


def walk_document(obj):
    """pointset_from_dict on an exact-mode document, walked per coordinate."""
    dim, rows = obj["dim"], obj["points"]
    integral = isinstance(dim, int) or (isinstance(dim, float) and dim.is_integer())
    if isinstance(dim, bool) or not integral:
        raise ValueError(f"dim must be an integer, got {dim!r}")
    if not isinstance(rows, list) or not rows:
        raise ValueError("points must be a nonempty list")
    parsed = []
    for row in rows:
        if not isinstance(row, list):
            raise ValueError("each point must be a list of coordinates")
        coords = []
        for c in row:
            if isinstance(c, str):
                c = text_ratio(c)
            elif isinstance(c, bool) or not isinstance(c, int):
                raise ValueError("exact mode coordinates must be integers or 'p/q' strings")
            else:
                c = (c, 1)
            coords.append(c)
        parsed.append(coords)
    return walked_form(_checked_rows(int(dim), parsed, list))


def walk_rows(dim, rows):
    """PointSet(dim, rows, "exact")'s integer form, walked per coordinate."""
    return walked_form(_checked_rows(dim, rows, lambda rs: [[_exact_pair(c) for c in r]
                                                              for r in rs]))


def outcome(make):
    """(q, X as (type, value) rows) of an integer form, or the error's type and text."""
    try:
        x, q = make()
    except Exception as e:
        return type(e).__name__, str(e)
    assert x.ndim == 2 and in_one_form(x)
    return q, [[(type(v), v) for v in row] for row in x.tolist()]


# -- inputs -------------------------------------------------------------------

# few values, so that coordinates repeat: equal values of different types or
# spellings, and the faults the walk reports
_json_values = st.one_of(
    st.sampled_from([0, 1, -1, 2, True, False, "1", "0", "-0", "1/2", "2/4", "-1/2", "3/7",
                     "00/07", " 1/3 ", "+5/3", "1e2", "1_000/3"]),
    st.integers(-(2 ** 70), 2 ** 70),
    st.fractions(max_denominator=12).map(str),
)
_json_faults = st.sampled_from([0.5, 1.0, -0.0, "1/0", "-0/0", f"1e{MAX_EXPONENT + 1}", "x",
                                "", "0.5e", None, [1], {"a": 1}])


@st.composite
def _rows(draw, values, faults, dim, row=list):
    """One to five rows: in half the examples all of width dim and values,
    in the rest some ragged, some not a row at all and some coordinates faults."""
    width = dim if isinstance(dim, int) and not isinstance(dim, bool) and dim >= 0 else 2
    clean = draw(st.booleans())
    coordinates = values if clean else st.one_of(values, faults)
    rows = []
    for _ in range(draw(st.integers(1, 5))):
        kind = "row" if clean else draw(st.sampled_from(["row"] * 6 + ["ragged", "other"]))
        if kind == "other":
            rows.append(draw(st.sampled_from([None, 3, "12", (1, 2), {"a": 1}])))
            continue
        n = width if kind == "row" else draw(st.integers(0, width + 1))
        rows.append(row(draw(st.lists(coordinates, min_size=n, max_size=n))))
    return rows


_dims = st.one_of(st.integers(0, 3), st.sampled_from([2.0, 1.5, True, "2", None]))


@settings(max_examples=600, deadline=None, database=None)
@given(data=st.data(), dim=_dims)
def test_documents_read_as_the_walk_reads_them(data, dim):
    rows = data.draw(_rows(_json_values, _json_faults, dim))
    obj = {"dim": dim, "mode": "exact", "points": rows}
    want = outcome(lambda: walk_document(obj))
    assert outcome(lambda: aeq.pointset_from_dict(obj).form) == want
    try:
        text = json.dumps(obj)
    except (TypeError, ValueError):
        return
    # orjson reads ints past 64 bits as floats, which the check refuses, and
    # the stdlib reads them again
    assert outcome(lambda: aeq.load_pointset(text).form) == outcome(
        lambda: walk_document(json.loads(text)))


_row_values = st.one_of(
    st.sampled_from([0, 1, -1, True, False, Fraction(1, 2), Fraction(2, 4), Fraction(-3, 7),
                     Fraction(0)]),
    st.integers(-(2 ** 70), 2 ** 70),
    st.fractions(max_denominator=12),
)
_row_faults = st.sampled_from([0.5, 1.0, "1/2", None, np.int64(3), 0.5 + 0j, [1]])


@settings(max_examples=600, deadline=None, database=None)
@given(data=st.data(), dim=st.integers(0, 3), row=st.sampled_from([list, tuple]))
def test_fraction_rows_read_as_the_walk_reads_them(data, dim, row):
    rows = data.draw(_rows(_row_values, _row_faults, dim, row))
    want = outcome(lambda: walk_rows(dim, rows))
    assert outcome(lambda: PointSet(dim, rows, mode="exact").form) == want


@pytest.mark.parametrize("rows", [
    [[Fraction(1, 2), 0.5], [Fraction(1, 2), Fraction(1, 2)]],
    [[1, 1.0], [1, 1]],
    [[1, True], [1, 1]],
])
def test_equal_values_of_other_types_read_as_the_walk_reads_them(rows):
    assert outcome(lambda: PointSet(2, rows, mode="exact").form) == outcome(
        lambda: walk_rows(2, rows))


def _first_error(obj):
    try:
        aeq.pointset_from_dict(obj)
    except ValueError as e:
        return str(e)
    return None


@pytest.mark.parametrize("points, dim, want", [
    ([[True, 1]], 2, "exact mode coordinates must be integers or 'p/q' strings"),
    ([[1, True], [1, 1]], 2, "exact mode coordinates must be integers or 'p/q' strings"),
    ([[1, 1.0], [1, 1]], 2, "exact mode coordinates must be integers or 'p/q' strings"),
    ([["1", 1], [1, "1"]], 2, (1, [[1, 1], [1, 1]])),
    ([["2/4", "1/2"], ["1/2", 1]], 2, (2, [[1, 1], [1, 2]])),
    ([[0.5, 1]], 2, "exact mode coordinates must be integers or 'p/q' strings"),
    ([[2 ** 70, "1/3"]], 2, (3, [[3 * 2 ** 70, 1]])),
    ([["1/0"]], 1, "coordinate '1/0' has a zero denominator"),
    ([["1e4301"]], 1, "coordinate '1e4301' has an exponent beyond 4300"),
    ([[1], [2, "x"]], 2, "Invalid literal for Fraction: 'x'"),  # after a ragged row
    ([[1], "1/2"], 1, "each point must be a list of coordinates"),
    ([[1]], 0, "dim must be at least 1"),
    ([["1/2", 1]], 2.0, (2, [[1, 2]])),
])
def test_the_named_inputs_read_as_the_walk_reads_them(points, dim, want):
    obj = {"dim": dim, "mode": "exact", "points": points}
    assert outcome(lambda: aeq.pointset_from_dict(obj).form) == outcome(
        lambda: walk_document(obj))
    if isinstance(want, str):
        assert _first_error(obj) == want
    else:
        x, q = aeq.pointset_from_dict(obj).form
        assert (q, x.tolist()) == want
        assert not x.flags.writeable


def _large_rows(kind):
    """20 rows of 300 exact coordinates, past the distinct pass's sample."""
    n, d = 20, 300
    distinct = [[f"{(-1) ** j * (i * d + j + 1)}/7" for j in range(d)] for i in range(n)]
    repeated = [[f"{(i + j) % 5}/{1 + j % 3}" for j in range(d)] for i in range(n)]
    if kind == "distinct":
        return distinct
    if kind == "distinct, then repeated":
        return distinct[:15] + [distinct[0]] * 5
    if kind == "repeated, then distinct":
        return repeated[:15] + distinct[15:]
    return repeated[:10] + [[True] + repeated[0][1:]] + repeated[11:]  # a bool past the sample


@pytest.mark.parametrize("kind", ["distinct", "distinct, then repeated",
                                  "repeated, then distinct", "a fault past the sample"])
def test_sets_past_the_sample_read_as_the_walk_reads_them(kind):
    rows = _large_rows(kind)
    assert len(rows) * len(rows[0]) > aeq.geometry.DISTINCT_SAMPLE
    obj = {"dim": len(rows[0]), "mode": "exact", "points": rows}
    assert outcome(lambda: aeq.pointset_from_dict(obj).form) == outcome(
        lambda: walk_document(obj))
    fractions = [[Fraction(c) if isinstance(c, str) else c for c in row] for row in rows]
    assert outcome(lambda: PointSet(len(rows[0]), fractions, mode="exact").form) == outcome(
        lambda: walk_rows(len(rows[0]), fractions))
