import decimal
import enum
import json
import math
import re
from dataclasses import asdict, dataclass, fields, is_dataclass
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import aeq
from aeq import PointSet, cli, serialize


def test_float_roundtrip():
    s = aeq.construct_two_simplices(3)
    back = aeq.load_pointset(aeq.dumps_report(aeq.pointset_to_dict(s)))
    assert back.mode == "float"
    assert np.array_equal(back.array, s.array)


def test_exact_roundtrip(rhombus):
    back = aeq.load_pointset(aeq.dumps_report(aeq.pointset_to_dict(rhombus)))
    assert back.mode == "exact"
    assert back.points == rhombus.points
    assert isinstance(back.points[2][0], Fraction)


def test_exact_dict_encodes_fraction_strings(zigzag):
    obj = aeq.pointset_to_dict(zigzag)
    assert obj["points"][1] == ["3/5", "4/5"]


def test_from_dict_accepts_ints_in_exact_mode():
    s = aeq.pointset_from_dict(
        {"dim": 1, "mode": "exact", "points": [[0], ["1/2"]]}
    )
    assert s.points == ((Fraction(0),), (Fraction(1, 2),))


def test_from_dict_rejects_float_in_exact_mode():
    with pytest.raises(ValueError, match="exact mode"):
        aeq.pointset_from_dict(
            {"dim": 1, "mode": "exact", "points": [[0.5], [1]]}
        )


def test_from_dict_rejects_bool_coordinates():
    with pytest.raises(ValueError, match="numbers"):
        aeq.pointset_from_dict({"dim": 1, "points": [[True], [0.0]]})


def test_from_dict_rejects_missing_keys():
    with pytest.raises(ValueError, match="missing key"):
        aeq.pointset_from_dict({"points": [[0.0]]})
    with pytest.raises(ValueError, match="object"):
        aeq.pointset_from_dict([1, 2])
    with pytest.raises(ValueError, match="nonempty"):
        aeq.pointset_from_dict({"dim": 1, "points": []})


def test_from_dict_rejects_non_integral_dim():
    for dim in (2.7, None, [2], "2", True, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="dim must be an integer"):
            aeq.pointset_from_dict({"dim": dim, "points": [[0.0, 0.0], [1.0, 0.0]]})
    with pytest.raises(ValueError, match="dim must be an integer"):
        aeq.pointset_from_dict({"dim": 1.5, "mode": "exact", "points": [["0"], ["1"]]})
    # an integral float is an integer, as JSON Schema reads it
    assert aeq.pointset_from_dict({"dim": 2.0, "points": [[0.0, 0.0]]}).dim == 2


def test_load_pointset_bad_json():
    with pytest.raises(ValueError, match="invalid JSON"):
        aeq.load_pointset("{not json")
    for token in ("NaN", "Infinity", "-Infinity"):
        with pytest.raises(ValueError, match="finite"):
            aeq.load_pointset('{"dim": 1, "points": [[0.0], [%s]]}' % token)


def test_from_dict_rejects_zero_denominator():
    for mode in ("exact", "float"):
        with pytest.raises(ValueError, match="zero denominator"):
            aeq.pointset_from_dict({"dim": 1, "mode": mode, "points": [["0"], ["1/0"]]})


def test_csv_roundtrip_with_comments():
    text = "# two points\n0.0, 0.0\n1.0 0.5\n"
    s = aeq.load_pointset_csv(text)
    assert s.n == 2 and s.dim == 2
    assert s.points[1] == (1.0, 0.5)


def test_csv_errors_carry_line_numbers():
    with pytest.raises(ValueError, match="line 2"):
        aeq.load_pointset_csv("1.0\nbogus\n")
    with pytest.raises(ValueError, match="row 2 has 1 columns"):
        aeq.load_pointset_csv("1.0 2.0\n3.0\n")
    with pytest.raises(ValueError, match="empty"):
        aeq.load_pointset_csv("# nothing\n")
    for text in ("0,0\nnan,nan\n", "0,0\ninf,0\n"):
        with pytest.raises(ValueError, match="finite"):
            aeq.load_pointset_csv(text)


def test_matrix_csv():
    m = aeq.load_matrix_csv("0 1\n1 0\n")
    assert np.array_equal(m, np.array([[0.0, 1.0], [1.0, 0.0]]))
    with pytest.raises(ValueError, match="ragged"):
        aeq.load_matrix_csv("0 1\n1\n")
    with pytest.raises(ValueError, match="line 1"):
        aeq.load_matrix_csv("a b\n")
    for text, line in (("nan,1\n1,0\n", 1), ("0 1\n1 inf\n", 2), ("0 1\n-inf 0\n", 2)):
        with pytest.raises(ValueError, match=f"line {line}: entries must be finite"):
            aeq.load_matrix_csv(text)
    # every message whole, with lines counted past blanks and comments
    for text, message in (("", "empty matrix CSV"), ("# c\n\n", "empty matrix CSV"),
                          ("0 1\n1\n", "ragged matrix CSV"),
                          ("1 2 3\n4 5 6\n", "matrix CSV must be square, got 2 rows of 3"),
                          ("1 2\n3 4\n5 6\n", "matrix CSV must be square, got 3 rows of 2"),
                          ("0 1\n# c\n\n1 x\n", "line 4: non-numeric entry"),
                          ("0 nan\n1 x\n", "line 1: entries must be finite"),
                          ("0 1\nx nan\n", "line 2: non-numeric entry")):
        with pytest.raises(ValueError) as err:
            aeq.load_matrix_csv(text)
        assert str(err.value) == message, text


def test_report_floats_have_17_digits():
    out = aeq.dumps_report({"x": 0.1})
    assert '"x": 0.10000000000000001' in out


def test_report_roundtrips_through_json():
    vals = [0.1, 1.0 / 3.0, 2.945722417977, 1e-300, -0.0]
    out = aeq.dumps_report({"vals": vals})
    assert json.loads(out)["vals"] == vals


def test_report_rejects_nan():
    with pytest.raises(ValueError, match="NaN"):
        aeq.dumps_report({"x": math.nan})
    with pytest.raises(ValueError):
        aeq.dumps_report({"x": math.inf})


def test_report_renders_fractions_as_strings():
    assert aeq.dumps_report(Fraction(1, 3)).strip() == '"1/3"'


def test_report_handles_dataclasses_and_numpy():
    @dataclass
    class Row:
        name: str
        value: float

    out = aeq.dumps_report(
        {"row": Row("a", 0.5), "arr": np.array([1.0, 2.0]), "n": np.int64(3)}
    )
    obj = json.loads(out)
    assert obj == {"row": {"name": "a", "value": 0.5}, "arr": [1.0, 2.0], "n": 3}


def test_report_indent_mode_is_valid_json():
    out = aeq.dumps_report({"a": [1, 2], "b": {"c": None}})
    assert json.loads(out) == {"a": [1, 2], "b": {"c": None}}
    assert out.endswith("\n")


@pytest.mark.parametrize(
    "load, arg, message",
    [
        (PointSet, dict(dim=2, points=((0.0, 0.0), (1.0,))),
         "ragged point set: expected 2 coordinates, got 1"),
        (PointSet, dict(dim=3, points=((0, 0, 1), (1, 2, 3), (4, 5))),
         "ragged point set: expected 3 coordinates, got 2"),
        (PointSet, dict(dim=2, points=()), "point set must contain at least one point"),
        (PointSet, dict(dim=2, points=((0.0, 0.0),), mode="decimal"), "unknown mode 'decimal'"),
        (PointSet, dict(dim=1, points=((0.5,),), mode="exact"),
         "exact mode requires int or Fraction coordinates, got 'float'"),
        (PointSet, dict(dim=0, points=((),)), "dim must be at least 1"),
        (PointSet, dict(dim=2, points=((0.0, 0.0), (1.0, math.nan))),
         "coordinates must be finite, got (1.0, nan)"),
        (PointSet, dict(dim=2, points=((0.0, 0.0), (-math.inf, 2))),
         "coordinates must be finite, got (-inf, 2.0)"),
        (aeq.pointset_from_dict, {"dim": 1, "points": [[0.0], [None]]},
         "coordinates must be numbers"),
        (aeq.pointset_from_dict, {"dim": 1, "points": [[0.0], 3]},
         "each point must be a list of coordinates"),
        (aeq.pointset_from_dict, {"dim": 2, "points": [[0.0, 1.0], [1.0, 2.0, 3.0]]},
         "ragged point set: expected 2 coordinates, got 3"),
        (aeq.pointset_from_dict, {"dim": 2, "points": [[0.0, 1.0], [1.0, "1/0"]]},
         "coordinate '1/0' has a zero denominator"),
        (aeq.pointset_from_dict, {"dim": 1, "mode": "exact", "points": [[True], [1]]},
         "exact mode coordinates must be integers or 'p/q' strings"),
        (aeq.pointset_from_dict, {"dim": 2, "mode": "exact", "points": [["1/2", 1], [1]]},
         "ragged point set: expected 2 coordinates, got 1"),
        (aeq.pointset_from_dict, {"dim": 1, "mode": "decimal", "points": [[0.5], [1]]},
         "unknown mode 'decimal'"),
        (aeq.load_pointset, '{"dim": 2, "points": [[0.0, 1], [Infinity, 2]]}',
         "coordinates must be finite, got (inf, 2.0)"),
        # a non-finite row is reported before a short one, wherever they stand
        (PointSet, dict(dim=2, points=((0.0,), (math.nan, 0.0))),
         "coordinates must be finite, got (nan, 0.0)"),
        (aeq.load_pointset, '{"dim": 2, "points": [[NaN, 0], [1.0]]}',
         "coordinates must be finite, got (nan, 0.0)"),
        (aeq.load_pointset_csv, "1.0\nbogus\n", "line 2: non-numeric coordinate"),
        (aeq.load_pointset_csv, "# c\n\n1.0 2.0\n3.0 4\n5\n",
         "ragged CSV: row 3 has 1 columns, expected 2"),
        (aeq.load_pointset_csv, "0,0\n1,2\ninf,0\n", "coordinates must be finite, got (inf, 0.0)"),
        (aeq.load_pointset_csv, ",\n", "dim must be at least 1"),
        # exact sets: a bad coordinate anywhere before a short row, dim before both
        (aeq.pointset_from_dict, {"dim": 2, "mode": "exact", "points": [["1/2"], ["x", 1]]},
         "Invalid literal for Fraction: 'x'"),
        (aeq.pointset_from_dict, {"dim": 2, "mode": "exact", "points": [[1], [1, "2/0"]]},
         "coordinate '2/0' has a zero denominator"),
        (aeq.pointset_from_dict, {"dim": 0, "mode": "exact", "points": [["1/2"], [1, 2]]},
         "dim must be at least 1"),
        (aeq.pointset_from_dict, {"dim": 0, "mode": "exact", "points": [[], []]},
         "dim must be at least 1"),
        (aeq.pointset_from_dict, {"dim": 2, "mode": "exact", "points": [[1, 2], [1, 2, 3]]},
         "ragged point set: expected 2 coordinates, got 3"),
        # float rows of plain numbers skip the per-coordinate walk; the rows after them do not
        (aeq.pointset_from_dict, {"dim": 1, "points": [[0.5], [True]]},
         "coordinates must be numbers"),
        (aeq.pointset_from_dict, {"dim": 1, "points": [[0.5], ["x"]]},
         "Invalid literal for Fraction: 'x'"),
        (aeq.pointset_from_dict, {"dim": 2, "points": [[0, 1], [1]]},
         "ragged point set: expected 2 coordinates, got 1"),
    ],
)
def test_error_messages_keep_their_text(load, arg, message):
    with pytest.raises(ValueError) as err:
        load(**arg) if isinstance(arg, dict) and load is PointSet else load(arg)
    assert str(err.value) == message


@pytest.mark.parametrize("rows", [[[[1.0, 2.0]]], [1.0], [[1.0], [[1.0]]]])
def test_rows_not_of_numbers_are_type_errors(rows):
    with pytest.raises(TypeError):
        PointSet(dim=1, points=rows)


def test_negative_zero_keeps_its_sign_through_a_report():
    s = PointSet.from_array([[-0.0, 1.0], [0.0, -0.0]])
    text = aeq.dumps_report(aeq.pointset_to_dict(s))
    back = aeq.load_pointset(text).array
    assert np.array_equal(np.signbit(back), np.signbit(s.array))
    assert np.signbit(back[0, 0]) and not np.signbit(back[1, 0])


@pytest.mark.parametrize(
    "x, text",
    [(0.0, "0"), (-0.0, "-0.0"), (1.0, "1"), (-2.5, "-2.5"), (0.1, "0.10000000000000001"),
     (-1e-300, "-1e-300"), (5e-324, "4.9406564584124654e-324")],
)
def test_report_floats_keep_their_bytes(x, text):
    assert aeq.dumps_report(x) == text + "\n"


def _fraction_or_message(text):
    """What Fraction(text) gives, with the parser's messages for a zero
    denominator and for a closing exponent beyond 4300 in magnitude."""
    exponent = re.search(r"[eE]([-+]?\d+(?:_\d+)*)\s*\Z", text)
    if exponent and abs(int(exponent[1])) > 4300:
        return f"coordinate {text!r} has an exponent beyond 4300"
    try:
        return Fraction(text)
    except ZeroDivisionError:
        return f"coordinate {text!r} has a zero denominator"
    except ValueError as e:
        return str(e)


def _padded(texts):
    pad = st.sampled_from(["", " ", "\t", "\n ", "\u3000"])
    return st.tuples(pad, texts, pad).map("".join)


_coordinate_texts = st.one_of(
    _padded(st.tuples(st.sampled_from(["", "-", "+"]), st.integers(0, 10 ** 30),
                      st.sampled_from(["", "/"]), st.integers(0, 10 ** 6)).map(
        lambda t: f"{t[0]}{t[1]}{t[2]}{t[3] if t[2] else ''}")),
    # short exponents: Fraction builds 10**exp, so "1e99999999" takes minutes
    _padded(st.from_regex(r"[-+]?[0-9]*(\.[0-9]*)?([eE][-+]?[0-9]{1,3})?", fullmatch=True)),
    st.from_regex(r"\s*[-+]?[0-9_]+\s*/\s*[-+]?[0-9_]+\s*", fullmatch=True),
    st.text(alphabet="0123456789/-+._eEd \u0661\u00b2", max_size=6),
    st.text(max_size=6),
    st.sampled_from(["1e-3", "1/0", "-0/0", "00/07", "1.", ".5", "1_000/3", "1.d", "--5",
                     "+-5", "-+5/3", "+5/3", "5/+3", "5/-3", "5 /3", "5/ 3", "-",
                     "-" + "7" * 4400, "1/" + "3" * 4400]),
)


@settings(max_examples=400, deadline=None, database=None)
@given(text=_coordinate_texts)
def test_exact_coordinate_strings_read_as_fraction_reads_them(text):
    want = _fraction_or_message(text)
    try:
        s = aeq.pointset_from_dict({"dim": 1, "mode": "exact", "points": [[text], ["1/3"]]})
        got = s.points[0][0]
    except ValueError as e:
        got = str(e)
    assert got == want and type(got) is type(want)


@settings(max_examples=100, deadline=None, database=None)
@given(rows=st.integers(1, 3).flatmap(lambda d: st.lists(
    st.lists(st.fractions(max_denominator=40), min_size=d, max_size=d), min_size=1, max_size=6)),
    data=st.data())
def test_exact_sets_read_into_their_integer_form(rows, data):
    def encode(c):  # an int, "p/q" in lowest terms, or a padded or unreduced form
        forms = [str(c), f" {c} ", f"{3 * c.numerator}/{3 * c.denominator}"]
        return data.draw(st.sampled_from(forms + ([c.numerator] if c.denominator == 1 else [])))
    obj = {"dim": len(rows[0]), "mode": "exact", "points": [[encode(c) for c in r] for r in rows]}
    got, want = aeq.pointset_from_dict(obj), PointSet.exact_rows(rows)
    assert got.points == want.points
    (gx, gq), (wx, wq) = got.form, want.form
    assert gq == wq and np.array_equal(gx, wx)
    assert all(type(v) is int for v in gx.flat)


@pytest.mark.parametrize("text", ["-0.0", "-0", "-0e5", " -0.0", "-0/7"])
def test_negative_zero_strings_keep_their_sign_in_float_mode(text):
    s = aeq.pointset_from_dict({"dim": 1, "points": [[text], ["0.0"], [-0.0]]})
    signs = [math.copysign(1.0, v) for v in s.array[:, 0].tolist()]
    assert s.array[:, 0].tolist() == [0.0, 0.0, 0.0]
    assert signs == [-1.0, 1.0, -1.0]


# -------------------------------------- float rows: the per-row type check


def walk_float_rows(obj):
    """pointset_from_dict on a float set as it read every row before the
    per-row type check: each coordinate walked and checked on its own."""
    parsed = []
    for row in obj["points"]:
        if not isinstance(row, list):
            raise ValueError("each point must be a list of coordinates")
        coords = []
        for c in row:
            if isinstance(c, str):
                c = serialize._float(c)
            elif isinstance(c, bool) or not isinstance(c, (int, float)):
                raise ValueError("coordinates must be numbers")
            coords.append(c)
        parsed.append(coords)
    return PointSet(dim=obj["dim"], points=parsed)


def _read(load, obj):
    try:
        s = load(obj)
    except Exception as e:  # the type too: a huge int raises OverflowError on both paths
        return type(e).__name__, str(e)
    return "ok", s.array.shape, s.array.tobytes()


_coordinates = st.one_of(
    st.integers(-3, 3),
    st.integers(),
    st.just(10 ** 400),
    st.floats(),
    st.just(-0.0),
    st.booleans(),
    st.sampled_from(["-0.0", "1/3", "1e400", "-1e400", "0.5", "x", "1/0", " 2 "]),
    st.none(),
    st.lists(st.floats(-2, 2), max_size=2),
    st.floats(-2, 2).map(np.float64),
)
_rows = st.one_of(
    st.lists(st.one_of(st.integers(-3, 3), st.floats(-2, 2)), min_size=2, max_size=2),
    st.lists(_coordinates, max_size=3),
    st.one_of(st.none(), st.integers(), st.text(max_size=2), st.tuples(st.floats(-2, 2))),
)


@settings(max_examples=500, deadline=None, database=None)
@given(dim=st.integers(0, 3), rows=st.lists(_rows, min_size=1, max_size=5))
def test_float_rows_read_as_the_per_coordinate_walk_reads_them(dim, rows):
    obj = {"dim": dim, "points": rows}
    assert _read(aeq.pointset_from_dict, obj) == _read(walk_float_rows, obj)


# -------------------------------------- reports: dataclasses walked in place

# the oracle: the report writer as it was, a copy by _plain, then _dumps


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
        return serialize._format_float(obj)
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


def _asdict_report(obj):
    """The oracle, dumps_report as it was: a dataclass deep-copied by asdict,
    copied again by _plain, then rendered by _dumps at the CLI's indent."""
    return _dumps(_plain(asdict(obj) if is_dataclass(obj) else obj), 1, 0) + "\n"


def _rendered(render, obj):
    """The text render makes of obj, or its error's type and message."""
    try:
        return render(obj)
    except Exception as e:
        return type(e).__name__, str(e)


def test_report_dataclasses_render_as_asdict_renders_them():
    @dataclass
    class Inner:
        q: Fraction
        arr: np.ndarray

    @dataclass
    class Outer:
        inner: Inner
        rows: tuple
        by_key: dict
        x: np.float64

    obj = Outer(Inner(Fraction(1, 3), np.array([[0.5, -0.0]])),
                (Inner(Fraction(2), np.arange(2)), [np.int64(3)]),
                {1: Inner(Fraction(-1, 2), np.zeros(0)), "k": (0.1, None)}, np.float64(2.5))
    assert aeq.dumps_report(obj) == _asdict_report(obj)


@dataclass
class _Pair:
    left: object
    right: object


class _Float(float):
    pass


class _Int(int):
    pass


class _Str(str):
    pass


class _Level(enum.IntEnum):
    LOW = -3
    HIGH = 2 ** 70


_finite = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                    st.sampled_from([-0.0, 5e-324, 1.7976931348623157e308]))
# subclasses of the exact types the renderer dispatches on first
_subclass_leaves = st.one_of(_finite.map(_Float), st.integers().map(_Int), st.text().map(_Str),
                             st.sampled_from(_Level))
_bad_leaves = st.sampled_from([math.nan, -math.inf, np.float64(math.inf), np.float32(math.nan),
                               np.bool_(True), set(), object()])
_report_leaves = st.one_of(
    st.none(), st.booleans(), st.integers(), _finite, st.text(), st.fractions(),
    _finite.map(np.float64),
    st.floats(width=32, allow_nan=False, allow_infinity=False).map(np.float32),
    st.integers(-2**63, 2**63 - 1).map(np.int64),
    hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=2, max_side=3), elements=_finite),
    hnp.arrays(np.int64, hnp.array_shapes(min_dims=1, max_dims=2, max_side=3)),
    _subclass_leaves,
    _bad_leaves,
)
_report_keys = st.one_of(st.text(max_size=3), st.integers(), st.fractions(), _finite,
                         _subclass_leaves)


def _report_containers(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        # keys that stay distinct after str(), as the oracle's dict would merge them
        st.lists(st.tuples(_report_keys, children), max_size=4, unique_by=_key_text).map(dict),
        st.builds(_Pair, children, children),
    )


def _key_text(item):
    return str(item[0])


_report_trees = st.deferred(lambda: _report_leaves | _report_containers(_report_trees))


@settings(max_examples=500, deadline=None, database=None)
@given(_report_containers(_report_trees))
def test_report_trees_render_as_the_oracle_renders_them(tree):
    assert _rendered(aeq.dumps_report, tree) == _rendered(_asdict_report, tree)


@pytest.fixture
def report_inputs(tmp_path, rhombus, corpus_path):
    paths = {"graphs": str(corpus_path)}
    sets = {"float": aeq.construct_two_simplices(3), "exact": rhombus,
            "far": PointSet.from_array([[0.0], [1.5]])}
    for name, s in sets.items():
        paths[name] = str(tmp_path / f"{name}.json")
        (tmp_path / f"{name}.json").write_text(aeq.dumps_report(aeq.pointset_to_dict(s)))
    paths["matrix"] = str(tmp_path / "matrix.csv")
    (tmp_path / "matrix.csv").write_text("2 1\n1 2\n")
    paths["out"] = str(tmp_path / "out.json")
    return paths


_CLI_RUNS = [
    "verify --input {float}", "certify --input {float}", "verify --input {exact} --exact",
    "certify --input {exact} --exact", "certify --input {far}",
    "pipeline --input {float}", "pipeline --diameter --input {float}",
    "pipeline --diameter --input {far}", "pipeline --input {exact} --exact",
    "pipeline --diameter --input {exact} --exact",
    "bounds --theorem diameter --dim 3 --input {float}",
    "bounds --theorem diameter --dim 2 --input {exact} --exact",
    "bounds --theorem ball --dim 3 --c0 0 --input {float}",
    "bounds --theorem ball --dim 2 --c0 0 --input {exact} --exact",
    "bounds --theorem sphere --dim 3 --radius 0.5", "bounds --theorem sphere --dim 3 --radius 0.9",
    "search --dim 2 --n 4 --restarts 1 --iters 20",
    "tdrank --n 5 --graphs {graphs}", "tdrank --n 5 --graphs {graphs} --exact",
    "weyl --a {matrix} --b {matrix}", "perron --input {matrix}", "gershgorin --input {matrix}",
    "construct --kind simplex --dim 2 --out {out}",
    "search --dim 2 --n 4 --restarts 1 --iters 20 --out {out}",
    "search --dim 2 --n 4 --restarts 0",
]


def test_cli_reports_render_as_asdict_renders_them(monkeypatch, capsys, report_inputs):
    seen = []

    def checked(obj):
        text = serialize.dumps_report(obj)
        assert text == _asdict_report(obj)
        seen.append(obj)
        return text

    monkeypatch.setattr(cli, "dumps_report", checked)
    codes = [cli.main(run.format(**report_inputs).split()) for run in _CLI_RUNS]
    capsys.readouterr()
    assert codes[-1] == 2  # a usage error, reported by _abort
    # one run report per run, and the two --out point sets as plain dicts
    reports = [obj for obj in seen if isinstance(obj, cli.RunReport)]
    assert len(reports) == len(_CLI_RUNS)
    assert len(seen) == len(_CLI_RUNS) + 2


# -------------------------------------- JSON decoding: orjson, then the stdlib


def _loaded(load, text):
    """What a loader makes of a text: mode, q and the bytes of the numeric
    form (float64 bits, so the sign of zero counts), or its error."""
    try:
        s = load(text)
    except Exception as e:
        return type(e).__name__, str(e)
    x, q = s.form
    return s.mode, q, x.shape, x.tobytes() if s.mode == "float" else x.tolist()


def _stdlib_load(text):
    return aeq.pointset_from_dict(json.loads(text))


def _bits_to_float(bits):
    return float(np.array(bits, dtype=np.uint64).view(np.float64))


def _halfway(x):
    """The exact decimal midway between x and the next float up."""
    with decimal.localcontext() as ctx:
        ctx.prec = 2000
        return str((decimal.Decimal(x) + decimal.Decimal(math.nextafter(x, math.inf))) / 2)


_finite_floats = st.integers(0, 2 ** 64 - 1).map(_bits_to_float).filter(math.isfinite)
_float_texts = st.one_of(
    st.tuples(_finite_floats, st.sampled_from(["r", ".17g", ".16e"])).map(
        lambda t: repr(t[0]) if t[1] == "r" else format(*t)),
    st.tuples(st.sampled_from(["", "-"]), st.text("0123456789", min_size=17, max_size=40),
              st.integers(-330, 310)).map(lambda t: f"{t[0]}{t[1][0]}.{t[1][1:]}e{t[2]}"),
    _finite_floats.filter(lambda x: x != math.nextafter(x, math.inf)).map(_halfway),
    st.sampled_from([
        "4.9406564584124654e-324", "2.4703282292062327e-324", "2.4703282292062328e-324",
        "-2.4703282292062328e-324", "2.2250738585072009e-308", "2.2250738585072014e-308",
        "1.7976931348623157e308", "1.7976931348623158e308", "1.7976931348623159e308",
        "-1.797693134862315807937e308", "1e-400", "-1e-400", "1e309", "-0", "-0.0", "0e0",
        "18446744073709551616", "-9223372036854775809", "1" + "0" * 308, "1" + "0" * 309,
    ]),
    st.integers(-(2 ** 70), 2 ** 70).map(str),
)
_exact_texts = st.one_of(
    st.integers(-(2 ** 70), 2 ** 70).map(str),
    st.fractions(max_denominator=2 ** 70).map(lambda f: json.dumps(str(f))),
    st.sampled_from(["0.5", "1e3", '"1/0"', "true", "-0"]),
)


def _document(dim, rows, mode):
    head = {"float": '"mode": "float", ', "exact": '"mode": "exact", ', None: ""}[mode]
    points = ", ".join("[" + ", ".join(row) + "]" for row in rows)
    return '{"dim": %d, %s"points": [%s]}' % (dim, head, points)


@settings(max_examples=300, deadline=None, database=None)
@given(data=st.data(), dim=st.integers(1, 3), count=st.integers(1, 4),
       mode=st.sampled_from([None, "float", "exact"]))
def test_json_documents_load_as_the_stdlib_loads_them(data, dim, count, mode):
    texts = _exact_texts if mode == "exact" else _float_texts
    rows = data.draw(st.lists(st.lists(texts, min_size=dim, max_size=dim),
                              min_size=count, max_size=count))
    text = _document(dim, rows, mode)
    assert _loaded(aeq.load_pointset, text) == _loaded(_stdlib_load, text)


_BIG = 2 ** 64


# the documents that orjson refuses or reads otherwise than json.loads, and
# duplicate keys, where both keep the last value
@pytest.mark.parametrize("text, want", [
    ('{"dim": 1, "points": [[0.0], [NaN]]}', "coordinates must be finite, got (nan,)"),
    ('{"dim": 1, "points": [[0.0], [Infinity]]}', "coordinates must be finite, got (inf,)"),
    ('{"dim": 1, "points": [[0.0], [-Infinity]]}', "coordinates must be finite, got (-inf,)"),
    ('{"dim": 1, "points": [[0.0], [1e400]]}', "coordinates must be finite, got (inf,)"),
    ('{"dim": 1, "mode": "exact", "points": [[%d], [0]]}' % _BIG, ("exact", 1, [[_BIG], [0]])),
    ('{"dim": 1, "points": [[%d], [0]]}' % _BIG, ("float", 1, [[float(_BIG)], [0.0]])),
    ('{"dim": %d, "points": [[0.0]]}' % (_BIG + 1),
     f"ragged point set: expected {_BIG + 1} coordinates, got 1"),
    ('{"dim": 1, "points": [["\\ud800"]]}', "Invalid literal for Fraction: '\\ud800'"),
    ('{"dim": 1, "points": [["x"]], "points": [[0.5], [1]]}', ("float", 1, [[0.5], [1.0]])),
])
def test_documents_the_parsers_read_apart_load_as_before(text, want):
    assert _loaded(aeq.load_pointset, text) == _loaded(_stdlib_load, text)
    try:
        s = aeq.load_pointset(text)
    except ValueError as e:
        assert str(e) == want
    else:
        x, q = s.form
        assert (s.mode, q, x.tolist()) == want


def test_the_stdlib_reads_only_what_orjson_or_the_checks_refuse(monkeypatch):
    calls, loads = [], json.loads

    def counted(text):
        calls.append(text)
        return loads(text)

    monkeypatch.setattr(serialize.json, "loads", counted)
    good = ['{"dim": 2, "points": [[0.1, -0.0], [1, 2e-300]]}',
            '{"dim": 1, "mode": "exact", "points": [["1/3"], [-7]]}']
    for text in good:
        aeq.load_pointset(text)
    assert calls == []
    refused = ['{"dim": 1, "points": [[NaN]]}', '{"dim": 1, "points": [["x"]]}', "{not json"]
    for text in refused:
        with pytest.raises(ValueError):
            aeq.load_pointset(text)
    assert calls == refused


# ----------------------------------- CSV decoding: orjson, then the line walk


def _walk_only():
    """The CSV loaders with the orjson read off, so every text takes the line walk."""
    return mock.patch.object(serialize, "_json_csv_rows", lambda text: None)


def _matrix_loaded(text):
    """What load_matrix_csv makes of a text: the shape and float64 bytes, or its error."""
    try:
        m = aeq.load_matrix_csv(text)
    except Exception as e:
        return type(e).__name__, str(e)
    return m.shape, m.tobytes()


def _csv_loaded(text):
    return _loaded(aeq.load_pointset_csv, text), _matrix_loaded(text)


def _walk_only_loaded(text):
    with _walk_only():
        return _csv_loaded(text)


_csv_tokens = st.one_of(
    _float_texts,
    _float_texts,
    st.sampled_from([
        "-0", "-0.0", "-0e0", "-0E+0", "0", "00", "01", "-01", "1e-0", "1e-400", "-1e-400",
        "1e400", "1" + "0" * 400, str(2 ** 64), str(2 ** 64 - 1), str(-(2 ** 63) - 1),
        "1.", ".5", "+1", "1_0", "nan", "-nan", "inf", "-inf", "Infinity", "1e", "-", "",
    ]),
)
# a third of the texts keep to commas and newlines and a third to commas,
# spaces and blank lines, so that many reach orjson
_cell_separators = st.sampled_from([
    (",",), (",", ", ", " , "), (",", ", ", " ,", " ", "\t", ",,")])
_line_ends = st.sampled_from([
    ("\n",), ("\n", "\n\n", "\n  \n"), ("\n", "\r\n", "\r", "\n\n", "\n# c\n")])


@st.composite
def _csv_texts(draw):
    dim = draw(st.integers(1, 3))
    count = draw(st.sampled_from([dim, dim, 1, 2, 3]))
    separators, line_ends = st.sampled_from(draw(_cell_separators)), draw(_line_ends)
    lines = []
    for _ in range(count):
        width = draw(st.sampled_from([dim, dim, dim, dim + 1]))
        cells = draw(st.lists(_csv_tokens, min_size=width, max_size=width))
        line = cells[0]
        for cell in cells[1:]:
            line += draw(separators) + cell
        lines.append(line)
    text = draw(st.sampled_from(["", "", "# head\n", " "])) + lines[0]
    for line in lines[1:]:
        text += draw(st.sampled_from(line_ends)) + line
    return text + draw(st.sampled_from(("", "\n") + line_ends))


@settings(max_examples=600, deadline=None, database=None)
@given(text=_csv_texts())
def test_csv_texts_load_as_the_line_walk_loads_them(text):
    assert _csv_loaded(text) == _walk_only_loaded(text)


# the texts where orjson and float() read a token apart, or where JSON is
# the stricter grammar; each loads or fails as the line walk alone had it
@pytest.mark.parametrize("text, points, matrix", [
    ("-0,1\n1,-0\n", [[-0.0, 1.0], [1.0, -0.0]], [[-0.0, 1.0], [1.0, -0.0]]),
    ("1e400,0\n0,1\n", "coordinates must be finite, got (inf, 0.0)",
     "line 1: entries must be finite"),
    ("1" + "0" * 400 + ",0\n0,1\n", "coordinates must be finite, got (inf, 0.0)",
     "line 1: entries must be finite"),
    ("1.,.5\n+1,1\n", [[1.0, 0.5], [1.0, 1.0]], [[1.0, 0.5], [1.0, 1.0]]),
    ("1,,2\n3,4\n", [[1.0, 2.0], [3.0, 4.0]], [[1.0, 2.0], [3.0, 4.0]]),
    ("1,2,\n3,4,\n", [[1.0, 2.0], [3.0, 4.0]], [[1.0, 2.0], [3.0, 4.0]]),
    ("1,2\r3,4\r", [[1.0, 2.0], [3.0, 4.0]], [[1.0, 2.0], [3.0, 4.0]]),
    ("1,2\r\n3,4\r\n", [[1.0, 2.0], [3.0, 4.0]], [[1.0, 2.0], [3.0, 4.0]]),
    ("%d,-1e-400\n%d,0\n" % (2 ** 64, 2 ** 64 - 1), [[2.0 ** 64, -0.0], [2.0 ** 64, 0.0]],
     [[2.0 ** 64, -0.0], [2.0 ** 64, 0.0]]),
])
def test_csv_texts_the_readers_read_apart_load_as_before(text, points, matrix):
    assert _csv_loaded(text) == _walk_only_loaded(text)
    for load, want in ((aeq.load_pointset_csv, points), (aeq.load_matrix_csv, matrix)):
        try:
            got = load(text)
        except ValueError as e:
            assert str(e) == want
        else:
            a = got.array if isinstance(got, PointSet) else got
            assert a.tobytes() == np.array(want).tobytes()


def test_the_line_walk_reads_only_what_the_csv_rule_sends_it(monkeypatch):
    calls, walk = [], serialize._csv_rows

    def counted(text, cell):
        calls.append(text)
        return walk(text, cell)

    monkeypatch.setattr(serialize, "_csv_rows", counted)
    read = ["0,0\n1,0.5\n", "1e-5, -0.0\n\n 2 ,3E+2\n", "%d,-0e0\n1,2" % 2 ** 70]
    for text in read:
        aeq.load_pointset_csv(text)
        aeq.load_matrix_csv(text.replace("\n\n", "\n"))
    assert calls == []
    walked = ["-0,1\n", "1 2\n", "# c\n1,2\n", "1,2\r\n", "1\t2\n", "\ufeff1,2\n",
              "1,,2\n", "1e-0,2\n", "nan,1\n", "1e400,0\n"]
    for text in walked:
        with pytest.raises(ValueError):  # a row of 2 is not square, or a cell is bad
            aeq.load_matrix_csv(text)
    assert calls == walked
