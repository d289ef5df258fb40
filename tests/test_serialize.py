import json
import math
import re
from dataclasses import asdict, dataclass, is_dataclass
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    out = aeq.dumps_report({"a": [1, 2], "b": {"c": None}}, indent=2)
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


def _asdict_report(obj, indent):
    """dumps_report as it was: a dataclass deep-copied by asdict, then walked."""
    plain = serialize._plain(asdict(obj) if is_dataclass(obj) else obj)
    return serialize._dumps(plain, indent, 0) + "\n"


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
    for indent in (0, 1, 2):
        assert aeq.dumps_report(obj, indent) == _asdict_report(obj, indent)


@pytest.fixture
def report_inputs(tmp_path, rhombus, corpus_path):
    paths = {"graphs": str(corpus_path)}
    sets = {"float": aeq.construct_two_simplices(3), "exact": rhombus,
            "far": PointSet.from_array([[0.0], [1.5]])}
    for name, s in sets.items():
        paths[name] = str(tmp_path / f"{name}.json")
        (tmp_path / f"{name}.json").write_text(aeq.dumps_report(aeq.pointset_to_dict(s)))
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
]


def test_cli_reports_render_as_asdict_renders_them(monkeypatch, capsys, report_inputs):
    seen = []

    def checked(obj, indent=0):
        text = serialize.dumps_report(obj, indent)
        assert text == _asdict_report(obj, indent)
        seen.append(obj)
        return text

    monkeypatch.setattr(cli, "dumps_report", checked)
    for run in _CLI_RUNS:
        cli.main(run.format(**report_inputs).split())
    capsys.readouterr()
    assert len(seen) == len(_CLI_RUNS)
    assert all(is_dataclass(obj) for obj in seen)
