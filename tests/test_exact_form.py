"""The one machine-integer form of an exact set.

An exact set's integers X are int64 when 4 d max|X|^2 < 2^53 and Python
ints otherwise (``geometry._machine_ints``); its squared distances D take
X's dtype, and its defect matrix U = D - q^2 is int64 when D is and
q^2 < 2^53. Every exact layer runs one body in the dtype it is given. The
object bodies are the oracle: ``object_forms`` builds every set in the
object form, so each layer runs its object body on the same set.
"""
import contextlib
import itertools
import json
import math
from dataclasses import fields, is_dataclass
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import aeq
from aeq import PointSet, cli, geometry
from conftest import in_one_form

CRITICAL = repr(math.sqrt(0.5))


@contextlib.contextmanager
def object_forms():
    """Every exact set built inside takes the object form of its integers."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(geometry, "_machine_ints", lambda x: x.astype(object))
        yield


def largest_fitting(d):
    """The largest m with 4 d m^2 < 2^53."""
    m = math.isqrt((2 ** 53 - 1) // (4 * d))
    assert 4 * d * m * m < 2 ** 53 <= 4 * d * (m + 1) ** 2
    return m


def turn(k):
    """(cos, sin) of the angle of (3 + 4i)^k: a point of the unit circle over 5^k."""
    a, b = 1, 0
    for _ in range(k):
        a, b = 3 * a - 4 * b, 4 * a + 3 * b
    c, s = Fraction(a, 5 ** k), Fraction(b, 5 ** k)
    assert c * c + s * s == 1
    return c, s


def rotated_cross(k):
    """The cross set +-(e_0 +- e_1)/2, +-(e_2 +- e_3)/2 of R^4, on the
    critical sphere and almost equidistant, turned in the (e_0, e_2) plane by
    the angle of (3 + 4i)^k, so q = 2 * 5^k and max|X| is about 5^k."""
    c, s = turn(k)
    h = Fraction(1, 2)
    rows = []
    for block in (0, 2):
        for a, b in itertools.product((h, -h), repeat=2):
            row = [Fraction(0)] * 4
            row[block], row[block + 1] = a, b
            rows.append(row)
    return [[c * x0 - s * x2, x1, s * x0 + c * x2, x3] for x0, x1, x2, x3 in rows]


def rotated_path(k):
    """0, 1/2 and 1 on a line of R^2 turned by the angle of (3 + 4i)^k: diameter 1."""
    c, s = turn(k)
    return [[t * c, t * s] for t in (Fraction(0), Fraction(1, 2), Fraction(1))]


def commands(path, dim):
    """The exact reports: verify, certify, pipeline and the three bounds theorems."""
    common = ["--exact", "--input", str(path)]
    bounds = ["bounds", "--dim", str(dim)]
    return [
        ["verify", *common],
        ["certify", *common],
        ["pipeline", *common],
        [*bounds, "--theorem", "diameter", *common],
        [*bounds, "--theorem", "sphere", "--radius", CRITICAL, *common],
        [*bounds, "--theorem", "ball", "--c0", "0", *common],
    ]


def run_all(capsys, path, dim):
    """(exit code, stdout, stderr) of each command on the set at path."""
    out = []
    for argv in commands(path, dim):
        code = cli.main(argv)
        captured = capsys.readouterr()
        out.append((argv[0], code, captured.out, captured.err))
    return out


def write_set(tmp_path, name, rows):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps({"dim": len(rows[0]), "mode": "exact",
                                "points": [[str(c) for c in r] for r in rows]}))
    return path


# -- the edges of the rule --------------------------------------------------------


@pytest.mark.parametrize("d", [1, 2, 3, 8])
@pytest.mark.parametrize("over", [0, 1])
def test_the_form_switches_to_python_ints_exactly_past_the_bound(d, over):
    m = largest_fitting(d) + over
    rows = [[0] * d, [m] + [0] * (d - 1), [1] * d]
    x, q = PointSet.exact_rows(rows).form
    assert q == 1 and in_one_form(x)
    assert x.dtype == (object if over else np.int64)
    x, q = PointSet.exact_rows([[Fraction(v, 3) for v in r] for r in rows]).form
    assert q == 3 and x.dtype == (object if over else np.int64)


@pytest.mark.parametrize("over", [0, 1])
def test_the_recentred_set_takes_its_form_by_the_same_rule(over):
    # [m], [0], [0] recentre to (3 X - m) / 3 = [2m, -m, -m] / 3, in lowest
    # terms when 3 does not divide m: an int64 set whose recentred set is
    # int64 up to 2m = the largest fitting value, and Python ints past it
    top = largest_fitting(1)
    m = top // 2 + over
    m += 0 if m % 3 else 2 * over - 1  # off the multiples of 3, on the same side
    s = PointSet.exact_rows([[m], [0], [0]])
    y, q = aeq.recenter_to_barycenter(s).form
    assert s.form[0].dtype == np.int64 and q == 3
    assert y.tolist() == [[2 * m], [-m], [-m]] and in_one_form(y)
    assert y.dtype == (object if over else np.int64)


@pytest.mark.parametrize("over", [0, 1])
def test_the_defect_matrix_switches_to_python_ints_at_q_squared_2_53(over):
    q = math.isqrt(2 ** 53 - 1) + over  # q^2 < 2^53 exactly when over is 0
    s = PointSet.exact_rows([[0], [Fraction(1, q)], [Fraction(3, q)]])
    assert s.form[0].dtype == np.int64 and s.scaled_sqdist[0].dtype == np.int64
    u = aeq.defect_matrix(s)
    assert u.scale == q * q and (u.scale < 2 ** 53) is not bool(over)
    assert u.values.dtype == (object if over else np.int64)
    if over:
        assert all(type(v) is int for v in u.values.flat)
    with object_forms():
        want = aeq.defect_matrix(PointSet.exact_rows(s.points))
    assert u.values.tolist() == want.values.tolist()
    assert np.array_equal(u.array, want.array)


def test_exact_floats_divide_as_python_ints_past_a_scale_of_2_53():
    q = 2 ** 53 + 1  # no float: one float division would round the scale first
    s = PointSet.exact_rows([[Fraction(1, q)], [Fraction(5, q)]])
    assert s.form[0].dtype == np.int64 and 1 / float(q) != float(Fraction(1, q))
    assert s.array[:, 0].tolist() == [float(Fraction(1, q)), float(Fraction(5, q))]


def test_row_sums_of_an_int64_defect_matrix_past_int64_are_exact():
    # one point at -m and 1025 at +m: the first row sums 1025 entries 4 m^2 - 1,
    # each below 2^53, past 2^63 in all
    m = largest_fitting(1)
    s = PointSet.exact_rows([[-m]] + [[m]] * 1025)
    assert aeq.defect_matrix(s).values.dtype == np.int64
    fs = aeq.f_statistic(s)
    first = 1025 * (4 * m * m - 1)
    assert first > 2 ** 63 and fs.per_point_sums[0] == first and fs.argmax_index == 0
    assert fs.per_point_sums[1] == 4 * m * m - 1 - 1024


def _edge_sets():
    """(name, rows): sets at either side of each edge of the rule."""
    sets = []
    for over in (0, 1):
        m = largest_fitting(2) + over
        # (0, 1) at unit distance, the other pairs not: almost equidistant
        sets.append((f"m{over}", [[1, 0], [0, 0], [Fraction(1, m), Fraction(m - 1, m)]]))
        q = math.isqrt(2 ** 53 - 1) + over
        sets.append((f"q{over}", [[0], [Fraction(1, q)]]))
    # q^2 past int64 as well, with X in int64
    sets.append(("q64", [[0], [Fraction(1, 2 ** 32 + 1)]]))
    return sets + [("cross", rotated_cross(1)), ("path", rotated_path(1))]


EDGE_SETS = _edge_sets()


@pytest.mark.parametrize("name, rows", EDGE_SETS, ids=[n for n, _ in EDGE_SETS])
def test_both_forms_give_identical_reports(capsys, tmp_path, name, rows):
    path = write_set(tmp_path, name, rows)
    got = run_all(capsys, path, len(rows[0]))
    with object_forms():
        want = run_all(capsys, path, len(rows[0]))
    assert got == want


# -- each int64 body against its object body ------------------------------------


@st.composite
def machine_sets(draw):
    """Rows of Fractions whose integer form is int64: max|X| up to the bound."""
    d = draw(st.integers(1, 4))
    n = draw(st.integers(1, 6))
    m = draw(st.sampled_from([1, 3, 2 ** 10, largest_fitting(d)]))
    q = draw(st.sampled_from([1, 2, 7, 94906265, 94906266, 2 ** 40 + 1]))
    flat = draw(st.lists(st.integers(-m, m), min_size=n * d, max_size=n * d))
    return [[Fraction(v, q) for v in flat[i * d:(i + 1) * d]] for i in range(n)]


@settings(max_examples=150, deadline=None, database=None)
@given(rows=machine_sets())
def test_each_int64_body_equals_its_object_body(rows):
    s = PointSet.exact_rows(rows)
    with object_forms():
        o = PointSet.exact_rows(rows)
    (x, q), (ox, oq) = s.form, o.form
    assert x.dtype == np.int64 and ox.dtype == object and q == oq
    assert x.tolist() == ox.tolist()
    # the kernel
    (d2, q2), (od2, _) = s.scaled_sqdist, o.scaled_sqdist
    assert d2.dtype == np.int64 and d2.tolist() == od2.tolist()
    # the non-unit mask D != q^2, and the triple verdict
    assert aeq.is_almost_equidistant(s) == aeq.is_almost_equidistant(o)
    assert np.array_equal(s._triple_checks[0.0][1], o._triple_checks[0.0][1])
    # U = D - q^2, and its row sums
    u, ou = aeq.defect_matrix(s), aeq.defect_matrix(o)
    assert u.values.dtype == (np.int64 if q2 < 2 ** 53 else object)
    assert u.values.tolist() == ou.values.tolist() and u.scale == ou.scale
    assert aeq.f_statistic(s) == aeq.f_statistic(o)
    # the exact floats, bit for bit
    for a, b in ((s.array, o.array), (u.array, ou.array)):
        assert a.dtype == b.dtype == float and np.array_equal(a, b)
        assert np.array_equal(np.signbit(a), np.signbit(b))
    # the recentring
    c, oc = aeq.recenter_to_barycenter(s), aeq.recenter_to_barycenter(o)
    assert in_one_form(c.form[0])
    assert c.form[1] == oc.form[1] and c.form[0].tolist() == oc.form[0].tolist()
    assert aeq.barycenter(s) == aeq.barycenter(o)


# -- no numpy scalar reaches a report or a Fraction ----------------------------


def numpy_scalars(obj, where="report"):
    """The places in a report where a numpy scalar, or a Fraction with a
    part that is not a Python int, sits."""
    if isinstance(obj, np.generic):
        return [f"{where}: {type(obj).__name__}"]
    if isinstance(obj, Fraction):
        ok = type(obj.numerator) is int and type(obj.denominator) is int
        return [] if ok else [f"{where}: {obj!r}"]
    if is_dataclass(obj):
        items = [(f.name, getattr(obj, f.name)) for f in fields(obj)]
    elif isinstance(obj, dict):
        items = list(obj.items())
        if any(isinstance(k, np.generic) for k in obj):
            return [f"{where}: a numpy key"]
    elif isinstance(obj, (list, tuple)):
        items = list(enumerate(obj))
    elif isinstance(obj, np.ndarray):  # each entry of a numeric array is a numpy scalar
        items = list(enumerate(obj.ravel()))
    else:
        return []
    return [bad for k, v in items for bad in numpy_scalars(v, f"{where}.{k}")]


def fraction_spy(built):
    """A stand-in for the name Fraction in aeq's modules: it builds real
    Fractions, appends (args, result) of each to built, and passes
    isinstance checks as Fraction does."""

    class Spy(type):
        def __call__(cls, *args):
            built.append((args, Fraction(*args)))
            return built[-1][1]

        def __instancecheck__(cls, obj):
            return isinstance(obj, Fraction)

        def __subclasscheck__(cls, sub):
            return issubclass(sub, Fraction)

    return Spy("Fraction", (), {})


CODES = {"cross": [0, 0, 0, 1, 0, 0], "path": [0, 0, 0, 0, 1, 0]}


@pytest.mark.parametrize("k, form", [(1, np.int64), (30, object)], ids=["int64", "object"])
def test_no_numpy_scalar_reaches_a_report_or_a_fraction(capsys, tmp_path, monkeypatch, k, form):
    reports = []
    dumps = cli.dumps_report

    def recording(obj):
        reports.append(obj)
        return dumps(obj)

    monkeypatch.setattr(cli, "dumps_report", recording)
    built = []
    spy = fraction_spy(built)
    for module in ("geometry", "bounds", "spectral", "miniball", "serialize", "charpoly"):
        mod = getattr(aeq, module)
        if hasattr(mod, "Fraction"):
            monkeypatch.setattr(mod, "Fraction", spy)
    for name, rows in (("cross", rotated_cross(k)), ("path", rotated_path(k))):
        s = PointSet.exact_rows(rows)
        assert s.form[0].dtype == form
        path = write_set(tmp_path, name, rows)
        runs = run_all(capsys, path, len(rows[0]))
        # every report passes on one of the two sets: the cross set's
        # diameter is sqrt(2), and the path is off the critical sphere
        assert [code for _, code, _, _ in runs] == CODES[name]
        points = aeq.load_pointset(path.read_text())
        for view in (points, aeq.recenter_to_barycenter(points)):
            # the --out writer's document, and its text
            doc = aeq.pointset_to_dict(view)
            reports += [doc, aeq.barycenter(view)]
            assert aeq.load_pointset(aeq.dumps_report(doc)).points == view.points
    assert len(reports) == 2 * (6 + 4)
    for report in reports:
        assert numpy_scalars(report) == []
    assert built
    for args, f in built:
        assert not any(isinstance(a, np.generic) for a in args), args
        assert type(f.numerator) is int and type(f.denominator) is int, args
