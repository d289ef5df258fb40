import contextlib
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import aeq
from aeq import PointSet, Tolerance, geometry


def brute_triple_check(points, dist_tol=1e-9):
    """Oracle: walk every triple and demand a unit pair."""
    n = len(points)
    for i, j, k in itertools.combinations(range(n), 3):
        ok = False
        for a, b in ((i, j), (i, k), (j, k)):
            d2 = sum((p - q) ** 2 for p, q in zip(points[a], points[b]))
            if abs(d2 - 1.0) <= dist_tol:
                ok = True
                break
        if not ok:
            return False, (i, j, k)
    return True, None


def squared_distance(p, q):
    """The per-pair oracle: exact on Fractions."""
    assert len(p) == len(q)
    return sum((a - b) * (a - b) for a, b in zip(p, q))


def test_pointset_validation():
    with pytest.raises(ValueError):
        PointSet(dim=2, points=((0.0, 0.0), (1.0,)))
    with pytest.raises(ValueError):
        PointSet(dim=2, points=())
    with pytest.raises(ValueError):
        PointSet(dim=2, points=((0.0, 0.0),), mode="decimal")
    with pytest.raises(ValueError):
        PointSet(dim=1, points=((0.5,),), mode="exact")  # float coord in exact mode
    with pytest.raises(ValueError):
        PointSet(dim=0, points=((),))
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            PointSet(dim=2, points=((0.0, 0.0), (1.0, bad)))


def test_tolerance_validation():
    with pytest.raises(ValueError):
        Tolerance(dist_tol=-1e-9)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            Tolerance(dist_tol=bad)
        with pytest.raises(ValueError, match="finite"):
            Tolerance(eig_tol=bad)
    assert (Tolerance.exact().dist_tol, Tolerance.exact().eig_tol) == (0.0, 0.0)
    assert Tolerance() != Tolerance.exact()


def test_unit_triangle_is_almost_equidistant(unit_triangle):
    chk = aeq.is_almost_equidistant(unit_triangle)
    assert chk.ok
    assert chk.witness is None


def test_collinear_non_unit_fails():
    s = PointSet.from_array([[0.0], [2.0], [5.0]])
    chk = aeq.is_almost_equidistant(s)
    assert not chk.ok
    assert chk.witness == (0, 1, 2)


def test_witness_is_first_in_index_order():
    # points 0,1,2,3 mutually non-unit: every triple fails, report (0,1,2)
    s = PointSet.from_array([[0.0], [0.3], [0.7], [9.0]])
    chk = aeq.is_almost_equidistant(s)
    assert chk.witness == (0, 1, 2)


def test_exact_mode_triple_condition(rhombus, zigzag):
    assert aeq.is_almost_equidistant(rhombus).ok
    assert aeq.is_almost_equidistant(zigzag).ok
    # perturb one coordinate so a triple loses its unit pair
    rows = [list(r) for r in zigzag.points]
    rows[1][0] += Fraction(1, 7)
    broken = PointSet.exact_rows(rows)
    assert not aeq.is_almost_equidistant(broken).ok


def test_small_sets_trivially_pass():
    assert aeq.is_almost_equidistant(PointSet.from_array([[0.0, 0.0]])).ok
    assert aeq.is_almost_equidistant(PointSet.from_array([[0.0], [5.0]])).ok


def test_triple_condition_matches_oracle_fuzz():
    rng = np.random.default_rng(20240811)
    for trial in range(120):
        n = int(rng.integers(3, 10))
        d = int(rng.integers(1, 4))
        pts = rng.normal(size=(n, d))
        if trial % 3 == 0:
            # plant unit pairs so both outcomes appear
            for i in range(0, n - 1, 2):
                v = pts[i + 1] - pts[i]
                pts[i + 1] = pts[i] + v / max(np.linalg.norm(v), 1e-12)
        s = PointSet.from_array(pts)
        got = aeq.is_almost_equidistant(s)
        want_ok, want_witness = brute_triple_check([tuple(p) for p in pts])
        assert got.ok == want_ok
        if not want_ok:
            assert got.witness == want_witness


def test_squared_distance_matrix_modes_agree(rhombus):
    exact = aeq.squared_distance_matrix(rhombus)
    floats = aeq.squared_distance_matrix(
        PointSet.from_array([[float(c) for c in row] for row in rhombus.points])
    )
    for i in range(rhombus.n):
        for j in range(rhombus.n):
            assert abs(float(exact[i][j]) - floats[i, j]) < 1e-12


def test_recenter_exact(rhombus):
    centered = aeq.recenter_to_barycenter(rhombus)
    assert all(c == 0 for c in aeq.barycenter(centered))
    # distances unchanged
    assert aeq.squared_distance_matrix(centered) == aeq.squared_distance_matrix(rhombus)


def recentred_objects(x, q, n):
    """The exact recentring over Python ints, for any size of entry: the
    oracle for ``recenter_to_barycenter``, which runs the same body on the
    int64 view of X when its bound holds."""
    y = n * x - x.sum(axis=0)
    g = math.gcd(*y.flat, n * q)
    return PointSet._from_integers(y // g, n * q // g)


_big_ints = st.one_of(st.integers(-9, 9), st.integers(-2 ** 62, 2 ** 62),
                     st.sampled_from([2 ** 63, -2 ** 63, 2 ** 63 - 1, 2 ** 80, -(2 ** 80)]))


@settings(max_examples=150, deadline=None, database=None)
@given(n=st.integers(1, 6), dim=st.integers(1, 3), data=st.data())
def test_recenter_exact_in_int64_matches_the_object_body(n, dim, data):
    # entries on either side of the int64 bound 2 n max|X| < 2^63, and past int64
    rows = data.draw(st.lists(st.lists(st.builds(Fraction, _big_ints, st.sampled_from([1, 2, 7])),
                                       min_size=dim, max_size=dim), min_size=n, max_size=n))
    s = PointSet.exact_rows(rows)
    x, q = s.form
    got, want = aeq.recenter_to_barycenter(s), recentred_objects(x, q, s.n)
    assert got.form[1] == want.form[1]
    assert got.form[0].dtype == object and got.form[0].tolist() == want.form[0].tolist()
    assert all(type(v) is int for v in got.form[0].flat)


def test_recenter_float():
    rng = np.random.default_rng(7)
    s = PointSet.from_array(rng.normal(size=(9, 3)) + 5.0)
    centered = aeq.recenter_to_barycenter(s)
    assert max(abs(c) for c in aeq.barycenter(centered)) < 1e-12


def test_diameter_simplex():
    s = aeq.construct_simplex(4, 3)
    assert abs(aeq.diameter(s) - 1.0) < 1e-12


def test_summarize_triangle(unit_triangle):
    assert abs(aeq.diameter(unit_triangle) - 1.0) < 1e-12
    center, radius, _ = aeq.min_enclosing_ball(unit_triangle)
    # circumradius of the unit triangle
    assert abs(radius - 1.0 / math.sqrt(3.0)) < 1e-9
    assert abs(center[0] - 0.5) < 1e-9
    assert abs(center[1] - 0.28867513459481287) < 1e-9


def test_barycenter_identity_float_fuzz():
    rng = np.random.default_rng(101)
    for _ in range(60):
        n = int(rng.integers(1, 9))
        d = int(rng.integers(1, 5))
        x = PointSet.from_array(rng.uniform(-2, 2, size=(n, d)))
        y = PointSet.from_array(rng.uniform(-2, 2, size=(n, d)))
        res = aeq.barycenter_identity_check(x, y)
        assert res < 1e-9 * max(1.0, n * n * d * 16.0)


def test_barycenter_identity_exact_is_zero(rhombus, zigzag):
    assert aeq.barycenter_identity_check(rhombus, zigzag) == 0


def test_barycenter_identity_size_mismatch(rhombus, unit_triangle):
    with pytest.raises(ValueError):
        aeq.barycenter_identity_check(rhombus, unit_triangle)


def test_cached_distances_match_per_pair_oracle(rhombus):
    exact = aeq.squared_distance_matrix(rhombus)
    for i, p in enumerate(rhombus.points):
        for j, q in enumerate(rhombus.points):
            assert exact[i][j] == squared_distance(p, q)
    rng = np.random.default_rng(5)
    s = PointSet.from_array(rng.normal(size=(12, 4)))
    floats = aeq.squared_distance_matrix(s)
    assert floats is aeq.squared_distance_matrix(s)  # computed once
    for i, p in enumerate(s.points):
        for j, q in enumerate(s.points):
            assert abs(floats[i, j] - squared_distance(p, q)) <= 1e-12


def one_set_kernel(x):
    """The kernel as it was before it took stacks: one set (n, d) only."""
    sq = np.einsum("ij,ij->i", x, x)
    d2 = sq[:, None] + sq[None, :] - 2 * (x @ x.T)
    np.fill_diagonal(d2, 0)
    return np.maximum(d2, 0)


@pytest.mark.parametrize("ints", [False, True], ids=["float", "int"])
def test_kernel_stack_slices_equal_the_one_set_call(ints):
    from aeq.geometry import pairwise_squared_distances as kernel

    rng = np.random.default_rng(11)
    for n, d, lead in itertools.product((1, 2, 5, 9), (1, 2, 4), ((3,), (2, 2))):
        x = rng.normal(size=(*lead, n, d)) * 3
        if ints:
            x = np.rint(x * 1e6).astype(np.int64).astype(object) * 10 ** 20
        got = kernel(x)
        assert got.shape == (*lead, n, n) and got.dtype == x.dtype
        for idx in np.ndindex(*lead):
            assert np.array_equal(got[idx], kernel(x[idx])), (n, d, idx)
            assert np.array_equal(got[idx], one_set_kernel(x[idx])), (n, d, idx)
        if ints:
            assert all(type(v) is int for v in got.flat)


@contextlib.contextmanager
def kernel_bodies():
    """The dtypes the distance kernel's body runs on, in call order."""
    seen = []
    body = geometry._squared_distances

    def recording(x):
        seen.append(x.dtype)
        return body(x)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(geometry, "_squared_distances", recording)
        yield seen


def per_pair(rows):
    return [[squared_distance(p, q) for q in rows] for p in rows]


@st.composite
def int_stacks(draw):
    """An object array (*lead, n, d) of Python ints whose kernel bound
    4 d m^2, m = max|x|, lies just below, at or just above 2^53 (at it
    exactly for d = 2, 8 and 32)."""
    d = draw(st.sampled_from((1, 2, 3, 8, 32)))
    n = draw(st.integers(1, 6))
    lead = draw(st.sampled_from(((), (2,), (2, 2))))
    top = math.isqrt((2 ** 53 - 1) // (4 * d))  # the largest m below the bound
    m = top + draw(st.integers(-2, 2))
    size = math.prod(lead) * n * d
    flat = draw(st.lists(st.integers(-m, m), min_size=size, max_size=size))
    flat[draw(st.integers(0, size - 1))] = draw(st.sampled_from((m, -m)))
    return np.array(flat, dtype=object).reshape(*lead, n, d)


@settings(max_examples=150, deadline=None, database=None)
@given(x=int_stacks())
def test_exact_kernel_tiers_match_the_per_pair_oracle(x):
    d, m = x.shape[-1], max(abs(v) for v in x.flat)
    with kernel_bodies() as seen:
        got = geometry.pairwise_squared_distances(x)
    assert seen == [np.dtype(float) if 4 * d * m * m < 2 ** 53 else np.dtype(object)]
    assert got.dtype == object and all(type(v) is int for v in got.flat)
    for idx in np.ndindex(*x.shape[:-2]):
        assert got[idx].tolist() == per_pair(x[idx].tolist())
        assert np.array_equal(got[idx], geometry.pairwise_squared_distances(x[idx]))


def test_ints_that_would_round_in_float64_take_the_object_body():
    big = 2 ** 26  # 4 d m^2 = 2^55 in d = 2
    x = np.array([[big + 1, big], [0, 0], [-big, 3]], dtype=object)
    want = per_pair(x.tolist())
    assert int(geometry._squared_distances(x.astype(float))[0, 1]) != want[0][1]  # it rounds
    with kernel_bodies() as seen:
        got = geometry.pairwise_squared_distances(x)
    assert seen == [np.dtype(object)]
    assert got.tolist() == want and all(type(v) is int for v in got.flat)


def test_stack_slices_equal_the_one_set_call_across_tiers():
    x = np.random.default_rng(3).integers(-1000, 1000, size=(3, 5, 2)).astype(object)
    x[1, 0, 0] = 2 ** 26 + 1  # too large for float64 in slice 1, and so in the stack
    with kernel_bodies() as seen:
        got = geometry.pairwise_squared_distances(x)
        slices = [geometry.pairwise_squared_distances(x[i]) for i in range(3)]
    assert seen == [np.dtype(t) for t in (object, float, object, float)]
    for g, one, rows in zip(got, slices, x.tolist()):
        assert g.tolist() == one.tolist() == per_pair(rows)
        assert all(type(v) is int for v in g.flat)


def test_cross160_takes_the_float_tier_and_matches_the_object_body():
    half, d = Fraction(1, 2), 160
    shift = [Fraction((-1) ** i * (1 + i % 6), 7) for i in range(d)]  # sevenths
    rows = []
    for k in range(0, d, 2):  # the rows +-(e_k +- e_k+1)/2 of R^160, shifted
        for a, b in itertools.product((half, -half), repeat=2):
            row = shift[:]
            row[k] += a
            row[k + 1] += b
            rows.append(row)
    x, q = PointSet.exact_rows(rows).form
    assert q == 14
    with kernel_bodies() as seen:
        got = geometry.pairwise_squared_distances(x)
    assert seen == [np.dtype(float)]
    assert got.dtype == object and all(type(v) is int for v in got.flat)
    assert got.tolist() == geometry._squared_distances(x).tolist()


EDGES = (0, 1, -1, 3, -7, 2 ** 53 - 1, -(2 ** 53 - 1), 2 ** 53, -(2 ** 53),
         2 ** 53 + 1, -(2 ** 53 + 1), 10 ** 300)


def fraction_floats(ints, scale):
    return np.array([[float(Fraction(v, scale)) for v in row] for row in ints], dtype=float)


def assert_bit_equal(got, want):
    assert got.dtype == want.dtype and np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize("scale", (1, 3, 7 * 2 ** 40, 2 ** 53, 2 ** 53 + 1, 3 ** 40))
def test_exact_floats_match_the_fraction_oracle_at_the_edges(scale):
    for rows in [[[v]] for v in EDGES] + [[list(EDGES[:-1])], [list(EDGES)]]:
        ints = np.array(rows, dtype=object)
        assert_bit_equal(geometry._exact_floats(ints, scale), fraction_floats(rows, scale))


def test_exact_floats_edges_need_their_fallback():
    # one float division would round twice past 2^53: in the entry, or in the scale
    assert float(2 ** 53 + 1) / 3 != float(Fraction(2 ** 53 + 1, 3))
    assert float(2 ** 53 - 1) / float(2 ** 53 + 1) != float(Fraction(2 ** 53 - 1, 2 ** 53 + 1))
    huge = np.array([[10 ** 400, -(10 ** 400)]], dtype=object)  # beyond the float range
    assert_bit_equal(geometry._exact_floats(huge, 10 ** 100), np.array([[1e300, -1e300]]))


@settings(max_examples=200, deadline=None, database=None)
@given(rows=st.lists(st.lists(st.integers(-(2 ** 60), 2 ** 60), min_size=3, max_size=3),
                     min_size=1, max_size=4),
       scale=st.integers(1, 2 ** 60))
def test_exact_floats_match_the_fraction_oracle(rows, scale):
    ints = np.array(rows, dtype=object)
    assert_bit_equal(geometry._exact_floats(ints, scale), fraction_floats(rows, scale))


def test_cached_arrays_are_read_only():
    s = aeq.construct_simplex(4, 3)
    for arr in (s.array, aeq.squared_distance_matrix(s)):
        with pytest.raises(ValueError):
            arr[0, 0] = 1.0


def test_triple_check_verdict_per_tolerance():
    # pair (0, 1) misses unit distance by 5e-4; the other pairs are far
    a = math.sqrt(1.0005)
    s = PointSet.from_array([[0.0, 0.0], [a, 0.0], [a / 2, math.sqrt(4.0 - a * a / 4)]])
    for _ in range(2):
        assert aeq.is_almost_equidistant(s, Tolerance(dist_tol=1e-9)).witness == (0, 1, 2)
        assert aeq.is_almost_equidistant(s, Tolerance(dist_tol=1e-3)).ok


def test_pipeline_computes_distances_once_per_set(monkeypatch, capsys, tmp_path):
    from aeq import geometry
    from aeq.cli import main

    calls = []
    kernel = geometry.pairwise_squared_distances

    def counting(x):
        calls.append(len(x))
        return kernel(x)

    monkeypatch.setattr(geometry, "pairwise_squared_distances", counting)
    path = tmp_path / "simplex.json"
    path.write_text(aeq.dumps_report(aeq.pointset_to_dict(aeq.construct_simplex(5, 4))))
    assert main(["pipeline", "--diameter", "--input", str(path)]) == 0
    capsys.readouterr()
    assert len(calls) <= 2  # the set and its recentred copy


def test_exact_pipeline_builds_no_per_pair_fractions(monkeypatch, capsys, tmp_path):
    from aeq import geometry
    from aeq.cli import main

    calls = []

    class CountingFraction(Fraction):
        def __new__(cls, *args, **kwargs):
            calls.append(1)
            return super().__new__(cls, *args, **kwargs)

    half = Fraction(1, 2)
    rows = []
    for k in range(8):  # cross16: the rows +-(e_2k +- e_2k+1)/2 of R^16
        for a, b in itertools.product((half, -half), repeat=2):
            row = [0] * 16
            row[2 * k], row[2 * k + 1] = a, b
            rows.append(row)
    path = tmp_path / "cross16.json"
    path.write_text(aeq.dumps_report(aeq.pointset_to_dict(PointSet.exact_rows(rows))))
    monkeypatch.setattr(geometry, "Fraction", CountingFraction)
    assert main(["pipeline", "--exact", "--input", str(path)]) == 0
    capsys.readouterr()
    assert 0 < len(calls) < len(rows)  # a few scalars, none per pair or per point


def test_pipeline_certifies_once_per_set(monkeypatch, capsys, tmp_path):
    from aeq import spectral
    from aeq.cli import main

    calls = []
    solver = spectral.eigenvalues

    def counting(m, eig_tol):
        calls.append(eig_tol)
        return solver(m, eig_tol)

    monkeypatch.setattr(spectral, "eigenvalues", counting)
    path = tmp_path / "simplex.json"
    path.write_text(aeq.dumps_report(aeq.pointset_to_dict(aeq.construct_simplex(30, 29))))
    assert main(["pipeline", "--diameter", "--input", str(path)]) == 0
    capsys.readouterr()
    assert len(calls) == 1  # diameter_bound and the pipeline share one certificate
    s = aeq.construct_two_simplices(3)
    for _ in range(2):
        aeq.certify(s, Tolerance(dist_tol=1e-9, eig_tol=1e-8))
        aeq.certify(s, Tolerance(dist_tol=1e-9, eig_tol=1e-6))
    assert calls[1:] == [1e-8, 1e-6]  # one certificate per tolerance


@pytest.mark.parametrize("rows", [
    [[0, 3], [-2, 5]],
    [[Fraction(1, 2), Fraction(-3, 7)], [Fraction(5), Fraction(0)]],
    [["1/2", "-3/7"], ["2.5", "1e-3"]],
    [[0.5, -0.375], [1e-3, 3.0]],
    [[True, False], [False, True]],
    [[1, Fraction(1, 3)], ["-2/9", 0.25], [True, 7]],
], ids=["int", "Fraction", "str", "float", "bool", "mixed"])
def test_exact_rows_keeps_ints_and_fractions_and_converts_the_rest(rows):
    got = PointSet.exact_rows(rows)
    want = PointSet(dim=len(rows[0]), points=[[Fraction(c) for c in r] for r in rows],
                    mode="exact")
    x, q = got.form
    assert q == want.form[1] and x.tolist() == want.form[0].tolist()
    assert all(type(v) is int for v in x.flat)
    assert got.points == want.points


def test_exact_rows_reports_a_bad_coordinate_as_fraction_does():
    with pytest.raises(ValueError, match="^Invalid literal for Fraction: 'x'$"):
        PointSet.exact_rows([[0, "x"]])
    with pytest.raises(TypeError):
        PointSet.exact_rows([[0, None]])
