import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

import aeq
from aeq import PointSet, Tolerance


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


def test_squared_distance_exact():
    p = (Fraction(3, 5), Fraction(4, 5))
    q = (Fraction(0), Fraction(0))
    d2 = aeq.squared_distance(p, q)
    assert d2 == 1
    assert isinstance(d2, Fraction)


def test_squared_distance_dimension_mismatch():
    with pytest.raises(ValueError):
        aeq.squared_distance((0.0,), (0.0, 1.0))


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
    assert Tolerance.exact().is_exact
    assert not Tolerance().is_exact


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


def test_recenter_float():
    rng = np.random.default_rng(7)
    s = PointSet.from_array(rng.normal(size=(9, 3)) + 5.0)
    centered = aeq.recenter_to_barycenter(s)
    assert max(abs(c) for c in aeq.barycenter(centered)) < 1e-12


def test_diameter_simplex():
    s = aeq.construct_simplex(4, 3)
    assert abs(aeq.diameter(s) - 1.0) < 1e-12


def test_summarize_triangle(unit_triangle):
    g = aeq.summarize(unit_triangle)
    assert abs(g.diameter - 1.0) < 1e-12
    # circumradius of the unit triangle
    assert abs(g.mer_radius - 1.0 / math.sqrt(3.0)) < 1e-9
    assert abs(g.mer_center[0] - 0.5) < 1e-9
    assert abs(g.mer_center[1] - 0.28867513459481287) < 1e-9


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
            assert exact[i][j] == aeq.squared_distance(p, q)
    rng = np.random.default_rng(5)
    s = PointSet.from_array(rng.normal(size=(12, 4)))
    floats = aeq.squared_distance_matrix(s)
    assert floats is aeq.squared_distance_matrix(s)  # computed once
    for i, p in enumerate(s.points):
        for j, q in enumerate(s.points):
            assert abs(floats[i, j] - aeq.squared_distance(p, q)) <= 1e-12


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
    per_pair = geometry.squared_distance

    def counting(p, q):
        calls.append(1)
        return per_pair(p, q)

    monkeypatch.setattr(geometry, "squared_distance", counting)
    half = Fraction(1, 2)
    rows = []
    for k in range(8):  # cross16: the rows +-(e_2k +- e_2k+1)/2 of R^16
        for a, b in itertools.product((half, -half), repeat=2):
            row = [0] * 16
            row[2 * k], row[2 * k + 1] = a, b
            rows.append(row)
    path = tmp_path / "cross16.json"
    path.write_text(aeq.dumps_report(aeq.pointset_to_dict(PointSet.exact_rows(rows))))
    assert main(["pipeline", "--exact", "--input", str(path)]) == 0
    capsys.readouterr()
    assert calls == []


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
