import math

import numpy as np
import pytest

import aeq


def pairwise_sq(pts):
    diff = pts[:, None, :] - pts[None, :, :]
    return np.einsum("ijk,ijk->ij", diff, diff)


def test_simplex_segment():
    pts = aeq.construct_simplex(2, 1).array
    assert sorted(pts[:, 0].tolist()) == pytest.approx([-0.5, 0.5])


def test_simplex_unit_distances():
    for k, d in [(3, 2), (4, 3), (5, 7), (11, 10)]:
        pts = aeq.construct_simplex(k, d).array
        assert pts.shape == (k, d)
        d2 = pairwise_sq(pts)
        off = ~np.eye(k, dtype=bool)
        assert np.abs(d2[off] - 1.0).max() < 1e-12
        # recentred
        assert np.abs(pts.mean(axis=0)).max() < 1e-12


def test_simplex_circumradius_matches_norms():
    for k in (2, 3, 4, 9):
        pts = aeq.construct_simplex(k, k - 1).array
        norms = np.sqrt((pts ** 2).sum(axis=1))
        want = math.sqrt((k - 1) / (2.0 * k))
        assert np.abs(norms - want).max() < 1e-12
        assert aeq.simplex_circumradius(k) == pytest.approx(want)


def test_simplex_rejects_too_many_vertices():
    with pytest.raises(ValueError, match="k <= d \\+ 1"):
        aeq.construct_simplex(5, 3)
    with pytest.raises(ValueError):
        aeq.construct_simplex(0, 3)


def test_two_simplices_shape_and_sphere():
    for d in (2, 3, 7, 30):
        s = aeq.construct_two_simplices(d)
        assert s.n == 2 * d + 2 and s.dim == d
        r = math.sqrt(d / (2.0 * (d + 1)))
        norms = np.sqrt((s.array ** 2).sum(axis=1))
        assert np.abs(norms - r).max() < 1e-9
        assert aeq.is_almost_equidistant(s).ok


def test_two_simplices_copies_are_disjoint():
    for d in (2, 3, 4, 10):
        pts = aeq.construct_two_simplices(d).array
        d2 = pairwise_sq(pts)
        off = ~np.eye(len(pts), dtype=bool)
        assert d2[off].min() > 1e-6


def test_two_simplices_degenerate_line():
    with pytest.warns(UserWarning, match="R\\^1"):
        s = aeq.construct_two_simplices(1)
    assert s.n == 2


def test_two_simplices_rejects_dim_zero():
    with pytest.raises(ValueError):
        aeq.construct_two_simplices(0)


def test_rosenfeld_counts_and_norms():
    for d in (2, 3, 5, 30):
        s = aeq.construct_rosenfeld(d)
        assert s.n == 2 * d and s.dim == d
        norms = np.sqrt((s.array ** 2).sum(axis=1))
        assert np.abs(norms - math.sqrt(0.5)).max() < 1e-9
        assert aeq.is_almost_equidistant(s).ok


def test_rosenfeld_requires_dim_two():
    with pytest.raises(ValueError):
        aeq.construct_rosenfeld(1)


def test_rosenfeld_spectrum_two_level():
    # defect matrix eigenvalues are +-1, each with multiplicity d
    s = aeq.construct_rosenfeld(4)
    spec = aeq.eigenvalues(aeq.defect_matrix(s))
    assert sum(1 for v in spec.values if abs(v - 1.0) <= 1e-8) == 4
    assert sum(1 for v in spec.values if abs(v + 1.0) <= 1e-8) == 4


def test_lift_preserves_distances_and_norms():
    for d in (2, 3, 6):
        s = aeq.construct_two_simplices(d)
        r = math.sqrt(d / (2.0 * (d + 1)))
        lifted = aeq.lift_to_halfsphere(s, r)
        assert lifted.dim == d + 1 and lifted.n == s.n
        before = pairwise_sq(s.array)
        after = pairwise_sq(lifted.array)
        assert np.abs(before - after).max() <= 1e-12
        norms = np.sqrt((lifted.array ** 2).sum(axis=1))
        assert np.abs(norms - math.sqrt(0.5)).max() < 1e-9


def test_lift_at_critical_radius_appends_zero():
    s = aeq.construct_rosenfeld(3)
    lifted = aeq.lift_to_halfsphere(s, math.sqrt(0.5))
    assert np.abs(lifted.array[:, -1]).max() < 1e-9


def test_lift_rejects_off_sphere_points():
    s = aeq.construct_simplex(3, 2)  # radius 1/sqrt(3)
    with pytest.raises(ValueError, match="stated sphere"):
        aeq.lift_to_halfsphere(s, 0.25)


def test_lift_rejects_large_radius():
    s = aeq.construct_simplex(3, 2)
    for r in (0.9, -0.1, float("nan")):
        with pytest.raises(ValueError, match=r"^radius must satisfy 0 <= r <= 1/sqrt\(2\)$"):
            aeq.lift_to_halfsphere(s, r)


def test_lifted_set_still_certifies():
    s = aeq.construct_two_simplices(3)
    lifted = aeq.lift_to_halfsphere(s, math.sqrt(3.0 / 8.0))
    cert = aeq.certify(lifted)
    assert cert.lemma1_holds
    assert cert.n <= 2 * (cert.dim + 1)


def test_construct_dispatch_all_kinds():
    assert aeq.construct("simplex", 3).n == 4
    assert aeq.construct("simplex", 3, count=2).n == 2
    assert aeq.construct("two_simplices", 4).n == 10
    assert aeq.construct("rosenfeld", 4).n == 8
    lifted = aeq.construct("two_simplices", 2, lift=True)
    base = aeq.lift_to_halfsphere(aeq.construct_two_simplices(2), math.sqrt(2.0 / 6.0))
    assert lifted.dim == 3
    assert np.array_equal(lifted.array, base.array)


def test_construct_spec_validation():
    with pytest.raises(ValueError, match="kind"):
        aeq.construct("hypercube", 3)
    with pytest.raises(ValueError, match="dim"):
        aeq.construct("simplex", 0)
