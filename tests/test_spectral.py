import math
import warnings
from dataclasses import asdict
from fractions import Fraction

import numpy as np
import pytest

import aeq
from aeq import PointSet, Spectrum, Tolerance
from aeq.spectral import NonFiniteMatrix


def test_defect_matrix_rhombus_exact_entries(rhombus):
    u = aeq.defect_matrix(rhombus)
    assert u.mode == "exact"
    entries = [[Fraction(v, u.scale) for v in row] for row in u.values.tolist()]
    assert entries[0][3] == Fraction(11, 5)
    assert entries[1][2] == Fraction(-1, 5)
    # unit pairs contribute exact zeros
    assert entries[0][1] == 0
    assert entries[0][2] == 0
    assert entries[1][3] == 0
    assert entries[2][3] == 0


def test_defect_matrix_invariants_fuzz():
    rng = np.random.default_rng(99)
    for _ in range(25):
        pts = rng.normal(size=(int(rng.integers(2, 9)), int(rng.integers(1, 5))))
        s = PointSet.from_array(pts)
        u = aeq.defect_matrix(s).array
        assert np.all(np.diag(u) == 0.0)
        assert np.array_equal(u, u.T)
        d2 = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2)
        off = ~np.eye(len(pts), dtype=bool)
        assert np.abs(u[off] - (d2[off] - 1.0)).max() < 1e-12


def test_unit_simplex_defect_vanishes():
    u = aeq.defect_matrix(aeq.construct_simplex(4, 3)).array
    assert np.abs(u).max() < 1e-12


def test_defect_entries_read_only():
    u = aeq.defect_matrix(aeq.construct_two_simplices(3))
    assert u.array is u.values
    with pytest.raises(ValueError):
        u.values[0, 1] = 0.0


def test_cube_trace_matches_einsum_oracle():
    fleet = [aeq.construct_simplex(k, 6) for k in (3, 7)]
    fleet += [aeq.construct_two_simplices(d) for d in (2, 3, 5, 8, 13)]
    fleet += [aeq.construct_rosenfeld(d) for d in (2, 4, 9)]
    fleet += [aeq.lift_to_halfsphere(aeq.construct_two_simplices(4), math.sqrt(0.4))]
    for s in fleet:
        u = aeq.defect_matrix(s)
        m = u.array
        oracle = float(np.einsum("ij,jk,ki->", m, m, m))
        got = aeq.trace_identities(u, s).trace_u3
        assert abs(got - oracle) <= s.n ** 3 * 1e-15 * float(np.abs(m).max()) ** 3


def test_trace_identities_exact(zigzag):
    u = aeq.defect_matrix(zigzag)
    ident = aeq.trace_identities(u, zigzag)
    assert ident.trace_u == 0
    assert ident.trace_u3 == 0
    assert isinstance(ident.trace_u3, Fraction)
    assert ident.holds


def test_exact_trace_identities_reject_another_sets_defect_matrix(zigzag):
    # the exact identities read only s, so u must be s's own matrix
    sevenths = [[0, 0], [1, 0], [0, Fraction(1, 7)], [Fraction(2, 7), 0]]
    others = [
        aeq.PointSet.exact_rows(zigzag.points[:3]),  # another size
        aeq.PointSet.exact_rows(sevenths),  # another scale
    ]
    for other in others:
        with pytest.raises(ValueError, match="^u is not the defect matrix of s$"):
            aeq.trace_identities(aeq.defect_matrix(other), zigzag)
    with pytest.raises(ValueError, match="^u is not the defect matrix of s$"):
        aeq.trace_identities(aeq.defect_matrix(zigzag), aeq.construct_two_simplices(2))


def test_trace_identities_float_construction():
    s = aeq.construct_two_simplices(3)
    ident = aeq.trace_identities(aeq.defect_matrix(s), s)
    assert ident.trace_u == 0.0
    assert abs(ident.trace_u3) <= s.n ** 3 * 1e-8
    assert ident.holds


def test_trace_identities_reject_non_ae():
    s = PointSet.from_array([[0.0], [3.0], [9.0]])
    u = aeq.defect_matrix(s)
    with pytest.raises(ValueError, match="witness"):
        aeq.trace_identities(u, s)


def test_eigenvalues_complete_graph_shift():
    spec = aeq.eigenvalues([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
    assert len(spec.values) == 3
    assert abs(spec.values[0] - 2.0) < 1e-9
    assert abs(spec.values[1] + 1.0) < 1e-9
    assert abs(spec.values[2] + 1.0) < 1e-9


def test_eigenvalues_sorted_nonincreasing():
    rng = np.random.default_rng(7)
    a = rng.normal(size=(6, 6))
    spec = aeq.eigenvalues(a + a.T)
    assert all(x >= y for x, y in zip(spec.values, spec.values[1:]))


def test_eigenvalues_rejects_asymmetric():
    with pytest.raises(ValueError, match="symmetric"):
        aeq.eigenvalues([[0.0, 1.0], [0.0, 0.0]])


def test_eigenvalues_rejects_nonsquare():
    with pytest.raises(ValueError, match="square"):
        aeq.eigenvalues(np.zeros((2, 3)))


def test_eigenvalues_accepts_defect_matrix(rhombus):
    spec = aeq.eigenvalues(aeq.defect_matrix(rhombus))
    assert abs(spec.values[0] - 2.2) < 1e-9


def test_certify_two_simplices():
    s = aeq.construct_two_simplices(3)
    cert = aeq.certify(s)
    assert cert.n == 8 and cert.dim == 3
    assert cert.trace_u == 0.0
    assert cert.count_gt_one == 0
    assert cert.count_eq_one == 4
    assert abs(cert.lambda_max - 1.0) < 1e-8
    assert abs(cert.lambda_min + 1.0) < 1e-8
    assert cert.lemma1_holds


def test_certify_rhombus_exact(rhombus):
    cert = aeq.certify(rhombus)
    assert cert.trace_u == 0.0 and cert.trace_u3 == 0.0
    assert abs(cert.lambda_max - 2.2) < 1e-12
    assert cert.count_gt_one == 1
    assert cert.count_eq_one == 0  # n - d - 2 = 0, so still structural
    assert cert.lemma1_holds


def test_certify_zigzag_frozen(zigzag):
    cert = aeq.certify(zigzag)
    assert abs(cert.lambda_max - 2.945722417977) < 1e-9
    assert cert.count_gt_one == 1
    assert cert.count_eq_one == 0
    assert cert.lemma1_holds
    assert asdict(cert)["lambda_max"] == cert.lambda_max


def test_certify_rejects_non_ae():
    with pytest.raises(ValueError):
        aeq.certify(PointSet.from_array([[0.0], [3.0], [9.0]]))


def test_spiked_spectrum_rosenfeld():
    s = aeq.construct_rosenfeld(4)
    spec = aeq.eigenvalues(aeq.defect_matrix(s))
    rep = aeq.spiked_spectrum_check(spec, k=4)
    assert rep.n == 8
    assert rep.case1_applies and rep.case1_holds
    assert rep.case2_applies and rep.case2_holds
    assert not rep.case3_applies
    assert rep.holds


def test_spiked_spectrum_zigzag(zigzag):
    spec = aeq.eigenvalues(aeq.defect_matrix(zigzag))
    rep = aeq.spiked_spectrum_check(spec, k=3)
    assert rep.case2_applies and rep.case2_holds
    assert not rep.case3_applies
    assert rep.holds


def test_spiked_spectrum_case3_synthetic():
    # (lam0, 1, 1, t, s) with k = 2: solve the tail pair so trace and
    # cube-trace vanish, which forces the cubic case since n = 5 >= 2k
    lam0 = 3.5
    ssum = -(lam0 + 2.0)
    prod = (ssum ** 3 + lam0 ** 3 + 2.0) / (3.0 * ssum)
    disc = math.sqrt(ssum * ssum - 4.0 * prod)
    t, s = (ssum + disc) / 2.0, (ssum - disc) / 2.0
    vals = tuple(sorted([lam0, 1.0, 1.0, t, s], reverse=True))
    rep = aeq.spiked_spectrum_check(Spectrum(values=vals, eig_tol=1e-8), k=2)
    assert not rep.case1_applies and not rep.case2_applies
    assert rep.case3_applies and rep.case3_holds
    assert rep.cubic_lhs == pytest.approx(lam0 ** 3)
    assert rep.cubic_rhs == pytest.approx(27.0 / 4.0 - 2.0)
    assert rep.holds


def test_spiked_spectrum_validation():
    with pytest.raises(ValueError, match="k must be"):
        aeq.spiked_spectrum_check(Spectrum((1.0, -1.0), 1e-8), k=2)
    with pytest.raises(ValueError, match="at least 1"):
        aeq.spiked_spectrum_check(Spectrum((0.5, 0.5, -1.0), 1e-8), k=1)
    with pytest.raises(ValueError, match="middle block"):
        aeq.spiked_spectrum_check(Spectrum((2.0, 0.5, -2.5), 1e-8), k=1)
    with pytest.raises(ValueError, match="tail"):
        aeq.spiked_spectrum_check(Spectrum((1.5, 1.2, 1.0, -3.7), 1e-8), k=3)
    with pytest.raises(ValueError, match="trace does not vanish"):
        aeq.spiked_spectrum_check(Spectrum((2.0, 1.0, 0.5), 1e-8), k=2)
    with pytest.raises(ValueError, match="cube-trace"):
        aeq.spiked_spectrum_check(Spectrum((2.0, 1.0, -1.5, -1.5), 1e-8), k=2)


def test_cubic_inequality_equality_at_constant():
    m, l = 5, 2.0
    xs = [1.0 + l / m] * m
    res = aeq.cubic_inequality(xs, l)
    assert res.holds
    assert abs(res.lhs - res.rhs) <= 1e-12
    assert res.equality_point == 1.4
    assert res.remark_holds  # (m+l)^3/m^2 = 13.72 >= m + 3l = 11


def test_cubic_inequality_validation():
    with pytest.raises(ValueError):
        aeq.cubic_inequality([], 0.0)
    with pytest.raises(ValueError, match="nonnegative"):
        aeq.cubic_inequality([0.5], -0.5)
    with pytest.raises(ValueError, match="at least -2"):
        aeq.cubic_inequality([-2.5, 4.5], 0.0)
    with pytest.raises(ValueError, match="sum"):
        aeq.cubic_inequality([1.0, 1.0], 5.0)


def test_cubic_inequality_fuzz():
    rng = np.random.default_rng(20240812)
    for _ in range(300):
        m = int(rng.integers(1, 51))
        xs = rng.uniform(-2.0, 6.0, size=m)
        total = math.fsum(xs)
        if total < m:  # shift into the admissible sum >= m region
            xs = xs + (m - total) / m
        l = math.fsum(xs) - m
        res = aeq.cubic_inequality(list(xs), l)
        assert res.holds
        assert res.remark_holds


def test_weyl_frozen_pair():
    res = aeq.weyl_check([[2.0, 1.0], [1.0, 2.0]], [[1.0, 0.0], [0.0, 1.0]])
    assert abs(res.alpha - 3.0) < 1e-9
    assert abs(res.beta - 1.0) < 1e-9
    assert abs(res.gamma - 4.0) < 1e-9
    assert res.holds


def test_weyl_fuzz():
    rng = np.random.default_rng(31337)
    for _ in range(50):
        n = int(rng.integers(2, 7))
        a = rng.normal(size=(n, n))
        b = rng.normal(size=(n, n))
        res = aeq.weyl_check(a + a.T, b + b.T)
        assert res.holds


def test_weyl_shape_mismatch():
    with pytest.raises(ValueError, match="shape"):
        aeq.weyl_check(np.zeros((2, 2)), np.zeros((3, 3)))


def test_perron_attained():
    res = aeq.perron_frobenius_check([[1.0, 2.0], [2.0, 1.0]])
    assert abs(res.rho - 3.0) < 1e-9
    assert res.attained


def test_perron_directed_cycle():
    res = aeq.perron_frobenius_check([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    assert abs(res.rho - 1.0) < 1e-9
    assert res.attained


def test_perron_rejects_negative_entry():
    with pytest.raises(ValueError, match="negative"):
        aeq.perron_frobenius_check([[0.0, -1.0], [-1.0, 0.0]])


def test_gershgorin_rhombus(rhombus):
    u = aeq.defect_matrix(rhombus)
    assert abs(aeq.gershgorin_bound(u) - 2.2) < 1e-12


def test_gershgorin_dominates_spectrum_fuzz():
    rng = np.random.default_rng(2718)
    for _ in range(40):
        n = int(rng.integers(2, 8))
        a = rng.normal(size=(n, n))
        m = a + a.T
        np.fill_diagonal(m, 0.0)
        bound = aeq.gershgorin_bound(m)
        spec = aeq.eigenvalues(m)
        assert spec.values[0] <= bound + 1e-12
        assert spec.values[-1] >= -bound - 1e-12


@pytest.mark.parametrize("check", [aeq.eigenvalues, aeq.perron_frobenius_check,
                                   aeq.gershgorin_bound], ids=lambda f: f.__name__)
@pytest.mark.parametrize("m", [[[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]], [1.0, 2.0]],
                         ids=["2x3", "vector"])
def test_every_matrix_check_rejects_a_non_square_input(check, m):
    with pytest.raises(ValueError, match="^matrix must be square$"):
        check(m)


@pytest.mark.parametrize("check", [aeq.eigenvalues, aeq.perron_frobenius_check,
                                   aeq.gershgorin_bound], ids=lambda f: f.__name__)
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_every_matrix_check_rejects_a_non_finite_entry(check, bad):
    with pytest.raises(ValueError, match="^matrix entries must be finite$"):
        check([[bad, 1.0], [1.0, 0.0]])


def test_eigenvalues_reject_nan_on_the_diagonal():
    with pytest.raises(ValueError, match="finite"):
        aeq.eigenvalues([[math.nan, 1.0], [1.0, 0.0]])


def test_weyl_rejects_matrices_whose_spectrum_or_sum_overflows():
    big = np.full((2, 2), 1e308)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match="overflow"):
            aeq.eigenvalues(big)
        with pytest.raises(ValueError, match="overflow"):
            aeq.weyl_check(big, big)
        # each finite, with a finite spectrum; their sum is not
        top = np.diag([1e308, 0.0])
        assert aeq.eigenvalues(top).values == (1e308, 0.0)
        with pytest.raises(ValueError, match="^matrix entries must be finite$"):
            aeq.weyl_check(top, top)


@pytest.mark.parametrize("check, message", [
    (aeq.perron_frobenius_check, "eigenvalues overflow the float range"),
    (aeq.gershgorin_bound, "row sums overflow the float range"),
], ids=["perron", "gershgorin"])
def test_a_finite_matrix_whose_result_overflows_raises_non_finite(check, message):
    # every entry finite; the spectral radius and the row sums are not
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # and numpy warns of nothing
        with pytest.raises(NonFiniteMatrix, match=f"^{message}$"):
            check(np.full((2, 2), 1e308))
