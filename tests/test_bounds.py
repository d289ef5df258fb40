import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

import aeq
from aeq import PointSet, Tolerance


@pytest.fixture
def triangle_with_center():
    # diameter-1 set whose defect matrix is a nonzero star
    h = 0.28867513459481287  # 1/(2 sqrt(3))
    return PointSet.from_array(
        [[0.0, 0.0], [1.0, 0.0], [0.5, 0.8660254037844386], [0.5, h]]
    )


def test_conjectured_diameter_max():
    assert aeq.conjectured_diameter_max(1) == 3
    assert aeq.conjectured_diameter_max(2) == 4
    assert aeq.conjectured_diameter_max(3) == 6
    assert aeq.conjectured_diameter_max(10) == 16


def test_sphere_bound_subcritical():
    rep = aeq.sphere_bound(3, 0.5)
    assert rep.bound == 8
    assert rep.theorem == "sphere"
    assert rep.n_observed is None and rep.satisfied is None


def test_sphere_bound_critical():
    rep = aeq.sphere_bound(4, 1.0 / math.sqrt(2.0))
    assert rep.bound == 8
    assert rep.detail["critical_radius"]


def test_sphere_bound_with_points():
    s = aeq.construct_two_simplices(3)
    rep = aeq.sphere_bound(3, math.sqrt(3.0 / 8.0), points=s)
    assert rep.bound == 8 and rep.n_observed == 8
    assert rep.satisfied

    rose = aeq.construct_rosenfeld(3)
    rep = aeq.sphere_bound(3, 1.0 / math.sqrt(2.0), points=rose)
    assert rep.bound == 6 and rep.satisfied


def test_sphere_bound_validation():
    with pytest.raises(ValueError, match="positive"):
        aeq.sphere_bound(3, 0.0)
    with pytest.raises(ValueError, match="no bound"):
        aeq.sphere_bound(3, 0.9)
    with pytest.raises(ValueError, match="stated sphere"):
        aeq.sphere_bound(2, 0.3, points=aeq.construct_simplex(3, 2))
    with pytest.raises(ValueError, match="mismatch"):
        aeq.sphere_bound(3, 0.5, points=aeq.construct_simplex(3, 2))


def test_diameter_bound_values():
    for d in range(1, 51):
        assert aeq.diameter_bound(d).bound == 2 * d + 4


def test_diameter_bound_simplex():
    rep = aeq.diameter_bound(3, points=aeq.construct_simplex(4, 3))
    assert rep.satisfied
    assert rep.detail["lambda_sum_ok"]
    assert abs(rep.detail["diameter"] - 1.0) < 1e-12


def test_diameter_bound_star_fixture(triangle_with_center):
    rep = aeq.diameter_bound(2, points=triangle_with_center)
    assert rep.satisfied
    # star spectrum is symmetric, so the extremes cancel
    assert abs(rep.detail["lambda_sum"]) <= 1e-8
    assert rep.detail["perron_attained"]
    cert = rep.detail["certificate"]
    assert cert["count_gt_one"] == 1
    assert abs(cert["lambda_max"] - 2.0 / math.sqrt(3.0)) < 1e-9


def test_diameter_bound_rejects_wide_sets():
    s = aeq.construct_two_simplices(3)  # antipodal pairs at distance > 1
    with pytest.raises(ValueError, match="diameter"):
        aeq.diameter_bound(3, points=s)


def test_ball_threshold_frozen_table():
    table = {
        (3, 0.1): 10,
        (3, 0.25): 15,
        (3, 0.4): 34,
        (10, 0.1): 25,
        (10, 0.25): 36,
        (10, 0.4): 83,
        (100, 0.1): 213,
        (100, 0.25): 287,
        (100, 0.4): 645,
    }
    for (d, c0), want in table.items():
        assert aeq.ball_bound_threshold(d, c0) == want


def test_ball_threshold_zero_excess():
    for d in (1, 2, 7, 50):
        assert aeq.ball_bound_threshold(d, 0.0) == 2 * d + 2


def test_ball_threshold_monotone_in_c0():
    for d in (3, 10, 100):
        ts = [aeq.ball_bound_threshold(d, c0) for c0 in (0.1, 0.25, 0.4)]
        assert ts[0] <= ts[1] <= ts[2]


def test_ball_threshold_validation():
    with pytest.raises(ValueError):
        aeq.ball_bound_threshold(0, 0.1)
    with pytest.raises(ValueError):
        aeq.ball_bound_threshold(3, -0.1)


CALCULATORS = {
    "sphere": lambda d, points=None: aeq.sphere_bound(d, 0.5, points),
    "diameter": lambda d, points=None: aeq.diameter_bound(d, points),
    "ball": lambda d, points=None: aeq.ball_bound(d, 0.25, points),
}


@pytest.mark.parametrize("theorem", CALCULATORS)
def test_every_calculator_checks_d_and_the_points_dim(theorem):
    bound = CALCULATORS[theorem]
    for d in (0, -3):
        with pytest.raises(ValueError, match="^d must be at least 1$"):
            bound(d)
    with pytest.raises(ValueError, match="^dimension mismatch between points and d$"):
        bound(1, aeq.construct_simplex(4, 3))
    assert bound(1).bound > 0


def test_nan_parameters_are_rejected():
    nan = float("nan")
    with pytest.raises(ValueError, match="^radius must be positive$"):
        aeq.sphere_bound(3, nan)
    for f in (aeq.ball_bound, aeq.ball_bound_threshold):
        with pytest.raises(ValueError, match="^c0 must be nonnegative$"):
            f(3, nan)
    with pytest.raises(ValueError, match="^norm band x must be nonnegative$"):
        aeq.anchor_defect_ratio(aeq.construct_simplex(3, 2), 0, nan)


def _diameter_with_failing_lambda_sum(monkeypatch):
    """diameter_bound on a unit simplex whose lambda_max is raised far past the slack."""
    certify = aeq.bounds.certify

    def shifted(points, tol):
        cert = certify(points, tol)
        return replace(cert, lambda_max=1.0 - cert.lambda_min)

    monkeypatch.setattr(aeq.bounds, "certify", shifted)
    return aeq.diameter_bound(3, aeq.construct_simplex(4, 3))


def _circle(n, r):
    angles = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
    return PointSet.from_array(np.c_[r * np.cos(angles), r * np.sin(angles)])


# (calculator call given monkeypatch, n_observed, satisfied) under the one verdict rule
VERDICTS = {
    "sphere-no-points": (lambda _: aeq.sphere_bound(3, 0.5), None, None),
    "diameter-no-points": (lambda _: aeq.diameter_bound(3), None, None),
    "ball-no-points": (lambda _: aeq.ball_bound(3, 0.25), None, None),
    "ball-no-points-asymptotic": (lambda _: aeq.ball_bound(3, 5.0), None, None),
    "sphere-holds": (
        lambda _: aeq.sphere_bound(3, math.sqrt(3.0 / 8.0), aeq.construct_two_simplices(3)),
        8, True),
    "sphere-too-many": (lambda _: aeq.sphere_bound(2, 0.5, _circle(8, 0.5)), 8, False),
    "diameter-holds": (lambda _: aeq.diameter_bound(3, aeq.construct_simplex(4, 3)), 4, True),
    "diameter-lambda-sum-fails": (_diameter_with_failing_lambda_sum, 4, False),
    "ball-holds": (lambda _: aeq.ball_bound(3, 0.25, aeq.construct_two_simplices(3)), 8, True),
    "ball-too-many": (
        lambda _: aeq.ball_bound(1, 0.0, PointSet.from_array(np.linspace(-0.5, 0.5, 7)[:, None])),
        7, False),
    "ball-asymptotic": (lambda _: aeq.ball_bound(3, 5.0, aeq.construct_two_simplices(3)), 8, None),
    "general-holds": (lambda _: aeq.general_bound_pipeline(aeq.construct_simplex(4, 4)), 4, True),
    "general-asymptotic": (
        lambda _: aeq.general_bound_pipeline(PointSet.from_array([[0.0], [1.0], [2.0]])),
        3, None),
}


@pytest.mark.parametrize("case", VERDICTS)
def test_every_calculator_decides_its_verdict_by_one_rule(case, monkeypatch):
    call, n, satisfied = VERDICTS[case]
    rep = call(monkeypatch)
    assert rep.n_observed == n and rep.satisfied is satisfied
    assert (rep.bound is None) is case.endswith("asymptotic")
    if case.startswith("diameter") and n is not None:
        assert rep.detail["lambda_sum_ok"] is satisfied


def test_ball_bound_zero_excess_is_diameter_style():
    for d in (1, 5, 50):
        assert aeq.ball_bound(d, 0.0).bound == 2 * d + 4


def test_ball_bound_with_points():
    s = aeq.construct_two_simplices(3)
    rep = aeq.ball_bound(3, 0.25, points=s)
    assert rep.bound == 14
    assert rep.detail["threshold"] == 15
    assert rep.satisfied


def test_ball_bound_containment_check():
    rhombus = PointSet.from_array(
        [[0.0, 0.0], [1.0, 0.0], [0.6, 0.8], [1.6, 0.8]]
    )
    with pytest.raises(ValueError, match="enclosing radius"):
        aeq.ball_bound(2, 0.0, points=rhombus)


def test_ball_bound_compares_an_exact_radius_exactly():
    # r^2 - 1/2 = 3.5e-15: inside the float slack, outside the critical ball
    probe = [[0, 0], [Fraction(14142135623731, 10 ** 13), 0]]
    with pytest.raises(ValueError, match="enclosing radius"):
        aeq.ball_bound(2, 0.0, points=PointSet.exact_rows(probe))
    assert aeq.ball_bound(2, 0.0, points=PointSet.exact_rows(probe[:1])).satisfied
    # r^2 == 1/2 exactly sits on the critical sphere
    rep = aeq.ball_bound(2, 0.0, points=PointSet.exact_rows([[0, 0], [1, 1]]))
    assert rep.satisfied and rep.detail["mer_radius"] == math.sqrt(0.5)
    # the float path keeps its slack
    assert aeq.ball_bound(2, 0.0, points=PointSet.from_array(
        [[float(c) for c in row] for row in probe])).satisfied


def test_f_statistic_two_simplices_rows():
    # every row of the defect matrix sums to -1, in every dimension
    for d in (2, 3, 9):
        s = aeq.construct_two_simplices(d)
        fs = aeq.f_statistic(s)
        assert abs(fs.value - 1.0) < 1e-12
        assert max(abs(v + 1.0) for v in fs.per_point_sums) < 1e-12


def test_f_statistic_row_identity_against_build_u():
    s = aeq.construct_two_simplices(3)
    fs = aeq.f_statistic(s)
    rows = aeq.defect_matrix(s).array.sum(axis=1)
    assert np.abs(rows - np.array(fs.per_point_sums)).max() <= 1e-12


def test_f_statistic_exact(rhombus):
    fs = aeq.f_statistic(rhombus)
    assert fs.per_point_sums == (
        Fraction(11, 5),
        Fraction(-1, 5),
        Fraction(-1, 5),
        Fraction(11, 5),
    )
    assert fs.value == Fraction(11, 5)
    assert fs.argmax_index == 0
    u = aeq.defect_matrix(rhombus)
    assert tuple(Fraction(sum(row), u.scale) for row in u.values.tolist()) == fs.per_point_sums


def test_recentred_norm_bounds_rhombus_exact(rhombus):
    centered = aeq.recenter_to_barycenter(rhombus)
    nb = aeq.recentred_norm_bounds(centered)
    assert nb.max_deviation == pytest.approx(0.3)
    assert nb.f_over_n_bound == pytest.approx(0.45)
    assert nb.holds


def test_recentred_norm_bounds_constructions():
    for s in (
        aeq.construct_two_simplices(2),
        aeq.construct_two_simplices(5),
        aeq.construct_rosenfeld(3),
        aeq.construct_simplex(4, 3),
    ):
        assert aeq.recentred_norm_bounds(s).holds


def test_recentred_norm_bounds_requires_centering(rhombus):
    with pytest.raises(ValueError, match="recentred"):
        aeq.recentred_norm_bounds(rhombus)


def anchor_fixture(extra_unit_point=False):
    base = aeq.construct_simplex(4, 4).array
    rows = [base[i].tolist() for i in range(4)]
    rows.append([0.0, 0.0, 0.0, 0.0])
    if extra_unit_point:
        rows.append([1.0, 0.0, 0.0, 0.0])
    return PointSet.from_array(rows)


def test_anchor_defect_ratio_keeps_simplex():
    s = anchor_fixture()
    rep = aeq.anchor_defect_ratio(s, anchor_index=4, x=0.5)
    assert rep.kept == 4 and rep.discarded == 0
    assert rep.lhs == pytest.approx(2.5)
    want_rhs = 2.0 + 4.0 * math.sqrt(0.5) + 2.0
    assert rep.rhs_scale == pytest.approx(want_rhs)
    assert rep.ratio == pytest.approx(2.5 / want_rhs)


def test_anchor_defect_ratio_discards_unit_neighbors():
    s = anchor_fixture(extra_unit_point=True)
    rep = aeq.anchor_defect_ratio(s, anchor_index=4, x=0.5)
    assert rep.kept == 4 and rep.discarded == 1
    assert rep.lhs == pytest.approx(2.5)


def test_anchor_defect_ratio_validation():
    s = anchor_fixture()
    with pytest.raises(ValueError, match="index"):
        aeq.anchor_defect_ratio(s, anchor_index=9, x=0.5)
    with pytest.raises(ValueError, match="nonnegative"):
        aeq.anchor_defect_ratio(s, anchor_index=4, x=-1.0)
    with pytest.raises(ValueError, match="norm band"):
        aeq.anchor_defect_ratio(s, anchor_index=4, x=0.01)
    bad = PointSet.from_array([[0.0], [3.0], [9.0]])
    with pytest.raises(ValueError, match="witness"):
        aeq.anchor_defect_ratio(bad, anchor_index=0, x=10.0)


def test_pipeline_critical_ball():
    rep = aeq.general_bound_pipeline(aeq.construct_simplex(4, 4))
    assert rep.detail["branch"] == "critical_ball"
    assert rep.bound == 12
    assert rep.satisfied
    names = [st["name"] for st in rep.detail["stages"]]
    assert names == ["verify", "recenter", "row_statistic", "norm_band", "certificate"]
    assert all(st["ok"] for st in rep.detail["stages"])


def test_pipeline_small_ball_branch():
    # unit path with a 2.2 squared-distance chord: recentred peak norm^2 is
    # exactly 0.6, so the implied excess sits inside the small-ball window
    c = 0.1
    s = math.sqrt(1.0 - c * c)
    path = PointSet.from_array([[0.0, 0.0], [1.0, 0.0], [1.0 + c, s]])
    rep = aeq.general_bound_pipeline(path)
    assert rep.detail["branch"] == "small_ball"
    assert rep.detail["c0_implied"] == pytest.approx(0.1 * 3.0 ** (2.0 / 3.0), rel=1e-9)
    assert rep.detail["threshold"] is not None
    assert rep.bound >= 8
    assert rep.satisfied


@pytest.mark.parametrize("d", [1, 2, 3, 5, 8])
@pytest.mark.parametrize("c0", [0.001, 0.01, 0.05, 0.1, 0.2, 0.3, 0.45])
def test_pipeline_small_ball_bound_is_ball_bounds(d, c0):
    # two points at +-t e_1, t^2 = 1/2 + c0 / (d+1)^(2/3): recentred, their
    # implied c0 is c0 up to rounding
    t = math.sqrt(0.5 + c0 / (d + 1) ** (2.0 / 3.0))
    pts = np.zeros((2, d))
    pts[:, 0] = (t, -t)
    rep = aeq.general_bound_pipeline(PointSet.from_array(pts))
    assert rep.detail["branch"] == "small_ball"
    assert rep.detail["c0_implied"] == pytest.approx(c0, rel=1e-6)
    ball = aeq.ball_bound(d, rep.detail["c0_implied"])
    assert rep.detail["threshold"] == ball.detail["threshold"]
    assert rep.bound == ball.bound


def test_pipeline_out_of_regime(rhombus):
    rep = aeq.general_bound_pipeline(rhombus)
    assert rep.detail["branch"] == "out_of_regime"
    assert rep.bound is None
    assert rep.satisfied is None


def test_pipeline_rejects_non_ae():
    with pytest.raises(ValueError, match="witness"):
        aeq.general_bound_pipeline(PointSet.from_array([[0.0], [3.0], [9.0]]))


def _unit_simplex_with_point(rng):
    """A rotated unit simplex plus one point within distance 1 of every
    vertex: almost equidistant, diameter at most 1."""
    k = int(rng.integers(2, 7))
    d = int(rng.integers(k - 1, 8))
    x = aeq.construct_simplex(k, d).array
    room = 1.0 - aeq.simplex_circumradius(k)
    offset = rng.normal(size=d)
    p = x.mean(axis=0) + rng.uniform(0, room) * offset / np.linalg.norm(offset)
    q, _ = np.linalg.qr(rng.normal(size=(d, d)))
    return PointSet.from_array(np.vstack([x, p]) @ q + rng.uniform(-3, 3, size=d))


def _pentagon(rng, d):
    """A regular pentagon with unit diagonals, rotated into R^d: its non-unit
    pairs form a 5-cycle, so the spectrum of U is not symmetric."""
    t = 2 * np.pi * np.arange(5) / 5
    x = np.zeros((5, d))
    x[:, 0], x[:, 1] = np.cos(t), np.sin(t)
    q, _ = np.linalg.qr(rng.normal(size=(d, d)))
    return PointSet.from_array(x / (2 * np.sin(2 * np.pi / 5)) @ q)


def _diameter_fleet(star):
    rng = np.random.default_rng(8)
    fleet = [_pentagon(rng, d) for d in range(2, 6)]
    fleet += [aeq.construct_simplex(k, d) for d in range(1, 9) for k in range(1, d + 2)]
    fleet.append(star)
    fleet.append(PointSet.exact_rows([[0], [Fraction(1, 2)], [1]]))
    fleet.append(PointSet.exact_rows([[0, 0], [1, 0], [Fraction(1, 2), Fraction(1, 3)]]))
    fleet += [_unit_simplex_with_point(rng) for _ in range(60)]
    # every pair at 1 + 0.9 dist_tol: U has positive entries just inside eig_tol
    stretched = aeq.construct_simplex(14, 13).array * math.sqrt(1 + 0.9e-9)
    fleet.append(PointSet.from_array(stretched))
    return fleet


def test_diameter_perron_from_spectrum_matches_nonsymmetric_oracle(triangle_with_center):
    for s in _diameter_fleet(triangle_with_center):
        rep = aeq.diameter_bound(s.dim, points=s)
        tol = Tolerance.exact() if s.mode == "exact" else Tolerance()
        eig_tol = tol.eig_tol if tol.eig_tol > 0 else 1e-8
        oracle = aeq.perron_frobenius_check(-aeq.defect_matrix(s).array, eig_tol)
        assert rep.detail["perron_attained"] is oracle.attained is True


def test_diameter_bound_makes_no_nonsymmetric_eigensolve(monkeypatch, triangle_with_center):
    def eigvals(a):
        raise AssertionError("diameter_bound called np.linalg.eigvals")

    monkeypatch.setattr(np.linalg, "eigvals", eigvals)
    for s in _diameter_fleet(triangle_with_center):
        assert aeq.diameter_bound(s.dim, points=s).detail["perron_attained"]


def test_diameter_bound_stretched_simplex_is_satisfied():
    # every pair at 1 + 0.9 dist_tol: lambda_max + lambda_min = 1.08e-8 > eig_tol,
    # but within the slack that U's positive entries allow
    s = PointSet.from_array(aeq.construct_simplex(14, 13).array * math.sqrt(1 + 0.9e-9))
    rep = aeq.diameter_bound(13, points=s)
    assert rep.detail["lambda_sum"] > Tolerance().eig_tol
    assert rep.detail["lambda_sum_ok"] and rep.satisfied


@pytest.mark.parametrize("points", ["simplex", "stretched", "star"])
def test_diameter_bound_fails_a_lambda_sum_beyond_the_slack(points, monkeypatch,
                                                           triangle_with_center):
    s = {
        "simplex": aeq.construct_simplex(4, 3),
        "stretched": PointSet.from_array(
            aeq.construct_simplex(14, 13).array * math.sqrt(1 + 0.9e-9)),
        "star": triangle_with_center,
    }[points]
    d2, scale = s.scaled_sqdist
    u_max = max(0.0, float((d2.max() - scale) / scale))
    certify = aeq.bounds.certify
    for excess, ok in ((0.5, True), (2.0, False)):
        def shifted(points, tol):
            # lambda_max raised so that the sum sits at a multiple of the slack
            cert = certify(points, tol)
            rho = max(cert.lambda_max, -cert.lambda_min)
            slack = tol.eig_tol * max(1.0, rho) + 2 * points.n * u_max
            lam_max = excess * slack - cert.lambda_min
            return replace(cert, lambda_max=lam_max)

        monkeypatch.setattr(aeq.bounds, "certify", shifted)
        rep = aeq.diameter_bound(s.dim, points=s)
        assert rep.detail["lambda_sum_ok"] is ok and rep.satisfied is ok


def test_diameter_bound_rejects_a_positive_defect_beyond_eig_tol():
    # diameter 1.01 passes a loose dist_tol, but U then has an entry above eig_tol
    s = PointSet.from_array([[0.0], [1.01]])
    with pytest.raises(ValueError, match="matrix has a negative entry"):
        aeq.diameter_bound(1, points=s, tol=Tolerance(dist_tol=0.1, eig_tol=1e-8))
