"""Acceptance gate: one test per shipped criterion, at the stated tolerances.

Each test prints a single criterion line (PASS/FAIL) so a full run reads as a
checklist. Runtime-capped criteria measure their own work with a monotonic
clock; shared fixtures are built outside the timed windows.
"""
import contextlib
import functools
import math
import time
from fractions import Fraction

import numpy as np
import pytest

import aeq
from aeq import PointSet, SearchConfig, Tolerance

DIST_TOL = 1e-9
EIG_TOL = 1e-8
TOL = Tolerance(dist_tol=DIST_TOL, eig_tol=EIG_TOL)

RHOMBUS = aeq.PointSet.exact_rows(
    [[0, 0], [1, 0], [Fraction(3, 5), Fraction(4, 5)], [Fraction(8, 5), Fraction(4, 5)]]
)
ZIGZAG = aeq.PointSet.exact_rows(
    [[0, 0], [Fraction(3, 5), Fraction(4, 5)], [Fraction(6, 5), 0],
     [Fraction(-3, 5), Fraction(4, 5)]]
)
EXACT_FIXTURES = (RHOMBUS, ZIGZAG)


@contextlib.contextmanager
def reported(num, label):
    try:
        yield
    except BaseException:
        print(f"criterion {num:02d} ({label}): FAIL", flush=True)
        raise
    print(f"criterion {num:02d} ({label}): PASS", flush=True)


@functools.lru_cache(maxsize=None)
def construction_fleet():
    sets = []
    for d in range(2, 31):
        sets.append(aeq.construct_two_simplices(d))
        sets.append(aeq.construct_rosenfeld(d))
    for k, d in ((2, 1), (3, 2), (4, 3), (6, 5)):
        sets.append(aeq.construct_simplex(k, d))
    return tuple(sets)


@functools.lru_cache(maxsize=None)
def lifted_fleet():
    out = []
    for d in (2, 3, 5, 10, 30):
        s = aeq.construct_two_simplices(d)
        out.append((s, math.sqrt(d / (2.0 * (d + 1)))))
        s = aeq.construct_rosenfeld(d)
        out.append((s, math.sqrt(0.5)))
    for k, d in ((3, 2), (4, 3)):
        out.append((aeq.construct_simplex(k, d), math.sqrt((k - 1) / (2.0 * k))))
    return tuple((s, r, aeq.lift_to_halfsphere(s, r)) for s, r in out)


@pytest.fixture(scope="module")
def search_outputs():
    t0 = time.monotonic()
    frozen = aeq.optimize(
        SearchConfig(dim=2, target_n=7, restarts=24, max_iters=1500, seed=7)
    )
    frozen_seconds = time.monotonic() - t0
    quick = aeq.optimize(
        SearchConfig(dim=2, target_n=6, restarts=2, max_iters=5, seed=0)
    )
    small = aeq.optimize(
        SearchConfig(dim=2, target_n=5, restarts=6, max_iters=400, seed=1)
    )
    return {
        "frozen": frozen,
        "frozen_seconds": frozen_seconds,
        "others": (quick, small),
    }


def feasible_outputs(search_outputs):
    res = [search_outputs["frozen"], *search_outputs["others"]]
    return [r for r in res if r.feasible]


def test_criterion_01_two_simplices():
    with reported(1, "two-simplices family"):
        t0 = time.monotonic()
        for d in range(2, 31):
            s = aeq.construct_two_simplices(d)
            assert s.n == 2 * d + 2
            assert aeq.is_almost_equidistant(s, TOL).ok
            r = math.sqrt(d / (2.0 * (d + 1)))
            norms = np.sqrt((s.array ** 2).sum(axis=1))
            assert np.abs(norms - r).max() <= 1e-9
            rep = aeq.sphere_bound(d, r, points=s, tol=TOL)
            assert rep.satisfied
        assert time.monotonic() - t0 < 5.0


def test_criterion_02_rosenfeld():
    with reported(2, "rosenfeld family"):
        t0 = time.monotonic()
        for d in range(2, 31):
            s = aeq.construct_rosenfeld(d)
            assert s.n == 2 * d
            norms = np.sqrt((s.array ** 2).sum(axis=1))
            assert np.abs(norms - 1.0 / math.sqrt(2.0)).max() <= 1e-9
            assert aeq.is_almost_equidistant(s, TOL).ok
        assert time.monotonic() - t0 < 5.0


def test_criterion_03_trace_identities(search_outputs):
    with reported(3, "trace identities"):
        t0 = time.monotonic()
        for s in construction_fleet():
            ident = aeq.trace_identities(aeq.defect_matrix(s), s, TOL)
            assert ident.trace_u == 0
            assert abs(float(ident.trace_u3)) <= s.n ** 3 * 1e-8
        for res in feasible_outputs(search_outputs):
            s = res.best_points
            ident = aeq.trace_identities(aeq.defect_matrix(s), s)
            assert ident.trace_u == 0
            assert abs(float(ident.trace_u3)) <= s.n ** 3 * 1e-8
        for s in EXACT_FIXTURES:
            ident = aeq.trace_identities(aeq.defect_matrix(s), s)
            assert ident.trace_u == 0
            assert ident.trace_u3 == 0
            assert isinstance(ident.trace_u3, Fraction)
        assert time.monotonic() - t0 < 10.0


def test_criterion_04_certificate_structure(search_outputs):
    with reported(4, "certificate eigenvalue structure"):
        fixtures = list(construction_fleet()) + [
            res.best_points for res in feasible_outputs(search_outputs)
        ] + list(EXACT_FIXTURES)
        for s in fixtures:
            tol = Tolerance.exact() if s.mode == "exact" else TOL
            cert = aeq.certify(s, tol)
            assert cert.count_gt_one <= 1
            assert cert.count_eq_one >= s.n - s.dim - 2
            assert cert.lemma1_holds


def test_criterion_05_cubic_inequality():
    with reported(5, "cubic inequality on admissible vectors"):
        rng = np.random.default_rng(20240815)
        for _ in range(10_000):
            m = int(rng.integers(1, 51))
            xs = rng.uniform(-2.0, 6.0, size=m)
            total = math.fsum(xs)
            if total < m:
                xs = xs + (m - total) / m
            l = math.fsum(xs) - m
            res = aeq.cubic_inequality(list(xs), max(l, 0.0))
            assert res.lhs >= res.rhs - m * 1e-9
            assert res.remark_holds
            assert res.rhs >= m + 3 * max(l, 0.0) - m * 1e-9
        for m in (1, 2, 5, 17, 50):
            for l in (0.0, 0.5, 1.0, 3.25):
                res = aeq.cubic_inequality([1.0 + l / m] * m, l)
                assert abs(res.lhs - res.rhs) <= 1e-12
                assert res.equality_point == pytest.approx(1.0 + l / m)


def test_criterion_06_barycenter_identity():
    with reported(6, "barycenter cross-sum identity"):
        rng = np.random.default_rng(20240816)
        for _ in range(1_000):
            n = int(rng.integers(1, 9))
            d = int(rng.integers(1, 11))
            x = PointSet.from_array(rng.uniform(-2.0, 2.0, size=(n, d)))
            y = PointSet.from_array(rng.uniform(-2.0, 2.0, size=(n, d)))
            resid = aeq.barycenter_identity_check(x, y)
            assert resid <= 1e-9 * max(1.0, 16.0 * n * n * d)
        for _ in range(50):
            n = int(rng.integers(1, 7))
            d = int(rng.integers(1, 5))
            def frac_rows():
                return [
                    [Fraction(int(rng.integers(-12, 13)), int(rng.integers(1, 10)))
                     for _ in range(d)]
                    for _ in range(n)
                ]
            x = aeq.PointSet.exact_rows(frac_rows())
            y = aeq.PointSet.exact_rows(frac_rows())
            resid = aeq.barycenter_identity_check(x, y)
            assert resid == 0
            assert isinstance(resid, Fraction)


def test_criterion_07_diameter_bound():
    with reported(7, "diameter-1 bound"):
        for d in range(1, 51):
            assert aeq.diameter_bound(d).bound == 2 * d + 4
        star = PointSet.from_array(
            [[0.0, 0.0], [1.0, 0.0], [0.5, 0.8660254037844386],
             [0.5, 0.28867513459481287]]
        )
        fixtures = [
            aeq.construct_simplex(2, 1),
            aeq.construct_simplex(3, 2),
            aeq.construct_simplex(4, 3),
            aeq.construct_simplex(8, 7),
            star,
        ]
        for s in fixtures:
            rep = aeq.diameter_bound(s.dim, points=s, tol=TOL)
            assert rep.satisfied
            cert = rep.detail["certificate"]
            assert cert["lambda_max"] + cert["lambda_min"] <= 1e-8


def test_criterion_08_ball_bound():
    with reported(8, "critical-ball bound and thresholds"):
        for d in range(1, 51):
            assert aeq.ball_bound_threshold(d, 0.0) == 2 * d + 2
            rep = aeq.ball_bound(d, 0.0)
            assert rep.bound == 2 * d + 4
        for d in range(1, 51):
            ts = [aeq.ball_bound_threshold(d, c0) for c0 in (0.1, 0.25, 0.4)]
            assert ts[0] <= ts[1] <= ts[2]


def test_criterion_09_norm_bounds_and_row_identity(search_outputs):
    with reported(9, "recentred norms and row sums"):
        fixtures = (
            list(construction_fleet())
            + [res.best_points for res in feasible_outputs(search_outputs)]
            + [lifted for _, _, lifted in lifted_fleet()]
            + list(EXACT_FIXTURES)
        )
        for s in fixtures:
            centered = aeq.recenter_to_barycenter(s)
            assert aeq.recentred_norm_bounds(centered).holds
            fs = aeq.f_statistic(s)
            u = aeq.defect_matrix(s)
            if s.mode == "exact":
                assert tuple(sum(row) for row in u.entries) == fs.per_point_sums
            else:
                rows = u.array.sum(axis=1)
                assert np.abs(rows - np.array(fs.per_point_sums)).max() <= 1e-12


def test_criterion_10_search_regression(search_outputs):
    with reported(10, "frozen search regression"):
        frozen = search_outputs["frozen"]
        assert search_outputs["frozen_seconds"] < 60.0
        assert frozen.feasible
        assert frozen.best_points.n == 7 and frozen.best_points.dim == 2
        assert frozen.restart_index == 2
        assert frozen.best_penalty <= 1e-18
        for res in feasible_outputs(search_outputs):
            assert aeq.is_almost_equidistant(res.best_points, TOL).ok
            assert res.certificate is not None
            assert res.certificate.lemma1_holds


def test_criterion_11_second_eigenvalue_ranks(corpus):
    with reported(11, "two-distance graph ranks"):
        c5 = aeq.Graph.from_edges(5, [(i, (i + 1) % 5) for i in range(5)])
        want = 2.0 * math.cos(2.0 * math.pi / 5.0)
        for exact in (False, True):
            rec = aeq.lambda2_rank(c5, exact=exact)
            assert abs(rec.lambda2 - want) <= 1e-8
            assert rec.multiplicity == 2
            assert rec.rank == 3
        for g in corpus:
            if g.n < 2 or g.n > 8:
                continue
            a = aeq.lambda2_rank(g)
            b = aeq.lambda2_rank(g, exact=True)
            assert a.multiplicity == b.multiplicity
            assert a.rank == b.rank
        want_rank = {2: None, 3: None, 4: 2, 5: 3, 6: 3, 7: 4, 8: 4}
        want_argmin = {4: 1, 5: 2, 6: 1, 7: 1, 8: 1}
        for n, want_r in want_rank.items():
            graphs = [g for g in corpus if g.n == n]
            scan = aeq.min_rank_scan(n, graphs)
            assert scan.min_rank == want_r
            if want_r is not None:
                assert len(scan.argmin) == want_argmin[n]


def test_criterion_12_lift_composition():
    with reported(12, "halfsphere lift"):
        for s, r, lifted in lifted_fleet():
            assert r <= 1.0 / math.sqrt(2.0) + 1e-15
            a, b = s.array, lifted.array
            da = (a[:, None, :] - a[None, :, :]) ** 2
            db = (b[:, None, :] - b[None, :, :]) ** 2
            assert np.abs(da.sum(axis=2) - db.sum(axis=2)).max() <= 1e-12
            norms = np.sqrt((b ** 2).sum(axis=1))
            assert np.abs(norms - 1.0 / math.sqrt(2.0)).max() <= 1e-9
            cert = aeq.certify(lifted, TOL)
            assert cert.lemma1_holds
            assert lifted.n <= 2 * (s.dim + 1)
            assert lifted.dim == s.dim + 1
