"""The slack table: every named float slack against the inline expression
each site wrote before the table, and every site's verdict at its limit.

Each site test puts the compared value one ulp below the limit, at the limit
and one ulp above it, by moving the tolerance across the value the site
computes, and where a floor decides, by moving the value across the floor.
The oracle is the site's old inline comparison. Exact sets compare exactly,
so their cases step the exact value across the limit instead.
"""
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import aeq
from aeq import PointSet, Tolerance
from aeq.geometry import FLAG_ULPS, band_deviation
from aeq.miniball import min_enclosing_ball

INV_SQRT2 = 1.0 / math.sqrt(2.0)

# ------------------------------------------------------------------ oracles

# the slack expressions the sites spelled inline, over (dist_tol, eig_tol)
INLINE = {
    "unit": lambda d, e: d,
    "sphere": lambda d, e: max(d, 1e-15),
    "ball": lambda d, e: max(d, 1e-12),
    "eig": lambda d, e: e,
    "solver": lambda d, e: e if e > 0 else 1e-8,
    "eig_sum": lambda d, e: max(e, 1e-12),
}


def around(x):
    """x one ulp below, x, and x one ulp above, kept nonnegative."""
    return [t for t in (math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf)) if t >= 0]


def _steps(x, k):
    """x moved k ulps (down for k < 0), kept nonnegative."""
    for _ in range(abs(k)):
        x = math.nextafter(x, math.copysign(math.inf, k))
    return max(x, 0.0)


def floor_neighbours(floor):
    return [0.0, floor / 2, math.nextafter(floor, 0.0), floor, math.nextafter(floor, 1.0)]


def outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except (ValueError, RuntimeError) as e:
        return type(e).__name__, str(e)


# ---------------------------------------------------------------- the table

near_floors = st.sampled_from([0.0, 1e-15, 1e-12, 1e-9, 1e-8]).flatmap(
    lambda x: st.integers(-3, 3).map(lambda k: _steps(x, k)))


tolerance_values = near_floors | st.floats(0.0, 1.0)


def test_the_table_has_no_other_name():
    with pytest.raises(KeyError):
        Tolerance().slack("dist_tol")


@settings(max_examples=400, deadline=None, database=None)
@given(d=tolerance_values, e=tolerance_values)
def test_each_slack_equals_its_inline_expression(d, e):
    tol = Tolerance(d, e)
    for name, inline in INLINE.items():
        assert tol.slack(name) == inline(d, e), name


@settings(max_examples=200, deadline=None, database=None)
@given(f=st.floats(1e-30, 1e30) | st.sampled_from([0.09, 0.5, 2.0000000000000004]))
def test_an_exact_set_keeps_four_ulps_of_a_float_flag(f):
    assert FLAG_ULPS == 4
    s = PointSet.exact_rows([[Fraction(1, 3)]])
    _, limit, scale = band_deviation(s, [0], f, Tolerance(1.0, 1.0), "sphere", Fraction(1, 7))
    assert Fraction(limit, scale) == Fraction(1, 7) + 4 * Fraction(math.ulp(f))
    _, limit, scale = band_deviation(s, [0], Fraction(f), Tolerance(1.0, 1.0), "sphere")
    assert limit == 0


def test_one_default_rule(rhombus):
    resolve = aeq.geometry._resolve_tol
    assert resolve(None, None) == aeq.DEFAULT_TOL == Tolerance()
    assert resolve(aeq.construct_simplex(3, 2), None) == aeq.DEFAULT_TOL
    assert resolve(rhombus, None) == Tolerance.exact()
    tol = Tolerance(1e-3, 1e-4)
    assert resolve(None, tol) is tol and resolve(rhombus, tol) is tol


# ------------------------------------------------------------------ "unit"


def unit_triple(b):
    """[0], [b], [10]: the triple is fine exactly when (0, 1) is a unit pair."""
    if isinstance(b, Fraction):
        return PointSet.exact_rows([[0], [b], [10]])
    return PointSet.from_array([[0.0], [b], [10.0]])


@settings(max_examples=100, deadline=None, database=None)
@given(delta=st.floats(-1e-6, 1e-6))
def test_unit_pairs_at_the_limit(delta):
    d2 = unit_triple(1.0 + delta).scaled_sqdist[0]
    value = abs(d2[0, 1] - 1)
    for t in around(value) + [0.0]:
        s = unit_triple(1.0 + delta)
        oracle = not (np.abs(d2 - 1) > t)[0, 1]
        assert aeq.is_almost_equidistant(s, Tolerance(t)).ok is bool(oracle)


def test_exact_unit_pairs_step_across_one():
    step = Fraction(1, 2 ** 60)
    for b, ok in ((1 - step, False), (Fraction(1), True), (1 + step, False)):
        s = unit_triple(b)
        d2, q2 = s.scaled_sqdist
        assert bool(d2[0, 1] == q2) is ok  # the old exact test, D = q^2
        assert aeq.is_almost_equidistant(s).ok is ok
        assert aeq.is_almost_equidistant(s, Tolerance(1e-3)).ok is ok  # reads no float slack


def test_unit_pairs_and_diameter_cap_have_no_floor():
    # a few ulps off 1, below every floor: dist_tol 0 still tells them apart
    for k in (-3, -2, -1, 1):
        b = _steps(1.0, k)
        value = abs(unit_triple(b).scaled_sqdist[0][0, 1] - 1)
        assert 0 < value < 1e-15
        assert not aeq.is_almost_equidistant(unit_triple(b), Tolerance(0.0)).ok
        assert aeq.is_almost_equidistant(unit_triple(b), Tolerance(value)).ok
        if b > 1:
            s = PointSet.from_array([[0.0], [b]])
            diam = aeq.diameter(s)
            assert 1 < diam < 1 + 1e-15
            assert diameter_cap(s, Tolerance(0.0, 1.0))
            assert not diameter_cap(s, Tolerance(diam - 1.0, 1.0))


def test_exact_unit_mask_limit_is_an_int(rhombus):
    # an integral limit stays a Python int, so the mask compares ints
    _, limit, _ = aeq.geometry.band_deviation(rhombus, rhombus.scaled_sqdist[0], 1,
                                              Tolerance.exact(), "unit")
    assert type(limit) is int and limit == 0


def diameter_cap(s, tol):
    r = outcome(aeq.diameter_bound, s.dim, s, tol)
    return "exceeds" in str(r[1])


@settings(max_examples=60, deadline=None, database=None)
@given(delta=st.floats(1e-12, 1e-6))
def test_diameter_cap_at_the_limit(delta):
    s = PointSet.from_array([[0.0], [1.0 + delta]])
    diam = aeq.diameter(s)
    for x in around(diam):
        t = x - 1.0  # exact: x is in [1, 2]
        assert 1.0 + t == x
        assert diameter_cap(s, Tolerance(t, 1.0)) is (diam > 1.0 + t)


def test_exact_diameter_cap_steps_across_one():
    step = Fraction(1, 2 ** 60)
    for b, over in ((1 - step, False), (Fraction(1), False), (1 + step, True)):
        assert diameter_cap(PointSet.exact_rows([[0], [b]]), None) is over


# ---------------------------------------------------------------- "sphere"


def sphere_fails(s, r, tol):
    return outcome(aeq.geometry.sphere_defect, s, r, tol)[0] != "ok"


@settings(max_examples=150, deadline=None, database=None)
@given(r=st.sampled_from([0.3, 0.5, 0.7]), k=st.integers(-24, 24))
def test_sphere_band_at_the_limit_and_at_the_floor(r, k):
    # k ulps off r: the deviation straddles the 1e-15 floor for small k
    x = _steps(r, k)
    s = PointSet.from_array([[x, 0.0]])
    value = abs(float(np.einsum("ij,ij->i", s.array, s.array)[0]) - r * r)
    for t in around(value) + floor_neighbours(1e-15):
        assert sphere_fails(s, r, Tolerance(t)) is (value > max(t, 1e-15))


def test_sphere_band_floor_straddles():
    # the deviations of these steps fall on both sides of the floor at dist_tol 0
    r = 0.5
    seen = set()
    for k in range(-24, 25):
        x = _steps(r, k)
        value = abs(x * x - r * r)
        seen.add(value > 1e-15)
        assert sphere_fails(PointSet.from_array([[x, 0.0]]), r, Tolerance(0.0)) is (value > 1e-15)
    assert seen == {True, False}


@settings(max_examples=60, deadline=None, database=None)
@given(delta=st.floats(-1e-7, 1e-7))
def test_far_pairs_at_the_limit(delta):
    # a = 2: the site's own factor max(1, a^2) = 4 scales the slack exactly
    s = PointSet.from_array([[0.0], [2.0 + delta]])
    value = abs(float(s.scaled_sqdist[0][0, 1]) - 4.0)
    for t in [x / 4 for x in around(value)] + floor_neighbours(1e-15):
        got = outcome(aeq.two_distance_to_graph, s, 2.0, Tolerance(t))
        assert (got[0] == "ok") is (value <= max(t, 1e-15) * 4.0)


def test_anchor_band_at_the_limit_and_the_floor():
    s = aeq.recenter_to_barycenter(aeq.construct_two_simplices(3))
    norms = np.einsum("ij,ij->i", s.array, s.array)
    worst = float(np.abs(norms - 0.5).max())
    seen = set()
    for x in around(worst) + around(worst - 1e-15) + around(worst - 1e-9):
        for t in [1e-9] + floor_neighbours(1e-15):
            got = outcome(aeq.anchor_defect_ratio, s, 0, x, Tolerance(t))
            fails = worst > x + max(t, 1e-15)
            seen.add(fails)
            assert ("norm band" in str(got[1])) is fails
    assert seen == {True, False}


def _flag_near_quarter(j):
    """r just above 1/2 with r * r = 1/4 + 2 j u, u = 2**-54 the ulp there."""
    r = _steps(0.5, j)
    assert Fraction(r * r) == Fraction(1, 4) + 2 * j * Fraction(1, 2 ** 54)
    return r


@pytest.mark.parametrize("y, j, dev_ulps", [
    (0, 2, 4),                       # |x|^2 = 1/4: at the limit, 4 ulps
    (Fraction(1, 2 ** 27), 2, 3),    # |x|^2 = 1/4 + u: one ulp inside
    (Fraction(1, 2 ** 27), 3, 5),    # one ulp past
    (0, 3, 6),
])
def test_exact_sphere_band_is_four_ulps_of_the_flag(y, j, dev_ulps):
    u = Fraction(1, 2 ** 54)
    s = PointSet.exact_rows([[Fraction(1, 2), y]])
    r = _flag_near_quarter(j)
    norm = Fraction(1, 4) + y * y
    dev = abs(norm - Fraction(r * r))
    assert dev == dev_ulps * u and math.ulp(r * r) == u
    oracle = dev > 4 * Fraction(math.ulp(r * r))
    assert sphere_fails(s, r, Tolerance.exact()) is oracle is (dev_ulps > 4)
    assert outcome(aeq.sphere_bound, 2, r, s)[0] == ("ValueError" if oracle else "ok")


@pytest.mark.parametrize("dist_tol", [0.0, 1e-16, 1e-15, 1e-9, None])
def test_sphere_bound_radius_at_the_limit(dist_tol):
    tol = None if dist_tol is None else Tolerance(dist_tol)
    slack = max(1e-9 if dist_tol is None else dist_tol, 1e-15)
    for r in around(INV_SQRT2 + slack) + around(INV_SQRT2 - slack):
        got = outcome(aeq.sphere_bound, 1, r, None, tol)
        assert (got[0] == "ok") is (r <= INV_SQRT2 + slack)
        if got[0] == "ok":
            assert got[1].detail["critical_radius"] is (abs(r - INV_SQRT2) <= slack)
        # an exact set's default tolerance reads the floor
        exact = outcome(aeq.sphere_bound, 1, r, PointSet.exact_rows([[0]]))
        assert ("exceeds 1/sqrt(2)" in str(exact[1])) is (r > INV_SQRT2 + 1e-15)


@pytest.mark.parametrize("dist_tol", [0.0, 1e-15, 1e-10])
def test_lift_radius_at_the_limit(dist_tol):
    slack = max(dist_tol, 1e-15)
    r = math.sqrt(0.5 + slack)
    for k in range(-12, 13):
        rk = _steps(r, k)
        s = PointSet.from_array([[rk]])
        got = outcome(aeq.lift_to_halfsphere, s, rk, Tolerance(dist_tol))
        assert ("radius must satisfy" in str(got[1])) is (rk * rk > 0.5 + slack)


# ------------------------------------------------------------------ "ball"


def recentring_fails(s, tol):
    return "recentred" in str(outcome(aeq.recentred_norm_bounds, s, tol)[1])


@settings(max_examples=60, deadline=None, database=None)
@given(delta=st.floats(2e-12, 1e-6))
def test_recentring_check_at_the_limit(delta):
    s = PointSet.from_array([[-1.0], [1.0 + delta]])
    value = abs(float(s.array.sum())) / 2
    for t in around(value) + floor_neighbours(1e-12):
        assert recentring_fails(s, Tolerance(t)) is (value > max(t, 1e-12))


def test_recentring_floor_straddles():
    seen = set()
    for k in range(-8, 9):
        b = 1.0 + 2e-12 + k * math.ulp(1.0)
        s = PointSet.from_array([[-1.0], [b]])
        value = abs(float(s.array.sum())) / 2
        seen.add(value > 1e-12)
        assert recentring_fails(s, Tolerance(0.0)) is (value > 1e-12)
    assert seen == {True, False}


def test_exact_recentring_is_exact():
    assert not recentring_fails(PointSet.exact_rows([[-1], [1]]), None)
    assert recentring_fails(PointSet.exact_rows([[-1], [1 + Fraction(1, 2 ** 80)]]), None)


def ball_too_wide(s, tol):
    return "exceeds the stated ball" in str(outcome(aeq.ball_bound, 1, 0.0, s, tol)[1])


@settings(max_examples=40, deadline=None, database=None)
@given(delta=st.floats(2e-12, 1e-6))
def test_ball_radius_at_the_limit(delta):
    radius = math.sqrt(0.5)
    m = radius + delta
    s = PointSet.from_array([[-m], [m]])
    mer = min_enclosing_ball(s)[1]
    for x in around(mer):
        t = x - radius  # exact: x is in [radius, 2 radius]
        assert radius + t == x
        assert ball_too_wide(s, Tolerance(t)) is (mer > radius + max(t, 1e-12))


def test_ball_radius_floor_straddles():
    radius = math.sqrt(0.5)
    seen = set()
    for k in range(-8, 9):
        m = _steps(radius + 1e-12, k)
        s = PointSet.from_array([[-m], [m]])
        mer = min_enclosing_ball(s)[1]
        seen.add(mer > radius + 1e-12)
        assert ball_too_wide(s, Tolerance(0.0)) is (mer > radius + 1e-12)
    assert seen == {True, False}


def test_exact_ball_radius_keeps_four_ulps_of_the_float_square():
    radius = math.sqrt(0.5)
    limit = radius * radius
    seen = set()
    for k in range(8):
        a = Fraction(_steps(radius, k))
        s = PointSet.exact_rows([[-a], [a]])
        assert min_enclosing_ball(s)[2] == a * a
        over = a * a > limit + 4 * math.ulp(limit)
        seen.add(over)
        assert ball_too_wide(s, None) is over
    assert seen == {True, False}


def pipeline_branch(s, tol):
    return aeq.general_bound_pipeline(s, tol).detail["branch"]


T0 = 0.8819171036882


def circle_triangle(t):
    """[0, 0], [1, 0] and the rational point of the unit circle with
    parameter t: an almost-equidistant triple whose recentred max |x|^2
    passes 1/2 near t = T0."""
    c = [(1 - t * t) / (1 + t * t), 2 * t / (1 + t * t)]
    if isinstance(t, Fraction):
        return PointSet.exact_rows([[0, 0], [1, 0], c])
    return PointSet.from_array([[0.0, 0.0], [1.0, 0.0], c])


def float_excess(s):
    """The pipeline's float branch value: the reported radius squared, less 1/2."""
    x = aeq.recenter_to_barycenter(s).array
    return math.sqrt(float(np.einsum("ij,ij->i", x, x).max())) ** 2 - 0.5


@pytest.mark.parametrize("dt", [2e-9, 1e-8, 4e-7])
def test_pipeline_branch_at_the_limit(dt):
    s = circle_triangle(T0 + dt)
    value = float_excess(s)
    assert value > 1e-12
    for t in around(value):
        assert (pipeline_branch(s, Tolerance(t)) == "critical_ball") is (value <= max(t, 1e-12))


def test_pipeline_branch_floor_straddles():
    seen = set()
    for k in range(-10, 11):
        s = circle_triangle(T0 + 2.016e-12 + k * 2e-14)
        value = float_excess(s)
        seen.add(value <= 1e-12)
        for t in floor_neighbours(1e-12):
            critical = value <= max(t, 1e-12)
            assert (pipeline_branch(s, Tolerance(t)) == "critical_ball") is critical
    assert seen == {True, False}


@pytest.mark.parametrize("num", range(8819171036880, 8819171036884))
def test_exact_pipeline_branch_is_exact(num):
    # the recentred excess changes sign between 881 and 882 (1/2 itself:
    # test_band_rule's square on the critical sphere)
    s = circle_triangle(Fraction(num, 10 ** 13))
    centred = aeq.recenter_to_barycenter(s).points
    excess = max(sum(v * v for v in p) for p in centred) - Fraction(1, 2)
    assert (pipeline_branch(s, None) == "critical_ball") is (excess <= 0)


# ------------------------------------------------------------ "eig" sites


@settings(max_examples=60, deadline=None, database=None)
@given(m=st.floats(1e-12, 1e-3))
def test_perron_negative_entry_at_the_limit(m):
    a = np.array([[0.0, -m], [-m, 1.0]])
    for t in around(m) + [0.0]:
        got = outcome(aeq.perron_frobenius_check, a, t)
        assert ("negative entry" in str(got[1])) is (-m < -t)


def test_trace_cap_at_the_limit():
    # a square with sides within dist_tol of 1: U has small entries, and
    # n^3 = 64 scales eig_tol exactly
    rng = np.random.default_rng(5)
    x = np.array([[0.5, 0.5], [-0.5, 0.5], [-0.5, -0.5], [0.5, -0.5]])
    seen = set()
    for _ in range(20):
        s = PointSet.from_array(x + rng.uniform(-1e-5, 1e-5, size=x.shape))
        u = aeq.defect_matrix(s)
        m = u.array
        tr3 = abs(float(((m @ m) * m.T).sum()))
        for e in [v / 64 for v in around(tr3)] + [0.0]:
            tol = Tolerance(1e-4, e)
            holds = aeq.trace_identities(u, s, tol).holds
            oracle = float(np.trace(m)) == 0.0 and tr3 <= 64 * e
            seen.add(oracle)
            assert holds is oracle
    assert seen == {True, False}


def test_eigenvalue_sum_drift_has_a_floor():
    # at eig_tol 0 the drift of the eigenvalue sum from the trace is read
    # against the 1e-12 floor, not against 0
    rng = np.random.default_rng(3)
    for n in (8, 16, 32):
        a = rng.standard_normal((n, n))
        a = a + a.T
        vals = np.linalg.eigvalsh(a)
        drift = abs(float(vals.sum()) - float(np.trace(a)))
        scale = max(1.0, float(np.abs(a).max()))
        assert drift <= scale * n * 1e-12
        assert aeq.eigenvalues(a, 0.0).values == tuple(vals[::-1].tolist())


# --------------------------------------------------------------- "solver"


def oracle_counts(s, eig_tol):
    """The certificate counts from the old inline rule, e if e > 0 else 1e-8."""
    e = eig_tol if eig_tol > 0 else 1e-8
    vals = np.linalg.eigvalsh(aeq.defect_matrix(s).array)[::-1]
    return int(np.sum(np.abs(vals - 1.0) <= e)), int(np.sum(vals > 1.0 + e))


def test_certificate_counts_at_the_limit():
    # rotated squares with their sides a little off 1: the eigenvalues of U
    # sit near 1, and eig_tol is moved across their distance from 1
    rng = np.random.default_rng(9)
    x = np.array([[0.5, 0.5], [-0.5, 0.5], [-0.5, -0.5], [0.5, -0.5]])
    seen = set()
    for _ in range(10):
        s = PointSet.from_array(x + rng.uniform(-1e-7, 1e-7, size=x.shape))
        vals = np.linalg.eigvalsh(aeq.defect_matrix(s).array)
        for v in vals:
            for e in around(abs(v - 1.0)) + [0.0]:
                if e > 1e-3:
                    continue
                cert = aeq.certify(s, Tolerance(1e-6, e))
                want = oracle_counts(s, e)
                seen.add(want)
                assert (cert.count_eq_one, cert.count_gt_one) == want
    assert len(seen) > 1


def test_exact_certificate_counts_fall_back_to_1e_8(rhombus, zigzag):
    for s in (rhombus, zigzag, aeq.recenter_to_barycenter(rhombus)):
        cert = aeq.certify(s)
        assert (cert.count_eq_one, cert.count_gt_one) == oracle_counts(s, 0.0)


@pytest.mark.parametrize("g", [
    aeq.Graph.from_edges(8, [(i, (i + 1) % 8) for i in range(8)]),  # lambda2 = sqrt 2, twice
    aeq.Graph.from_edges(4, [(0, 3), (1, 3)]),  # lambda2 = 0, twice, read as 0 and -1e-17
])
def test_tdrank_clusters_at_the_limit(g):
    vals = np.linalg.eigvalsh(np.array([g.adjacency()]))[0]
    lam2 = vals[-2]
    gaps = sorted({abs(v - lam2) for v in vals if 0 < abs(v - lam2) < 1e-3})
    for e in [e for gap in gaps for e in around(gap)] + [0.0, 1e-8, math.sqrt(2.0)]:
        rec = aeq.lambda2_rank(g, Tolerance(1e-9, e))
        solver = e if e > 0 else 1e-8
        assert rec.multiplicity == int(np.sum(np.abs(vals - lam2) <= solver))
        assert rec.lambda2_positive is bool(lam2 > solver)


# -------------------------------------------------------------- "eig_sum"


@settings(max_examples=100, deadline=None, database=None)
@given(delta=st.floats(-1e-6, 1e-6))
def test_cubic_sum_at_the_limit_and_the_floor(delta):
    xs = [1.0 + delta, 1.0, 1.0, 1.0]  # m = 4 scales eig_tol exactly
    value = abs(math.fsum(xs) - 4)
    for e in [v / 4 for v in around(value)] + floor_neighbours(1e-12):
        got = outcome(aeq.cubic_inequality, xs, 0.0, Tolerance(1e-9, e))
        slack = 4 * max(e, 1e-12)
        assert (got[0] == "ok") is (value <= slack)
        if got[0] == "ok":
            lhs = math.fsum(x ** 3 for x in xs)
            assert got[1].holds is (lhs >= 4.0 - slack)


def test_cubic_sum_floor_straddles():
    seen = set()
    for k in range(-6, 7):
        xs = [1.0 + 4e-12 + k * math.ulp(4.0), 1.0, 1.0, 1.0]
        value = abs(math.fsum(xs) - 4)
        seen.add(value <= 4e-12)
        got = outcome(aeq.cubic_inequality, xs, 0.0, Tolerance(1e-9, 0.0))
        assert (got[0] == "ok") is (value <= 4e-12)
    assert seen == {True, False}
