import itertools
import math
import sys
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import aeq
from aeq import PointSet, miniball


def cross_rows(d):
    """The 2d rows +-(e_2k +- e_2k+1)/2 of R^d (d even), on the sphere of
    radius 1/sqrt(2) around the origin, in antipodal pairs."""
    h = Fraction(1, 2)
    rows = []
    for k in range(0, d, 2):
        for a, b in itertools.product((h, -h), repeat=2):
            row = [Fraction(0)] * d
            row[k], row[k + 1] = a, b
            rows.append(row)
    return rows


def solve_fraction(g, b):
    """Gauss-Jordan over Fractions; g is a Gram matrix of an affinely
    independent support, positive definite, so every pivot is positive."""
    k = len(b)
    m = [[Fraction(v) for v in row] + [Fraction(rhs)] for row, rhs in zip(g, b)]
    for col in range(k):
        m[col] = [x / m[col][col] for x in m[col]]
        for r in range(k):
            if r != col and m[r][col] != 0:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return np.array([row[k] for row in m], dtype=object)


def oracle_walk(x):
    """The pivoting walk over an object array of Fractions, with no slack."""
    c = x[0]
    d2 = ((x - c) ** 2).sum(axis=1)
    support = [int(np.argmax(d2))]
    while True:
        p0 = x[support[0]]
        u = x[support[1:]] - p0
        a = solve_fraction(2 * (u @ u.T), (u * u).sum(axis=1))
        cc = p0 + a @ u
        room = ((c - p0) ** 2).sum() - ((x - c) ** 2).sum(axis=1)
        rate = 2 * ((p0 - x) @ (cc - c))
        hit = np.flatnonzero(rate > 0)
        if len(hit):
            steps = np.maximum(room[hit], 0) / rate[hit]
            k = int(np.argmin(steps))
            if steps[k] < 1:
                c = c + steps[k] * (cc - c)
                support.append(int(hit[k]))
                continue
        c = cc
        coefs = [1 - a.sum(), *a]
        out = [p for p, lam in zip(support, coefs) if lam < 0]
        if not out:
            return c, support
        support.remove(min(out))


def assert_exact_ball_matches_oracle(rows):
    """The integer walk's center and r^2 against the Fraction walk's."""
    x = np.array([[Fraction(v) for v in row] for row in rows], dtype=object)
    center, support = oracle_walk(x)
    s = PointSet.exact_rows(rows)
    assert miniball._walk_exact(s.form[0])[2] == support  # the same steps
    c, r, r2 = aeq.min_enclosing_ball(s)
    assert c == tuple(center)
    assert r2 == ((x[support[0]] - center) ** 2).sum()
    assert all(type(v) is Fraction for v in (*c, r2))
    assert r == math.sqrt(float(r2))


def brute_min_ball(pts):
    """Oracle: for every candidate support subset take its circumcenter inside
    the subset's affine hull, then cover all points from there; the optimal
    ball is the cheapest of these."""
    n, d = pts.shape
    best = None
    for size in range(1, min(n, d + 1) + 1):
        for idx in itertools.combinations(range(n), size):
            sub = pts[list(idx)]
            base = sub[0]
            if size == 1:
                center = base.copy()
            else:
                u = sub[1:] - base
                g = 2.0 * (u @ u.T)
                b = np.einsum("ij,ij->i", u, u)
                try:
                    alpha = np.linalg.solve(g, b)
                except np.linalg.LinAlgError:
                    continue  # affinely dependent subset
                center = base + alpha @ u
            r = np.sqrt(((pts - center) ** 2).sum(axis=1).max())
            if best is None or r < best[0] - 1e-12:
                best = (r, center)
    return best


def test_single_point():
    c, r, r2 = aeq.min_enclosing_ball(PointSet.from_array([[3.0, 4.0]]))
    assert r == 0.0
    assert c == (3.0, 4.0)


def test_two_points_midpoint():
    c, r, _ = aeq.min_enclosing_ball(PointSet.from_array([[0.0], [1.0]]))
    assert abs(r - 0.5) < 1e-12
    assert abs(c[0] - 0.5) < 1e-12


def test_triangle_circumradius(unit_triangle):
    _, r, _ = aeq.min_enclosing_ball(unit_triangle)
    assert abs(r - 1.0 / math.sqrt(3.0)) < 1e-9


def test_duplicate_points():
    s = PointSet.from_array([[1.0, 1.0]] * 4 + [[2.0, 1.0]])
    _, r, _ = aeq.min_enclosing_ball(s)
    assert abs(r - 0.5) < 1e-12
    # rotated sets with repeated rows: rounding must not let a copy of a
    # support point join the support, which would make its solve singular
    rng = np.random.default_rng(11)
    for trial in range(120):
        n, d = int(rng.integers(2, 8)), int(rng.integers(1, 5))
        x = rng.normal(size=(n, d))
        if trial % 2:
            x = np.round(2.0 * x) / 2.0
        x = np.vstack([x, x[rng.integers(0, n, size=3)]])
        x = x @ np.linalg.qr(rng.normal(size=(d, d)))[0]
        _, r, _ = aeq.min_enclosing_ball(PointSet.from_array(x))
        assert abs(r - brute_min_ball(x)[0]) < 1e-9


def test_cospherical_configuration():
    # 2d + 2 points sharing one circumsphere stress the support search;
    # at d = 80 Welzl's recursion did not finish in 30 s
    for d in (30, 80):
        s = aeq.construct_two_simplices(d)
        _, r, _ = aeq.min_enclosing_ball(s)
        assert abs(r - math.sqrt(d / (2.0 * d + 2.0))) < 1e-9


def test_exact_mode_rational_radius(rhombus):
    c, r, r2 = aeq.min_enclosing_ball(rhombus)
    # diametral pair (0,3) at squared distance 16/5 dominates
    assert r2 == Fraction(4, 5)
    assert c == (Fraction(4, 5), Fraction(2, 5))
    assert abs(r - math.sqrt(0.8)) < 1e-12
    # cross24 with row 33 pulled 1/7 of the way in: the antipodal pairs
    # still pin the critical ball (Welzl's recursion took 18 s here)
    rows = cross_rows(24)
    rows[33] = [x * Fraction(6, 7) for x in rows[33]]
    c, r, r2 = aeq.min_enclosing_ball(PointSet.exact_rows(rows))
    assert r2 == Fraction(1, 2)
    assert c == (0,) * 24
    assert abs(r - 1.0 / math.sqrt(2.0)) < 1e-15


def test_matches_brute_force_fuzz():
    rng = np.random.default_rng(424242)
    for _ in range(40):
        n = int(rng.integers(2, 8))
        d = int(rng.integers(1, 4))
        pts = rng.uniform(-1, 1, size=(n, d))
        _, r, _ = aeq.min_enclosing_ball(PointSet.from_array(pts))
        want_r, _ = brute_min_ball(pts)
        assert abs(r - want_r) < 1e-7


def test_all_points_contained_fuzz():
    rng = np.random.default_rng(5)
    for _ in range(30):
        pts = rng.normal(size=(int(rng.integers(2, 20)), int(rng.integers(1, 5))))
        c, r, _ = aeq.min_enclosing_ball(PointSet.from_array(pts))
        dist = np.sqrt(((pts - np.asarray(c)) ** 2).sum(axis=1))
        assert dist.max() <= r + 1e-9


def test_recursion_limit_untouched():
    limit = sys.getrecursionlimit()
    _, r, _ = aeq.min_enclosing_ball(aeq.construct_two_simplices(500))
    assert sys.getrecursionlimit() == limit
    assert abs(r - math.sqrt(500.0 / 1002.0)) < 1e-9


def test_exact_grids_with_duplicates_and_collinear_points():
    rng = np.random.default_rng(77)
    for trial in range(60):
        n = int(rng.integers(1, 9))
        d = int(rng.integers(1, 4))
        den = 1 if trial % 2 == 0 else int(rng.integers(2, 6))
        rows = [[Fraction(int(v), den) for v in r] for r in rng.integers(-2, 3, size=(n, d))]
        rows += [rows[int(i)] for i in rng.integers(0, n, size=2)]  # duplicates
        base, step = rng.integers(-2, 3, size=d), rng.integers(-1, 2, size=d)
        rows += [[Fraction(int(b + k * v), den) for b, v in zip(base, step)] for k in (-1, 0, 2)]
        s = PointSet.exact_rows(rows)
        assert_exact_ball_matches_oracle(rows)
        c, r, r2 = aeq.min_enclosing_ball(s)
        assert all(sum((a - b) ** 2 for a, b in zip(p, c)) <= r2 for p in s.points)
        want_r, _ = brute_min_ball(s.array)
        assert abs(r - want_r) < 1e-9


_small_fraction = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))


@st.composite
def exact_point_lists(draw):
    d = draw(st.integers(1, 3))
    return draw(st.lists(st.lists(_small_fraction, min_size=d, max_size=d), min_size=1, max_size=8))


@settings(max_examples=60, deadline=None, database=None)
@given(rows=exact_point_lists(), data=st.data())
def test_exact_ball_invariant_under_permutation(rows, data):
    order = data.draw(st.permutations(range(len(rows))))
    c, _, r2 = aeq.min_enclosing_ball(PointSet.exact_rows(rows))
    pc, _, pr2 = aeq.min_enclosing_ball(PointSet.exact_rows([rows[i] for i in order]))
    assert (pc, pr2) == (c, r2)


@settings(max_examples=60, deadline=None, database=None)
@given(rows=exact_point_lists(), data=st.data())
def test_exact_ball_follows_translation(rows, data):
    shift = data.draw(st.lists(_small_fraction, min_size=len(rows[0]), max_size=len(rows[0])))
    c, _, r2 = aeq.min_enclosing_ball(PointSet.exact_rows(rows))
    moved = [[a + b for a, b in zip(row, shift)] for row in rows]
    tc, _, tr2 = aeq.min_enclosing_ball(PointSet.exact_rows(moved))
    assert tr2 == r2
    assert tc == tuple(a + b for a, b in zip(c, shift))


@settings(max_examples=100, deadline=None, database=None)
@given(rows=exact_point_lists(), data=st.data())
def test_exact_ball_matches_fraction_walk(rows, data):
    copies = data.draw(st.lists(st.integers(0, len(rows) - 1), max_size=3))
    rows = rows + [rows[i] for i in copies]
    step = data.draw(st.lists(_small_fraction, min_size=len(rows[0]), max_size=len(rows[0])))
    rows += [[a + k * b for a, b in zip(rows[0], step)] for k in (-1, 2)]  # collinear
    assert_exact_ball_matches_oracle(rows)


@pytest.mark.parametrize("d", [4, 16, 24, 40])
def test_exact_ball_of_cross_sets_matches_fraction_walk(d):
    rng = np.random.default_rng(d)
    shift = [Fraction(int(v), 7) for v in rng.integers(-6, 7, size=d)]
    rows = [[a + b for a, b in zip(row, shift)] for row in cross_rows(d)]
    bent = [row[:] for row in rows]
    bent[0] = [c + (x - c) * Fraction(6, 7) for x, c in zip(bent[0], shift)]
    for pts in (rows, bent, [rows[i] for i in rng.permutation(2 * d)]):
        assert_exact_ball_matches_oracle(pts)
    if d == 24:
        rows = cross_rows(24)
        rows[33] = [x * Fraction(6, 7) for x in rows[33]]
        assert_exact_ball_matches_oracle(rows)


def test_integer_gram_solve_matches_fraction_solve():
    rng = np.random.default_rng(8)
    for k in range(9):
        for _ in range(20):
            u = rng.integers(-5, 6, size=(k, k + 2)).astype(object)
            g, b = 2 * (u @ u.T), (u * u).sum(axis=1)
            if k and np.linalg.matrix_rank(g.astype(float)) < k:
                continue  # a dependent support; the walk never solves one
            a, det = miniball._solve_int(g, b)
            assert det > 0
            assert [Fraction(v, det) for v in a] == list(solve_fraction(g, b))


def _fraction_key_least(nums, dens):
    """The step choice as a Fraction key: the first least ratio."""
    return min(range(len(nums)), key=lambda i: Fraction(nums[i], dens[i]))


@settings(max_examples=200, deadline=None, database=None)
@given(st.lists(st.tuples(st.integers(0, 6), st.integers(1, 4)), min_size=1, max_size=8)
       | st.lists(st.tuples(st.integers(0, 2 ** 90), st.integers(1, 2 ** 90)), min_size=1, max_size=8))
def test_step_choice_matches_the_fraction_key(pairs):
    # small ranges give equal ratios, so ties come up often
    nums, dens = map(list, zip(*pairs))
    assert miniball._first_least(nums, dens) == _fraction_key_least(nums, dens)


def _walks_as_with_the_fraction_key(rows):
    x = PointSet.exact_rows(rows).form[0]
    c, den, support = miniball._walk_exact(x)
    with mock.patch.object(miniball, "_first_least", _fraction_key_least):
        kc, kden, ksupport = miniball._walk_exact(x)
    assert (c.tolist(), den, support) == (kc.tolist(), kden, ksupport)


@pytest.mark.parametrize("d", [4, 16, 24])
def test_exact_walk_of_cross_sets_steps_as_with_the_fraction_key(d):
    rng = np.random.default_rng(d)
    shift = [Fraction(int(v), 7) for v in rng.integers(-6, 7, size=d)]
    rows = [[a + b for a, b in zip(row, shift)] for row in cross_rows(d)]
    bent = [row[:] for row in rows]
    bent[0] = [c + (x - c) * Fraction(6, 7) for x, c in zip(bent[0], shift)]
    for pts in (rows, bent, [rows[i] for i in rng.permutation(2 * d)]):
        _walks_as_with_the_fraction_key(pts)


@settings(max_examples=60, deadline=None, database=None)
@given(rows=exact_point_lists())
def test_exact_walk_steps_as_with_the_fraction_key(rows):
    _walks_as_with_the_fraction_key(rows)


@settings(max_examples=200, deadline=None, database=None)
@given(num=st.integers(0, 2 ** 2100), den=st.integers(1, 2 ** 1100))
def test_exact_radius_rounds_as_the_float_root_does(num, den):
    r2 = Fraction(num, den)
    got = miniball._float_sqrt(r2)
    try:
        square = float(r2)
    except OverflowError:  # r2 has no float; its root has one unless it is past 2^1024
        log_root = (math.log(num) - math.log(den)) / 2
        if got == math.inf:
            assert log_root > math.log(sys.float_info.max) - 1e-12
        else:
            assert math.log(got) == pytest.approx(log_root, rel=1e-14)
    else:
        assert got == math.sqrt(square)


def test_exact_radius_past_the_float_range():
    # the pair 0, 1e200: r^2 = 2.5e399 has no float, the radius 5e199 has one
    _, r, r2 = aeq.min_enclosing_ball(PointSet.exact_rows([[0], [10 ** 200]]))
    assert (r, r2) == (5e199, Fraction(25 * 10 ** 398))
    _, r, r2 = aeq.min_enclosing_ball(PointSet.exact_rows([[0], [10 ** 400]]))
    assert (r, r2) == (math.inf, Fraction(25 * 10 ** 798))
    with pytest.raises(ValueError, match="enclosing radius past the float range exceeds"):
        aeq.ball_bound(1, 0.0, points=PointSet.exact_rows([[0], [10 ** 400]]))
    with pytest.raises(ValueError, match=r"enclosing radius 5e\+199 exceeds"):
        aeq.ball_bound(1, 0.0, points=PointSet.exact_rows([[0], [10 ** 200]]))
