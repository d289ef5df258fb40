"""Exact mode's integer core against the Fraction code it replaced.

An exact point set computes over integers with one common denominator.
The oracles below are the earlier Fraction implementations, kept here
verbatim in substance: per-pair squared distances, the Fraction defect
matrix, the triple-loop cube-trace and the Fraction row statistics; and,
at the end, the two-branch (exact and float) norm band and the Fraction
cross-sum identity that the one form (X, q) replaced, the band-rule mask
that ``D != q^2`` replaced and the integer walk of the cube-trace that the
trace identities replaced. Every comparison is exact equality, floats bit
for bit.
"""
import math
from dataclasses import asdict, astuple
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import aeq
from aeq import PointSet, Tolerance
from aeq.bounds import RecentredNormBounds
from aeq.geometry import band_deviation, diameter, pairwise_squared_distances
from aeq.spectral import SpectralCertificate
from conftest import in_one_form


# -- the Fraction oracles ---------------------------------------------------

def squared_distance(p, q):
    return sum((a - b) * (a - b) for a, b in zip(p, q))


def oracle_sqdist(points):
    n = len(points)
    m = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            m[i][j] = m[j][i] = squared_distance(points[i], points[j])
    return tuple(map(tuple, m))


def oracle_triple(points):
    n = len(points)
    if n < 3:
        return True, None
    d2 = oracle_sqdist(points)
    masks = [
        sum(1 << k for k in range(n) if k != i and d2[i][k] != 1) for i in range(n)
    ]
    for i in range(n):
        for j in range(i + 1, n):
            if not (masks[i] >> j) & 1:
                continue
            common = masks[i] & masks[j]
            if common:
                k = (common & -common).bit_length() - 1
                return False, tuple(sorted((i, j, k)))
    return True, None


def oracle_defect(points):
    d2 = oracle_sqdist(points)
    n = len(points)
    one = Fraction(1)
    return tuple(
        tuple(Fraction(0) if i == j else d2[i][j] - one for j in range(n)) for i in range(n)
    )


def oracle_traces(rows):
    n = len(rows)
    tr = sum(rows[i][i] for i in range(n))
    tr3 = Fraction(0)
    for i in range(n):
        ri = rows[i]
        for j in range(n):
            if ri[j] == 0:
                continue
            rj = rows[j]
            tr3 += ri[j] * sum(rj[k] * rows[k][i] for k in range(n))
    return tr, tr3, tr == 0 and tr3 == 0


def oracle_f_statistic(rows):
    sums = tuple(sum(row) for row in rows)
    absmax = max(abs(v) for v in sums)
    arg = next(i for i, v in enumerate(sums) if abs(v) == absmax)
    return absmax, arg, sums


def oracle_recenter(points):
    n = len(points)
    c = tuple(sum(col) / n for col in zip(*points))
    return tuple(tuple(a - b for a, b in zip(p, c)) for p in points)


def oracle_norm_bounds(points):
    n = len(points)
    absmax, _, sums = oracle_f_statistic(oracle_defect(points))
    centered = max(abs(v - 1) for v in sums)
    half = Fraction(1, 2)
    max_dev = max(abs(sum(c * c for c in p) - half) for p in points)
    budget = Fraction(3, 2) * centered / n
    return RecentredNormBounds(
        max_deviation=float(max_dev),
        f_over_n_bound=float(budget),
        holds=max_dev <= budget,
        f_value=float(absmax),
        centered_defect=float(centered),
    )


def oracle_certify(points, dim):
    rows = oracle_defect(points)
    tr, tr3, holds = oracle_traces(rows)
    eig_tol = 1e-8
    spec = aeq.eigenvalues(np.array([[float(c) for c in row] for row in rows]), eig_tol)
    vals = np.array(spec.values)
    count_eq_one = int(np.sum(np.abs(vals - 1.0) <= eig_tol))
    count_gt_one = int(np.sum(vals > 1.0 + eig_tol))
    n = len(points)
    structural = count_gt_one <= 1 and count_eq_one >= n - dim - 2
    return asdict(SpectralCertificate(
        n=n,
        dim=dim,
        trace_u=float(tr),
        trace_u3=float(tr3),
        count_eq_one=count_eq_one,
        count_gt_one=count_gt_one,
        lambda_max=spec.values[0],
        lambda_min=spec.values[-1],
        lemma1_holds=bool(structural and holds),
    ))


def assert_matches_oracle(rows):
    s = PointSet.exact_rows(rows)
    pts = s.points
    d2 = oracle_sqdist(pts)
    assert aeq.squared_distance_matrix(s) == d2
    check = aeq.is_almost_equidistant(s)
    assert (check.ok, check.witness) == oracle_triple(pts)
    u = aeq.defect_matrix(s)
    ou = oracle_defect(pts)
    assert tuple(tuple(Fraction(v, u.scale) for v in row) for row in u.values.tolist()) == ou
    machine = s.form[0].dtype == np.int64 and u.scale < 2 ** 53  # every entry below 2^53
    assert (u.values.dtype == np.int64) if machine else all(type(v) is int for v in u.values.flat)
    assert np.array_equal(u.array, np.array([[float(c) for c in row] for row in ou]))
    assert diameter(s) == math.sqrt(max(max(row) for row in d2))  # both correctly rounded
    fs = aeq.f_statistic(s)
    assert (fs.value, fs.argmax_index, fs.per_point_sums) == oracle_f_statistic(ou)
    assert all(isinstance(v, Fraction) for v in fs.per_point_sums)
    centred = aeq.recenter_to_barycenter(s)
    assert centred.points == oracle_recenter(pts)
    assert aeq.recentred_norm_bounds(centred) == oracle_norm_bounds(centred.points)
    if check.ok:
        ident = aeq.trace_identities(u, s)
        assert (ident.trace_u, ident.trace_u3, ident.holds) == oracle_traces(ou)
        assert isinstance(ident.trace_u3, Fraction)
        assert asdict(aeq.certify(s, Tolerance.exact())) == oracle_certify(pts, s.dim)


# -- inputs -------------------------------------------------------------------

def cross_rows(d):
    """The 2d rows +-(e_2k +- e_2k+1)/2 of R^d (d even); almost equidistant."""
    half = Fraction(1, 2)
    rows = []
    for k in range(d // 2):
        for a, b in product((half, -half), repeat=2):
            row = [Fraction(0)] * d
            row[2 * k], row[2 * k + 1] = a, b
            rows.append(row)
    return rows


@st.composite
def rational_sets(draw):
    """n <= 12 rows in d <= 5, denominators up to 30, rows often repeated."""
    d = draw(st.integers(1, 5))
    coord = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 30))
    n = draw(st.integers(1, 12))
    pool = draw(st.lists(st.lists(coord, min_size=d, max_size=d), min_size=1, max_size=n))
    return [pool[draw(st.integers(0, len(pool) - 1))] for _ in range(n)]


def _unit_steps(q, d):
    """Integer vectors of squared length q^2 in Z^d (not all of them)."""
    steps = []
    for i in range(d):
        for sign in (1, -1):
            v = [0] * d
            v[i] = sign * q
            steps.append(v)
    if q % 5 == 0 and d >= 2:
        for a, b in ((3, 4), (4, 3)):
            for sa, sb in product((1, -1), repeat=2):
                steps.append([sa * a * q // 5, sb * b * q // 5] + [0] * (d - 2))
    if q % 2 == 0 and d >= 4:
        for signs in product((1, -1), repeat=4):
            steps.append([s * q // 2 for s in signs] + [0] * (d - 4))
    return steps


@st.composite
def common_denominator_sets(draw):
    """(q, rows): every coordinate a multiple of 1/q, q <= 20, with many unit
    pairs (random unit steps from earlier points, or cross-polytope rows)."""
    d = draw(st.integers(1, 4))
    if d % 2 == 0 and draw(st.booleans()):
        q = 2 * draw(st.integers(1, 10))
        rows = cross_rows(d)
        order = draw(st.permutations(range(len(rows))))
        keep = order[: draw(st.integers(1, len(rows)))]
        shift = draw(st.lists(st.integers(-2 * q, 2 * q), min_size=d, max_size=d))
        return q, [[c + Fraction(t, q) for c, t in zip(rows[i], shift)] for i in keep]
    q = draw(st.integers(1, 20))
    steps = _unit_steps(q, d)
    point = st.lists(st.integers(-2 * q, 2 * q), min_size=d, max_size=d)
    pts = [draw(point)]
    for _ in range(draw(st.integers(0, 11))):
        if draw(st.integers(0, 3)):
            base = draw(st.sampled_from(pts))
            step = draw(st.sampled_from(steps))
            pts.append([a + b for a, b in zip(base, step)])
        else:
            pts.append(draw(point))
    return q, [[Fraction(c, q) for c in p] for p in pts]


# -- the integer core against the oracle ---------------------------------------

def test_fixtures_match_oracle(rhombus, zigzag):
    assert_matches_oracle(rhombus.points)
    assert_matches_oracle(zigzag.points)
    for d in (2, 4, 6):
        rows = cross_rows(d)
        assert_matches_oracle(rows)
        bent = [row[:] for row in rows]
        bent[0] = [c * Fraction(6, 7) for c in bent[0]]
        assert_matches_oracle(bent)
        shifted = [[c + Fraction(k + 1, 7) for k, c in enumerate(row)] for row in rows]
        assert_matches_oracle(shifted)


def test_integer_form_is_read_only_and_exact(rhombus):
    x, q = rhombus.form
    assert q == 5
    assert in_one_form(x) and x.dtype == np.int64
    assert all(Fraction(v, q) == c for row, p in zip(x.tolist(), rhombus.points)
               for v, c in zip(row, p))
    d2, q2 = rhombus.scaled_sqdist
    assert q2 == 25 and d2 is rhombus.scaled_sqdist[0]  # computed once
    for arr in (x, d2, aeq.defect_matrix(rhombus).values):
        try:
            arr[0, 0] = 1
        except ValueError:
            continue
        raise AssertionError("integer arrays must be read-only")


def test_kernel_is_exact_on_large_integers():
    big = 10 ** 30
    x = np.array([[big, 3], [5, -big], [2, 2]], dtype=object)
    got = pairwise_squared_distances(x)
    for i in range(3):
        for j in range(3):
            want = sum((a - b) ** 2 for a, b in zip(x[i], x[j]))
            assert got[i, j] == want and type(got[i, j]) is int


@settings(max_examples=120, deadline=None, database=None)
@given(rows=rational_sets())
def test_random_rational_sets_match_oracle(rows):
    assert_matches_oracle(rows)


@settings(max_examples=120, deadline=None, database=None)
@given(case=common_denominator_sets())
def test_unit_rich_sets_match_oracle(case):
    assert_matches_oracle(case[1])


# -- invariance and float/exact agreement --------------------------------------

def _verdict(s, tol=None):
    check = aeq.is_almost_equidistant(s, tol)
    return check.ok, check.witness


@settings(max_examples=80, deadline=None, database=None)
@given(case=common_denominator_sets(), data=st.data())
def test_exact_verdict_and_certificate_invariant_under_permutation(case, data):
    rows = case[1]
    order = data.draw(st.permutations(range(len(rows))))
    s = PointSet.exact_rows(rows)
    p = PointSet.exact_rows([rows[i] for i in order])
    ok, witness = _verdict(s)
    pok, pwitness = _verdict(p)
    assert pok == ok
    if not ok:
        # the witness is the first bad triple in index order, so it moves
        # with the rows; it must still be a triple with no unit pair
        pts = p.points
        a, b, c = pwitness
        assert all(squared_distance(pts[i], pts[j]) != 1 for i, j in ((a, b), (a, c), (b, c)))
        return
    cert = asdict(aeq.certify(s))
    pcert = asdict(aeq.certify(p))
    for key in ("lambda_max", "lambda_min"):  # float eigvalsh of a permuted matrix
        want = cert.pop(key)
        assert abs(pcert.pop(key) - want) <= 1e-9 * max(1.0, abs(want))
    assert pcert == cert


@settings(max_examples=80, deadline=None, database=None)
@given(case=common_denominator_sets(), data=st.data())
def test_exact_verdict_and_certificate_invariant_under_translation(case, data):
    rows = case[1]
    shift = data.draw(st.lists(st.builds(Fraction, st.integers(-40, 40), st.integers(1, 30)),
                               min_size=len(rows[0]), max_size=len(rows[0])))
    s = PointSet.exact_rows(rows)
    t = PointSet.exact_rows([[a + b for a, b in zip(row, shift)] for row in rows])
    assert _verdict(t) == _verdict(s)
    if _verdict(s)[0]:
        assert asdict(aeq.certify(t)) == asdict(aeq.certify(s))


@settings(max_examples=150, deadline=None, database=None)
@given(case=common_denominator_sets())
def test_float_verify_agrees_with_exact_on_one_denominator(case):
    # d^2 is an integer over q^2 <= 400, so a non-unit d^2 is at least
    # 1/400 away from 1, far beyond the float dist_tol of 1e-9
    _, rows = case
    exact = PointSet.exact_rows(rows)
    floats = PointSet.from_array([[float(c) for c in row] for row in rows])
    assert _verdict(floats, Tolerance()) == _verdict(exact)


def _lcm_form(points):
    q = math.lcm(*(c.denominator for row in points for c in row))
    return [[c.numerator * (q // c.denominator) for c in row] for row in points], q


@settings(max_examples=120, deadline=None, database=None)
@given(rows=rational_sets())
def test_recentred_integer_form_is_the_lcm_form_of_its_fractions(rows):
    # the recentred set is built from (n X - column sums, n q) reduced by one
    # gcd; its integer form must be what its Fraction view gives
    centred = aeq.recenter_to_barycenter(PointSet.exact_rows(rows))
    x, q = centred.form
    want_x, want_q = _lcm_form(centred.points)
    assert q == want_q and x.tolist() == want_x
    assert in_one_form(x) and not x.flags.writeable
    assert centred.points == oracle_recenter(PointSet.exact_rows(rows).points)


@settings(max_examples=120, deadline=None, database=None)
@given(rows=rational_sets(), data=st.data())
def test_both_exact_builders_give_the_lcm_form(rows, data):
    # the constructor (Fraction rows) and the parser ("p/q" strings, some
    # not in lowest terms) share one builder; both must give the lcm form
    def encode(c):
        k = data.draw(st.integers(1, 4))
        return data.draw(st.sampled_from([str(c), f"{k * c.numerator}/{k * c.denominator}"]))
    want_x, want_q = _lcm_form(rows)
    obj = {"dim": len(rows[0]), "mode": "exact", "points": [[encode(c) for c in r] for r in rows]}
    for s in (PointSet.exact_rows(rows), aeq.pointset_from_dict(obj)):
        x, q = s.form
        assert q == want_q and x.tolist() == want_x
        assert in_one_form(x) and not x.flags.writeable


# -- the two-branch code that one form (X, q) replaced, as oracles -------------

def two_branch_norm_bounds(s, tol=None):
    if tol is None:
        tol = Tolerance.exact() if s.mode == "exact" else Tolerance()
    n = s.n
    if s.mode == "exact":
        x, q = s.form
        if any(x.sum(axis=0)):
            raise ValueError("set must be recentred to its barycenter")
        fs = aeq.f_statistic(s)
        centered = max(abs(v - 1) for v in fs.per_point_sums)
        q2 = q * q
        norms = np.einsum("ij,ij->i", x, x).tolist()
        max_dev = Fraction(max(abs(2 * v - q2) for v in norms), 2 * q2)
        budget = Fraction(3, 2) * centered / n
        return RecentredNormBounds(float(max_dev), float(budget), max_dev <= budget,
                                   float(fs.value), float(centered))
    x = s.array
    if float(np.abs(x.mean(axis=0)).max()) > max(tol.dist_tol, 1e-12):
        raise ValueError("set must be recentred to its barycenter")
    fs = aeq.f_statistic(s)
    centered = float(np.abs(np.array(fs.per_point_sums) - 1.0).max())
    max_dev = float(np.abs(np.einsum("ij,ij->i", x, x) - 0.5).max())
    budget = 1.5 * centered / n
    return RecentredNormBounds(max_dev, budget, max_dev <= budget + tol.dist_tol,
                               float(fs.value), centered)


def fraction_barycenter_identity(x, y):
    lhs = sum(squared_distance(p, q) for p in x.points for q in y.points)
    ax = sum(map(sum, aeq.squared_distance_matrix(x))) / 2
    ay = sum(map(sum, aeq.squared_distance_matrix(y))) / 2
    cross = squared_distance(aeq.barycenter(x), aeq.barycenter(y))
    return abs(lhs - (ax + ay + x.n * x.n * cross))


def _norm_bounds_or_message(fn, s, tol):
    try:
        return [v.hex() if isinstance(v, float) else v for v in astuple(fn(s, tol))]
    except ValueError as e:
        return str(e)


def _assert_norm_bounds_match(s):
    for t in (s, aeq.recenter_to_barycenter(s)):
        for tol in (None, Tolerance(1e-7, 1e-6)):
            want = _norm_bounds_or_message(two_branch_norm_bounds, t, tol)
            assert _norm_bounds_or_message(aeq.recentred_norm_bounds, t, tol) == want


def test_norm_bounds_match_the_two_branch_oracle(rhombus, zigzag):
    fleet = [aeq.construct_two_simplices(d) for d in (2, 3, 5)]
    fleet += [aeq.construct_rosenfeld(3), aeq.construct_simplex(4, 3), rhombus, zigzag]
    fleet += [PointSet.exact_rows(cross_rows(d)) for d in (2, 4)]
    rng = np.random.default_rng(12)
    fleet += [PointSet.from_array(rng.normal(size=(n, 3))) for n in (1, 4, 9)]
    for s in fleet:
        _assert_norm_bounds_match(s)


@settings(max_examples=100, deadline=None, database=None)
@given(rows=rational_sets())
def test_norm_bounds_match_the_two_branch_oracle_on_random_sets(rows):
    _assert_norm_bounds_match(PointSet.exact_rows(rows))
    _assert_norm_bounds_match(PointSet.from_array([[float(c) for c in r] for r in rows]))


@settings(max_examples=100, deadline=None, database=None)
@given(rows=rational_sets(), data=st.data())
def test_barycenter_identity_matches_the_fraction_oracle(rows, data):
    coord = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 30))
    other = data.draw(st.lists(st.lists(coord, min_size=len(rows[0]), max_size=len(rows[0])),
                               min_size=len(rows), max_size=len(rows)))
    x, y = PointSet.exact_rows(rows), PointSet.exact_rows(other)
    got = aeq.barycenter_identity_check(x, y)
    assert got == fraction_barycenter_identity(x, y) == 0 and isinstance(got, Fraction)


# -- the exact mask and the exact trace identities -----------------------------


def band_rule_mask(s):
    """The non-unit mask through the band rule at target 1: |D - q^2| > limit."""
    dev, limit, _ = band_deviation(s, s.scaled_sqdist[0], 1, Tolerance.exact(), "unit")
    mask = np.abs(dev) > limit
    np.fill_diagonal(mask, False)
    return mask


def walked_traces(u):
    """trace_identities on an exact defect matrix as it summed them: the
    trace, and the cube-trace over the integers scale * U, walking only the
    nonzero entries of each row."""
    rows = u.values.tolist()
    support = [[k for k, v in enumerate(row) if v] for row in rows]
    tr3 = 0
    for i, ri in enumerate(rows):
        for j in support[i]:
            rj = rows[j]
            tr3 += ri[j] * sum(rj[k] * ri[k] for k in support[j])
    tr = Fraction(sum(rows[i][i] for i in range(u.n)), u.scale)
    tr3 = Fraction(tr3, u.scale ** 3)
    return tr, tr3, tr == 0 and tr3 == 0


def bipartite_rows(m, chosen):
    """An exact almost-equidistant set whose non-unit graph is dense bipartite.

    A is the unit simplex p_k = (e_2k + e_2k+1)/2 of R^2m, B = A + w with
    w_2k = w_2k+1 = 1/c on the c blocks in chosen and 0 elsewhere, so
    |w|^2 = 2/c. Pairs within A or within B are unit. The pair (p_i, p_j + w)
    is at squared distance 1 - 2 (s_j - s_i) + 2/c, s_k = (w_2k + w_2k+1)/2,
    which is unit only for i unchosen and j chosen, and for i = j when
    c = 2: K_{m,m} less those pairs.
    """
    c = len(chosen)
    a = [[Fraction(0)] * (2 * m) for _ in range(m)]
    for k, row in enumerate(a):
        row[2 * k] = row[2 * k + 1] = Fraction(1, 2)
    w = [Fraction(1, c) if k // 2 in chosen else Fraction(0) for k in range(2 * m)]
    return a + [[x + y for x, y in zip(row, w)] for row in a]


@st.composite
def bipartite_sets(draw):
    """bipartite_rows, kept in part, shuffled and shifted."""
    m = draw(st.integers(1, 7))
    chosen = set(draw(st.permutations(range(m)))[: draw(st.integers(1, m))])
    rows = bipartite_rows(m, chosen)
    order = draw(st.permutations(range(2 * m)))
    keep = order[: draw(st.integers(m, 2 * m))]
    coord = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9))
    shift = draw(st.lists(coord, min_size=2 * m, max_size=2 * m))
    return [[x + t for x, t in zip(rows[i], shift)] for i in keep]


@st.composite
def near_unit_sets(draw):
    """Unit-rich exact sets with one coordinate moved by a float ulp or so,
    so that some pairs sit 1 ulp of a float flag off unit distance (and two
    points (0, 0), (1, 2^-26) at 1 + 2^-52 exactly)."""
    _, rows = draw(common_denominator_sets())
    rows = [row[:] for row in rows]
    i = draw(st.integers(0, len(rows) - 1))
    j = draw(st.integers(0, len(rows[0]) - 1))
    eps = draw(st.sampled_from([2 ** -26, 2 ** -52, 2 ** -53, 2 ** -54, 3 * 2 ** -53]))
    rows[i][j] += Fraction(eps) * draw(st.sampled_from([1, -1]))
    if draw(st.booleans()):
        rows = [[Fraction(0), Fraction(0)], [Fraction(1), Fraction(2 ** -26)],
                [Fraction(1 - 2 ** -54), Fraction(0)]] + [r[:2] + [0] * (2 - len(r[:2]))
                                                          for r in rows]
    return rows


_exact_sets = st.one_of(bipartite_sets(), near_unit_sets(),
                        common_denominator_sets().map(lambda case: case[1]), rational_sets())


@settings(max_examples=200, deadline=None, database=None)
@given(rows=_exact_sets, tol=st.sampled_from([None, Tolerance.exact(), Tolerance(),
                                                Tolerance(0.5, 0.5)]))
def test_exact_mask_is_the_band_rule(rows, tol):
    s = PointSet.exact_rows(rows)
    check = aeq.is_almost_equidistant(s, tol)
    mask = s._triple_checks[(tol or Tolerance.exact()).dist_tol][1]
    want = band_rule_mask(s)
    assert mask.dtype == bool and not mask.flags.writeable
    assert np.array_equal(mask, want)
    assert (check.ok, check.witness) == oracle_triple(s.points)


def test_pairs_an_ulp_off_unit_distance_are_not_unit():
    s = PointSet.exact_rows([[0, 0], [1, Fraction(2 ** -26)], [1 - Fraction(2 ** -54), 0],
                             [1, 0]])
    d2 = aeq.squared_distance_matrix(s)
    assert d2[0][1] == 1 + Fraction(2 ** -52) and d2[0][2] < 1 and d2[0][3] == 1
    assert aeq.is_almost_equidistant(s).witness == (0, 1, 2)
    mask = s._triple_checks[0.0][1]
    assert np.array_equal(mask, band_rule_mask(s))
    assert mask[0].tolist() == [False, True, True, False]


@settings(max_examples=150, deadline=None, database=None)
@given(rows=st.one_of(bipartite_sets(), common_denominator_sets().map(lambda case: case[1])))
def test_exact_trace_identities_are_the_walks_zeros(rows):
    s = PointSet.exact_rows(rows)
    u = aeq.defect_matrix(s)
    if not aeq.is_almost_equidistant(s).ok:
        with pytest.raises(ValueError, match="witness"):
            aeq.trace_identities(u, s)
        return
    ident = aeq.trace_identities(u, s)
    assert astuple(ident) == walked_traces(u) == (0, 0, True)
    assert type(ident.trace_u) is Fraction and type(ident.trace_u3) is Fraction


def test_bipartite_rows_have_the_stated_non_unit_graph():
    for m in range(1, 8):
        for c in range(1, m + 1):
            s = PointSet.exact_rows(bipartite_rows(m, set(range(c))))
            mask = aeq.geometry.nonunit_mask(s, Tolerance.exact())
            assert not mask[:m, :m].any() and not mask[m:, m:].any()
            assert int(mask[:m, m:].sum()) == m * m - (m - c) * c - (m if c == 2 else 0)
