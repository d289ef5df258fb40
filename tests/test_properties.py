"""Property tests: wire-format round trips and float-mode symmetries.

A float set read back from its own report, or from a CSV of ``repr``
floats, has an identical array, bit for bit, so the sign of zero counts; an
exact set has identical Fraction rows.
Float verdicts and certificates do not depend on the order of the rows or
of the coordinates, nor on the sign of a coordinate. Every coordinate there
is k/8 with |k| <= 64, so every squared distance is exact in float and the
checks see the same numbers in every order.
"""
from dataclasses import asdict
from fractions import Fraction
from itertools import product

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import aeq
from aeq import PointSet

finite = st.floats(allow_nan=False, allow_infinity=False)
rational = st.builds(Fraction, st.integers(-10 ** 6, 10 ** 6), st.integers(1, 10 ** 4))


def rows_of(coord, max_n=8, max_d=5):
    return st.integers(1, max_d).flatmap(
        lambda d: st.lists(st.lists(coord, min_size=d, max_size=d), min_size=1, max_size=max_n)
    )


def same_bits(a, b):
    """Equal float64 arrays, bit for bit: np.array_equal alone takes -0.0 for 0.0."""
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


@settings(max_examples=150, deadline=None, database=None)
@given(rows=rows_of(finite))
@example(rows=[[-0.0, 0.0], [0.0, -0.0]])
def test_float_report_roundtrip_is_identical(rows):
    s = PointSet.from_array(rows)
    back = aeq.load_pointset(aeq.dumps_report(aeq.pointset_to_dict(s)))
    assert back.mode == "float" and back.dim == s.dim
    assert same_bits(back.array, s.array)


@settings(max_examples=150, deadline=None, database=None)
@given(rows=rows_of(finite))
@example(rows=[[-0.0, 0.0], [0.0, -0.0]])
def test_float_csv_of_repr_roundtrip_is_identical(rows):
    s = PointSet.from_array(rows)
    text = "".join(", ".join(map(repr, row)) + "\n" for row in s.array.tolist())
    assert same_bits(aeq.load_pointset_csv(text).array, s.array)


@settings(max_examples=150, deadline=None, database=None)
@given(rows=rows_of(rational))
def test_exact_report_roundtrip_is_identical(rows):
    for s in (PointSet.exact_rows(rows), aeq.recenter_to_barycenter(PointSet.exact_rows(rows))):
        back = aeq.load_pointset(aeq.dumps_report(aeq.pointset_to_dict(s)))
        assert back.mode == "exact" and back.dim == s.dim
        assert back.points == s.points
        assert all(type(c) is Fraction for row in back.points for c in row)


def _unit_steps(d):
    """Unit vectors with coordinates k/8: +-e_i, and (+-1/2, +-1/2, +-1/2, +-1/2)."""
    steps = [[8 * s if j == i else 0 for j in range(d)] for i in range(d) for s in (1, -1)]
    if d >= 4:
        steps += [[4 * s for s in signs] + [0] * (d - 4) for signs in product((1, -1), repeat=4)]
    return steps


def _cross(d):
    """The rows +-(e_2k +- e_2k+1)/2 in eighths; almost equidistant."""
    rows = []
    for k in range(d // 2):
        for a, b in product((4, -4), repeat=2):
            row = [0] * d
            row[2 * k], row[2 * k + 1] = a, b
            rows.append(row)
    return rows


@st.composite
def eighth_sets(draw):
    """Integer rows k, |k| <= 64, of the set k/8: a translated part of a
    cross polytope, or a walk of unit steps mixed with random points."""
    d = draw(st.integers(1, 6))
    if d % 2 == 0 and draw(st.booleans()):
        cross = _cross(d)
        keep = draw(st.lists(st.sampled_from(cross), min_size=3, max_size=len(cross),
                             unique_by=tuple))
        shift = draw(st.lists(st.integers(-32, 32), min_size=d, max_size=d))
        return [[c + t for c, t in zip(row, shift)] for row in keep]
    point = st.lists(st.integers(-32, 32), min_size=d, max_size=d)
    pts = [draw(point)]
    for _ in range(draw(st.integers(2, 9))):
        if draw(st.integers(0, 3)):
            base = draw(st.sampled_from(pts))
            step = draw(st.sampled_from(_unit_steps(d)))
            nxt = [a + b for a, b in zip(base, step)]
            pts.append(nxt if max(map(abs, nxt)) <= 64 else base)
        else:
            pts.append(draw(point))
    return pts


@settings(max_examples=150, deadline=None, database=None)
@given(case=eighth_sets(), data=st.data())
def test_float_verdict_and_certificate_invariant_under_symmetries(case, data):
    x = np.array(case, dtype=float) / 8
    n, d = x.shape
    rows = data.draw(st.permutations(range(n)))
    cols = data.draw(st.permutations(range(d)))
    signs = np.array(data.draw(st.lists(st.sampled_from((1.0, -1.0)), min_size=d, max_size=d)))
    s = PointSet.from_array(x)
    t = PointSet.from_array(x[rows][:, cols] * signs)
    ok = aeq.is_almost_equidistant(s).ok
    assert aeq.is_almost_equidistant(t).ok == ok
    if not ok:
        return
    cert, tcert = asdict(aeq.certify(s)), asdict(aeq.certify(t))
    # eigvalsh and the cube-trace sum see a permuted matrix
    for key in ("lambda_max", "lambda_min", "trace_u3"):
        want = cert.pop(key)
        assert abs(tcert.pop(key) - want) <= 1e-9 * max(1.0, abs(want))
    assert tcert == cert
