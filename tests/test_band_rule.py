"""The one band rule: exact sets compare exactly, float sets keep their slack.

An exact set's only slack is the rounding of a float flag: 4 ulps of r^2
or a^2, none when the float square is exact. The unit
pairs of two_distance_to_graph and anchor_defect_ratio are the triple
check's. The pair loops and the graph triangle loop those functions ran
before are kept here as oracles for the float path.
"""
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import aeq
from aeq import Graph, PointSet, Tolerance
from aeq.cli import main
from aeq.geometry import band_deviation, flag_square

# ------------------------------------------------------------------ oracles


def triangle_oracle(g):
    """The bitset loop is_triangle_free ran on its own."""
    masks = [0] * g.n
    for u, v in g.edges:
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    for u, v in sorted(g.edges):
        common = masks[u] & masks[v]
        if common:
            w = (common & -common).bit_length() - 1
            return False, tuple(sorted((u, v, w)))
    return True, None


def two_distance_oracle(s, a, tol):
    """The float pair loop of two_distance_to_graph, with its second triangle check."""
    if not a > 1:
        raise ValueError("second distance must exceed 1")
    check = aeq.is_almost_equidistant(s, tol)
    if not check.ok:
        raise ValueError(f"set is not almost-equidistant, witness triple {check.witness}")
    d2 = s.scaled_sqdist[0]
    slack = max(tol.dist_tol, 1e-15)
    far_sq = a * a
    edges = []
    for i in range(s.n):
        for j in range(i + 1, s.n):
            v = d2[i, j]
            if abs(v - 1.0) <= slack:
                continue
            if abs(v - far_sq) <= slack * max(1.0, far_sq):
                edges.append((i, j))
            else:
                raise ValueError(
                    f"pair ({i}, {j}) has squared distance {v:.12g}, neither 1 nor a^2"
                )
    g = Graph.from_edges(s.n, edges)
    ok, witness = triangle_oracle(g)
    if not ok:
        raise ValueError(f"far-pair graph contains triangle {witness}")
    return g


def anchor_oracle(s, anchor_index, x, tol):
    """The float pair loop of anchor_defect_ratio: (lhs, rhs, ratio, kept, discarded)."""
    if not 0 <= anchor_index < s.n:
        raise ValueError("anchor index out of range")
    check = aeq.is_almost_equidistant(s, tol)
    if not check.ok:
        raise ValueError(f"set is not almost-equidistant, witness triple {check.witness}")
    if x < 0:
        raise ValueError("norm band x must be nonnegative")
    xarr = s.array
    norms_sq = np.einsum("ij,ij->i", xarr, xarr)
    worst = float(np.abs(norms_sq - 0.5).max())
    if worst > x + max(tol.dist_tol, 1e-15):
        raise ValueError(f"norm band violated: |norm^2 - 1/2| up to {worst:.3e} > x={x:.3e}")
    d2 = s.scaled_sqdist[0]
    slack = max(tol.dist_tol, 1e-15)
    others = [i for i in range(s.n) if i != anchor_index]
    kept = [i for i in others if abs(d2[anchor_index, i] - 1.0) > slack]
    for a in range(len(kept)):
        for b in range(a + 1, len(kept)):
            if abs(d2[kept[a], kept[b]] - 1.0) > slack:
                raise ValueError(
                    "points away from the anchor are not pairwise at unit distance "
                    f"(pair {kept[a]}, {kept[b]})"
                )
    lhs = abs(math.fsum(d2[anchor_index, i] - 1.0 for i in kept))
    rhs = math.sqrt(s.dim) + s.dim * math.sqrt(x) + s.dim * x
    return lhs, rhs, lhs / rhs, len(kept), len(others) - len(kept)


def outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except ValueError as e:
        return "error", str(e)


# ------------------------------------------------------- hypothesis inputs

# float tolerances at or above the old floor of 1e-15, where the old and
# the new unit rules agree
tolerances = st.sampled_from([1e-15, 1e-12, 1e-9]).map(Tolerance)
# a wobble of each coordinate, inside or outside those tolerances
wobbles = st.sampled_from([0.0, 1e-13, 3e-10, 1e-6])


@st.composite
def cube_sets(draw, offset):
    """Vertices of the unit cube in R^d shifted by offset, each coordinate
    wobbled by -w, 0 or w: squared distances near 1, ..., d."""
    d = draw(st.integers(1, 4))
    n = draw(st.integers(1, 7))
    rows = draw(st.lists(st.lists(st.integers(0, 1), min_size=d, max_size=d),
                         min_size=n, max_size=n))
    w = draw(wobbles)
    signs = draw(st.lists(st.lists(st.integers(-1, 1), min_size=d, max_size=d),
                          min_size=n, max_size=n))
    x = np.array(rows, dtype=float) + offset + w * np.array(signs, dtype=float)
    return PointSet.from_array(x)


@settings(max_examples=300, deadline=None, database=None)
@given(s=cube_sets(0.0), tol=tolerances,
       a=st.sampled_from([math.sqrt(2.0), math.sqrt(3.0), 1.5, math.sqrt(2.0) + 1e-10, 0.9]))
def test_two_distance_matches_the_pair_loop(s, tol, a):
    want = outcome(two_distance_oracle, s, a, tol)
    got = outcome(aeq.two_distance_to_graph, s, a, tol)
    if want[0] == "ok":
        assert got == ("ok", want[1])
    else:
        assert got == want


@settings(max_examples=300, deadline=None, database=None)
@given(s=cube_sets(-0.5), tol=tolerances, data=st.data(),
       x=st.sampled_from([0.0, 0.01, 0.5, 2.0, 10.0]))
def test_anchor_matches_the_pair_loop(s, tol, data, x):
    anchor = data.draw(st.integers(0, s.n))  # s.n itself is out of range
    want = outcome(anchor_oracle, s, anchor, x, tol)
    got = outcome(aeq.anchor_defect_ratio, s, anchor, x, tol)
    if want[0] == "ok":
        rep = got[1]
        assert (rep.lhs, rep.rhs_scale, rep.ratio, rep.kept, rep.discarded) == want[1]
    else:
        assert got == want


graphs = st.integers(0, 12).flatmap(lambda n: st.builds(
    Graph.from_edges, st.just(n),
    st.lists(st.tuples(st.integers(0, max(n - 1, 0)), st.integers(0, max(n - 1, 0)))
             .filter(lambda e: e[0] != e[1]), max_size=3 * n)))


@settings(max_examples=400, deadline=None, database=None)
@given(g=graphs)
def test_is_triangle_free_matches_its_bitset_loop(g):
    chk = aeq.is_triangle_free(g)
    assert (chk.ok, chk.witness) == triangle_oracle(g)
    assert isinstance(chk, aeq.TripleCheck)


@settings(max_examples=200, deadline=None, database=None)
@given(s=cube_sets(0.0), tol=tolerances)
def test_triple_check_finds_the_triangle_the_graph_loop_finds(s, tol):
    d2 = s.scaled_sqdist[0]
    far = [(i, j) for i in range(s.n) for j in range(i + 1, s.n)
           if abs(d2[i, j] - 1.0) > tol.dist_tol]
    chk = aeq.is_almost_equidistant(s, tol)
    assert (chk.ok, chk.witness) == triangle_oracle(Graph.from_edges(s.n, far))


# ------------------------------------------------------------- the probes


def exact_set(*rows):
    return PointSet.exact_rows([list(r) for r in rows])


DIAMETER_PROBE = ("0", "100000000000000001/100000000000000000")  # 1 + 1e-17
# the error names the exact D / q^2, (1 + 1e-17)^2
EXACT_CAP_MESSAGE = f"squared diameter {Fraction(DIAMETER_PROBE[1]) ** 2} exceeds 1"


def test_exact_diameter_just_past_one_fails_the_cap():
    s = exact_set([0], [Fraction(DIAMETER_PROBE[1])])
    assert aeq.diameter(s) == 1.0  # the float reading cannot see it
    with pytest.raises(ValueError) as err:
        aeq.diameter_bound(1, s)
    assert str(err.value) == EXACT_CAP_MESSAGE
    assert aeq.diameter_bound(1, exact_set([0], [1])).satisfied


def test_exact_diameter_message_never_writes_a_long_fraction():
    # D / q^2 = (2 + 10^-2200)^2 has about 4400 digits above and below its
    # bar, past Python's limit on int strings; the message gives its float
    s = exact_set([0], [Fraction(2 * 10 ** 2200 + 1, 10 ** 2200)])
    with pytest.raises(ValueError) as err:
        aeq.diameter_bound(1, s)
    assert str(err.value) == "squared diameter 4 exceeds 1"


def test_float_diameter_cap_message_keeps_its_text():
    with pytest.raises(ValueError) as err:
        aeq.diameter_bound(1, PointSet.from_array([[0.0], [1.1]]))
    assert str(err.value) == "diameter 1.1 exceeds 1 + dist_tol"


@pytest.mark.parametrize("argv", [
    ["bounds", "--theorem", "diameter", "--dim", "1", "--exact"],
    ["pipeline", "--diameter", "--exact"],
])
def test_exact_diameter_probe_exits_1_on_the_cli(capsys, tmp_path, argv):
    path = tmp_path / "probe.json"
    path.write_text('{"dim": 1, "mode": "exact", "points": [["%s"], ["%s"]]}' % DIAMETER_PROBE)
    assert main([*argv, "--input", str(path)]) == 1
    out = capsys.readouterr().out
    assert '"outcome": "fail"' in out
    assert EXACT_CAP_MESSAGE in out


def test_exact_sphere_probe_is_off_the_sphere():
    # |x|^2 - r^2 = 1e-17 + 1e-34 at r = 0.5, whose square is exact
    s = exact_set([Fraction(1, 2) + Fraction(1, 10 ** 17), 0], [Fraction(-1, 2), 0])
    with pytest.raises(ValueError, match="do not lie on the stated sphere"):
        aeq.sphere_bound(2, 0.5, s)
    with pytest.raises(ValueError, match="do not lie on the stated sphere"):
        aeq.lift_to_halfsphere(s, 0.5)


def test_exact_sphere_defect_is_the_exact_value():
    # r = 0.3 is not a dyadic: r * r rounds, and 4 ulps of it are allowed
    s = exact_set([Fraction(3, 10), 0], [0, Fraction(-3, 10)])
    rep = aeq.sphere_bound(2, 0.3, s)
    assert rep.detail["max_sphere_defect"] == float(abs(Fraction(9, 100) - Fraction(0.3 * 0.3)))
    assert rep.detail["max_sphere_defect"] > 0.0
    assert aeq.sphere_bound(2, 0.5, exact_set([Fraction(1, 2), 0])).detail[
        "max_sphere_defect"] == 0.0


def test_exact_pipeline_probe_leaves_the_critical_ball():
    # a rational point c on the unit circle with c_x just below 1/8; the
    # exact recentred max |x|^2 - 1/2 is +1.56e-15
    t = Fraction(8819171036882, 10 ** 13)
    c = [(1 - t * t) / (1 + t * t), 2 * t / (1 + t * t)]
    s = exact_set([0, 0], [1, 0], c)
    assert aeq.is_almost_equidistant(s).ok
    rep = aeq.general_bound_pipeline(s)
    assert rep.detail["branch"] == "small_ball"
    assert rep.detail["threshold"] is not None and rep.bound == 8


def test_exact_pipeline_on_the_critical_sphere_stays_critical():
    centered = aeq.recenter_to_barycenter(aeq.PointSet.exact_rows(
        [[Fraction(1, 2), Fraction(1, 2)], [Fraction(-1, 2), Fraction(1, 2)],
         [Fraction(1, 2), Fraction(-1, 2)], [Fraction(-1, 2), Fraction(-1, 2)]]))
    assert aeq.general_bound_pipeline(centered).detail["branch"] == "critical_ball"


# --------------------------------------------------- the 4-ulp flag rule


def test_flag_square_is_exact_only_when_the_float_product_is():
    assert flag_square(0.5) == Fraction(1, 4) and isinstance(flag_square(0.5), Fraction)
    assert flag_square(1.5) == Fraction(9, 4)
    assert flag_square(math.sqrt(2.0)) == 2.0000000000000004
    def limit(*args):  # an exact set's limit: band + 4 ulps of a float target
        _, scaled, scale = band_deviation(exact_set([0, 0]), [0], *args)
        return Fraction(scaled, scale)

    tol = Tolerance(1.0, 1.0)  # an exact set reads no float slack
    assert limit(flag_square(0.5), tol, "unit") == 0
    assert limit(Fraction(1, 2), tol, "unit", 0.25) == Fraction(1, 4)
    rounded = 2.0000000000000004
    assert limit(rounded, tol, "sphere") == 4 * Fraction(math.ulp(rounded))


def unit_square():
    return exact_set([0, 0], [1, 0], [1, 1], [0, 1])


def test_two_distance_exact_square_is_within_the_rounding_of_sqrt2():
    a = math.sqrt(2.0)
    # a^2 is 1 ulp off 2 as a float, and not 2 as an exact rational either
    assert a * a == 2.0 + math.ulp(2.0) and Fraction(a) ** 2 != 2
    assert aeq.two_distance_to_graph(unit_square(), a).edges == frozenset({(0, 2), (1, 3)})


def test_two_distance_exact_rejects_a_flag_past_its_rounding():
    a = math.sqrt(2.0)
    for _ in range(3):
        a = math.nextafter(a, 2.0)
    # (a^2 - 2) is now past 4 ulps of a^2
    with pytest.raises(ValueError, match="neither 1 nor a"):
        aeq.two_distance_to_graph(unit_square(), a)
    # an exact flag gets no slack at all
    near = exact_set([0, 0], [1, 0], [Fraction(3, 2) + Fraction(1, 10 ** 20), 0])
    with pytest.raises(ValueError, match="neither 1 nor a"):
        aeq.two_distance_to_graph(near, 1.5)


def test_two_distance_exact_message_writes_a_huge_distance_as_past_the_float_range():
    # D / q^2 = 10^400 has no float: the message says so instead of raising OverflowError
    s = exact_set([0], [10 ** 200])
    with pytest.raises(ValueError, match=r"^pair \(0, 1\) has squared distance past the float"
                                         r" range, neither 1 nor a\^2$"):
        aeq.two_distance_to_graph(s, 2.0)


def test_two_distance_exact_unit_pairs_are_the_triple_checks():
    # (0, 2) is 1e-17 off unit: the triple check counts it non-unit, so
    # it is not skipped as a unit pair
    s = exact_set([0], [1], [Fraction(10 ** 17 + 1, 10 ** 17)])
    with pytest.raises(ValueError, match=r"pair \(0, 2\)"):
        aeq.two_distance_to_graph(s, 1.5)


def test_exact_anchor_reads_the_exact_values(rhombus):
    # recentred rhombus: |x|^2 - 1/2 exactly, no float rounding in lhs
    s = aeq.recenter_to_barycenter(rhombus)
    rep = aeq.anchor_defect_ratio(s, anchor_index=0, x=0.5)
    d2 = aeq.squared_distance_matrix(s)
    want = abs(sum(d2[0][i] - 1 for i in range(1, s.n) if d2[0][i] != 1))
    assert rep.kept == 1 and rep.discarded == 2
    assert rep.lhs == float(want)
    # the norm band compares exactly: x one step below the exact worst fails
    worst = max(abs(sum(c * c for c in p) - Fraction(1, 2)) for p in s.points)
    aeq.anchor_defect_ratio(s, 0, math.nextafter(float(worst), 1.0))
    with pytest.raises(ValueError, match="norm band"):
        aeq.anchor_defect_ratio(s, 0, math.nextafter(float(worst), 0.0))


@pytest.mark.parametrize("where", [(100, 101, 102), (63, 127, 191), (64, 129, 194)])
def test_triple_check_finds_a_triangle_past_the_first_rows(where):
    # a unit simplex and three points at unit distance from all of it,
    # pairwise non-unit, placed at rows `where`: the only triangle
    n = where[-1] + 1
    simplex = aeq.construct_simplex(n - 3, n - 4).array
    h = math.sqrt(1.0 - float(np.einsum("i,i->", simplex[0], simplex[0])))
    x = np.zeros((n, n - 2))
    x[:n - 3, :n - 4] = simplex
    x[n - 3:, n - 4:] = [[h * math.cos(t), h * math.sin(t)] for t in (0.0, 2.1, 4.2)]
    order = list(range(n - 3))
    for row, apex in zip(where, range(n - 3, n)):
        order.insert(row, apex)
    s = PointSet.from_array(x[order])
    d2 = s.scaled_sqdist[0]
    far = [(i, j) for i in range(n) for j in range(i + 1, n) if abs(d2[i, j] - 1.0) > 1e-9]
    chk = aeq.is_almost_equidistant(s)
    assert (chk.ok, chk.witness) == triangle_oracle(Graph.from_edges(n, far))
    assert chk.witness == where
