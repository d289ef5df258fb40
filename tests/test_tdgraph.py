import math
import re
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import aeq
from aeq import Graph, PointSet, Tolerance
from aeq.charpoly import charpoly_stack
from aeq.tdgraph import EXACT_RANK_LIMIT
from test_charpoly import eigen_multiplicities_exact


def cycle(n):
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def path(n):
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def test_graph_rejects_self_loop():
    with pytest.raises(ValueError, match="self loops"):
        Graph(2, frozenset({(0, 0)}))


def test_graph_rejects_out_of_range_edge():
    with pytest.raises(ValueError, match="out of range"):
        Graph.from_edges(2, [(0, 2)])


def test_graph_normalizes_edge_order():
    g = Graph.from_edges(3, [(2, 0)])
    assert (0, 2) in g.edges


def test_triangle_free_k3():
    chk = aeq.is_triangle_free(Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)]))
    assert not chk.ok
    assert chk.witness == (0, 1, 2)


def test_triangle_free_c5():
    chk = aeq.is_triangle_free(cycle(5))
    assert chk.ok and chk.witness is None


def test_two_distance_square():
    # unit square: sides 1, diagonals sqrt(2); far graph is the two diagonals
    square = PointSet.from_array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    g = aeq.two_distance_to_graph(square, math.sqrt(2.0))
    assert g.edges == frozenset({(0, 2), (1, 3)})


def test_two_distance_wrong_second_distance():
    square = PointSet.from_array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    with pytest.raises(ValueError, match="neither 1 nor"):
        aeq.two_distance_to_graph(square, 1.7)
    with pytest.raises(ValueError, match="exceed 1"):
        aeq.two_distance_to_graph(square, 0.9)


def test_two_distance_rejects_far_triangle():
    # 3 collinear points pairwise at distance 2: not almost equidistant
    s = PointSet.from_array([[0.0], [2.0], [4.0]])
    with pytest.raises(ValueError, match="witness"):
        aeq.two_distance_to_graph(s, 2.0)


def test_two_distance_exact_square():
    square = PointSet(
        dim=2,
        points=(
            (Fraction(0), Fraction(0)),
            (Fraction(1), Fraction(0)),
            (Fraction(1), Fraction(1)),
            (Fraction(0), Fraction(1)),
        ),
        mode="exact",
    )
    g = aeq.two_distance_to_graph(square, math.sqrt(2.0))
    assert g.edges == frozenset({(0, 2), (1, 3)})


def test_lambda2_rank_c5_float():
    rec = aeq.lambda2_rank(cycle(5))
    assert abs(rec.lambda2 - 0.6180339887498949) <= 1e-8
    assert rec.multiplicity == 2
    assert rec.rank == 3
    assert rec.lambda2_positive


def test_lambda2_rank_c5_exact():
    rec = aeq.lambda2_rank(cycle(5), exact=True)
    assert abs(rec.lambda2 - 2.0 * math.cos(2.0 * math.pi / 5.0)) <= 1e-12
    assert rec.multiplicity == 2
    assert rec.rank == 3


def test_lambda2_rank_p4():
    rec = aeq.lambda2_rank(path(4), exact=True)
    # same golden-ratio value as C5 but simple here
    assert abs(rec.lambda2 - 0.6180339887498949) <= 1e-9
    assert rec.multiplicity == 1
    assert rec.rank == 3


def test_lambda2_rank_two_disjoint_edges():
    g = Graph.from_edges(4, [(0, 1), (2, 3)])
    rec = aeq.lambda2_rank(g, exact=True)
    assert rec.lambda2 == pytest.approx(1.0)
    assert rec.multiplicity == 2
    assert rec.rank == 2


def test_lambda2_rank_single_edge_negative():
    rec = aeq.lambda2_rank(Graph.from_edges(2, [(0, 1)]))
    assert rec.lambda2 == pytest.approx(-1.0)
    assert not rec.lambda2_positive


def test_lambda2_rank_validation():
    with pytest.raises(ValueError, match="at least 2"):
        aeq.lambda2_rank(Graph.from_edges(1, []))
    with pytest.raises(ValueError, match="exact mode"):
        aeq.lambda2_rank(cycle(13), exact=True)


def test_exact_matches_float_on_small_corpus(corpus):
    for g in corpus:
        if not (2 <= g.n <= 8):
            continue
        if not aeq.is_triangle_free(g).ok:
            continue
        a = aeq.lambda2_rank(g)
        b = aeq.lambda2_rank(g, exact=True)
        assert a.multiplicity == b.multiplicity, g
        assert a.rank == b.rank
        assert abs(a.lambda2 - b.lambda2) <= 1e-8


def test_corpus_counts(corpus):
    counts = Counter(g.n for g in corpus)
    assert counts == {1: 1, 2: 2, 3: 3, 4: 7, 5: 14, 6: 38, 7: 107, 8: 410}


def test_min_rank_scan_frozen_table(corpus):
    want_rank = {2: None, 3: None, 4: 2, 5: 3, 6: 3, 7: 4, 8: 4}
    want_argmin_count = {4: 1, 5: 2, 6: 1, 7: 1, 8: 1}
    for n, want in want_rank.items():
        graphs = [g for g in corpus if g.n == n]
        scan = aeq.min_rank_scan(n, graphs)
        assert scan.min_rank == want, n
        if want is not None:
            assert len(scan.argmin) == want_argmin_count[n]
            for idx in scan.argmin:
                assert scan.records[idx].rank == want
        assert len(scan.records) == len(graphs)


def test_min_rank_scan_exact_agrees(corpus):
    for n in (4, 5, 6):
        graphs = [g for g in corpus if g.n == n]
        a = aeq.min_rank_scan(n, graphs)
        b = aeq.min_rank_scan(n, graphs, exact=True)
        assert a.min_rank == b.min_rank
        assert a.argmin == b.argmin


def test_min_rank_scan_rejects_mixed_sizes():
    with pytest.raises(ValueError, match="expected 5"):
        aeq.min_rank_scan(5, [cycle(5), cycle(4)])


def test_min_rank_scan_rejects_triangles():
    with pytest.raises(ValueError, match="triangle"):
        aeq.min_rank_scan(3, [Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])])


def test_parse_graph_line_roundtrip():
    g = aeq.parse_graph_line("5 5 0 1 1 2 2 3 3 4 4 0")
    assert g == cycle(5)


def test_parse_graph_line_malformed():
    with pytest.raises(ValueError, match="malformed"):
        aeq.parse_graph_line("3")
    with pytest.raises(ValueError, match="declares"):
        aeq.parse_graph_line("3 2 0 1")
    # every message whole
    for line, message in (("3 1 0 1 2", "graph line carries an odd number of endpoints, 3"),
                          ("3 -1", "graph line declares a negative edge count, -1"),
                          ("3 2 0 1", "graph line declares 2 edges but carries 1")):
        with pytest.raises(ValueError) as err:
            aeq.parse_graph_line(line)
        assert str(err.value) == message, line


def test_negative_vertex_count_is_rejected():
    with pytest.raises(ValueError) as err:
        aeq.parse_graph_line("-3 0")
    assert str(err.value) == "graph declares a negative vertex count, -3"
    with pytest.raises(ValueError, match="^graph declares a negative vertex count, -1$"):
        Graph(n=-1, edges=frozenset())
    assert aeq.parse_graph_line("0 0").n == 0


def test_read_graph_file_names_the_line_of_a_fault(tmp_path):
    p = tmp_path / "graphs.txt"
    p.write_text("# header\n\n3 1 0 1\n  \n3 1 0 y\n")
    with pytest.raises(ValueError, match=r"^line 5: invalid literal for int\(\)"):
        aeq.read_graph_file(p)


def test_read_graph_file_skips_comments(tmp_path):
    p = tmp_path / "graphs.txt"
    p.write_text("# header\n\n3 1 0 1\n  \n2 0\n")
    gs = aeq.read_graph_file(p)
    assert [g.n for g in gs] == [3, 2]
    assert gs[0].edges == frozenset({(0, 1)})


def _oracle_row(g):
    """(multiplicity, rank, positive) from Yun's factors and np.roots, the
    exact path this scan replaced."""
    roots = eigen_multiplicities_exact(g.adjacency().tolist())
    lam2, mult = [(v, m) for v, m in roots for _ in range(m)][1]
    return mult, g.n - mult, lam2 > Tolerance().eig_tol


def _assert_scan_matches_oracles(n, graphs):
    exact = aeq.min_rank_scan(n, graphs, exact=True)
    plain = aeq.min_rank_scan(n, graphs)
    stack = np.array([g.adjacency() for g in graphs])
    assert charpoly_stack(stack) == [aeq.charpoly_int(a.tolist()) for a in stack]
    assert np.array_equal(np.linalg.eigvalsh(stack),
                          [np.linalg.eigvalsh(g.adjacency()) for g in graphs])
    for g, rec, flt in zip(graphs, exact.records, plain.records):
        assert (rec.multiplicity, rec.rank, rec.lambda2_positive) == _oracle_row(g), g
        assert rec.lambda2 == flt.lambda2  # the eigvalsh value in both modes
    assert exact.records[-1] == aeq.lambda2_rank(graphs[-1], exact=True)


def test_scan_matches_oracles_on_corpus_at_every_n(corpus):
    for n in sorted({g.n for g in corpus} - {1}):
        _assert_scan_matches_oracles(n, [g for g in corpus if g.n == n])


@st.composite
def triangle_free_graphs(draw, n):
    """A random edge list, keeping each edge that closes no triangle."""
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                          max_size=3 * n))
    nbrs = [set() for _ in range(n)]
    for u, v in pairs:
        if u != v and not nbrs[u] & nbrs[v]:
            nbrs[u].add(v)
            nbrs[v].add(u)
    return Graph.from_edges(n, [(u, v) for u in range(n) for v in nbrs[u] if u < v])


@settings(max_examples=40, deadline=None, database=None)
@given(data=st.data(), n=st.integers(2, EXACT_RANK_LIMIT))
def test_scan_matches_oracles_on_random_triangle_free_graphs(data, n):
    graphs = data.draw(st.lists(triangle_free_graphs(n), min_size=1, max_size=6))
    _assert_scan_matches_oracles(n, graphs)


def test_scan_reports_n_first_then_graphs_in_stream_order():
    k3 = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
    cases = [
        ((1, [cycle(4)]), {}, "need at least 2 vertices for a second eigenvalue"),
        ((13, [k3]), {"exact": True}, "exact mode supports at most 12 vertices"),
        ((5, [cycle(5), cycle(4), k3]), {}, "graph 1 has 4 vertices, expected 5"),
        ((3, [path(3), k3, cycle(4)]), {"exact": True}, "graph 1 contains triangle (0, 1, 2)"),
    ]
    for args, kwargs, message in cases:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            aeq.min_rank_scan(*args, **kwargs)
