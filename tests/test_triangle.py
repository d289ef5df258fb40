"""The one triangle test, over boolean matrices, against the bitset finder.

``geometry.first_triangle`` tests rows i and j of a boolean matrix through
one float32 product. The finder it replaced, Python-int row masks walked
edge by edge in 64-row blocks, is kept here as the oracle. ``min_rank_scan``
runs the same test over its whole adjacency stack.
"""
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import aeq
from aeq import Graph, tdgraph
from aeq.geometry import first_triangle, nonunit_mask, triangle_pairs

DATA = Path(__file__).parent / "data" / "triangle_free_upto8.txt"

# ------------------------------------------------------------------ oracle


def bitset_masks(adj):
    """Row v of a boolean matrix as a Python int: bit k set iff adj[v, k]."""
    return [int.from_bytes(np.packbits(row, bitorder="little").tobytes(), "little")
            for row in adj]


def bitset_edges(adj):
    """The pairs (i, j), i < j, with adj[i, j] set, in row order, 64 rows at a time."""
    upper = np.triu(adj, 1)
    for b in range(0, len(adj), 64):
        yield from zip(*(np.nonzero(upper[b:b + 64]) + np.array([[b], [0]])).tolist())


def bitset_first_triangle(masks, edges):
    """The first edge (i, j) whose ends share a neighbour, and the lowest such
    k, as a sorted triple; bit k of masks[v] is set iff v ~ k."""
    for i, j in edges:
        common = masks[i] & masks[j]
        if common:
            k = (common & -common).bit_length() - 1
            return False, tuple(sorted((i, j, k)))
    return True, None


def oracle(adj):
    return bitset_first_triangle(bitset_masks(adj), bitset_edges(adj))


def assert_matches_oracle(adj):
    chk = first_triangle(adj)
    assert isinstance(chk, aeq.TripleCheck)
    assert (chk.ok, chk.witness) == oracle(adj)
    assert chk.witness is None or all(type(v) is int for v in chk.witness)


# ----------------------------------------------------------- the finder


@st.composite
def boolean_matrices(draw):
    """Random boolean (n, n), 0 <= n <= 150: dense, sparse or bipartite (so
    triangle free when symmetric), symmetric or not, with or without a
    diagonal, and at times one extra pair that may close a late triangle."""
    n = draw(st.integers(0, 150))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(("dense", "sparse", "bipartite")))
    if kind == "bipartite":
        side = rng.random(n) < 0.5
        adj = (side[:, None] != side[None, :]) & (rng.random((n, n)) < 0.9)
    else:
        p = 0.5 if kind == "dense" else draw(st.sampled_from((0.0, 0.3, 1.0, 2.0))) / max(n, 1)
        adj = rng.random((n, n)) < p
    if draw(st.booleans()):
        adj = np.triu(adj, 1)
        adj |= adj.T
    if n and draw(st.booleans()):
        i, j = rng.integers(0, n, 2)
        adj[i, j] = adj[j, i] = True
    if not draw(st.booleans()):
        np.fill_diagonal(adj, False)
    return adj


@settings(max_examples=300, deadline=None, database=None)
@given(adj=boolean_matrices())
def test_first_triangle_matches_the_bitset_finder(adj):
    assert_matches_oracle(adj)


def test_first_triangle_on_block_edges():
    # the first triangle in row 64, the start of the bitset finder's second block
    for n in (65, 128, 129, 150):
        adj = np.zeros((n, n), dtype=bool)
        for i, j in ((64, n - 1), (64, 0), (0, n - 1)):
            adj[i, j] = adj[j, i] = True
        assert_matches_oracle(adj)
        assert first_triangle(adj).witness == (0, 64, n - 1)


def test_first_triangle_reads_pairs_above_the_diagonal_only():
    adj = np.zeros((3, 3), dtype=bool)
    adj[1, 0] = adj[0, 2] = adj[1, 2] = True  # rows 0 and 1 share column 2
    assert first_triangle(adj) == aeq.TripleCheck(True, None)  # but (0, 1) is set below only
    assert_matches_oracle(adj)
    adj[0, 1] = True
    assert first_triangle(adj) == aeq.TripleCheck(False, (0, 1, 2))
    assert_matches_oracle(adj)
    assert first_triangle(np.zeros((0, 0), dtype=bool)) == aeq.TripleCheck(True, None)


def test_first_triangle_matches_on_the_graph_file():
    graphs = aeq.read_graph_file(DATA)
    for g in graphs:
        adj = g.adjacency() > 0
        assert_matches_oracle(adj)
        assert first_triangle(adj).ok
        for u, v in ((0, g.n - 1), (1, g.n - 2)):  # one more edge may close a triangle
            if 0 <= v < g.n and u != v:
                more = adj.copy()
                more[u, v] = more[v, u] = True
                assert_matches_oracle(more)


@pytest.mark.parametrize("kind, dim", [("two_simplices", 500), ("two_simplices", 5),
                                       ("rosenfeld", 6), ("simplex", 8)])
def test_triple_check_matches_on_the_families(kind, dim):
    s = aeq.construct(kind, dim)
    for spread in (0.0, 0.3):  # pulled off the sphere, the sets lose their unit pairs
        t = aeq.PointSet.from_array(s.array * (1 + spread * np.arange(s.n)[:, None] / s.n))
        chk = aeq.is_almost_equidistant(t)
        mask = nonunit_mask(t, aeq.Tolerance()) if chk.ok else None
        d2 = t.scaled_sqdist[0]
        nonunit = np.abs(d2 - 1.0) > aeq.Tolerance().dist_tol
        np.fill_diagonal(nonunit, False)
        assert (chk.ok, chk.witness) == oracle(nonunit)
        assert mask is None or np.array_equal(mask, nonunit)


def test_stacked_test_equals_each_slice():
    rng = np.random.default_rng(5)
    stack = rng.random((40, 9, 9)) < 0.25
    stack |= stack.swapaxes(1, 2)
    pairs = triangle_pairs(stack)
    for adj, p in zip(stack, pairs):
        assert np.array_equal(p, triangle_pairs(adj))
        assert p.any() == (not oracle(adj)[0])


# --------------------------------------------------------------- the scan


def cycle(n):
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


TRIANGLE = Graph.from_edges(5, [(0, 1), (1, 3), (3, 4), (1, 4)])  # first triangle (1, 3, 4)
SMALL = cycle(4)


@pytest.mark.parametrize("exact", [False, True])
@pytest.mark.parametrize("faults, message", [
    ({0: TRIANGLE}, "graph 0 contains triangle (1, 3, 4)"),
    ({3: TRIANGLE}, "graph 3 contains triangle (1, 3, 4)"),
    ({6: TRIANGLE}, "graph 6 contains triangle (1, 3, 4)"),
    ({0: SMALL}, "graph 0 has 4 vertices, expected 5"),
    ({3: SMALL}, "graph 3 has 4 vertices, expected 5"),
    ({6: SMALL}, "graph 6 has 4 vertices, expected 5"),
    ({2: TRIANGLE, 4: SMALL}, "graph 2 contains triangle (1, 3, 4)"),
    ({2: SMALL, 4: TRIANGLE}, "graph 2 has 4 vertices, expected 5"),
    ({0: SMALL, 6: TRIANGLE}, "graph 0 has 4 vertices, expected 5"),
    ({5: TRIANGLE, 6: TRIANGLE}, "graph 5 contains triangle (1, 3, 4)"),
])
def test_scan_reports_the_first_bad_graph_in_stream_order(faults, message, exact):
    graphs = [faults.get(i, cycle(5)) for i in range(7)]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        aeq.min_rank_scan(5, graphs, exact=exact)


def test_scan_builds_each_adjacency_once(monkeypatch):
    graphs = [g for g in aeq.read_graph_file(DATA) if g.n == 7]
    want = aeq.min_rank_scan(7, graphs)
    calls = []
    adjacency, stack = Graph.adjacency, tdgraph.adjacency_stack
    monkeypatch.setattr(Graph, "adjacency", lambda g: calls.append(g) or adjacency(g))
    monkeypatch.setattr(tdgraph, "adjacency_stack",
                        lambda n, ends: calls.append(len(ends)) or stack(n, ends))
    assert aeq.min_rank_scan(7, graphs) == want
    assert calls == [len(graphs)]  # one stack of every graph, no adjacency() of one
