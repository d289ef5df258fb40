"""Two-distance sets as triangle-free graphs, and second-eigenvalue ranks.

An almost-equidistant set whose distances take only the values 1 and a > 1
turns into a graph with an edge per far pair; the triple condition makes
that graph triangle free. The rank of interest is n minus the multiplicity
of the second largest adjacency eigenvalue, tracked only when that
eigenvalue is positive.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .charpoly import charpoly_stack, lambda2_counts
from .geometry import (
    PointSet,
    Tolerance,
    TripleCheck,
    _resolve_tol,
    band_deviation,
    first_triangle,
    flag_square,
    nonunit_mask,
    triangle_pairs,
)

EXACT_RANK_LIMIT = 12


@dataclass(frozen=True)
class Graph:
    n: int
    edges: frozenset  # of (u, v) tuples with u < v

    def __post_init__(self) -> None:
        norm = set()
        for e in self.edges:
            u, v = e
            if u == v:
                raise ValueError("self loops are not allowed")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"edge {e} out of range for {self.n} vertices")
            norm.add((min(u, v), max(u, v)))
        object.__setattr__(self, "edges", frozenset(norm))

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[Tuple[int, int]]) -> "Graph":
        return cls(n=n, edges=frozenset((min(u, v), max(u, v)) for u, v in edges))

    def adjacency(self) -> np.ndarray:
        a = np.zeros((self.n, self.n), dtype=np.int64)
        for u, v in self.edges:
            a[u, v] = a[v, u] = 1
        return a


def is_triangle_free(g: Graph) -> TripleCheck:
    return first_triangle(g.adjacency() > 0)


def two_distance_to_graph(s: PointSet, a: float, tol: Optional[Tolerance] = None) -> Graph:
    """Graph of far pairs of a two-distance almost-equidistant set.

    Distances must all be 1 or a (a > 1) at tolerance; far pairs become
    edges. The unit pairs are those of the triple check, so the far-pair
    graph is its non-unit graph, already proved triangle free.
    """
    tol = _resolve_tol(s, tol)
    if not a > 1:
        raise ValueError("second distance must exceed 1")
    i, j = np.nonzero(np.triu(nonunit_mask(s, tol)))
    d2, q2 = s.scaled_sqdist
    v = d2[i, j]
    dev, limit, _ = band_deviation(s, v, flag_square(a), tol, "sphere", 0, max(1.0, a * a))
    off = np.flatnonzero(np.abs(dev) > limit)
    if len(off):
        k = off[0]
        raise ValueError(
            f"pair ({i[k]}, {j[k]}) has squared distance {v[k] / q2:.12g}, neither 1 nor a^2"
        )
    return Graph.from_edges(s.n, zip(i.tolist(), j.tolist()))


@dataclass(frozen=True)
class GraphRankRecord:
    graph: Graph
    lambda2: float
    multiplicity: int
    rank: int  # n - multiplicity
    lambda2_positive: bool


def check_rank_size(n: int, exact: bool) -> None:
    """Rejects a vertex count with no second eigenvalue, or beyond the
    exact path's limit."""
    if n < 2:
        raise ValueError("need at least 2 vertices for a second eigenvalue")
    if exact and n > EXACT_RANK_LIMIT:
        raise ValueError(f"exact mode supports at most {EXACT_RANK_LIMIT} vertices")


def _rank_records(graphs: Sequence[Graph], stack: np.ndarray, tol: Optional[Tolerance],
                  exact: bool) -> List[GraphRankRecord]:
    """The records of graphs from one pass over their adjacency stack
    (G, n, n): one ``eigvalsh`` for lambda2, then float clustering within
    eig_tol or exact root counts on the stacked characteristic polynomials
    (``charpoly.lambda2_counts``, once per distinct polynomial)."""
    eig_tol = _resolve_tol(None, tol).slack("solver")
    vals = np.linalg.eigvalsh(stack)
    lam2 = vals[:, -2]
    if exact:
        seen: dict = {}  # cospectral graphs share one count
        counts = []
        for p, hint in zip(charpoly_stack(stack), lam2):
            key = tuple(p)
            if key not in seen:
                seen[key] = lambda2_counts(p, hint)
            counts.append(seen[key])
    else:
        mult = np.sum(np.abs(vals - lam2[:, None]) <= eig_tol, axis=1).tolist()
        counts = list(zip((lam2 > eig_tol).tolist(), mult))
    return [
        GraphRankRecord(graph=g, lambda2=l2, multiplicity=m, rank=g.n - m, lambda2_positive=pos)
        for g, l2, (pos, m) in zip(graphs, lam2.tolist(), counts)
    ]


def lambda2_rank(g: Graph, tol: Optional[Tolerance] = None, exact: bool = False) -> GraphRankRecord:
    """Second largest adjacency eigenvalue, its multiplicity, and the rank
    of A - lambda2 I: the one-graph case of ``min_rank_scan``, without its
    triangle check.

    The float path clusters eigenvalues within eig_tol; with exact=True
    (n <= 12) the multiplicity and the sign of lambda2 are exact root counts
    on the characteristic polynomial, and eig_tol is not read. lambda2 is
    the ``eigvalsh`` value in both modes.
    """
    check_rank_size(g.n, exact)
    return _rank_records([g], g.adjacency()[None], tol, exact)[0]


@dataclass(frozen=True)
class ScanResult:
    min_rank: Optional[int]
    argmin: Tuple[int, ...]  # indices into the input stream
    records: Tuple[GraphRankRecord, ...]  # one per graph, in stream order


def min_rank_scan(
    n: int,
    graphs: Sequence[Graph],
    tol: Optional[Tolerance] = None,
    exact: bool = False,
) -> ScanResult:
    """Minimum rank over triangle-free graphs on n vertices with a positive
    second eigenvalue. Rejects an n out of range first, then wrong sizes and
    non-triangle-free inputs by stream index; graphs with lambda2 <= 0 are
    recorded but not ranked. The triangle test and the ranks share one stack."""
    check_rank_size(n, exact)
    m = next((idx for idx, g in enumerate(graphs) if g.n != n), len(graphs))
    stack = np.array([g.adjacency() for g in graphs[:m]], dtype=np.int64).reshape(m, n, n)
    has_triangle = triangle_pairs(stack > 0).any(axis=(1, 2))
    if has_triangle.any():  # only the graphs before the first of the wrong size
        idx = int(has_triangle.argmax())
        raise ValueError(f"graph {idx} contains triangle {first_triangle(stack[idx] > 0).witness}")
    if m < len(graphs):
        raise ValueError(f"graph {m} has {graphs[m].n} vertices, expected {n}")
    records = _rank_records(graphs, stack, tol, exact)
    ranked = [(rec.rank, idx) for idx, rec in enumerate(records) if rec.lambda2_positive]
    best = min(ranked)[0] if ranked else None
    argmin = tuple(idx for rank, idx in ranked if rank == best)
    return ScanResult(min_rank=best, argmin=argmin, records=tuple(records))


def parse_graph_line(line: str) -> Graph:
    """One graph per line: n m u1 v1 u2 v2 ... (whitespace separated)."""
    parts = line.split()
    if len(parts) < 2:
        raise ValueError(f"malformed graph line: {line!r}")
    n, m = int(parts[0]), int(parts[1])
    if len(parts) != 2 + 2 * m:
        raise ValueError(
            f"graph line declares {m} edges but carries {(len(parts) - 2) // 2}"
        )
    it = iter(parts[2:])
    edges = [(int(u), int(v)) for u, v in zip(it, it)]
    return Graph.from_edges(n, edges)


def read_graph_file(path) -> List[Graph]:
    graphs = []
    with open(path) as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            graphs.append(parse_graph_line(line))
    return graphs
