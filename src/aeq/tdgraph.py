"""Two-distance sets as triangle-free graphs, and second-eigenvalue ranks.

An almost-equidistant set whose distances take only the values 1 and a > 1
turns into a graph with an edge per far pair; the triple condition makes
that graph triangle free. The rank of interest is n minus the multiplicity
of the second largest adjacency eigenvalue, tracked only when that
eigenvalue is positive.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from operator import eq
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .charpoly import charpoly_stack, lambda2_counts_stack
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
        if self.n < 0:
            raise ValueError(f"graph declares a negative vertex count, {self.n}")
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
        return cls(n=n, edges=frozenset(map(tuple, edges)))

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


def graph_lines(path) -> Iterator[Tuple[int, List[int]]]:
    """(n, endpoints u1 v1 u2 v2 ...) of each graph line of a file, in file
    order; blank and # comment lines are skipped but counted.

    A line passes when its n and edge count m are at least 0, it carries
    2m endpoints, each in [0, n), and no edge is a self loop. Any other line,
    or one whose check raises, goes to ``parse_graph_line``, the one source
    of fault messages, and its fault raises "line N: <fault>"; its reading
    stands."""
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            try:
                n, m, *ends = map(int, line.split())
                pairs = iter(ends)
                ok = (n >= 0 and len(ends) == 2 * m
                      and (not ends or (min(ends) >= 0 and max(ends) < n))
                      and not any(map(eq, pairs, pairs)))
            except ValueError:  # a token int() does not read, or fewer than two
                ok = False
            if not ok:
                try:
                    g = parse_graph_line(line)
                except ValueError as e:
                    raise ValueError(f"line {lineno}: {e}") from None
                n, ends = g.n, _endpoints(g)
            yield n, ends


def _endpoints(g: Graph) -> List[int]:
    return list(chain.from_iterable(g.edges))


def adjacency_stack(n: int, ends: Sequence[Sequence[int]]) -> np.ndarray:
    """The int64 adjacency stack (G, n, n) of G graphs on n vertices, each
    given by its endpoints u1 v1 u2 v2 ..., all in [0, n); an edge may come
    in either order and more than once."""
    sizes = np.fromiter(map(len, ends), dtype=np.intp, count=len(ends))
    flat = np.fromiter(chain.from_iterable(ends), dtype=np.intp, count=int(sizes.sum()))
    g = np.repeat(np.arange(len(ends)), sizes // 2)
    u, v = flat[0::2], flat[1::2]
    stack = np.zeros((len(ends), n, n), dtype=np.int64)
    stack[g, u, v] = stack[g, v, u] = 1
    return stack


def reject_triangles(stack: np.ndarray) -> None:
    """Raises on the first graph of an adjacency stack (G, n, n) that holds a
    triangle, naming its index and triangle."""
    has_triangle = triangle_pairs(stack > 0).any(axis=(1, 2))
    if has_triangle.any():
        idx = int(has_triangle.argmax())
        raise ValueError(f"graph {idx} contains triangle {first_triangle(stack[idx] > 0).witness}")


def rank_stack(stack: np.ndarray, tol: Optional[Tolerance],
               exact: bool) -> Tuple[List[float], List[Tuple[bool, int]]]:
    """lambda2, and (lambda2 > 0, multiplicity of lambda2), of each graph of
    an adjacency stack (G, n, n), from one pass over it: one ``eigvalsh``
    for lambda2, then float clustering within eig_tol or exact root counts
    on the stacked characteristic polynomials (``charpoly.lambda2_counts_stack``,
    once per distinct polynomial, with the hint of its first graph)."""
    eig_tol = _resolve_tol(None, tol).slack("solver")
    vals = np.linalg.eigvalsh(stack)
    lam2 = vals[:, -2]
    if exact:
        keys = [tuple(p) for p in charpoly_stack(stack)]
        first: dict = {}  # cospectral graphs share one count
        for i, key in enumerate(keys):
            first.setdefault(key, i)
        hints = lam2[list(first.values())].tolist()
        done = dict(zip(first, lambda2_counts_stack(list(first), hints)))
        counts = [done[key] for key in keys]
    else:
        mult = np.sum(np.abs(vals - lam2[:, None]) <= eig_tol, axis=1).tolist()
        counts = list(zip((lam2 > eig_tol).tolist(), mult))
    return lam2.tolist(), counts


def min_rank(n: int, counts: Sequence[Tuple[bool, int]]) -> Tuple[Optional[int], Tuple[int, ...]]:
    """The least rank n - multiplicity over the graphs with lambda2 > 0, and
    the indices of the graphs that reach it; (None, ()) when none has."""
    ranked = [(n - mult, idx) for idx, (positive, mult) in enumerate(counts) if positive]
    best = min(ranked)[0] if ranked else None
    return best, tuple(idx for rank, idx in ranked if rank == best)


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
    (lam2,), ((positive, mult),) = rank_stack(adjacency_stack(g.n, [_endpoints(g)]), tol, exact)
    return GraphRankRecord(graph=g, lambda2=lam2, multiplicity=mult, rank=g.n - mult,
                           lambda2_positive=positive)


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
    stack = adjacency_stack(n, [_endpoints(g) for g in graphs[:m]])
    reject_triangles(stack)  # only the graphs before the first of the wrong size
    if m < len(graphs):
        raise ValueError(f"graph {m} has {graphs[m].n} vertices, expected {n}")
    lam2, counts = rank_stack(stack, tol, exact)
    records = tuple(
        GraphRankRecord(graph=g, lambda2=l2, multiplicity=mult, rank=n - mult,
                        lambda2_positive=positive)
        for g, l2, (positive, mult) in zip(graphs, lam2, counts)
    )
    return ScanResult(*min_rank(n, counts), records=records)


def parse_graph_line(line: str) -> Graph:
    """One graph per line: n m u1 v1 u2 v2 ... (whitespace separated)."""
    parts = line.split()
    if len(parts) < 2:
        raise ValueError(f"malformed graph line: {line!r}")
    n, m, *ends = map(int, parts)
    if m < 0:
        raise ValueError(f"graph line declares a negative edge count, {m}")
    if len(ends) % 2:
        raise ValueError(f"graph line carries an odd number of endpoints, {len(ends)}")
    if len(ends) != 2 * m:
        raise ValueError(f"graph line declares {m} edges but carries {len(ends) // 2}")
    it = iter(ends)
    return Graph.from_edges(n, zip(it, it))


def read_graph_file(path) -> List[Graph]:
    """The graphs of a file, one per line, as ``graph_lines`` reads them."""
    return [Graph.from_edges(n, zip(ends[::2], ends[1::2])) for n, ends in graph_lines(path)]
