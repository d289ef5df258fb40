"""``aeq tdrank`` against the per-line walk and per-graph scan it replaced.

The CLI reads its graph file straight into one adjacency stack
(``tdgraph.graph_lines``, ``adjacency_stack``, ``reject_triangles``,
``rank_stack``). The oracle below is the earlier path, kept whole: every
line a ``Graph`` through ``parse_graph_line``, every graph its own
``adjacency()``, every result a ``GraphRankRecord``. On any graph file both
must give the same exit code, stdout and stderr, in JSON and CSV, with and
without ``--exact-rank``. The module takes about 4 s in tier-1, most of it
in the 200 generated files.
"""
import contextlib
import io
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import aeq
from aeq import cli
from aeq.charpoly import charpoly_stack
from aeq.geometry import _resolve_tol, first_triangle, triangle_pairs
from aeq.tdgraph import Graph, GraphRankRecord, ScanResult, check_rank_size, parse_graph_line
from test_charpoly import lambda2_counts_oracle


def oracle_read_graph_file(path):
    graphs = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            try:
                graphs.append(parse_graph_line(line))
            except ValueError as e:
                raise ValueError(f"line {lineno}: {e}") from None
    return graphs


def _oracle_records(graphs, stack, tol, exact):
    eig_tol = _resolve_tol(None, tol).slack("solver")
    vals = np.linalg.eigvalsh(stack)
    lam2 = vals[:, -2]
    if exact:
        seen = {}
        counts = []
        for p, hint in zip(charpoly_stack(stack), lam2):
            key = tuple(p)
            if key not in seen:
                seen[key] = lambda2_counts_oracle(p, hint)
            counts.append(seen[key])
    else:
        mult = np.sum(np.abs(vals - lam2[:, None]) <= eig_tol, axis=1).tolist()
        counts = list(zip((lam2 > eig_tol).tolist(), mult))
    return [
        GraphRankRecord(graph=g, lambda2=l2, multiplicity=m, rank=g.n - m, lambda2_positive=pos)
        for g, l2, (pos, m) in zip(graphs, lam2.tolist(), counts)
    ]


def oracle_min_rank_scan(n, graphs, tol=None, exact=False):
    check_rank_size(n, exact)
    m = next((idx for idx, g in enumerate(graphs) if g.n != n), len(graphs))
    stack = np.array([g.adjacency() for g in graphs[:m]], dtype=np.int64).reshape(m, n, n)
    has_triangle = triangle_pairs(stack > 0).any(axis=(1, 2))
    if has_triangle.any():
        idx = int(has_triangle.argmax())
        raise ValueError(f"graph {idx} contains triangle {first_triangle(stack[idx] > 0).witness}")
    if m < len(graphs):
        raise ValueError(f"graph {m} has {graphs[m].n} vertices, expected {n}")
    records = _oracle_records(graphs, stack, tol, exact)
    ranked = [(rec.rank, idx) for idx, rec in enumerate(records) if rec.lambda2_positive]
    best = min(ranked)[0] if ranked else None
    argmin = tuple(idx for rank, idx in ranked if rank == best)
    return ScanResult(min_rank=best, argmin=argmin, records=tuple(records))


def oracle_cmd_tdrank(args):
    exact = args.exact_rank or args.exact
    try:
        check_rank_size(args.n, exact)
        graphs = oracle_read_graph_file(args.graphs)
    except (OSError, ValueError) as e:
        raise cli.UsageError(str(e)) from e
    graphs = [g for g in graphs if g.n == args.n]
    if not graphs:
        raise cli.UsageError(f"no graphs on {args.n} vertices in {args.graphs}")
    scan = oracle_min_rank_scan(args.n, graphs, cli._float_tolerance(args), exact=exact)
    header = ["index", "lambda2", "multiplicity", "rank", "lambda2_positive"]
    rows = [[idx, rec.lambda2, rec.multiplicity, rec.rank, rec.lambda2_positive]
            for idx, rec in enumerate(scan.records)]
    payload = {
        "n": args.n,
        "min_rank": scan.min_rank,
        "argmin": list(scan.argmin),
        "rows": [dict(zip(header, row)) for row in rows],
    }
    return cli.PASS, payload, (header, rows)


with mock.patch.object(cli, "cmd_tdrank", oracle_cmd_tdrank):
    ORACLE_PARSER = cli.build_parser.__wrapped__()


def run(argv, oracle=False):
    """(exit code, stdout, stderr) of cli.main(argv), or of the oracle's."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.ExitStack() as stack:
        stack.enter_context(contextlib.redirect_stdout(out))
        stack.enter_context(contextlib.redirect_stderr(err))
        if oracle:
            stack.enter_context(mock.patch.object(cli, "build_parser", lambda: ORACLE_PARSER))
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def outcome(fn, *args):
    """fn(*args), or the type and message of what it raised."""
    try:
        return fn(*args)
    except Exception as e:
        return type(e), str(e)


def assert_same_as_oracle(path, n):
    for flags in ([], ["--exact-rank"], ["--format", "csv"], ["--exact-rank", "--format", "csv"]):
        argv = ["tdrank", "--n", str(n), "--graphs", str(path), *flags]
        assert run(argv) == run(argv, oracle=True), argv
    graphs = outcome(aeq.read_graph_file, path)
    assert graphs == outcome(oracle_read_graph_file, path)
    if isinstance(graphs, list) and n >= 2:
        sized = [g for g in graphs if g.n == n]
        for exact in (False, True):
            assert (outcome(aeq.min_rank_scan, n, sized, None, exact)
                    == outcome(oracle_min_rank_scan, n, sized, None, exact))


# token spellings that int() reads as the same value
DIGITS = ("0123456789", "\u0660\u0661\u0662\u0663\u0664\u0665\u0666\u0667\u0668\u0669",
          "\uff10\uff11\uff12\uff13\uff14\uff15\uff16\uff17\uff18\uff19")
# whitespace that str.split splits on and a text file does not end a line at
SEPARATORS = (" ", "  ", "\t", "\x0b", "\x0c", "\xa0", "\u3000")


@st.composite
def spelled(draw, v):
    text = str(v)
    style = draw(st.sampled_from(("plain", "plus", "underscore", "digits")))
    if style == "plus" and v >= 0:
        return "+" + text
    if style == "underscore" and v >= 0:
        return text[0] + "_" + text[1:] if v >= 10 else "0_" + text  # 1_0 reads 10
    if style == "digits":
        return text.translate(str.maketrans("0123456789", draw(st.sampled_from(DIGITS))))
    return text


@st.composite
def spelled_line(draw, values):
    tokens = [draw(spelled(v)) for v in values]
    seps = [draw(st.sampled_from(SEPARATORS)) for _ in tokens[1:]]
    pad = st.sampled_from(("", " ", "\t", "\x0b"))
    return draw(pad) + "".join(t + s for t, s in zip(tokens, seps + [""])) + draw(pad)


@st.composite
def triangle_free_edges(draw, n):
    """Edges of a random triangle-free graph on n vertices, some reversed, some repeated."""
    if n < 2:
        return []
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                          max_size=2 * n))
    nbrs = [set() for _ in range(n)]
    edges = []
    for u, v in pairs:
        if u != v and (v in nbrs[u] or not nbrs[u] & nbrs[v]):
            nbrs[u].add(v)
            nbrs[v].add(u)
            edges.append((u, v))
    return edges


def graph_values(n, edges):
    return [n, len(edges), *(x for e in edges for x in e)]


FAULTS = {  # one line of each fault class, on n vertices
    "negative n": lambda n: [-n, 0],
    "negative m": lambda n: [n, -1],
    "odd endpoint count": lambda n: [n, 1, 0, 1, 1],
    "count mismatch": lambda n: [n, 2, 0, 1],
    "self loop": lambda n: [n, 2, 0, 1, 1, 1],
    "out of range": lambda n: [n, 1, 0, n],
    "negative endpoint": lambda n: [n, 1, -1, 1],
    "triangle": lambda n: [n, 3, 0, 1, 1, 2, 2, 0],
    "too few tokens": lambda n: [n],
}
NON_INTEGER = ("{n} 1 0 x", "{n} 1 0 1.0", "four 0", "{n} 0 #")


@st.composite
def graph_files(draw, n):
    """The bytes of a graph file: graph lines, most on n vertices, blank and
    comment lines, LF and CRLF endings, and at most one faulty line."""
    lines = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(("graph", "graph", "graph", "blank", "comment")))
        if kind == "graph":
            k = draw(st.sampled_from((n, n, n, *range(7), 10)))
            lines.append(draw(spelled_line(graph_values(k, draw(triangle_free_edges(k))))))
        elif kind == "blank":
            lines.append(draw(st.sampled_from(("", " ", "\t", "\x0b"))))
        else:
            lines.append(draw(st.sampled_from(("# n m u1 v1 ...", "  #4 1 0 9", "#"))))
    fault = draw(st.sampled_from((None,) * 6 + ("non-integer", "undecodable", *FAULTS)))
    if fault is not None:
        if fault in FAULTS:
            line = draw(spelled_line(FAULTS[fault](n)))
        elif fault == "non-integer":
            line = draw(st.sampled_from(NON_INTEGER)).format(n=n)
        else:
            line = "\udcff"  # written as the byte 0xff, which is not UTF-8
        lines.insert(draw(st.integers(0, len(lines))), line)
    text = "".join(line + draw(st.sampled_from(("\n", "\r\n"))) for line in lines)
    return text.encode("utf-8", "surrogateescape")


@settings(max_examples=200, deadline=None, database=None)
@given(st.integers(2, 6).flatmap(lambda n: st.tuples(st.just(n), graph_files(n))))
def test_tdrank_matches_the_per_line_walk(tmp_path_factory, file):
    n, data = file
    path = tmp_path_factory.getbasetemp() / "graphs.txt"
    path.write_bytes(data)
    assert_same_as_oracle(path, n)


@pytest.mark.parametrize("fault", sorted(FAULTS) + ["non-integer"])
def test_every_fault_class_matches_the_per_line_walk(tmp_path, fault):
    line = "4 1 0 x" if fault == "non-integer" else " ".join(map(str, FAULTS[fault](4)))
    path = tmp_path / "graphs.txt"
    # a good line of each size first, and a triangle after the fault
    path.write_text(f"# header\n4 2 0 1 2 3\n\n{line}\r\n4 3 0 1 1 2 0 2\n3 1 2 0\n")
    for n in (3, 4):
        assert_same_as_oracle(path, n)
    code, _, err = run(["tdrank", "--n", "4", "--graphs", str(path)])
    if fault == "triangle":
        assert (code, err) == (1, "aeq: graph 1 contains triangle (0, 1, 2)\n")
    else:  # a file fault, on line 4, comes before any triangle
        assert code == 2 and err.startswith("aeq: line 4: ")


def test_tdrank_matches_the_per_line_walk_on_the_corpus(corpus_path):
    for n in range(1, 10):
        assert_same_as_oracle(corpus_path, n)


def test_tdrank_builds_no_graph_and_no_record(monkeypatch, corpus_path):
    built = []
    post_init, init = Graph.__post_init__, GraphRankRecord.__init__

    def graph_spy(self):
        built.append("Graph")
        post_init(self)

    def record_spy(self, *args, **kwargs):
        built.append("GraphRankRecord")
        init(self, *args, **kwargs)

    monkeypatch.setattr(Graph, "__post_init__", graph_spy)
    monkeypatch.setattr(GraphRankRecord, "__init__", record_spy)
    for n in range(2, 9):
        for flags in ([], ["--exact-rank"]):
            code, out, _ = run(["tdrank", "--n", str(n), "--graphs", str(corpus_path), *flags])
            assert code == 0 and out
    assert built == []
    aeq.lambda2_rank(aeq.read_graph_file(corpus_path)[-1])  # the spies do see the library path
    assert built.count("Graph") == 584 - 2 and built[-1] == "GraphRankRecord"
