"""Spans around aeq's public functions, installed from outside the package.

``Tracer.install`` replaces each traced function with a timing wrapper in
every ``aeq`` module namespace that binds it, so calls between modules
(``cli`` into ``spectral.certify``, ``spectral`` into
``geometry.is_almost_equidistant``) are caught as well as calls from the
benchmark. ``PointSet`` is traced through its ``__post_init__``, which does
the coercion and validation of every construction. Spans are kept in
memory: ``[name, start, end, parent span, job id]``. A span opened on a
worker thread with no open span of its own (the search thread pool) takes
the innermost open span of the main thread as its parent.
"""
from __future__ import annotations

import functools
import sys
import threading
from time import perf_counter

TRACED = (
    ("cli", "main"),
    ("serialize", "load_pointset"),
    ("serialize", "load_pointset_csv"),
    ("serialize", "dumps_report"),
    ("geometry", "squared_distance_matrix"),
    ("geometry", "is_almost_equidistant"),
    ("spectral", "defect_matrix"),
    ("spectral", "trace_identities"),
    ("spectral", "eigenvalues"),
    ("spectral", "certify"),
    ("spectral", "perron_frobenius_check"),
    ("bounds", "general_bound_pipeline"),
    ("bounds", "diameter_bound"),
    ("bounds", "f_statistic"),
    ("bounds", "recentred_norm_bounds"),
    ("bounds", "ball_bound"),
    ("miniball", "min_enclosing_ball"),
    ("constructions", "construct_two_simplices"),
    ("constructions", "construct_rosenfeld"),
    ("search", "optimize"),
    ("search", "total_penalty"),
    ("search", "least_squares"),  # scipy's solver as the search module binds it
    ("tdgraph", "read_graph_file"),
    ("tdgraph", "lambda2_rank"),
    ("tdgraph", "min_rank_scan"),
    ("charpoly", "charpoly_int"),
    ("charpoly", "square_free_decomposition"),
)
SPAN_NAMES = tuple(f"{m}.{f}" for m, f in TRACED) + ("geometry.PointSet",)

NAME, START, END, PARENT, JOB = range(5)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.job = None  # id of the job running now, stamped on each span
        self._local = threading.local()
        self._main_stack: list = []
        self._restore: list = []

    def _stack(self) -> list:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
            span = [name, 0.0, 0.0, parent, self.job]
            stack.append(span)
            span[START] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                stack.pop()
                self.spans.append(span)

        return traced

    def install(self) -> None:
        modules = [m for k, m in sys.modules.items() if k == "aeq" or k.startswith("aeq.")]
        for mod_name, fn_name in TRACED:
            owner = sys.modules.get(f"aeq.{mod_name}")
            original = getattr(owner, fn_name, None)
            if original is None:  # a later version may have dropped it
                continue
            traced = self.wrap(f"{mod_name}.{fn_name}", original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, traced)
                        self._restore.append((mod, attr, original))
        point_set = sys.modules["aeq.geometry"].PointSet
        post_init = point_set.__post_init__
        point_set.__post_init__ = self.wrap("geometry.PointSet", post_init)
        self._restore.append((point_set, "__post_init__", post_init))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for s, e in sorted(intervals):
        s, e = max(s, reach), min(e, hi)
        if e > s:
            total += e - s
            reach = e
    return total


def self_times(spans) -> list:
    """Self time of each span: its duration minus what its children cover."""
    children: dict = {}
    for span in spans:
        if span[PARENT] is not None:
            children.setdefault(id(span[PARENT]), []).append((span[START], span[END]))
    return [span[END] - span[START] - _covered(children.get(id(span), ()), span[START], span[END])
            for span in spans]


def layer_totals(spans) -> dict:
    """name -> (calls, summed self time)."""
    out = {name: [0, 0.0] for name in SPAN_NAMES}
    for span, own in zip(spans, self_times(spans)):
        entry = out.setdefault(span[NAME], [0, 0.0])
        entry[0] += 1
        entry[1] += own
    return {k: (c, s) for k, (c, s) in out.items()}


def nesting_errors(spans) -> list:
    """Spans that leave their parent's interval or have negative self time."""
    errs = []
    for span, own in zip(spans, self_times(spans)):
        parent = span[PARENT]
        if parent is not None and not (parent[START] <= span[START] <= span[END] <= parent[END]):
            errs.append(f"{span[NAME]} escapes its parent {parent[NAME]}")
        if own < 0:
            errs.append(f"{span[NAME]} has negative self time {own}")
    return errs


def to_records(spans) -> list:
    """JSON-ready spans, parents given by index."""
    index = {id(span): i for i, span in enumerate(spans)}
    return [
        {"name": s[NAME], "start": s[START], "end": s[END],
         "parent": index.get(id(s[PARENT])) if s[PARENT] is not None else None, "job": s[JOB]}
        for s in spans
    ]
