"""`aeq construct` against the per-family constructions as oracle.

Every kind, dimension and flag combination must print the report, the CSV
rows or the error message that the library's own functions give, with the
matching exit code: 3 kinds x 5 dimensions x 5 flag sets x 2 formats.
"""
import itertools
import math
import warnings

import pytest

import aeq
from aeq.cli import main
from aeq.serialize import dumps_report

KINDS = ("simplex", "two-simplices", "rosenfeld")
DIMS = (0, 1, 2, 3, 5)
FLAGS = ((), ("--lift",), ("--count", "2"), ("--count", "9"), ("--count", "3", "--lift"))
FORMATS = ("json", "csv")


def library(kind, dim, count, lift):
    """The point set the per-family functions build, or their error message."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        return _library(kind, dim, count, lift), [str(w.message) for w in caught]


def _library(kind, dim, count, lift):
    try:
        if dim < 1:
            raise ValueError("dim must be at least 1")
        if kind == "simplex":
            k = dim + 1 if count is None else count
            s, r = aeq.construct_simplex(k, dim), aeq.simplex_circumradius(k)
        elif kind == "two-simplices":
            s, r = aeq.construct_two_simplices(dim), aeq.simplex_circumradius(dim + 1)
        else:
            s, r = aeq.construct_rosenfeld(dim), 1.0 / math.sqrt(2.0)
        return aeq.lift_to_halfsphere(s, r) if lift else s
    except ValueError as e:
        return str(e)


def expected(kind, dim, count, lift, fmt):
    """(exit code, stdout, stderr) of `aeq construct` from the library's result:
    each library warning, such as the degenerate two-simplices in R^1, is one
    `aeq:` line on stderr."""
    result, warned = library(kind, dim, count, lift)
    err = "".join(f"aeq: {m}\n" for m in warned)
    if isinstance(result, str):
        code, outcome, payload = 2, "error", {"message": result}
    else:
        ok = aeq.is_almost_equidistant(result).ok
        code, outcome = (0, "pass") if ok else (1, "fail")
        if fmt == "csv":
            rows = result.array.tolist()
            return code, "".join(",".join(format(v, ".17g") for v in r) + "\n" for r in rows), err
        payload = {**aeq.pointset_to_dict(result), "verified": ok}
    inputs = {"tol": 1e-9, "eig_tol": 1e-8, "exact": False, "kind": kind, "dim": dim,
              "count": count, "lift": lift}
    inputs = {k: v for k, v in inputs.items() if v is not None}  # as the CLI drops None
    report = {"command": "construct", "inputs": inputs, "outcome": outcome, "payload": payload}
    return code, dumps_report(report), f"aeq: {result}\n" if code == 2 else err


@pytest.mark.parametrize("flags", FLAGS, ids=("plain", "lift", "count2", "count9", "count3-lift"))
@pytest.mark.parametrize("kind", KINDS)
def test_construct_matches_the_library(kind, flags, capsys):
    count = int(flags[flags.index("--count") + 1]) if "--count" in flags else None
    for dim, fmt in itertools.product(DIMS, FORMATS):
        argv = ["construct", "--kind", kind, "--dim", str(dim), *flags, "--format", fmt]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no Python warning leaves the CLI
            code = main(argv)
        out, err = capsys.readouterr()
        assert (code, out, err) == expected(kind, dim, count, "--lift" in flags, fmt), argv
