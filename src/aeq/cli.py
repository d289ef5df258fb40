"""Command-line interface.

Every subcommand prints a run report {command, inputs, outcome, payload} as
JSON on stdout (floats at 17 significant digits) and diagnostics on stderr.
Exit codes: 0 pass, 1 failed check or infeasible search, 2 malformed input.
The csv format switches stdout to the tabular payload where one exists.
"""
from __future__ import annotations

import argparse
import functools
import math
import sys
import warnings
from dataclasses import asdict, dataclass
from typing import Optional

from . import __version__
from .bounds import (
    BoundReport,
    ball_bound,
    diameter_bound,
    general_bound_pipeline,
    sphere_bound,
)
from .constructions import construct
from .geometry import EXACT_MODE, PointSet, Tolerance, is_almost_equidistant
from .search import SearchConfig, optimize
from .serialize import (
    dumps_report,
    load_matrix_csv,
    load_pointset,
    load_pointset_csv,
    pointset_to_dict,
)
from .spectral import certify, gershgorin_bound, perron_frobenius_check, weyl_check
from .tdgraph import check_rank_size, min_rank_scan, read_graph_file

PASS, FAIL, INFEASIBLE, ERROR = "pass", "fail", "infeasible", "error"
_EXIT = {PASS: 0, FAIL: 1, INFEASIBLE: 1, ERROR: 2}
# the subcommands with no exact arithmetic, which reject --exact
_FLOAT_ONLY = ("construct", "search", "weyl", "perron", "gershgorin")


class UsageError(ValueError):
    """Malformed input or invalid flag combination; maps to exit code 2."""


@dataclass(frozen=True)
class RunReport:
    command: str
    inputs: dict
    outcome: str  # pass | fail | infeasible | error
    payload: dict


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as e:
        raise UsageError(str(e)) from e


def _load_points(args, path: str) -> PointSet:
    text = _read_text(path)
    try:
        if path.endswith(".csv") or not text.lstrip().startswith("{"):
            s = load_pointset_csv(text)
        else:
            s = load_pointset(text)
    except ValueError as e:
        raise UsageError(str(e)) from e
    if args.exact and s.mode != EXACT_MODE:
        raise UsageError('--exact requires an exact-rational input (mode "exact")')
    return s


def _load_matrix(path: str):
    text = _read_text(path)
    try:
        return load_matrix_csv(text)
    except ValueError as e:
        raise UsageError(str(e)) from e


def _float_tolerance(args) -> Tolerance:
    return Tolerance(dist_tol=args.tol, eig_tol=args.eig_tol)


def _tolerance(args) -> Tolerance:
    return Tolerance.exact() if args.exact else _float_tolerance(args)


def _check_common_flags(args) -> None:
    """The flags every subcommand shares, checked once for all of them."""
    for name, value in vars(args).items():  # argparse's float() takes "nan" and "inf"
        if isinstance(value, float) and not math.isfinite(value):
            raise UsageError(f"--{name.replace('_', '-')} must be finite, got {value}")
    if args.exact and args.command in _FLOAT_ONLY:
        raise UsageError(f"{args.command} runs in float mode only; --exact does not apply")
    try:
        _float_tolerance(args)
    except ValueError as e:
        raise UsageError(str(e)) from e


def _bound_payload(report) -> dict:
    bound = report.bound if report.bound is not None else "asymptotic"
    return {**asdict(report), "bound": bound}


def _triple_payload(s: PointSet, check) -> dict:
    return {
        "n": s.n,
        "dim": s.dim,
        "almost_equidistant": check.ok,
        "witness": list(check.witness) if check.witness else None,
    }


def _write_points(path: Optional[str], s: PointSet) -> None:
    """The --out file of construct and search: the point set JSON."""
    if path:
        with open(path, "w") as fh:
            fh.write(dumps_report(pointset_to_dict(s), indent=1))


def cmd_verify(args):
    s = _load_points(args, args.input)
    check = is_almost_equidistant(s, _tolerance(args))
    return (PASS if check.ok else FAIL), _triple_payload(s, check), None


def cmd_certify(args):
    s = _load_points(args, args.input)
    tol = _tolerance(args)
    check = is_almost_equidistant(s, tol)
    if not check.ok:
        return FAIL, _triple_payload(s, check), None
    cert = certify(s, tol)
    return (PASS if cert.lemma1_holds else FAIL), cert.as_dict(), None


def cmd_construct(args):
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            s = construct(args.kind.replace("-", "_"), args.dim, args.count, args.lift)
    except ValueError as e:
        raise UsageError(str(e)) from e
    for w in caught:  # a degenerate family, such as two-simplices in R^1
        print(f"aeq: {w.message}", file=sys.stderr)
    check = is_almost_equidistant(s, _float_tolerance(args))
    payload = pointset_to_dict(s)
    payload["verified"] = check.ok
    _write_points(args.out, s)
    table = (None, s.array.tolist())
    return (PASS if check.ok else FAIL), payload, table


def cmd_bounds(args):
    tol = _tolerance(args)
    points = _load_points(args, args.input) if args.input else None
    if args.theorem == "sphere" and args.radius is None:
        raise UsageError("--radius is required for the sphere bound")
    if args.theorem == "general" and points is None:
        raise UsageError("--input is required for the general pipeline")
    try:
        if args.theorem == "sphere":
            report = sphere_bound(args.dim, args.radius, points, tol)
        elif args.theorem == "diameter":
            report = diameter_bound(args.dim, points, tol)
        elif args.theorem == "ball":
            report = ball_bound(args.dim, args.c0, points, tol)
        else:
            report = general_bound_pipeline(points, tol)
    except ValueError as e:
        # without a configuration the failure can only be a bad parameter
        if points is None:
            raise UsageError(str(e)) from e
        raise
    outcome = FAIL if report.satisfied is False else PASS
    return outcome, _bound_payload(report), None


def _resolve_threads(args) -> int:
    """The search's thread count: it runs on one thread."""
    return 1


def cmd_search(args):
    try:
        cfg = SearchConfig(
            dim=args.dim,
            target_n=args.n,
            restarts=args.restarts,
            max_iters=args.iters,
            penalty_tol=args.penalty_tol,
            seed=args.seed,
            diameter_cap=args.diameter_le_1,
            sphere_radius=args.sphere_radius,
        )
    except ValueError as e:
        raise UsageError(str(e)) from e
    res = optimize(cfg)
    payload = {
        "best_points": pointset_to_dict(res.best_points),
        "best_penalty": res.best_penalty,
        "feasible": res.feasible,
        "iterations_used": res.iterations_used,
        "restart_index": res.restart_index,
        "certificate": res.certificate.as_dict() if res.certificate else None,
    }
    _write_points(args.out, res.best_points)
    return (PASS if res.feasible else INFEASIBLE), payload, None


def cmd_tdrank(args):
    exact = args.exact_rank or args.exact
    try:
        check_rank_size(args.n, exact)
        graphs = read_graph_file(args.graphs)
    except (OSError, ValueError) as e:
        raise UsageError(str(e)) from e
    graphs = [g for g in graphs if g.n == args.n]
    if not graphs:
        raise UsageError(f"no graphs on {args.n} vertices in {args.graphs}")
    # eig_tol clusters the float rows; exact rows count roots and do not read it
    scan = min_rank_scan(args.n, graphs, _float_tolerance(args), exact=exact)
    header = ["index", "lambda2", "multiplicity", "rank", "lambda2_positive"]
    rows = [[idx, rec.lambda2, rec.multiplicity, rec.rank, rec.lambda2_positive]
            for idx, rec in enumerate(scan.records)]
    payload = {
        "n": args.n,
        "min_rank": scan.min_rank,
        "argmin": list(scan.argmin),
        "rows": [dict(zip(header, row)) for row in rows],
    }
    return PASS, payload, (header, rows)


def cmd_pipeline(args):
    tol = _tolerance(args)
    s = _load_points(args, args.input)
    stages = []
    if args.diameter:
        try:
            rep = diameter_bound(s.dim, s, tol)
            stages.append({"name": "diameter_bound", "ok": bool(rep.satisfied)})
        except ValueError as e:
            stages.append({"name": "diameter_bound", "ok": False, "error": str(e)})
            failed = BoundReport("general", s.dim, {}, None, s.n, False, {"stages": stages})
            return FAIL, asdict(failed), None
    report = general_bound_pipeline(s, tol)
    payload = _bound_payload(report)
    if stages:
        payload["detail"]["stages"] = stages + payload["detail"]["stages"]
    ok = report.satisfied is not False and all(
        st.get("ok", True) for st in payload["detail"]["stages"]
    )
    return (PASS if ok else FAIL), payload, None


def cmd_weyl(args):
    a = _load_matrix(args.a)
    b = _load_matrix(args.b)
    res = weyl_check(a, b, _float_tolerance(args).eig_tol)
    return (PASS if res.holds else FAIL), asdict(res), None


def cmd_perron(args):
    m = _load_matrix(args.input)
    res = perron_frobenius_check(m, _float_tolerance(args).eig_tol)
    return (PASS if res.attained else FAIL), asdict(res), None


def cmd_gershgorin(args):
    m = _load_matrix(args.input)
    payload = {"bound": gershgorin_bound(m), "n": int(m.shape[0])}
    return PASS, payload, None


def _csv_cell(v) -> str:
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


def _emit(args, command: str, outcome: str, payload: dict, table) -> None:
    if args.format == "csv" and table is not None:
        header, rows = table
        lines = []
        if header:
            lines.append(",".join(header))
        for row in rows:
            lines.append(",".join(_csv_cell(v) for v in row))
        sys.stdout.write("\n".join(lines) + "\n")
        return
    inputs = {
        k: v if not isinstance(v, float) or math.isfinite(v) else str(v)
        for k, v in vars(args).items()
        if k not in ("handler", "format", "command") and v is not None and not callable(v)
    }
    report = RunReport(command=command, inputs=inputs, outcome=outcome, payload=payload)
    sys.stdout.write(dumps_report(report, indent=1))


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tol", type=float, default=1e-9, help="squared-distance tolerance")
    common.add_argument("--eig-tol", type=float, default=1e-8, dest="eig_tol")
    common.add_argument("--exact", action="store_true", help="exact rational mode")
    common.add_argument("--format", choices=("json", "csv"), default="json")

    p = argparse.ArgumentParser(prog="aeq", description=__doc__)
    p.add_argument("--version", action="version", version=f"aeq {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("verify", parents=[common], help="triple condition check")
    sp.add_argument("--input", required=True, help="point set JSON/CSV, - for stdin")
    sp.set_defaults(handler=cmd_verify)

    sp = sub.add_parser("certify", parents=[common], help="spectral certificate")
    sp.add_argument("--input", required=True)
    sp.set_defaults(handler=cmd_certify)

    sp = sub.add_parser("construct", parents=[common], help="reference constructions")
    sp.add_argument("--kind", required=True, choices=("simplex", "two-simplices", "rosenfeld"))
    sp.add_argument("--dim", type=int, required=True)
    sp.add_argument("--count", type=int, default=None, help="simplex point count (default dim+1)")
    sp.add_argument("--lift", action="store_true", help="lift onto the critical sphere")
    sp.add_argument("--out", default=None, help="also write the point set JSON here")
    sp.set_defaults(handler=cmd_construct)

    sp = sub.add_parser("bounds", parents=[common], help="cardinality bound reports")
    sp.add_argument("--theorem", required=True, choices=("sphere", "diameter", "ball", "general"))
    sp.add_argument("--dim", type=int, required=True)
    sp.add_argument("--radius", type=float, default=None)
    sp.add_argument("--c0", type=float, default=0.0)
    sp.add_argument("--input", default=None, help="optional configuration to audit")
    sp.set_defaults(handler=cmd_bounds)

    sp = sub.add_parser("search", parents=[common], help="penalty search")
    sp.add_argument("--dim", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--restarts", type=int, default=20)
    sp.add_argument("--iters", type=int, default=1500)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--penalty-tol", type=float, default=1e-18, dest="penalty_tol")
    sp.add_argument("--diameter-le-1", action="store_true", dest="diameter_le_1")
    sp.add_argument("--sphere-radius", type=float, default=None, dest="sphere_radius")
    sp.add_argument("--out", default=None)
    sp.set_defaults(handler=cmd_search)

    sp = sub.add_parser("tdrank", parents=[common], help="second-eigenvalue ranks")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--graphs", required=True, help="line-per-graph file: n m u1 v1 ...")
    sp.add_argument("--exact-rank", action="store_true", dest="exact_rank",
                    help="exact characteristic-polynomial multiplicities")
    sp.set_defaults(handler=cmd_tdrank)

    sp = sub.add_parser("pipeline", parents=[common], help="full audit chain")
    sp.add_argument("--input", required=True)
    sp.add_argument("--diameter", action="store_true", help="also enforce the diameter cap")
    sp.set_defaults(handler=cmd_pipeline)

    sp = sub.add_parser("weyl", parents=[common], help="largest-eigenvalue subadditivity")
    sp.add_argument("--a", required=True, help="matrix CSV")
    sp.add_argument("--b", required=True, help="matrix CSV")
    sp.set_defaults(handler=cmd_weyl)

    sp = sub.add_parser("perron", parents=[common], help="nonnegative spectral radius")
    sp.add_argument("--input", required=True, help="matrix CSV")
    sp.set_defaults(handler=cmd_perron)

    sp = sub.add_parser("gershgorin", parents=[common], help="row-sum eigenvalue bound")
    sp.add_argument("--input", required=True, help="matrix CSV")
    sp.set_defaults(handler=cmd_gershgorin)
    return p


def _abort(args, outcome: str, e: Exception) -> int:
    print(f"aeq: {e}", file=sys.stderr)
    _emit(args, args.command, outcome, {"message": str(e)}, None)
    return _EXIT[outcome]


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_common_flags(args)
        outcome, payload, table = args.handler(args)
    except UsageError as e:
        return _abort(args, ERROR, e)
    except (ValueError, ArithmeticError) as e:
        # a well-formed input that violates a theorem hypothesis is a failed
        # check, not a usage error
        return _abort(args, FAIL, e)
    except OSError as e:
        return _abort(args, ERROR, e)
    _emit(args, args.command, outcome, payload, table)
    return _EXIT[outcome]


if __name__ == "__main__":
    raise SystemExit(main())
