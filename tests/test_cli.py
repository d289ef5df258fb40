import io
import json
import math
import os
import pathlib
import subprocess
import sys
import time

import jsonschema
import numpy as np
import pytest

import aeq
from aeq import serialize
from aeq.cli import build_parser, main
from aeq.serialize import dumps_report
from aeq.schemas import load_schema, schema_names

PAYLOAD_SCHEMA = {
    "verify": "verify",
    "certify": "certificate",
    "bounds": "bound_report",
    "pipeline": "bound_report",
    "search": "search_result",
    "tdrank": "tdrank",
    "weyl": "weyl",
    "perron": "perron",
    "gershgorin": "gershgorin",
}


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def check_report(report, command):
    jsonschema.validate(report, load_schema("run_report"))
    assert report["command"] == command
    if report["outcome"] in ("pass", "fail", "infeasible") and command in PAYLOAD_SCHEMA:
        jsonschema.validate(report["payload"], load_schema(PAYLOAD_SCHEMA[command]))


@pytest.fixture
def triangle_csv(tmp_path):
    p = tmp_path / "triangle.csv"
    p.write_text("0.0, 0.0\n1.0, 0.0\n0.5, 0.8660254037844386\n")
    return str(p)


@pytest.fixture
def collinear_csv(tmp_path):
    p = tmp_path / "collinear.csv"
    p.write_text("0.0\n2.0\n5.0\n")
    return str(p)


@pytest.fixture
def rhombus_json(tmp_path):
    p = tmp_path / "rhombus.json"
    p.write_text(
        '{"dim": 2, "mode": "exact", "points": '
        '[["0","0"],["1","0"],["3/5","4/5"],["8/5","4/5"]]}'
    )
    return str(p)


def test_schema_inventory():
    names = schema_names()
    assert len(names) == 10
    for name in names:
        schema = load_schema(name)
        jsonschema.Draft202012Validator.check_schema(schema)


def test_verify_pass(capsys, triangle_csv):
    code, rep = run_cli(capsys, "verify", "--input", triangle_csv)
    assert code == 0
    assert rep["outcome"] == "pass"
    assert rep["payload"]["almost_equidistant"] is True
    assert rep["payload"]["witness"] is None
    check_report(rep, "verify")


def test_verify_fail_with_witness(capsys, collinear_csv):
    code, rep = run_cli(capsys, "verify", "--input", collinear_csv)
    assert code == 1
    assert rep["outcome"] == "fail"
    assert rep["payload"]["witness"] == [0, 1, 2]
    check_report(rep, "verify")


def test_verify_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("0.0\n1.0\n"))
    code, rep = run_cli(capsys, "verify", "--input", "-")
    assert code == 0 and rep["payload"]["n"] == 2


def test_verify_ragged_csv_is_usage_error(capsys, tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("1.0 2.0\n3.0\n")
    code = main(["verify", "--input", str(p)])
    captured = capsys.readouterr()
    assert code == 2
    assert "row 2 has 1 columns" in captured.err
    rep = json.loads(captured.out)
    assert rep["outcome"] == "error"
    for text in ("0,0\n1,0\nnan,nan\n", "0,0\n1,0\ninf,0\n"):
        p.write_text(text)
        for verb in ("verify", "certify"):
            code, rep = run_cli(capsys, verb, "--input", str(p))
            assert code == 2 and rep["outcome"] == "error"
            assert "finite" in rep["payload"]["message"]


def test_verify_missing_file(capsys):
    code, rep = run_cli(capsys, "verify", "--input", "/nonexistent/nope.csv")
    assert code == 2 and rep["outcome"] == "error"


def test_empty_pointset_is_usage_error(capsys, tmp_path):
    p = tmp_path / "empty.json"
    p.write_text('{"dim": 1, "points": []}')
    code, rep = run_cli(capsys, "verify", "--input", str(p))
    assert code == 2 and rep["outcome"] == "error"
    for text in (
        '{"dim": 2, "points": [[0, 0], [1, 0], [NaN, NaN]]}',
        '{"dim": 2, "points": [[0, 0], [1, 0], [Infinity, 0]]}',
        '{"dim": 2, "mode": "exact", "points": [["0", "0"], ["1", "0"], ["1/0", "0"]]}',
        '{"dim": 2, "points": [["0", "0"], ["1", "0"], ["1/0", "0"]]}',
    ):
        p.write_text(text)
        code, rep = run_cli(capsys, "verify", "--input", str(p))
        assert code == 2 and rep["outcome"] == "error"


def test_non_integral_dim_is_usage_error(capsys, tmp_path):
    p = tmp_path / "dim.json"
    for dim in ("2.7", "null", "[2]"):
        p.write_text('{"dim": %s, "points": [[0, 0], [1, 0], [0.5, 0.8660254037844386]]}' % dim)
        code, rep = run_cli(capsys, "verify", "--input", str(p))
        assert code == 2 and rep["outcome"] == "error"
        assert "dim must be an integer" in rep["payload"]["message"]


@pytest.mark.parametrize("mode", ["float", "exact"])
@pytest.mark.parametrize("text", ["1e400", "-1e400", "1e999999999", "1e-999999999"])
def test_coordinate_strings_past_the_float_range_or_the_exponent_cap(capsys, tmp_path, mode,
                                                                     text):
    # float(Fraction("1e400")) overflows; Fraction("1e999999999") would build 10**999999999
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"dim": 1, "mode": mode, "points": [["0"], [text]]}))
    start = time.perf_counter()
    code, rep = run_cli(capsys, "verify", "--input", str(path))
    assert time.perf_counter() - start < 1.0
    if mode == "exact" and text.endswith("e400"):
        assert code == 0  # an exact coordinate has no range to leave
        return
    assert code == 2 and rep["outcome"] == "error"
    message = rep["payload"]["message"]
    assert ("must be finite" if text.endswith("e400") else "exponent beyond 4300") in message


@pytest.mark.parametrize("sign", ["", "-"])
def test_integer_coordinates_past_the_float_range(capsys, tmp_path, sign):
    # float(10**400) raises OverflowError; read as an infinity, the integer is
    # bad input like the string "1e400", in JSON and in CSV alike
    big = sign + "1" + "0" * 400
    files = {
        "big.json": '{"dim": 1, "points": [[%s], [0]]}' % big,
        "big.csv": big + "\n0\n",
    }
    messages = []
    for name, text in files.items():
        path = tmp_path / name
        path.write_text(text)
        code, rep = run_cli(capsys, "verify", "--input", str(path),
                            "--format", name.rpartition(".")[2])
        assert code == 2 and rep["outcome"] == "error"
        messages.append(rep["payload"]["message"])
    assert messages == [f"coordinates must be finite, got ({sign}inf,)"] * 2
    # an exact coordinate has no range to leave
    path = tmp_path / "big.json"
    path.write_text('{"dim": 1, "mode": "exact", "points": [[%s], [0]]}' % big)
    assert run_cli(capsys, "verify", "--input", str(path))[0] == 0
    assert aeq.load_pointset(path.read_text()).form[0][0, 0] == int(big)


def test_exact_flag_rejects_float_input(capsys, triangle_csv):
    code, rep = run_cli(capsys, "verify", "--input", triangle_csv, "--exact")
    assert code == 2
    assert "exact" in rep["payload"]["message"]


def test_certify_exact_rhombus(capsys, rhombus_json):
    code, rep = run_cli(capsys, "certify", "--input", rhombus_json, "--exact")
    assert code == 0
    payload = rep["payload"]
    assert payload["trace_u"] == 0 and payload["trace_u3"] == 0
    assert abs(payload["lambda_max"] - 2.2) < 1e-12
    assert payload["count_gt_one"] == 1
    assert payload["lemma1_holds"] is True
    check_report(rep, "certify")


def test_certify_non_ae_fails_with_witness(capsys, collinear_csv):
    code, rep = run_cli(capsys, "certify", "--input", collinear_csv)
    assert code == 1
    assert rep["payload"]["almost_equidistant"] is False
    assert rep["payload"]["witness"] == [0, 1, 2]


def test_construct_verify_roundtrip(capsys, tmp_path):
    out = tmp_path / "pts.json"
    for kind, dim, want_n in (
        ("two-simplices", 4, 10),
        ("rosenfeld", 3, 6),
        ("simplex", 5, 6),
    ):
        code, rep = run_cli(
            capsys, "construct", "--kind", kind, "--dim", str(dim), "--out", str(out)
        )
        assert code == 0
        assert rep["payload"]["verified"] is True
        assert len(rep["payload"]["points"]) == want_n
        jsonschema.validate(rep["payload"], load_schema("pointset"))

        code, rep = run_cli(capsys, "verify", "--input", str(out))
        assert code == 0 and rep["outcome"] == "pass"


def test_construct_lift_lands_on_critical_sphere(capsys):
    code, rep = run_cli(
        capsys, "construct", "--kind", "two-simplices", "--dim", "3", "--lift"
    )
    assert code == 0
    pts = rep["payload"]["points"]
    assert rep["payload"]["dim"] == 4
    for row in pts:
        assert sum(c * c for c in row) == pytest.approx(0.5, abs=1e-9)


def test_construct_csv_rows(capsys):
    code = main(["construct", "--kind", "rosenfeld", "--dim", "4", "--format", "csv"])
    out = capsys.readouterr().out
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()]
    assert len(rows) == 8
    assert all(len(r) == 4 for r in rows)
    norms = [math.fsum(float(c) ** 2 for c in r) for r in rows]
    assert all(abs(v - 0.5) < 1e-9 for v in norms)


def test_construct_invalid_params_exit_2(capsys):
    code, rep = run_cli(capsys, "construct", "--kind", "rosenfeld", "--dim", "1")
    assert code == 2 and rep["outcome"] == "error"
    code, rep = run_cli(
        capsys, "construct", "--kind", "simplex", "--dim", "2", "--count", "9"
    )
    assert code == 2


def test_bounds_sphere_critical(capsys):
    code, rep = run_cli(
        capsys, "bounds", "--theorem", "sphere", "--dim", "3",
        "--radius", "0.7071067811865476",
    )
    assert code == 0
    assert rep["payload"]["bound"] == 6
    assert rep["payload"]["detail"]["critical_radius"] is True
    check_report(rep, "bounds")


def test_bounds_sphere_missing_radius(capsys):
    code, rep = run_cli(capsys, "bounds", "--theorem", "sphere", "--dim", "3")
    assert code == 2 and rep["outcome"] == "error"


def test_bounds_sphere_bad_radius_no_points(capsys):
    code, rep = run_cli(
        capsys, "bounds", "--theorem", "sphere", "--dim", "3", "--radius", "0.9"
    )
    assert code == 2 and rep["outcome"] == "error"


def test_bounds_diameter_plain(capsys):
    code, rep = run_cli(capsys, "bounds", "--theorem", "diameter", "--dim", "3")
    assert code == 0
    assert rep["payload"]["bound"] == 10
    assert rep["payload"]["n_observed"] is None
    check_report(rep, "bounds")


def test_bounds_diameter_violating_points_fail(capsys, tmp_path):
    out = tmp_path / "ts3.json"
    main(["construct", "--kind", "two-simplices", "--dim", "3", "--out", str(out)])
    capsys.readouterr()
    code, rep = run_cli(
        capsys, "bounds", "--theorem", "diameter", "--dim", "3", "--input", str(out)
    )
    assert code == 1
    assert rep["outcome"] == "fail"
    assert "diameter" in rep["payload"]["message"]


def test_bounds_ball_frozen(capsys):
    code, rep = run_cli(
        capsys, "bounds", "--theorem", "ball", "--dim", "3", "--c0", "0.25"
    )
    assert code == 0
    assert rep["payload"]["bound"] == 14
    assert rep["payload"]["detail"]["threshold"] == 15
    check_report(rep, "bounds")


def test_bounds_ball_in_a_huge_dimension(capsys):
    # the threshold window holds 10^10 values of n; the scan stops in its
    # top block, where the chain still holds, so no finite bound
    code, rep = run_cli(
        capsys, "bounds", "--theorem", "ball", "--dim", "100000000", "--c0", "0.5"
    )
    assert code == 0
    assert rep["payload"]["bound"] == "asymptotic"
    assert rep["payload"]["detail"]["threshold"] is None
    check_report(rep, "bounds")


def test_bounds_ball_rejects_an_exact_set_just_outside(capsys, tmp_path):
    # r^2 - 1/2 = 3.5e-15; a set outside the stated ball is a failed check
    probe = tmp_path / "probe.json"
    probe.write_text('{"dim": 2, "mode": "exact", "points": '
                     '[["0", "0"], ["14142135623731/10000000000000", "0"]]}')
    code, rep = run_cli(capsys, "bounds", "--theorem", "ball", "--c0", "0", "--dim", "2",
                        "--exact", "--input", str(probe))
    assert (code, rep["outcome"]) == (1, "fail")
    assert "exceeds the stated ball radius" in rep["payload"]["message"]


@pytest.mark.parametrize("argv", [
    ("--theorem", "sphere", "--dim", "-3", "--radius", "0.5"),
    ("--theorem", "diameter", "--dim", "-3"),
    ("--theorem", "ball", "--dim", "0"),
])
def test_bounds_bad_dim_without_input_is_a_usage_error(capsys, argv):
    code, rep = run_cli(capsys, "bounds", *argv)
    assert (code, rep["outcome"]) == (2, "error")
    assert rep["payload"]["message"] == "d must be at least 1"


@pytest.mark.parametrize("argv", [
    ("--theorem", "sphere", "--radius", "0.6123724356957945"),
    ("--theorem", "diameter"),
    ("--theorem", "ball"),
])
def test_bounds_points_in_another_dim_fail(capsys, tmp_path, argv):
    out = tmp_path / "simplex3.json"  # construct_simplex(4, 3)
    main(["construct", "--kind", "simplex", "--dim", "3", "--out", str(out)])
    capsys.readouterr()
    code, rep = run_cli(capsys, "bounds", *argv, "--dim", "1", "--input", str(out))
    assert (code, rep["outcome"]) == (1, "fail")
    assert rep["payload"]["message"] == "dimension mismatch between points and d"


@pytest.mark.parametrize("argv", [
    ("--theorem", "sphere", "--radius", "0.5"),
    ("--theorem", "diameter"),
    ("--theorem", "ball"),
    ("--theorem", "general"),
])
@pytest.mark.parametrize("dim, message", [
    ("5", "dimension mismatch between points and d"),
    ("-3", "d must be at least 1"),
])
def test_bounds_every_theorem_checks_dim_against_the_input(capsys, tmp_path, argv, dim,
                                                           message):
    path = tmp_path / "segment.json"
    path.write_text('{"dim": 1, "mode": "exact", "points": [["0"], ["1"]]}')
    code, rep = run_cli(capsys, "bounds", *argv, "--dim", dim, "--exact",
                        "--input", str(path))
    assert (code, rep["outcome"]) == (1, "fail")
    assert rep["payload"]["message"] == message


def test_bounds_general_requires_input(capsys):
    code, rep = run_cli(capsys, "bounds", "--theorem", "general", "--dim", "2")
    assert code == 2


def test_bounds_general_out_of_regime(capsys, rhombus_json):
    code, rep = run_cli(
        capsys, "bounds", "--theorem", "general", "--dim", "2",
        "--input", rhombus_json, "--exact",
    )
    assert code == 0
    assert rep["payload"]["bound"] == "asymptotic"
    assert rep["payload"]["satisfied"] is None
    assert rep["payload"]["detail"]["branch"] == "out_of_regime"
    check_report(rep, "bounds")


def test_search_feasible(capsys, tmp_path):
    out = tmp_path / "best.json"
    code, rep = run_cli(
        capsys, "search", "--dim", "2", "--n", "6", "--restarts", "2",
        "--iters", "50", "--seed", "0", "--out", str(out),
    )
    assert code == 0
    assert rep["payload"]["feasible"] is True
    assert rep["payload"]["certificate"]["lemma1_holds"] is True
    check_report(rep, "search")

    code, rep = run_cli(capsys, "verify", "--input", str(out))
    assert code == 0


def test_search_infeasible_exit_code(capsys):
    code, rep = run_cli(
        capsys, "search", "--dim", "2", "--n", "10", "--restarts", "1",
        "--iters", "30", "--seed", "0",
    )
    assert code == 1
    assert rep["outcome"] == "infeasible"
    assert rep["payload"]["certificate"] is None
    check_report(rep, "search")


def test_threads_flag_is_gone(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["search", "--dim", "2", "--n", "4", "--threads", "2"])
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags",
    [
        ["--restarts", "0"],
        ["--restarts", "-1"],
        ["--iters", "-1"],
        ["--seed", "-1"],
        ["--sphere-radius", "0"],
        ["--sphere-radius", "-0.5"],
        ["--penalty-tol=-1e-18"],
        ["--n", "0"],  # the last --n wins
        ["--dim", "0"],
        ["--tol=-1"],
        ["--eig-tol=-1"],
        ["--exact"],  # the search is float only
    ],
)
def test_search_meaningless_parameters_are_usage_errors(capsys, flags):
    code, rep = run_cli(capsys, "search", "--dim", "2", "--n", "4", *flags)
    assert code == 2 and rep["outcome"] == "error"
    check_report(rep, "search")


def test_search_sphere_radius_whose_square_overflows_is_a_usage_error(capsys):
    code = main(["search", "--dim", "2", "--n", "3", "--sphere-radius", "1e200"])
    captured = capsys.readouterr()
    rep = json.loads(captured.out)
    message = "sphere_radius too large for a finite search penalty, got 1e+200"
    assert code == 2 and rep["outcome"] == "error"
    assert rep["payload"]["message"] == message
    assert captured.err == f"aeq: {message}\n"
    check_report(rep, "search")


@pytest.mark.parametrize("radius", ["1e77", "1e120"])
def test_search_sphere_radius_whose_penalty_overflows_is_a_usage_error(capsys, radius):
    # r^2 is finite, but three points on the sphere reach a penalty near 16 r^4
    code = main(["search", "--dim", "2", "--n", "3", "--restarts", "1", "--iters", "5",
                 "--sphere-radius", radius])
    captured = capsys.readouterr()
    message = f"sphere_radius too large for a finite search penalty, got {float(radius)!r}"
    assert code == 2 and json.loads(captured.out)["payload"]["message"] == message
    assert captured.err == f"aeq: {message}\n"


def test_search_sphere_radius_below_the_penalty_limit_still_runs(capsys):
    # 16 r^4 (C(3, 3) + C(3, 2)) = 6.4e305 is finite: the search runs, and
    # fails to find a set of three points on a sphere this large
    code, rep = run_cli(capsys, "search", "--dim", "2", "--n", "3", "--restarts", "1",
                        "--iters", "5", "--sphere-radius", "1e76")
    assert code == 1 and rep["outcome"] == "infeasible"
    assert rep["payload"]["best_penalty"] == pytest.approx(7.6297579732386596e+303, rel=1e-9)
    check_report(rep, "search")


def test_search_internal_value_error_is_a_failed_run(capsys, monkeypatch):
    def broken(cfg):
        raise ValueError("inside the search")

    monkeypatch.setattr(aeq.cli, "optimize", broken)
    code, rep = run_cli(capsys, "search", "--dim", "2", "--n", "4")
    assert code == 1 and rep["outcome"] == "fail"


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "argv, flag",
    [
        (["verify", "--input", "{triangle}"], "--tol"),
        (["certify", "--input", "{triangle}"], "--eig-tol"),
        (["pipeline", "--input", "{triangle}"], "--tol"),
        (["bounds", "--theorem", "sphere", "--dim", "3"], "--radius"),
        (["bounds", "--theorem", "ball", "--dim", "3"], "--c0"),
        (["search", "--dim", "2", "--n", "4"], "--sphere-radius"),
        (["search", "--dim", "2", "--n", "4"], "--penalty-tol"),
        (["tdrank", "--n", "4", "--graphs", "{graphs}"], "--eig-tol"),
        (["perron", "--input", "{matrix}"], "--eig-tol"),
    ],
)
def test_nonfinite_float_flags_are_usage_errors(capsys, tmp_path, triangle_csv, corpus_path,
                                                argv, flag, value):
    matrix = tmp_path / "m.csv"
    matrix.write_text("0,1\n1,0\n")
    paths = {"triangle": triangle_csv, "graphs": corpus_path, "matrix": str(matrix)}
    argv = [a.format(**paths) for a in argv] + [f"{flag}={value}"]
    code, rep = run_cli(capsys, *argv)
    assert code == 2 and rep["outcome"] == "error"
    assert "finite" in rep["payload"]["message"]
    check_report(rep, argv[0])


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--input", "{triangle}", "--tol=-1"],
        ["certify", "--input", "{triangle}", "--eig-tol=-1e-8"],
        ["tdrank", "--n", "4", "--graphs", "{graphs}", "--tol=-1"],
        ["perron", "--input", "{matrix}", "--eig-tol=-1"],
        ["weyl", "--a", "{matrix}", "--b", "{matrix}", "--eig-tol=-1"],
    ],
)
def test_negative_tolerance_is_usage_error(capsys, tmp_path, triangle_csv, corpus_path, argv):
    # a negative slack turned a symmetric nonnegative matrix into a failed
    # "negative entry" or "not symmetric" check (exit 1)
    matrix = tmp_path / "m.csv"
    matrix.write_text("0,1\n1,0\n")
    argv = [a.format(triangle=triangle_csv, graphs=corpus_path, matrix=matrix) for a in argv]
    code, rep = run_cli(capsys, *argv)
    assert code == 2 and rep["outcome"] == "error"
    check_report(rep, argv[0])


@pytest.mark.parametrize("flag", ["--exact", "--tol=-1", "--eig-tol=-1"])
@pytest.mark.parametrize(
    "argv",
    [
        ["construct", "--kind", "simplex", "--dim", "2"],
        ["search", "--dim", "2", "--n", "4", "--restarts", "1", "--iters", "5"],
        ["weyl", "--a", "{matrix}", "--b", "{matrix}"],
        ["perron", "--input", "{matrix}"],
        ["gershgorin", "--input", "{matrix}"],
    ],
)
def test_float_only_subcommands_reject_exact_and_bad_tolerances(capsys, tmp_path, argv, flag):
    # without the flag each subcommand runs its float math and exits 0
    matrix = tmp_path / "m.csv"
    matrix.write_text("0,1\n1,0\n")
    argv = [a.format(matrix=matrix) for a in argv]
    assert main(argv) == 0
    capsys.readouterr()
    code, rep = run_cli(capsys, *argv, flag)
    assert code == 2 and rep["outcome"] == "error"
    if flag == "--exact":
        assert rep["payload"]["message"] == f"{argv[0]} runs in float mode only; --exact does not apply"
    check_report(rep, argv[0])


def test_tdrank_json(capsys, corpus_path):
    code, rep = run_cli(
        capsys, "tdrank", "--n", "5", "--graphs", str(corpus_path)
    )
    assert code == 0
    assert rep["payload"]["min_rank"] == 3
    assert len(rep["payload"]["argmin"]) == 2
    assert len(rep["payload"]["rows"]) == 14
    check_report(rep, "tdrank")


def test_tdrank_exact_agrees(capsys, corpus_path):
    _, plain = run_cli(capsys, "tdrank", "--n", "6", "--graphs", str(corpus_path))
    _, exact = run_cli(
        capsys, "tdrank", "--n", "6", "--graphs", str(corpus_path), "--exact-rank"
    )
    assert plain["payload"]["min_rank"] == exact["payload"]["min_rank"]
    assert plain["payload"]["argmin"] == exact["payload"]["argmin"]


def test_tdrank_csv_header(capsys, corpus_path):
    code = main(["tdrank", "--n", "4", "--graphs", str(corpus_path), "--format", "csv"])
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert code == 0
    assert lines[0] == "index,lambda2,multiplicity,rank,lambda2_positive"
    assert len(lines) == 8  # header + 7 graphs on 4 vertices


def test_tdrank_no_matching_graphs(capsys, corpus_path):
    code, rep = run_cli(capsys, "tdrank", "--n", "30", "--graphs", str(corpus_path))
    assert code == 2 and rep["outcome"] == "error"


@pytest.mark.parametrize("text, message", [
    ("# header\n\n3 1 0 1 2\n", "line 3: graph line carries an odd number of endpoints, 3"),
    ("3 0\n3 -1\n", "line 2: graph line declares a negative edge count, -1"),
    ("3 1 0 x\n", "line 1: invalid literal for int() with base 10: 'x'"),
    ("3 1 0 1\n\n3 1 0 3\n", "line 3: edge (0, 3) out of range for 3 vertices"),
    ("-3 0\n0 0\n3 1 0 1\n", "line 1: graph declares a negative vertex count, -3"),
])
def test_tdrank_graph_file_faults_name_their_line(capsys, tmp_path, text, message):
    path = tmp_path / "graphs.txt"
    path.write_text(text)
    code, rep = run_cli(capsys, "tdrank", "--n", "3", "--graphs", str(path))
    assert (code, rep["outcome"]) == (2, "error")
    assert rep["payload"]["message"] == message


@pytest.mark.parametrize("argv, name", [
    (["verify", "--input", "{path}"], "points.json"),
    (["perron", "--input", "{path}"], "matrix.csv"),
])
def test_undecodable_input_is_a_usage_error(capsys, tmp_path, argv, name):
    path = tmp_path / name
    path.write_bytes(b"\xff\xfe{}")
    code, rep = run_cli(capsys, *[a.format(path=path) for a in argv])
    assert (code, rep["outcome"]) == (2, "error")
    assert rep["payload"]["message"] == (
        f"cannot decode {path}: 'utf-8' codec can't decode byte 0xff in position 0: "
        "invalid start byte")


def test_deeply_nested_json_is_a_usage_error(capsys, tmp_path):
    depth = 100_000
    path = tmp_path / "deep.json"
    path.write_text('{"dim": 2, "points": ' + "[" * depth + "]" * depth + "}")
    code, rep = run_cli(capsys, "verify", "--input", str(path))
    assert (code, rep["outcome"]) == (2, "error")
    assert rep["payload"]["message"].startswith("invalid JSON: maximum recursion depth exceeded")


def test_json_behind_a_bom_is_read_as_json(capsys, tmp_path):
    path = tmp_path / "bom.json"
    path.write_text('\ufeff{"dim": 1, "points": [[0.0], [1.0]]}', encoding="utf-8")
    code, rep = run_cli(capsys, "verify", "--input", str(path))
    assert (code, rep["outcome"]) == (2, "error")
    assert rep["payload"]["message"] == (
        "invalid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)")


def _payload(capsys, *argv):
    main(list(argv))
    return json.dumps(json.loads(capsys.readouterr().out)["payload"])


def test_every_csv_and_json_path_gives_the_same_payloads(capsys, tmp_path):
    s = aeq.construct_two_simplices(6)
    rng = np.random.default_rng(6)
    rows = (s.array @ np.linalg.qr(rng.normal(size=(s.dim, s.dim)))[0]).tolist()
    comma = "".join(",".join(map(repr, row)) + "\n" for row in rows)
    space = comma.replace(",", " ")
    # the comma CSV is read by orjson, the space-separated one by the line walk
    assert serialize._json_csv_rows(comma) is not None
    assert serialize._json_csv_rows(space) is None
    paths = []
    for name, text in (("comma.csv", comma), ("space.csv", space),
                       ("set.json", json.dumps({"dim": s.dim, "points": rows}))):
        paths.append(tmp_path / name)
        paths[-1].write_text(text)
    for verb in ("verify", "certify"):
        payloads = {_payload(capsys, verb, "--input", str(p)) for p in paths}
        assert len(payloads) == 1, verb
    m = rng.random((5, 5))
    m = (m + m.T).tolist()
    comma = "".join(",".join(map(repr, row)) + "\n" for row in m)
    (tmp_path / "comma_m.csv").write_text(comma)
    (tmp_path / "space_m.csv").write_text(comma.replace(",", " "))
    for verb in ("gershgorin", "perron"):
        payloads = {_payload(capsys, verb, "--input", str(tmp_path / name))
                    for name in ("comma_m.csv", "space_m.csv")}
        assert len(payloads) == 1, verb


def test_pipeline_simplex(capsys, tmp_path):
    out = tmp_path / "simplex.json"
    main(["construct", "--kind", "simplex", "--dim", "4", "--out", str(out)])
    capsys.readouterr()
    code, rep = run_cli(capsys, "pipeline", "--input", str(out))
    assert code == 0
    assert rep["payload"]["detail"]["branch"] == "critical_ball"
    names = [st["name"] for st in rep["payload"]["detail"]["stages"]]
    assert names[0] == "verify"
    check_report(rep, "pipeline")


def test_pipeline_diameter_stage(capsys, triangle_csv):
    code, rep = run_cli(capsys, "pipeline", "--input", triangle_csv, "--diameter")
    assert code == 0
    names = [st["name"] for st in rep["payload"]["detail"]["stages"]]
    assert names[0] == "diameter_bound"


def test_pipeline_diameter_stage_failure(capsys, tmp_path):
    out = tmp_path / "wide.json"
    main(["construct", "--kind", "two-simplices", "--dim", "3", "--out", str(out)])
    capsys.readouterr()
    code, rep = run_cli(capsys, "pipeline", "--input", str(out), "--diameter")
    assert code == 1
    assert rep["outcome"] == "fail"
    stage = rep["payload"]["detail"]["stages"][0]
    assert stage["name"] == "diameter_bound" and stage["ok"] is False
    assert rep["payload"]["bound"] is None
    check_report(rep, "pipeline")


def test_weyl_command(capsys, tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    a.write_text("2 1\n1 2\n")
    b.write_text("1 0\n0 1\n")
    code, rep = run_cli(capsys, "weyl", "--a", str(a), "--b", str(b))
    assert code == 0
    assert rep["payload"]["gamma"] == pytest.approx(4.0)
    check_report(rep, "weyl")


def test_perron_command(capsys, tmp_path):
    m = tmp_path / "m.csv"
    m.write_text("1 2\n2 1\n")
    code, rep = run_cli(capsys, "perron", "--input", str(m))
    assert code == 0
    assert rep["payload"]["rho"] == pytest.approx(3.0)
    check_report(rep, "perron")

    m.write_text("0 -1\n-1 0\n")
    code, rep = run_cli(capsys, "perron", "--input", str(m))
    assert code == 1  # hypothesis violation, not a usage error
    assert rep["outcome"] == "fail"


@pytest.mark.parametrize("command", ["weyl", "perron", "gershgorin"])
def test_matrix_commands_reject_a_non_square_csv(capsys, tmp_path, command):
    m = tmp_path / "m.csv"
    m.write_text("1 2 3\n4 5 6\n")
    square = tmp_path / "square.csv"
    square.write_text("1 0\n0 1\n")
    argv = ["--a", str(m), "--b", str(square)] if command == "weyl" else ["--input", str(m)]
    code, rep = run_cli(capsys, command, *argv)
    assert (code, rep["outcome"]) == (2, "error")
    assert rep["payload"]["message"] == "matrix CSV must be square, got 2 rows of 3"


def test_weyl_rejects_matrices_of_different_sizes(capsys, tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    a.write_text("2 1\n1 2\n")
    b.write_text("1 0 0\n0 1 0\n0 0 1\n")
    code, rep = run_cli(capsys, "weyl", "--a", str(a), "--b", str(b))
    assert (code, rep["outcome"]) == (2, "error")
    assert rep["payload"]["message"] == "matrices must have equal shape, got 2 x 2 and 3 x 3"


@pytest.mark.parametrize("command, message", [
    ("gershgorin", "row sums overflow the float range"),
    ("perron", "eigenvalues overflow the float range"),
    ("weyl", "eigenvalues overflow the float range"),
], ids=["gershgorin", "perron", "weyl"])
def test_a_result_past_the_float_range_is_a_usage_error(capsys, tmp_path, command, message):
    m = tmp_path / "big.csv"
    m.write_text("1e308,1e308\n1e308,1e308\n")
    argv = ["--a", str(m), "--b", str(m)] if command == "weyl" else ["--input", str(m)]
    with np.errstate(over="ignore", invalid="ignore"):
        code = main([command, *argv])
    out, err = capsys.readouterr()
    assert err == f"aeq: {message}\n"
    rep = json.loads(out)
    assert (code, rep["outcome"]) == (2, "error")
    assert rep["payload"]["message"] == message
    check_report(rep, command)


@pytest.mark.parametrize("command", ["gershgorin", "perron", "weyl"])
def test_a_matrix_past_the_float_range_prints_no_numpy_warning(tmp_path, command):
    m = tmp_path / "big.csv"
    m.write_text("1e308,1e308\n1e308,1e308\n")
    argv = ["--a", str(m), "--b", str(m)] if command == "weyl" else ["--input", str(m)]
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(aeq.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-m", "aeq.cli", command, *argv],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 2
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("aeq: ")


@pytest.mark.parametrize("command, mode, far", [
    ("certify", "float", 1e200), ("pipeline", "float", 1e200), ("certify", "exact", "1e200"),
], ids=["certify-float", "pipeline-float", "certify-exact"])
def test_a_defect_matrix_past_the_float_range_is_a_usage_error(capsys, tmp_path, command,
                                                               mode, far):
    # one pair, so no triangle: the triple check passes and the spectral layer
    # meets a squared distance of 1e400, past the float range
    path = tmp_path / "far.json"
    path.write_text(json.dumps({"dim": 1, "mode": mode, "points": [[0], [far]]}))
    with np.errstate(over="ignore", invalid="ignore"):
        code = main([command, "--input", str(path)])
    out, err = capsys.readouterr()
    message = "matrix entries must be finite"
    assert err == f"aeq: {message}\n"
    rep = json.loads(out)
    assert (code, rep["outcome"]) == (2, "error")
    assert rep["payload"]["message"] == message
    check_report(rep, command)


@pytest.mark.parametrize("argv", [
    ["pipeline"], ["bounds", "--theorem", "general", "--dim", "1", "--exact"],
], ids=["pipeline", "bounds-general"])
def test_an_exact_norm_band_past_the_float_range_is_a_usage_error(capsys, tmp_path, argv):
    # the squared norms of the recentred pair, 2.5e399, have no float
    path = tmp_path / "far.json"
    path.write_text(json.dumps({"dim": 1, "mode": "exact", "points": [[0], ["1e200"]]}))
    code = main([*argv, "--input", str(path)])
    out, err = capsys.readouterr()
    message = "norm band values overflow the float range"
    assert err == f"aeq: {message}\n"
    rep = json.loads(out)
    assert (code, rep["outcome"]) == (2, "error")
    assert rep["payload"]["message"] == message
    check_report(rep, argv[0])


@pytest.mark.parametrize("argv, message", [
    (["bounds", "--dim", "1", "--theorem", "diameter"],
     "squared diameter past the float range exceeds 1"),
    (["bounds", "--dim", "1", "--theorem", "sphere", "--radius", "0.5"],
     "points do not lie on the stated sphere: |norm^2 - r^2| up to past the float range"),
    (["bounds", "--dim", "1", "--theorem", "ball", "--c0", "0"],
     "enclosing radius past the float range exceeds the stated ball radius 0.707106781187"),
    (["pipeline", "--diameter"], "squared diameter past the float range exceeds 1"),
], ids=["diameter", "sphere", "ball", "pipeline-diameter"])
def test_an_exact_check_past_the_float_range_fails_with_its_own_message(capsys, tmp_path, argv,
                                                                       message):
    # the squared diameter 1e800, the squared norm 1e800 and the enclosing
    # radius 5e399 have no float; each check decides on the exact value
    path = tmp_path / "far.json"
    path.write_text(json.dumps({"dim": 1, "mode": "exact", "points": [["0"], ["1e400"]]}))
    code = main([*argv, "--exact", "--input", str(path)])
    out, err = capsys.readouterr()
    rep = json.loads(out)
    assert (code, rep["outcome"]) == (1, "fail")
    jsonschema.validate(rep, load_schema("run_report"))
    if argv[0] == "pipeline":
        check_report(rep, "pipeline")
        assert rep["payload"]["detail"]["stages"] == [
            {"name": "diameter_bound", "ok": False, "error": message}]
    else:
        assert err == f"aeq: {message}\n"
        assert rep["payload"] == {"message": message}


@pytest.mark.parametrize("command, mode, far", [
    ("certify", "float", 1e200), ("pipeline", "float", 1e200), ("certify", "exact", "1e200"),
    ("pipeline", "exact", "1e200"),
], ids=["certify-float", "pipeline-float", "certify-exact", "pipeline-exact"])
def test_a_point_set_past_the_float_range_prints_no_numpy_warning(tmp_path, command, mode, far):
    path = tmp_path / "far.json"
    path.write_text(json.dumps({"dim": 1, "mode": mode, "points": [[0], [far]]}))
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(aeq.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-m", "aeq.cli", command, "--input", str(path)],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 2
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("aeq: "), proc.stderr


def assert_payload(rep, want):
    assert rep["payload"] == want
    assert list(rep["payload"]) == list(want)  # the report keeps the payload's key order


def test_pipeline_diameter_failure_payload(capsys, tmp_path):
    line = tmp_path / "line.csv"
    line.write_text("0.0\n1.0\n2.0\n")  # almost equidistant, diameter 2
    code, rep = run_cli(capsys, "pipeline", "--input", str(line), "--diameter")
    assert code == 1 and rep["outcome"] == "fail"
    assert_payload(rep, {
        "theorem": "general", "dim": 1, "params": {}, "bound": None, "n_observed": 3,
        "satisfied": False, "detail": {"stages": [
            {"name": "diameter_bound", "ok": False,
             "error": "diameter 2 exceeds 1 + dist_tol"}]},
    })


@pytest.mark.parametrize("command", ["verify", "certify"])
def test_triple_check_failure_payload(capsys, collinear_csv, command):
    code, rep = run_cli(capsys, command, "--input", collinear_csv)
    assert code == 1 and rep["outcome"] == "fail"
    assert_payload(rep, {"n": 3, "dim": 1, "almost_equidistant": False, "witness": [0, 1, 2]})


def test_verify_pass_payload(capsys, triangle_csv):
    code, rep = run_cli(capsys, "verify", "--input", triangle_csv)
    assert code == 0
    assert_payload(rep, {"n": 3, "dim": 2, "almost_equidistant": True, "witness": None})


def test_weyl_and_perron_payloads(capsys, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    a.write_text("2 0\n0 1\n")
    b.write_text("1 0\n0 3\n")
    code, rep = run_cli(capsys, "weyl", "--a", str(a), "--b", str(b))
    assert code == 0
    assert_payload(rep, {"alpha": 2.0, "beta": 3.0, "gamma": 4.0, "holds": True})
    code, rep = run_cli(capsys, "perron", "--input", str(b))
    assert code == 0
    assert_payload(rep, {"rho": 3.0, "attained": True})
    b.write_text("1 0\n0 -3\n")
    code, rep = run_cli(capsys, "perron", "--input", str(b))
    assert code == 1 and rep["outcome"] == "fail"
    assert_payload(rep, {"message": "matrix has a negative entry"})


def test_nonfinite_matrix_csv_is_usage_error(capsys, tmp_path):
    m = tmp_path / "m.csv"
    m.write_text("nan,1\n1,0\n")
    for verb in ("gershgorin", "perron"):
        code, rep = run_cli(capsys, verb, "--input", str(m))
        assert code == 2 and rep["outcome"] == "error"
        assert "line 1: entries must be finite" in rep["payload"]["message"]


def test_gershgorin_command(capsys, tmp_path):
    m = tmp_path / "m.csv"
    m.write_text("0 1.2\n1.2 0\n")
    code, rep = run_cli(capsys, "gershgorin", "--input", str(m))
    assert code == 0
    assert rep["payload"]["bound"] == pytest.approx(1.2)
    check_report(rep, "gershgorin")


def test_reports_are_byte_stable(capsys, triangle_csv):
    main(["verify", "--input", triangle_csv])
    first = capsys.readouterr().out
    main(["verify", "--input", triangle_csv])
    second = capsys.readouterr().out
    assert first == second


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("aeq ")


def test_cached_parser_gives_identical_reports(capsys, tmp_path, triangle_csv, rhombus_json,
                                               corpus_path):
    simplex = tmp_path / "simplex.json"
    simplex.write_text(dumps_report(aeq.pointset_to_dict(aeq.construct_simplex(4, 3))))
    argvs = [
        ["verify", "--input", triangle_csv],
        ["certify", "--input", triangle_csv, "--tol", "1e-7"],
        ["pipeline", "--input", str(simplex), "--diameter"],
        ["verify", "--input", rhombus_json, "--exact"],
        ["bounds", "--theorem", "sphere", "--dim", "3", "--radius", "0.5"],
        ["certify", "--input", triangle_csv, "--eig-tol", "1e-6", "--format", "csv"],
        ["search", "--dim", "2", "--n", "4", "--restarts", "2", "--iters", "50"],
        ["tdrank", "--n", "5", "--graphs", str(corpus_path)],
        ["search", "--dim", "2", "--n", "4", "--tol=-1"],
        ["pipeline", "--input", rhombus_json],
    ]

    def reports(fresh_parser):
        out = []
        for argv in argvs:
            if fresh_parser:
                build_parser.cache_clear()
            code = main(argv)
            out.append((code, capsys.readouterr().out))
        return out

    fresh = reports(fresh_parser=True)
    assert [code for code, _ in fresh] == [0, 0, 0, 0, 0, 0, 0, 0, 2, 0]
    assert reports(fresh_parser=False) == fresh
    assert build_parser() is build_parser()


def test_float_audits_never_build_the_tuple_view(capsys, tmp_path, monkeypatch):
    built = []
    view = aeq.PointSet.points.func
    monkeypatch.setattr(aeq.PointSet, "points", property(lambda s: built.append(s) or view(s)))
    two = aeq.construct_two_simplices(4).array
    bent = two.copy()
    bent[0] += 0.05
    inputs = {}
    for name, x in (("two", two), ("bent", bent), ("simplex", aeq.construct_simplex(5, 4).array)):
        inputs[name + ".json"] = dumps_report({"dim": x.shape[1], "points": x.tolist()})
        inputs[name + ".csv"] = "".join(",".join(map(repr, row)) + "\n" for row in x.tolist())
    for name, text in inputs.items():
        path = tmp_path / name
        path.write_text(text)
        for verb in (["verify"], ["certify"], ["pipeline"], ["pipeline", "--diameter"]):
            main([*verb, "--input", str(path)])
            assert json.loads(capsys.readouterr().out)["outcome"] in ("pass", "fail")
    assert built == []


def test_scipy_optimize_is_imported_only_by_a_search(tmp_path):
    pts = tmp_path / "triangle.csv"
    pts.write_text("0.0, 0.0\n1.0, 0.0\n0.5, 0.8660254037844386\n")
    code = (
        "import sys, aeq, aeq.cli\n"
        f"assert aeq.cli.main(['verify', '--input', {str(pts)!r}]) == 0\n"
        "assert 'scipy.optimize' not in sys.modules\n"
        "assert aeq.cli.main(['search', '--dim', '2', '--n', '4', '--restarts', '1',"
        " '--iters', '20']) in (0, 1)\n"
        "assert 'scipy.optimize' in sys.modules\n"
    )
    src = pathlib.Path(aeq.__file__).resolve().parents[1]
    path = os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, "PYTHONPATH": path}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("argv, message", [
    (["--n", "1"], "need at least 2 vertices for a second eigenvalue"),
    (["--n", "0", "--exact-rank"], "need at least 2 vertices for a second eigenvalue"),
    (["--n", "13", "--exact-rank"], "exact mode supports at most 12 vertices"),
    (["--n", "13", "--exact"], "exact mode supports at most 12 vertices"),
])
def test_tdrank_vertex_count_out_of_range_is_usage_error(capsys, tmp_path, argv, message):
    # checked before the graph file is read: this one does not exist
    code, rep = run_cli(capsys, "tdrank", *argv, "--graphs", str(tmp_path / "absent.txt"))
    assert code == 2 and rep["outcome"] == "error"
    assert rep["payload"]["message"] == message
    check_report(rep, "tdrank")


def test_tdrank_triangle_is_a_failed_check(capsys, tmp_path):
    graphs = tmp_path / "k3.txt"
    graphs.write_text("3 2 0 1 1 2\n3 3 0 1 1 2 0 2\n")
    for flag in ([], ["--exact-rank"]):
        code, rep = run_cli(capsys, "tdrank", "--n", "3", "--graphs", str(graphs), *flag)
        assert code == 1 and rep["outcome"] == "fail"
        assert rep["payload"]["message"] == "graph 1 contains triangle (0, 1, 2)"


@pytest.mark.parametrize("n", ["4", "7"])
def test_tdrank_exact_rows_do_not_read_eig_tol(capsys, corpus_path, n):
    def payload(*flags):
        code, rep = run_cli(capsys, "tdrank", "--n", n, "--graphs", str(corpus_path), *flags)
        assert code == 0
        return rep["payload"]

    exact = [payload("--exact-rank", *tol) for tol in ([], ["--eig-tol", "1e-12"],
                                                       ["--eig-tol", "1"])]
    assert exact[0] == exact[1] == exact[2]
    assert any(row["lambda2_positive"] for row in exact[0]["rows"])
    assert any(0 < row["lambda2"] < 1 for row in exact[0]["rows"])  # float rows flip at 1
    plain = payload()
    assert [row["lambda2"] for row in plain["rows"]] == [row["lambda2"] for row in exact[0]["rows"]]
    for key in ("multiplicity", "rank", "lambda2_positive"):
        assert [row[key] for row in plain["rows"]] == [row[key] for row in exact[0]["rows"]]
    assert (plain["min_rank"], plain["argmin"]) == (exact[0]["min_rank"], exact[0]["argmin"])
