"""Seeded inputs and job lists of the four workloads.

``build_workload`` writes every input file of one workload into a work
directory and returns its jobs. The seed drives rotations, translations,
point orders and perturbations; the shape of each workload (which families,
which sizes, which subcommands) is fixed, so every seed asks for the same
amount of work. A job is a plain dict:

- ``id``: unique name, ``<kind>:<input>``;
- ``argv``: the arguments handed to ``aeq.cli.main``;
- ``input``: the input file name inside the work directory, or None;
- ``expect``: what ``oracle.check_job`` compares the report with;
- ``known_defect``: the name of a documented defect of the program that
  makes this job fail today (see README.md), or None;
- ``limit_s``: the job fails when it runs longer;
- ``timed``: False for a job that ends at its limit today; it runs once
  per run and its time, the limit, counts in no time metric.
"""
from __future__ import annotations

import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np

from aeq import constructions

WORKLOADS = ("certify-large", "screen", "search", "exact")
SCALES = ("full", "small")

# known defects of the program that the benchmark keeps on purpose
NONFINITE = "nonfinite-input"  # nan/inf coordinates pass instead of exit 2
ZERO_DENOMINATOR = "zero-denominator"  # "1/0" exits 1 instead of exit 2
WELZL_BLOWUP = "welzl-blowup"  # enclosing ball runs orders of magnitude too long

# The slowest correct job takes about 6 s on two vCPUs, twice that when the
# machine is busy; a job past the limit has gone wrong.
JOB_LIMIT_S = 30.0
# The enclosing balls here finish within 1 s, or take 20 s and more (the
# WELZL_BLOWUP jobs).
BALL_LIMIT_S = 5.0

# The exact enclosing ball of cross24 with row 33 (or 34) pulled 1/7 of the
# way in takes 22 s; with any of the other 46 rows, 0.06 s.
WELZL_ROW = (24, 33)

CRITICAL_RADIUS = 1.0 / math.sqrt(2.0)
GRAPH_FILE = Path("tests") / "data" / "triangle_free_upto8.txt"


def build_workload(workload: str, seed: int, scale: str, workdir: Path, root: Path) -> list:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    if scale not in SCALES:
        raise ValueError(f"unknown scale {scale!r}")
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    workdir.mkdir(parents=True, exist_ok=True)
    small = scale == "small"
    if workload == "certify-large":
        return _certify_large(rng, small, workdir)
    if workload == "screen":
        return _screen(rng, small, workdir)
    if workload == "search":
        return _search(seed, small)
    return _exact(rng, small, workdir, root)


def _job(kind, name, argv, input_name=None, known_defect=None, **expect):
    return {
        "id": f"{kind}:{name}",
        "argv": [str(a) for a in argv],
        "input": input_name,
        "expect": expect,
        "known_defect": known_defect,
        "limit_s": BALL_LIMIT_S if kind == "ball" else JOB_LIMIT_S,
        "timed": known_defect != WELZL_BLOWUP,
    }


# ---------------------------------------------------------------- inputs


def _place(x: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Random rotation, translation and point order of an (n, d) array.

    Rotation matters: axis-aligned constructions carry exact zeros that
    real inputs lack.
    """
    n, d = x.shape
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    q *= np.sign(np.diag(r))
    y = x @ q + rng.standard_normal(d)
    return y[rng.permutation(n)]


def _perturb(x: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Move one random point by 0.05 in a random direction."""
    y = x.copy()
    u = rng.standard_normal(x.shape[1])
    y[rng.integers(len(y))] += 0.05 * u / np.linalg.norm(u)
    return y


def _write_json(path: Path, x: np.ndarray) -> None:
    path.write_text(json.dumps({"dim": x.shape[1], "mode": "float", "points": x.tolist()}))


def _write_csv(path: Path, x: np.ndarray) -> None:
    path.write_text("".join(",".join(repr(c) for c in row) + "\n" for row in x.tolist()))


def _write_exact(path: Path, rows) -> None:
    pts = [[str(c) for c in row] for row in rows]
    path.write_text(json.dumps({"dim": len(rows[0]), "mode": "exact", "points": pts}))


def _cross_rows(d: int) -> list:
    """The 2d rows +-(e_2k +- e_2k+1)/2 of R^d (d even), exact.

    They lie on the critical sphere of radius 1/sqrt(2); the only pairs not
    at unit distance are antipodal, so the set is almost equidistant.
    """
    h = Fraction(1, 2)
    rows = []
    for k in range(0, d, 2):
        for a in (h, -h):
            for b in (h, -h):
                row = [Fraction(0)] * d
                row[k], row[k + 1] = a, b
                rows.append(row)
    return rows


def _pointset_jobs(name, path, verbs, extra=()):
    return [_job(verb, name, [verb, "--input", path, *extra], path.name) for verb in verbs]


# ------------------------------------------------------------- workloads


def _certify_large(rng, small, workdir):
    ts_dims = (3, 5, 8) if small else (50, 250, 500)
    ros_dim = 5 if small else 250
    sx_dim = 5 if small else 250
    sets = [(f"ts{d}", constructions.construct_two_simplices(d).array) for d in ts_dims]
    sets.append((f"ros{ros_dim}", constructions.construct_rosenfeld(ros_dim).array))
    sets.append((f"sx{sx_dim + 1}", constructions.construct_simplex(sx_dim + 1, sx_dim).array))
    jobs = []
    paths = {}
    for name, x in sets:
        path = workdir / f"{name}.json"
        _write_json(path, _place(x, rng))
        paths[name] = path
        jobs += _pointset_jobs(name, path, ("verify", "certify", "pipeline"))
    sx_name, big_ts = sets[-1][0], f"ts{ts_dims[-1]}"
    for name in (sx_name, big_ts):  # the simplex fits the unit diameter, the big set does not
        jobs.append(_job("pipeline-diameter", name,
                         ["pipeline", "--diameter", "--input", paths[name]], paths[name].name))
    # The enclosing ball runs on the constructions as `aeq construct` writes
    # them: Welzl's recursion time swings by orders of magnitude with the
    # rotation and the point order, which would make wall_s and failed_ratio
    # functions of the seed (README.md, known defects).
    ball_dims = ((ts_dims[0], None), (ts_dims[1], None)) if small else (
        (50, None), (80, WELZL_BLOWUP))
    for d, defect in ball_dims:
        name = f"ts{d}-axis"
        path = workdir / f"{name}.json"
        _write_json(path, constructions.construct_two_simplices(d).array)
        jobs.append(_job("ball", name, ["bounds", "--theorem", "ball", "--c0", "0", "--dim", d,
                                        "--input", path], path.name, known_defect=defect))
    return jobs


def _screen_set(i: int, n: int):
    family = i % 4
    if family == 0:
        d = max(2, (n - 2) // 2)
        return f"ts{d}", constructions.construct_two_simplices(d).array
    if family == 1:
        d = max(2, n // 2)
        return f"ros{d}", constructions.construct_rosenfeld(d).array
    if family == 2:
        return f"sx{n}", constructions.construct_simplex(n, n - 1).array
    d = 2 * max(1, n // 4)
    return f"cross{d}", np.array(_cross_rows(d), dtype=float)


def _screen(rng, small, workdir):
    count = 12 if small else 240
    jobs = []
    specs = [(-1, "ros40" if not small else "ros5",
              constructions.construct_rosenfeld(5 if small else 40).array)]
    for i in range(count):
        n = 10 + (i * 7) % 20 if small else 10 + (i * 37) % 111
        specs.append((i, *_screen_set(i, n)))
    for i, family, x in specs:
        y = _place(x, rng)
        if i >= 0 and (i // 4) % 2 == 1:  # about half fail the triple check early
            y = _perturb(y, rng)
        name = f"{i + 1:03d}-{family}"
        if (i // 2) % 2 == 0:
            path = workdir / f"{name}.json"
            _write_json(path, y)
        else:
            path = workdir / f"{name}.csv"
            _write_csv(path, y)
        jobs += _pointset_jobs(name, path, ("verify", "certify"))
    malformed = [
        ("nan.csv", "0,0\n1,0\nnan,nan\n", NONFINITE),
        ("inf.csv", "0,0\n1,0\ninf,0\n", NONFINITE),
        ("zero-denominator.json",
         '{"dim": 2, "mode": "exact", "points": [["0", "0"], ["1", "0"], ["1/0", "0"]]}',
         ZERO_DENOMINATOR),
        ("ragged.json", '{"dim": 2, "mode": "float", "points": [[0, 0], [1, 0], [0.5]]}', None),
    ]
    for fname, text, defect in malformed:
        path = workdir / f"malformed-{fname}"
        path.write_text(text)
        for verb in ("verify", "certify"):
            jobs.append(_job(verb, path.name, [verb, "--input", path], path.name,
                             known_defect=defect, exit=2))
    return jobs


def _search(seed, small):
    """The frozen configuration runs at the workload seed; it finds a set at
    every seed tried. The other three keep the CLI's default seed, at which
    they find a set: how long a search runs depends on its seed, and a fixed
    seed keeps their share of the work the same in every run. The small
    scale searches for 6 points in the plane, which two restarts find."""
    short = ["--restarts", 2, "--iters", 200] if small else []
    frozen = ["--n", 6, *short] if small else ["--n", 7, "--restarts", 24, "--iters", 1500]
    expect = {"restart_index": 2} if seed == 7 and not small else {}
    return [
        _job("search", "frozen", ["search", "--dim", 2, *frozen, "--seed", seed], **expect),
        _job("search", "plane-8", ["search", "--dim", 2, "--n", 8, *(short or ["--restarts", 4])],
             infeasible=True),
        _job("search", "diameter", ["search", "--dim", 3, "--n", 6, "--diameter-le-1",
                                    *(short or ["--restarts", 4])], diameter_cap=True),
        _job("search", "sphere", ["search", "--dim", 3, "--n", 6, "--sphere-radius",
                                  repr(CRITICAL_RADIUS), *short], sphere_radius=CRITICAL_RADIUS),
    ]


def _exact(rng, small, workdir, root):
    jobs = []
    for d in ((4, 6) if small else (16, 24, 40)):
        # sevenths: the size of the Fractions, and so the work, is the same for every seed
        shift = [Fraction(int(rng.choice([-1, 1]) * rng.integers(1, 7)), 7) for _ in range(d)]
        rows = [[a + b for a, b in zip(row, shift)] for row in _cross_rows(d)]
        bent = [row[:] for row in rows]
        # pull the first point 1/7 of the way to the centre: still inside
        # the ball, no longer at unit distance from the other blocks. The
        # same point at every seed: which one is pulled sets the exact
        # ball's work (WELZL_ROW below).
        bent[0] = [c + (x - c) * Fraction(6, 7) for x, c in zip(bent[0], shift)]
        order = rng.permutation(len(rows))
        for name, pts in ((f"cross{d}", rows), (f"cross{d}-bent", bent)):
            path = workdir / f"{name}.json"
            _write_exact(path, [pts[i] for i in order])
            jobs += _pointset_jobs(name, path, ("verify", "certify", "pipeline"), ["--exact"])
            # the exact enclosing ball keeps the construction's point order,
            # as the float one does in certify-large
            path = workdir / f"{name}-ordered.json"
            _write_exact(path, pts)
            jobs.append(_job("ball", path.stem, ["bounds", "--theorem", "ball", "--c0", "0",
                                                 "--dim", d, "--exact", "--input", path],
                             path.name))
    if not small:
        d, j = WELZL_ROW
        rows = _cross_rows(d)
        rows[j] = [x * Fraction(6, 7) for x in rows[j]]
        path = workdir / f"cross{d}-row{j}-ordered.json"
        _write_exact(path, rows)
        jobs.append(_job("ball", path.stem, ["bounds", "--theorem", "ball", "--c0", "0", "--dim", d,
                                             "--exact", "--input", path],
                         path.name, known_defect=WELZL_BLOWUP))
    graphs = root / GRAPH_FILE
    ranks = ((5, True), (6, True), (6, False)) if small else ((7, True), (8, True), (8, False))
    for n, exact in ranks:
        flag = ["--exact-rank"] if exact else []
        name = f"n{n}-{'exact' if exact else 'float'}"
        jobs.append(_job("tdrank", name, ["tdrank", "--n", n, *flag, "--graphs", graphs], n=n))
    return jobs
