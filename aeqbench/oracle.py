"""Expected results of every job, computed without the code under test.

The oracle reads the input files with its own parser and decides the
triple condition with scipy's ``pdist`` and a boolean matrix product (float
inputs) or with Fractions (exact inputs), at the CLI's default distance
tolerance. ``check_job`` compares one job's exit code and report with that
truth and returns the list of mismatches; an empty list means the job
passed.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Optional

import numpy as np
from scipy.spatial.distance import pdist, squareform

DIST_TOL = 1e-9  # the CLI default --tol, on squared distances
EIG_TOL = 1e-8
CRITICAL_RADIUS = 1.0 / math.sqrt(2.0)
EXIT = {"pass": 0, "fail": 1, "infeasible": 1, "error": 2}


@dataclass
class Truth:
    """What the oracle knows about one point set."""

    n: int
    dim: int
    nonunit: np.ndarray  # (n, n) bool, pairs not at unit distance
    ae: bool  # every triple holds a unit pair
    diameter_over_one: bool
    critical: Optional[bool]  # recentred set inside the critical ball; None if too close to call
    ball_radius: Optional[float]  # smallest enclosing radius when certified by a diametral pair
    ball_range: tuple  # (lower, upper) bounds on the smallest enclosing radius


def read_points(path: Path):
    """(exact, rows): float ndarray, or a list of Fraction rows."""
    text = path.read_text()
    if path.suffix == ".csv":
        rows = [[float(t) for t in line.replace(",", " ").split()]
                for line in text.splitlines() if line.strip()]
        return False, np.array(rows, dtype=float)
    obj = json.loads(text)
    if obj.get("mode") == "exact":
        return True, [[Fraction(c) for c in row] for row in obj["points"]]
    return False, np.array(obj["points"], dtype=float)


def _has_triangle(nonunit: np.ndarray) -> bool:
    a = nonunit.astype(np.float64)
    return bool(((a @ a) * a).any())


def truth_of(path: Path) -> Truth:
    exact, pts = read_points(path)
    if exact:
        n, dim = len(pts), len(pts[0])
        d2 = [[sum((a - b) ** 2 for a, b in zip(p, q)) for q in pts] for p in pts]
        nonunit = np.array([[i != j and d2[i][j] != 1 for j in range(n)] for i in range(n)])
        worst = max(max(row) for row in d2)
        over = worst > 1
        centre = [sum(col) / n for col in zip(*pts)]
        excess = max(sum((a - c) ** 2 for a, c in zip(p, centre)) for p in pts) - Fraction(1, 2)
        critical = excess <= 0 or float(excess) <= 1e-12
        i, j = next((i, j) for i in range(n) for j in range(n) if d2[i][j] == worst)
        mid = [(a + b) / 2 for a, b in zip(pts[i], pts[j])]
        r2 = worst / 4
        far2 = max(sum((a - m) ** 2 for a, m in zip(p, mid)) for p in pts)
        far_c2 = max(sum((a - c) ** 2 for a, c in zip(p, centre)) for p in pts)
        ball = math.sqrt(r2) if far2 <= r2 else None
        ball_range = (math.sqrt(r2), math.sqrt(far_c2))
    else:
        x = pts
        n, dim = x.shape
        d2 = squareform(pdist(x, "sqeuclidean"))
        dev = np.abs(d2 - 1.0)
        nonunit = dev > DIST_TOL
        np.fill_diagonal(nonunit, False)
        over = bool(d2.max() > 1.0 + DIST_TOL)
        centred = x - x.mean(axis=0)
        excess = float(np.einsum("ij,ij->i", centred, centred).max()) - 0.5
        critical = None if abs(excess - DIST_TOL) < 1e-11 else excess <= DIST_TOL
        i, j = np.unravel_index(int(d2.argmax()), d2.shape)
        mid = (x[i] + x[j]) / 2
        r = math.sqrt(float(d2[i, j])) / 2
        far = math.sqrt(float(((x - mid) ** 2).sum(axis=1).max()))
        far_c = math.sqrt(float((centred ** 2).sum(axis=1).max()))
        ball = r if far <= r * (1 + 1e-12) else None
        ball_range = (r, far_c)
    return Truth(n=n, dim=dim, nonunit=nonunit, ae=not _has_triangle(nonunit),
                 diameter_over_one=over, critical=critical, ball_radius=ball,
                 ball_range=ball_range)


def min_ranks(graph_file: Path) -> dict:
    """n -> minimum of n - mult(lambda2) over triangle-free graphs with lambda2 > 0."""
    best: dict = {}
    counts: dict = {}
    for line in graph_file.read_text().splitlines():
        if not line.strip() or line.startswith("#"):
            continue
        nums = [int(t) for t in line.split()]
        n, m = nums[0], nums[1]
        counts[n] = counts.get(n, 0) + 1
        if n < 2:
            continue
        a = np.zeros((n, n))
        for u, v in zip(nums[2:2 + 2 * m:2], nums[3:3 + 2 * m:2]):
            a[u, v] = a[v, u] = 1.0
        vals = np.sort(np.linalg.eigvalsh(a))[::-1]
        lam2 = vals[1]
        if lam2 <= EIG_TOL:
            continue
        rank = n - int(np.sum(np.abs(vals - lam2) <= 1e-6))
        best[n] = min(best.get(n, rank), rank)
    return {n: (best.get(n), counts[n]) for n in counts}


class Oracle:
    """Caches the truth of each input file and checks job results."""

    def __init__(self, workdir: Path, graph_file: Optional[Path] = None):
        self.workdir = workdir
        self.graph_file = graph_file
        self._truth: dict = {}
        self._ranks: Optional[dict] = None

    def truth(self, name: str) -> Truth:
        if name not in self._truth:
            self._truth[name] = truth_of(self.workdir / name)
        return self._truth[name]

    def prepare(self, jobs) -> None:
        """Compute every truth up front, outside the timed passes."""
        for job in jobs:
            if job["input"] and "exit" not in job["expect"]:
                self.truth(job["input"])
        if any(job["id"].startswith("tdrank:") for job in jobs):
            self._ranks = min_ranks(self.graph_file)

    def check_job(self, job, rc, report) -> list:
        """Mismatches between one job's result and the truth."""
        expect = job["expect"]
        if not isinstance(report, dict) or not {"command", "outcome", "payload"} <= set(report):
            return [f"no run report (exit {rc})"]
        outcome, payload = report["outcome"], report["payload"]
        errs = []
        if EXIT.get(outcome) != rc:
            errs.append(f"outcome {outcome!r} does not match exit {rc}")
        if "exit" in expect:
            if rc != expect["exit"]:
                errs.append(f"exit {rc}, expected {expect['exit']} ({outcome})")
            return errs
        kind = job["id"].split(":", 1)[0]
        try:
            if kind == "search":
                errs += self._search(job, rc, outcome, payload)
            elif kind == "tdrank":
                errs += self._tdrank(expect["n"], rc, payload)
            else:
                errs += self._pointset(kind, self.truth(job["input"]), job, rc, payload)
        except (KeyError, TypeError, ValueError, IndexError) as e:
            errs.append(f"malformed payload: {type(e).__name__}: {e}")
        return errs

    # -------------------------------------------------------- point sets

    def _witness(self, t: Truth, witness) -> list:
        if not isinstance(witness, list) or len(set(witness)) != 3:
            return [f"bad witness {witness!r}"]
        i, j, k = witness
        if not all(0 <= v < t.n for v in witness):
            return [f"witness {witness} out of range"]
        if not (t.nonunit[i, j] and t.nonunit[i, k] and t.nonunit[j, k]):
            return [f"witness {witness} contains a unit pair"]
        return []

    def _pointset(self, kind, t: Truth, job, rc, p) -> list:
        if kind == "ball":
            return self._ball(t, rc, p)
        if kind == "pipeline-diameter" and t.diameter_over_one:
            stage = p["detail"]["stages"][0]
            ok = rc == 1 and stage["name"] == "diameter_bound" and stage["ok"] is False
            return [] if ok else [f"diameter > 1 must fail the first stage (exit {rc})"]
        if not t.ae:
            if rc != 1:
                return [f"exit {rc} on a set that is not almost equidistant"]
            if kind in ("verify", "certify"):
                if p["almost_equidistant"] is not False:
                    return ["almost_equidistant should be false"]
                return self._witness(t, p["witness"])
            return []
        if rc != 0:
            return [f"exit {rc} on an almost-equidistant set"]
        if kind == "verify":
            ok = p["almost_equidistant"] is True and p["witness"] is None
            ok = ok and (p["n"], p["dim"]) == (t.n, t.dim)
            return [] if ok else ["verify payload disagrees"]
        if kind == "certify":
            errs = []
            if (p["n"], p["dim"]) != (t.n, t.dim):
                errs.append("certificate n/dim disagree")
            if p["lemma1_holds"] is not True:
                errs.append("lemma1_holds is not true")
            if p["count_gt_one"] > 1:
                errs.append(f"count_gt_one = {p['count_gt_one']} > 1")
            if p["count_eq_one"] < t.n - t.dim - 2:
                errs.append(f"count_eq_one = {p['count_eq_one']} < n - d - 2")
            return errs
        # pipeline, with or without the diameter stage
        errs = []
        if p["n_observed"] != t.n or p["satisfied"] is not True:
            errs.append("pipeline n_observed/satisfied disagree")
        if t.critical:
            if p["detail"].get("branch") != "critical_ball" or p["bound"] != 2 * t.dim + 4:
                errs.append(f"critical ball must give bound 2d+4, got {p['bound']!r}")
        if kind == "pipeline-diameter" and p["detail"]["stages"][0] != {
                "name": "diameter_bound", "ok": True}:
            errs.append("diameter stage should pass")
        return errs

    def _ball(self, t: Truth, rc, p) -> list:
        lo, hi = t.ball_range
        if lo > CRITICAL_RADIUS + 1e-12:
            return [] if rc == 1 else ["a set wider than the ball must fail"]
        if rc != 0 or p["n_observed"] != t.n or p["satisfied"] is not True:
            return [f"ball bound disagrees (exit {rc})"]
        r = p["detail"]["mer_radius"]
        if t.ball_radius is not None:
            if abs(r - t.ball_radius) > 1e-9:
                return [f"enclosing radius {r!r}, expected {t.ball_radius!r}"]
        elif not lo - 1e-9 <= r <= hi + 1e-9:
            return [f"enclosing radius {r!r} outside [{lo}, {hi}]"]
        return []

    # ------------------------------------------------------------ search

    def _search(self, job, rc, outcome, p) -> list:
        expect = job["expect"]
        argv = job["argv"]
        n, dim = int(argv[argv.index("--n") + 1]), int(argv[argv.index("--dim") + 1])
        if expect.get("infeasible"):
            ok = outcome == "infeasible" and p["feasible"] is False
            return [] if ok else [f"search must be infeasible, got {outcome}"]
        if outcome != "pass" or p["feasible"] is not True:
            return [f"search outcome {outcome}, expected a feasible set"]
        errs = []
        if "restart_index" in expect and p["restart_index"] != expect["restart_index"]:
            errs.append(f"restart_index {p['restart_index']}, expected {expect['restart_index']}")
        x = np.array(p["best_points"]["points"], dtype=float)
        if x.shape != (n, dim):
            return errs + [f"best_points shape {x.shape}"]
        tol = math.sqrt(1e-18)  # the search certifies at sqrt(penalty_tol)
        d2 = squareform(pdist(x, "sqeuclidean"))
        nonunit = np.abs(d2 - 1.0) > tol
        np.fill_diagonal(nonunit, False)
        if _has_triangle(nonunit):
            errs.append("best_points fail the triple check")
        cert = p["certificate"]
        if not cert or cert["lemma1_holds"] is not True:
            errs.append("feasible search without a holding certificate")
        if expect.get("diameter_cap") and d2.max() > 1.0 + tol:
            errs.append(f"diameter^2 {d2.max()!r} exceeds 1")
        if "sphere_radius" in expect:
            dev = np.abs(np.einsum("ij,ij->i", x, x) - expect["sphere_radius"] ** 2).max()
            if dev > tol:
                errs.append(f"points off the sphere by {dev:.3g}")
        return errs

    def _tdrank(self, n, rc, p) -> list:
        want, count = self._ranks[n]
        if rc != 0:
            return [f"tdrank exit {rc}"]
        errs = []
        if p["min_rank"] != want:
            errs.append(f"min_rank {p['min_rank']!r}, expected {want!r}")
        if len(p["rows"]) != count:
            errs.append(f"{len(p['rows'])} rows, expected {count}")
        return errs
