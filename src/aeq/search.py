"""Penalty-driven search for almost-equidistant configurations.

The objective charges every triple the squared defect of its best pair, so
a zero of the penalty is exactly an almost-equidistant set. Each restart
runs subgradient descent with per-iteration active-pair reselection and a
geometric step schedule, then an active-set Gauss-Newton polish drives the
survivors to machine precision. A descent step computes the squared
distances of its iterate once; the penalty, the active pairs and the next
gradient all read them. Restarts run one after another and are reduced by
(penalty, restart index), so results are deterministic for a fixed seed;
the generator is numpy PCG64.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from itertools import combinations
from typing import NamedTuple, Optional, Tuple

import numpy as np
from scipy.optimize import least_squares

from .bounds import conjectured_diameter_max
from .constructions import construct_rosenfeld, construct_two_simplices
from .geometry import PointSet, Tolerance, is_almost_equidistant, pairwise_squared_distances
from .spectral import SpectralCertificate, certify

INV_SQRT2 = 1.0 / math.sqrt(2.0)


@dataclass(frozen=True)
class SearchConfig:
    dim: int
    target_n: int
    restarts: int = 20
    max_iters: int = 1500
    step_start: float = 0.1
    step_end: float = 1e-6
    penalty_tol: float = 1e-18
    seed: int = 0
    diameter_cap: bool = False
    sphere_radius: Optional[float] = None
    polish_rounds: int = 8

    def __post_init__(self) -> None:
        if min(self.target_n, self.dim, self.restarts) < 1:
            raise ValueError("target_n, dim and restarts must be positive, got "
                             f"{self.target_n}, {self.dim} and {self.restarts}")
        if min(self.max_iters, self.seed) < 0:
            raise ValueError("max_iters and seed must be nonnegative, got "
                             f"{self.max_iters} and {self.seed}")
        r = self.sphere_radius
        if r is not None and not (math.isfinite(r) and r > 0):
            raise ValueError(f"sphere_radius must be finite and positive, got {r}")
        if not (math.isfinite(self.penalty_tol) and self.penalty_tol >= 0):
            raise ValueError(f"penalty_tol must be finite and nonnegative, got {self.penalty_tol}")


@dataclass(frozen=True)
class SearchResult:
    best_points: PointSet
    best_penalty: float
    feasible: bool
    iterations_used: int
    restart_index: int
    certificate: Optional[SpectralCertificate]


class _Tables(NamedTuple):
    """Index tables of one point count, built once per search."""

    pairs: np.ndarray  # (3, 2, T): pairs (i, j), (i, k), (j, k) of each triple i < j < k
    upper: Tuple[np.ndarray, np.ndarray]  # every pair i < j
    column: np.ndarray  # arange(T)


def _tables(n: int) -> _Tables:
    tri = np.array(list(combinations(range(n), 3)), dtype=int).reshape(-1, 3)
    pairs = tri.T[[[0, 1], [0, 2], [1, 2]]]
    return _Tables(pairs, np.triu_indices(n, 1), np.arange(len(tri)))


def _triple_defects(q: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    """The squared defects of the three pairs of every triple, (3, T)."""
    return q[pairs[:, 0], pairs[:, 1]] ** 2


def triple_penalty(s) -> float:
    """Sum over triples of the squared defect of the best pair; 0 below n=3."""
    x = s.array if isinstance(s, PointSet) else np.asarray(s, dtype=float)
    if len(x) < 3:
        return 0.0
    sq = _triple_defects(pairwise_squared_distances(x) - 1.0, _tables(len(x)).pairs)
    return float(sq.min(axis=0).sum())


def _constraint_penalty(x: np.ndarray, q: np.ndarray, cfg: SearchConfig, upper) -> float:
    total = 0.0
    if cfg.diameter_cap:
        total += float((np.maximum(q[upper], 0.0) ** 2).sum())
    if cfg.sphere_radius is not None:
        norms = np.einsum("ij,ij->i", x, x)
        total += float(((norms - cfg.sphere_radius ** 2) ** 2).sum())
    return total


def _evaluate(x: np.ndarray, q: np.ndarray, cfg: SearchConfig, tables: _Tables):
    """The penalty at x, and the best pair (a, b) of every triple (lowest
    pair index on ties), both from x's shifted squared distances q."""
    sq = _triple_defects(q, tables.pairs)
    choice = sq.argmin(axis=0)
    val = float(sq.min(axis=0).sum()) + _constraint_penalty(x, q, cfg, tables.upper)
    return val, tables.pairs[choice, 0, tables.column], tables.pairs[choice, 1, tables.column]


def total_penalty(x: np.ndarray, cfg: SearchConfig, tables: _Tables) -> float:
    return _evaluate(x, pairwise_squared_distances(x) - 1.0, cfg, tables)[0]


def _gradient(x, q, a, b, cfg: SearchConfig, upper) -> np.ndarray:
    """The penalty's gradient at x, given q and the active pairs (a, b)."""
    grad = np.zeros_like(x)
    coef = 4.0 * q[a, b]
    diff = x[a] - x[b]
    np.add.at(grad, a, coef[:, None] * diff)
    np.add.at(grad, b, -coef[:, None] * diff)
    if cfg.diameter_cap:
        iu, ju = upper
        viol = np.maximum(q[iu, ju], 0.0)
        mask = viol > 0
        if mask.any():
            a, b = iu[mask], ju[mask]
            coef = 4.0 * viol[mask]
            diff = x[a] - x[b]
            np.add.at(grad, a, coef[:, None] * diff)
            np.add.at(grad, b, -coef[:, None] * diff)
    if cfg.sphere_radius is not None:
        norms = np.einsum("ij,ij->i", x, x)
        grad += 4.0 * (norms - cfg.sphere_radius ** 2)[:, None] * x
    return grad


def _project(x: np.ndarray, cfg: SearchConfig) -> np.ndarray:
    if cfg.sphere_radius is not None:
        norms = np.sqrt(np.einsum("ij,ij->i", x, x))
        norms = np.where(norms < 1e-12, 1.0, norms)
        x = x * (cfg.sphere_radius / norms)[:, None]
    return x


def _initial_points(cfg: SearchConfig, restart: int, rng: np.random.Generator) -> np.ndarray:
    n, d = cfg.target_n, cfg.dim
    if restart % 2 == 0:
        x = rng.normal(size=(n, d))
        rms = math.sqrt(float(np.einsum("ij,ij->i", x, x).mean()))
        return x * (INV_SQRT2 / max(rms, 1e-12))
    # perturbed construction, truncated or padded to the target size
    if d >= 2 and restart % 4 == 3:
        base = construct_rosenfeld(d).array
    else:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            base = construct_two_simplices(d).array
    if len(base) >= n:
        x = base[:n].copy()
    else:
        extra = rng.normal(size=(n - len(base), d))
        norms = np.sqrt(np.einsum("ij,ij->i", extra, extra))
        extra = extra * (INV_SQRT2 / np.maximum(norms, 1e-12))[:, None]
        x = np.vstack([base, extra])
    if restart in (1, 3) and len(base) == n:
        return x  # first construction seed stays exact when sizes already match
    return x + 0.02 * rng.normal(size=x.shape)


def _descent(x: np.ndarray, cfg: SearchConfig, tables: _Tables) -> Tuple[np.ndarray, float, int]:
    """The best iterate, its penalty and the number of steps taken."""
    q = pairwise_squared_distances(x) - 1.0
    best_val, a, b = _evaluate(x, q, cfg, tables)
    best_x, steps = x, cfg.max_iters
    if steps <= 0:
        return best_x, best_val, 0
    decay = (cfg.step_end / cfg.step_start) ** (1.0 / max(steps - 1, 1))
    eta = cfg.step_start
    for it in range(steps):
        g = _gradient(x, q, a, b, cfg, tables.upper)
        gn = float(np.sqrt((g * g).sum()))
        if gn < 1e-300:
            break
        x = _project(x - (eta / max(1.0, gn)) * g, cfg)
        q = pairwise_squared_distances(x) - 1.0
        val, a, b = _evaluate(x, q, cfg, tables)
        if val < best_val:
            best_val, best_x = val, x
        if best_val <= cfg.penalty_tol * 0.01:
            return best_x, best_val, it + 1
        eta *= decay
    return best_x, best_val, steps


def _polish(x: np.ndarray, val: float, cfg: SearchConfig, tables: _Tables):
    """Gauss-Newton on the active pairs from x, whose penalty is val; the
    best point found and its penalty."""
    n, d = x.shape
    best_x, best_val = x, val
    prev_active = None
    for _ in range(cfg.polish_rounds):
        _, a, b = _evaluate(best_x, pairwise_squared_distances(best_x) - 1.0, cfg, tables)
        key = frozenset(zip(a.tolist(), b.tolist()))
        if key == prev_active:
            break
        prev_active = key

        def residuals(flat):
            pts = flat.reshape(n, d)
            q = pairwise_squared_distances(pts) - 1.0
            out = [q[a, b]]
            if cfg.diameter_cap:
                out.append(np.maximum(q[tables.upper], 0.0))
            if cfg.sphere_radius is not None:
                out.append(np.einsum("ij,ij->i", pts, pts) - cfg.sphere_radius ** 2)
            return np.concatenate(out)

        try:
            sol = least_squares(
                residuals,
                best_x.ravel(),
                xtol=3e-16,
                ftol=3e-16,
                gtol=3e-16,
                max_nfev=200,
            )
        except Exception:
            break
        cand = sol.x.reshape(n, d)
        val = total_penalty(cand, cfg, tables)
        if val < best_val:
            best_val, best_x = val, cand
        else:
            break
        if best_val == 0.0:
            break
    return best_x, best_val


def _run_restart(cfg: SearchConfig, restart: int, tables: _Tables):
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((cfg.seed, restart))))
    x = _project(_initial_points(cfg, restart, rng), cfg)
    x, val, iters = _descent(x, cfg, tables)
    x, val = _polish(x, val, cfg, tables)
    return val, restart, iters, x


def optimize(cfg: SearchConfig) -> SearchResult:
    """Multistart search; deterministic for a fixed config and seed."""
    tables = _tables(cfg.target_n)
    runs = [_run_restart(cfg, r, tables) for r in range(cfg.restarts)]
    penalty, restart, _, x = min(runs, key=lambda t: (t[0], t[1]))
    iterations_used = sum(r[2] for r in runs)
    best = PointSet.from_array(x)
    feasible = penalty <= cfg.penalty_tol
    certificate = None
    if feasible:
        # feasibility at penalty_tol implies per-pair squared defects at its sqrt
        dist_tol = max(math.sqrt(cfg.penalty_tol), 1e-12)
        tol = Tolerance(dist_tol=dist_tol, eig_tol=max(1e-8, dist_tol))
        if is_almost_equidistant(best, tol).ok:
            certificate = certify(best, tol)
        else:  # pragma: no cover - penalty bound makes this unreachable
            feasible = False
    return SearchResult(
        best_points=best,
        best_penalty=penalty,
        feasible=feasible,
        iterations_used=iterations_used,
        restart_index=restart,
        certificate=certificate,
    )


@dataclass(frozen=True)
class ProbeRow:
    n: int
    feasible: bool
    penalty: float


@dataclass(frozen=True)
class ProbeResult:
    dim: int
    rows: Tuple[ProbeRow, ...]
    largest_feasible: Optional[int]


def diameter_capacity_probe(d: int, base: Optional[SearchConfig] = None) -> ProbeResult:
    """Feasibility table for diameter-1 sets of increasing size.

    Scans n from d+1 up to the conjectured maximum plus 2 with the diameter
    cap enabled and reports the largest size the budget could realize.
    """
    if base is None:
        base = SearchConfig(dim=d, target_n=d + 1)
    rows = []
    largest = None
    for n in range(d + 1, conjectured_diameter_max(d) + 3):
        cfg = replace(base, dim=d, target_n=n, diameter_cap=True)
        res = optimize(cfg)
        rows.append(ProbeRow(n=n, feasible=res.feasible, penalty=res.best_penalty))
        if res.feasible:
            largest = n
    return ProbeResult(dim=d, rows=tuple(rows), largest_feasible=largest)
