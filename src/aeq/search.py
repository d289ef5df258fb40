"""Penalty-driven search for almost-equidistant configurations.

The objective charges every triple the squared defect of its best pair, so
a zero of the penalty is exactly an almost-equidistant set. Each restart
runs subgradient descent with per-iteration active-pair reselection and a
geometric step schedule, then an active-set Gauss-Newton polish drives the
survivors to machine precision. Restarts are reduced by (penalty, restart
index), so results are deterministic for a fixed seed; the generator is
numpy PCG64.
"""
from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from itertools import combinations
from typing import Optional, Tuple

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
    threads: int = 1


@dataclass(frozen=True)
class SearchResult:
    best_points: PointSet
    best_penalty: float
    feasible: bool
    iterations_used: int
    restart_index: int
    certificate: Optional[SpectralCertificate]


def triple_penalty(s) -> float:
    """Sum over triples of the squared defect of the best pair; 0 below n=3."""
    x = s.array if isinstance(s, PointSet) else np.asarray(s, dtype=float)
    n = len(x)
    if n < 3:
        return 0.0
    tri = np.array(list(combinations(range(n), 3)))
    return float(_triple_penalty_given(pairwise_squared_distances(x) - 1.0, tri))


def _triple_penalty_given(q: np.ndarray, tri: np.ndarray) -> float:
    vals = np.stack(
        [
            q[tri[:, 0], tri[:, 1]] ** 2,
            q[tri[:, 0], tri[:, 2]] ** 2,
            q[tri[:, 1], tri[:, 2]] ** 2,
        ]
    )
    return float(vals.min(axis=0).sum())


def _constraint_penalty(x: np.ndarray, q: np.ndarray, cfg: SearchConfig) -> float:
    total = 0.0
    if cfg.diameter_cap:
        iu = np.triu_indices(len(x), 1)
        total += float((np.maximum(q[iu], 0.0) ** 2).sum())
    if cfg.sphere_radius is not None:
        norms = np.einsum("ij,ij->i", x, x)
        total += float(((norms - cfg.sphere_radius ** 2) ** 2).sum())
    return total


def total_penalty(x: np.ndarray, cfg: SearchConfig, tri: np.ndarray) -> float:
    q = pairwise_squared_distances(x) - 1.0
    val = _triple_penalty_given(q, tri) if len(tri) else 0.0
    return val + _constraint_penalty(x, q, cfg)


def _active_pairs(q: np.ndarray, tri: np.ndarray) -> np.ndarray:
    """The best pair of every triple, lowest pair index on ties."""
    pairs = np.array(
        [
            [tri[:, 0], tri[:, 1]],
            [tri[:, 0], tri[:, 2]],
            [tri[:, 1], tri[:, 2]],
        ]
    )  # (3, 2, T)
    vals = np.stack([q[pairs[k, 0], pairs[k, 1]] ** 2 for k in range(3)])
    choice = vals.argmin(axis=0)
    t = np.arange(tri.shape[0])
    return np.column_stack([pairs[choice, 0, t], pairs[choice, 1, t]])


def _gradient(x: np.ndarray, cfg: SearchConfig, tri: np.ndarray) -> np.ndarray:
    n = len(x)
    q = pairwise_squared_distances(x) - 1.0
    grad = np.zeros_like(x)
    if len(tri):
        act = _active_pairs(q, tri)
        a, b = act[:, 0], act[:, 1]
        coef = 4.0 * q[a, b]
        diff = x[a] - x[b]
        np.add.at(grad, a, coef[:, None] * diff)
        np.add.at(grad, b, -coef[:, None] * diff)
    if cfg.diameter_cap:
        iu, ju = np.triu_indices(n, 1)
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
        import warnings

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


def _descent(x: np.ndarray, cfg: SearchConfig, tri: np.ndarray) -> Tuple[np.ndarray, int]:
    steps = cfg.max_iters
    if steps <= 0:
        return x, 0
    decay = (cfg.step_end / cfg.step_start) ** (1.0 / max(steps - 1, 1))
    eta = cfg.step_start
    best_x, best_val = x.copy(), total_penalty(x, cfg, tri)
    for it in range(steps):
        g = _gradient(x, cfg, tri)
        gn = float(np.sqrt((g * g).sum()))
        if gn < 1e-300:
            break
        x = _project(x - (eta / max(1.0, gn)) * g, cfg)
        val = total_penalty(x, cfg, tri)
        if val < best_val:
            best_val, best_x = val, x.copy()
        if best_val <= cfg.penalty_tol * 0.01:
            return best_x, it + 1
        eta *= decay
    return best_x, steps


def _polish(x: np.ndarray, cfg: SearchConfig, tri: np.ndarray) -> np.ndarray:
    n, d = x.shape
    if cfg.sphere_radius is not None:
        r2 = cfg.sphere_radius ** 2
    iu, ju = np.triu_indices(n, 1)
    best_x, best_val = x, total_penalty(x, cfg, tri)
    prev_active = None
    for _ in range(cfg.polish_rounds):
        q = pairwise_squared_distances(best_x) - 1.0
        active = _active_pairs(q, tri) if len(tri) else np.zeros((0, 2), dtype=int)
        key = frozenset(map(tuple, active))
        if key == prev_active:
            break
        prev_active = key
        a, b = active[:, 0], active[:, 1]

        def residuals(flat):
            pts = flat.reshape(n, d)
            q = pairwise_squared_distances(pts) - 1.0
            out = [q[a, b]]
            if cfg.diameter_cap:
                out.append(np.maximum(q[iu, ju], 0.0))
            if cfg.sphere_radius is not None:
                out.append(np.einsum("ij,ij->i", pts, pts) - r2)
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
        val = total_penalty(cand, cfg, tri)
        if val < best_val:
            best_val, best_x = val, cand
        else:
            break
        if best_val == 0.0:
            break
    return best_x


def _run_restart(cfg: SearchConfig, restart: int, tri: np.ndarray):
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((cfg.seed, restart))))
    x = _project(_initial_points(cfg, restart, rng), cfg)
    x, iters = _descent(x, cfg, tri)
    x = _polish(x, cfg, tri)
    return total_penalty(x, cfg, tri), restart, iters, x


def optimize(cfg: SearchConfig) -> SearchResult:
    """Multistart search; deterministic for a fixed config and seed."""
    if cfg.target_n < 1 or cfg.dim < 1:
        raise ValueError("target_n and dim must be positive")
    n = cfg.target_n
    tri = (
        np.array(list(combinations(range(n), 3)))
        if n >= 3
        else np.zeros((0, 3), dtype=int)
    )
    runs = []
    if cfg.threads > 1:
        with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
            runs = list(pool.map(lambda r: _run_restart(cfg, r, tri), range(cfg.restarts)))
    else:
        runs = [_run_restart(cfg, r, tri) for r in range(cfg.restarts)]
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
