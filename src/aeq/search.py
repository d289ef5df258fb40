"""Penalty-driven search for almost-equidistant configurations.

The objective charges every triple the squared defect of its best pair, so
a zero of the penalty is exactly an almost-equidistant set. Each restart
runs subgradient descent with per-iteration active-pair reselection and a
geometric step schedule, then an active-set Gauss-Newton polish drives the
survivors to machine precision. The restarts descend together, stacked as
(R, n, d) arrays in blocks of at most STACK_ELEMENTS elements per array; a
restart leaves the stack when it stops, and each takes exactly the steps,
in the same floating-point arithmetic, that it would take alone. A step
computes the squared distances of its iterates once; the penalties, the
active pairs and the next gradients all read them. The polish then runs
restart by restart, and the runs are reduced by (penalty, restart index),
so results are deterministic for a fixed seed and do not depend on the
block size; the generator is numpy PCG64, one per restart. The polish
evaluates the perturbed points of each finite-difference Jacobian as
stacks too.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from itertools import combinations, islice
from typing import NamedTuple, Optional, Tuple

import numpy as np

from .bounds import conjectured_diameter_max
from .constructions import INV_SQRT2, construct_rosenfeld, construct_two_simplices
from .geometry import PointSet, Tolerance, is_almost_equidistant, pairwise_squared_distances
from .spectral import SpectralCertificate, certify

# The descent's geometric step schedule runs from STEP_START down to STEP_END;
# the polish then runs at most POLISH_ROUNDS Gauss-Newton rounds per restart.
STEP_START, STEP_END = 0.1, 1e-6
POLISH_ROUNDS = 8

# The most elements an array of one stacked descent step may hold (see
# _block_size), so a search's memory does not grow with its restart count.
# A block of one restart is the plain per-restart loop.
STACK_ELEMENTS = 1 << 20


def least_squares(*args, **kwargs):
    """scipy.optimize.least_squares, imported on the first call: the import
    takes about half a second, and only the polish needs it."""
    from scipy.optimize import least_squares as solve

    return solve(*args, **kwargs)


@dataclass(frozen=True)
class SearchConfig:
    dim: int
    target_n: int
    restarts: int = 20
    max_iters: int = 1500
    penalty_tol: float = 1e-18
    seed: int = 0
    diameter_cap: bool = False
    sphere_radius: Optional[float] = None

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
        if r is not None and not math.isfinite(r * r):
            raise ValueError(f"sphere_radius squared must be finite, got {r}")
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

    # pairs are flat indices i*n + j into an n x n matrix
    pairs: np.ndarray  # (3, T): pairs (i, j), (i, k), (j, k) of each triple i < j < k
    upper: np.ndarray  # every pair i < j
    column: np.ndarray  # arange(T)


def _tables(n: int) -> _Tables:
    tri = np.array(list(combinations(range(n), 3)), dtype=int).reshape(-1, 3)
    pairs = tri.T[[0, 0, 1]] * n + tri.T[[1, 2, 2]]
    iu, ju = np.triu_indices(n, 1)
    return _Tables(pairs, iu * n + ju, np.arange(len(tri)))


def _distances(x: np.ndarray) -> np.ndarray:
    """The shifted squared distances D - 1 of stacked point sets x, (R, n, d),
    from geometry's kernel."""
    d2 = pairwise_squared_distances(x)
    d2 -= 1.0
    return d2


def _flat(q: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """q raveled, and the offset of each stacked matrix in it, (R, 1)."""
    return q.ravel(), np.arange(len(q))[:, None] * q[0].size


def _triple_defects(q: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    """The squared defects of the three pairs of every triple, (3, R, T), from
    stacked shifted squared distances q, (R, n, n)."""
    flat, offset = _flat(q)
    return flat[offset + pairs[:, None]] ** 2


def triple_penalty(s) -> float:
    """Sum over triples of the squared defect of the best pair; 0 below n=3."""
    x = s.array if isinstance(s, PointSet) else np.asarray(s, dtype=float)
    if len(x) < 3:
        return 0.0
    sq = _triple_defects(_distances(x[None]), _tables(len(x)).pairs)
    return float(sq.min(axis=0).sum())


def _constraint_penalty(x: np.ndarray, q: np.ndarray, cfg: SearchConfig, upper):
    total = 0.0
    if cfg.diameter_cap:
        total += (np.maximum(q.reshape(len(q), -1)[:, upper], 0.0) ** 2).sum(axis=1)
    if cfg.sphere_radius is not None:
        norms = np.einsum("rij,rij->ri", x, x)
        total += ((norms - cfg.sphere_radius ** 2) ** 2).sum(axis=1)
    return total


def _evaluate(x: np.ndarray, q: np.ndarray, cfg: SearchConfig, tables: _Tables):
    """The penalties of stacked iterates x, (R,), and the best pair of every
    triple (lowest pair index on ties), (R, T), both from x's shifted squared
    distances q."""
    sq = _triple_defects(q, tables.pairs)
    active = tables.pairs[sq.argmin(axis=0), tables.column]
    return sq.min(axis=0).sum(axis=1) + _constraint_penalty(x, q, cfg, tables.upper), active


def total_penalty(x: np.ndarray, cfg: SearchConfig, tables: _Tables) -> float:
    x = x[None]
    return float(_evaluate(x, _distances(x), cfg, tables)[0][0])


def _gradient(x, q, active, cfg: SearchConfig, upper) -> np.ndarray:
    """The penalty's gradient at stacked iterates x, given q and the active
    pairs. Each point sums its terms in the order of one restart alone: as
    first end of the active pairs, as their second end, then the same for
    the capped pairs."""
    r, n, d = x.shape
    flat, offset = _flat(q)
    groups = [(active, 4.0 * flat[offset + active])]
    if cfg.diameter_cap:
        # a pair within the cap has coefficient 0: its terms add nothing
        groups.append((upper, 4.0 * np.maximum(flat[offset + upper], 0.0)))
    first = np.arange(r)[:, None] * n  # each restart's first point in coords
    coords = x.reshape(-1, d).T  # (d, R n): one row per coordinate
    ends, terms = [], []
    for pair, coef in groups:
        i, j = first + pair // n, first + pair % n
        term = coef * (coords.take(i, axis=1) - coords.take(j, axis=1))  # (d, R, m)
        ends += [i, j]
        terms += [term, -term]
    # bincount adds each term in turn, from 0, as np.add.at does
    slots = np.concatenate(ends, axis=1) + (np.arange(d) * (r * n))[:, None, None]
    grad = np.bincount(slots.ravel(), np.concatenate(terms, axis=2).ravel(), minlength=x.size)
    grad = grad.reshape(d, r * n)
    if cfg.sphere_radius is not None:
        norms = np.einsum("rij,rij->ri", x, x).ravel()
        grad += 4.0 * (norms - cfg.sphere_radius ** 2) * coords
    return np.ascontiguousarray(grad.T).reshape(x.shape)


def _project(x: np.ndarray, cfg: SearchConfig) -> np.ndarray:
    if cfg.sphere_radius is not None:
        norms = np.sqrt(np.einsum("...ij,...ij->...i", x, x))
        norms = np.where(norms < 1e-12, 1.0, norms)
        x = x * (cfg.sphere_radius / norms)[..., None]
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


def _starts(cfg: SearchConfig, restarts: range) -> np.ndarray:
    """The projected starts of the given restarts, (R, n, d); restart r draws
    from its own generator, seeded by (seed, r)."""
    gens = (np.random.Generator(np.random.PCG64(np.random.SeedSequence((cfg.seed, r))))
            for r in restarts)
    return _project(np.stack([_initial_points(cfg, r, g) for r, g in zip(restarts, gens)]), cfg)


def _descent(x: np.ndarray, cfg: SearchConfig, tables: _Tables):
    """Descend from the stacked starts x, (R, n, d), all at once: each
    restart's best iterate, its penalty and its number of steps, (R, n, d),
    (R,) and (R,). The step size depends on the step index alone and is
    shared. A restart leaves the stack when its gradient vanishes (counting
    every step, as a run to the end does) or its best penalty reaches the
    tolerance, so each takes exactly the steps it would take alone."""
    q = _distances(x)
    best_val, active = _evaluate(x, q, cfg, tables)
    best_x, steps = x.copy(), np.full(len(x), cfg.max_iters)
    if cfg.max_iters <= 0:
        return best_x, best_val, steps
    decay = (STEP_END / STEP_START) ** (1.0 / max(cfg.max_iters - 1, 1))
    eta = STEP_START
    live = np.arange(len(x))  # the restarts still descending
    for it in range(cfg.max_iters):
        g = _gradient(x, q, active, cfg, tables.upper)
        gn = np.sqrt((g * g).reshape(len(g), -1).sum(axis=1))
        stuck = gn < 1e-300
        if stuck.any():
            moving = ~stuck
            live, x, g, gn = live[moving], x[moving], g[moving], gn[moving]
            if not len(live):
                break
        x = _project(x - (eta / np.maximum(1.0, gn))[:, None, None] * g, cfg)
        q = _distances(x)
        val, active = _evaluate(x, q, cfg, tables)
        better = val < best_val[live]
        best_val[live[better]] = val[better]
        best_x[live[better]] = x[better]
        done = best_val[live] <= cfg.penalty_tol * 0.01
        if done.any():
            steps[live[done]] = it + 1
            going = ~done
            live, x, q, active = live[going], x[going], q[going], active[going]
            if not len(live):
                break
        eta *= decay
    return best_x, best_val, steps


def _residuals(xs: np.ndarray, active, cfg: SearchConfig, upper) -> np.ndarray:
    """The polish's residuals of stacked configurations xs, (k, n, d), one row
    each from one _distances call: the shifted squared distances of the
    active pairs, then each capped pair's excess over 1, then each point's
    |x|^2 - r^2 on a sphere."""
    q = _distances(xs).reshape(len(xs), -1)
    out = [q[:, active]]
    if cfg.diameter_cap:
        out.append(np.maximum(q[:, upper], 0.0))
    if cfg.sphere_radius is not None:
        out.append(np.einsum("rij,rij->ri", xs, xs) - cfg.sphere_radius ** 2)
    return np.concatenate(out, axis=1)


def _polish(x: np.ndarray, val: float, cfg: SearchConfig, tables: _Tables):
    """Gauss-Newton on the active pairs from x, whose penalty is val; the
    best point found and its penalty."""
    n, d = x.shape
    best_x, best_val = x, val
    prev_active = None
    for _ in range(POLISH_ROUNDS):
        _, (active,) = _evaluate(best_x[None], _distances(best_x[None]), cfg, tables)
        key = frozenset(active.tolist())
        if key == prev_active:
            break
        prev_active = key
        # configurations per stack: its arrays hold at most n^2 distances,
        # n d coordinates or a row of residuals for each, so they stay within
        # STACK_ELEMENTS unless one configuration alone needs more
        chunk = max(1, STACK_ELEMENTS // max(n * n, n * d, len(active) + len(tables.upper) + n))

        def rows(flats):
            return _residuals(flats.reshape(len(flats), n, d), active, cfg, tables.upper)

        def jacobian_rows(fun, points):
            # scipy's finite-difference Jacobian maps fun over the perturbed
            # points of its columns, one call each; evaluate them in stacks
            # instead. fun wraps the one-row residual below and computes the
            # same rows, so it is not called: scipy still forms every step,
            # difference quotient and trust-region step from these rows, and
            # trf counts its evaluations itself.
            points, out = iter(points), []
            while block := list(islice(points, chunk)):
                out.extend(rows(np.array(block)))
            return out

        try:
            sol = least_squares(
                lambda flat: rows(flat[None])[0],
                best_x.ravel(),
                xtol=3e-16,
                ftol=3e-16,
                gtol=3e-16,
                max_nfev=200,
                workers=jacobian_rows,
            )
        except (ValueError, ArithmeticError):
            # a bad start (LinAlgError is a ValueError); any other fault, such
            # as no scipy or one too old for workers=, is not a failed polish
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


def _block_size(cfg: SearchConfig, tables: _Tables) -> int:
    """Restarts per stacked descent. A step's largest arrays hold at most d
    coordinates for each of a restart's 3T triple defects and n² pairs, so
    they stay within STACK_ELEMENTS unless one restart alone needs more."""
    n = cfg.target_n
    return max(1, STACK_ELEMENTS // (cfg.dim * (3 * len(tables.column) + n * n)))


def optimize(cfg: SearchConfig) -> SearchResult:
    """Multistart search; deterministic for a fixed config and seed."""
    tables = _tables(cfg.target_n)
    block = _block_size(cfg, tables)
    runs, iterations_used = [], 0
    for first in range(0, cfg.restarts, block):
        ids = range(first, min(first + block, cfg.restarts))
        xs, vals, iters = _descent(_starts(cfg, ids), cfg, tables)
        iterations_used += int(iters.sum())
        runs += [(*_polish(x, val, cfg, tables), r) for r, x, val in zip(ids, xs, vals.tolist())]
    x, penalty, restart = min(runs, key=lambda t: (t[1], t[2]))
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
