"""Deterministic constructions of almost-equidistant sets.

All constructions involve square roots, so they emit floating mode only.
"""
from __future__ import annotations

import math
import warnings
from typing import Optional

import numpy as np

from .geometry import PointSet, Tolerance, _resolve_tol, sphere_defect

INV_SQRT2 = 1.0 / math.sqrt(2.0)

KINDS = ("simplex", "two_simplices", "rosenfeld")


def construct(kind: str, dim: int, count: Optional[int] = None, lift: bool = False) -> PointSet:
    """The construction ``kind`` in R^dim, lifted onto the critical sphere
    (R^(dim+1), radius 1/sqrt(2)) when ``lift`` is set.

    Each family lies on its own origin-centred sphere: the simplex of
    ``count`` points (default dim + 1) on its circumsphere, the two
    antipodal simplices on that of one (dim+1)-simplex, and rosenfeld's 2 dim
    points on the critical sphere itself. Kinds other than simplex ignore
    ``count``.
    """
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")
    if dim < 1:
        raise ValueError("dim must be at least 1")
    if kind == "simplex":
        k = dim + 1 if count is None else count
        s = construct_simplex(k, dim)
        r = simplex_circumradius(k)
    elif kind == "two_simplices":
        s, r = construct_two_simplices(dim), simplex_circumradius(dim + 1)
    else:
        s, r = construct_rosenfeld(dim), INV_SQRT2
    return lift_to_halfsphere(s, r) if lift else s


def simplex_circumradius(k: int) -> float:
    """Circumradius of k unit-spaced points: sqrt((k-1)/(2k))."""
    return math.sqrt((k - 1) / (2.0 * k))


def construct_simplex(k: int, d: int) -> PointSet:
    """k points in R^d, pairwise at distance 1, centered at the origin.

    Built by the standard recursion: vertex i extends the centroid of the
    previous vertices into a fresh coordinate direction, so vertex i has at
    most i nonzero leading coordinates before recentring.
    """
    if not 1 <= k <= d + 1:
        raise ValueError(f"need 1 <= k <= d + 1, got k={k}, d={d}")
    pts = np.zeros((k, d))
    for i in range(1, k):
        c = pts[:i].mean(axis=0)
        rho2 = float(((pts[0] - c) ** 2).sum())
        # new vertex sits over the centroid; height keeps all distances 1
        pts[i] = c
        pts[i, i - 1] += math.sqrt(1.0 - rho2)
    pts -= pts.mean(axis=0)
    return PointSet.from_array(pts)


def construct_two_simplices(d: int) -> PointSet:
    """Two unit d-simplices sharing the circumsphere of radius sqrt(d/(2(d+1))).

    The second copy is the antipodal image of the first. For d >= 2 no
    vertex collides with its image: the closest cross pair is at
    |v_i + v_j|^2 = (d-1)/(d+1) >= 1/3. In R^1 the segment is centrally
    symmetric, so only the 2 distinct points are emitted, with a warning.
    """
    if d < 1:
        raise ValueError("d must be at least 1")
    first = construct_simplex(d + 1, d).array
    if d == 1:
        warnings.warn(
            "two-simplices construction degenerates in R^1: the antipodal "
            "image coincides with the segment, emitting 2 points instead of 4"
        )
        return PointSet.from_array(first)
    return PointSet.from_array(np.vstack([first, -first]))


def construct_rosenfeld(d: int) -> PointSet:
    """2d points of norm 1/sqrt(2): two aligned unit (d-1)-simplices of d
    vertices each, in parallel hyperplanes at heights +-sqrt(1/(2d))."""
    if d < 2:
        raise ValueError("d must be at least 2")
    base = construct_simplex(d, d - 1).array
    h = math.sqrt(1.0 / (2.0 * d))
    top = np.hstack([base, np.full((d, 1), h)])
    bottom = np.hstack([base, np.full((d, 1), -h)])
    return PointSet.from_array(np.vstack([top, bottom]))


def lift_to_halfsphere(
    s: PointSet, r: float, tol: Optional[Tolerance] = None
) -> PointSet:
    """Append a constant coordinate h = sqrt(1/2 - r^2) to every point.

    Input points must lie on the origin-centered sphere of radius
    r <= 1/sqrt(2); pairwise distances are preserved exactly and the output
    lands on the radius-1/sqrt(2) sphere in R^(d+1).
    """
    tol = _resolve_tol(s, tol)
    if not r >= 0 or r * r > 0.5 + tol.slack("sphere"):
        raise ValueError("radius must satisfy 0 <= r <= 1/sqrt(2)")
    sphere_defect(s, r, tol)
    h = math.sqrt(max(0.5 - r * r, 0.0))
    lifted = np.hstack([s.array, np.full((s.n, 1), h)])
    return PointSet.from_array(lifted)
