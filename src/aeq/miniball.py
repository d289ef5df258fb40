"""Smallest enclosing ball by the pivoting walk of Fischer, Gärtner and Kutz
(Fast smallest-enclosing-ball computation in high dimensions, ESA 2003).

The walk keeps a ball that encloses every point and a support T of points on
its boundary, affinely independent. Each step moves the center c toward the
circumcenter of T, the point of aff(T) nearest to c, which keeps T on the
boundary and shrinks the ball. A point that reaches the boundary first joins
T (ties: lowest index). If c reaches the circumcenter, c lies in aff(T); if
every affine coefficient of c is nonnegative, c lies in conv(T) and the ball
is the smallest, otherwise the lowest-indexed point with a negative
coefficient leaves T. The same loop runs over a float ndarray and over an
object array of Fractions: the modes differ only in the linear solve and in
the slack of the comparisons, which is 0 in exact mode.

Why the walk ends (in exact arithmetic). The radius never grows, and it
shrinks at every step of positive length. A drop happens at c = cc(T), so a
support seen at one drop is never seen at a drop after a positive step, and
between two drops T only grows, to at most d + 1 points. Steps of length 0
keep c fixed; among them a cycle is impossible by Bland's argument: let f be
the highest-indexed point that leaves and joins within the cycle, D the step
where it leaves (c = sum of lam_t t over T_D) and J the step where it joins
T_J along v = cc(T_J) - c, and g(t) = v.(t_0 - t) for some t_0 in T_J. Then
sum lam_t g(t) = |v|^2 > 0, yet every term is <= 0 and f's is < 0: g vanishes
on T_J, f joined with g(f) > 0 and lam_f < 0, and every other point of
T_D outside T_J cycles with a lower index, so lam_t >= 0 and g(t) <= 0.

Float mode lets a point join only while its rate toward the boundary exceeds
a floor scaled by the data's spread, so rounding cannot bring a duplicate or
an affinely dependent point into T, then tightens the radius to the farthest
point, so the containment invariant holds by construction.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional, Tuple

import numpy as np

from .geometry import EXACT_MODE, PointSet

_REL_SLACK = 1e-12


def _solve_fraction(g, b):
    """Gauss-Jordan over Fractions; g is a Gram matrix of an affinely
    independent support, positive definite, so every pivot is positive."""
    k = len(b)
    m = [list(row) + [rhs] for row, rhs in zip(g, b)]
    for col in range(k):
        m[col] = [x / m[col][col] for x in m[col]]
        for r in range(k):
            if r != col and m[r][col] != 0:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return np.array([row[k] for row in m], dtype=object)


def _walk(x, solve, slack):
    """Center and support of the smallest ball enclosing the rows of x."""
    c = x[0]
    d2 = ((x - c) ** 2).sum(axis=1)
    support = [int(np.argmax(d2))]
    floor = slack * d2.max()
    while True:
        p0 = x[support[0]]
        u = x[support[1:]] - p0
        a = solve(2 * (u @ u.T), (u * u).sum(axis=1))
        cc = p0 + a @ u
        room = ((c - p0) ** 2).sum() - ((x - c) ** 2).sum(axis=1)
        rate = 2 * ((p0 - x) @ (cc - c))  # room lost per unit of the step
        hit = np.flatnonzero(rate > floor)
        if len(hit):
            steps = np.maximum(room[hit], 0) / rate[hit]
            k = int(np.argmin(steps))
            if steps[k] < 1:
                c = c + steps[k] * (cc - c)
                support.append(int(hit[k]))
                continue
        c = cc
        coefs = [1 - a.sum(), *a]
        out = [p for p, lam in zip(support, coefs) if lam < -slack]
        if not out:
            return c, support
        support.remove(min(out))


def min_enclosing_ball(s: PointSet) -> Tuple[tuple, float, Optional[Fraction]]:
    """Returns (center, radius, exact squared radius or None)."""
    if s.mode == EXACT_MODE:
        x = np.array(s.points, dtype=object)
        center, support = _walk(x, _solve_fraction, 0)
        r2 = ((x[support[0]] - center) ** 2).sum()
        return tuple(center), math.sqrt(float(r2)), r2
    x = s.array
    center, _ = _walk(x, np.linalg.solve, _REL_SLACK)
    # tighten: report the true farthest distance from the computed center
    r = math.sqrt(float(((x - center) ** 2).sum(axis=1).max()))
    return tuple(float(c) for c in center), r, None
