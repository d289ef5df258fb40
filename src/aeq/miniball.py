"""Smallest enclosing ball by the pivoting walk of Fischer, Gärtner and Kutz
(Fast smallest-enclosing-ball computation in high dimensions, ESA 2003).

The walk keeps a ball that encloses every point and a support T of points on
its boundary, affinely independent. Each step moves the center c toward the
circumcenter of T, the point of aff(T) nearest to c, which keeps T on the
boundary and shrinks the ball. A point that reaches the boundary first joins
T (ties: lowest index). If c reaches the circumcenter, c lies in aff(T); if
every affine coefficient of c is nonnegative, c lies in conv(T) and the ball
is the smallest, otherwise the lowest-indexed point with a negative
coefficient leaves T. Float mode walks the float64 coordinates. Exact mode
takes the same steps, with no slack, on the integer form X of the set (the
walk does not depend on the scale): the center is integers over one
denominator, reduced after each step, the room and rate of every point are
integers, and the step ratios of the points hit are compared by
cross-multiplying; the Gram solve is fraction-free, integers over its
determinant.

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


def _walk(x):
    """Center and support of the smallest ball enclosing the rows of a float x."""
    c = x[0]
    d2 = ((x - c) ** 2).sum(axis=1)
    support = [int(np.argmax(d2))]
    floor = _REL_SLACK * d2.max()
    while True:
        p0 = x[support[0]]
        u = x[support[1:]] - p0
        a = np.linalg.solve(2 * (u @ u.T), (u * u).sum(axis=1))
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
        out = [p for p, lam in zip(support, coefs) if lam < -_REL_SLACK]
        if not out:
            return c, support
        support.remove(min(out))


def _solve_int(g, b):
    """(a, det) with g a = b / det for an integer matrix g that is positive
    definite, by fraction-free Gauss-Jordan elimination (Bareiss): every
    division is exact, and det = det(g) > 0."""
    m = [list(row) + [rhs] for row, rhs in zip(g, b)]
    prev = 1
    for col in range(len(m)):
        pivot = m[col][col]  # a leading principal minor of g, positive
        for r, row in enumerate(m):
            if r != col:
                f = row[col]
                m[r] = [(pivot * v - f * w) // prev for v, w in zip(row, m[col])]
        prev = pivot
    return np.array([row[-1] for row in m], dtype=object), prev


def _first_least(nums, dens) -> int:
    """The position of the least ratio nums[i] / dens[i] of integers, every
    dens[i] > 0, the first on ties: compared cross-multiplied, so no
    Fraction is built."""
    best = 0
    for i in range(1, len(nums)):
        if nums[i] * dens[best] < nums[best] * dens[i]:
            best = i
    return best


def _walk_exact(x):
    """The float walk's steps in exact arithmetic on an integer x: returns
    (C, den, support) with center C / den, C integers and den > 0.

    With c = C / den and cc = CC / det, the room of each point times den^2
    is R = |C - den p0|^2 - |den x - C|^2, and its rate times det den is
    2 (p0 - x).V with V = den CC - det C; both are integers, and the step
    ratios R / rate of the points hit are compared cross-multiplied.
    """
    x = x.astype(object)  # Python ints: the center's integers outgrow int64
    c, den = x[0], 1
    d2 = ((x - c) ** 2).sum(axis=1)
    support = [int(np.argmax(d2))]
    while True:
        p0 = x[support[0]]
        u = x[support[1:]] - p0
        a, det = _solve_int(2 * (u @ u.T), (u * u).sum(axis=1))
        cc = det * p0 + a @ u
        v = den * cc - det * c
        room = ((c - den * p0) ** 2).sum() - ((den * x - c) ** 2).sum(axis=1)
        rate = 2 * ((p0 - x) @ v)
        hit = np.flatnonzero(rate > 0)
        if len(hit):
            gains = [max(r, 0) for r in room[hit]]
            j = _first_least(gains, rate[hit])
            k, gain = hit[j], gains[j]
            # the step goes gain det / (den rate[k]) of the way to cc
            if gain * det < den * rate[k]:
                c = c * den * rate[k] + gain * v
                den = den * den * rate[k]
                g = math.gcd(*c, den)
                c, den = c // g, den // g
                support.append(int(k))
                continue
        g = math.gcd(*cc, det)
        c, den = cc // g, det // g
        coefs = [det - a.sum(), *a]  # the affine coefficients of cc times det
        out = [p for p, lam in zip(support, coefs) if lam < 0]
        if not out:
            return c, den, support
        support.remove(min(out))


def _float_sqrt(r2: Fraction) -> float:
    """sqrt(r2) as math.sqrt(float(r2)) rounds it, or inf past the float
    range: r2 / 4^k, k >= 0, lies in the float range, its rounding and root
    are those of r2 scaled by powers of 2, and ldexp scales the root back."""
    k = max(0, (r2.numerator.bit_length() - r2.denominator.bit_length()) // 2)
    try:
        return math.ldexp(math.sqrt(r2 / 4 ** k), k)
    except OverflowError:
        return math.inf


def min_enclosing_ball(s: PointSet) -> Tuple[tuple, float, Optional[Fraction]]:
    """Returns (center, radius, exact squared radius or None)."""
    if s.mode == EXACT_MODE:
        x, q = s.form  # the walk does not depend on the scale
        c, den, support = _walk_exact(x)
        r2 = Fraction(((den * x[support[0]].astype(object) - c) ** 2).sum(), (den * q) ** 2)
        return tuple(Fraction(v, den * q) for v in c), _float_sqrt(r2), r2
    x = s.array
    center, _ = _walk(x)
    # tighten: report the true farthest distance from the computed center
    r = math.sqrt(float(((x - center) ** 2).sum(axis=1).max()))
    return tuple(float(c) for c in center), r, None
