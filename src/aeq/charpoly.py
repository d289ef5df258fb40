"""Exact characteristic polynomials and square-free eigenvalue multiplicities.

Faddeev-LeVerrier over Python ints (all intermediates are integral for an
integer matrix; the divisions are exact), then Yun's square-free
decomposition over Fractions. Intended for small matrices, n <= 12.
"""
from __future__ import annotations

import operator
from fractions import Fraction
from typing import List, Sequence, Tuple

import numpy as np


def charpoly_int(a: Sequence[Sequence[int]]) -> List[int]:
    """Monic characteristic polynomial coefficients, highest degree first.

    Each Faddeev-LeVerrier step is one object-dtype product, so the
    arithmetic stays in Python ints and cannot overflow.
    """
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("matrix must be square")
    a = np.array([[operator.index(v) for v in row] for row in a], dtype=object).reshape(n, n)
    m = np.identity(n, dtype=int).astype(object)
    coeffs = [1]
    for k in range(1, n + 1):
        am = a.dot(m)
        tr = am.trace()
        if tr % k != 0:
            raise ArithmeticError("trace division is not exact; matrix not integral?")
        c = -tr // k
        coeffs.append(c)
        m = am
        m[np.diag_indices(n)] += c
    return coeffs


def _trim(p: List[Fraction]) -> List[Fraction]:
    i = 0
    while i < len(p) - 1 and p[i] == 0:
        i += 1
    return p[i:]


def _derivative(p: List[Fraction]) -> List[Fraction]:
    n = len(p) - 1
    if n == 0:
        return [Fraction(0)]
    return [c * (n - i) for i, c in enumerate(p[:-1])]


def _divmod(a: List[Fraction], b: List[Fraction]):
    a = _trim(a[:])
    b = _trim(b)
    if len(b) == 1 and b[0] == 0:
        raise ZeroDivisionError("polynomial division by zero")
    if len(a) < len(b):
        return [Fraction(0)], a
    q: List[Fraction] = []
    for _ in range(len(a) - len(b) + 1):
        f = a[0] / b[0]
        q.append(f)
        for i in range(len(b)):
            a[i] -= f * b[i]
        a.pop(0)
    return _trim(q), (_trim(a) if a else [Fraction(0)])


def _gcd(a: List[Fraction], b: List[Fraction]) -> List[Fraction]:
    a, b = _trim(a), _trim(b)
    while len(b) > 1 or b[0] != 0:
        _, r = _divmod(a, b)
        a, b = b, r
    return [c / a[0] for c in a]  # monic


def square_free_decomposition(p: Sequence) -> List[Tuple[List[Fraction], int]]:
    """Yun's algorithm: returns [(factor, multiplicity)] with each factor
    square-free, product of factor^multiplicity equal to p up to a constant."""
    p = _trim([Fraction(c) for c in p])
    if len(p) <= 1:
        return []
    p = [c / p[0] for c in p]
    dp = _derivative(p)
    g = _gcd(p, dp)
    out: List[Tuple[List[Fraction], int]] = []
    if len(g) == 1:
        return [(p, 1)]
    w, _ = _divmod(p, g)
    y, _ = _divmod(dp, g)
    i = 1
    # invariant: w holds the product of remaining factors, square-free
    z = [a - b for a, b in _pad(y, _derivative(w))]
    z = _trim(z)
    while len(w) > 1:
        g_i = _gcd(w, z)
        if len(g_i) > 1:
            out.append((g_i, i))
        w, _ = _divmod(w, g_i)
        y, _ = _divmod(z, g_i)
        z = _trim([a - b for a, b in _pad(y, _derivative(w))])
        i += 1
    return out


def _pad(a: List[Fraction], b: List[Fraction]):
    la, lb = len(a), len(b)
    width = max(la, lb)
    a = [Fraction(0)] * (width - la) + a
    b = [Fraction(0)] * (width - lb) + b
    return zip(a, b)


def eigen_multiplicities_exact(a: Sequence[Sequence[int]]) -> List[Tuple[float, int]]:
    """Distinct eigenvalues of an integer symmetric matrix with exact
    algebraic multiplicities, as (float approximation, multiplicity),
    sorted by value descending."""
    coeffs = charpoly_int(a)
    roots: List[Tuple[float, int]] = []
    for factor, mult in square_free_decomposition(coeffs):
        fc = np.array([float(c) for c in factor])
        if len(fc) == 1:
            continue
        rts = np.roots(fc)
        for r in rts:
            if abs(r.imag) > 1e-7:
                raise ArithmeticError("complex root for a symmetric matrix")
            roots.append((float(r.real), mult))
    roots.sort(key=lambda t: -t[0])
    return roots
