"""Exact characteristic polynomials and square-free eigenvalue multiplicities.

Faddeev-LeVerrier over Python ints (all intermediates are integral for an
integer matrix; the divisions are exact), then Yun's square-free
decomposition over the integers: a characteristic polynomial is monic, so
by Gauss's lemma every gcd and quotient in Yun's algorithm is a monic
integer polynomial. The gcds come from primitive pseudo-remainder
sequences, the quotients from exact division by a monic divisor, and
Fractions are built only for the factors returned. Intended for small
matrices, n <= 12.
"""
from __future__ import annotations

import math
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


def _trim(p: List[int]) -> List[int]:
    i = 0
    while i < len(p) - 1 and p[i] == 0:
        i += 1
    return p[i:]


def _derivative(p: List[int]) -> List[int]:
    n = len(p) - 1
    if n == 0:
        return [0]
    return [c * (n - i) for i, c in enumerate(p[:-1])]


def _primitive(p: List[int]) -> List[int]:
    g = math.gcd(*p)
    return [c // g for c in p] if g > 1 else p


def _prem(a: List[int], b: List[int]) -> List[int]:
    """Pseudo-remainder of a by b != 0: a times a power of b's leading
    coefficient, minus a multiple of b, of lower degree than b."""
    lead = b[0]
    while len(a) >= len(b) and a != [0]:
        f = a[0]
        a = _trim([lead * x - f * y for x, y in zip(a[1:], b[1:])]
                  + [lead * x for x in a[len(b):]]) or [0]
    return a


def _gcd(a: List[int], b: List[int]) -> List[int]:
    """The primitive gcd by the primitive pseudo-remainder sequence, with a
    positive leading coefficient."""
    a, b = _primitive(a), _primitive(b)
    while b != [0]:
        a, b = b, _primitive(_prem(a, b))
    return a if a[0] > 0 else [-c for c in a]


def _divide(a: List[int], b: List[int]) -> List[int]:
    """The quotient of a by a monic b that divides it; a monic divisor keeps
    the quotient of an integer polynomial integral."""
    a = a[:]
    q = []
    for _ in range(len(a) - len(b) + 1):
        f = a[0]
        q.append(f)
        for i in range(1, len(b)):
            a[i] -= f * b[i]
        a.pop(0)
    return _trim(q) if q else [0]


def _subtract(a: List[int], b: List[int]) -> List[int]:
    width = max(len(a), len(b))
    a = [0] * (width - len(a)) + a
    b = [0] * (width - len(b)) + b
    return _trim([x - y for x, y in zip(a, b)])


def _yun(p: List[int]) -> List[Tuple[List[int], int]]:
    """Yun's algorithm on a monic integer polynomial of degree >= 1. By
    Gauss's lemma every gcd and quotient is a monic integer polynomial."""
    dp = _derivative(p)
    g = _gcd(p, dp)
    if len(g) == 1:
        return [(p, 1)]
    out: List[Tuple[List[int], int]] = []
    w = _divide(p, g)
    y = _divide(dp, g)
    i = 1
    # invariant: w holds the product of remaining factors, square-free
    z = _subtract(y, _derivative(w))
    while len(w) > 1:
        g_i = _gcd(w, z)
        if len(g_i) > 1:
            out.append((g_i, i))
        w = _divide(w, g_i)
        y = _divide(z, g_i)
        z = _subtract(y, _derivative(w))
        i += 1
    return out


def square_free_decomposition(p: Sequence) -> List[Tuple[List[Fraction], int]]:
    """Yun's algorithm: returns [(factor, multiplicity)] with each factor
    square-free and monic, product of factor^multiplicity equal to p up to a
    constant.

    p is made monic, then scaled to x = t / L with L the lcm of its
    denominators, which makes it a monic integer polynomial in t; Yun runs
    there, and each factor is mapped back to x.
    """
    p = _trim([Fraction(c) for c in p])
    if len(p) <= 1:
        return []
    if p[0] != 1:
        p = [c / p[0] for c in p]
    scale = math.lcm(*(c.denominator for c in p))
    # L^n p(t / L): the coefficient of t^(n - i) is p_i L^i
    ints = [c.numerator * (scale ** i // c.denominator) for i, c in enumerate(p)]
    return [
        ([Fraction(c, scale ** i) for i, c in enumerate(f)], m) for f, m in _yun(ints)
    ]


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
