"""Exact characteristic polynomials, root counts and square-free
eigenvalue multiplicities.

Faddeev-LeVerrier (all intermediates are integral for an integer matrix;
the divisions are exact): per matrix over Python ints, or over a stack of
matrices in int64 behind a bound check. The characteristic polynomial of a
symmetric matrix is real-rooted, so Descartes' rule of signs counts its
roots above a dyadic point exactly; the second largest root and its
multiplicity come from two such counts around a float hint.

Yun's square-free decomposition runs over the integers: a characteristic
polynomial is monic, so by Gauss's lemma every gcd and quotient in Yun's
algorithm is a monic integer polynomial. The gcds come from primitive
pseudo-remainder sequences, the quotients from exact division by a monic
divisor, and Fractions are built only for the factors returned. Yun's
algorithm with ``np.roots`` (``eigen_multiplicities_exact``) is the
reference the root counts are tested against. Intended for small
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


# Every int64 intermediate stays below 2**62: the factor 2 to the int64
# limit absorbs the rounding of the bound, which is computed in floats.
_INT64_BUDGET = 2.0 ** 62


def charpoly_stack(stack) -> List[List[int]]:
    """``charpoly_int`` of each matrix of an integer stack (G, n, n), by one
    int64 Faddeev-LeVerrier over the whole stack.

    Before each step the step's entries are bounded per matrix: with r the
    largest absolute row sum of A and m the largest |M|, every partial sum
    of A @ M is at most r m in magnitude, its trace at most n r m and the
    updated diagonal at most (n + 1) r m. A matrix whose bound passes the
    budget leaves the int64 stack and gets ``charpoly_int``.
    """
    a = np.asarray(stack)
    if a.ndim != 3 or a.shape[1] != a.shape[2]:
        raise ValueError("stack must have shape (G, n, n)")
    if not np.can_cast(a.dtype, np.int64):
        raise ValueError(f"stack must hold integers, got dtype {a.dtype}")
    a = whole = a.astype(np.int64)
    count, n, _ = a.shape
    coeffs = np.zeros((count, n + 1), dtype=np.int64)
    coeffs[:, 0] = 1
    live = np.arange(count)
    fallback: List[int] = []
    rows = np.abs(a.astype(float)).sum(axis=2).max(axis=1, initial=0.0)
    diag = np.diag_indices(n)
    m = np.broadcast_to(np.identity(n, dtype=np.int64), a.shape)
    for k in range(1, n + 1):
        bound = (n + 1) * rows * np.abs(m).max(axis=(1, 2), initial=0).astype(float)
        fits = bound <= _INT64_BUDGET
        if not fits.all():
            fallback += live[~fits].tolist()
            live, a, m, rows = live[fits], a[fits], m[fits], rows[fits]
        am = a @ m
        tr = np.trace(am, axis1=1, axis2=2)
        if np.any(tr % k):
            raise ArithmeticError("trace division is not exact; matrix not integral?")
        c = -tr // k
        coeffs[live, k] = c
        am[:, diag[0], diag[1]] += c[:, None]
        m = am
    out = coeffs.tolist()
    for i in fallback:
        out[i] = charpoly_int(whole[i].tolist())
    return out


def _sign_changes(c: List[int]) -> int:
    """Sign changes between the nonzero entries of c; c[0] is nonzero."""
    count, positive = 0, c[0] > 0
    for x in c:
        if x and (x > 0) is not positive:
            count += 1
            positive = not positive
    return count


def roots_above(p: Sequence[int], a: int, s: int = 0) -> int:
    """The number of roots of p above a / 2**s, counted with multiplicity.

    p is a real-rooted integer polynomial, highest degree first, with a
    nonzero leading coefficient. Its roots above a / 2**s are 2**-s times
    the positive roots of P(y + a), where P(y) = 2**(s n) p(y / 2**s) has
    the integer coefficients p_i 2**(s i). For a real-rooted polynomial
    Descartes' rule of signs is exact, so the count is the number of sign
    changes of the Taylor shift P(y + a); a root at a / 2**s itself is
    not counted.
    """
    c = [int(ci) << (s * i) for i, ci in enumerate(p)]
    n = len(c) - 1
    if a:
        for i in range(n, 0, -1):  # Horner pass i leaves the coefficient of y^(n - i)
            acc = c[0]
            for j in range(1, i + 1):
                acc = c[j] = c[j] + a * acc
    return _sign_changes(c)


# Dyadic precisions s tried in turn for the interval (k - 1, k + 1] / 2**s,
# k = floor(hint 2**s), around the hint: 2**-19 (about 2e-6) wide first,
# wider for a poor hint.
_HINT_STEPS = (20, 10, 0)
# Bisection gives up on an interval 2**-_MAX_BITS wide that still holds two
# distinct roots.
_MAX_BITS = 128


def _not_isolated(hint: float) -> ArithmeticError:
    return ArithmeticError(f"cannot isolate the second largest root near {float(hint)!r}")


def lambda2_counts(p: Sequence[int], hint: float) -> Tuple[bool, int]:
    """For the characteristic polynomial p (monic, integer, real-rooted,
    degree >= 2) of a symmetric matrix: whether its second largest root
    lambda2, counted with multiplicity, is positive, and the multiplicity
    of lambda2.

    Both come from exact root counts N(> x). lambda2 > 0 exactly when
    N(> 0) >= 2. The float ``hint`` only places a dyadic interval (a, b]:
    when N(> b) <= 1 < N(> a), lambda2 lies in (a, b], and ``_multiplicity``
    completes the count from there. Raises ArithmeticError when no interval
    around the hint holds lambda2, or none narrower than 2**-_MAX_BITS
    isolates it.
    """
    p = list(p)
    positive = roots_above(p, 0) >= 2
    for s in _HINT_STEPS:
        a = math.floor(hint * 2.0 ** s) - 1
        above_a, above_b = roots_above(p, a, s), roots_above(p, a + 2, s)
        if above_b <= 1 < above_a:
            return positive, _multiplicity(p, a, s, above_a, above_b, hint)
    raise _not_isolated(hint)


def _multiplicity(p: Sequence[int], a: int, s: int, above_a: int, above_b: int, hint: float) -> int:
    """The multiplicity of lambda2, for an interval (a, b] = (a, a + 2] / 2**s
    with N(> b) = above_b <= 1 < above_a = N(> a), which holds lambda2.

    When the square-free part p / gcd(p, p') has exactly one root in (a, b],
    every root of p there is lambda2 and its multiplicity is
    N(> a) - N(> b). A single root in (a, b] is simple, so the square-free
    part is built only when the count is two or more; while it has two roots
    there, the interval is halved.
    """
    b = a + 2
    square_free = None
    while above_a - above_b > 1:
        square_free = square_free or _square_free_part(list(p))
        if roots_above(square_free, a, s) - roots_above(square_free, b, s) == 1:
            break
        if s >= _MAX_BITS:
            raise _not_isolated(hint)
        # lambda2 lies above the midpoint exactly when two roots do
        a, b, s = 2 * a, 2 * b, s + 1
        mid = a + 2
        above_mid = roots_above(p, mid, s)
        if above_mid >= 2:
            a, above_a = mid, above_mid
        else:
            b, above_b = mid, above_mid
    return above_a - above_b


def _sign_changes_stack(c: np.ndarray) -> np.ndarray:
    """Sign changes down each column of c (m, R) between its nonzero
    entries; each c[0] is nonzero."""
    sign = (c > 0).astype(np.int8) - (c < 0)
    at = np.where(sign != 0, np.arange(len(c))[:, None], 0)
    # the sign of the last nonzero entry at or above each entry
    last = np.take_along_axis(sign, np.maximum.accumulate(at, axis=0), axis=0)
    return np.count_nonzero(last[1:] != last[:-1], axis=0)


def _shifted_sign_changes(c: np.ndarray, a: np.ndarray) -> np.ndarray:
    """The sign changes of the Taylor shift P(y + a_r) of each column r of
    c (n + 1, R), the coefficients of P highest degree first: the Horner
    passes of ``roots_above``, one row operation for all R, in place."""
    for i in range(len(c) - 1, 0, -1):
        acc = c[0]
        for j in range(1, i + 1):
            acc = c[j] = c[j] + a * acc
    return _sign_changes_stack(c)


def lambda2_counts_stack(polys: Sequence[Sequence[int]],
                         hints: Sequence[float]) -> List[Tuple[bool, int]]:
    """``lambda2_counts(p, hint)`` of each polynomial and its hint, all of
    one degree n >= 2, coefficients as Python ints (``charpoly_stack``'s),
    in lists or tuples.

    The counts of the first interval come from one stacked pass over the
    coefficients, an object array (n + 1, R) of Python ints: N(> 0), and
    N(> (k - 1) / 2**s) and N(> (k + 1) / 2**s) with s = 20 and
    k = floor(hint 2**s); every count is exact, the hints only place the
    intervals. A row whose interval holds lambda2 alone is done; a multiple
    lambda2 goes on from those counts (``_multiplicity``); a row that the
    interval does not isolate runs ``lambda2_counts`` whole, which widens
    the interval or raises its error. Rows finish in order, so the first
    error is the one the per-row calls raise.
    """
    if not polys:
        return []
    s = _HINT_STEPS[0]
    p = np.array(polys, dtype=object).T
    count = p.shape[1]
    a = [math.floor(h * 2.0 ** s) - 1 for h in hints]
    scaled = p * np.array([1 << (s * i) for i in range(len(p))], dtype=object)[:, None]
    shifts = np.array(a + [v + 2 for v in a], dtype=object)
    above = _shifted_sign_changes(np.concatenate([scaled, scaled], axis=1), shifts).tolist()
    positive = (_sign_changes_stack(p) >= 2).tolist()
    out = []
    for r, (above_a, above_b) in enumerate(zip(above[:count], above[count:])):
        if above_b <= 1 < above_a:
            out.append((positive[r], _multiplicity(polys[r], a[r], s, above_a, above_b, hints[r])))
        else:
            out.append(lambda2_counts(polys[r], hints[r]))
    return out


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


def _square_free_part(p: List[int]) -> List[int]:
    """p / gcd(p, p') for a monic integer polynomial p of degree >= 1: the
    monic integer polynomial with the distinct roots of p, each simple."""
    return _divide(p, _gcd(p, _derivative(p)))


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
    sorted by value descending (real parts: np.roots may split close roots)."""
    coeffs = charpoly_int(a)
    if any(a[i][j] != a[j][i] for i in range(len(a)) for j in range(i)):
        raise ValueError("matrix must be symmetric")
    roots: List[Tuple[float, int]] = []
    for factor, mult in square_free_decomposition(coeffs):
        if len(factor) > 1:
            roots += [(float(r.real), mult) for r in np.roots([float(c) for c in factor])]
    roots.sort(key=lambda t: -t[0])
    return roots
