"""Exact characteristic polynomials, root counts and square-free
decomposition.

Faddeev-LeVerrier (all intermediates are integral for an integer matrix;
the divisions are exact) is one loop over a stack of matrices, in int64
when one bound on every intermediate, checked up front, allows it, and
over Python ints otherwise. The characteristic polynomial of a symmetric
matrix is real-rooted, so Descartes' rule of signs counts its roots above
a dyadic point exactly; the second largest root and its multiplicity come
from two such counts around a float hint, taken for a whole stack of
polynomials at once.

Musser's square-free decomposition runs over the integers as a chain of
gcds: a characteristic polynomial is monic, so by Gauss's lemma every gcd
and quotient in the chain is a monic integer polynomial. The gcds come
from primitive pseudo-remainder sequences, the quotients from exact
division by a monic divisor, and Fractions are built only for the factors
returned. The chain's first step, p / gcd(p, p'), is the square-free part
that the root counts split a multiple root with. Intended for small
matrices, n <= 12.
"""
from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import List, Sequence, Tuple

import numpy as np


def _faddeev_leverrier(a: np.ndarray) -> np.ndarray:
    """The characteristic polynomial coefficients (G, n + 1), highest degree
    first, of each matrix of a square stack (G, n, n), by one
    Faddeev-LeVerrier loop in the stack's own dtype: int64, where the caller
    has bounded every intermediate, or object, over Python ints."""
    count, n, _ = a.shape
    coeffs = np.zeros((count, n + 1), dtype=a.dtype)
    coeffs[:, 0] = 1
    diag = np.diag_indices(n)
    m = np.broadcast_to(np.identity(n, dtype=a.dtype), a.shape)
    for k in range(1, n + 1):
        am = a @ m
        tr = np.trace(am, axis1=1, axis2=2)
        if np.any(tr % k):
            raise ArithmeticError("trace division is not exact; matrix not integral?")
        c = -tr // k
        coeffs[:, k] = c
        am[:, diag[0], diag[1]] += c[:, None]
        m = am
    return coeffs


def charpoly_int(a: Sequence[Sequence[int]]) -> List[int]:
    """Monic characteristic polynomial coefficients, highest degree first,
    of one square matrix of ints: the Faddeev-LeVerrier loop over Python
    ints, which cannot overflow."""
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("matrix must be square")
    a = np.array([[operator.index(v) for v in row] for row in a], dtype=object).reshape(1, n, n)
    return _faddeev_leverrier(a)[0].tolist()


# Every int64 intermediate stays below 2**62: the factor 2 to the int64
# limit absorbs the rounding of the row sums, which are taken in floats.
_INT64_BUDGET = 2 ** 62


def charpoly_stack(stack) -> List[List[int]]:
    """``charpoly_int`` of each matrix of an integer stack (G, n, n), by one
    Faddeev-LeVerrier loop over the whole stack, in int64 when one bound
    checked up front allows it and over Python ints otherwise.

    With R = max(1, the largest absolute row sum in the stack), the step
    matrix M_k = sum_j c_j A^(k - j) has |c_j| <= C(n, j) R^j, so every
    entry of M_k is at most 2^n R^k. Every partial sum of A @ M, every
    trace and every updated diagonal is then at most (n + 1) 2^n R^n.
    """
    a = np.asarray(stack)
    if a.ndim != 3 or a.shape[1] != a.shape[2]:
        raise ValueError("stack must have shape (G, n, n)")
    if not np.can_cast(a.dtype, np.int64):
        raise ValueError(f"stack must hold integers, got dtype {a.dtype}")
    a = a.astype(np.int64)
    n = a.shape[1]
    r = max(1, int(np.abs(a.astype(float)).sum(axis=2).max(initial=0.0)))
    fits = (n + 1) * 2 ** n * r ** n <= _INT64_BUDGET
    return _faddeev_leverrier(a if fits else a.astype(object)).tolist()


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
    return _sign_changes(_taylor_shift(c, a) if a else c)


def _taylor_shift(c, a):
    """c, the coefficients of P highest degree first, turned in place into
    those of the Taylor shift P(y + a), and returned. c is a list of ints
    with an int a, or an object array (n + 1, R) of Python ints whose
    columns are R polynomials, with a row of R shifts as a."""
    for i in range(len(c) - 1, 0, -1):  # Horner pass i leaves the coefficient of y^(n - i)
        acc = c[0]
        for j in range(1, i + 1):
            acc = c[j] = c[j] + a * acc
    return c


# Dyadic precisions s tried in turn for the interval (k - 1, k + 1] / 2**s,
# k = floor(hint 2**s), around the hint: 2**-19 (about 2e-6) wide first,
# wider for a poor hint.
_HINT_STEPS = (20, 10, 0)
# Bisection gives up on an interval 2**-_MAX_BITS wide that still holds two
# distinct roots.
_MAX_BITS = 128


def _not_isolated(hint: float) -> ArithmeticError:
    return ArithmeticError(f"cannot isolate the second largest root near {float(hint)!r}")


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


def lambda2_counts_stack(polys: Sequence[Sequence[int]],
                         hints: Sequence[float]) -> List[Tuple[bool, int]]:
    """For each characteristic polynomial p (monic, integer, real-rooted) of
    a symmetric matrix, all of one degree n >= 2, coefficients as Python
    ints (``charpoly_stack``'s) in lists or tuples, and its float hint:
    whether its second largest root lambda2, counted with multiplicity, is
    positive, and the multiplicity of lambda2.

    Both come from exact root counts N(> x). lambda2 > 0 exactly when
    N(> 0) >= 2. The hint only places a dyadic interval
    (a, b] = (k - 1, k + 1] / 2**s, k = floor(hint 2**s): when
    N(> b) <= 1 < N(> a), lambda2 lies in (a, b], and ``_multiplicity``
    completes the count from there. Each precision s of ``_HINT_STEPS`` in
    turn counts both ends for the rows it has not placed yet, in one stacked
    pass over an object array (n + 1, R) of Python ints. Rows finish in
    order, so the ArithmeticError raised is the first row's for which no
    interval holds lambda2, or none narrower than 2**-_MAX_BITS isolates it.
    """
    if not polys:
        return []
    p = np.array(polys, dtype=object).T
    positive = (_sign_changes_stack(p) >= 2).tolist()
    placed = {}
    rows = list(range(p.shape[1]))
    for s in _HINT_STEPS:
        a = [math.floor(hints[r] * 2.0 ** s) - 1 for r in rows]
        scaled = p[:, rows] * np.array([1 << (s * i) for i in range(len(p))], dtype=object)[:, None]
        shifts = np.array(a + [v + 2 for v in a], dtype=object)
        above = _sign_changes_stack(
            _taylor_shift(np.concatenate([scaled, scaled], axis=1), shifts)).tolist()
        for r, ar, above_a, above_b in zip(rows, a, above[:len(rows)], above[len(rows):]):
            if above_b <= 1 < above_a:
                placed[r] = (ar, s, above_a, above_b)
        rows = [r for r in rows if r not in placed]
        if not rows:
            break
    out = []
    for r, hint in enumerate(hints):
        if r not in placed:
            raise _not_isolated(hint)
        out.append((positive[r], _multiplicity(polys[r], *placed[r], hint)))
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


def _square_free_part(p: List[int]) -> List[int]:
    """p / gcd(p, p') for a monic integer polynomial p of degree >= 1: the
    monic integer polynomial with the distinct roots of p, each simple."""
    return _divide(p, _gcd(p, _derivative(p)))


def square_free_decomposition(p: Sequence) -> List[Tuple[List[Fraction], int]]:
    """Musser's square-free decomposition: returns [(factor, multiplicity)]
    with each factor square-free and monic, in increasing multiplicity, and
    the product of factor^multiplicity equal to p up to a constant.

    p is made monic, then scaled to x = t / L with L the lcm of its
    denominators, which makes it a monic integer polynomial in t. The gcd
    chain runs there: c = gcd(p, p') and w = p / c, the square-free part;
    then for i = 1, 2, ...: y = gcd(w, c), w / y is the factor of
    multiplicity i when it has degree >= 1, w <- y and c <- c / y. Each
    factor is mapped back to x.
    """
    p = _trim([Fraction(c) for c in p])
    if len(p) <= 1:
        return []
    if p[0] != 1:
        p = [c / p[0] for c in p]
    scale = math.lcm(*(c.denominator for c in p))
    # L^n p(t / L): the coefficient of t^(n - i) is p_i L^i
    ints = [c.numerator * (scale ** i // c.denominator) for i, c in enumerate(p)]
    c = _gcd(ints, _derivative(ints))
    w = _divide(ints, c)
    out = []
    i = 1
    while len(w) > 1:
        y = _gcd(w, c)
        f = _divide(w, y)
        if len(f) > 1:
            out.append(([Fraction(v, scale ** k) for k, v in enumerate(f)], i))
        w, c = y, _divide(c, y)
        i += 1
    return out
