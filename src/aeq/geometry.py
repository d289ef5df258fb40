"""Point sets, distances, and the almost-equidistant triple predicate.

Coordinates are either floats or exact ``fractions.Fraction`` values. Every
operation keeps rational inputs exact; floating inputs are compared against
explicit tolerances (``dist_tol`` acts on squared distances). An exact set
computes over integers: its points are X / q for one common denominator q,
and its squared distances are the integers D of the same kernel as float
mode, with true value D / q^2. Fractions are built only for the public
views (``points``, ``squared_distance_matrix``) and for reports.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, partial
from itertools import chain
from typing import Optional, Sequence, Tuple

import numpy as np

FLOAT_MODE = "float"
EXACT_MODE = "exact"


@dataclass(frozen=True)
class Tolerance:
    """Numeric slack: dist_tol on squared distances, eig_tol on eigenvalues.

    Floating mode wants both strictly positive; exact-rational mode uses
    ``Tolerance.exact()`` where both are exactly zero and comparisons become
    exact equality.
    """

    dist_tol: float = 1e-9
    eig_tol: float = 1e-8

    def __post_init__(self) -> None:
        for tol in (self.dist_tol, self.eig_tol):
            if not (math.isfinite(tol) and tol >= 0):
                raise ValueError(f"tolerances must be finite and nonnegative, got {tol}")

    @classmethod
    def exact(cls) -> "Tolerance":
        return cls(0.0, 0.0)

    def slack(self, name: str) -> float:
        """The float slack of the comparisons named ``name``: the one slack
        table. A site multiplies it only by its own factor (n^3, max(1, a^2),
        max(1, rho), ...); an exact set reads none, and compares exactly."""
        d, e = self.dist_tol, self.eig_tol
        return {
            "unit": d,  # unit pairs, diameter cap, recentred norm band
            "sphere": max(d, 1e-15),  # sphere, anchor band, lift, far pairs
            "ball": max(d, 1e-12),  # ball radius, recentring, pipeline branch
            "eig": e,  # trace cap, symmetry, cubic bounds (Weyl, Perron: bare)
            "solver": e if e > 0 else 1e-8,  # a float eigensolver's clusters
            "eig_sum": max(e, 1e-12),  # eigenvalue sum drift, cubic sum
        }[name]


DEFAULT_TOL = Tolerance()
FLAG_ULPS = 4  # an exact set's only slack: the rounding of a float flag, in its ulps
DISTINCT_SAMPLE = 4096  # the coordinates _integer_form reads to see if values repeat
EXACT_FLOATS = 2 ** 53  # every integer of smaller magnitude is a float64, so no sum that stays below it rounds


def _exact_pair(c) -> Tuple[int, int]:
    if isinstance(c, (int, Fraction)):
        return c.numerator, c.denominator
    raise ValueError(
        "exact mode requires int or Fraction coordinates, got %r" % type(c).__name__
    )


def _exact_pairs(rows) -> list:
    return [[_exact_pair(c) for c in row] for row in rows]


def _float(v) -> float:
    """float(v), with an int beyond the float range read as an infinity, which
    the point set rejects as non-finite, as it does the string "1e400"."""
    try:
        return float(v)
    except OverflowError:
        if isinstance(v, int):
            return math.inf if v > 0 else -math.inf
        raise


def _float_rows(rows):
    """The rows as one finite float64 array. On a fault the rows are walked in
    order, so the first bad row raises; unequal rows go on to the width check."""
    try:
        a = np.array(rows, dtype=float)
        if a.ndim == 2 and np.isfinite(a).all():
            return a
    except (TypeError, ValueError, OverflowError):  # unequal rows, or not numbers
        pass
    out = []
    for row in rows:
        out.append(tuple(map(_float, row)))
        if not all(map(math.isfinite, out[-1])):
            raise ValueError("coordinates must be finite, got %r" % (out[-1],))
    return out


def _checked_rows(dim: int, rows, convert):
    """convert(rows), with the faults of a set raised in one order: dim, then
    what convert raises (a bad coordinate), then no rows, then a ragged row."""
    if dim < 1:
        raise ValueError("dim must be at least 1")
    rows = convert(rows)
    if not len(rows):
        raise ValueError("point set must contain at least one point")
    for row in rows:
        if len(row) != dim:
            raise ValueError(f"ragged point set: expected {dim} coordinates, got {len(row)}")
    return rows


def _integer_form(dim, rows, pair, walk) -> Tuple[np.ndarray, int]:
    """(X, q) in lowest terms for the rows of an exact set: X an object
    array of Python ints, q the lcm of the coordinate denominators over its
    common factor with X; pair(c) is (p, d) with d > 0 for one coordinate c,
    or raises ValueError.

    The distinct pass: where every coordinate is a str or an int and at
    most half of the first DISTINCT_SAMPLE are distinct, each distinct value
    is converted once, in row-major order of first appearance, q is the lcm
    of the distinct denominators, g the gcd of q and the distinct scaled
    numerators, and X takes one dict lookup per coordinate. No str equals
    an int, so c alone is the key (type(c), c), and True and 1, or 0.5 and
    Fraction(1, 2), never share one: a bool, a float or a Fraction keeps the
    pass out. It takes rows that are a nonempty list of lists of dim
    coordinates, dim an int >= 1, that pair() converts; any other input,
    mostly distinct values among them, goes to walk(), the route's
    per-coordinate walk, which gives the rows of (p, d) pairs or raises, and
    that result, or that error, stands.
    """
    form = _distinct_form(dim, rows, pair)
    if form is not None:
        return form
    walked = walk()
    values, q = _lowest_terms(list(chain.from_iterable(walked)))
    return np.array(values, dtype=object).reshape(len(walked), -1), q


def _distinct_form(dim, rows, pair):
    """The distinct pass of _integer_form, or None when it does not take the rows."""
    if type(dim) is not int or dim < 1 or type(rows) is not list or not rows:
        return None
    if set(map(type, rows)) != {list} or set(map(len, rows)) != {dim}:
        return None
    flat = list(chain.from_iterable(rows))
    # the dict pays only where values repeat and hash in C, as a str or an
    # int does; a Fraction hashes in Python, at more than its pair costs
    sample = flat[:DISTINCT_SAMPLE]
    if not set(map(type, flat)) <= {str, int} or 2 * len(set(sample)) > len(sample):
        return None
    distinct = dict.fromkeys(flat)
    try:
        values, q = _lowest_terms(list(map(pair, distinct)))
    except ValueError:  # a bad coordinate
        return None
    values = list(map(dict(zip(distinct, values)).__getitem__, flat))
    return np.array(values, dtype=object).reshape(len(rows), dim), q


def _lowest_terms(pairs) -> Tuple[list, int]:
    """(values, q) for (p, d) pairs with d > 0: q the lcm of the d over g,
    each value p * (q // d) over g, g their gcd with the lcm."""
    q = math.lcm(*{d for _, d in pairs})
    values = [p * (q // d) for p, d in pairs]
    g = math.gcd(q, *values)
    if g > 1:
        q //= g
        values = [v // g for v in values]
    return values, q


class PointSet:
    """A finite list of points in R^dim, all rows of equal length.

    A set holds one numeric form, ``form`` = (X, q) with points == X / q:
    a float set its read-only float64 array and q = 1, an exact set a
    read-only object array of Python ints and q the lcm of the coordinate
    denominators, in lowest terms. Every check reads that form. The rest is
    derived on first use and shared: ``points`` (tuples of floats, or of
    Fractions), the float ``array`` of an exact set, the read-only squared
    distances ``scaled_sqdist``, and per tolerance the triple verdict and
    the spectral certificate.
    """

    def __init__(self, dim: int, points, mode: str = FLOAT_MODE) -> None:
        vars(self).update(dim=dim, mode=mode, _given=points)
        self.__post_init__()

    def __post_init__(self) -> None:
        """Checks the rows once and keeps the set's numeric form; runs once per set."""
        state = vars(self)
        given = state.pop("_given", None)
        if self.mode not in (FLOAT_MODE, EXACT_MODE):
            raise ValueError(f"unknown mode {self.mode!r}")
        state.update(_triple_checks={}, _certificates={})
        if "form" not in state:  # not built by _from_integers
            if self.mode == EXACT_MODE:
                walk = partial(_checked_rows, self.dim, given, _exact_pairs)
                state["form"] = _integer_form(self.dim, given, _exact_pair, walk)
            else:
                state["form"] = (_checked_rows(self.dim, given, _float_rows), 1)
        x = self.form[0]
        x.flags.writeable = False
        state["n"] = len(x)

    def __setattr__(self, name, value):
        raise AttributeError(f"PointSet is read-only, cannot set {name!r}")

    @cached_property
    def points(self) -> Tuple[tuple, ...]:
        if self.mode == EXACT_MODE:
            x, q = self.form
            return tuple(tuple(Fraction(v, q) for v in row) for row in x.tolist())
        return tuple(map(tuple, self.array.tolist()))

    @cached_property
    def array(self) -> np.ndarray:
        """The coordinates as floats, read-only; in exact mode each is correctly rounded."""
        x, q = self.form
        if self.mode == FLOAT_MODE:
            return x
        a = _exact_floats(x, q)
        a.flags.writeable = False
        return a

    @cached_property
    def scaled_sqdist(self) -> Tuple[np.ndarray, int]:
        """(D, q^2) with D / q^2 the squared distances, D read-only: floats
        with q = 1, or Python ints; a pair is at unit distance iff D is q^2."""
        x, q = self.form
        d2 = pairwise_squared_distances(x)
        d2.flags.writeable = False
        return d2, q * q

    @classmethod
    def from_array(cls, arr) -> "PointSet":
        a = np.atleast_2d(np.asarray(arr, dtype=float))
        return cls(dim=a.shape[1], points=a)

    @classmethod
    def exact_rows(cls, rows: Sequence[Sequence]) -> "PointSet":
        """The exact set of the rows: an int or a Fraction is read as it is, any
        other coordinate through Fraction(), for its value and its error."""
        return cls(dim=len(rows[0]), mode=EXACT_MODE, points=[
            [c if type(c) in (int, Fraction) else Fraction(c) for c in r] for r in rows])

    @classmethod
    def _from_integers(cls, x: np.ndarray, q: int) -> "PointSet":
        """The exact set X / q, for X and q with no common factor."""
        s = cls.__new__(cls)
        vars(s).update(dim=x.shape[1], mode=EXACT_MODE, form=(x, q))
        s.__post_init__()
        return s


def _resolve_tol(s: Optional[PointSet], tol: Optional[Tolerance]) -> Tolerance:
    """tol, or the default: exact for an exact set, else DEFAULT_TOL (a float set or none)."""
    if tol is not None:
        return tol
    return Tolerance.exact() if s is not None and s.mode == EXACT_MODE else DEFAULT_TOL


def pairwise_squared_distances(x: np.ndarray) -> np.ndarray:
    """Squared distances between the rows of an array (n, d), clamped at 0,
    or of each set in a stack (..., n, d); the package's one distance kernel.

    Serves both modes: a float array gives floats, an object array of
    Python ints gives exact ints. With m = max|x|, every partial sum of
    |x_i|^2 + |x_j|^2 - 2 x_i.x_j is an integer of magnitude at most
    4 d m^2; when that is below 2^53, the ints run the float body, through
    BLAS, where no such sum can round, and come back as Python ints.
    Larger ints run the same body over objects. Each slice of a stack
    equals the call on that slice alone, whichever body each takes.
    """
    if x.dtype == object:
        f, m = _as_floats(x)
        if 4 * x.shape[-1] * m * m < EXACT_FLOATS:
            return _squared_distances(f).astype(np.int64).astype(object)
    return _squared_distances(x)


def _squared_distances(x: np.ndarray) -> np.ndarray:
    sq = np.einsum("...ij,...ij->...i", x, x)
    d2 = sq[..., :, None] + sq[..., None, :]
    d2 -= 2 * (x @ x.swapaxes(-1, -2))
    n = x.shape[-2]
    d2.reshape(-1, n * n)[:, :: n + 1] = 0  # the diagonals
    np.maximum(d2, 0, out=d2)
    return d2


def _as_floats(ints: np.ndarray):
    """(f, m): an object array of Python ints as float64, and m = int(max|f|),
    which is max|ints| whenever it is below 2^53 (every entry is then exact);
    (None, inf) when an int is beyond the float range."""
    try:
        f = ints.astype(float)
    except OverflowError:
        return None, math.inf
    return f, int(np.abs(f).max(initial=0))


def _exact_floats(ints: np.ndarray, scale: int) -> np.ndarray:
    """ints / scale as floats, each entry correctly rounded like
    float(Fraction(v, scale)); never rounded twice. When every |v| is below
    2^53 and scale is at most 2^53, both operands are exact floats and one
    IEEE division rounds correctly; otherwise each entry is divided as ints."""
    f, m = _as_floats(ints)
    if m < EXACT_FLOATS and scale <= EXACT_FLOATS:
        return f / scale
    return np.array([[v / scale for v in row] for row in ints.tolist()], dtype=float)


def squared_distance_matrix(s: PointSet):
    """The set's n x n squared distances: the read-only float array of a float
    set, or Fraction row tuples of an exact set, built on each call."""
    d2, q2 = s.scaled_sqdist
    if s.mode == EXACT_MODE:
        return tuple(tuple(Fraction(v, q2) for v in row) for row in d2.tolist())
    return d2


@dataclass(frozen=True)
class TripleCheck:
    ok: bool
    witness: Optional[Tuple[int, int, int]]  # indices of a triple with no unit pair


def triangle_pairs(adj: np.ndarray) -> np.ndarray:
    """The package's one triangle test: the set pairs i < j of a boolean (n, n),
    or of each in a stack (..., n, n), whose rows share a set column. A float32
    sum of 0/1 products that holds a 1 cannot round to 0, at any n."""
    a = adj.astype(np.float32)
    pairs = adj & (a @ a.swapaxes(-1, -2) > 0)
    n = adj.shape[-1]
    if n > len(_ABOVE_DIAGONAL):
        return np.triu(pairs, 1)
    pairs &= _ABOVE_DIAGONAL[:n, :n]
    return pairs


# The pairs i < j of every n up to 128, as the top left (n, n) of one
# constant. np.triu builds its mask anew on each call, about half the time
# of a small test; past 128 the product dominates, and a large mask kept
# alive fragments the heap (keeping the one of n = 1002 raised the peak
# RSS of the certify-large benchmark workload by 8 MB).
_ABOVE_DIAGONAL = np.triu(np.ones((128, 128), dtype=bool), 1)
_ABOVE_DIAGONAL.flags.writeable = False


def first_triangle(adj: np.ndarray) -> TripleCheck:
    """The first pair (i, j) of triangle_pairs(adj) in row order, and the
    lowest column k that rows i and j share, as a sorted triple."""
    pairs = triangle_pairs(adj)
    if not pairs.any():
        return TripleCheck(True, None)
    i, j = divmod(int(pairs.argmax()), len(adj))
    k = int((adj[i] & adj[j]).argmax())
    return TripleCheck(False, tuple(sorted((i, j, k))))


def is_almost_equidistant(s: PointSet, tol: Optional[Tolerance] = None) -> TripleCheck:
    """Every triple must contain a pair at unit distance.

    Equivalent formulation: the graph of non-unit pairs (off unit distance
    by the band rule with slack "unit") must be triangle free; the first offending
    triple in index order is the witness. The verdict and the non-unit mask
    are kept on the set, so each (set, dist_tol) is checked once.
    """
    tol = _resolve_tol(s, tol)
    if tol.dist_tol not in s._triple_checks:
        d2, q2 = s.scaled_sqdist
        if s.mode == EXACT_MODE:
            nonunit = d2 != q2  # the band rule at the int target 1: limit 0, no slack
        else:
            dev, limit, _ = band_deviation(s, d2, 1, tol, "unit")
            nonunit = np.abs(dev) > limit
        np.fill_diagonal(nonunit, False)
        nonunit.flags.writeable = False
        s._triple_checks[tol.dist_tol] = first_triangle(nonunit), nonunit
    return s._triple_checks[tol.dist_tol][0]


def nonunit_mask(s: PointSet, tol: Tolerance) -> np.ndarray:
    """The triple check's read-only mask of pairs off unit distance; raises
    unless the set is almost equidistant."""
    check = is_almost_equidistant(s, tol)
    if not check.ok:
        raise ValueError(f"set is not almost-equidistant, witness triple {check.witness}")
    return s._triple_checks[tol.dist_tol][1]


def flag_square(f: float):
    """f * f for a float flag f: a Fraction when exact, else the float it rounds to."""
    sq = f * f
    return Fraction(sq) if Fraction(sq) == Fraction(f) ** 2 else sq


def band_deviation(s: PointSet, v, target, tol: Tolerance, slack: str, band=0,
                   factor: float = 1.0):
    """The one band rule, scaled: (dev, limit, scale) with dev / scale =
    v / q^2 - target and limit / scale = band + slack, for the set's squared
    norms |X|^2 or squared distances D as v. An exact set computes over
    integers (limit an int when integral, else a Fraction); its only slack
    is FLAG_ULPS ulps of a float target (flag_square). A float set computes
    in floats, scale 1, with the float slack ``tol.slack(slack)`` times the
    site's own factor."""
    if s.mode == EXACT_MODE:
        t, q2 = Fraction(target), s.form[1] ** 2
        rounding = FLAG_ULPS * Fraction(math.ulp(target)) if isinstance(target, float) else 0
        dev = np.asarray(v, dtype=object) * t.denominator - t.numerator * q2
        limit = (Fraction(band) + rounding) * q2 * t.denominator
        return dev, limit.numerator if limit.denominator == 1 else limit, q2 * t.denominator
    return np.asarray(v) - float(target), float(band) + tol.slack(slack) * factor, 1


def sphere_defect(s: PointSet, r: float, tol: Tolerance) -> float:
    """max | |x|^2 - r^2 |; raises when a point is off the sphere of radius r."""
    x, _ = s.form
    dev, limit, scale = band_deviation(s, np.einsum("ij,ij->i", x, x), flag_square(r), tol,
                                       "sphere")
    worst = np.abs(dev).max()
    if worst > limit:
        raise ValueError(
            f"points do not lie on the stated sphere: |norm^2 - r^2| up to {worst / scale:.3e}"
        )
    return float(worst / scale)


def barycenter(s: PointSet) -> tuple:
    if s.mode == EXACT_MODE:
        x, q = s.form
        return tuple(Fraction(v, s.n * q) for v in x.sum(axis=0))
    return tuple(s.array.mean(axis=0).tolist())


def recenter_to_barycenter(s: PointSet) -> PointSet:
    """Translate so the barycenter is the origin; exact in rational mode."""
    if s.mode == EXACT_MODE:
        # points - barycenter == (n X - column sums of X) / (n q), in lowest terms
        x, q = s.form
        # with m = max|X|, every entry and partial sum of n X - column sums is
        # at most 2 n m in magnitude, so below 2^63 int64 holds them exactly
        xi = _small_int64(x, 2 * s.n)
        if xi is None:
            return _recentred_objects(x, q, s.n)
        y = s.n * xi - xi.sum(axis=0)
        shared = int(np.gcd.reduce(y, axis=None))
        g = math.gcd(shared, s.n * q)
        # g divides every entry; an all-zero y stays as it is
        return PointSet._from_integers((y // g if shared else y).astype(object), s.n * q // g)
    return PointSet.from_array(s.array - s.array.mean(axis=0))


def _small_int64(ints: np.ndarray, factor: int) -> Optional[np.ndarray]:
    """An object array of Python ints as int64, when factor * max|ints| is
    below 2^63; else None."""
    try:
        x = ints.astype(np.int64)
    except OverflowError:
        return None
    return x if factor * max(-int(x.min(initial=0)), int(x.max(initial=0))) < 2 ** 63 else None


def _recentred_objects(x: np.ndarray, q: int, n: int) -> PointSet:
    """The exact recentring over Python ints, for any size of entry."""
    y = n * x - x.sum(axis=0)
    g = math.gcd(*y.flat, n * q)
    return PointSet._from_integers(y // g, n * q // g)


def diameter(s: PointSet) -> float:
    d2, scale = s.scaled_sqdist
    return math.sqrt(d2.max() / scale)


def barycenter_identity_check(x: PointSet, y: PointSet):
    """Residual of the cross-sum identity between two equal-size sets.

    sum_{i,j} |x_i - y_j|^2 = sum_{i<j} |x_i - x_j|^2 + sum_{i<j} |y_i - y_j|^2
                              + n^2 |xbar - ybar|^2

    Returns |lhs - rhs|, a Fraction (exactly 0) when both sets are exact.
    Both sets are brought over one denominator Q (1 for floats), so that
    A = Q x and B = Q y are integers when both sets are exact.
    """
    if x.n != y.n:
        raise ValueError("the identity needs two sets of the same size")
    if x.dim != y.dim:
        raise ValueError("dimension mismatch")
    (a, qa), (b, qb) = x.form, y.form
    q = math.lcm(qa, qb)
    a, b = a * (q // qa), b * (q // qb)
    diff = a[:, None, :] - b[None, :, :]
    lhs = np.einsum("ijk,ijk->", diff, diff)
    within = pairwise_squared_distances(a).sum() + pairwise_squared_distances(b).sum()
    cross = a.sum(axis=0) - b.sum(axis=0)  # n Q (xbar - ybar)
    # 2 Q^2 |lhs - rhs|: within counts each pair twice
    resid = abs(2 * lhs - within - 2 * (cross @ cross))
    if x.mode == y.mode == EXACT_MODE:
        return Fraction(resid, 2 * q * q)
    return float(resid) / (2 * q * q)
