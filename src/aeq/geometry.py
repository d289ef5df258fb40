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
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
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

    @property
    def is_exact(self) -> bool:
        return self.dist_tol == 0.0 and self.eig_tol == 0.0


DEFAULT_TOL = Tolerance()


def _coerce_row(row: Sequence, mode: str) -> tuple:
    if mode == EXACT_MODE:
        out = []
        for c in row:
            if isinstance(c, Fraction):
                out.append(c)
            elif isinstance(c, int):
                out.append(Fraction(c))
            else:
                raise ValueError(
                    "exact mode requires int or Fraction coordinates, got %r"
                    % type(c).__name__
                )
        return tuple(out)
    out = tuple(float(c) for c in row)
    if not all(map(math.isfinite, out)):
        raise ValueError("coordinates must be finite, got %r" % (out,))
    return out


@dataclass(frozen=True)
class PointSet:
    """A finite list of points in R^dim, all rows of equal length.

    The coordinate array and the squared-distance matrix are computed once,
    on first use, and are read-only: every check on the set shares them, as
    it shares the triple verdict and the spectral certificate per tolerance.
    An exact set also keeps its integer form (``integer_form``,
    ``integer_sqdist``), on which every exact check computes.
    """

    dim: int
    points: Tuple[tuple, ...]
    mode: str = FLOAT_MODE
    # dist_tol -> TripleCheck, filled by is_almost_equidistant
    _triple_checks: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    # Tolerance -> SpectralCertificate, filled by spectral.certify
    _certificates: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.mode not in (FLOAT_MODE, EXACT_MODE):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.dim < 1:
            raise ValueError("dim must be at least 1")
        rows = tuple(_coerce_row(r, self.mode) for r in self.points)
        if not rows:
            raise ValueError("point set must contain at least one point")
        for r in rows:
            if len(r) != self.dim:
                raise ValueError(
                    f"ragged point set: expected {self.dim} coordinates, got {len(r)}"
                )
        object.__setattr__(self, "points", rows)

    @property
    def n(self) -> int:
        return len(self.points)

    @cached_property
    def array(self) -> np.ndarray:
        a = np.array([[float(c) for c in row] for row in self.points], dtype=float)
        a.flags.writeable = False
        return a

    @cached_property
    def integer_form(self) -> Tuple[np.ndarray, int]:
        """Exact mode: (X, q) with points == X / q, X a read-only object
        array of Python ints and q the lcm of the coordinate denominators."""
        if self.mode != EXACT_MODE:
            raise ValueError("only an exact point set has an integer form")
        q = math.lcm(*(c.denominator for row in self.points for c in row))
        x = np.array(
            [[c.numerator * (q // c.denominator) for c in row] for row in self.points],
            dtype=object,
        )
        x.flags.writeable = False
        return x, q

    @cached_property
    def integer_sqdist(self) -> Tuple[np.ndarray, int]:
        """Exact mode: (D, q^2) with D / q^2 the squared distances, D a
        read-only object array of Python ints; a pair is at unit distance
        iff its entry is q^2."""
        x, q = self.integer_form
        d2 = pairwise_squared_distances(x)
        d2.flags.writeable = False
        return d2, q * q

    @cached_property
    def sqdist(self):
        """n x n squared distances: ndarray in float mode, Fraction rows in exact."""
        if self.mode == EXACT_MODE:
            d2, q2 = self.integer_sqdist
            return tuple(tuple(Fraction(v, q2) for v in row) for row in d2.tolist())
        d2 = pairwise_squared_distances(self.array)
        d2.flags.writeable = False
        return d2

    @classmethod
    def from_array(cls, arr, mode: str = FLOAT_MODE) -> "PointSet":
        a = np.atleast_2d(np.asarray(arr, dtype=float))
        return cls(dim=a.shape[1], points=tuple(map(tuple, a.tolist())), mode=mode)

    @classmethod
    def exact_rows(cls, rows: Sequence[Sequence]) -> "PointSet":
        rows = [tuple(Fraction(c) for c in r) for r in rows]
        return cls(dim=len(rows[0]), points=tuple(rows), mode=EXACT_MODE)

    def with_points(self, rows) -> "PointSet":
        return PointSet(dim=self.dim, points=tuple(tuple(r) for r in rows), mode=self.mode)

    def default_tol(self) -> Tolerance:
        return Tolerance.exact() if self.mode == EXACT_MODE else DEFAULT_TOL


def _resolve_tol(s: PointSet, tol: Optional[Tolerance]) -> Tolerance:
    return s.default_tol() if tol is None else tol


def squared_distance(p: Sequence, q: Sequence):
    """Exact squared Euclidean distance; stays rational on rational input."""
    if len(p) != len(q):
        raise ValueError("dimension mismatch")
    return sum((a - b) * (a - b) for a, b in zip(p, q))


def pairwise_squared_distances(x: np.ndarray) -> np.ndarray:
    """Squared distances between the rows of an array, clamped at 0.

    Serves both modes: a float array gives floats, an object array of
    Python ints gives exact ints.
    """
    sq = np.einsum("ij,ij->i", x, x)
    d2 = sq[:, None] + sq[None, :] - 2 * (x @ x.T)
    np.fill_diagonal(d2, 0)
    return np.maximum(d2, 0)


def _exact_floats(ints: np.ndarray, scale: int) -> np.ndarray:
    """ints / scale as floats, each entry correctly rounded like
    float(Fraction(v, scale)); never rounded twice."""
    return np.array([[v / scale for v in row] for row in ints.tolist()], dtype=float)


def squared_distance_matrix(s: PointSet):
    """The set's own n x n squared distances (read-only; see PointSet.sqdist)."""
    return s.sqdist


def _float_sqdist(s: PointSet) -> np.ndarray:
    """The squared distances as floats; in exact mode each is correctly rounded."""
    if s.mode == EXACT_MODE:
        return _exact_floats(*s.integer_sqdist)
    return s.sqdist


@dataclass(frozen=True)
class TripleCheck:
    ok: bool
    witness: Optional[Tuple[int, int, int]]  # indices of a triple with no unit pair


def is_almost_equidistant(s: PointSet, tol: Optional[Tolerance] = None) -> TripleCheck:
    """Every triple must contain a pair at unit distance.

    Equivalent formulation: the graph of non-unit pairs must be triangle
    free. Detection walks non-unit pairs and intersects adjacency bitsets,
    returning the first offending triple in index order. The verdict is
    kept on the set, so each (set, dist_tol) is checked once.
    """
    tol = _resolve_tol(s, tol)
    check = s._triple_checks.get(tol.dist_tol)
    if check is None:
        check = s._triple_checks[tol.dist_tol] = _triple_check(s, tol.dist_tol)
    return check


def _triple_check(s: PointSet, dist_tol: float) -> TripleCheck:
    n = s.n
    if n < 3:
        return TripleCheck(True, None)
    if s.mode == EXACT_MODE:
        d2, q2 = s.integer_sqdist
        nonunit = d2 != q2
    else:
        nonunit = np.abs(s.sqdist - 1.0) > dist_tol
    np.fill_diagonal(nonunit, False)
    # bit k of masks[i] set iff pair (i, k) is not unit
    masks = [
        int.from_bytes(np.packbits(row, bitorder="little").tobytes(), "little")
        for row in nonunit
    ]
    for i in range(n):
        mi = masks[i]
        for j in range(i + 1, n):
            if not (mi >> j) & 1:
                continue
            common = mi & masks[j]
            if common:
                k = (common & -common).bit_length() - 1
                tri = tuple(sorted((i, j, k)))
                return TripleCheck(False, tri)
    return TripleCheck(True, None)


def barycenter(s: PointSet) -> tuple:
    if s.mode == EXACT_MODE:
        n = s.n
        return tuple(sum(col) / n for col in zip(*s.points))
    return tuple(s.array.mean(axis=0).tolist())


def recenter_to_barycenter(s: PointSet) -> PointSet:
    """Translate so the barycenter is the origin; exact in rational mode."""
    if s.mode == EXACT_MODE:
        # points - barycenter == (n X - column sums of X) / (n q)
        x, q = s.integer_form
        nq = s.n * q
        rows = (s.n * x - x.sum(axis=0)).tolist()
        return s.with_points([tuple(Fraction(v, nq) for v in row) for row in rows])
    x = s.array - np.asarray(barycenter(s))
    return s.with_points(map(tuple, x.tolist()))


def diameter(s: PointSet) -> float:
    if s.mode == EXACT_MODE:
        d2, q2 = s.integer_sqdist
        return math.sqrt(d2.max() / q2)
    return math.sqrt(float(s.sqdist.max()))


@dataclass(frozen=True)
class GeometrySummary:
    diameter: float
    mer_center: tuple
    mer_radius: float
    barycenter: tuple
    mer_radius_sq: object = None  # exact squared radius in rational mode


def summarize(s: PointSet, tol: Optional[Tolerance] = None) -> GeometrySummary:
    """Diameter, minimum enclosing ball, and barycenter of the set."""
    from .miniball import min_enclosing_ball

    center, radius, radius_sq = min_enclosing_ball(s)
    return GeometrySummary(
        diameter=diameter(s),
        mer_center=center,
        mer_radius=radius,
        barycenter=barycenter(s),
        mer_radius_sq=radius_sq,
    )


def barycenter_identity_check(x: PointSet, y: PointSet):
    """Residual of the cross-sum identity between two equal-size sets.

    sum_{i,j} |x_i - y_j|^2 = sum_{i<j} |x_i - x_j|^2 + sum_{i<j} |y_i - y_j|^2
                              + n^2 |xbar - ybar|^2

    Returns |lhs - rhs|, a Fraction (exactly 0) when both sets are exact.
    """
    if x.n != y.n:
        raise ValueError("the identity needs two sets of the same size")
    if x.dim != y.dim:
        raise ValueError("dimension mismatch")
    if x.mode == EXACT_MODE and y.mode == EXACT_MODE:
        lhs = sum(
            squared_distance(p, q) for p in x.points for q in y.points
        )
        ax = sum(map(sum, x.sqdist)) / 2
        ay = sum(map(sum, y.sqdist)) / 2
        cross = squared_distance(barycenter(x), barycenter(y))
        rhs = ax + ay + x.n * x.n * cross
        return abs(lhs - rhs)
    xa, ya = x.array, y.array
    diff = xa[:, None, :] - ya[None, :, :]
    lhs = float(np.einsum("ijk,ijk->", diff, diff))
    ax = 0.5 * float(pairwise_squared_distances(xa).sum())
    ay = 0.5 * float(pairwise_squared_distances(ya).sum())
    cb = xa.mean(axis=0) - ya.mean(axis=0)
    rhs = ax + ay + x.n * x.n * float(cb @ cb)
    return abs(lhs - rhs)
