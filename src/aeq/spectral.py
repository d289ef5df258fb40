"""Distance-defect matrix and its eigenvalue certificates.

The defect matrix of n points has zero diagonal and off-diagonal entries
|v_i - v_j|^2 - 1, so unit pairs contribute exact zeros. For almost
equidistant sets its trace and cube-trace vanish, at most one eigenvalue
exceeds 1, and at least n - d - 2 eigenvalues equal 1; ``certify`` checks
all of that and the remaining helpers cover the matrix inequalities the
bound calculators lean on.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Optional, Sequence, Tuple

import numpy as np

from .geometry import (
    DEFAULT_TOL,
    EXACT_FLOATS,
    EXACT_MODE,
    FLOAT_MODE,
    PointSet,
    Tolerance,
    _exact_floats,
    _resolve_tol,
    nonunit_mask,
    squared_distance_matrix,
)


@dataclass(frozen=True, eq=False)
class DefectMatrix:
    """Symmetric n x n matrix, zero diagonal, entries d^2(v_i, v_j) - 1.

    In float mode ``values`` holds the entries, a read-only ndarray. In
    exact mode it holds the integers scale * entries (D - q^2 off the
    diagonal, with scale q^2), read-only: int64, each below 2^53, when D is
    int64 and q^2 < 2^53, else Python ints; ``array`` gives them as
    correctly rounded floats, built on first use.
    """

    n: int
    values: np.ndarray
    mode: str = FLOAT_MODE
    scale: int = 1

    @cached_property
    def array(self) -> np.ndarray:
        if self.mode == EXACT_MODE:
            try:
                a = _exact_floats(self.values, self.scale)
            except OverflowError as e:  # an entry past the float range
                raise NonFiniteMatrix("matrix entries must be finite") from e
            a.flags.writeable = False
            return a
        return self.values


class NonFiniteMatrix(ValueError):
    """A matrix, or a sum, spectrum or row sums of matrices, holding NaN or
    infinity."""


def _matrix(m) -> np.ndarray:
    """A DefectMatrix's float array, or any matrix-like input as floats;
    raises unless it is square and finite."""
    a = m.array if isinstance(m, DefectMatrix) else np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    if not np.isfinite(a).all():
        raise NonFiniteMatrix("matrix entries must be finite")
    return a


def _finite(values: np.ndarray, what: str) -> np.ndarray:
    """values, unless one of them, computed from a finite matrix, is past the
    float range."""
    if not np.isfinite(values).all():
        raise NonFiniteMatrix(f"{what} overflow the float range")
    return values


def defect_matrix(s: PointSet) -> DefectMatrix:
    # s.scaled_sqdist, with float distances read through the layer aeqbench counts
    d2, scale = s.scaled_sqdist if s.mode == EXACT_MODE else (squared_distance_matrix(s), 1)
    if d2.dtype == np.int64 and scale >= EXACT_FLOATS:  # q^2 past the int64 form's bound
        d2 = d2.astype(object)
    u = d2 - scale
    np.fill_diagonal(u, 0)
    u.flags.writeable = False
    return DefectMatrix(n=s.n, values=u, mode=s.mode, scale=scale)


@dataclass(frozen=True)
class TraceIdentities:
    trace_u: object
    trace_u3: object
    holds: bool


def trace_identities(
    u: DefectMatrix, s: PointSet, tol: Optional[Tolerance] = None
) -> TraceIdentities:
    """The trace and cube-trace of s's defect matrix u; no eigensolver.

    The cube-trace is sum_{i,j,k} U_ij U_jk U_ki. Once the triple check
    passes, both vanish as identities: U has a zero diagonal and is zero on
    every unit pair, so a nonzero term needs i, j, k distinct and pairwise
    off unit distance, a triangle of the non-unit graph, which an almost
    equidistant set has none of. Exact mode returns those zeros, so u must
    be s's own defect matrix: one of another size, mode or scale raises;
    float mode sums ((U @ U) * U^T) and holds within n^3 * eig_tol.
    """
    tol = _resolve_tol(s, tol)
    nonunit_mask(s, tol)  # raises unless the set is almost equidistant
    if u.mode == EXACT_MODE:
        if (u.n, u.mode, u.scale) != (s.n, s.mode, s.scaled_sqdist[1]):
            raise ValueError("u is not the defect matrix of s")
        return TraceIdentities(Fraction(0), Fraction(0), True)
    n = u.n
    m = u.array
    tr = float(np.trace(m))
    tr3 = float(((m @ m) * m.T).sum())
    cap = (n ** 3) * tol.slack("eig")
    return TraceIdentities(tr, tr3, tr == 0.0 and abs(tr3) <= cap)


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues sorted nonincreasing (values[0] is the largest)."""

    values: Tuple[float, ...]
    eig_tol: float


def eigenvalues(m, eig_tol: float = DEFAULT_TOL.eig_tol) -> Spectrum:
    """Symmetric eigenvalues, nonincreasing. Raises on asymmetric input."""
    a = _matrix(m)
    tol = Tolerance(eig_tol=eig_tol)
    scale = max(1.0, float(np.abs(a).max()))
    if float(np.abs(a - a.T).max()) > tol.slack("eig") * scale:
        raise ValueError("matrix is not symmetric")
    try:
        vals = np.linalg.eigvalsh(a)
    except np.linalg.LinAlgError as e:  # pragma: no cover - solver failure
        raise RuntimeError(f"eigenvalue iteration failed: {e}")
    vals = _finite(vals, "eigenvalues")[::-1]
    if abs(float(vals.sum()) - float(np.trace(a))) > scale * len(vals) * tol.slack("eig_sum"):
        raise RuntimeError("eigenvalue sum drifted from the trace")
    return Spectrum(values=tuple(float(v) for v in vals), eig_tol=eig_tol)


@dataclass(frozen=True)
class SpectralCertificate:
    n: int
    dim: int
    trace_u: float
    trace_u3: float
    count_eq_one: int
    count_gt_one: int
    lambda_max: float
    lambda_min: float
    lemma1_holds: bool


def certify(s: PointSet, tol: Optional[Tolerance] = None) -> SpectralCertificate:
    """Full spectral certificate of an almost-equidistant set.

    The certificate is kept on the set, so each (set, tolerance) is
    certified once.
    """
    tol = _resolve_tol(s, tol)
    cert = s._certificates.get(tol)
    if cert is not None:
        return cert
    u = defect_matrix(s)
    ident = trace_identities(u, s, tol)  # also enforces the triple condition
    eig_tol = tol.slack("solver")
    spec = eigenvalues(u, eig_tol)
    vals = np.array(spec.values)
    count_eq_one = int(np.sum(np.abs(vals - 1.0) <= eig_tol))
    count_gt_one = int(np.sum(vals > 1.0 + eig_tol))
    structural = count_gt_one <= 1 and count_eq_one >= s.n - s.dim - 2
    cert = s._certificates[tol] = SpectralCertificate(
        n=s.n,
        dim=s.dim,
        trace_u=float(ident.trace_u),
        trace_u3=float(ident.trace_u3),
        count_eq_one=count_eq_one,
        count_gt_one=count_gt_one,
        lambda_max=spec.values[0],
        lambda_min=spec.values[-1],
        lemma1_holds=bool(structural and ident.holds),
    )
    return cert


@dataclass(frozen=True)
class SpikedSpectrumReport:
    """Case analysis for spectra shaped (lambda0, 1, ..., 1, k tail values)."""

    n: int
    k: int
    lambda0: float
    tail: Tuple[float, ...]
    case1_applies: bool
    case1_holds: Optional[bool]
    case2_applies: bool
    case2_holds: Optional[bool]
    case3_applies: bool
    case3_holds: Optional[bool]
    cubic_lhs: Optional[float]
    cubic_rhs: Optional[float]
    holds: bool


def spiked_spectrum_check(spec: Spectrum, k: int) -> SpikedSpectrumReport:
    """Size bounds for a one-spike spectrum with a block of ones.

    Shape: the largest value lambda0 >= 1, then n-1-k values equal to 1,
    then k trailing values; trace and cube-trace vanish. Three cases:
    lambda0 = 1 forces n <= 2k; lambda0 + lambda_min <= 0 forces n <= 2k;
    n >= 2k with lambda0 > 1 forces lambda0^3 > (n-k)^3/k^2 - (n-k-1).
    """
    vals = spec.values
    n = len(vals)
    te = spec.eig_tol
    if not 1 <= k <= n - 1:
        raise ValueError("k must be between 1 and n - 1")
    lam0 = vals[0]
    ones = vals[1 : n - k]
    tail = vals[n - k :]
    if lam0 < 1.0 - te:
        raise ValueError("largest eigenvalue must be at least 1")
    if any(abs(v - 1.0) > te for v in ones):
        raise ValueError("middle block must consist of ones")
    if any(v > 1.0 + te for v in tail):
        raise ValueError("tail values may not exceed 1")
    scale = max(1.0, max(abs(v) for v in vals))
    if abs(sum(vals)) > n * te * scale:
        raise ValueError("trace does not vanish")
    if abs(sum(v ** 3 for v in vals)) > n * te * scale ** 3:
        raise ValueError("cube-trace does not vanish")

    case1 = abs(lam0 - 1.0) <= te
    case1_holds = (n <= 2 * k) if case1 else None
    case2 = lam0 + vals[-1] <= te
    case2_holds = (n <= 2 * k) if case2 else None
    case3 = n >= 2 * k and lam0 > 1.0 + te
    cubic_lhs = cubic_rhs = None
    case3_holds = None
    if case3:
        cubic_lhs = lam0 ** 3
        cubic_rhs = (n - k) ** 3 / k ** 2 - (n - k - 1)
        case3_holds = cubic_lhs > cubic_rhs - n * te * scale ** 2
    holds = all(h for h in (case1_holds, case2_holds, case3_holds) if h is not None)
    return SpikedSpectrumReport(
        n=n,
        k=k,
        lambda0=lam0,
        tail=tuple(tail),
        case1_applies=case1,
        case1_holds=case1_holds,
        case2_applies=case2,
        case2_holds=case2_holds,
        case3_applies=case3,
        case3_holds=case3_holds,
        cubic_lhs=cubic_lhs,
        cubic_rhs=cubic_rhs,
        holds=holds,
    )


@dataclass(frozen=True)
class CubicInequalityResult:
    lhs: float
    rhs: float
    holds: bool
    equality_point: float
    remark_holds: bool  # rhs >= m + 3l


def cubic_inequality(
    xs: Sequence[float], l: float, tol: Optional[Tolerance] = None
) -> CubicInequalityResult:
    """sum x_i^3 >= (m + l)^3 / m^2 for x_i >= -2 with sum x_i = m + l, l >= 0.

    Equality exactly at the constant vector x_i = 1 + l/m. The right side
    also dominates m + 3l, which is what the size bounds actually consume.
    """
    tol = _resolve_tol(None, tol)
    m = len(xs)
    if m < 1:
        raise ValueError("need at least one value")
    if l < -tol.slack("eig"):
        raise ValueError("l must be nonnegative")
    if min(xs) < -2.0 - tol.slack("eig"):
        raise ValueError("every value must be at least -2")
    slack = m * tol.slack("eig_sum")
    if abs(math.fsum(xs) - (m + l)) > slack:
        raise ValueError("values must sum to m + l")
    lhs = math.fsum(x ** 3 for x in xs)
    rhs = (m + l) ** 3 / m ** 2
    return CubicInequalityResult(
        lhs=lhs,
        rhs=rhs,
        holds=lhs >= rhs - slack,
        equality_point=1.0 + l / m,
        remark_holds=rhs >= m + 3 * l - slack,
    )


@dataclass(frozen=True)
class WeylResult:
    alpha: float
    beta: float
    gamma: float
    holds: bool  # gamma <= alpha + beta


def weyl_check(a, b, eig_tol: float = DEFAULT_TOL.eig_tol) -> WeylResult:
    """Largest eigenvalue of a sum is at most the sum of largest eigenvalues."""
    am, bm = _matrix(a), _matrix(b)
    if am.shape != bm.shape:
        raise ValueError("matrices must have equal shape")
    alpha = eigenvalues(am, eig_tol).values[0]
    beta = eigenvalues(bm, eig_tol).values[0]
    gamma = eigenvalues(am + bm, eig_tol).values[0]
    return WeylResult(alpha, beta, gamma, gamma <= alpha + beta + eig_tol)


@dataclass(frozen=True)
class PerronResult:
    rho: float
    attained: bool  # spectral radius reached by a nonnegative real eigenvalue


def perron_frobenius_check(m, eig_tol: float = DEFAULT_TOL.eig_tol) -> PerronResult:
    a = _matrix(m)
    if float(a.min()) < -eig_tol:
        raise ValueError("matrix has a negative entry")
    vals = np.linalg.eigvals(np.maximum(a, 0.0))
    rho = float(_finite(np.abs(vals), "eigenvalues").max())
    slack = eig_tol * max(1.0, rho)
    attained = bool(
        np.any(
            (np.abs(vals.imag) <= slack)
            & (vals.real >= -slack)
            & (np.abs(vals) >= rho - slack)
        )
    )
    return PerronResult(rho=rho, attained=attained)


def gershgorin_bound(m) -> float:
    """Max absolute row sum; every eigenvalue lies in [-bound, bound] when
    the diagonal vanishes (true for defect matrices)."""
    a = _matrix(m)
    with np.errstate(over="ignore"):
        sums = np.abs(a).sum(axis=1)
    return float(_finite(sums, "row sums").max())
