"""Cardinality bound calculators and their audit pipeline.

Each calculator returns a BoundReport: the numeric bound for the requested
regime plus, when a configuration is supplied, the observed size and whether
it satisfies the bound. Each calculator raises when a precondition it checks
fails. The sphere and ball bounds check their geometric hypothesis (points on
the sphere, or inside the ball) and the count, but not that the set is almost
equidistant; the diameter bound and the general pipeline also check the
triple condition.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from typing import Optional

import numpy as np

from .constructions import INV_SQRT2
from .geometry import (
    EXACT_MODE,
    FLAG_ULPS,
    PointSet,
    Tolerance,
    _resolve_tol,
    band_deviation,
    diameter,
    float_text,
    nonunit_mask,
    recenter_to_barycenter,
    sphere_defect,
)
from .miniball import min_enclosing_ball
from .spectral import NonFiniteMatrix, certify, defect_matrix


@dataclass(frozen=True)
class BoundReport:
    theorem: str
    dim: int
    params: dict
    bound: Optional[int]  # None means no finite bound in this regime
    n_observed: Optional[int] = None
    satisfied: Optional[bool] = None
    detail: dict = field(default_factory=dict)


def conjectured_diameter_max(d: int) -> int:
    """Conjectured tight size of diameter-1 sets: floor(3(d+1)/2)."""
    return (3 * (d + 1)) // 2


def _check_dim(d: int, points: Optional[PointSet]) -> None:
    """The check every calculator shares: d >= 1, and given points, points in R^d."""
    if d < 1:
        raise ValueError("d must be at least 1")
    if points is not None and points.dim != d:
        raise ValueError("dimension mismatch between points and d")


def _report(theorem, d, params, bound, detail, points, holds) -> BoundReport:
    """The one verdict rule: given points and a finite bound, satisfied is
    n <= bound and holds; otherwise None, and n_observed is None without points."""
    n = None if points is None else points.n
    satisfied = None if n is None or bound is None else (n <= bound and holds)
    return BoundReport(theorem, d, params, bound, n, satisfied, detail)


def sphere_bound(
    d: int,
    r: float,
    points: Optional[PointSet] = None,
    tol: Optional[Tolerance] = None,
) -> BoundReport:
    """Size bound on an origin-centered sphere of radius r <= 1/sqrt(2).

    2d + 2 points below the critical radius; exactly at 1/sqrt(2) the
    sharper 2d applies.
    """
    _check_dim(d, points)
    tol = _resolve_tol(points, tol)
    slack = tol.slack("sphere")
    if not r > 0:
        raise ValueError("radius must be positive")
    if r > INV_SQRT2 + slack:
        raise ValueError("radius exceeds 1/sqrt(2); no bound in this regime")
    critical = abs(r - INV_SQRT2) <= slack
    bound = 2 * d if critical else 2 * d + 2
    detail = {"critical_radius": critical, "radius": r}
    if points is not None:
        detail["max_sphere_defect"] = sphere_defect(points, r, tol)
    return _report("sphere", d, {"radius": r}, bound, detail, points, True)


# an exact value in a message is written as a fraction below this size
_SHORT_FRACTION = 10 ** 40


def diameter_bound(
    d: int,
    points: Optional[PointSet] = None,
    tol: Optional[Tolerance] = None,
) -> BoundReport:
    """Size bound 2d + 4 for diameter-1 sets.

    With a configuration: verifies the diameter cap, certifies the set, and
    checks lambda_max + lambda_min <= 0 through the nonnegativity of the
    negated defect matrix (its spectral radius is attained at a nonnegative
    eigenvalue, which forces the sum down), up to the slack of the
    eigensolver and of the positive entries that dist_tol lets through.
    """
    _check_dim(d, points)
    bound = 2 * d + 4
    detail = {"conjectured_tight": conjectured_diameter_max(d)}
    if points is None:
        return _report("diameter", d, {}, bound, detail, None, True)
    tol = _resolve_tol(points, tol)
    d2, scale = points.scaled_sqdist
    d2_max = max(d2.max(axis=1).tolist())  # a Python int or float
    # an exact set caps D at q^2 exactly, before any float is taken of it,
    # and names D / q^2 exactly while its digits are few; a float set caps
    # the diameter
    if points.mode == EXACT_MODE and d2_max > scale:
        top = Fraction(d2_max, scale)
        text = str(top) if max(top.numerator, top.denominator) < _SHORT_FRACTION else float_text(top)
        raise ValueError(f"squared diameter {text} exceeds 1")
    diam = diameter(points)
    if diam > 1.0 + tol.slack("unit"):
        raise ValueError(f"diameter {diam:.12g} exceeds 1 + dist_tol")
    cert = certify(points, tol)
    eig_tol = tol.slack("solver")
    u_max = float((d2_max - scale) / scale)  # the largest entry of U
    if u_max > eig_tol:
        raise ValueError("matrix has a negative entry")
    # Perron-Frobenius on -U with its negative entries cleared, a change
    # that moves each eigenvalue by at most n * max(0, u_max) (Weyl)
    rho = max(cert.lambda_max, -cert.lambda_min)
    slack = eig_tol * max(1.0, rho) + 2 * points.n * max(0.0, u_max)
    perron_attained = -cert.lambda_min >= cert.lambda_max - slack
    lam_sum = cert.lambda_max + cert.lambda_min
    lam_sum_ok = lam_sum <= slack
    detail.update(
        {
            "diameter": diam,
            "lambda_sum": lam_sum,
            "lambda_sum_ok": lam_sum_ok,
            "perron_attained": perron_attained,
            "certificate": asdict(cert),
        }
    )
    return _report("diameter", d, {}, bound, detail, points, lam_sum_ok)


CAP_FACTOR = 100  # the threshold scan's window ends at CAP_FACTOR * (d + 1)
_SCAN_BLOCK = 2 ** 16  # values of n the threshold scan holds at once


def ball_bound_threshold(d: int, c0: float) -> Optional[int]:
    """Smallest n >= 2d+2 from which the eigenvalue chain is contradictory.

    For a set in a ball of radius sqrt(1/2 + r), r = c0/(d+1)^(2/3), whose
    defect matrix has an eigenvalue lambda > 1, the chain
    (2nr + 1)^3 >= lambda^3 > (n-d-1)^3/(d+1)^2 - (n-d-2) fails as soon as
    the outer sides cross, i.e. when the cubic side reaches the Weyl side.
    Returns the smallest n in [2d+2, CAP_FACTOR*(d+1)] past which the gap
    stays nonnegative for the rest of the window, or None if it never does.
    The window is scanned from the top in blocks of ``_SCAN_BLOCK`` values,
    down to the first block that holds a negative gap.
    """
    _check_dim(d, None)
    if not c0 >= 0:
        raise ValueError("c0 must be nonnegative")
    r = c0 / (d + 1) ** (2.0 / 3.0)
    lo, hi = 2 * d + 2, CAP_FACTOR * (d + 1)
    for top in range(hi, lo - 1, -_SCAN_BLOCK):
        start = max(lo, top - _SCAN_BLOCK + 1)
        ns = np.arange(start, top + 1, dtype=float)
        cubic = (ns - d - 1) ** 3 / (d + 1) ** 2 - (ns - d - 2)
        weyl = (2.0 * ns * r + 1.0) ** 3
        bad = np.flatnonzero(cubic - weyl < 0)
        if len(bad):
            last_bad = start + int(bad[-1])
            return None if last_bad == hi else last_bad + 1
    return lo


def ball_bound(
    d: int,
    c0: float,
    points: Optional[PointSet] = None,
    tol: Optional[Tolerance] = None,
) -> BoundReport:
    """Overall size bound in a ball of radius sqrt(1/2 + c0/(d+1)^(2/3)).

    Sets whose defect matrix has an eigenvalue above 1 are capped one below
    the contradiction threshold; sets without one are capped at 2d + 4, so
    the overall bound is the max of the two branches.
    """
    _check_dim(d, points)
    threshold = ball_bound_threshold(d, c0)
    spike_bound = threshold - 1 if threshold is not None else None
    no_spike_bound = 2 * d + 4
    bound = max(spike_bound, no_spike_bound) if spike_bound is not None else None
    radius = math.sqrt(0.5 + c0 / (d + 1) ** (2.0 / 3.0))
    detail = {
        "threshold": threshold,
        "spike_branch_bound": spike_bound,
        "no_spike_branch_bound": no_spike_bound,
        "ball_radius": radius,
    }
    if points is not None:
        center, mer_radius, mer_radius_sq = min_enclosing_ball(points)
        if mer_radius_sq is not None:
            # exact: the only slack is the rounding of the float radius
            limit = radius * radius
            too_wide = mer_radius_sq > limit + FLAG_ULPS * math.ulp(limit)
        else:
            too_wide = mer_radius > radius + _resolve_tol(points, tol).slack("ball")
        if too_wide:
            raise ValueError(
                f"enclosing radius {float_text(mer_radius)} exceeds the stated ball radius"
                f" {radius:.12g}"
            )
        detail["mer_radius"] = mer_radius
    return _report("ball", d, {"c0": c0}, bound, detail, points, True)


@dataclass(frozen=True)
class FStatistic:
    """Max absolute row sum of the defect matrix, with the raw row sums."""

    value: object
    argmax_index: int
    per_point_sums: tuple


def f_statistic(s: PointSet) -> FStatistic:
    u = defect_matrix(s)
    # an int64 U's entries are below 2^53, so its row sums fit int64 while n <= 2^10
    big = u.values.dtype == np.int64 and u.n > 2 ** 10
    sums = u.values.sum(axis=1, dtype=object if big else None)
    arg = int(np.abs(sums).argmax())
    sums = sums.tolist()
    if s.mode == EXACT_MODE:
        sums = [Fraction(v, u.scale) for v in sums]
    return FStatistic(
        value=abs(sums[arg]),
        argmax_index=arg,
        per_point_sums=tuple(sums),
    )


@dataclass(frozen=True)
class RecentredNormBounds:
    max_deviation: float
    f_over_n_bound: float
    holds: bool
    f_value: float  # max |row sum|
    centered_defect: float  # max |row sum - 1|, the quantity the bound needs


def recentred_norm_bounds(
    s: PointSet, tol: Optional[Tolerance] = None
) -> RecentredNormBounds:
    """After recentring, |norm^2 - 1/2| is at most 3/(2n) times the
    centered row statistic max_i |row_sum_i - 1|.

    The shift by one accounts for the missing diagonal term of the row sum;
    without it the budget would be violated already by a unit simplex. Both
    statistics are reported.

    The bound holds by an identity: with c_i = row_sum_i - 1 and
    e_i = |x_i|^2 - 1/2, a recentred set has c_i = n e_i + sum(e), so
    |e_i| <= (|c_i| + |sum(c)| / (2n)) / n < 3 max|c| / (2n) whenever
    max|c| > 0. The check is kept as a margin report: ``holds`` can be false
    only through float rounding.
    """
    tol = _resolve_tol(s, tol)
    n = s.n
    x, _ = s.form
    centre = np.abs(x.sum(axis=0)).max()  # n q max |barycenter coordinate|
    if (centre > 0) if s.mode == EXACT_MODE else (centre / n > tol.slack("ball")):
        raise ValueError("set must be recentred to its barycenter")
    fs = f_statistic(s)
    centered = max(abs(v - 1) for v in fs.per_point_sums)
    budget = 3 * centered / (2 * n)
    norms = np.einsum("ij,ij->i", x, x)
    dev, limit, scale = band_deviation(s, norms, Fraction(1, 2), tol, "unit", budget)
    max_dev = np.abs(dev).max()
    try:  # an exact value past the float range cannot be reported
        deviation, bound, f_value, defect = map(float, (max_dev / scale, budget, fs.value,
                                                         centered))
    except OverflowError as e:
        raise NonFiniteMatrix("norm band values overflow the float range") from e
    return RecentredNormBounds(
        max_deviation=deviation,
        f_over_n_bound=bound,
        holds=bool(max_dev <= limit),
        f_value=f_value,
        centered_defect=defect,
    )


@dataclass(frozen=True)
class AnchorDefectReport:
    lhs: float
    rhs_scale: float  # sqrt(d) + d sqrt(x) + d x, without the unknown constant
    ratio: float
    kept: int
    discarded: int


def anchor_defect_ratio(
    s: PointSet,
    anchor_index: int,
    x: float,
    tol: Optional[Tolerance] = None,
) -> AnchorDefectReport:
    """Defect sum of one anchor point against a unit-simplex remainder.

    Preconditions: the set is almost equidistant and every squared norm is
    within x of 1/2. The points kept, those off unit distance from the
    anchor, are then pairwise at unit distance: the unit pairs are the
    triple check's, so a non-unit pair among them would be a witness. The
    statement's constant is unquantified, so only the ratio
    lhs / (sqrt(d) + d sqrt(x) + d x) is reported.
    """
    tol = _resolve_tol(s, tol)
    if not 0 <= anchor_index < s.n:
        raise ValueError("anchor index out of range")
    nonunit = nonunit_mask(s, tol)
    if not x >= 0:
        raise ValueError("norm band x must be nonnegative")
    xs, _ = s.form
    norms = np.einsum("ij,ij->i", xs, xs)
    dev, limit, scale = band_deviation(s, norms, Fraction(1, 2), tol, "sphere", x)
    worst = np.abs(dev).max()
    if worst > limit:
        raise ValueError(
            f"norm band violated: |norm^2 - 1/2| up to {float_text(worst, scale, '.3e')}"
            f" > x={x:.3e}"
        )
    kept = np.flatnonzero(nonunit[anchor_index])
    d2, q2 = s.scaled_sqdist
    # q^2 times the defects D / q^2 - 1, as Python numbers: their sum outgrows int64
    dev = [v - q2 for v in d2[anchor_index, kept].tolist()]
    lhs = abs(sum(dev)) / q2 if s.mode == EXACT_MODE else abs(math.fsum(dev))
    rhs = math.sqrt(s.dim) + s.dim * math.sqrt(x) + s.dim * x
    return AnchorDefectReport(
        lhs=lhs,
        rhs_scale=rhs,
        ratio=lhs / rhs,
        kept=len(kept),
        discarded=s.n - 1 - len(kept),
    )


def general_bound_pipeline(
    s: PointSet, tol: Optional[Tolerance] = None
) -> BoundReport:
    """Audit chain: verify, recentre, row statistic, norm band, ball branch.

    Concludes 2d + 4 whenever the recentred set fits in the critical ball of
    radius 1/sqrt(2); otherwise enters the small-excess ball regime if the
    implied c0 stays below 1/2, and reports no finite bound past that.
    """
    tol = _resolve_tol(s, tol)
    stages = []
    nonunit_mask(s, tol)  # raises unless the set is almost equidistant
    stages.append({"name": "verify", "ok": True, "witness": None})
    centered = recenter_to_barycenter(s)
    stages.append({"name": "recenter", "ok": True})
    nb = recentred_norm_bounds(centered, tol)
    stages.append({"name": "row_statistic", "ok": True, "f": nb.f_value})
    stages.append(
        {
            "name": "norm_band",
            "ok": nb.holds,
            "max_deviation": nb.max_deviation,
            "budget": nb.f_over_n_bound,
        }
    )
    d = s.dim
    x = centered.array
    radius_actual = math.sqrt(float(np.einsum("ij,ij->i", x, x).max()))
    radius_band = math.sqrt(0.5 + nb.f_over_n_bound)
    excess = radius_actual ** 2 - 0.5
    cert = certify(s, tol)
    stages.append({"name": "certificate", "ok": cert.lemma1_holds, "certificate": asdict(cert)})
    detail = {
        "stages": stages,
        "radius_actual": radius_actual,
        "radius_from_band": radius_band,
    }
    # the branch reads an exact set's exact max |X|^2, a float set's reported radius
    xs, _ = centered.form
    top = max((xs * xs).sum(axis=1).tolist()) if s.mode == EXACT_MODE else radius_actual ** 2
    dev, limit, _ = band_deviation(centered, [top], Fraction(1, 2), tol, "ball")
    if dev[0] <= limit:
        branch = "critical_ball"
        bound = 2 * d + 4
    else:
        # a float report value: it may read <= 0 when the exact excess is positive
        c0_implied = excess * (d + 1) ** (2.0 / 3.0)
        detail["c0_implied"] = c0_implied
        if c0_implied < 0.5:
            branch = "small_ball"
            ball = ball_bound(d, max(c0_implied, 0.0))
            detail["threshold"] = ball.detail["threshold"]
            bound = ball.bound
        else:
            branch = "out_of_regime"
            bound = None
    detail["branch"] = branch
    return _report("general", d, {}, bound, detail, s, True)
