import itertools
import math
import sys
from dataclasses import replace

import numpy as np
import pytest

import aeq
from aeq import PointSet, SearchConfig, search
from aeq.geometry import pairwise_squared_distances


def brute_penalty(pts):
    q = None
    pts = np.asarray(pts, dtype=float)
    total = 0.0
    for i, j, k in itertools.combinations(range(len(pts)), 3):
        defects = []
        for a, b in ((i, j), (i, k), (j, k)):
            d2 = float(((pts[a] - pts[b]) ** 2).sum())
            defects.append((d2 - 1.0) ** 2)
        total += min(defects)
    return total


def test_penalty_zero_on_unit_triangle(unit_triangle):
    assert aeq.triple_penalty(unit_triangle) < 1e-15


def test_penalty_zero_below_three_points():
    assert aeq.triple_penalty(PointSet.from_array([[0.0], [5.0]])) == 0.0


def test_penalty_of_sqrt2_triangle():
    # all three pairs at squared distance 2: every pair defect is 1
    pts = [[0.0, 0.0], [math.sqrt(2.0), 0.0], [math.sqrt(0.5), math.sqrt(1.5)]]
    assert aeq.triple_penalty(PointSet.from_array(pts)) == pytest.approx(1.0)


def test_penalty_zero_on_construction():
    assert aeq.triple_penalty(aeq.construct_two_simplices(4)) <= 1e-15


def test_penalty_matches_brute_force():
    rng = np.random.default_rng(8)
    for _ in range(30):
        pts = rng.normal(size=(int(rng.integers(3, 9)), int(rng.integers(1, 4))))
        assert aeq.triple_penalty(pts) == pytest.approx(brute_penalty(pts), abs=1e-12)


def test_optimize_validates_config():
    with pytest.raises(ValueError):
        aeq.optimize(SearchConfig(dim=0, target_n=5))
    with pytest.raises(ValueError):
        aeq.optimize(SearchConfig(dim=2, target_n=0))


@pytest.mark.parametrize(
    "bad",
    [
        {"restarts": 0},
        {"restarts": -1},
        {"max_iters": -1},
        {"seed": -1},
        {"sphere_radius": 0.0},
        {"sphere_radius": -0.5},
        {"sphere_radius": math.nan},
        {"sphere_radius": math.inf},
        {"penalty_tol": -1e-18},
        {"penalty_tol": math.nan},
        {"penalty_tol": math.inf},
    ],
)
def test_optimize_rejects_meaningless_parameters(bad):
    with pytest.raises(ValueError):
        aeq.optimize(SearchConfig(dim=2, target_n=4, **bad))


def test_optimize_accepts_boundary_parameters():
    res = aeq.optimize(
        SearchConfig(dim=2, target_n=4, restarts=1, max_iters=0, seed=0, penalty_tol=0.0)
    )
    assert res.iterations_used == 0


def test_stacked_distances_match_the_geometry_kernel():
    rng = np.random.default_rng(5)
    for n in range(1, 13):
        for d in range(1, 7):
            x = rng.normal(size=(int(rng.integers(1, 9)), n, d)) * rng.uniform(0.1, 3.0)
            want = np.stack([pairwise_squared_distances(xr) - 1.0 for xr in x])
            assert np.array_equal(search._distances(x), want), (n, d)


# The descent step as it was before the fused loop: the gradient and the
# penalty each compute their own distances, and the active pairs come from a
# second gather. Kept as the oracle of search._descent.


def oracle_active_pairs(q, tri):
    pairs = np.array(
        [
            [tri[:, 0], tri[:, 1]],
            [tri[:, 0], tri[:, 2]],
            [tri[:, 1], tri[:, 2]],
        ]
    )  # (3, 2, T)
    vals = np.stack([q[pairs[k, 0], pairs[k, 1]] ** 2 for k in range(3)])
    choice = vals.argmin(axis=0)
    t = np.arange(tri.shape[0])
    return np.column_stack([pairs[choice, 0, t], pairs[choice, 1, t]])


def oracle_total_penalty(x, cfg, tri):
    q = pairwise_squared_distances(x) - 1.0
    val = 0.0
    if len(tri):
        vals = np.stack(
            [
                q[tri[:, 0], tri[:, 1]] ** 2,
                q[tri[:, 0], tri[:, 2]] ** 2,
                q[tri[:, 1], tri[:, 2]] ** 2,
            ]
        )
        val = float(vals.min(axis=0).sum())
    total = 0.0
    if cfg.diameter_cap:
        iu = np.triu_indices(len(x), 1)
        total += float((np.maximum(q[iu], 0.0) ** 2).sum())
    if cfg.sphere_radius is not None:
        norms = np.einsum("ij,ij->i", x, x)
        total += float(((norms - cfg.sphere_radius ** 2) ** 2).sum())
    return val + total


def oracle_gradient(x, cfg, tri):
    n = len(x)
    q = pairwise_squared_distances(x) - 1.0
    grad = np.zeros_like(x)
    if len(tri):
        act = oracle_active_pairs(q, tri)
        a, b = act[:, 0], act[:, 1]
        coef = 4.0 * q[a, b]
        diff = x[a] - x[b]
        np.add.at(grad, a, coef[:, None] * diff)
        np.add.at(grad, b, -coef[:, None] * diff)
    if cfg.diameter_cap:
        iu, ju = np.triu_indices(n, 1)
        viol = np.maximum(q[iu, ju], 0.0)
        mask = viol > 0
        if mask.any():
            a, b = iu[mask], ju[mask]
            coef = 4.0 * viol[mask]
            diff = x[a] - x[b]
            np.add.at(grad, a, coef[:, None] * diff)
            np.add.at(grad, b, -coef[:, None] * diff)
    if cfg.sphere_radius is not None:
        norms = np.einsum("ij,ij->i", x, x)
        grad += 4.0 * (norms - cfg.sphere_radius ** 2)[:, None] * x
    return grad


def oracle_triples(n):
    return np.array(list(itertools.combinations(range(n), 3))) if n >= 3 else np.zeros((0, 3), int)


def oracle_project(x, cfg):
    if cfg.sphere_radius is not None:
        norms = np.sqrt(np.einsum("ij,ij->i", x, x))
        norms = np.where(norms < 1e-12, 1.0, norms)
        x = x * (cfg.sphere_radius / norms)[:, None]
    return x


def oracle_descent(x, cfg):
    tri = oracle_triples(len(x))
    steps = cfg.max_iters
    if steps <= 0:
        return x, 0
    decay = (search.STEP_END / search.STEP_START) ** (1.0 / max(steps - 1, 1))
    eta = search.STEP_START
    best_x, best_val = x.copy(), oracle_total_penalty(x, cfg, tri)
    for it in range(steps):
        g = oracle_gradient(x, cfg, tri)
        gn = float(np.sqrt((g * g).sum()))
        if gn < 1e-300:
            break
        x = oracle_project(x - (eta / max(1.0, gn)) * g, cfg)
        val = oracle_total_penalty(x, cfg, tri)
        if val < best_val:
            best_val, best_x = val, x.copy()
        if best_val <= cfg.penalty_tol * 0.01:
            return best_x, it + 1
        eta *= decay
    return best_x, steps


def start_points(cfg, restart):
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((cfg.seed, restart))))
    return oracle_project(search._initial_points(cfg, restart, rng), cfg)


def oracle_stack_descent(x, cfg):
    """The oracle run on each restart of a stack, restacked like search._descent's result."""
    runs = [oracle_descent(start, cfg) for start in x]
    tri = oracle_triples(cfg.target_n)
    best_x = np.stack([run[0] for run in runs])
    vals = np.array([oracle_total_penalty(bx, cfg, tri) for bx in best_x])
    return best_x, vals, np.array([run[1] for run in runs])


def assert_descent_matches_oracle(cfg, restarts=range(4)):
    """All the restarts descend as one stack; each must match the oracle run alone."""
    tables = search._tables(cfg.target_n)
    x0 = search._starts(cfg, restarts)
    assert np.array_equal(x0, np.stack([start_points(cfg, r) for r in restarts]))
    got_x, got_val, got_iters = search._descent(x0, cfg, tables)
    want_x, want_val, want_iters = oracle_stack_descent(x0, cfg)
    for k, restart in enumerate(restarts):
        assert np.array_equal(got_x[k], want_x[k]), (cfg, restart)
        assert got_iters[k] == want_iters[k], (cfg, restart)
        assert got_val[k] == want_val[k], (cfg, restart)
        assert got_val[k] == search.total_penalty(got_x[k], cfg, tables)
    return got_iters


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
def test_fused_descent_matches_oracle_plain(n, d):
    assert_descent_matches_oracle(SearchConfig(dim=d, target_n=n, max_iters=120, seed=n + d))


@pytest.mark.parametrize(
    "cfg",
    [
        SearchConfig(dim=2, target_n=4, max_iters=300, seed=2, diameter_cap=True),
        SearchConfig(dim=3, target_n=6, max_iters=200, seed=0, diameter_cap=True),
        SearchConfig(dim=3, target_n=6, max_iters=200, seed=5, sphere_radius=1 / math.sqrt(2)),
        SearchConfig(dim=2, target_n=5, max_iters=200, seed=1, sphere_radius=0.6,
                     diameter_cap=True),
        SearchConfig(dim=2, target_n=1, max_iters=50, seed=0),
        SearchConfig(dim=2, target_n=2, max_iters=50, seed=0),
        SearchConfig(dim=1, target_n=2, max_iters=50, seed=0, diameter_cap=True),
        SearchConfig(dim=2, target_n=6, max_iters=0, seed=0),
        SearchConfig(dim=2, target_n=6, max_iters=1, seed=0),
        SearchConfig(dim=2, target_n=6, max_iters=1, seed=0, sphere_radius=0.5),
        SearchConfig(dim=2, target_n=5, max_iters=400, seed=1),  # stops early, feasible
    ],
    ids=lambda c: f"d{c.dim}-n{c.target_n}-it{c.max_iters}"
    f"{'-cap' if c.diameter_cap else ''}{'-sphere' if c.sphere_radius else ''}",
)
def test_fused_descent_matches_oracle_constrained(cfg):
    assert_descent_matches_oracle(cfg)


@pytest.mark.parametrize(
    "cfg, restarts",
    [
        # restarts reach the tolerance at different steps, or run to the end
        (SearchConfig(dim=2, target_n=5, max_iters=400, seed=1), range(8)),
        (SearchConfig(dim=2, target_n=6, max_iters=300, seed=3), range(8)),
        (SearchConfig(dim=3, target_n=6, max_iters=600, seed=5, sphere_radius=1 / math.sqrt(2)),
         range(6)),
        # a vanishing gradient stops the restarts whose two points are within the cap
        (SearchConfig(dim=1, target_n=2, max_iters=50, seed=4, diameter_cap=True), range(8)),
    ],
)
def test_stacked_restarts_leave_the_stack_at_their_own_step(cfg, restarts):
    iters = assert_descent_matches_oracle(cfg, restarts)
    assert len(set(iters.tolist())) > 1


def test_optimize_matches_oracle_descent(monkeypatch):
    configs = [
        SearchConfig(dim=2, target_n=6, restarts=4, max_iters=300, seed=3),
        SearchConfig(dim=2, target_n=8, restarts=3, max_iters=150, seed=0),
        SearchConfig(dim=3, target_n=6, restarts=3, max_iters=300, seed=0, diameter_cap=True),
        SearchConfig(dim=3, target_n=6, restarts=3, max_iters=300, seed=0,
                     sphere_radius=1 / math.sqrt(2)),
        SearchConfig(dim=2, target_n=5, restarts=8, max_iters=400, seed=1),
    ]
    fused = [aeq.optimize(cfg) for cfg in configs]

    stacked = []

    def descent(x, cfg, tables):
        stacked.append(len(x))
        return oracle_stack_descent(x, cfg)

    monkeypatch.setattr(search, "_descent", descent)
    for cfg, got in zip(configs, fused):
        stacked.clear()
        want = aeq.optimize(cfg)
        assert sum(stacked) == cfg.restarts  # the oracle ran every restart
        assert got.restart_index == want.restart_index
        assert got.best_penalty == want.best_penalty
        assert got.iterations_used == want.iterations_used
        assert np.array_equal(got.best_points.array, want.best_points.array)


def restart_elements(cfg):
    return cfg.dim * (3 * math.comb(cfg.target_n, 3) + cfg.target_n ** 2)


@pytest.mark.parametrize(
    "cfg",
    [
        SearchConfig(dim=2, target_n=7, restarts=11, max_iters=300, seed=7),
        SearchConfig(dim=2, target_n=6, restarts=8, max_iters=300, seed=3),
        SearchConfig(dim=2, target_n=5, restarts=7, max_iters=400, seed=1),
        SearchConfig(dim=2, target_n=6, restarts=6, max_iters=0, seed=0),
        SearchConfig(dim=2, target_n=6, restarts=6, max_iters=1, seed=0),
        SearchConfig(dim=2, target_n=1, restarts=5, max_iters=50, seed=0),
        SearchConfig(dim=2, target_n=2, restarts=5, max_iters=50, seed=0),
        SearchConfig(dim=1, target_n=2, restarts=6, max_iters=50, seed=4, diameter_cap=True),
        SearchConfig(dim=3, target_n=6, restarts=6, max_iters=200, seed=0, diameter_cap=True),
        SearchConfig(dim=3, target_n=6, restarts=6, max_iters=200, seed=5,
                     sphere_radius=1 / math.sqrt(2)),
        SearchConfig(dim=2, target_n=5, restarts=6, max_iters=200, seed=1, sphere_radius=0.6,
                     diameter_cap=True),
    ],
    ids=lambda c: f"d{c.dim}-n{c.target_n}-r{c.restarts}-it{c.max_iters}"
    f"{'-cap' if c.diameter_cap else ''}{'-sphere' if c.sphere_radius else ''}",
)
def test_search_result_does_not_depend_on_the_stack_size(cfg, monkeypatch):
    descent = search._descent
    stacked = []

    def spy(x, cfg, tables):
        stacked.append(len(x))
        return descent(x, cfg, tables)

    monkeypatch.setattr(search, "_descent", spy)
    want = aeq.optimize(cfg)
    assert stacked == [cfg.restarts]  # the default budget holds every restart in one stack
    for block in (1, 2, 5):
        monkeypatch.setattr(search, "STACK_ELEMENTS", block * restart_elements(cfg))
        stacked.clear()
        got = aeq.optimize(cfg)
        whole, rest = divmod(cfg.restarts, block)
        assert stacked == [block] * whole + ([rest] if rest else [])
        assert np.array_equal(got.best_points.array, want.best_points.array)
        assert (got.best_penalty, got.feasible, got.iterations_used, got.restart_index,
                got.certificate) == (want.best_penalty, want.feasible, want.iterations_used,
                                     want.restart_index, want.certificate)


def test_polish_without_scipy_raises(monkeypatch):
    # scipy is imported on the first polish; its absence must not pass for
    # a polish that failed and quietly leave the descent's result
    monkeypatch.setitem(sys.modules, "scipy.optimize", None)
    with pytest.raises(ImportError):
        aeq.optimize(SearchConfig(dim=2, target_n=5, restarts=1, max_iters=10))


def test_polish_lets_a_type_error_through(monkeypatch):
    # a scipy older than 1.16 rejects workers= with a TypeError; only the
    # faults of a bad start may end the polish quietly
    def raising(error):
        def solve(*args, **kwargs):
            raise error
        return solve

    cfg = SearchConfig(dim=2, target_n=5, restarts=1, max_iters=10)
    monkeypatch.setattr(search, "least_squares", raising(TypeError("workers")))
    with pytest.raises(TypeError):
        aeq.optimize(cfg)
    descent_only = aeq.optimize(replace(cfg, polish_rounds=0))
    for error in (ValueError("x0 is infeasible"), np.linalg.LinAlgError("SVD"),
                  FloatingPointError("overflow")):
        monkeypatch.setattr(search, "least_squares", raising(error))
        res = aeq.optimize(cfg)
        assert np.array_equal(res.best_points.array, descent_only.best_points.array)
        assert res.best_penalty == descent_only.best_penalty


POLISH_CONFIGS = [
    SearchConfig(dim=2, target_n=7, restarts=24, max_iters=1500, seed=7),  # the frozen search
    SearchConfig(dim=3, target_n=6, restarts=6, max_iters=200, seed=0, diameter_cap=True),
    SearchConfig(dim=3, target_n=6, restarts=4, max_iters=600, seed=5,
                 sphere_radius=1 / math.sqrt(2)),
]
POLISH_IDS = ["plain", "cap", "sphere"]


@pytest.mark.parametrize("cfg", POLISH_CONFIGS, ids=POLISH_IDS)
def test_polish_jacobian_stack_matches_its_columns(cfg, monkeypatch):
    # _distances is claimed bit-identical per slice; check the claim on every
    # Jacobian: fun is scipy's wrapper of the one-row residual, the function
    # scipy's own map would call once per column
    solve = search.least_squares
    stacks = []

    def checked(fun, x0, workers, **kwargs):
        def stacked(f, points):
            points = list(points)
            rows = workers(f, iter(points))
            assert np.array_equal(rows, [f(x) for x in points])
            stacks.append(len(points))
            return rows

        return solve(fun, x0, workers=stacked, **kwargs)

    monkeypatch.setattr(search, "least_squares", checked)
    aeq.optimize(cfg)
    assert stacks and set(stacks) == {cfg.target_n * cfg.dim}


def polish_run(cfg, monkeypatch, solve, drop_workers=False):
    """optimize(cfg) with search.least_squares replaced by a call of solve,
    and what each call returned. Dropping workers= leaves scipy's own map,
    one residual call per Jacobian column."""
    sols = []

    def recorded(fun, x0, workers, **kwargs):
        sol = solve(fun, x0, **kwargs) if drop_workers else solve(fun, x0, workers=workers,
                                                                   **kwargs)
        sols.append((sol.x.tobytes(), sol.cost, sol.nfev, sol.njev, sol.status))
        return sol

    monkeypatch.setattr(search, "least_squares", recorded)
    return aeq.optimize(cfg), sols


@pytest.mark.parametrize("cfg", POLISH_CONFIGS, ids=POLISH_IDS)
def test_optimize_matches_the_per_column_polish(cfg, monkeypatch):
    solve = search.least_squares
    got, got_sols = polish_run(cfg, monkeypatch, solve)
    want, want_sols = polish_run(cfg, monkeypatch, solve, drop_workers=True)
    # the stacked map never calls scipy's fun. That is sound because both
    # compute the same rows (checked on every Jacobian above) and trf counts
    # its evaluations itself: every iterate, cost, nfev, njev and status
    # equals the column-by-column run
    assert got_sols == want_sols
    assert np.array_equal(got.best_points.array, want.best_points.array)
    assert (got.best_penalty, got.iterations_used, got.restart_index) == (
        want.best_penalty, want.iterations_used, want.restart_index)


def test_chunked_jacobians_give_the_same_search(monkeypatch):
    cfg = POLISH_CONFIGS[1]
    solve = search.least_squares
    want, want_sols = polish_run(cfg, monkeypatch, solve)
    # three configurations per stack: each Jacobian's 18 columns in six chunks
    n, d = cfg.target_n, cfg.dim
    per_row = max(n * n, n * d, math.comb(n, 3) + math.comb(n, 2) + n)
    monkeypatch.setattr(search, "STACK_ELEMENTS", 3 * per_row)
    residuals, stacks = search._residuals, []

    def spy(xs, *args):
        stacks.append(len(xs))
        return residuals(xs, *args)

    monkeypatch.setattr(search, "_residuals", spy)
    got, got_sols = polish_run(cfg, monkeypatch, solve)
    assert set(stacks) == {1, 3}  # one-row calls from scipy, chunks from the map
    assert got_sols == want_sols
    assert np.array_equal(got.best_points.array, want.best_points.array)
    assert (got.best_penalty, got.iterations_used, got.restart_index) == (
        want.best_penalty, want.iterations_used, want.restart_index)


def test_seeded_restart_hits_construction_immediately():
    # restart 1 reuses the two-simplices layout verbatim, so with descent and
    # polish effectively disabled it is the only restart that can reach zero
    cfg = SearchConfig(
        dim=2, target_n=6, restarts=2, max_iters=1, seed=0, polish_rounds=0
    )
    res = aeq.optimize(cfg)
    assert res.feasible
    assert res.best_penalty == 0.0
    assert res.restart_index == 1
    assert res.certificate is not None and res.certificate.lemma1_holds


def test_search_deterministic_rerun():
    cfg = SearchConfig(dim=2, target_n=5, restarts=6, max_iters=300, seed=11)
    a = aeq.optimize(cfg)
    b = aeq.optimize(cfg)
    assert a.best_penalty == b.best_penalty
    assert a.restart_index == b.restart_index
    assert np.array_equal(a.best_points.array, b.best_points.array)


def test_search_small_budget_feasible():
    cfg = SearchConfig(dim=2, target_n=5, restarts=6, max_iters=400, seed=1)
    res = aeq.optimize(cfg)
    assert res.feasible
    assert aeq.is_almost_equidistant(res.best_points).ok
    assert res.certificate.lemma1_holds


def test_search_frozen_regression_2_7():
    cfg = SearchConfig(dim=2, target_n=7, restarts=24, max_iters=1500, seed=7)
    res = aeq.optimize(cfg)
    assert res.feasible
    assert res.restart_index == 2
    assert res.best_penalty == pytest.approx(3.2e-31, abs=1e-29)


def test_search_infeasible_is_graceful():
    # way past the planar maximum; the tiny budget cannot make this feasible
    cfg = SearchConfig(dim=2, target_n=10, restarts=2, max_iters=60, seed=0)
    res = aeq.optimize(cfg)
    assert not res.feasible
    assert res.certificate is None
    assert res.best_penalty > 1e-18
    assert res.best_points.n == 10


def test_search_sphere_constraint():
    r = 1.0 / math.sqrt(2.0)
    cfg = SearchConfig(
        dim=3, target_n=6, restarts=4, max_iters=600, seed=5, sphere_radius=r
    )
    res = aeq.optimize(cfg)
    assert res.feasible
    norms = np.sqrt((res.best_points.array ** 2).sum(axis=1))
    assert np.abs(norms - r).max() < 1e-7


def test_search_diameter_cap():
    cfg = SearchConfig(
        dim=2, target_n=4, restarts=6, max_iters=600, seed=2, diameter_cap=True
    )
    res = aeq.optimize(cfg)
    assert res.feasible
    assert aeq.diameter(res.best_points) <= 1.0 + 1e-7


def test_probe_line_frozen():
    base = SearchConfig(dim=1, target_n=2, restarts=8, max_iters=400, seed=3)
    probe = aeq.diameter_capacity_probe(1, base)
    assert probe.largest_feasible == 4
    assert [row.n for row in probe.rows] == [2, 3, 4, 5]
    assert [row.feasible for row in probe.rows] == [True, True, True, False]
    assert probe.largest_feasible <= 2 * 1 + 4


def test_probe_plane_frozen():
    base = SearchConfig(dim=2, target_n=3, restarts=10, max_iters=600, seed=3)
    probe = aeq.diameter_capacity_probe(2, base)
    assert probe.largest_feasible == 6
    assert probe.largest_feasible <= 2 * 2 + 4
    for row in probe.rows:
        assert row.feasible == (row.penalty <= 1e-18)
