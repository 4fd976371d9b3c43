import numpy as np
import pytest

from gotd import (
    DomainViolation,
    FixedRankManifold,
    GotdConfig,
    HyperboloidConstraint,
    NotConverged,
    ObliqueConstraint,
    Problem,
    RunStatus,
    SparsityManifold,
    StiefelConstraint,
    SupportPoint,
    feasibility_direction,
    find_monotone_balance,
    gauss_newton_direction,
    gen_modes_problem,
    gen_sphere_data,
    gotd_run,
    gotd_step,
    init_modes,
    init_sphere,
    lyapunov_value,
    make_modes_problem,
    make_sphere_problem,
    optimality_direction,
    read_trace_csv,
    tangent_intersection_project,
    write_trace_csv,
)
from gotd import algorithm
from gotd.algorithm import TraceRecord
from oracles import (
    feasible_hyperboloid_lowrank,
    feasible_oblique_lowrank,
    intersection_basis,
    loglog_slope,
    loop_tangent_intersection_project,
    project_onto_basis,
    random_factored,
    random_support_point,
    reduced_gram_matrix,
    tangent_basis_fixed_rank,
    tangent_basis_sparsity,
)


class FullSpace:
    """Test double: the whole ambient space as the inner manifold."""

    def tangent_project(self, point, Z):
        return Z

    def retract(self, point, eta):
        return point + eta

    def project(self, Y):
        return Y


class TestGaussNewton:
    def test_feasible_point_gives_zero(self, rng):
        C = ObliqueConstraint(4, 3)
        X = rng.standard_normal((4, 3))
        X /= np.linalg.norm(X, axis=1, keepdims=True)
        assert np.abs(gauss_newton_direction(C, X)).max() <= 1e-12

    def test_single_row_worked_example(self):
        C = ObliqueConstraint(1, 2)
        d = gauss_newton_direction(C, np.array([[2.0, 0.0]]))
        assert np.allclose(d, [[-0.75, 0.0]])

    def test_linearization_identity(self, rng):
        for C, shape in [
            (ObliqueConstraint(5, 4), (5, 4)),
            (HyperboloidConstraint(4, 6), (5, 6)),
            (StiefelConstraint(6, 3), (6, 3)),
        ]:
            X = rng.standard_normal(shape)
            d = gauss_newton_direction(C, X)
            hv = C.value(X)
            assert np.linalg.norm(hv + C.dh(X, d)) <= 1e-10 * np.linalg.norm(hv)

    def test_second_order_approximation_slope(self, rng):
        # against the exact projection residual of row normalization
        C = ObliqueConstraint(6, 5)
        for _ in range(5):
            base = rng.standard_normal((6, 5))
            base /= np.linalg.norm(base, axis=1, keepdims=True)
            N = rng.standard_normal((6, 5))
            N /= np.linalg.norm(N)
            deltas, gaps = [], []
            for d in [1e-1, 1e-2, 1e-3]:
                X = base + d * N
                r = C.project(X) - X
                deltas.append(np.linalg.norm(r))
                gaps.append(np.linalg.norm(gauss_newton_direction(C, X) - r))
            assert loglog_slope(deltas, gaps) >= 1.9


class TestFeasibilityDirection:
    def test_zero_at_feasible(self, rng):
        man = FixedRankManifold(6, 5, 2)
        C = ObliqueConstraint(6, 5)
        X = feasible_oblique_lowrank(rng, 6, 5, 2)
        gh = feasibility_direction(man, C, X)
        assert np.abs(gh).max() <= 1e-10

    def test_full_space_double_returns_gauss_newton(self, rng):
        C = ObliqueConstraint(4, 3)
        X = rng.standard_normal((4, 3))
        gh = feasibility_direction(FullSpace(), C, X)
        assert np.allclose(gh, gauss_newton_direction(C, X))

    def test_sparsity_masks_gauss_newton(self, rng):
        man = SparsityManifold(6, 4, 9)
        C = StiefelConstraint(6, 4)
        X = random_support_point(rng, 6, 4, 9)
        gh = feasibility_direction(man, C, X)
        d = gauss_newton_direction(C, X.dense())
        assert np.allclose(gh, np.where(X.support, d, 0.0))


@pytest.fixture(params=["oblique", "hyperboloid"])
def pair(request, rng):
    """(manifold, constraint, point, bound) for a fixed-rank pair: a random
    rank-2 point of 6 x 5 under unit rows, or a rank-3 point of 9 x 10
    with its columns on the hyperboloid.  ``bound`` is the pair's bound
    for the fixed-point, adjoint-image and membership checks."""
    if request.param == "oblique":
        X = random_factored(rng, 6, 5, 2)
        return FixedRankManifold(6, 5, 2), ObliqueConstraint(6, 5), X, 1e-9
    X = feasible_hyperboloid_lowrank(rng, 8, 10, 3)
    return FixedRankManifold(9, 10, 3), HyperboloidConstraint(8, 10), X, 1e-8


class FlippedAdjoint:
    """A constraint whose Dh* has the wrong sign, so B = Dh P_T Dh* is
    negative semidefinite."""

    def __init__(self, inner):
        self.inner = inner

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def dh_adjoint(self, X, lam):
        return self.inner.dh_adjoint(X, -lam)


class TestTangentIntersectionProject:
    def test_fixed_point(self, rng, pair):
        man, C, X, bound = pair
        out = tangent_intersection_project(man, C, X, rng.standard_normal(X.shape))
        again = tangent_intersection_project(man, C, X, out)
        assert np.linalg.norm(again - out) <= bound * max(1.0, np.linalg.norm(out))

    def test_normal_input_maps_to_zero(self, rng, pair):
        man, C, X, _ = pair
        W = rng.standard_normal(X.shape)
        PU, PV = X.u @ X.u.T, X.v @ X.v.T
        xi = (np.eye(X.shape[0]) - PU) @ W @ (np.eye(X.shape[1]) - PV)  # normal to M
        assert np.abs(tangent_intersection_project(man, C, X, xi)).max() <= 1e-10

    def test_adjoint_image_maps_to_zero(self, rng, pair):
        # Phi's image is the orthogonal complement of the intersection
        # inside the tangent space
        man, C, X, bound = pair
        lam = rng.standard_normal(C.q)
        xi = man.tangent_project(X, C.dh_adjoint(X.dense(), lam))
        out = tangent_intersection_project(man, C, X, xi)
        assert np.abs(out).max() <= bound * max(1.0, np.abs(xi).max())

    def test_matches_basis_oracle(self, rng, pair):
        man, C, X, _ = pair
        basis = intersection_basis(C, X.dense(), tangent_basis_fixed_rank(X))
        for _ in range(5):
            xi = rng.standard_normal(X.shape)
            expected = project_onto_basis(basis, xi)
            out = tangent_intersection_project(man, C, X, xi)
            assert np.linalg.norm(out - expected) <= 1e-8 * max(1.0, np.linalg.norm(xi))

    def test_membership(self, rng, pair):
        man, C, X, bound = pair
        xi = rng.standard_normal(X.shape)
        xi /= np.linalg.norm(xi)
        out = tangent_intersection_project(man, C, X, xi)
        assert np.linalg.norm(C.dh(X.dense(), out)) <= bound
        assert np.linalg.norm(out - man.tangent_project(X, out)) <= bound

    def test_self_adjoint(self, rng, pair):
        man, C, X, _ = pair
        for _ in range(5):
            xi, w = rng.standard_normal((2, *X.shape))
            lhs = np.sum(tangent_intersection_project(man, C, X, xi) * w)
            rhs = np.sum(xi * tangent_intersection_project(man, C, X, w))
            assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), 1.0)

    def test_unsolvable_reduced_system_raises(self, rng, pair):
        # an adjoint of the wrong sign makes B negative definite, so CG
        # stops at once; the run ends ABORTED with the solver's reason
        man, C, X, _ = pair
        flipped = FlippedAdjoint(C)
        with pytest.raises(NotConverged, match="pcg stalled"):
            tangent_intersection_project(man, flipped, X, rng.standard_normal(X.shape))
        G = rng.standard_normal(X.shape)
        prob = Problem(man, flipped, lambda Xd: 0.0, lambda Xd: G)
        res = gotd_run(prob, X, GotdConfig(max_iter=3))
        assert res.status is RunStatus.ABORTED
        assert res.reason.startswith("iteration 0: pcg stalled")

    def test_sparsity_stiefel_basis_oracle(self, rng):
        man = SparsityManifold(7, 3, 12)
        C = StiefelConstraint(7, 3)
        X = random_support_point(rng, 7, 3, 12)
        basis = intersection_basis(C, X.dense(), tangent_basis_sparsity(X))
        xi = rng.standard_normal((7, 3))
        expected = project_onto_basis(basis, xi)
        out = tangent_intersection_project(man, C, X, xi)
        assert np.linalg.norm(out - expected) <= 1e-8 * max(1.0, np.linalg.norm(xi))

    def test_singular_reduced_gram(self, rng):
        # columns 0 and 1 have disjoint supports, so P_T kills the adjoint
        # image of their off-diagonal multiplier and B = Dh P_T Dh* is
        # singular; CG on the consistent system still gives P_S
        support = np.zeros((6, 3), dtype=bool)
        support[[0, 1, 2], 0] = True
        support[[3, 4, 5], 1] = True
        support[[0, 3, 4], 2] = True
        X = SupportPoint(np.where(support, rng.uniform(0.5, 1.5, (6, 3)), 0.0), support)
        man = SparsityManifold(6, 3, 9)
        C = StiefelConstraint(6, 3)
        eig = np.linalg.eigvalsh(reduced_gram_matrix(man, C, X))
        assert eig[0] <= 1e-14 * eig[-1] and eig[1] > 1e-3 * eig[-1]
        basis = intersection_basis(C, X.dense(), tangent_basis_sparsity(X))
        for _ in range(5):
            xi = rng.standard_normal((6, 3))
            out = tangent_intersection_project(man, C, X, xi)
            scale = max(1.0, np.linalg.norm(xi))
            assert np.linalg.norm(out - project_onto_basis(basis, xi)) <= 1e-8 * scale
            loop = loop_tangent_intersection_project(man, C, X, xi)
            assert np.linalg.norm(out - loop) <= 1e-10 * scale

    def test_modes_trace_matches_loop_route(self, monkeypatch):
        data = gen_modes_problem(128, 5, 50.0, 0.6)
        problem = make_modes_problem(data)
        x0 = init_modes(data, 0)
        config = GotdConfig(alpha=1.0, beta=data.beta_default, max_iter=200, tol=0.0)
        pcg_run = gotd_run(problem, x0, config)
        monkeypatch.setattr(
            algorithm, "tangent_intersection_project", loop_tangent_intersection_project
        )
        loop_run = gotd_run(problem, x0, config)
        assert pcg_run.status is loop_run.status is RunStatus.MAX_ITER
        assert len(pcg_run.trace) == len(loop_run.trace) == 201
        for a, b in zip(pcg_run.trace, loop_run.trace):
            assert a.iteration == b.iteration
            assert a.extra_metric == b.extra_metric
            for x, y in ((a.f_value, b.f_value), (a.gf_norm, b.gf_norm)):
                assert abs(x - y) <= 1e-10 * abs(y)
            for x, y in ((a.feas_norm, b.feas_norm), (a.gh_norm, b.gh_norm)):
                assert abs(x - y) <= 1e-9 * abs(y) + 1e-12


class TestOptimalityDirection:
    def _problem(self, rng, m=6, n=5, r=2, fast=False):
        man = FixedRankManifold(m, n, r)
        C = ObliqueConstraint(m, n)
        G = rng.standard_normal((m, n))
        prob = Problem(
            manifold=man,
            constraint=C,
            f=lambda X: float(np.sum(X * G)),
            grad_f=lambda X: G,
        )
        return prob, random_factored(rng, m, n, r)

    def test_zero_gradient(self, rng):
        prob, X = self._problem(rng)
        prob.grad_f = lambda X: np.zeros((6, 5))
        assert np.abs(optimality_direction(prob, X)).max() == 0.0

    def test_normal_space_gradient(self, rng):
        prob, X = self._problem(rng)
        W = rng.standard_normal((6, 5))
        PU = X.u @ X.u.T
        PV = X.v @ X.v.T
        normal = (np.eye(6) - PU) @ W @ (np.eye(5) - PV)
        prob.grad_f = lambda Xd, N=normal: N
        assert np.abs(optimality_direction(prob, X)).max() <= 1e-12

    def test_orthogonality_to_feasibility_direction(self, rng):
        for _ in range(20):
            prob, X = self._problem(rng)
            gh = feasibility_direction(prob.manifold, prob.constraint, X)
            gf = optimality_direction(prob, X)
            ip = abs(np.sum(gh * gf))
            assert ip <= 1e-10 * max(np.linalg.norm(gh) * np.linalg.norm(gf), 1e-30)


class TestStepAndRun:
    def _stationary_problem(self, rng):
        # constant objective on a feasible point: both directions vanish
        man = FixedRankManifold(6, 5, 2)
        C = ObliqueConstraint(6, 5)
        X = feasible_oblique_lowrank(rng, 6, 5, 2)
        prob = Problem(
            manifold=man,
            constraint=C,
            f=lambda Xd: 0.0,
            grad_f=lambda Xd: np.zeros((6, 5)),
        )
        return prob, X

    def test_step_at_stationary_point(self, rng):
        prob, X = self._stationary_problem(rng)
        Y, gh, gf = gotd_step(prob, X, 1.0, 1.0)
        assert gh <= 1e-10 and gf <= 1e-10
        assert np.allclose(Y.dense(), X.dense(), atol=1e-9)

    def test_zero_steps_return_same_point(self, rng):
        data = gen_sphere_data(20, 18, 2, 1.5, 3)
        prob = make_sphere_problem(data)
        X = init_sphere(data, 3)
        Y, _, _ = gotd_step(prob, X, 0.0, 0.0)
        assert np.allclose(Y.dense(), X.dense(), atol=1e-12)

    def test_one_step_decreases_feasibility(self, rng):
        data = gen_sphere_data(20, 18, 2, 1.5, 3)
        prob = make_sphere_problem(data)
        X0 = init_sphere(data, 3)
        infeasible = prob.manifold.project(1.5 * X0.dense())
        feas0 = np.linalg.norm(prob.constraint.value(infeasible.dense()))
        Y, _, _ = gotd_step(prob, infeasible, 1.0, 0.1)
        feas1 = np.linalg.norm(prob.constraint.value(Y.dense()))
        assert feas1 < feas0

    def test_run_converges_at_stationary_start(self, rng):
        prob, X = self._stationary_problem(rng)
        res = gotd_run(prob, X, GotdConfig(alpha=1.0, beta=1.0, max_iter=50, tol=1e-8))
        assert res.status is RunStatus.CONVERGED
        assert res.iterations == 0
        assert len(res.trace) == 1

    def test_run_budget_exhaustion(self, rng):
        data = gen_sphere_data(20, 18, 2, 1.5, 3)
        prob = make_sphere_problem(data)
        X0 = init_sphere(data, 3)
        res = gotd_run(prob, X0, GotdConfig(alpha=1.0, beta=1.0, max_iter=5, tol=0.0))
        assert res.status is RunStatus.MAX_ITER
        assert [rec.iteration for rec in res.trace] == [0, 1, 2, 3, 4, 5]

    def test_run_aborts_on_divergence(self, rng):
        data = gen_sphere_data(30, 25, 2, 2.0, 1)
        prob = make_sphere_problem(data)
        X0 = init_sphere(data, 1)
        res = gotd_run(prob, X0, GotdConfig(alpha=1.0, beta=500.0, max_iter=400, tol=0.0))
        assert res.status is RunStatus.ABORTED
        assert "iteration" in res.reason

    def test_run_aborts_on_non_tangent_step(self, rng, monkeypatch):
        # a projector that skips the projection hands the retraction a
        # non-tangent step: the run ends ABORTED, not with a traceback
        data = gen_sphere_data(20, 18, 2, 1.5, 3)
        prob = make_sphere_problem(data)
        # the fused gradient is tangent already; the sparse one is not
        prob.value_and_grad = None
        monkeypatch.setattr(
            algorithm, "tangent_intersection_project",
            lambda manifold, constraint, point, xi, gram=None: xi,
        )
        res = gotd_run(prob, init_sphere(data, 3),
                       GotdConfig(alpha=1.0, beta=1.0, max_iter=5, tol=0.0))
        assert res.status is RunStatus.ABORTED
        assert res.reason.startswith("iteration 0: eta is not tangent")
        assert len(res.trace) == 1

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_run_aborts_on_non_finite_extra_metric(self, bad):
        data = gen_sphere_data(20, 18, 2, 1.5, 3)
        prob = make_sphere_problem(data)
        calls = []

        def metric(X):
            calls.append(X)
            return bad if len(calls) == 3 else 0.0

        prob.extra_metric = metric
        res = gotd_run(prob, init_sphere(data, 3),
                       GotdConfig(alpha=1.0, beta=1.0, max_iter=10, tol=0.0))
        assert res.status is RunStatus.ABORTED
        assert res.reason == f"iteration 2: extra metric is {bad}"
        assert [rec.iteration for rec in res.trace] == [0, 1]

    def test_run_allows_a_missing_extra_metric(self):
        data = gen_sphere_data(20, 18, 2, 1.5, 3)
        prob = make_sphere_problem(data)
        prob.extra_metric = lambda X: None
        res = gotd_run(prob, init_sphere(data, 3),
                       GotdConfig(alpha=1.0, beta=1.0, max_iter=3, tol=0.0))
        assert res.status is RunStatus.MAX_ITER
        assert [rec.extra_metric for rec in res.trace] == [None] * 4

    @pytest.mark.parametrize(
        "exc", [DomainViolation("metric left its domain"), np.linalg.LinAlgError("singular")]
    )
    def test_run_aborts_when_extra_metric_fails(self, exc):
        # a failing trace metric ends the run ABORTED at that iterate,
        # with the records before it kept
        data = gen_sphere_data(20, 18, 2, 1.5, 3)
        prob = make_sphere_problem(data)
        calls = []

        def metric(X):
            calls.append(X)
            if len(calls) == 3:
                raise exc
            return 0.0

        prob.extra_metric = metric
        X0 = init_sphere(data, 3)
        res = gotd_run(prob, X0, GotdConfig(alpha=1.0, beta=1.0, max_iter=10, tol=0.0))
        assert res.status is RunStatus.ABORTED
        assert res.reason == f"iteration 2: {exc}"
        assert [rec.iteration for rec in res.trace] == [0, 1]
        assert res.point is calls[-1]

    def test_run_aborts_on_nan_gradient_outside_support(self):
        # tangent_project multiplies by the 0/1 mask, so a NaN outside the
        # support is not zeroed: it reaches CG, which stops with
        # NotConverged, and the run ends ABORTED, not with a traceback
        data = gen_modes_problem(64, 3, 50.0, 0.6)
        prob = make_modes_problem(data)
        clean = prob.value_and_grad
        calls = []

        def value_and_grad(X):
            calls.append(X)
            f_val, grad = clean(X)
            if len(calls) == 3:
                grad.flat[np.flatnonzero(~X.support)[0]] = np.nan
            return f_val, grad

        prob.value_and_grad = value_and_grad
        res = gotd_run(prob, init_modes(data, 0),
                       GotdConfig(alpha=1.0, beta=data.beta_default, max_iter=10, tol=0.0))
        assert res.status is RunStatus.ABORTED
        assert res.reason.startswith("iteration 2: pcg stalled")
        assert [rec.iteration for rec in res.trace] == [0, 1]

    def test_small_recovery_run(self, rng):
        data = gen_sphere_data(40, 36, 2, 3.0, 7)
        prob = make_sphere_problem(data)
        X0 = init_sphere(data, 7)
        res = gotd_run(prob, X0, GotdConfig(alpha=1.0, beta=1.0, max_iter=1500, tol=1e-10))
        assert res.status is RunStatus.CONVERGED
        assert res.trace[-1].feas_norm <= 1e-8

    def test_trace_every(self, rng):
        data = gen_sphere_data(20, 18, 2, 1.5, 3)
        prob = make_sphere_problem(data)
        X0 = init_sphere(data, 3)
        res = gotd_run(prob, X0, GotdConfig(alpha=1.0, beta=1.0, max_iter=10, tol=0.0,
                                            trace_every=4))
        assert [rec.iteration for rec in res.trace] == [0, 4, 8, 10]


class TestLyapunov:
    def test_value_examples(self):
        assert lyapunov_value(2.0, 0.0, 5.0) == 2.0
        assert lyapunov_value(1.0, 2.0, 3.0) == 7.0
        assert lyapunov_value(1.5, 0.7, 1e-12) == pytest.approx(1.5, abs=1e-11)

    def test_monotone_at_unit_balance(self):
        f_vals = [5.0, 4.0, 3.5, 3.4, 3.3, 3.2, 3.1]
        feas = [1.0, 0.5, 0.2, 0.1, 0.05, 0.02, 0.01]
        assert find_monotone_balance(f_vals, feas, after=0) == 1.0

    def test_find_monotone_balance(self):
        # f rises while feasibility falls: f + ||h|| rises, f + 2 ||h|| falls
        f_vals = [0.0, 0.5, 0.9, 1.2, 1.4, 1.5, 1.55, 1.58]
        feas = [2.0, 1.5, 1.2, 1.0, 0.85, 0.75, 0.7, 0.67]
        lam = find_monotone_balance(f_vals, feas, after=0)
        assert lam == 2.0
        values = [lyapunov_value(f, d, lam) for f, d in zip(f_vals, feas)]
        assert all(b <= a for a, b in zip(values, values[1:]))
        # the slack forgives the unit balance's rises of at most 5%
        assert find_monotone_balance(f_vals, feas, after=0, slack=1.06) == 1.0

    def test_find_monotone_balance_failure(self):
        assert find_monotone_balance([0.0, 1.0], [0.0, 0.0], after=0) is None


class TestTraceCsv:
    def test_round_trip(self, tmp_path):
        records = [
            TraceRecord(0, 0.0, 1.25, 0.5, 0.25, 0.125, 0.3),
            TraceRecord(3, 1.5e-3, 1.0 / 3.0, 1e-300, 0.0, 2.0**-52, None),
        ]
        path = tmp_path / "trace.csv"
        write_trace_csv(records, path)
        back = read_trace_csv(path)
        assert len(back) == 2
        for a, b in zip(records, back):
            assert a.iteration == b.iteration
            assert a.wall_seconds == b.wall_seconds
            assert a.f_value == b.f_value
            assert a.feas_norm == b.feas_norm
            assert a.gh_norm == b.gh_norm
            assert a.gf_norm == b.gf_norm
            assert a.extra_metric == b.extra_metric

    def test_header(self, tmp_path):
        path = tmp_path / "trace.csv"
        write_trace_csv([], path)
        assert path.read_text().splitlines()[0] == "iter,time_s,f,feas_norm,gh_norm,gf_norm,extra"

    def test_truncated_row(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text(
            "iter,time_s,f,feas_norm,gh_norm,gf_norm,extra\n"
            "0,1.0,2.0,3.0,4.0,5.0,\n"
            "1,1.0,2.0\n"
        )
        with pytest.raises(ValueError, match="trace row 3 has 3 fields"):
            read_trace_csv(path)

    def test_non_numeric_field(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text(
            "iter,time_s,f,feas_norm,gh_norm,gf_norm,extra\n"
            "0,1.0,abc,3.0,4.0,5.0,\n"
        )
        with pytest.raises(ValueError, match="trace row 2: field 'f' is not a number: 'abc'"):
            read_trace_csv(path)
