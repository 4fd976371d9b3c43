import dataclasses

import numpy as np
import pytest

from gotd import (
    Diverged,
    DomainViolation,
    FactoredPoint,
    FixedRankManifold,
    GotdConfig,
    HyperbolicFitProblem,
    HyperboloidConstraint,
    IllConditioned,
    NotConverged,
    NotTangent,
    ObliqueConstraint,
    Problem,
    RunStatus,
    SparsityManifold,
    StiefelConstraint,
    feasibility_direction,
    find_monotone_balance,
    gauss_newton_direction,
    gen_hyperbolic_data,
    gen_modes_problem,
    gen_sphere_data,
    gotd_run,
    gotd_step,
    init_hyperbolic,
    init_modes,
    init_sphere,
    lyapunov_value,
    make_hyperbolic_problem,
    make_modes_problem,
    make_sphere_problem,
    optimality_direction,
    read_trace_csv,
    sphere_grad,
    tangent_intersection_project,
    write_trace_csv,
)
from gotd import algorithm
from gotd.algorithm import TraceRecord
from gotd.solvers import pcg
from oracles import (
    disjoint_support_point,
    feasible_hyperboloid_lowrank,
    feasible_oblique_lowrank,
    hard_threshold,
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
        assert type(res.error) is NotConverged

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
        # B = Dh P_T Dh* is singular; CG on the consistent system still
        # gives P_S
        X = disjoint_support_point(rng)
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

    @staticmethod
    def spy_on_pcg(monkeypatch):
        """Record the iteration count of every CG run of the projector."""
        iters = []

        def spy(*args, **kwargs):
            out = pcg(*args, **kwargs)
            iters.append(out.iters)
            return out

        monkeypatch.setattr(algorithm, "pcg", spy)
        return iters

    def test_masked_preconditioner_cuts_modes_cg_iterations(self, monkeypatch):
        # on a modes run the mask's Jacobi preconditioner takes fewer CG
        # iterations than the unmasked (Dh Dh*)^-1 of gram_solver
        data = gen_modes_problem(256, 10, 50.0, 0.6)
        problem = make_modes_problem(data)
        config = GotdConfig(alpha=1.0, beta=data.beta_default, max_iter=20, tol=0.0)
        C = problem.constraint
        totals = []
        for unmasked in (False, True):
            iters = self.spy_on_pcg(monkeypatch)
            if unmasked:
                monkeypatch.setattr(C, "reduced_gram_solver", C.gram_solver)
            res = gotd_run(problem, init_modes(data, 0), config)
            assert res.status is RunStatus.MAX_ITER and len(iters) == 21
            totals.append(sum(iters))
        assert totals[0] < totals[1]

    @staticmethod
    def spy_on(monkeypatch, obj, name):
        """Record the arguments of every call of a method of obj."""
        calls = []
        method = getattr(obj, name)

        def spy(*args):
            calls.append(args)
            return method(*args)

        monkeypatch.setattr(obj, name, spy)
        return calls

    @pytest.mark.parametrize("p", [10, 11])
    def test_mask_reaches_gram_solver_at_any_q(self, rng, monkeypatch, p):
        # q = 55 and 66: the projector hands the sparse point, which
        # carries its mask, to the reduced Gram solver at every q, and does
        # not factor Dh Dh*
        X = random_support_point(rng, 40, p, 300)
        man, C = SparsityManifold(40, p, 300), StiefelConstraint(40, p)
        calls = self.spy_on(monkeypatch, C, "reduced_gram_solver")
        unmasked = self.spy_on(monkeypatch, C, "gram_solver")
        xi = rng.standard_normal(X.shape)
        out = tangent_intersection_project(man, C, X, xi)
        assert len(calls) == 1 and calls[0][0] is X and not unmasked
        loop = loop_tangent_intersection_project(man, C, X, xi)
        assert np.linalg.norm(out - loop) <= 1e-10 * np.linalg.norm(xi)

    def test_fixed_rank_pairs_get_no_mask(self, rng, monkeypatch, pair):
        # a fixed-rank tangent projection is not a mask: the projector
        # hands the reduced Gram solver the factored point alone, whose B^-1
        # is exact on both pairs (B = Dh Dh* for the oblique map, Woodbury's
        # for the hyperboloid map), so CG ends after one iteration
        man, C, X, _ = pair
        iters = self.spy_on_pcg(monkeypatch)
        calls = self.spy_on(monkeypatch, C, "reduced_gram_solver")
        xi = rng.standard_normal(X.shape)
        tangent_intersection_project(man, C, X, xi)
        prob = Problem(man, C, lambda X: 0.0, lambda X: xi)
        gotd_run(prob, X, GotdConfig(max_iter=2, tol=0.0))
        assert iters == [1, 1, 1, 1]
        assert len(calls) == 4 and calls[0][0] is X
        assert all(isinstance(args[0], FactoredPoint) for args in calls)

    @pytest.mark.parametrize("kind", ["sphere", "hyperbolic", "modes"])
    def test_dh_adjoint_calls_follow_cg_iterations(self, rng, monkeypatch, kind):
        # CG applies Dh* once per iteration; Phi(lam) needs no further one
        # when CG ends after one iteration (sphere, hyperbolic), and one
        # more otherwise (modes, preconditioned by B's diagonal)
        if kind == "sphere":
            man, C, X = FixedRankManifold(6, 5, 2), ObliqueConstraint(6, 5), random_factored(rng, 6, 5, 2)
        elif kind == "hyperbolic":
            X = feasible_hyperboloid_lowrank(rng, 8, 10, 3)
            man, C = FixedRankManifold(9, 10, 3), HyperboloidConstraint(8, 10)
        else:
            X = random_support_point(rng, 12, 3, 24)
            man, C = SparsityManifold(12, 3, 24), StiefelConstraint(12, 3)
        for _ in range(3):
            xi = rng.standard_normal(X.shape)
            iters = self.spy_on_pcg(monkeypatch)
            calls = self.spy_on(monkeypatch, C, "dh_adjoint")
            out = tangent_intersection_project(man, C, X, xi)
            if kind == "modes":
                assert iters[0] > 1 and len(calls) == iters[0] + 1
            else:
                assert iters[0] == len(calls) == 1
            monkeypatch.undo()
            loop = loop_tangent_intersection_project(man, C, X, xi)
            assert np.linalg.norm(out - loop) <= 1e-10 * np.linalg.norm(xi)

    def test_hyperbolic_run_ends_cg_in_one_iteration(self, monkeypatch):
        # the Woodbury inverse of B is exact at every fixed-rank iterate,
        # so every projection of a hyperbolic run takes one CG iteration
        data = gen_hyperbolic_data(20, 200, 3, 0)
        problem = make_hyperbolic_problem(data, 3)
        iters = self.spy_on_pcg(monkeypatch)
        res = gotd_run(problem, init_hyperbolic(data, 3), GotdConfig(beta=0.2, max_iter=60, tol=0.0))
        assert res.status is RunStatus.MAX_ITER and iters == [1] * 61

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

    @pytest.mark.parametrize("n, p", [(256, 10), (128, 12)])
    def test_masked_route_trace_matches_exact_projection(self, monkeypatch, n, p):
        # with the masked preconditioner (q = 55 and 78) a modes run follows
        # the exact projection to rounding: 1e-12 relative in f and ||G_f||,
        # and in ||h|| and ||G_h|| up to an absolute 1e-14, since ||h|| is
        # a difference of order-one terms (X^T X - I) and its rounding is
        # absolute; CG stopped at 1e-12 instead of PCG_TOL misses it
        data = gen_modes_problem(n, p, 50.0, 0.6)
        problem = make_modes_problem(data)
        x0 = init_modes(data, 0)
        config = GotdConfig(alpha=1.0, beta=data.beta_default, max_iter=200, tol=0.0)
        pcg_run = gotd_run(problem, x0, config)
        monkeypatch.setattr(
            algorithm, "tangent_intersection_project", loop_tangent_intersection_project
        )
        loop_run = gotd_run(problem, x0, config)
        assert len(pcg_run.trace) == len(loop_run.trace) == 201
        for a, b in zip(pcg_run.trace, loop_run.trace):
            for x, y in ((a.f_value, b.f_value), (a.gf_norm, b.gf_norm)):
                assert abs(x - y) <= 1e-12 * abs(y)
            for x, y in ((a.feas_norm, b.feas_norm), (a.gh_norm, b.gh_norm)):
                assert abs(x - y) <= 1e-12 * abs(y) + 1e-14


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

    def test_problem_without_a_gradient_rejected(self, rng):
        prob, _ = self._problem(rng)
        with pytest.raises(ValueError, match="value_and_grad or grad_f"):
            Problem(prob.manifold, prob.constraint, prob.f)

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

    @pytest.mark.parametrize("field, value", [
        ("alpha", np.nan), ("alpha", np.inf), ("alpha", 0.0),
        ("beta", np.nan), ("beta", np.inf), ("beta", -1.0),
        ("tol", np.nan), ("tol", -1e-12),
        ("max_iter", 1.5), ("max_iter", 10.0), ("trace_every", 1.5), ("trace_every", "2"),
        ("max_iter", True), ("trace_every", True),
    ])
    def test_config_rejects_non_finite_or_out_of_range(self, field, value):
        with pytest.raises(ValueError):
            GotdConfig(**{field: value})

    def test_config_accepts_numpy_integers(self):
        config = GotdConfig(max_iter=np.int64(3), trace_every=np.int32(2))
        assert (config.max_iter, config.trace_every) == (3, 2)

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
        assert res.reason == "iteration 3: diverged (non-finite or huge residual)"
        assert type(res.error) is Diverged
        assert [rec.iteration for rec in res.trace] == [0, 1, 2]

    def test_run_aborts_on_non_tangent_step(self, rng, monkeypatch):
        # a projector that skips the projection hands the retraction a
        # non-tangent step: the run ends ABORTED, not with a traceback
        data = gen_sphere_data(20, 18, 2, 1.5, 3)
        # the fused gradient is tangent already; the sparse one is not
        prob = dataclasses.replace(
            make_sphere_problem(data), value_and_grad=None,
            grad_f=lambda X: sphere_grad(data, X),
        )
        monkeypatch.setattr(
            algorithm, "tangent_intersection_project",
            lambda manifold, constraint, point, xi, gram=None: xi,
        )
        res = gotd_run(prob, init_sphere(data, 3),
                       GotdConfig(alpha=1.0, beta=1.0, max_iter=5, tol=0.0))
        assert res.status is RunStatus.ABORTED
        assert res.reason.startswith("iteration 0: eta is not tangent")
        assert type(res.error) is NotTangent
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
        assert type(res.error) is Diverged
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
        # with the records before it kept; a LinAlgError comes back as
        # the IllConditioned it caused
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
        if isinstance(exc, np.linalg.LinAlgError):
            assert type(res.error) is IllConditioned and res.error.__cause__ is exc
        else:
            assert res.error is exc
        assert [rec.iteration for rec in res.trace] == [0, 1]
        assert res.point is calls[-1]

    def test_run_aborts_on_linalg_error_from_value_and_grad(self):
        data = gen_modes_problem(64, 3, 50.0, 0.6)
        prob = make_modes_problem(data)
        clean = prob.value_and_grad
        calls = []
        cause = np.linalg.LinAlgError("Singular matrix")

        def value_and_grad(X):
            calls.append(X)
            if len(calls) == 2:
                raise cause
            return clean(X)

        prob.value_and_grad = value_and_grad
        res = gotd_run(prob, init_modes(data, 0),
                       GotdConfig(alpha=1.0, beta=data.beta_default, max_iter=10, tol=0.0))
        assert res.status is RunStatus.ABORTED
        assert res.reason == "iteration 1: Singular matrix"
        assert type(res.error) is IllConditioned
        assert res.error.__cause__ is cause
        assert [rec.iteration for rec in res.trace] == [0]
        assert res.point is calls[-1]

    def test_run_aborts_on_nan_gradient_outside_support(self):
        # tangent_project multiplies by the 0/1 mask, so a NaN outside the
        # support is not zeroed: it reaches CG, which stops at its first
        # NaN curvature with NotConverged, and the run ends ABORTED, not
        # with a traceback
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
        assert res.reason == "iteration 2: pcg stalled at 1 iterations"
        assert type(res.error) is NotConverged
        assert [rec.iteration for rec in res.trace] == [0, 1]

    def test_modes_run_goes_on_when_a_support_entry_reaches_zero(self):
        # under the CLI's modes defaults, seed 2 takes a support entry to
        # 0.0 at iteration 2735; the entry stays in the support, so the run
        # keeps lowering f below 2.40295, its value at that iteration
        data = gen_modes_problem(128, 5, 50.0, 0.6)
        res = gotd_run(make_modes_problem(data), init_modes(data, 2),
                       GotdConfig(alpha=1.0, beta=data.beta_default, max_iter=5000, tol=1e-10))
        assert res.status in (RunStatus.MAX_ITER, RunStatus.CONVERGED), res.reason
        assert res.trace[-1].f_value <= 2.40295
        assert res.point.nnz == data.s
        assert np.count_nonzero(res.point.values) < data.s

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

    def test_strong_signal_hyperbolic_run_converges(self):
        # gen_hyperbolic_data's instance at seed 0 with a signal of scale 2
        # in place of 0.5: ||G_f|| has a floor of the order of
        # PCG_TOL ||Dh xi_bar||, which sat at 2.5e-10, above this tol,
        # when CG stopped at 1e-12
        n, m, r, tail = 20, 400, 3, 0.3
        rng = np.random.default_rng(0)
        Z = 2.0 * rng.standard_normal((r, m))
        W = np.linalg.qr(rng.standard_normal((n, r)))[0]
        spatial = W @ Z + tail * rng.standard_normal((n, m))
        top = np.sqrt(1.0 + np.einsum("ij,ij->j", spatial, spatial))
        data = HyperbolicFitProblem(np.vstack([top, spatial]), n, m, r, 0, tail)
        config = GotdConfig(alpha=1.0, beta=0.2, max_iter=6000, tol=1e-10)
        res = gotd_run(make_hyperbolic_problem(data, r), init_hyperbolic(data, r), config)
        assert res.status is RunStatus.CONVERGED

    def test_modes_run_matches_hard_threshold_oracle(self, monkeypatch):
        # every retraction of the run keeps the support and selects
        # nothing; a run whose projection is the stable-sort oracle at
        # every step gives the same trace and the same final point
        data = gen_modes_problem(64, 4, 50.0, 0.6)
        problem = make_modes_problem(data)
        config = GotdConfig(alpha=1.0, beta=data.beta_default, max_iter=30, tol=0.0)
        shipped = gotd_run(problem, init_modes(data, 0), config)
        monkeypatch.setattr(
            SparsityManifold, "project", lambda self, Y: hard_threshold(Y, self.s)
        )
        oracle = gotd_run(problem, init_modes(data, 0), config)
        assert shipped.status is oracle.status is RunStatus.MAX_ITER
        untimed = [
            [dataclasses.replace(rec, wall_seconds=0.0) for rec in run.trace]
            for run in (shipped, oracle)
        ]
        assert len(untimed[0]) == 31 and untimed[0] == untimed[1]
        values = shipped.point.values, oracle.point.values
        assert np.array_equal(*values)
        assert np.array_equal(*map(np.signbit, values))


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

    def test_empty_file(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="no header"):
            read_trace_csv(path)

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
