"""The factored fixed-rank route against the dense one.

Tangent vectors at X = U diag(sigma) V^T are stored as (M, Up, Vp) and
low-rank operands A B^T as (A, B); the sphere problem reads X on its
sample sets from the factors and projects its sparse gradient in one
row-blocked pass, and the hyperboloid maps and projector work on
U Sigma and V.  Every factored
quantity here is compared with the same quantity built from m x n arrays
(``oracles.DenseFixedRankManifold`` and friends), over shapes and points
drawn by hypothesis.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gotd import (
    FactoredPoint,
    FixedRankManifold,
    FixedRankTangent,
    GotdConfig,
    HyperboloidConstraint,
    LowRankMatrix,
    NotTangent,
    ObliqueConstraint,
    RunStatus,
    ShapeMismatch,
    feasibility_direction,
    gen_hyperbolic_data,
    gen_sphere_data,
    gotd_run,
    hyperbolic_objective,
    init_hyperbolic,
    init_sphere,
    make_hyperbolic_problem,
    make_sphere_problem,
    sphere_grad,
    tangent_intersection_project,
)
from gotd import algorithm, problems
from gotd.manifolds import product_entries
from gotd.problems import CooMatrix, SparsePattern
from oracles import (
    DenseFixedRankManifold,
    collapsed_projector,
    dense_hyperbolic_problem,
    dense_sphere_problem,
    feasible_hyperboloid_lowrank,
    random_factored,
    unblocked_coo_matmul,
)


@st.composite
def points(draw, max_dim=9):
    """(rng, manifold, point) with 1 <= r <= min(m, n)."""
    m = draw(st.integers(1, max_dim))
    n = draw(st.integers(1, max_dim))
    r = draw(st.integers(1, min(m, n)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return rng, FixedRankManifold(m, n, r), random_factored(rng, m, n, r)


def dense_project(man, X, Z):
    return DenseFixedRankManifold(man.m, man.n, man.r).tangent_project(X, Z)


class TestTangentType:
    @given(points())
    def test_project_norm_inner_match_dense(self, case):
        rng, man, X = case
        Z, W = rng.standard_normal((2,) + X.shape)
        eta, xi = man.tangent_project(X, Z), man.tangent_project(X, W)
        assert isinstance(eta, FixedRankTangent)
        ref_eta, ref_xi = dense_project(man, X, Z), dense_project(man, X, W)
        assert np.abs(eta.dense() - ref_eta).max() <= 1e-12 * max(1.0, np.abs(Z).max())
        assert eta.norm() == pytest.approx(np.linalg.norm(ref_eta), rel=1e-12, abs=1e-14)
        assert eta.inner(xi) == pytest.approx(np.vdot(ref_eta, ref_xi), rel=1e-10, abs=1e-12)

    @given(points())
    def test_gauge_conditions(self, case):
        rng, man, X = case
        eta = man.tangent_project(X, rng.standard_normal(X.shape))
        assert np.abs(X.u.T @ eta.Up).max() <= 1e-12
        assert np.abs(X.v.T @ eta.Vp).max() <= 1e-12

    @given(points(), st.floats(-3.0, 3.0))
    def test_arithmetic_stays_factored(self, case, c):
        rng, man, X = case
        Z, W = rng.standard_normal((2,) + X.shape)
        eta, xi = man.tangent_project(X, Z), man.tangent_project(X, W)
        for out, ref in [
            (eta + xi, eta.dense() + xi.dense()),
            (eta - xi, eta.dense() - xi.dense()),
            (c * eta, c * eta.dense()),
            (eta * np.float64(c), c * eta.dense()),
            (-eta, -eta.dense()),
        ]:
            assert isinstance(out, FixedRankTangent)
            assert np.allclose(out.dense(), ref, atol=1e-12)

    @given(points())
    def test_products_and_transpose(self, case):
        rng, man, X = case
        eta = man.tangent_project(X, rng.standard_normal(X.shape))
        D = eta.dense()
        W = rng.standard_normal((X.shape[1], 3))
        Y = rng.standard_normal((2, X.shape[0]))
        assert np.allclose(eta @ W, D @ W, atol=1e-12)
        assert np.allclose(Y @ eta, Y @ D, atol=1e-12)
        assert np.allclose(eta.T.dense(), D.T, atol=1e-12)
        # projecting a tangent vector at its own point returns it
        assert man.tangent_project(X, eta) is eta

    @given(points())
    def test_low_rank_operand(self, case):
        # any operand with Z @ V and Z.T @ U projects: here a tangent
        # vector at another point of the same manifold
        rng, man, X = case
        Y = random_factored(rng, man.m, man.n, man.r)
        other = man.tangent_project(Y, rng.standard_normal(X.shape))
        out = man.tangent_project(X, other)
        assert np.allclose(out.dense(), dense_project(man, X, other.dense()), atol=1e-12)

    def test_mixed_arithmetic_falls_back_to_dense(self, rng):
        man = FixedRankManifold(6, 5, 2)
        X = random_factored(rng, 6, 5, 2)
        eta = man.tangent_project(X, rng.standard_normal((6, 5)))
        A = rng.standard_normal((6, 5))
        assert np.allclose(eta + A, eta.dense() + A)
        assert np.allclose(A - eta, A - eta.dense())
        assert np.allclose(A * eta, A * eta.dense())
        assert np.allclose(np.asarray(eta), eta.dense())

    def test_inner_needs_one_point(self, rng):
        man = FixedRankManifold(6, 5, 2)
        X, Y = random_factored(rng, 6, 5, 2), random_factored(rng, 6, 5, 2)
        eta = man.tangent_project(X, rng.standard_normal((6, 5)))
        xi = man.tangent_project(Y, rng.standard_normal((6, 5)))
        with pytest.raises(ShapeMismatch):
            eta.inner(xi)


class TestFactoredRetract:
    @given(points(), st.floats(0.01, 0.3))
    def test_matches_projection_of_the_sum(self, case, t):
        rng, man, X = case
        eta = man.tangent_project(X, rng.standard_normal(X.shape))
        eta = (t / max(eta.norm(), 1e-300)) * eta
        Y = man.retract(X, eta)
        ref = man.project(X.dense() + eta.dense())
        assert np.allclose(Y.dense(), ref.dense(), atol=1e-10)
        assert np.allclose(Y.sigma, ref.sigma, atol=1e-10)

    @given(points())
    def test_factored_and_dense_eta_agree(self, case):
        rng, man, X = case
        eta = 0.1 * man.tangent_project(X, rng.standard_normal(X.shape))
        a, b = man.retract(X, eta), man.retract(X, eta.dense())
        assert np.allclose(a.dense(), b.dense(), atol=1e-12)

    def test_gauge_violation_is_typed(self, rng):
        man = FixedRankManifold(7, 6, 2)
        X = random_factored(rng, 7, 6, 2)
        eta = man.tangent_project(X, rng.standard_normal((7, 6)))
        bad = FixedRankTangent(X.u, X.v, eta.M, eta.Up + X.u, eta.Vp)
        with pytest.raises(NotTangent, match="not tangent"):
            man.retract(X, bad)

    def test_dense_violation_is_typed(self, rng):
        man = FixedRankManifold(6, 5, 2)
        X = random_factored(rng, 6, 5, 2)
        W = rng.standard_normal((6, 5))
        with pytest.raises(NotTangent):
            man.retract(X, W - man.tangent_project(X, W))


class TestFactoredOblique:
    @given(points())
    def test_value_dh_adjoint_gram_match_dense(self, case):
        rng, man, X = case
        C = ObliqueConstraint(man.m, man.n)
        Xd = X.dense()
        Z = rng.standard_normal(X.shape)
        eta = man.tangent_project(X, Z)
        lam = rng.standard_normal(man.m)
        assert np.allclose(C.value(X), C.value(Xd), atol=1e-12)
        assert np.allclose(C.dh(X, Z), C.dh(Xd, Z), atol=1e-12)
        assert np.allclose(C.dh(X, eta), C.dh(Xd, eta.dense()), atol=1e-12)
        adj = C.dh_adjoint(X, lam)
        assert isinstance(adj, FixedRankTangent)
        assert np.allclose(adj.dense(), C.dh_adjoint(Xd, lam), atol=1e-12)
        assert np.abs(adj.Vp).max() == 0.0
        b = rng.standard_normal(man.m)
        assert np.allclose(C.gram_solve(X, b), C.gram_solve(Xd, b), rtol=1e-12)


class TestLowRankMatrix:
    @given(points(), st.integers(1, 4), st.floats(-3.0, 3.0))
    def test_products_transpose_arithmetic_match_dense(self, case, k, c):
        rng, man, X = case
        m, n = X.shape
        L = LowRankMatrix(rng.standard_normal((m, k)), rng.standard_normal((n, k)))
        D = L.a @ L.b.T
        W, Y = rng.standard_normal((n, 3)), rng.standard_normal((2, m))
        assert L.shape == D.shape and L.T.shape == D.T.shape
        assert np.allclose(np.asarray(L), D, atol=1e-12)
        assert np.allclose(L @ W, D @ W, atol=1e-12)
        assert np.allclose(Y @ L, Y @ D, atol=1e-12)
        assert np.allclose(L.T @ Y.T, D.T @ Y.T, atol=1e-12)
        for out, ref in [(c * L, c * D), (L * np.float64(c), c * D), (-L, -D)]:
            assert isinstance(out, LowRankMatrix)
            assert np.allclose(out.dense(), ref, atol=1e-12)
        assert np.allclose(L * D, D * D, atol=1e-12)
        # a tangent projection takes it like a dense operand
        assert np.allclose(
            man.tangent_project(X, L).dense(), dense_project(man, X, D), atol=1e-12
        )

    def test_factor_shapes_checked(self):
        with pytest.raises(ShapeMismatch):
            LowRankMatrix(np.zeros((4, 2)), np.zeros((3, 3)))


class TestFactoredHyperboloid:
    @given(points())
    def test_maps_match_dense(self, case):
        rng, man, X = case
        C = HyperboloidConstraint(man.m - 1, man.n)
        Xd = X.dense()
        Z = rng.standard_normal(X.shape)
        eta = man.tangent_project(X, Z)
        L = LowRankMatrix(rng.standard_normal((man.m, 2)), rng.standard_normal((man.n, 2)))
        lam, b = rng.standard_normal((2, man.n))
        assert np.allclose(C.value(X), C.value(Xd), atol=1e-12)
        for op in (Z, eta, L):
            assert np.allclose(C.dh(X, op), C.dh(Xd, np.asarray(op)), atol=1e-11)
        adj = C.dh_adjoint(X, lam)
        assert isinstance(adj, LowRankMatrix)
        assert np.allclose(adj.dense(), C.dh_adjoint(Xd, lam), atol=1e-12)
        assert np.allclose(C.gram_solve(X, b), C.gram_solve(Xd, b), rtol=1e-11)
        # <Dh Z, lam> = <Z, Dh* lam> on the factored maps
        lhs, rhs = np.vdot(C.dh(X, Z), lam), np.vdot(Z, adj.dense())
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)

    def test_step_builds_no_dense_matrix(self, rng, monkeypatch):
        # both directions and the retraction at a factored hyperbolic point;
        # only the ambient direction xi handed to the projector is dense
        n, m, s = 12, 40, 4
        X = feasible_hyperboloid_lowrank(rng, n, m, s)
        X = FactoredPoint(X.u, X.sigma * 1.01, X.v)  # off the sheet: h != 0
        problem = make_hyperbolic_problem(gen_hyperbolic_data(n, m, s - 1, 0), s - 1)
        xi = rng.standard_normal(X.shape)

        def refuse(self):
            raise AssertionError(f"{type(self).__name__}.dense() on the hot path")

        for cls in (FactoredPoint, FixedRankTangent, LowRankMatrix):
            monkeypatch.setattr(cls, "dense", refuse)
        gh = feasibility_direction(problem.manifold, problem.constraint, X)
        gf = tangent_intersection_project(problem.manifold, problem.constraint, X, xi)
        assert isinstance(gh, FixedRankTangent) and isinstance(gf, FixedRankTangent)
        assert gh.norm() > 0.0 and gf.norm() > 0.0
        assert problem.manifold.retract(X, 0.1 * gh + 0.1 * gf).rank == s


class TestSparseGradient:
    @given(
        st.integers(1, 12), st.integers(1, 12), st.integers(0, 2**32 - 1),
        st.floats(0.0, 1.0), st.booleans(),
    )
    def test_products_match_dense(self, m, n, seed, density, shuffle):
        rng = np.random.default_rng(seed)
        flat = np.flatnonzero(rng.uniform(size=m * n) < density)
        if shuffle:
            flat = rng.permutation(flat)
        rows, cols = np.unravel_index(flat, (m, n))
        G = CooMatrix(SparsePattern(rows, cols, (m, n)), rng.standard_normal(flat.size))
        D = np.zeros((m, n))
        D[rows, cols] = G.vals
        W, Y = rng.standard_normal((n, 3)), rng.standard_normal((m, 2))
        assert np.array_equal(G.dense(), D)
        assert G.T.shape == (n, m)
        assert np.allclose(G @ W, D @ W, atol=1e-12)
        assert np.allclose(G.T @ Y, D.T @ Y, atol=1e-12)
        assert np.allclose((-2.0 * G).dense(), -2.0 * D)

    def test_sphere_gradient_at_a_point(self, rng):
        data = gen_sphere_data(30, 25, 2, 2.0, 1)
        X = init_sphere(data, 3)
        G = sphere_grad(data, X)
        assert isinstance(G, CooMatrix)
        assert np.allclose(np.asarray(G), sphere_grad(data, X.dense()), rtol=0, atol=1e-14)


@st.composite
def sampled(draw):
    """(rng, rows, cols, point) with distinct positions, row-major unless
    shuffled, including empty patterns, empty rows and rows of up to 9
    entries."""
    m, n = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    flat = np.flatnonzero(rng.uniform(size=m * n) < draw(st.floats(0.0, 1.0)))
    if draw(st.booleans()):
        flat = rng.permutation(flat)
    rows, cols = np.divmod(flat, n)
    return rng, rows, cols, random_factored(rng, m, n, draw(st.integers(1, min(m, n))))


class TestSampledKernels:
    """The row-blocked kernels, with blocks of 1-3 entries so that rows
    span several blocks, against product_entries and unblocked products."""

    @given(sampled(), st.integers(1, 3))
    def test_match_gathers_and_products(self, case, block):
        rng, rows, cols, X = case
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(problems, "BLOCK_ENTRIES", block)
            pattern = SparsePattern(rows, cols, X.shape)
            row_runs = problems._Runs(rows, cols, *X.shape)
        A = X.u * X.sigma
        sampled_x = product_entries(A, X.v, rows, cols)
        G = CooMatrix(pattern, sampled_x - rng.standard_normal(rows.size))
        assert np.array_equal(row_runs.entries(A, X.v), sampled_x)
        assert np.array_equal(G @ X.v, unblocked_coo_matmul(G, X.v))
        assert np.array_equal(G.T @ X.u, unblocked_coo_matmul(G.T, X.u))

    @given(st.integers(4, 12), st.integers(4, 12), st.integers(1, 3),
           st.integers(1, 3), st.integers(0, 2**32 - 1))
    def test_sphere_evaluation_bit_equal(self, m, n, r, block, seed):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(problems, "BLOCK_ENTRIES", block)
            data = gen_sphere_data(m, n, r, 0.5, seed)
        X = random_factored(np.random.default_rng(seed), m, n, r)
        f_val, grad = problems.sphere_value_and_grad(data, X)
        A = X.u * X.sigma
        resid = product_entries(A, X.v, *data.omega) - data.target_omega
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(CooMatrix, "__matmul__", unblocked_coo_matmul)
            ref = FixedRankManifold(m, n, r).tangent_project(
                X, CooMatrix(data.omega_pattern, resid))
        assert f_val == problems.sphere_objective(data, X) == 0.5 * float(
            np.linalg.norm(resid) ** 2)
        assert np.array_equal(sphere_grad(data, X).vals, resid)
        assert all(np.array_equal(getattr(grad, k), getattr(ref, k)) for k in ("M", "Up", "Vp"))
        direct = np.linalg.norm(product_entries(A, X.v, *data.gamma) - data.target_gamma)
        assert problems.sphere_test_error(data, X) == direct / np.linalg.norm(data.target_gamma)

    def test_run_bit_equal_to_sparse_gradient_route(self, monkeypatch):
        data = gen_sphere_data(200, 240, 5, 6, 0)
        x0 = init_sphere(data, 0)
        cfg = GotdConfig(alpha=1.0, beta=1.0, max_iter=20, tol=0.0)
        res = gotd_run(make_sphere_problem(data), x0, cfg)
        # the gradient as a CooMatrix with unblocked products, both samples
        # gathered by product_entries
        def sample_error(X, sample, target):
            return product_entries(X.u * X.sigma, X.v, *sample) - target

        def sparse_value_and_grad(prob, X):
            resid = sample_error(X, prob.omega, prob.target_omega)
            return 0.5 * float(np.linalg.norm(resid) ** 2), CooMatrix(prob.omega_pattern, resid)

        monkeypatch.setattr(problems, "sphere_value_and_grad", sparse_value_and_grad)
        monkeypatch.setattr(CooMatrix, "__matmul__", unblocked_coo_matmul)
        monkeypatch.setattr(problems, "sphere_test_error", lambda prob, X: float(
            np.linalg.norm(sample_error(X, prob.gamma, prob.target_gamma))
            / np.linalg.norm(prob.target_gamma)))
        ref = gotd_run(make_sphere_problem(data), x0, cfg)
        assert res.status is ref.status is RunStatus.MAX_ITER
        assert [dataclasses.replace(rec, wall_seconds=0.0) for rec in res.trace] == [
            dataclasses.replace(rec, wall_seconds=0.0) for rec in ref.trace]
        assert all(np.array_equal(getattr(res.point, k), getattr(ref.point, k))
                   for k in ("u", "sigma", "v"))


def _assert_traces_match(trace, ref):
    assert [r.iteration for r in trace] == [r.iteration for r in ref]
    for a, b in zip(trace, ref):
        for col in ("f_value", "feas_norm", "gh_norm", "gf_norm", "extra_metric"):
            x, y = getattr(a, col), getattr(b, col)
            if x is None or y is None:
                assert x is y
                continue
            # ||h|| and G_h are rounding-sized at a feasible start, and ||h||
            # is a difference of terms of size |x|^2 at every iteration
            floor = 1e-12 if col in ("feas_norm", "gh_norm") else 0.0
            assert abs(x - y) <= 1e-10 * abs(y) + floor, (col, a.iteration, x, y)


def _refuse_dense_gradient(prob, X):
    raise AssertionError("the dense hyperbolic gradient on the hot path")


class TestAgainstDenseRoute:
    def test_sphere_trace(self, monkeypatch):
        data = gen_sphere_data(500, 600, 5, 6, 1)
        x0 = init_sphere(data, 1)
        cfg = GotdConfig(alpha=1.0, beta=1.0, max_iter=50, tol=0.0)
        res = gotd_run(make_sphere_problem(data), x0, cfg)
        monkeypatch.setattr(algorithm, "tangent_intersection_project", collapsed_projector)
        ref = gotd_run(dense_sphere_problem(data), x0, cfg)
        assert res.status is ref.status is RunStatus.MAX_ITER
        _assert_traces_match(res.trace, ref.trace)

    def test_hyperbolic_trace(self):
        data = gen_hyperbolic_data(60, 300, 5, 1)
        x0 = init_hyperbolic(data, 5)
        f0 = hyperbolic_objective(data, x0)
        cfg = GotdConfig(alpha=1.0, beta=0.2, max_iter=50, tol=0.0)
        runs = []
        for problem in (make_hyperbolic_problem(data, 5), dense_hyperbolic_problem(data, 5)):
            problem.extra_metric = lambda X, p=problem: p.f(X) / f0
            runs.append(gotd_run(problem, x0, cfg))
        res, ref = runs
        assert res.status is ref.status is RunStatus.MAX_ITER
        _assert_traces_match(res.trace, ref.trace)

    def test_sphere_step_builds_no_dense_matrix(self, monkeypatch):
        def refuse(self):
            raise AssertionError(f"{type(self).__name__}.dense() on the hot path")

        for cls in (FactoredPoint, FixedRankTangent, CooMatrix):
            monkeypatch.setattr(cls, "dense", refuse)
        data = gen_sphere_data(60, 50, 3, 3.0, 2)
        res = gotd_run(
            make_sphere_problem(data), init_sphere(data, 2),
            GotdConfig(alpha=1.0, beta=1.0, max_iter=10, tol=0.0),
        )
        assert res.status is RunStatus.MAX_ITER
        assert res.iterations == 10

    def test_hyperbolic_run_builds_no_dense_matrix(self, monkeypatch):
        # a whole run to tolerance, objective and f/f0 column included,
        # on the factors alone, and without the dense (n+1) x m gradient
        monkeypatch.setattr(problems, "hyperbolic_grad", _refuse_dense_gradient)
        data = gen_hyperbolic_data(20, 60, 3, 4)
        problem = make_hyperbolic_problem(data, 3)
        x0 = init_hyperbolic(data, 3)
        f0 = problem.f(x0.dense())
        problem.extra_metric = lambda X: problem.f(X) / f0

        def refuse(self):
            raise AssertionError(f"{type(self).__name__}.dense() on the hot path")

        for cls in (FactoredPoint, FixedRankTangent, LowRankMatrix):
            monkeypatch.setattr(cls, "dense", refuse)
        res = gotd_run(problem, x0, GotdConfig(alpha=1.0, beta=0.2, max_iter=2000, tol=1e-10))
        assert res.status is RunStatus.CONVERGED, res.reason
        assert 0.0 < res.trace[-1].extra_metric < 1.0
