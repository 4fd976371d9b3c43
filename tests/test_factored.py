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
    RankDeficient,
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
from gotd.solvers import truncated_svd
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


def map_outputs(C, X, Z, eta, lam, b) -> list:
    """The bytes of every factored map of constraint C at X."""
    adj = C.dh_adjoint(X, lam)
    arrays = [
        C.value(X), C.dh(X, Z), C.dh(X, eta),
        *(getattr(adj, f.name) for f in dataclasses.fields(adj)),
        C.gram_solver(X)(b), C.reduced_gram_solver(X)(b),
    ]
    return [a.tobytes() for a in arrays]


class TestPointProducts:
    def test_products_are_read_only(self, rng):
        X = random_factored(rng, 6, 5, 2)
        assert np.array_equal(X.us, X.u * X.sigma) and np.array_equal(X.vs, X.v * X.sigma)
        assert np.array_equal(X.row_sq_norms, np.einsum("ij,ij->i", X.us, X.us))
        assert np.array_equal(X.col_sq_norms, np.einsum("ij,ij->i", X.vs, X.vs))
        products = (X.us, X.vs, X.row_sq_norms, X.col_sq_norms)
        assert all(a is b for a, b in zip(products, (X.us, X.vs, X.row_sq_norms, X.col_sq_norms)))
        for product in products:  # formed once, and read-only
            with pytest.raises(ValueError, match="read-only"):
                product[0] = 1.0
            with pytest.raises(ValueError, match="read-only"):
                product *= 2.0

    @given(points())
    def test_maps_at_formed_and_fresh_products_agree_bitwise(self, case):
        rng, man, X = case
        Z = rng.standard_normal(X.shape)
        eta = man.tangent_project(X, Z)
        X.row_sq_norms, X.col_sq_norms  # formed, with us and vs, before any map runs
        for C, q in ((ObliqueConstraint(man.m, man.n), man.m),
                     (HyperboloidConstraint(man.m - 1, man.n), man.n)):
            lam, b = rng.standard_normal((2, q))
            fresh = FactoredPoint(X.u, X.sigma, X.v)
            assert map_outputs(C, X, Z, eta, lam, b) == map_outputs(C, fresh, Z, eta, lam, b)


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

    def test_rank_dropping_step_raises_through_truncated_svd(self, rng):
        # eta = -sigma_3 u_3 v_3^T is tangent at X, and X + eta has rank 2;
        # the message is truncated_svd's
        man = FixedRankManifold(7, 6, 3)
        X = random_factored(rng, 7, 6, 3)
        M = np.diag([0.0, 0.0, -X.sigma[2]])
        eta = FixedRankTangent(X.u, X.v, M, np.zeros_like(X.u), np.zeros_like(X.v))
        with pytest.raises(RankDeficient, match="numerical rank below 3: sigma_3 = "):
            man.retract(X, eta)


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
    @given(points(), st.integers(1, 4))
    def test_products_transpose_arithmetic_match_dense(self, case, k):
        rng, man, X = case
        m, n = X.shape
        L = LowRankMatrix(rng.standard_normal((m, k)), rng.standard_normal((n, k)))
        D = L.a @ L.b.T
        W, Y = rng.standard_normal((n, 3)), rng.standard_normal((2, m))
        assert L.shape == D.shape and L.T.shape == D.T.shape
        assert np.allclose(np.asarray(L), D, atol=1e-12)
        assert np.allclose(L @ W, D @ W, atol=1e-12)
        assert np.allclose(L.T @ Y.T, D.T @ Y.T, atol=1e-12)
        assert isinstance(-L, LowRankMatrix)
        assert np.allclose((-L).dense(), -D, atol=1e-12)
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

    def test_value_at_large_column_norms(self):
        # columns of norm 1 to about 1e3 on the sheet: x_j^T J x_j + 1
        # cancels to about 1e-6 of ||x_j||^2 there.  The factored value
        # ||x_j||^2 - 2 x_0j^2 + 1 and the dense definition on X.dense()
        # differ by at most 7.3 eps ||x_j||^2 over 20 seeds; the bound is
        # 1e-14 ||x_j||^2 (45 eps)
        n, m, s = 12, 200, 4
        C = HyperboloidConstraint(n, m)
        for seed in range(5):
            rng = np.random.default_rng(seed)
            Z = rng.standard_normal((s - 1, m))
            Z *= (np.logspace(0, 3, m) / np.sqrt(2.0) / np.linalg.norm(Z, axis=0))[None, :]
            W = np.linalg.qr(rng.standard_normal((n, s - 1)))[0]
            top = np.sqrt(1.0 + np.einsum("ij,ij->j", Z, Z))
            Wy, S, Vy = truncated_svd(np.vstack([top, Z]), s)
            X = FactoredPoint(np.vstack([Wy[:1], W @ Wy[1:]]), S, Vy)
            Xd = X.dense()
            sq_norms = np.einsum("ij,ij->j", Xd, Xd)
            assert np.sqrt(sq_norms.max()) > 900.0
            assert np.all(np.abs(C.value(X) - C.value(Xd)) <= 1e-14 * sq_norms)

    def test_woodbury_guard_divides_by_the_column_norms(self, monkeypatch):
        # ||w||^2 = 1/2 and Sigma v_0 parallel to w give d_0 = 0, so the
        # guard trips; the fallback is the solve by Dh Dh* = Diag(4 g)
        r = np.sqrt(0.5)
        U = np.array([[r, 0.0], [r, 0.0], [0.0, 1.0]])
        V = np.array([[1.0, 0.0], [0.0, 0.6], [0.0, 0.8]])
        X = FactoredPoint(U, np.array([2.0, 1.0]), V)
        C = HyperboloidConstraint(2, 3)
        b = np.array([1.0, -2.0, 3.0])
        ref = C.gram_solve(X.dense(), b)

        def refuse(self, X):
            raise AssertionError("gram_solver called by reduced_gram_solver")

        monkeypatch.setattr(HyperboloidConstraint, "gram_solver", refuse)
        assert np.allclose(C.reduced_gram_solver(X)(b), ref, rtol=1e-14, atol=0.0)
        assert np.allclose(ref, b / (4.0 * np.array([4.0, 0.36, 0.64])), rtol=1e-14, atol=0.0)

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
