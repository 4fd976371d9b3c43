import numpy as np
import pytest

from gotd import (
    FixedRankManifold,
    HyperboloidConstraint,
    NotConverged,
    ShapeMismatch,
    apply_reduced_gram,
    build_workspace,
    dense_reduced_gram,
    project_hyperboloid_lowrank,
    reduced_gram_diag,
    tangent_intersection_project,
)
from oracles import feasible_hyperboloid_lowrank, random_factored


def lorentz(n1):
    j = np.ones(n1)
    j[0] = -1.0
    return j


def coeff_and_perp(ws):
    """P = C V^T and Q = W V^T from the workspace factors."""
    V = ws.right_factor
    return ws.coeff_core @ V.T, ws.perp_factor @ V.T


class TestWorkspace:
    def test_reconstruction(self, rng):
        X = random_factored(rng, 7, 9, 3)
        j = lorentz(7)
        ws = build_workspace(X, j)
        P, Q = coeff_and_perp(ws)
        JX = j[:, None] * X.dense()
        assert np.abs(X.u @ P + Q - JX).max() <= 1e-12
        assert np.abs(X.u.T @ Q).max() <= 1e-12

    def test_identity_signature_kills_residual(self, rng):
        # with J = I the columns of J X stay in span(U), so Q = 0
        X = random_factored(rng, 6, 8, 2)
        ws = build_workspace(X, np.ones(6))
        assert np.abs(coeff_and_perp(ws)[1]).max() <= 1e-12

    def test_coeff_norms(self, rng):
        X = random_factored(rng, 6, 8, 2)
        ws = build_workspace(X, lorentz(6))
        P = coeff_and_perp(ws)[0]
        assert np.allclose(ws.coeff_sq_norms, np.einsum("ij,ij->j", P, P))

    def test_shape_mismatch(self, rng):
        X = random_factored(rng, 6, 8, 2)
        with pytest.raises(ShapeMismatch):
            build_workspace(X, np.ones(5))


class TestReducedGram:
    def test_zero_vector(self, rng):
        X = random_factored(rng, 6, 8, 2)
        ws = build_workspace(X, lorentz(6))
        assert np.allclose(apply_reduced_gram(ws, np.zeros(8)), 0.0)

    def test_diagonal_limit(self, rng):
        X = random_factored(rng, 6, 8, 2)
        ws = build_workspace(X, np.ones(6))  # Q = 0
        w = rng.standard_normal(8)
        assert np.allclose(apply_reduced_gram(ws, w), ws.coeff_sq_norms * w)

    @pytest.mark.parametrize("dims", [(5, 7, 2), (12, 15, 3), (20, 18, 4)])
    def test_apply_matches_dense(self, rng, dims):
        n, m, s = dims
        X = random_factored(rng, n + 1, m, s)
        ws = build_workspace(X, lorentz(n + 1))
        A = dense_reduced_gram(ws)
        for _ in range(5):
            w = rng.standard_normal(m)
            assert np.abs(apply_reduced_gram(ws, w) - A @ w).max() <= 1e-12 * np.abs(A).max()

    def test_dense_symmetric(self, rng):
        X = random_factored(rng, 8, 10, 3)
        A = dense_reduced_gram(build_workspace(X, lorentz(8)))
        assert np.abs(A - A.T).max() == 0.0

    def test_positive_definite_at_feasible_points(self, rng):
        for _ in range(5):
            X = feasible_hyperboloid_lowrank(rng, 9, 12, 3)
            A = dense_reduced_gram(build_workspace(X, lorentz(10)))
            assert np.linalg.eigvalsh(A).min() > 0.0

    def test_diagonal_matches_dense(self, rng):
        X = random_factored(rng, 9, 11, 3)
        ws = build_workspace(X, lorentz(9))
        assert np.allclose(
            reduced_gram_diag(ws), np.diag(dense_reduced_gram(ws)), atol=1e-12
        )


class TestProjection:
    def test_normal_input_gives_zero(self, rng):
        X = feasible_hyperboloid_lowrank(rng, 8, 10, 3)
        ws = build_workspace(X, lorentz(9))
        W = rng.standard_normal((9, 10))
        PU = X.u @ X.u.T
        PV = X.v @ X.v.T
        xi = (np.eye(9) - PU) @ W @ (np.eye(10) - PV)  # normal to the manifold
        out = project_hyperboloid_lowrank(X, ws, xi)
        assert np.abs(out).max() <= 1e-10

    def test_fixed_point_on_intersection_directions(self, rng):
        X = feasible_hyperboloid_lowrank(rng, 8, 10, 3)
        ws = build_workspace(X, lorentz(9))
        xi = project_hyperboloid_lowrank(X, ws, rng.standard_normal((9, 10)))
        again = project_hyperboloid_lowrank(X, ws, xi)
        assert np.linalg.norm(again - xi) <= 1e-8 * max(1.0, np.linalg.norm(xi))

    def test_matches_generic_path(self, rng):
        n, m, s = 12, 15, 3
        X = feasible_hyperboloid_lowrank(rng, n, m, s)
        constraint = HyperboloidConstraint(n, m)
        manifold = FixedRankManifold(n + 1, m, s)
        ws = build_workspace(X, constraint.j_diag)
        for _ in range(5):
            xi = rng.standard_normal((n + 1, m))
            fast = project_hyperboloid_lowrank(X, ws, xi)
            generic = tangent_intersection_project(manifold, constraint, X, xi)
            assert np.linalg.norm(fast - generic) <= 1e-8 * max(1.0, np.linalg.norm(generic))

    def test_membership(self, rng):
        n, m, s = 10, 13, 3
        X = feasible_hyperboloid_lowrank(rng, n, m, s)
        constraint = HyperboloidConstraint(n, m)
        manifold = FixedRankManifold(n + 1, m, s)
        ws = build_workspace(X, constraint.j_diag)
        xi = rng.standard_normal((n + 1, m))
        xi /= np.linalg.norm(xi)
        out = project_hyperboloid_lowrank(X, ws, xi)
        assert np.linalg.norm(constraint.dh(X.dense(), out)) <= 1e-8
        assert np.linalg.norm(out - manifold.tangent_project(X, out)) <= 1e-8

    def test_not_converged_raises(self, rng):
        X = feasible_hyperboloid_lowrank(rng, 10, 13, 3)
        ws = build_workspace(X, lorentz(11))
        with pytest.raises(NotConverged):
            project_hyperboloid_lowrank(
                X, ws, rng.standard_normal((11, 13)), tol=1e-15, max_iter=1
            )

    def test_workspace_point_mismatch(self, rng):
        X = feasible_hyperboloid_lowrank(rng, 8, 10, 3)
        Y = feasible_hyperboloid_lowrank(rng, 8, 10, 3)
        ws = build_workspace(X, lorentz(9))
        with pytest.raises(ShapeMismatch):
            project_hyperboloid_lowrank(Y, ws, np.zeros((9, 10)))

    def test_pcg_matches_dense_solve_on_factored_operator(self, rng):
        from gotd import pcg

        X = feasible_hyperboloid_lowrank(rng, 12, 15, 3)
        ws = build_workspace(X, lorentz(13))
        b = rng.standard_normal(15)
        x, _, converged = pcg(
            lambda w: apply_reduced_gram(ws, w), b, precond=lambda v: v / reduced_gram_diag(ws)
        )
        assert converged
        ref = np.linalg.solve(dense_reduced_gram(ws), b)
        assert np.linalg.norm(x - ref) <= 1e-8 * np.linalg.norm(ref)

    def test_pcg_iterations_within_cap(self, rng):
        # the diagonally preconditioned solve stays well under the cap
        for _ in range(5):
            X = feasible_hyperboloid_lowrank(rng, 20, 40, 4)
            ws = build_workspace(X, lorentz(21))
            xi = rng.standard_normal((21, 40))
            out = project_hyperboloid_lowrank(X, ws, xi, tol=1e-10, max_iter=200)
            assert np.isfinite(out).all()
