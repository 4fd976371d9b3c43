import numpy as np
import pytest

from gotd import IllConditioned, RankDeficient, pcg
from gotd.solvers import pinv_apply, sym_sylvester_solver, truncated_svd


def dense_from_factors(U, s, V):
    return (U * s) @ V.T


class TestTruncatedSvd:
    def test_diagonal(self):
        U, s, V = truncated_svd(np.diag([3.0, 2.0, 1.0]), 2)
        assert np.allclose(s, [3.0, 2.0])
        assert np.allclose(np.abs(U), np.eye(3)[:, :2])
        assert np.allclose(np.abs(V), np.eye(3)[:, :2])
        assert np.allclose(dense_from_factors(U, s, V), np.diag([3.0, 2.0, 0.0]))

    def test_identity(self):
        _, s, _ = truncated_svd(np.eye(3), 3)
        assert np.allclose(s, np.ones(3))

    def test_eckart_young_random_candidates(self, rng):
        X = rng.standard_normal((6, 5))
        U, s, V = truncated_svd(X, 2)
        best = np.linalg.norm(X - dense_from_factors(U, s, V))
        for _ in range(1000):
            Y = rng.standard_normal((6, 2)) @ rng.standard_normal((2, 5))
            assert best <= np.linalg.norm(X - Y) + 1e-12

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_eckart_young_sizes(self, rng, r):
        X = rng.standard_normal((8, 6))
        U, s, V = truncated_svd(X, r)
        best = np.linalg.norm(X - dense_from_factors(U, s, V))
        for _ in range(1000):
            Y = rng.standard_normal((8, r)) @ rng.standard_normal((r, 6))
            assert best <= np.linalg.norm(X - Y) + 1e-12

    def test_orthonormal_factors(self, rng):
        X = rng.standard_normal((7, 4))
        U, s, V = truncated_svd(X, 3)
        assert np.allclose(U.T @ U, np.eye(3), atol=1e-12)
        assert np.allclose(V.T @ V, np.eye(3), atol=1e-12)
        assert np.all(np.diff(s) <= 0) and np.all(s > 0)

    def test_rank_deficient(self):
        with pytest.raises(RankDeficient):
            truncated_svd(np.diag([3.0, 2.0, 1e-14]), 3)
        with pytest.raises(RankDeficient):
            truncated_svd(np.eye(3), 4)


class TestPinvApply:
    def test_rank_one_diagonal(self):
        x = pinv_apply(np.diag([2.0, 0.0]), np.array([4.0, 5.0]))
        assert np.allclose(x, [2.0, 0.0])

    def test_zero_operator(self):
        assert np.allclose(pinv_apply(np.zeros((2, 2)), np.ones(2)), 0.0)

    def test_range_projection(self, rng):
        M = rng.standard_normal((5, 3))
        A = M @ M.T  # PSD, rank 3
        b = rng.standard_normal(5)
        x = pinv_apply(A, b)
        Q = np.linalg.qr(M)[0]
        assert np.linalg.norm(A @ x - Q @ (Q.T @ b)) <= 1e-10

    @pytest.mark.parametrize("rank", [1, 3, 5])
    def test_moore_penrose_identities(self, rng, rank):
        M = rng.standard_normal((5, rank))
        A = M @ M.T
        P = np.column_stack([pinv_apply(A, e) for e in np.eye(5)])
        scale = np.linalg.norm(A)
        assert np.linalg.norm(A @ P @ A - A) <= 1e-9 * scale
        assert np.linalg.norm(P @ A @ P - P) <= 1e-9 * np.linalg.norm(P)
        assert np.linalg.norm((A @ P).T - A @ P) <= 1e-9
        assert np.linalg.norm((P @ A).T - P @ A) <= 1e-9


class TestPcg:
    def test_identity_one_iteration(self, rng):
        b = rng.standard_normal(6)
        x, iters, converged = pcg(lambda v: v, b)
        assert converged and iters == 1
        assert np.allclose(x, b)

    def test_zero_rhs(self):
        x, iters, converged = pcg(lambda v: v, np.zeros(4))
        assert converged and iters == 0 and np.all(x == 0.0)

    def test_matches_spd_solve(self, rng):
        M = rng.standard_normal((8, 8))
        A = M @ M.T + np.eye(8)
        b = rng.standard_normal(8)
        x, _, converged = pcg(lambda v: A @ v, b, tol=1e-12)
        assert converged
        ref = np.linalg.solve(A, b)
        assert np.linalg.norm(x - ref) <= 1e-8 * np.linalg.norm(ref)

    def test_preconditioner_helps(self, rng):
        d = np.logspace(0, 6, 30)
        A = np.diag(d)
        b = rng.standard_normal(30)

        def op(v):
            return A @ v

        plain = pcg(op, b, tol=1e-12, max_iter=500)
        precond = pcg(op, b, precond=lambda v: v / d, tol=1e-12, max_iter=500)
        assert precond.converged
        assert precond.iters <= plain.iters

    @pytest.mark.parametrize("max_iter", [3, 50])
    def test_identity_preconditioner_matches_none(self, rng, max_iter):
        # a preconditioner returning its own argument aliases the residual,
        # which pcg never updates in place; bit for bit the unpreconditioned
        # run, converged or not, and the right-hand side stays untouched
        M = rng.standard_normal((12, 12))
        A = M @ M.T + 0.1 * np.eye(12)
        b = rng.standard_normal(12)
        b0 = b.copy()
        plain = pcg(lambda v: A @ v, b, tol=1e-13, max_iter=max_iter)
        same = pcg(lambda v: A @ v, b, precond=lambda r: r, tol=1e-13, max_iter=max_iter)
        assert (plain.iters, plain.converged) == (same.iters, same.converged)
        assert plain.converged is (max_iter == 50)
        assert np.array_equal(plain.x, same.x)
        assert np.array_equal(b, b0)

    def test_matrix_shaped_sylvester_system(self, rng):
        # L -> G L + L G is SPD on Sym(p) under the Frobenius inner
        # product; pcg solves it on p x p arrays without flattening
        M = rng.standard_normal((5, 5))
        G = M @ M.T + np.eye(5)
        B = rng.standard_normal((5, 5))
        B = B + B.T
        L, _, converged = pcg(lambda X: G @ X + X @ G, B, tol=1e-12, max_iter=50)
        assert converged and L.shape == (5, 5)
        ref = sym_sylvester_solver(G)(B)
        assert np.linalg.norm(L - ref) <= 1e-10 * np.linalg.norm(ref)

    def test_non_convergence_flag(self, rng):
        d = np.logspace(0, 8, 40)
        A = np.diag(d)
        b = rng.standard_normal(40)
        x, iters, converged = pcg(lambda v: A @ v, b, tol=1e-14, max_iter=3)
        assert not converged and iters == 3
        # best iterate is still an improvement over the zero start
        assert np.linalg.norm(A @ x - b) <= np.linalg.norm(b)


class TestSymSylvester:
    def test_identity_gram(self, rng):
        B = rng.standard_normal((4, 4))
        B = B + B.T
        L = sym_sylvester_solver(np.eye(4))(B)
        assert np.allclose(L, B / 2.0)

    def test_worked_example(self):
        G = np.diag([1.0, 3.0])
        B = np.array([[2.0, 4.0], [4.0, 6.0]])
        L = sym_sylvester_solver(G)(B)
        assert np.allclose(G @ L + L @ G, B)
        assert np.allclose(L, np.ones((2, 2)))

    def test_zero_rhs(self):
        assert np.allclose(sym_sylvester_solver(np.diag([1.0, 2.0]))(np.zeros((2, 2))), 0.0)

    @pytest.mark.parametrize("p", [2, 7, 20])
    def test_residual_random(self, rng, p):
        M = rng.standard_normal((p, p))
        G = M @ M.T + np.eye(p)
        B = rng.standard_normal((p, p))
        B = B + B.T
        L = sym_sylvester_solver(G)(B)
        assert np.allclose(L, L.T)
        assert np.linalg.norm(G @ L + L @ G - B) <= 1e-10 * np.linalg.norm(B)

    def test_ill_conditioned(self):
        with pytest.raises(IllConditioned):
            sym_sylvester_solver(np.diag([1.0, 1e-14]))(np.eye(2))


class TestLinearOperatorContract:
    def test_linearity_and_symmetry_probes(self, rng):
        M = rng.standard_normal((6, 6))
        A = M + M.T

        def op(v):
            return A @ v

        for _ in range(10):
            u, v = rng.standard_normal((2, 6))
            a, b = rng.standard_normal(2)
            lhs = op(a * u + b * v)
            rhs = a * op(u) + b * op(v)
            assert np.linalg.norm(lhs - rhs) <= 1e-12 * max(np.linalg.norm(rhs), 1.0)
            sym_gap = abs(op(u) @ v - u @ op(v))
            assert sym_gap <= 1e-12 * max(abs(op(u) @ v), 1.0)
