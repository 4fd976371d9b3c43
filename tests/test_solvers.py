import numpy as np
import pytest

from gotd import DomainViolation, IllConditioned, NotConverged, RankDeficient, pcg
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

    def test_not_a_matrix(self):
        with pytest.raises(RankDeficient, match="expected a matrix"):
            truncated_svd(np.ones(3), 1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_entry_rejected(self, rng, bad):
        # an inf in the first column can keep LAPACK's SVD from returning,
        # so the entry sits in the last column here
        X = rng.standard_normal((6, 3))
        X[2, -1] = bad
        with pytest.raises(DomainViolation, match="non-finite"):
            truncated_svd(X, 2)


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


def identity(v):
    return v


class TestPcg:
    def test_identity_one_iteration(self, rng):
        b = rng.standard_normal(6)
        x, iters, lifted = pcg(lambda v: v, b, identity, 1e-10, 200, lift=identity)
        assert iters == 1
        assert np.allclose(x, b)
        assert np.array_equal(lifted, x)

    def test_zero_rhs(self):
        x, iters, lifted = pcg(lambda v: v, np.zeros(4), identity, 1e-10, 200, lift=identity)
        assert iters == 0 and np.all(x == 0.0) and np.all(lifted == 0.0)

    def test_matches_spd_solve(self, rng):
        M = rng.standard_normal((8, 8))
        A = M @ M.T + np.eye(8)
        b = rng.standard_normal(8)
        x = pcg(lambda v: A @ v, b, identity, 1e-12, 200, lift=identity).x
        ref = np.linalg.solve(A, b)
        assert np.linalg.norm(x - ref) <= 1e-8 * np.linalg.norm(ref)

    def test_preconditioner_helps(self, rng):
        d = np.logspace(0, 6, 30)
        A = np.diag(d)
        b = rng.standard_normal(30)

        def op(v):
            return A @ v

        plain = pcg(op, b, identity, 1e-12, 500, lift=identity)
        precond = pcg(op, b, lambda v: v / d, 1e-12, 500, lift=identity)
        assert precond.iters <= plain.iters

    def test_operands_untouched(self, rng):
        # an identity preconditioner aliases the residual to the
        # right-hand side, which pcg never updates in place
        M = rng.standard_normal((12, 12))
        A = M @ M.T + 0.1 * np.eye(12)
        b = rng.standard_normal(12)
        b0 = b.copy()
        pcg(lambda v: A @ v, b, identity, 1e-13, 50, lift=identity)
        assert np.array_equal(b, b0)

    def test_matrix_shaped_sylvester_system(self, rng):
        # L -> G L + L G is SPD on Sym(p) under the Frobenius inner
        # product; pcg solves it on p x p arrays without flattening
        M = rng.standard_normal((5, 5))
        G = M @ M.T + np.eye(5)
        B = rng.standard_normal((5, 5))
        B = B + B.T
        L = pcg(lambda X: G @ X + X @ G, B, identity, 1e-12, 50, lift=identity).x
        assert L.shape == (5, 5)
        ref = sym_sylvester_solver(G)(B)
        assert np.linalg.norm(L - ref) <= 1e-10 * np.linalg.norm(ref)

    def test_lift_of_the_solution(self, rng):
        # for A = L^T L given as lift = L and A = L^T, pcg applies L once
        # per iteration and returns L x, lifting x itself only when it
        # took more than one iteration
        L = rng.standard_normal((9, 6))
        b = rng.standard_normal(6)
        calls = []

        def lift(v):
            calls.append(v)
            return L @ v

        res = pcg(lambda y: L.T @ y, b, identity, 1e-13, 50, lift=lift)
        assert len(calls) == res.iters + 1 and res.iters >= 2
        assert np.array_equal(res.lifted, L @ res.x)
        ref = np.linalg.solve(L.T @ L, b)
        assert np.linalg.norm(res.x - ref) <= 1e-10 * np.linalg.norm(ref)
        calls.clear()
        exact = np.linalg.inv(L.T @ L)
        one = pcg(lambda y: L.T @ y, b, lambda r: exact @ r, 1e-13, 50, lift=lift)
        assert one.iters == len(calls) == 1
        assert np.linalg.norm(one.lifted - L @ one.x) <= 1e-14 * np.linalg.norm(L @ one.x)
        zero = pcg(lambda y: L.T @ y, np.zeros(6), identity, 1e-13, 50, lift=lift)
        assert zero.iters == 0 and zero.lifted.shape == (9,) and not zero.lifted.any()

    def test_non_convergence_raises(self, rng):
        # a stall, non-positive or NaN curvature and an empty budget each
        # raise, naming the iterations spent
        d = np.logspace(0, 8, 40)
        b = rng.standard_normal(40)
        with pytest.raises(NotConverged, match="^pcg stalled at 3 iterations$"):
            pcg(lambda v: d * v, b, identity, 1e-14, 3, lift=identity)
        with pytest.raises(NotConverged, match="^pcg stalled at 1 iterations$"):
            pcg(lambda v: -v, b, identity, 1e-10, 200, lift=identity)
        with pytest.raises(NotConverged, match="^pcg stalled at 1 iterations$"):
            pcg(lambda v: np.full_like(v, np.nan), b, identity, 1e-10, 200, lift=identity)
        with pytest.raises(NotConverged, match="^pcg stalled at 0 iterations$"):
            pcg(lambda v: v, b, identity, 1e-10, 0, lift=identity)


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

    def test_shapes_checked(self):
        with pytest.raises(IllConditioned, match="square"):
            sym_sylvester_solver(np.ones((2, 3)))
        solve = sym_sylvester_solver(np.eye(2))
        for B in (np.eye(3), np.ones((2, 3))):
            with pytest.raises(IllConditioned, match="equal size"):
                solve(B)


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
