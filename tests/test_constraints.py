import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from gotd import (
    DegenerateProjection,
    FactoredPoint,
    FixedRankManifold,
    HyperboloidConstraint,
    IllConditioned,
    ObliqueConstraint,
    ShapeMismatch,
    SparsityManifold,
    StiefelConstraint,
)
from gotd import constraints
from oracles import (
    disjoint_support_point,
    fd_dh_check,
    feasible_hyperboloid_lowrank,
    multiplier_basis,
    nonzero_point,
    quartic_hyperboloid_project,
    random_support_point,
    reduced_gram_matrix,
)


def lift_columns(spatial):
    top = np.sqrt(1.0 + np.einsum("ij,ij->j", spatial, spatial))
    return np.vstack([top, spatial])


def assert_nearest_on_sampled_sheet(y, x, rng, trials=1000):
    """No random feasible point near x on the upper sheet is closer to y."""
    d0 = np.linalg.norm(y - x)
    for _ in range(trials):
        z = x[1:] + 0.05 * rng.standard_normal(x.size - 1)
        cand = np.concatenate([[np.sqrt(1.0 + z @ z)], z])
        assert d0 <= np.linalg.norm(y - cand) + 1e-12


ALL_TYPES = ["oblique", "hyperboloid", "stiefel"]


def make_instance(kind, rng):
    if kind == "oblique":
        return ObliqueConstraint(5, 4), rng.standard_normal((5, 4))
    if kind == "hyperboloid":
        return HyperboloidConstraint(4, 6), rng.standard_normal((5, 6))
    return StiefelConstraint(6, 3), rng.standard_normal((6, 3))


def random_multiplier(C, rng):
    """A random multiplier: a vector of R^q, or a symmetric p x p matrix
    for the Stiefel map."""
    if isinstance(C, StiefelConstraint):
        A = rng.standard_normal((C.p, C.p))
        return A + A.T
    return rng.standard_normal(C.q)


class TestValues:
    def test_oblique_example(self):
        C = ObliqueConstraint(2, 2)
        assert np.allclose(C.value(np.array([[2.0, 0.0], [0.0, 1.0]])), [3.0, 0.0])

    def test_hyperboloid_lift_identity(self, rng):
        C = HyperboloidConstraint(4, 6)
        X = lift_columns(rng.standard_normal((4, 6)))
        assert np.abs(C.value(X)).max() <= 1e-12

    def test_stiefel_orthonormal(self, rng):
        C = StiefelConstraint(6, 3)
        Q = np.linalg.qr(rng.standard_normal((6, 3)))[0]
        assert np.abs(C.value(Q)).max() <= 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            ObliqueConstraint(2, 2).value(np.zeros((3, 2)))

    @pytest.mark.parametrize("kind", ALL_TYPES)
    def test_every_map_checks_shapes(self, rng, kind):
        C, X = make_instance(kind, rng)
        wrong = np.zeros((X.shape[0] + 1, X.shape[1]))
        lam = random_multiplier(C, rng)
        for call in (lambda: C.value(wrong), lambda: C.dh(wrong, wrong),
                     lambda: C.dh_adjoint(wrong, lam), lambda: C.gram_solver(wrong),
                     lambda: C.reduced_gram_solver(nonzero_point(wrong)),
                     lambda: C.reduced_gram_solver(wrong),
                     lambda: C.dh(X, X[:, :-1])):
            with pytest.raises(ShapeMismatch):
                call()


class TestDifferentials:
    @pytest.mark.parametrize("kind", ALL_TYPES)
    def test_zero_direction(self, rng, kind):
        C, X = make_instance(kind, rng)
        assert np.allclose(C.dh(X, np.zeros_like(X)), 0.0)

    def test_oblique_single_row(self):
        C = ObliqueConstraint(1, 2)
        out = C.dh(np.array([[2.0, 0.0]]), np.array([[1.0, 1.0]]))
        assert np.allclose(out, [4.0])

    def test_stiefel_skew_directions_are_tangent(self, rng):
        C = StiefelConstraint(6, 3)
        Q = np.linalg.qr(rng.standard_normal((6, 3)))[0]
        S = rng.standard_normal((3, 3))
        S = S - S.T
        assert np.abs(C.dh(Q, Q @ S)).max() <= 1e-12

    @pytest.mark.parametrize("kind", ALL_TYPES)
    def test_finite_differences(self, rng, kind):
        C, X = make_instance(kind, rng)
        fd_dh_check(C, X, rng, trials=10)

    @pytest.mark.parametrize("kind", ALL_TYPES)
    def test_linear_in_direction(self, rng, kind):
        C, X = make_instance(kind, rng)
        Z, W = rng.standard_normal((2,) + X.shape)
        a, b = 1.7, -0.3
        assert np.allclose(C.dh(X, a * Z + b * W), a * C.dh(X, Z) + b * C.dh(X, W))


class TestAdjoints:
    @pytest.mark.parametrize("kind", ALL_TYPES)
    def test_zero_multiplier(self, rng, kind):
        C, X = make_instance(kind, rng)
        assert np.allclose(C.dh_adjoint(X, np.zeros_like(random_multiplier(C, rng))), 0.0)

    def test_hyperboloid_unit_multiplier(self, rng):
        C = HyperboloidConstraint(4, 6)
        X = rng.standard_normal((5, 6))
        j = 2
        out = C.dh_adjoint(X, np.eye(6)[j])
        expected = np.zeros_like(X)
        expected[:, j] = 2.0 * C.j_diag * X[:, j]
        assert np.allclose(out, expected)

    @pytest.mark.parametrize("kind", ALL_TYPES)
    def test_adjoint_identity(self, rng, kind):
        C, X = make_instance(kind, rng)
        for _ in range(10):
            Z = rng.standard_normal(X.shape)
            lam = random_multiplier(C, rng)
            lhs = np.vdot(C.dh(X, Z), lam)
            rhs = np.sum(Z * C.dh_adjoint(X, lam))
            assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs), 1.0)

    def test_stiefel_adjoint_identity_nonsymmetric(self, rng):
        # X (L + L^T) is the adjoint of dh on all p x p matrices L
        C, X = make_instance("stiefel", rng)
        for _ in range(10):
            Z = rng.standard_normal(X.shape)
            lam = rng.standard_normal((C.p, C.p))
            lhs = np.vdot(C.dh(X, Z), lam)
            rhs = np.vdot(Z, C.dh_adjoint(X, lam))
            assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs), 1.0)

    def test_stiefel_multiplier_shape_checked(self, rng):
        # the Stiefel map takes a p x p multiplier, not a q-vector; the
        # oblique and hyperboloid maps take a vector of length q only
        C, X = make_instance("stiefel", rng)
        with pytest.raises(ShapeMismatch, match="multiplier"):
            C.dh_adjoint(X, np.zeros(C.q))
        for kind in ("oblique", "hyperboloid"):
            C, X = make_instance(kind, rng)
            for lam in (np.zeros(C.q + 1), np.zeros((C.q, 1))):
                with pytest.raises(ShapeMismatch, match=f"multiplier of length {C.q}"):
                    C.dh_adjoint(X, lam)


class TestGramSolve:
    def test_oblique_unit_rows(self, rng):
        C = ObliqueConstraint(4, 3)
        X = rng.standard_normal((4, 3))
        X /= np.linalg.norm(X, axis=1, keepdims=True)
        b = rng.standard_normal(4)
        assert np.allclose(C.gram_solve(X, b), b / 4.0)

    def test_hyperboloid_column_norms_two(self, rng):
        C = HyperboloidConstraint(3, 5)
        X = rng.standard_normal((4, 5))
        X = 2.0 * X / np.linalg.norm(X, axis=0, keepdims=True)
        b = rng.standard_normal(5)
        assert np.allclose(C.gram_solve(X, b), b / 16.0)

    def test_stiefel_orthonormal(self, rng):
        C = StiefelConstraint(6, 3)
        Q = np.linalg.qr(rng.standard_normal((6, 3)))[0]
        b = random_multiplier(C, rng)
        assert np.allclose(C.gram_solve(Q, b), b / 4.0)

    @pytest.mark.parametrize("kind", ALL_TYPES)
    def test_gram_residual(self, rng, kind):
        C, X = make_instance(kind, rng)
        b = random_multiplier(C, rng)
        lam = C.gram_solve(X, b)
        residual = C.dh(X, C.dh_adjoint(X, lam)) - b
        assert np.linalg.norm(residual) <= 1e-10 * np.linalg.norm(b)

    @pytest.mark.parametrize("kind", ALL_TYPES)
    @pytest.mark.parametrize("structured", [False, True])
    def test_gram_solver_inverts_dh_dh_adjoint(self, rng, kind, structured):
        # the solver factored once at X inverts Dh Dh* there, call after
        # call, and agrees with the one-shot gram_solve; structured points
        # are full-rank factored points, or a sparse point for Stiefel
        C, X = make_instance(kind, rng)
        if structured and kind == "stiefel":
            X = SparsityManifold(*X.shape, 14).project(X)
        elif structured:
            X = FixedRankManifold(*X.shape, min(X.shape)).project(X)
        solve = C.gram_solver(X)
        for _ in range(5):
            lam = random_multiplier(C, rng)
            out = solve(C.dh(X, C.dh_adjoint(X, lam)))
            assert np.linalg.norm(out - lam) <= 1e-10 * np.linalg.norm(lam)
            b = random_multiplier(C, rng)
            assert np.array_equal(solve(b), C.gram_solve(X, b))

    def test_zero_row_rejected(self):
        C = ObliqueConstraint(2, 2)
        with pytest.raises(IllConditioned):
            C.gram_solve(np.array([[1.0, 0.0], [0.0, 0.0]]), np.ones(2))

    def test_zero_column_rejected(self):
        C = HyperboloidConstraint(1, 2)
        with pytest.raises(IllConditioned):
            C.gram_solve(np.array([[1.0, 0.0], [1.0, 0.0]]), np.ones(2))

    def test_singular_stiefel_gram_rejected(self):
        C = StiefelConstraint(3, 2)
        X = np.array([[1.0, 1.0], [0.0, 0.0], [0.0, 0.0]])
        with pytest.raises(IllConditioned):
            C.gram_solve(X, np.ones((2, 2)))

    def test_stiefel_reduced_gram_solver_off_sparse_points_is_gram_solver(self, rng):
        C, X = make_instance("stiefel", rng)
        b = random_multiplier(C, rng)
        for point in (X, FixedRankManifold(6, 3, 3).project(X)):
            assert np.array_equal(C.reduced_gram_solver(point)(b), C.gram_solver(point)(b))


class TestMaskedGramSolver:
    @staticmethod
    def coordinates(X, b):
        """The masked Stiefel solve of a p x p matrix b at a sparse point X,
        the diagonal of the oracle B of its reduced Gram operator, and the
        coordinates of b and of the solve in B's basis."""
        n, p = X.shape
        C = StiefelConstraint(n, p)
        B = reduced_gram_matrix(SparsityManifold(n, p, X.nnz), C, X)
        basis = multiplier_basis(C, X)
        out = C.reduced_gram_solver(X)(b)
        return out, np.diag(B), [np.vdot(E, b) for E in basis], [np.vdot(E, out) for E in basis]

    @given(
        n=st.integers(1, 8),
        p=st.integers(1, 4),
        density=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n=5, p=1, density=0.6, seed=0)  # q = 1
    def test_stiefel_divides_by_reduced_gram_diagonal(self, n, p, density, seed):
        # the solve is the Jacobi preconditioner of B: each coordinate is
        # divided by B_kk, and set to 0 where B_kk = 0
        rng = np.random.default_rng(seed)
        X = random_support_point(rng, n, p, max(1, round(density * n * p)))
        b = rng.standard_normal((p, p))
        out, diag, coords_b, coords_out = self.coordinates(X, b + b.T)
        assert np.array_equal(out, out.T)
        for d, y, z in zip(diag, coords_b, coords_out):
            if d == 0.0:
                assert z == 0.0
            else:
                assert abs(z - y / d) <= 1e-12 * abs(y / d)

    def test_stiefel_disjoint_supports_give_exact_zeros(self, rng):
        # columns 0 and 1 have disjoint supports, so B_kk = 0 for their
        # off-diagonal multiplier, the projector's right-hand sides are
        # exact zeros there, and so is the solve
        X = disjoint_support_point(rng)
        b = rng.standard_normal((3, 3))
        out, diag, _, _ = self.coordinates(X, b + b.T)
        assert [k for k, d in enumerate(diag) if d == 0.0] == [1]
        assert out[0, 1] == out[1, 0] == 0.0
        man, C = SparsityManifold(6, 3, X.nnz), StiefelConstraint(6, 3)
        rhs = C.dh(X, man.tangent_project(X, rng.standard_normal((6, 3))))
        assert rhs[0, 1] == rhs[1, 0] == 0.0

    @pytest.mark.parametrize("kind", ["oblique", "hyperboloid"])
    @given(density=st.floats(0.2, 1.0), seed=st.integers(0, 2**32 - 1))
    def test_diagonal_maps_ignore_the_mask(self, kind, density, seed):
        # Dh* lam rescales rows or columns, so it keeps the support of X
        rng = np.random.default_rng(seed)
        C, X = make_instance(kind, rng)
        X = np.where(rng.random(X.shape) < density, X, 0.0)
        X[:, 0] = X[0] = 1.0  # no zero row or column
        b = random_multiplier(C, rng)
        masked = C.reduced_gram_solver(nonzero_point(X))(b)
        assert np.array_equal(masked, C.gram_solver(X)(b))

    def test_stiefel_zero_point_rejected(self):
        C = StiefelConstraint(4, 2)
        with pytest.raises(IllConditioned, match="trace 0.0"):
            C.reduced_gram_solver(nonzero_point(np.zeros((4, 2))))


def with_top_row(rng, rows, top) -> np.ndarray:
    """rows x k, orthonormal columns, first row ``top`` (||top|| <= 1):
    [top^T; Q R] with R^T R = I - top top^T and Q random orthonormal."""
    d, W = np.linalg.eigh(np.eye(top.size) - np.outer(top, top))
    R = np.sqrt(np.maximum(d, 0.0))[:, None] * W.T
    return np.vstack([top, np.linalg.qr(rng.standard_normal((rows - 1, top.size)))[0] @ R])


def point_with_top_row(rng, n, m, w, sigma, v0=None) -> FactoredPoint:
    """A rank-s point of (n+1) x m whose U has first row w, and whose V
    has first row v0 when one is given."""
    V = np.linalg.qr(rng.standard_normal((m, w.size)))[0] if v0 is None else with_top_row(rng, m, v0)
    return FactoredPoint(with_top_row(rng, n + 1, w), sigma, V)


class TestHyperboloidReducedGramSolver:
    @staticmethod
    def matrices(X):
        """The solver at X and the oracle B, both as m x m matrices."""
        n, m = X.u.shape[0] - 1, X.v.shape[0]
        C = HyperboloidConstraint(n, m)
        B = reduced_gram_matrix(FixedRankManifold(n + 1, m, X.rank), C, X)
        solve = C.reduced_gram_solver(X)
        return np.column_stack([solve(e) for e in np.eye(m)]), B, C

    @given(
        s=st.integers(1, 4),
        extra=st.tuples(st.integers(0, 3), st.integers(1, 5)),
        w_sq=st.floats(0.0, 1.0),
        log_scale=st.floats(-3.0, 3.0),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(s=3, extra=(2, 4), w_sq=1.0, log_scale=0.0, seed=0)  # c = 0
    @example(s=3, extra=(2, 4), w_sq=0.0, log_scale=2.0, seed=1)  # c = 4
    def test_inverts_the_oracle_reduced_gram(self, s, extra, w_sq, log_scale, seed):
        # d_j / ||Sigma v_j||^2 >= (1 - 2 ||w||^2)^2, so away from
        # ||w||^2 = 1/2 the Woodbury form is used and is exact to rounding
        assume(abs(1.0 - 2.0 * w_sq) >= 0.1)
        rng = np.random.default_rng(seed)
        w = rng.standard_normal(s)
        w *= np.sqrt(w_sq) / np.linalg.norm(w)
        sigma = np.sort(rng.uniform(0.5, 2.0, s))[::-1] * 10.0**log_scale
        X = point_with_top_row(rng, s + extra[0], s + extra[1], w, sigma)
        P, B, _ = self.matrices(X)
        assert np.abs(P @ B - np.eye(B.shape[0])).max() <= 1e-10

    def test_unit_top_row_is_the_diagonal(self, rng):
        # ||w|| = 1 puts e_0 in the column space of U, so c = 0: P_T keeps
        # Dh* lam, and B = Dh Dh* is the diagonal gram_solver inverts
        w = np.array([0.6, 0.0, 0.8])
        X = point_with_top_row(rng, 4, 7, w, np.array([3.0, 2.0, 0.5]))
        P, B, C = self.matrices(X)
        gram = np.column_stack([C.gram_solver(X)(e) for e in np.eye(7)])
        assert np.abs(P - gram).max() <= 1e-12 * np.abs(gram).max()
        assert np.abs(P @ B - np.eye(7)).max() <= 1e-10

    @pytest.mark.parametrize("tilt", [0.0, 1e-6])
    def test_vanishing_diagonal_falls_back_to_gram_solver(self, rng, tilt):
        # at ||w||^2 = 1/2, d_j = 0 where Sigma v_j is parallel to w:
        # on every column at rank 1, and on a row of V turned (to within
        # tilt) toward Sigma^-1 w at rank 3; the solver is gram_solver's
        X = point_with_top_row(rng, 3, 5, np.array([np.sqrt(0.5)]), np.array([2.0]))
        sigma = np.array([3.0, 2.0, 0.5])
        w = np.array([0.5, 0.4, np.sqrt(0.5 - 0.41)])
        v0 = (1.0 - tilt) * w / sigma + tilt * np.linalg.norm(w / sigma) * rng.standard_normal(3)
        Y = point_with_top_row(rng, 5, 8, w, sigma, 0.5 * v0 / np.linalg.norm(v0))
        for P in (X, Y):
            C = HyperboloidConstraint(P.u.shape[0] - 1, P.v.shape[0])
            b = rng.standard_normal(P.v.shape[0])
            assert np.array_equal(C.reduced_gram_solver(P)(b), C.gram_solver(P)(b))

    def test_dense_point_and_mask_use_gram_solver(self, rng):
        X = feasible_hyperboloid_lowrank(rng, 4, 6, 3)
        C = HyperboloidConstraint(4, 6)
        b = rng.standard_normal(6)
        dense = X.dense()
        sparse = nonzero_point(dense)
        assert np.array_equal(C.reduced_gram_solver(dense)(b), C.gram_solver(dense)(b))
        assert np.array_equal(C.reduced_gram_solver(sparse)(b), C.gram_solver(sparse)(b))


class TestProjections:
    def test_oblique_row_normalization(self):
        C = ObliqueConstraint(1, 2)
        assert np.allclose(C.project(np.array([[3.0, 4.0]])), [[0.6, 0.8]])

    @pytest.mark.parametrize("kind", ALL_TYPES)
    def test_fixed_point_and_idempotent(self, rng, kind):
        C, X = make_instance(kind, rng)
        P1 = C.project(X)
        assert np.linalg.norm(C.value(P1)) <= 1e-10
        P2 = C.project(P1)
        assert np.linalg.norm(P1 - P2) <= 1e-10 * max(1.0, np.linalg.norm(P1))

    @pytest.mark.parametrize("kind", ALL_TYPES)
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    # an inf in the first column can keep LAPACK's SVD from returning, so
    # the entries sit in the last column
    @pytest.mark.parametrize("entry", [(0, -1), (-1, -1)])
    def test_non_finite_input_rejected(self, rng, kind, bad, entry):
        C, Y = make_instance(kind, rng)
        Y[entry] = bad
        with pytest.raises(DegenerateProjection, match="non-finite"):
            C.project(Y)

    def test_oblique_zero_row_degenerate(self):
        C = ObliqueConstraint(2, 2)
        with pytest.raises(DegenerateProjection):
            C.project(np.array([[1.0, 0.0], [0.0, 0.0]]))

    def test_stiefel_polar(self, rng):
        C = StiefelConstraint(5, 3)
        Y = rng.standard_normal((5, 3))
        P = C.project(Y)
        assert np.allclose(P.T @ P, np.eye(3), atol=1e-12)
        # polar factor via symmetric square root oracle
        G = Y.T @ Y
        d, Q = np.linalg.eigh(G)
        inv_sqrt = Q @ np.diag(1.0 / np.sqrt(d)) @ Q.T
        assert np.allclose(P, Y @ inv_sqrt, atol=1e-10)

    def test_stiefel_rank_deficient(self):
        C = StiefelConstraint(3, 2)
        with pytest.raises(DegenerateProjection):
            C.project(np.array([[1.0, 1.0], [1.0, 1.0], [0.0, 0.0]]))

    def test_hyperboloid_on_sheet(self, rng):
        C = HyperboloidConstraint(3, 4)
        Y = rng.standard_normal((4, 4))
        Y[0] = np.abs(Y[0]) + 0.1
        P = C.project(Y)
        assert np.abs(C.value(P)).max() <= 1e-10
        assert np.all(P[0] > 0)

    def test_hyperboloid_secular_budget_exhausted(self, rng, monkeypatch):
        monkeypatch.setattr(constraints, "SECULAR_MAX_ITER", 1)
        C = HyperboloidConstraint(3, 4)
        Y = rng.standard_normal((4, 4))
        Y[0] = np.abs(Y[0]) + 0.1
        with pytest.raises(DegenerateProjection, match="secular iteration did not converge"):
            C.project(Y)

    def test_hyperboloid_local_optimality_sampling(self, rng):
        C = HyperboloidConstraint(3, 1)
        y = rng.standard_normal(4)
        y[0] = abs(y[0]) + 0.2
        x = C.project(y.reshape(-1, 1))[:, 0]
        assert_nearest_on_sampled_sheet(y, x, rng)

    @pytest.mark.parametrize("scale", [30.0, 100.0])
    def test_hyperboloid_large_columns(self, rng, scale):
        # phi's rounding floor, about eps ||y||^2, lies above SECULAR_TOL
        # here, so most columns end on a bracket closed to rounding
        C = HyperboloidConstraint(10, 300)
        Y = scale * rng.standard_normal((11, 300))
        Y[0] = np.abs(Y[0]) + 0.5
        X = C.project(Y)
        assert np.all(np.abs(C.value(X)) <= 1e-9 * np.einsum("ij,ij->j", X, X))
        assert np.all(X[0] > 0)
        for j in range(0, 300, 60):
            assert_nearest_on_sampled_sheet(Y[:, j], X[:, j], rng)

    @pytest.mark.parametrize("y0", [1e-6, 1e-10])
    def test_hyperboloid_tiny_first_coordinate(self, rng, y0):
        # the root sits about |y_0| / ||y|| below mu = 1, where 1 - mu keeps
        # too few digits for y_0 / (1 - mu); the sheet equation gives x_0
        C = HyperboloidConstraint(3, 20)
        Y = rng.standard_normal((4, 20))
        Y[0] = y0 * np.sign(Y[0])
        X = C.project(Y)
        assert np.abs(C.value(X)).max() <= 1e-14
        assert np.all(X[0] > 0)
        for j in range(0, 20, 5):
            assert_nearest_on_sampled_sheet(Y[:, j], X[:, j], rng)

    @given(
        n=st.integers(1, 40),
        log_scale=st.floats(-2.0, 2.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_hyperboloid_matches_quartic_reference(self, n, log_scale, seed):
        rng = np.random.default_rng(seed)
        scale = 10.0**log_scale
        Y = scale * rng.standard_normal((n + 1, 8))
        Y[0] = np.sign(Y[0]) * (np.abs(Y[0]) + 0.5 * scale)
        X = HyperboloidConstraint(n, 8).project(Y)
        R = quartic_hyperboloid_project(Y)
        assert np.all(
            np.linalg.norm(X - R, axis=0) <= 1e-9 * np.linalg.norm(R, axis=0)
        )

    def test_hyperboloid_negative_first_coordinate(self, rng):
        C = HyperboloidConstraint(2, 1)
        y = np.array([[-1.3], [0.4], [0.2]])
        x = C.project(y)
        assert x[0, 0] > 0
        assert np.abs(C.value(x)).max() <= 1e-10

    def test_hyperboloid_degenerate_zero_first_coord(self):
        C = HyperboloidConstraint(2, 1)
        with pytest.raises(DegenerateProjection):
            C.project(np.array([[0.0], [1.0], [1.0]]))

    def test_hyperboloid_degenerate_far_axis_point(self):
        C = HyperboloidConstraint(2, 1)
        with pytest.raises(DegenerateProjection):
            C.project(np.array([[3.0], [0.0], [0.0]]))

    def test_hyperboloid_axis_point_below_two(self):
        C = HyperboloidConstraint(2, 1)
        x = C.project(np.array([[1.5], [0.0], [0.0]]))
        # the apex is the unique nearest point for on-axis inputs below 2
        assert np.allclose(x[:, 0], [1.0, 0.0, 0.0], atol=1e-9)
