import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gotd import (
    DegenerateProjection,
    FixedRankManifold,
    HyperboloidConstraint,
    IllConditioned,
    ObliqueConstraint,
    ShapeMismatch,
    SparsityManifold,
    StiefelConstraint,
)
from oracles import fd_dh_check, quartic_hyperboloid_project


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
        C, X = make_instance("stiefel", rng)
        with pytest.raises(ShapeMismatch):
            C.dh_adjoint(X, np.zeros(C.q))


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
