import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from gotd import (
    DegenerateStep,
    FactoredPoint,
    FixedRankManifold,
    NotTangent,
    RankDeficient,
    ShapeMismatch,
    SparsityManifold,
    SupportPoint,
)
from oracles import (
    hard_threshold,
    loglog_slope,
    nonzero_point,
    project_onto_basis,
    random_factored,
    random_support_point,
    tangent_basis_fixed_rank,
    tangent_basis_sparsity,
)


class TestFactoredPoint:
    def test_invariants_enforced(self, rng):
        U = np.linalg.qr(rng.standard_normal((5, 2)))[0]
        V = np.linalg.qr(rng.standard_normal((4, 2)))[0]
        with pytest.raises(ShapeMismatch):
            FactoredPoint(U * 2.0, np.array([2.0, 1.0]), V)
        with pytest.raises(RankDeficient):
            FactoredPoint(U, np.array([1.0, 2.0]), V)  # increasing
        with pytest.raises(RankDeficient):
            FactoredPoint(U, np.array([1.0, 0.0]), V)  # zero singular value
        # a NaN compares False both ways, so each check must fail on it
        with pytest.raises(ShapeMismatch):
            FactoredPoint(np.full_like(U, np.nan), np.array([2.0, 1.0]), V)
        with pytest.raises(ShapeMismatch):
            FactoredPoint(U, np.array([2.0, 1.0]), np.full_like(V, np.nan))
        for sigma in ([np.nan, 1.0], [2.0, np.nan], [np.inf, 1.0], [np.inf, np.inf]):
            with pytest.raises(RankDeficient):
                FactoredPoint(U, np.array(sigma), V)
        with pytest.raises(ShapeMismatch, match="expected u"):
            FactoredPoint(U[:, 0], np.array([1.0]), V[:, :1])  # u not a matrix
        with pytest.raises(ShapeMismatch, match="widths"):
            FactoredPoint(U, np.array([2.0, 1.0]), V[:, :1])
        with pytest.raises(RankDeficient, match="rank at least 1"):
            FactoredPoint(np.zeros((3, 0)), np.zeros(0), np.zeros((4, 0)))

    def test_dense(self, rng):
        X = random_factored(rng, 5, 4, 2)
        recon = X.u @ np.diag(X.sigma) @ X.v.T
        assert np.allclose(X.dense(), recon)


class TestFixedRankTangentProject:
    def test_point_is_tangent_at_itself(self, rng):
        man = FixedRankManifold(5, 4, 2)
        X = random_factored(rng, 5, 4, 2)
        Z = X.dense()
        assert np.allclose(man.tangent_project(X, Z), Z, atol=1e-12)

    def test_normal_space_input_maps_to_zero(self, rng):
        man = FixedRankManifold(6, 5, 2)
        X = random_factored(rng, 6, 5, 2)
        W = rng.standard_normal((6, 5))
        PU = X.u @ X.u.T
        PV = X.v @ X.v.T
        Z = (np.eye(6) - PU) @ W @ (np.eye(5) - PV)
        assert np.allclose(man.tangent_project(X, Z), 0.0, atol=1e-12)

    def test_matches_basis_oracle(self, rng):
        man = FixedRankManifold(5, 4, 2)
        X = random_factored(rng, 5, 4, 2)
        Z = rng.standard_normal((5, 4))
        expected = project_onto_basis(tangent_basis_fixed_rank(X), Z)
        assert np.allclose(man.tangent_project(X, Z), expected, atol=1e-10)

    def test_idempotent_and_self_adjoint(self, rng):
        man = FixedRankManifold(7, 6, 3)
        X = random_factored(rng, 7, 6, 3)
        for _ in range(5):
            Z = rng.standard_normal((7, 6))
            W = rng.standard_normal((7, 6))
            PZ = man.tangent_project(X, Z)
            assert np.allclose(man.tangent_project(X, PZ), PZ, atol=1e-12)
            gap = abs(np.sum(PZ * W) - np.sum(Z * man.tangent_project(X, W)))
            assert gap <= 1e-12 * max(1.0, np.linalg.norm(Z) * np.linalg.norm(W))

    def test_output_kills_normal_component(self, rng):
        man = FixedRankManifold(6, 5, 2)
        X = random_factored(rng, 6, 5, 2)
        out = man.tangent_project(X, rng.standard_normal((6, 5)))
        residual = (np.eye(6) - X.u @ X.u.T) @ out @ (np.eye(5) - X.v @ X.v.T)
        assert np.abs(residual).max() <= 1e-12

    def test_shape_mismatch(self, rng):
        man = FixedRankManifold(5, 4, 2)
        X = random_factored(rng, 5, 4, 2)
        with pytest.raises(ShapeMismatch):
            man.tangent_project(X, np.zeros((4, 5)))

    @pytest.mark.parametrize("r", [0, 5])
    def test_rank_out_of_range(self, r):
        with pytest.raises(ShapeMismatch, match=f"rank {r} out of range"):
            FixedRankManifold(5, 4, r)

    def test_point_of_another_manifold_rejected(self, rng):
        man = FixedRankManifold(5, 4, 2)
        for X in (random_factored(rng, 5, 4, 3), random_factored(rng, 4, 5, 2)):
            with pytest.raises(ShapeMismatch, match="does not belong"):
                man.tangent_project(X, np.zeros((5, 4)))


class TestFixedRankRetract:
    def test_zero_step(self, rng):
        man = FixedRankManifold(5, 4, 2)
        X = random_factored(rng, 5, 4, 2)
        Y = man.retract(X, np.zeros((5, 4)))
        assert np.allclose(Y.dense(), X.dense(), atol=1e-12)

    def test_diagonal_step(self):
        man = FixedRankManifold(2, 2, 2)
        X = FactoredPoint(np.eye(2), np.array([3.0, 2.0]), np.eye(2))
        Y = man.retract(X, np.diag([1.0, 0.0]))
        assert np.allclose(Y.dense(), np.diag([4.0, 2.0]), atol=1e-12)

    def test_matches_dense_truncated_svd(self, rng):
        # the 2r x 2r core path must agree with the dense definition
        man = FixedRankManifold(8, 7, 3)
        X = random_factored(rng, 8, 7, 3)
        eta = man.tangent_project(X, rng.standard_normal((8, 7)))
        Y = man.retract(X, eta)
        ref = man.project(X.dense() + eta)
        assert np.allclose(Y.dense(), ref.dense(), atol=1e-10)
        assert np.allclose(Y.sigma, ref.sigma, atol=1e-10)

    def test_first_order_slope(self, rng):
        man = FixedRankManifold(8, 7, 3)
        X = random_factored(rng, 8, 7, 3)
        eta = man.tangent_project(X, rng.standard_normal((8, 7)))
        ts = [1e-2, 1e-3, 1e-4]
        errs = [
            np.linalg.norm(man.retract(X, t * eta).dense() - (X.dense() + t * eta))
            for t in ts
        ]
        assert loglog_slope(ts, errs) >= 1.9

    def test_rejects_non_tangent(self, rng):
        man = FixedRankManifold(6, 5, 2)
        X = random_factored(rng, 6, 5, 2)
        W = rng.standard_normal((6, 5))
        normal = W - man.tangent_project(X, W)
        with pytest.raises(ValueError):
            man.retract(X, normal)

    def test_rank_collapse(self):
        man = FixedRankManifold(2, 2, 2)
        X = FactoredPoint(np.eye(2), np.array([2.0, 1.0]), np.eye(2))
        with pytest.raises(RankDeficient):
            man.retract(X, np.diag([0.0, -1.0]))


class TestFixedRankProject:
    def test_examples(self, rng):
        man = FixedRankManifold(3, 3, 2)
        P = man.project(np.diag([3.0, 2.0, 1.0]))
        assert np.allclose(P.dense(), np.diag([3.0, 2.0, 0.0]), atol=1e-12)
        full = FixedRankManifold(3, 3, 3).project(np.eye(3))
        assert np.allclose(full.dense(), np.eye(3), atol=1e-12)

    def test_ambient_shape_checked(self):
        with pytest.raises(ShapeMismatch, match="expected ambient shape"):
            FixedRankManifold(6, 5, 2).project(np.ones((5, 6)))

    def test_idempotent(self, rng):
        man = FixedRankManifold(6, 5, 2)
        Y = rng.standard_normal((6, 5))
        P1 = man.project(Y)
        P2 = man.project(P1.dense())
        assert np.allclose(P1.dense(), P2.dense(), atol=1e-12)

    def test_eckart_young(self, rng):
        man = FixedRankManifold(6, 5, 2)
        Y = rng.standard_normal((6, 5))
        best = np.linalg.norm(Y - man.project(Y).dense())
        for _ in range(200):
            C = rng.standard_normal((6, 2)) @ rng.standard_normal((2, 5))
            assert best <= np.linalg.norm(Y - C) + 1e-12


class TestSupportPoint:
    def test_values_not_a_matrix(self):
        with pytest.raises(ShapeMismatch, match="matrix"):
            nonzero_point(np.array([1.0, 0.0]))

    def test_given_support_is_kept(self):
        support = np.array([[True, True], [False, True]])
        X = SupportPoint(np.array([[1.0, 0.0], [0.0, -2.0]]), support)
        assert X.support is support and X.nnz == 3
        assert np.array_equal(X.mask, [[1.0, 1.0], [0.0, 1.0]])

    @pytest.mark.parametrize("shape", [(2,), (1, 2), (2, 1), (2, 2, 1)])
    def test_support_shape_checked(self, shape):
        with pytest.raises(ShapeMismatch, match="support"):
            SupportPoint(np.ones((2, 2)), np.ones(shape, dtype=bool))

    def test_mask_is_read_only_support(self, rng):
        X = random_support_point(rng, 5, 4, 6)
        assert np.array_equal(X.mask, X.support.astype(float))
        assert X.mask is X.mask
        with pytest.raises(ValueError):
            X.mask[0, 0] = 2.0


class TestSparsity:
    @pytest.mark.parametrize("s", [0, 7])
    def test_cardinality_out_of_range(self, s):
        with pytest.raises(ShapeMismatch, match=f"cardinality {s} out of range"):
            SparsityManifold(2, 3, s)

    def test_point_of_another_manifold_rejected(self, rng):
        man = SparsityManifold(3, 4, 5)
        for X in (random_support_point(rng, 3, 4, 4), random_support_point(rng, 4, 3, 5)):
            with pytest.raises(ShapeMismatch, match="does not belong"):
                man.tangent_project(X, np.zeros((3, 4)))

    def test_ambient_shapes_checked(self, rng):
        man = SparsityManifold(3, 4, 5)
        X = random_support_point(rng, 3, 4, 5)
        for call in (lambda: man.tangent_project(X, np.zeros((4, 3))),
                     lambda: man.retract(X, np.zeros((3, 5))),
                     lambda: man.project(np.ones((4, 3)))):
            with pytest.raises(ShapeMismatch, match="expected ambient shape"):
                call()

    @given(st.data())
    def test_tangent_project_matches_where(self, data):
        m, n = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 6))
        support = np.array(
            data.draw(st.lists(st.booleans(), min_size=m * n, max_size=m * n))
        ).reshape(m, n)
        assume(support.any())
        X = nonzero_point(np.where(support, 1.5, 0.0))
        Z = data.draw(arrays(float, (m, n), elements=st.floats(allow_nan=False, allow_infinity=False)))
        man = SparsityManifold(m, n, int(support.sum()))
        out = man.tangent_project(X, Z)
        assert np.array_equal(out, np.where(support, Z, 0.0))
        # the mask that the projection multiplies by is the point's mask
        assert np.array_equal(X.mask, support.astype(float))
        assert X.nnz == support.sum() and type(X.nnz) is int

    def test_tangent_project_masks(self, rng):
        man = SparsityManifold(3, 1, 1)
        X = nonzero_point(np.array([[3.0], [0.0], [0.0]]))
        Z = np.array([[1.0], [2.0], [3.0]])
        assert np.allclose(man.tangent_project(X, Z), [[1.0], [0.0], [0.0]])

    def test_tangent_project_inside_outside(self, rng):
        man = SparsityManifold(5, 4, 6)
        X = random_support_point(rng, 5, 4, 6)
        inside = np.where(X.support, rng.standard_normal((5, 4)), 0.0)
        assert np.allclose(man.tangent_project(X, inside), inside)
        outside = np.where(X.support, 0.0, rng.standard_normal((5, 4)))
        assert np.allclose(man.tangent_project(X, outside), 0.0)

    def test_projector_idempotent_self_adjoint(self, rng):
        man = SparsityManifold(6, 5, 8)
        X = random_support_point(rng, 6, 5, 8)
        Z = rng.standard_normal((6, 5))
        W = rng.standard_normal((6, 5))
        PZ = man.tangent_project(X, Z)
        assert np.allclose(man.tangent_project(X, PZ), PZ)
        assert abs(np.sum(PZ * W) - np.sum(Z * man.tangent_project(X, W))) <= 1e-12 * 30

    def test_retract_examples(self, rng):
        man = SparsityManifold(1, 3, 1)
        X = nonzero_point(np.array([[3.0, 0.0, 0.0]]))
        Y = man.retract(X, np.zeros((1, 3)))
        assert np.allclose(Y.values, X.values)
        Y = man.retract(X, np.array([[1.0, 0.0, 0.0]]))
        assert np.allclose(Y.values, [[4.0, 0.0, 0.0]])

    def test_retract_top_magnitude(self):
        # the retraction keeps the support and selects nothing, so a step
        # that is nonzero off the support is refused, as on fixed rank
        man = SparsityManifold(1, 3, 2)
        X = nonzero_point(np.array([[1.0, -2.0, 0.0]]))
        eta = np.array([[0.0, 0.0, 0.5]])
        with pytest.raises(NotTangent, match="off the support"):
            man.retract(X, eta)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_retract_rejects_non_finite_step(self, bad):
        man = SparsityManifold(1, 3, 2)
        X = nonzero_point(np.array([[1.0, -2.0, 0.0]]))
        for k in range(3):
            eta = np.zeros((1, 3))
            eta[0, k] = bad
            with pytest.raises(NotTangent, match="not finite"):
                man.retract(X, eta)

    @given(st.data())
    def test_retract_keeps_support_under_any_tangent_step(self, data):
        # the step may cancel support entries exactly; each stays in the
        # support at 0.0 with its tangent coordinate, and P_T at the
        # result is still an orthogonal projector
        m, n = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 6))
        support = np.array(
            data.draw(st.lists(st.booleans(), min_size=m * n, max_size=m * n))
        ).reshape(m, n)
        assume(support.any())
        s = int(support.sum())
        values = data.draw(arrays(float, (m, n), elements=st.floats(-1e3, 1e3).filter(bool)))
        X = nonzero_point(np.where(support, values, 0.0))
        Z = data.draw(arrays(float, (m, n), elements=st.floats(-1e3, 1e3)))
        cancel = data.draw(st.lists(st.sampled_from(np.flatnonzero(support).tolist())))
        Z.flat[cancel] = -X.values.flat[cancel]
        man = SparsityManifold(m, n, s)
        eta = man.tangent_project(X, Z)
        Y = man.retract(X, eta)
        assert Y.support is X.support and Y.nnz == s
        expected = X.values + eta
        assert np.array_equal(Y.values, expected)
        assert np.array_equal(np.signbit(Y.values), np.signbit(expected))
        assert not np.signbit(Y.values[~support]).any()
        assert (Y.values.flat[cancel] == 0.0).all()
        W = data.draw(arrays(float, (m, n), elements=st.floats(-1e3, 1e3)))
        PW = man.tangent_project(Y, W)
        assert np.array_equal(PW.flat[cancel], W.flat[cancel])
        assert np.array_equal(man.tangent_project(Y, PW), PW)
        assert np.sum(PW * Z) == np.sum(W * man.tangent_project(Y, Z))

    def test_tie_breaks_to_smaller_index(self):
        man = SparsityManifold(1, 3, 1)
        Y = man.project(np.array([[1.0, 1.0, 0.0]]))
        assert np.allclose(Y.values, [[1.0, 0.0, 0.0]])

    @given(st.data())
    def test_project_matches_stable_sort_selection(self, data):
        # a tangent step X + mask * Z has at most s nonzeros, -0.0 off the
        # support where both summands are -0.0, and fewer than s when a
        # support entry cancels; small magnitudes of both signs make ties
        # the rule and, with s drawn from 1..m n, leave more, as many or
        # fewer nonzeros than s.  Both sides agree bit for bit, sign of
        # zero included, or both raise.
        m, n = data.draw(st.integers(1, 7)), data.draw(st.integers(1, 7))
        if data.draw(st.booleans()):
            support = np.array(
                data.draw(st.lists(st.booleans(), min_size=m * n, max_size=m * n))
            ).reshape(m, n)
            assume(support.any())
            s = int(support.sum())
            on = data.draw(arrays(float, (m, n), elements=st.floats(-1e3, 1e3).filter(bool)))
            off = data.draw(arrays(float, (m, n), elements=st.sampled_from([0.0, -0.0])))
            X = np.where(support, on, off)
            Z = data.draw(arrays(float, (m, n), elements=st.floats(-1e3, 1e3)))
            if data.draw(st.booleans()):
                cancel = data.draw(st.sampled_from(np.flatnonzero(support).tolist()))
                Z.flat[cancel] = -X.flat[cancel]
            Y = X + support * Z
        else:
            values = [-2.0, -1.0, -0.0, 0.0, 1.0, 2.0, np.inf, -np.inf, np.nan]
            Y = data.draw(arrays(float, (m, n), elements=st.sampled_from(values)))
            s = data.draw(st.integers(1, m * n))
        man = SparsityManifold(m, n, s)
        try:
            expected = hard_threshold(Y, s).values
        except DegenerateStep:
            with pytest.raises(DegenerateStep):
                man.project(Y)
            return
        out = man.project(Y).values
        assert np.array_equal(out, expected)
        assert np.array_equal(np.signbit(out), np.signbit(expected))

    def test_project_rejects_nan(self):
        with pytest.raises(DegenerateStep):
            SparsityManifold(1, 3, 1).project(np.array([[np.nan, 1.0, 0.0]]))

    def test_project_examples(self):
        man = SparsityManifold(1, 3, 2)
        Y = man.project(np.array([[1.0, -2.0, 0.5]]))
        assert np.allclose(Y.values, [[1.0, -2.0, 0.0]])
        again = man.project(Y.values)
        assert np.allclose(again.values, Y.values)

    def test_degenerate_step(self):
        # a tangent step that cancels the support leaves a point of the
        # manifold with 0.0 values, not a DegenerateStep
        man = SparsityManifold(1, 3, 2)
        X = nonzero_point(np.array([[1.0, -2.0, 0.0]]))
        Y = man.retract(X, np.array([[-1.0, 2.0, 0.0]]))
        assert Y.support is X.support and Y.nnz == 2
        assert np.array_equal(Y.values, np.zeros((1, 3)))
        assert not np.signbit(Y.values).any()

    def test_sparsity_retraction_is_exactly_first_order(self, rng):
        # tangent steps never change the support for small t, so the
        # retraction gap is identically zero
        man = SparsityManifold(6, 5, 8)
        X = random_support_point(rng, 6, 5, 8)
        eta = man.tangent_project(X, rng.standard_normal((6, 5)))
        for t in [1e-2, 1e-3, 1e-4]:
            Y = man.retract(X, t * eta)
            assert np.linalg.norm(Y.values - (X.values + t * eta)) <= 1e-14

    def test_basis_oracle(self, rng):
        man = SparsityManifold(5, 4, 7)
        X = random_support_point(rng, 5, 4, 7)
        Z = rng.standard_normal((5, 4))
        expected = project_onto_basis(tangent_basis_sparsity(X), Z)
        assert np.allclose(man.tangent_project(X, Z), expected)
