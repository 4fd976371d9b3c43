import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gotd import (
    DomainViolation,
    FixedRankManifold,
    GotdConfig,
    HyperbolicFitProblem,
    InfeasibleSampling,
    RunStatus,
    ShapeMismatch,
    gen_hyperbolic_data,
    gen_modes_problem,
    gen_sphere_data,
    gotd_run,
    hyperbolic_grad,
    hyperbolic_objective,
    init_hyperbolic,
    init_modes,
    init_sphere,
    make_hyperbolic_problem,
    modes_grad,
    modes_objective,
    sparsity_ratio,
    sphere_grad,
    sphere_objective,
    sphere_test_error,
)
from gotd.manifolds import product_entries
from oracles import dense_sphere_data, fd_gradient_check


class TestSphereData:
    def test_rows_unit_norm(self):
        data = gen_sphere_data(40, 30, 3, 2.0, 0)
        norms = np.linalg.norm(data.target, axis=1)
        assert np.abs(norms - 1.0).max() <= 1e-12

    def test_sample_count_formula(self):
        # arithmetic of the oversampling count
        assert round(6 * 5 * (100 + 120 - 5)) == 6450
        data = gen_sphere_data(200, 240, 5, 6, 0)
        assert len(data.omega[0]) == 6 * 5 * (200 + 240 - 5)
        assert len(data.gamma[0]) == len(data.omega[0])

    def test_disjoint_train_test(self):
        data = gen_sphere_data(30, 25, 2, 2.0, 1)
        om = set(zip(*(a.tolist() for a in data.omega)))
        ga = set(zip(*(a.tolist() for a in data.gamma)))
        assert not om & ga

    def test_deterministic(self):
        a = gen_sphere_data(30, 25, 2, 2.0, 5)
        b = gen_sphere_data(30, 25, 2, 2.0, 5)
        assert np.array_equal(a.target, b.target)
        assert all(np.array_equal(x, y) for x, y in zip(a.omega, b.omega))

    def test_infeasible_sampling(self):
        with pytest.raises(InfeasibleSampling):
            gen_sphere_data(10, 10, 3, 4.0, 0)

    def test_empty_sample_is_infeasible(self):
        # round(0.01 * 1 * (5 + 4 - 1)) = 0 entries: no objective, no test error
        with pytest.raises(InfeasibleSampling, match="empty sample"):
            gen_sphere_data(5, 4, 1, 0.01, 0)

    @pytest.mark.parametrize("m, n, r", [(5, 100, 6), (100, 5, 6), (5, 100, 0)])
    def test_rank_out_of_range(self, m, n, r):
        with pytest.raises(ShapeMismatch, match=f"rank r={r}"):
            gen_sphere_data(m, n, r, 0.01, 0)

    @pytest.mark.parametrize("oversampling", [np.inf, -np.inf, np.nan])
    def test_non_finite_oversampling_rejected(self, oversampling):
        with pytest.raises(DomainViolation, match="oversampling .* is not finite"):
            gen_sphere_data(10, 10, 2, oversampling, 0)

    def test_target_rank(self):
        data = gen_sphere_data(40, 30, 3, 2.0, 0)
        assert np.linalg.matrix_rank(data.target) == 3

    @pytest.mark.parametrize("m, n, r, os_, seed", [(30, 25, 2, 2.0, 1), (200, 240, 5, 6, 0)])
    def test_matches_dense_generator(self, m, n, r, os_, seed):
        A, omega, gamma = dense_sphere_data(m, n, r, os_, seed)
        data = gen_sphere_data(m, n, r, os_, seed)
        assert all(np.array_equal(a, b) for a, b in zip(data.omega, omega))
        assert all(np.array_equal(a, b) for a, b in zip(data.gamma, gamma))
        assert np.abs(data.target - A).max() <= 1e-15

    def test_target_bit_equal_to_gathers(self):
        data = gen_sphere_data(200, 240, 5, 6, 0)
        target = data.target
        assert np.array_equal(target[data.omega], data.target_omega)
        assert np.array_equal(target[data.gamma], data.target_gamma)

    def test_truth_factors(self):
        data = gen_sphere_data(40, 30, 3, 2.0, 0)
        assert data.left.shape == (40, 3) and data.right.shape == (30, 3)
        assert np.abs(np.linalg.norm(data.left, axis=1) - 1.0).max() <= 1e-14
        assert np.abs(data.right.T @ data.right - np.eye(3)).max() <= 1e-14

    def test_gathered_indices_contiguous(self):
        # a step gathers through these; strided views are slower
        data = gen_sphere_data(30, 25, 2, 2.0, 1)
        pattern = data.omega_pattern
        for idx in (*data.omega, *data.gamma, pattern.by_row.inner, pattern.by_col.inner):
            assert idx.flags.c_contiguous

    def test_runs_order_is_stable_argsort(self):
        data = gen_sphere_data(200, 240, 5, 6, 0)
        rows, cols = data.omega
        pattern = data.omega_pattern
        # omega is sorted by row: the row runs need no reordering
        assert pattern.by_row.order is None
        assert np.array_equal(np.argsort(rows, kind="stable"), np.arange(rows.size))
        assert np.array_equal(pattern.by_col.order, np.argsort(cols, kind="stable"))
        assert np.array_equal(pattern.by_col.inner, rows[pattern.by_col.order])

    def test_setup_memory_bounded(self):
        # the dense truth alone would take 6000 * 7200 * 8 B = 346 MB; at
        # this size 2|Omega| <= mn / 50, so the sampling needs no m n array
        tracemalloc.start()
        try:
            data = gen_sphere_data(6000, 7200, 5, 6, 3)
            init_sphere(data, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 128e6


class TestSphereObjective:
    def test_grad_zero_at_target(self):
        data = gen_sphere_data(30, 25, 2, 2.0, 1)
        assert np.abs(sphere_grad(data, data.target)).max() == 0.0

    def test_grad_supported_on_omega(self, rng):
        data = gen_sphere_data(30, 25, 2, 2.0, 1)
        g = sphere_grad(data, rng.standard_normal((30, 25)))
        mask = np.zeros((30, 25), dtype=bool)
        mask[data.omega] = True
        assert np.all(g[~mask] == 0.0)

    def test_grad_finite_differences(self, rng):
        data = gen_sphere_data(20, 18, 2, 1.5, 1)
        X = rng.standard_normal((20, 18))
        fd_gradient_check(
            lambda Y: sphere_objective(data, Y),
            lambda Y: sphere_grad(data, Y),
            X, rng, trials=10,
        )

    def test_test_error_examples(self, rng):
        data = gen_sphere_data(30, 25, 2, 2.0, 1)
        assert sphere_test_error(data, data.target) == 0.0
        assert sphere_test_error(data, np.zeros((30, 25))) == pytest.approx(1.0)
        X = rng.standard_normal((30, 25))
        direct = np.linalg.norm(X[data.gamma] - data.target[data.gamma]) / np.linalg.norm(
            data.target[data.gamma]
        )
        assert sphere_test_error(data, X) == pytest.approx(direct)

    def test_init_properties(self):
        data = gen_sphere_data(30, 25, 2, 2.0, 1)
        X0 = init_sphere(data, 9)
        Y0 = init_sphere(data, 9)
        assert X0.rank == 2
        assert np.array_equal(X0.dense(), Y0.dense())
        # unit-row factor times orthonormal factor keeps unit rows
        assert np.abs(np.linalg.norm(X0.dense(), axis=1) - 1.0).max() <= 1e-10

    def test_init_matches_dense_projection(self):
        # the thin SVD of the m x r factor replaces a full SVD of H0 V0^T
        data = gen_sphere_data(60, 50, 3, 2.0, 1)
        X0 = init_sphere(data, 9)
        rng = np.random.default_rng(9)
        H0 = rng.standard_normal((60, 3))
        H0 /= np.linalg.norm(H0, axis=1, keepdims=True)
        V0 = np.linalg.qr(rng.standard_normal((50, 3)))[0]
        ref = FixedRankManifold(60, 50, 3).project(H0 @ V0.T)
        assert np.abs(X0.dense() - ref.dense()).max() <= 1e-12
        assert np.abs(X0.sigma - ref.sigma).max() <= 1e-12

    def test_factored_point_reads_the_samples(self):
        data = gen_sphere_data(30, 25, 2, 2.0, 1)
        X = init_sphere(data, 4)
        Xd = X.dense()
        assert np.allclose(product_entries(X.u * X.sigma, X.v, *data.omega), Xd[data.omega],
                           rtol=0, atol=1e-15)
        assert sphere_objective(data, X) == pytest.approx(sphere_objective(data, Xd), rel=1e-13)
        assert sphere_test_error(data, X) == pytest.approx(sphere_test_error(data, Xd), rel=1e-13)
        assert np.allclose(np.asarray(sphere_grad(data, X)), sphere_grad(data, Xd),
                           rtol=0, atol=1e-15)


class TestHyperbolicData:
    def test_columns_on_sheet(self):
        data = gen_hyperbolic_data(12, 20, 3, 0)
        j = np.ones(13)
        j[0] = -1.0
        vals = np.einsum("ij,ij->j", data.targets, j[:, None] * data.targets) + 1.0
        assert np.abs(vals).max() <= 1e-10
        assert np.all(data.targets[0] > 0)

    def test_exact_rank_without_tail(self):
        data = gen_hyperbolic_data(12, 20, 3, 0, tail_scale=0.0)
        s = np.linalg.svd(data.targets, compute_uv=False)
        assert s[3] > 1e-8
        assert s[4] <= 1e-12 * s[0]

    def test_full_rank_with_tail(self):
        data = gen_hyperbolic_data(12, 20, 3, 0, tail_scale=0.3)
        s = np.linalg.svd(data.targets, compute_uv=False)
        assert s[-1] > 1e-8

    def test_deterministic(self):
        a = gen_hyperbolic_data(12, 20, 3, 4)
        b = gen_hyperbolic_data(12, 20, 3, 4)
        assert np.array_equal(a.targets, b.targets)

    @pytest.mark.parametrize("r_true", [5, 4, 0])
    def test_rank_out_of_range(self, r_true):
        with pytest.raises(ShapeMismatch, match=f"rank r_true={r_true}"):
            gen_hyperbolic_data(3, 10, r_true, 0)

    @pytest.mark.parametrize("tail", [-5.0, np.nan, np.inf])
    def test_tail_scale_rejected(self, tail):
        with pytest.raises(DomainViolation, match="tail scale"):
            gen_hyperbolic_data(3, 10, 2, 0, tail_scale=tail)

    @pytest.mark.parametrize("tail", [1e200, 1e308])
    def test_tail_scale_past_the_float_range_rejected(self, tail):
        # the lifted top row sqrt(1 + ||spatial_j||^2) would be inf; no
        # overflow warning is printed on the way
        with pytest.raises(DomainViolation, match="tail scale .* past the float range"):
            gen_hyperbolic_data(5, 10, 2, 0, tail_scale=tail)

    def test_full_rank_signal(self):
        assert gen_hyperbolic_data(3, 10, 3, 0).targets.shape == (4, 10)

    def test_objective_zero_at_targets(self):
        # rounding leaves u within a few ulps of 1, on either side, where
        # each continued term is of order eps
        data = gen_hyperbolic_data(12, 20, 3, 0)
        assert hyperbolic_objective(data, data.targets) <= 1e-12

    def test_permutation_invariance(self, rng):
        data = gen_hyperbolic_data(10, 15, 3, 2)
        X = gen_hyperbolic_data(10, 15, 4, 3).targets  # another sheet matrix
        perm = rng.permutation(15)
        f1 = hyperbolic_objective(data, X)
        data.targets = data.targets[:, perm]
        f2 = hyperbolic_objective(data, X[:, perm])
        assert f1 == pytest.approx(f2, rel=1e-12)

    def test_grad_finite_differences(self):
        rng = np.random.default_rng(7)
        data = gen_hyperbolic_data(10, 15, 3, 2)
        X = gen_hyperbolic_data(10, 15, 4, 3).targets
        fd_gradient_check(
            lambda Y: hyperbolic_objective(data, Y),
            lambda Y: hyperbolic_grad(data, Y),
            X, rng, trials=10,
        )

    def test_grad_at_coincident_columns(self):
        # raw ambient gradient -2 J xbar vanishes after projection onto the
        # tangent space of the level set through the point
        data = gen_hyperbolic_data(8, 5, 2, 0)
        g = hyperbolic_grad(data, data.targets)
        j = np.ones(9)
        j[0] = -1.0
        expected = -2.0 * (j[:, None] * data.targets)
        assert np.allclose(g, expected, atol=1e-8)
        for i in range(5):
            x = data.targets[:, i]
            normal = j * x  # normal of the level set at x
            tang_part = g[:, i] - (g[:, i] @ normal) / (normal @ normal) * normal
            assert np.abs(tang_part).max() <= 1e-8

    @given(
        st.integers(0, 2**32 - 1), st.floats(-6.0, np.log10(0.3)), st.sampled_from([-1.0, 1.0])
    )
    def test_objective_continued_across_the_sheet(self, seed, log_gap, side):
        # X = (1 + d) T puts every u = -<x_i, t_i>_J at 1 + d; near u = 1,
        # f = sum arccosh(u)^2 = 2 (u - 1) - (u - 1)^2 / 3 + ... and
        # g = 1 - (u - 1)/3 + ... on both sides, and the gradient matches
        # central differences on both sides
        data = gen_hyperbolic_data(3, 4, 2, seed)
        d = side * 10.0**log_gap
        X = (1.0 + d) * data.targets
        JT = data.targets.copy()
        JT[0] = -JT[0]
        assert abs(hyperbolic_objective(data, X) - 2.0 * data.m * d) <= data.m * d * d + 1e-12
        G = hyperbolic_grad(data, X)
        # g(u) = arccos(u)/sqrt(1 - u^2) loses eps/|u - 1| to rounding
        bound = (2.0 * d * d + 1e-9) * np.linalg.norm(JT)
        assert np.linalg.norm(G + 2.0 * (1.0 - d / 3.0) * JT) <= bound
        fd_gradient_check(
            lambda Y: hyperbolic_objective(data, Y), lambda Y: hyperbolic_grad(data, Y),
            X, np.random.default_rng(seed), trials=3, rtol=1e-7,
        )

    @pytest.mark.parametrize("tail, r", [(0.3, 2), (0.0, 1)])
    def test_small_steps_near_the_sheet_do_not_abort(self, tail, r):
        # targets lifted as gen_hyperbolic_data lifts them, at signal scale
        # 0.72: a feasible start with small steps moves some u just below
        # 1, where f is continued rather than rejected
        rng = np.random.default_rng(15647184)
        Z = 0.72 * rng.standard_normal((2, 39))
        spatial = np.linalg.qr(rng.standard_normal((3, 2)))[0] @ Z
        if tail > 0.0:
            spatial = spatial + tail * rng.standard_normal((3, 39))
        targets = np.vstack([np.sqrt(1.0 + np.einsum("ij,ij->j", spatial, spatial)), spatial])
        data = HyperbolicFitProblem(targets, 3, 39, 2, 15647184, tail)
        res = gotd_run(make_hyperbolic_problem(data, r), init_hyperbolic(data, r),
                       GotdConfig(alpha=0.119, beta=0.043, max_iter=200))
        assert res.status is RunStatus.MAX_ITER, res.reason
        assert res.trace[-1].f_value < res.trace[0].f_value

    def test_domain_violation(self):
        data = gen_hyperbolic_data(8, 5, 2, 0)
        bad = data.targets.copy()
        bad[0, 0] = -bad[0, 0]  # lower sheet: Lorentz product flips sign
        with pytest.raises(DomainViolation):
            hyperbolic_objective(data, bad)

    def test_init_rank_and_feasibility(self):
        data = gen_hyperbolic_data(12, 30, 3, 1)
        X0 = init_hyperbolic(data, 3)
        assert X0.rank == 4
        j = np.ones(13)
        j[0] = -1.0
        vals = np.einsum("ij,ij->j", X0.dense(), j[:, None] * X0.dense()) + 1.0
        assert np.abs(vals).max() <= 1e-10
        Y0 = init_hyperbolic(data, 3)
        assert np.array_equal(X0.dense(), Y0.dense())

    def test_init_matches_dense_projection(self):
        # the SVD of the (r+1) x m lifted block replaces a full SVD of X0
        data = gen_hyperbolic_data(40, 120, 4, 2)
        X0 = init_hyperbolic(data, 4)
        U, _, _ = np.linalg.svd(data.targets[1:], full_matrices=False)
        Zr = U[:, :4].T @ data.targets[1:]
        top = np.sqrt(1.0 + np.einsum("ij,ij->j", Zr, Zr))
        ref = FixedRankManifold(41, 120, 5).project(np.vstack([top, U[:, :4] @ Zr]))
        assert np.abs(X0.dense() - ref.dense()).max() <= 1e-12
        assert np.abs(X0.sigma - ref.sigma).max() <= 1e-12

    def test_objective_and_grad_match_signature_form(self):
        # u = -<x, t>_J and grad = -2 J T Diag(g), written with J explicitly,
        # for a dense X and for X as a (full-rank) factored point
        data = gen_hyperbolic_data(10, 15, 3, 2)
        X = gen_hyperbolic_data(10, 15, 4, 3).targets
        j = np.ones(11)
        j[0] = -1.0
        u = -np.einsum("ij,ij->j", X, j[:, None] * data.targets)
        g = np.arccosh(u) / np.sqrt(u * u - 1.0)
        ref = -2.0 * (j[:, None] * data.targets) * g[None, :]
        for Y in (X, FixedRankManifold(11, 15, 11).project(X)):
            assert hyperbolic_objective(data, Y) == pytest.approx(
                np.sum(np.arccosh(u) ** 2), rel=1e-13
            )
            assert np.allclose(hyperbolic_grad(data, Y), ref, rtol=1e-12, atol=0.0)


class TestModesProblem:
    def test_hamiltonian_structure(self):
        prob = gen_modes_problem(256, 15, 50.0, 0.6)
        h = 50.0 / 257
        assert np.allclose(np.diag(prob.hamiltonian), 1.0 / h**2)
        assert np.allclose(np.diag(prob.hamiltonian, 1), -0.5 / h**2)
        assert np.allclose(prob.hamiltonian, prob.hamiltonian.T)
        assert prob.s == 2304
        assert prob.beta_default == pytest.approx(50.0**2 / (4 * 256**2))

    @pytest.mark.parametrize("p", [6, 5, 0])
    def test_column_count_out_of_range(self, p):
        with pytest.raises(ShapeMismatch, match=f"column count p={p}"):
            gen_modes_problem(4, p, 10.0, 0.5)

    @pytest.mark.parametrize("length, rho", [
        (np.inf, 0.5), (np.nan, 0.5), (10.0, np.inf), (10.0, -np.inf), (10.0, np.nan),
    ])
    def test_non_finite_length_or_rho_rejected(self, length, rho):
        with pytest.raises(DomainViolation, match="is not finite"):
            gen_modes_problem(4, 2, length, rho)

    @pytest.mark.parametrize("length", [0.0, -0.0, -1.0])
    def test_non_positive_length_rejected(self, length):
        with pytest.raises(DomainViolation, match="length .* is not positive"):
            gen_modes_problem(20, 3, length, 0.5)

    @pytest.mark.parametrize("length", [1e200, 1e160, 1e-160, 1e-300, 5e-324])
    def test_length_out_of_float_range_rejected(self, length):
        # length^2 overflows (a Python OverflowError) or the default step
        # length^2/(4 n^2) or the Hamiltonian scale 1/(2 h^2) under- or
        # overflows
        with pytest.raises(DomainViolation, match="length .* out of the positive floats"):
            gen_modes_problem(20, 3, length, 0.5)

    def test_default_step_is_the_stated_expression(self):
        for n, length in ((128, 50.0), (20, 1e150), (20, 1e-150), (1024, 3.7)):
            prob = gen_modes_problem(n, 3, length, 0.5)
            assert prob.beta_default == length**2 / (4.0 * n**2) > 0.0

    def test_spectral_bound(self):
        prob = gen_modes_problem(64, 4, 50.0, 0.6)
        h = 50.0 / 65
        assert np.linalg.eigvalsh(prob.hamiltonian).max() < 2.0 / h**2

    def test_grad(self, rng):
        prob = gen_modes_problem(32, 3, 50.0, 0.6)
        assert np.abs(modes_grad(prob, np.zeros((32, 3)))).max() == 0.0
        X = rng.standard_normal((32, 3))
        fd_gradient_check(
            lambda Y: modes_objective(prob, Y),
            lambda Y: modes_grad(prob, Y),
            X, rng, trials=10,
        )
        assert modes_objective(prob, X) >= 0.0

    def test_sparsity_ratio(self, rng):
        assert sparsity_ratio(np.ones((4, 5))) == 0.0
        assert sparsity_ratio(np.zeros((4, 5))) == 1.0
        prob = gen_modes_problem(32, 3, 50.0, 0.5)
        X0 = init_modes(prob, 0)
        assert sparsity_ratio(X0) == pytest.approx(1.0 - prob.s / (32 * 3))

    def test_init_deterministic_and_sparse(self):
        prob = gen_modes_problem(32, 3, 50.0, 0.5)
        a = init_modes(prob, 4)
        b = init_modes(prob, 4)
        assert np.array_equal(a.values, b.values)
        assert a.nnz == prob.s
