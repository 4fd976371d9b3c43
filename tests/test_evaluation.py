"""One evaluation per point.

Each problem's ``value_and_grad`` returns the objective and a gradient
whose tangent projection is that of the module's ``*_grad``; the modes
Hamiltonian is applied as a 3-point stencil; ``gotd_run``, ``gotd_step``
and ``optimality_direction`` read the gradient from ``value_and_grad``,
and the run factors the Gram operator Dh Dh* once per iterate.  Every
fused quantity is compared with the separate evaluations, and the modes
route with the dense Hamiltonian of ``oracles.dense_modes_problem``.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gotd import (
    DomainViolation,
    FactoredPoint,
    FixedRankTangent,
    GotdConfig,
    RunStatus,
    SupportPoint,
    gen_hyperbolic_data,
    gen_modes_problem,
    gen_sphere_data,
    gotd_run,
    gotd_step,
    hyperbolic_grad,
    hyperbolic_objective,
    init_hyperbolic,
    init_modes,
    init_sphere,
    make_hyperbolic_problem,
    make_modes_problem,
    make_sphere_problem,
    modes_grad,
    modes_objective,
    optimality_direction,
    sphere_grad,
    sphere_objective,
)
from gotd import algorithm, problems
from gotd.problems import ARCCOSH_SERIES_CUT
from oracles import (
    dense_modes_problem,
    feasible_hyperboloid_lowrank,
    random_factored,
    random_support_point,
    standalone_gradient_weights,
    standalone_squared_distance_sum,
)

seeds = st.integers(0, 2**32 - 1)


def _assert_close(a, b, rtol=1e-13):
    a, b = np.asarray(a), np.asarray(b)
    assert np.linalg.norm(a - b) <= rtol * np.linalg.norm(b)


def _assert_fused_matches(problem, point, objective, grad):
    """value_and_grad(point) against the separate definitions: (objective,
    P_T grad), or (objective, grad) for an array."""
    f_val, fused = problem.value_and_grad(point)
    assert f_val == pytest.approx(objective(point), rel=1e-13, abs=0.0)
    ref = grad(point)
    if not isinstance(point, np.ndarray):
        fused = problem.manifold.tangent_project(point, fused)
        ref = problem.manifold.tangent_project(point, ref)
    _assert_close(fused, ref)


class TestFusedEvaluation:
    @given(st.integers(5, 12), st.integers(5, 12), st.integers(1, 3), seeds)
    def test_sphere(self, m, n, r, seed):
        rng = np.random.default_rng(seed)
        data = gen_sphere_data(m, n, r, 0.5, seed)
        _assert_fused_matches(
            make_sphere_problem(data), random_factored(rng, m, n, r),
            lambda X: sphere_objective(data, X), lambda X: sphere_grad(data, X),
        )

    @given(st.integers(3, 10), st.integers(4, 15), st.integers(1, 3), seeds)
    def test_hyperbolic(self, n, m, r, seed):
        rng = np.random.default_rng(seed)
        data = gen_hyperbolic_data(n, m, r, seed)
        problem = make_hyperbolic_problem(data, r)
        for point in (init_hyperbolic(data, r), feasible_hyperboloid_lowrank(rng, n, m, r + 1)):
            _assert_fused_matches(
                problem, point, lambda X: hyperbolic_objective(data, X),
                lambda X: hyperbolic_grad(data, X),
            )

    @given(st.integers(2, 40), st.integers(1, 5), seeds)
    def test_modes(self, n, p, seed):
        # the problem needs p <= n orthonormal columns
        p = min(p, n)
        rng = np.random.default_rng(seed)
        data = gen_modes_problem(n, p, 50.0, 0.6)
        problem = make_modes_problem(data)
        refs = (lambda X: modes_objective(data, X), lambda X: modes_grad(data, X))
        _assert_fused_matches(problem, random_support_point(rng, n, p, data.s), *refs)
        _assert_fused_matches(problem, rng.standard_normal((n, p)), *refs)

    def test_hyperbolic_point_off_the_sheet_raises(self):
        data = gen_hyperbolic_data(8, 12, 2, 0)
        x0 = init_hyperbolic(data, 2)
        flipped = FactoredPoint(-x0.u, x0.sigma, x0.v)  # the lower sheet
        problem = make_hyperbolic_problem(data, 2)
        with pytest.raises(DomainViolation):
            problem.value_and_grad(flipped)


class TestSharedDistances:
    def test_weights_and_objective_match_standalone_forms_bitwise(self):
        # below the series band, inside it, just above 1, and up to 1e6
        cut = ARCCOSH_SERIES_CUT
        u = np.concatenate([
            np.linspace(1e-3, 1.0 - 2.0 * cut, 50), 1.0 - np.array([1.5, 1.0]) * cut,
            1.0 + np.linspace(-cut, cut, 21), 1.0 + np.array([1.0, 1.5, 2.0, 10.0]) * cut,
            np.nextafter(1.0, [0.0, 2.0]), 1.0 + np.logspace(-7, -1, 13), np.logspace(0.1, 6, 40),
        ])
        dist = problems._distances(u)
        assert np.array_equal(problems._gradient_weights(u, dist), standalone_gradient_weights(u))
        for part in (u[u < 1.0], u[u >= 1.0], u):
            assert problems._squared_distance_sum(problems._distances(part)) == (
                standalone_squared_distance_sum(part)
            )

    def test_value_and_grad_evaluates_each_transcendental_once(self, monkeypatch):
        calls = {"arccosh": 0, "arccos": 0}
        for name in calls:
            def counting(*args, _f=getattr(np, name), _name=name, **kwargs):
                calls[_name] += 1
                return _f(*args, **kwargs)
            monkeypatch.setattr(np, name, counting)
        problem, x0, _, _ = _pairs()["hyperbolic"]
        problem.value_and_grad(x0)
        assert calls == {"arccosh": 1, "arccos": 1}


class TestHamiltonianStencil:
    @pytest.mark.parametrize("n", [1, 2, 3, 17])
    def test_matches_the_tridiagonal_matrix(self, rng, n):
        # the stencil does not depend on the problem's column count
        data = gen_modes_problem(n, 1, 50.0, 0.6)
        h = 50.0 / (n + 1)
        H = (2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)) / (2.0 * h * h)
        assert np.array_equal(data.hamiltonian, H)
        X = rng.standard_normal((n, 3))
        _assert_close(data.apply_hamiltonian(X), H @ X, rtol=1e-15)

    def test_problem_stores_no_dense_matrix(self):
        data = gen_modes_problem(64, 4, 50.0, 0.6)
        assert not any(isinstance(v, np.ndarray) for v in vars(data).values())


def _pairs():
    sphere = gen_sphere_data(40, 36, 3, 3.0, 1)
    hyper = gen_hyperbolic_data(20, 60, 3, 2)
    modes = gen_modes_problem(48, 3, 50.0, 0.6)
    return {
        "sphere": (make_sphere_problem(sphere), init_sphere(sphere, 1), 1.0, 1.0),
        "hyperbolic": (make_hyperbolic_problem(hyper, 3), init_hyperbolic(hyper, 3), 1.0, 0.2),
        "modes": (make_modes_problem(modes), init_modes(modes, 0), 1.0, modes.beta_default),
    }


def _arrays(point):
    if isinstance(point, SupportPoint):
        return [point.values, point.support]
    if isinstance(point, FixedRankTangent):
        return [point.M, point.Up, point.Vp]
    if isinstance(point, np.ndarray):
        return [point]
    return [point.u, point.sigma, point.v]


class TestOneEvaluationPerIterate:
    @pytest.mark.parametrize("pair", ["sphere", "hyperbolic", "modes"])
    def test_step_is_the_first_iterate_of_a_run(self, pair):
        problem, x0, alpha, beta = _pairs()[pair]
        point, gh, gf = gotd_step(problem, x0, alpha, beta)
        res = gotd_run(problem, x0, GotdConfig(alpha=alpha, beta=beta, max_iter=1, tol=0.0))
        assert res.iterations == 1
        for a, b in zip(_arrays(point), _arrays(res.point)):
            assert np.array_equal(a, b)
        assert (gh, gf) == (res.trace[0].gh_norm, res.trace[0].gf_norm)

    @pytest.mark.parametrize("pair", ["sphere", "hyperbolic", "modes"])
    def test_optimality_direction_reads_value_and_grad(self, pair, monkeypatch):
        # G_f at a point on its own is the G_f of the run's evaluation, and
        # no route through the separate gradients is taken
        def separate_gradient(prob, X):
            raise AssertionError("the separate gradient was called")

        for name in ("sphere_grad", "hyperbolic_grad", "modes_grad"):
            monkeypatch.setattr(problems, name, separate_gradient)
        problem, x0, alpha, beta = _pairs()[pair]
        point = gotd_run(problem, x0, GotdConfig(alpha=alpha, beta=beta, max_iter=3, tol=0.0)).point
        gf = optimality_direction(problem, point)
        ref = algorithm._evaluate(problem, point)[3]
        assert type(gf) is type(ref)
        for a, b in zip(_arrays(gf), _arrays(ref), strict=True):
            assert np.array_equal(a, b)

    def test_hyperbolic_optimality_direction_stays_factored(self):
        # the dense gradient would be an (n+1) x m array, the size of the data
        data = gen_hyperbolic_data(200, 3000, 3, 0)
        problem, x0 = make_hyperbolic_problem(data, 3), init_hyperbolic(data, 3)
        tracemalloc.start()
        try:
            optimality_direction(problem, x0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < data.targets.nbytes / 2

    @pytest.mark.parametrize("pair", ["sphere", "hyperbolic"])
    def test_point_forms_each_norm_vector_once(self, pair, monkeypatch):
        # h, the Gram solve of G_h and the reduced Gram solver of G_f read
        # the same squared norms of the point's rows (sphere) or columns
        # (hyperbolic); only the point's cached property forms them
        operands = []
        einsum = np.einsum

        def spy(*args, **kwargs):
            operands.append(args[1:])
            return einsum(*args, **kwargs)

        problem, x0, _, _ = _pairs()[pair]
        monkeypatch.setattr(np, "einsum", spy)
        algorithm._evaluate(problem, x0)
        formed = [ops for ops in operands
                  if len(ops) == 2 and ops[0] is ops[1] and (ops[0] is x0.us or ops[0] is x0.vs)]
        assert len(formed) == 1

    def test_modes_factors_the_gram_once_per_iterate(self, monkeypatch):
        calls = []
        eigh = np.linalg.eigh

        def counting(*args, **kwargs):
            calls.append(1)
            return eigh(*args, **kwargs)

        problem, x0, alpha, beta = _pairs()["modes"]
        monkeypatch.setattr(np.linalg, "eigh", counting)
        res = gotd_run(problem, x0, GotdConfig(alpha=alpha, beta=beta, max_iter=20, tol=0.0))
        assert res.status is RunStatus.MAX_ITER
        assert len(calls) == len(res.trace) == 21

    def test_modes_trace_matches_dense_hamiltonian_route(self):
        data = gen_modes_problem(128, 5, 50.0, 0.6)
        x0 = init_modes(data, 0)
        config = GotdConfig(alpha=1.0, beta=data.beta_default, max_iter=200, tol=0.0)
        run = gotd_run(make_modes_problem(data), x0, config)
        ref = gotd_run(dense_modes_problem(data), x0, config)
        assert run.status is ref.status is RunStatus.MAX_ITER
        assert len(run.trace) == len(ref.trace) == 201
        for a, b in zip(run.trace, ref.trace):
            assert a.iteration == b.iteration
            assert a.extra_metric == b.extra_metric
            for x, y in ((a.f_value, b.f_value), (a.gf_norm, b.gf_norm)):
                assert abs(x - y) <= 1e-10 * abs(y)
            for x, y in ((a.feas_norm, b.feas_norm), (a.gh_norm, b.gh_norm)):
                assert abs(x - y) <= 1e-9 * abs(y) + 1e-12
