"""The fixed-rank retraction, built from r x r Gram roots of Up and Vp.

``FixedRankManifold.retract`` forms the new factors as U u1 + Up v1 S^-1
and V v1 + Vp u1 S^-1 from one 2r x 2r SVD, with no QR.  It is checked
here against the QR route it replaced (``oracles.qr_retract``), against
numpy's rank-r SVD truncation of X + eta on ill-conditioned points, at a
zero step on both manifolds, and on whole runs in which no QR may run.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gotd import (
    FactoredPoint,
    FixedRankManifold,
    FixedRankTangent,
    GotdConfig,
    RunStatus,
    SparsityManifold,
    gen_hyperbolic_data,
    gen_sphere_data,
    gotd_run,
    init_hyperbolic,
    init_sphere,
    make_hyperbolic_problem,
    make_sphere_problem,
)
from oracles import qr_retract, random_factored, random_support_point


@st.composite
def steps(draw, max_dim=9):
    """(manifold, point, eta): r = min(m, n) half the time, Up or Vp
    zeroed a third of the time each, and eta dense half the time."""
    m = draw(st.integers(1, max_dim))
    n = draw(st.integers(1, max_dim))
    r = draw(st.one_of(st.just(min(m, n)), st.integers(1, min(m, n))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    man = FixedRankManifold(m, n, r)
    X = random_factored(rng, m, n, r)
    eta = man.tangent_project(X, rng.standard_normal((m, n)))
    zero = draw(st.sampled_from(["none", "Up", "Vp"]))
    Up = np.zeros_like(eta.Up) if zero == "Up" else eta.Up
    Vp = np.zeros_like(eta.Vp) if zero == "Vp" else eta.Vp
    eta = FixedRankTangent(X.u, X.v, eta.M, Up, Vp)
    eta = (draw(st.floats(0.01, 0.3)) / max(eta.norm(), 1e-300)) * eta
    if draw(st.booleans()):
        eta = eta.dense()
    return man, X, eta


def truncation(Y, r):
    """numpy's best rank-r approximation of Y and the condition number
    sigma_1 / sigma_r."""
    u, s, vt = np.linalg.svd(Y, full_matrices=False)
    return (u[:, :r] * s[:r]) @ vt[:r], s[0] / s[r - 1]


class TestAgainstQRRoute:
    @given(steps())
    def test_matches_qr_retraction(self, case):
        man, X, eta = case
        Y, ref = man.retract(X, eta), qr_retract(X, eta)
        scale = np.abs(ref.dense()).max()
        assert np.abs(Y.dense() - ref.dense()).max() <= 1e-12 * scale
        assert np.abs(Y.sigma - ref.sigma).max() <= 1e-12 * ref.sigma.min()


class TestConditioning:
    @pytest.mark.parametrize("m, n, r", [(30, 20, 4), (9, 25, 3), (12, 40, 2)])
    def test_matches_svd_truncation_of_ill_conditioned_sums(self, m, n, r):
        # sigma_r(X) / sigma_1 from 1e-4 to 1e-11 and steps from 1e-2 to
        # 1e-13 of sigma_1; retract returns a FactoredPoint, whose
        # constructor checks that its factors are orthonormal to 1e-12
        rng = np.random.default_rng(m * n * r)
        man = FixedRankManifold(m, n, r)
        worst_kappa = 0.0
        for kx in (1e-4, 1e-7, 1e-9, 1e-11):
            X = random_factored(rng, m, n, r)
            X = FactoredPoint(X.u, np.geomspace(1.0, kx, r), X.v)
            for ke in (1e-2, 1e-5, 1e-8, 1e-11, 1e-13):
                eta = man.tangent_project(X, rng.standard_normal((m, n)))
                eta = (ke / eta.norm()) * eta
                ref, kappa = truncation(X.dense() + eta.dense(), r)
                worst_kappa = max(worst_kappa, kappa)
                Y = man.retract(X, eta)
                err = np.linalg.norm(Y.dense() - ref) / np.linalg.norm(ref)
                assert err <= 1e-13, (kx, ke, kappa, err)
        assert worst_kappa >= 1e10


class TestZeroStep:
    @given(st.integers(1, 9), st.integers(1, 9), st.data())
    def test_fixed_rank_reproduces_the_point(self, m, n, data):
        r = data.draw(st.integers(1, min(m, n)))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        man = FixedRankManifold(m, n, r)
        X = random_factored(rng, m, n, r)
        ref = X.dense()
        for zero in (man.tangent_project(X, np.zeros((m, n))), np.zeros((m, n))):
            Y = man.retract(X, zero)
            assert np.linalg.norm(Y.dense() - ref) <= 1e-14 * np.linalg.norm(ref)

    @given(st.integers(1, 9), st.integers(1, 9), st.data())
    def test_sparsity_reproduces_the_point_exactly(self, m, n, data):
        s = data.draw(st.integers(1, m * n))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        X = random_support_point(rng, m, n, s)
        Y = SparsityManifold(m, n, s).retract(X, np.zeros((m, n)))
        assert np.array_equal(Y.values, X.values)
        assert np.array_equal(Y.support, X.support)


def _refuse_qr(*args, **kwargs):
    raise AssertionError("np.linalg.qr on the hot path")


def _rows(res):
    return [(r.iteration, r.f_value, r.feas_norm, r.gh_norm, r.gf_norm, r.extra_metric)
            for r in res.trace]


class TestNoQR:
    def test_sphere_run(self, monkeypatch):
        data = gen_sphere_data(60, 50, 3, 3.0, 2)
        x0 = init_sphere(data, 2)
        cfg = GotdConfig(alpha=1.0, beta=1.0, max_iter=40, tol=0.0)
        ref = gotd_run(make_sphere_problem(data), x0, cfg)
        monkeypatch.setattr(np.linalg, "qr", _refuse_qr)
        res = gotd_run(make_sphere_problem(data), x0, cfg)
        assert res.status is ref.status is RunStatus.MAX_ITER
        assert _rows(res) == _rows(ref)

    def test_hyperbolic_run(self, monkeypatch):
        data = gen_hyperbolic_data(20, 60, 3, 4)
        x0 = init_hyperbolic(data, 3)
        cfg = GotdConfig(alpha=1.0, beta=0.2, max_iter=2000, tol=1e-10)
        ref = gotd_run(make_hyperbolic_problem(data, 3), x0, cfg)
        monkeypatch.setattr(np.linalg, "qr", _refuse_qr)
        res = gotd_run(make_hyperbolic_problem(data, 3), x0, cfg)
        assert res.status is ref.status is RunStatus.CONVERGED, res.reason
        assert _rows(res) == _rows(ref)
