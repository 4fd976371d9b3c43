import numpy as np
import pytest

from gotd import (
    DomainViolation,
    FixedRankManifold,
    HyperboloidConstraint,
    ObliqueConstraint,
    alternating_projections,
)
from oracles import feasible_hyperboloid_lowrank, feasible_oblique_lowrank


def setup_pair(rng, m=12, n=10, r=3):
    return FixedRankManifold(m, n, r), ObliqueConstraint(m, n)


class TestAlternatingProjections:
    def test_fixed_point(self, rng):
        man, C = setup_pair(rng)
        X = feasible_oblique_lowrank(rng, 12, 10, 3)
        res = alternating_projections(man, C, X.dense(), tol=1e-10, max_iter=100)
        assert res.converged and res.iters == 0
        assert np.allclose(res.point.dense(), X.dense(), atol=1e-9)

    def test_near_feasible_start(self, rng):
        man, C = setup_pair(rng)
        X = feasible_oblique_lowrank(rng, 12, 10, 3)
        start = X.dense() + 1e-3 * rng.standard_normal((12, 10))
        res = alternating_projections(man, C, start, tol=1e-10, max_iter=50)
        assert res.converged
        assert res.feas_norm <= 1e-10
        assert res.iters <= 50

    def test_zero_budget_projects_onto_manifold(self, rng):
        man, C = setup_pair(rng)
        Y = rng.standard_normal((12, 10))
        res = alternating_projections(man, C, Y, tol=0.0, max_iter=0)
        assert not res.converged
        assert np.allclose(res.point.dense(), man.project(Y).dense())

    def test_output_is_exactly_on_manifold(self, rng):
        man, C = setup_pair(rng)
        Y = rng.standard_normal((12, 10))
        res = alternating_projections(man, C, Y, tol=1e-10, max_iter=200)
        assert res.point.rank == 3  # structural invariant of the point type

    def test_monotone_history_with_slack(self, rng):
        man, C = setup_pair(rng)
        X = feasible_oblique_lowrank(rng, 12, 10, 3)
        start = X.dense() + 0.05 * rng.standard_normal((12, 10))
        res = alternating_projections(man, C, start, tol=1e-12, max_iter=100)
        for a, b in zip(res.history[2:], res.history[3:]):
            assert b <= 1.01 * a

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_start_rejected(self, rng, bad):
        Y = rng.standard_normal((3, 2))
        Y[1, 1] = bad
        for C in (HyperboloidConstraint(2, 2), ObliqueConstraint(3, 2)):
            with pytest.raises(DomainViolation, match="finite start"):
                alternating_projections(FixedRankManifold(3, 2, 1), C, Y)

    def test_oblique_pair_needs_one_iteration(self, rng):
        # row normalization is a diagonal scaling, so it preserves the
        # rank: one sweep lands exactly on the intersection
        man, C = setup_pair(rng)
        Y = rng.standard_normal((12, 10))
        res = alternating_projections(man, C, Y, tol=1e-12, max_iter=10)
        assert res.converged and res.iters == 1

    def test_linear_rate_hyperboloid_pair(self, rng):
        n, m, s = 10, 14, 3
        man = FixedRankManifold(n + 1, m, s)
        C = HyperboloidConstraint(n, m)
        X = feasible_hyperboloid_lowrank(rng, n, m, s)
        start = X.dense() + 5e-2 * rng.standard_normal((n + 1, m))
        res = alternating_projections(man, C, start, tol=1e-11, max_iter=100)
        assert res.converged
        hist = np.array(res.history)
        its = np.arange(len(hist))
        # log(feas) vs iteration fits a decreasing line well
        slope, intercept = np.polyfit(its, np.log(hist), 1)
        fit = slope * its + intercept
        ss_res = np.sum((np.log(hist) - fit) ** 2)
        ss_tot = np.sum((np.log(hist) - np.log(hist).mean()) ** 2)
        assert slope < 0
        assert 1.0 - ss_res / ss_tot >= 0.9


class CountingManifold(FixedRankManifold):
    def __init__(self, *args):
        super().__init__(*args)
        self.projections = 0

    def project(self, Y):
        self.projections += 1
        return super().project(Y)


class TestStartOnManifold:
    def test_point_start_skips_the_opening_projection(self, rng):
        man, C = CountingManifold(12, 10, 3), ObliqueConstraint(12, 10)
        X = feasible_oblique_lowrank(rng, 12, 10, 3)
        res = alternating_projections(man, C, X, tol=1e-10, max_iter=100)
        assert res.converged and res.iters == 0
        assert res.point is X
        assert man.projections == 0
        alternating_projections(man, C, X.dense(), tol=1e-10, max_iter=100)
        assert man.projections == 1

    def test_point_and_matrix_starts_agree(self, rng):
        n, m, s = 10, 14, 3
        man = CountingManifold(n + 1, m, s)
        C = HyperboloidConstraint(n, m)
        X = feasible_hyperboloid_lowrank(rng, n, m, s)
        start = man.project(X.dense() + 1e-2 * rng.standard_normal((n + 1, m)))
        man.projections = 0
        a = alternating_projections(man, C, start, tol=1e-11, max_iter=100)
        assert man.projections == a.iters
        b = alternating_projections(man, C, start.dense(), tol=1e-11, max_iter=100)
        assert a.iters == b.iters
        assert np.allclose(a.point.dense(), b.point.dense(), atol=1e-12)
