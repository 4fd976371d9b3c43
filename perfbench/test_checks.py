"""Each check passes on the program's output and fails on a deliberately
wrong one; the tracer catches re-exported functions and restores them.

Run from the repository root:

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

import numpy as np
import pytest

import gotd
from gotd import algorithm, fastproj, solvers

import checks
from tracer import Tracer


def _directions(problem, point):
    gh = gotd.feasibility_direction(problem.manifold, problem.constraint, point)
    return gh, gotd.optimality_direction(problem, point)


@pytest.fixture(scope="module")
def sphere():
    data = gotd.gen_sphere_data(60, 72, 3, 3, 0)
    problem = gotd.make_sphere_problem(data)
    x0 = gotd.init_sphere(data, 0)
    res = gotd.gotd_run(problem, x0, gotd.GotdConfig(alpha=1.0, beta=1.0, max_iter=10, tol=0.0))
    gh, gf = _directions(problem, res.point)
    return dict(X0=x0.dense(), XN=res.point.dense(), U=res.point.u, V=res.point.v,
                omega=data.omega, gamma=data.gamma, target=data.target, gh=gh, gf=gf)


@pytest.fixture(scope="module")
def hyperbolic():
    data = gotd.gen_hyperbolic_data(60, 300, 5, 1)
    problem = gotd.make_hyperbolic_problem(data, 5)
    x0 = gotd.init_hyperbolic(data, 5)
    res = gotd.gotd_run(problem, x0, gotd.GotdConfig(alpha=1.0, beta=0.2, max_iter=2000, tol=1e-10))
    assert res.status is gotd.RunStatus.CONVERGED
    polished = gotd.alternating_projections(problem.manifold, problem.constraint, res.point.dense())
    gh, gf = _directions(problem, res.point)
    return dict(X0=x0.dense(), XN=res.point.dense(), U=res.point.u, V=res.point.v,
                targets=data.targets, gh=gh, gf=gf, X_polished=gotd.as_dense(polished.point))


@pytest.fixture(scope="module")
def modes():
    data = gotd.gen_modes_problem(32, 3, 50.0, 0.6)
    problem = gotd.make_modes_problem(data)
    x0 = gotd.init_modes(data, 0)
    res = gotd.gotd_run(problem, x0, gotd.GotdConfig(
        alpha=1.0, beta=data.beta_default, max_iter=20, tol=0.0))
    gh, gf = _directions(problem, res.point)
    return dict(X0=x0.values, XN=res.point.values, f_reported=res.trace[-1].f_value,
                H=data.hamiltonian, s=data.s, gh=gh, gf=gf,
                traced_zero_shares=[r.extra_metric for r in res.trace])


def _sphere_wrong(case, a):
    grad = checks.sphere_gradient(a["XN"], a["omega"], a["target"])
    proj = checks.fixed_rank_tangent(a["U"], a["V"])
    overfit = a["X0"].copy()
    overfit[a["omega"]] = a["target"][a["omega"]]
    return {
        "not tangent": dict(gf=-grad),
        "not in ker Dh": dict(gf=proj(-grad)),
        "not orthogonal": dict(gh=a["gh"] + a["gf"]),
        "not the orthogonal projection": dict(gf=1.5 * a["gf"]),
        "objective did not decrease": dict(X0=a["XN"], XN=a["X0"]),
        "held-out error did not decrease": dict(XN=overfit),
    }[case]


def _hyperbolic_wrong(case, a):
    grad = checks.hyperbolic_gradient(a["XN"], a["targets"])
    noisy = a["XN"] + 1e-6 * np.random.default_rng(0).standard_normal(a["XN"].shape)
    flipped = a["XN"].copy()
    flipped[:, 0] *= -1.0
    return {
        "not in ker Dh": dict(gf=checks.fixed_rank_tangent(a["U"], a["V"])(-grad)),
        "> 1e-8 at the final iterate": dict(XN=noisy),
        "upper sheet": dict(XN=flipped),
        "f / f0": dict(XN=a["X0"]),
        "after the polish": dict(X_polished=noisy),
    }[case]


def _modes_wrong(case, a):
    grad = 2.0 * a["H"] @ a["XN"]
    extra = a["XN"].copy()
    extra[extra == 0.0] = 1e-3
    shares = list(a["traced_zero_shares"])
    shares[3] += 1.0 / a["XN"].size
    kyfan = float(np.sum(np.linalg.eigvalsh(a["H"])[: a["XN"].shape[1]]))
    return {
        "not in ker Dh": dict(gf=checks.support_tangent(a["XN"])(-grad)),
        "not the orthogonal projection": dict(gf=1.5 * a["gf"]),
        "nonzeros, not": dict(XN=extra),
        "traced iterates": dict(traced_zero_shares=shares),
        "objective did not decrease": dict(X0=a["XN"], XN=a["X0"]),
        "Ky Fan": dict(f_reported=0.5 * kyfan),
    }[case]


def test_correct_outputs_pass(sphere, hyperbolic, modes):
    assert checks.sphere_failures(**sphere) == []
    assert checks.hyperbolic_failures(**hyperbolic) == []
    assert checks.modes_failures(**modes) == []


@pytest.mark.parametrize("case", [
    "not tangent", "not in ker Dh", "not orthogonal", "not the orthogonal projection",
    "objective did not decrease", "held-out error did not decrease",
])
def test_sphere_checks_catch(sphere, case):
    found = checks.sphere_failures(**dict(sphere, **_sphere_wrong(case, sphere)))
    assert any(case in msg for msg in found), found


@pytest.mark.parametrize("case", [
    "not in ker Dh", "> 1e-8 at the final iterate", "upper sheet", "f / f0", "after the polish",
])
def test_hyperbolic_checks_catch(hyperbolic, case):
    found = checks.hyperbolic_failures(**dict(hyperbolic, **_hyperbolic_wrong(case, hyperbolic)))
    assert any(case in msg for msg in found), found


@pytest.mark.parametrize("case", [
    "not in ker Dh", "not the orthogonal projection", "nonzeros, not",
    "traced iterates", "objective did not decrease", "Ky Fan",
])
def test_modes_checks_catch(modes, case):
    found = checks.modes_failures(**dict(modes, **_modes_wrong(case, modes)))
    assert any(case in msg for msg in found), found


def test_trace_check_ignores_only_time():
    a = ["iter,time_s,f", "0,1.0e-03,5.0e+00", "1,2.0e-03,4.0e+00"]
    assert checks.trace_failures(a, ["iter,time_s,f", "0,9.9e-03,5.0e+00", "1,8.8e-03,4.0e+00"]) == []
    assert checks.trace_failures(a, ["iter,time_s,f", "0,1.0e-03,5.0e+00", "1,2.0e-03,4.1e+00"])
    assert checks.trace_failures(a, a[:2])


def test_tracer_wraps_every_reference_and_restores():
    pcg, pinv = solvers.pcg, solvers.pinv_apply
    dense = gotd.FactoredPoint.dense
    tracer = Tracer()
    tracer.install()
    try:
        assert fastproj.pcg is solvers.pcg is gotd.pcg is not pcg
        assert algorithm.pinv_apply is solvers.pinv_apply is not pinv
        point = gotd.FixedRankManifold(4, 3, 1).project(np.outer([1.0, 2, 3, 4], [1.0, 0, 1]))
        point.dense()
    finally:
        tracer.uninstall()
    assert fastproj.pcg is solvers.pcg is gotd.pcg is pcg
    assert algorithm.pinv_apply is pinv and gotd.FactoredPoint.dense is dense
    names = [span[0] for span in tracer.spans]
    assert names == ["manifolds.project", "solvers.truncated_svd", "manifolds.dense"]
    assert tracer.spans[1][2] == 0 and tracer.spans[2][6] == 4 * 3 * 8
