"""The paper's rates on the hyperbolic and modes pairs.

Acceptance criteria 5 and 6 measure them on the sphere pair.  Here the
same fits run on the acceptance instances of the other two pairs: the
min-so-far ||h|| and ||G_f||^2 must fall at least like K^-0.9 over K in
[10, 500], and f + lambda ||h|| must be non-increasing after iteration 5
for a power-of-two lambda, with criterion 6's slack and noise floor.
"""

import pytest

from gotd import (
    GotdConfig,
    RunStatus,
    find_monotone_balance,
    gen_hyperbolic_data,
    gen_modes_problem,
    gotd_run,
    init_hyperbolic,
    init_modes,
    make_hyperbolic_problem,
    make_modes_problem,
)
from oracles import min_so_far_slope

ITERATIONS = 520


def hyperbolic_rate_run():
    # init_hyperbolic is feasible to rounding, which pins the min-so-far
    # ||h|| at the float floor from iteration 0; as in criterion 5 the
    # run starts from a scaled, infeasible copy of it
    data = gen_hyperbolic_data(60, 300, 5, 1)
    problem = make_hyperbolic_problem(data, 5)
    x0 = problem.manifold.project(1.2 * init_hyperbolic(data, 5).dense())
    return gotd_run(problem, x0, GotdConfig(alpha=1.0, beta=0.2, max_iter=ITERATIONS, tol=0.0))


def modes_rate_run():
    data = gen_modes_problem(128, 5, 50.0, 0.6)
    problem = make_modes_problem(data)
    config = GotdConfig(alpha=1.0, beta=data.beta_default, max_iter=ITERATIONS, tol=0.0)
    return gotd_run(problem, init_modes(data, 0), config)


@pytest.fixture(scope="module", params=["hyperbolic", "modes"])
def trace(request):
    run = hyperbolic_rate_run if request.param == "hyperbolic" else modes_rate_run
    res = run()
    assert res.status is RunStatus.MAX_ITER and len(res.trace) == ITERATIONS + 1
    return res.trace


def test_min_so_far_rates(trace):
    # criterion 5's bound; measured slopes are -7.4 and -21.3 on the
    # hyperbolic pair and -2.5 and -2.6 on the modes pair
    slope_h = min_so_far_slope([rec.feas_norm for rec in trace])
    slope_g = min_so_far_slope([rec.gf_norm**2 for rec in trace])
    assert slope_h <= -0.9 and slope_g <= -0.9, (slope_h, slope_g)


def test_lyapunov_balance(trace):
    # criterion 6's settings; lambda = 1 is found on both pairs
    lam = find_monotone_balance(
        [rec.f_value for rec in trace],
        [rec.feas_norm for rec in trace],
        after=5,
        slack=1.01,
        noise_floor=1e-13,
    )
    assert lam is not None
