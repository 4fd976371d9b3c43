"""The three workloads, one for each route to G_f in ``gotd`` today.

* ``sphere-scaled``: the sphere problem's closure projector, on dense
  2000 x 2400 iterates, for a fixed number of iterations.
* ``hyperbolic-converge``: ``fastproj`` and ``solvers.pcg``, run to
  tol = 1e-10, then polished by alternating projections as
  ``gotd hyperbolic --postprocess-map`` does.
* ``modes-budget``: the generic q-column loop of
  ``algorithm.tangent_intersection_project``, for a fixed number of
  iterations.

Every call into the program goes through a module attribute looked up at
call time (``problems.gen_sphere_data``, ``algorithm.gotd_run``, ...), so
the tracer's wrappers are seen when they are installed.
"""

import time
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from gotd import algorithm, feasibility, manifolds, problems

import checks

DEFAULT_SEED = 1
POLISH_TOL = 1e-10
POLISH_MAX_ITER = 100


@dataclass
class Instance:
    data: object
    problem: object
    x0: object
    config: object
    polish: bool = False


@dataclass
class Outcome:
    result: object
    polished: Optional[object]
    seconds: float


@dataclass(frozen=True)
class Workload:
    name: str
    instances: int  # problem instances in one round
    setups: int  # set-ups of a round per timed run; setup_s is their median
    expect: str  # the RunStatus value a correct run ends with
    build: Callable[[int, bool], Instance]  # (seed, small) -> instance
    check: Callable[[Instance, Outcome, np.ndarray, np.ndarray], list]

    def build_round(self, seed: int, small: bool = False) -> list:
        """The round of ``--seed``: instances seed*k, ..., seed*k + k - 1."""
        k = self.instances
        return [self.build(seed * k + j, small) for j in range(k)]


def solve(inst: Instance, tracer=None) -> Outcome:
    """``gotd_run`` to its stop rule, then the polish where there is one."""
    if tracer is not None:
        tracer.phase = "solve"
    t0 = time.perf_counter()
    result = algorithm.gotd_run(inst.problem, inst.x0, inst.config)
    polished = None
    if inst.polish:
        if tracer is not None:
            tracer.phase = "polish"
        polished = feasibility.alternating_projections(
            inst.problem.manifold, inst.problem.constraint,
            manifolds.as_dense(result.point), tol=POLISH_TOL, max_iter=POLISH_MAX_ITER,
        )
    return Outcome(result, polished, time.perf_counter() - t0)


def failures(workload: Workload, inst: Instance, out: Outcome) -> list:
    """Call the program's two directions at the final iterate and check
    them, and the run, with the benchmark's own code."""
    point = out.result.point
    gh = algorithm.feasibility_direction(inst.problem.manifold, inst.problem.constraint, point)
    gf = algorithm.optimality_direction(inst.problem, point)
    found = workload.check(inst, out, gh, gf)
    if out.result.status.value != workload.expect:
        found.append(f"run ended {out.result.status.value}, expected {workload.expect}")
    return found


def trace_rows(records) -> list:
    """Trace records without their wall-clock field, for exact comparison."""
    return [
        (r.iteration, r.f_value, r.feas_norm, r.gh_norm, r.gf_norm, r.extra_metric)
        for r in records
    ]


def instance_arrays(inst: Instance) -> list:
    """The arrays of the starting point, to compare repeated set-ups."""
    point = inst.x0
    names = ("u", "sigma", "v") if hasattr(point, "u") else ("values",)
    return [getattr(point, k) for k in names]


# ---------------------------------------------------------------------------
# sphere-scaled
# ---------------------------------------------------------------------------

SPHERE_ITERS = 20


def build_sphere(seed: int, small: bool) -> Instance:
    m, n = (200, 240) if small else (2000, 2400)
    data = problems.gen_sphere_data(m, n, 5, 6, seed)
    x0 = problems.init_sphere(data, seed)
    problem = problems.make_sphere_problem(data)
    config = algorithm.GotdConfig(
        alpha=1.0, beta=10.0, max_iter=2 if small else SPHERE_ITERS, tol=0.0
    )
    return Instance(data, problem, x0, config)


def check_sphere(inst, out, gh, gf):
    d, point = inst.data, out.result.point
    return checks.sphere_failures(
        inst.x0.dense(), point.dense(), point.u, point.v,
        d.omega, d.gamma, d.target, gh, gf,
    )


# ---------------------------------------------------------------------------
# hyperbolic-converge
# ---------------------------------------------------------------------------

def build_hyperbolic(seed: int, small: bool) -> Instance:
    n, m, r = (20, 100, 3) if small else (200, 3000, 10)
    data = problems.gen_hyperbolic_data(n, m, r, seed)
    x0 = problems.init_hyperbolic(data, r)
    problem = problems.make_hyperbolic_problem(data, r)
    # the extra trace column of ``gotd hyperbolic``: the objective ratio f / f0
    f0 = problem.f(manifolds.as_dense(x0))
    problem.extra_metric = lambda X: problem.f(X) / f0
    config = algorithm.GotdConfig(
        alpha=1.0, beta=0.2, max_iter=3 if small else 2000, tol=1e-10
    )
    return Instance(data, problem, x0, config, polish=True)


def check_hyperbolic(inst, out, gh, gf):
    point = out.result.point
    return checks.hyperbolic_failures(
        inst.x0.dense(), point.dense(), point.u, point.v, inst.data.targets,
        gh, gf, manifolds.as_dense(out.polished.point),
    )


# ---------------------------------------------------------------------------
# modes-budget
# ---------------------------------------------------------------------------

MODES_ITERS = 200


def build_modes(seed: int, small: bool) -> Instance:
    n, p = (64, 4) if small else (1024, 10)
    data = problems.gen_modes_problem(n, p, 50.0, 0.6)
    x0 = problems.init_modes(data, seed)
    problem = problems.make_modes_problem(data)
    config = algorithm.GotdConfig(
        alpha=1.0, beta=data.beta_default, max_iter=2 if small else MODES_ITERS, tol=0.0
    )
    return Instance(data, problem, x0, config)


def check_modes(inst, out, gh, gf):
    d = inst.data
    trace = out.result.trace
    return checks.modes_failures(
        inst.x0.values, out.result.point.values, trace[-1].f_value,
        d.hamiltonian, d.s, gh, gf, [r.extra_metric for r in trace],
    )


WORKLOADS = {
    w.name: w
    for w in (
        Workload("sphere-scaled", 1, 3, "max_iter", build_sphere, check_sphere),
        # the iteration count to tol varies by instance (80-99 seen), so a
        # round solves three instances and the spread of their sum is smaller
        Workload("hyperbolic-converge", 3, 5, "converged", build_hyperbolic, check_hyperbolic),
        Workload("modes-budget", 1, 25, "max_iter", build_modes, check_modes),
    )
}
