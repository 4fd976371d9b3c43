"""Optimization over the intersection of a smooth manifold and the zero
set of a smooth constraint map, via orthogonal tangent directions.

The iterates stay on the inner manifold (fixed-rank matrices or a
sparsity set); one tangential direction drives the constraint residual to
zero through projected Gauss--Newton steps, and an orthogonal one
decreases the objective inside the tangent space of the constraint's
level set.  One matrix-free projector onto that tangent space serves
every pair.  Includes alternating-projection feasibility, three benchmark
problems, and a CLI runner.
"""

from .algorithm import (
    GotdConfig,
    GotdResult,
    Problem,
    RunStatus,
    TraceRecord,
    feasibility_direction,
    find_monotone_balance,
    gauss_newton_direction,
    gotd_run,
    gotd_step,
    lyapunov_value,
    optimality_direction,
    read_trace_csv,
    tangent_intersection_project,
    write_trace_csv,
)
from .constraints import HyperboloidConstraint, ObliqueConstraint, StiefelConstraint
from .errors import (
    DegenerateProjection,
    DegenerateStep,
    DomainViolation,
    GotdError,
    IllConditioned,
    InfeasibleSampling,
    NotConverged,
    NotTangent,
    RankDeficient,
    ShapeMismatch,
    UsageError,
)
from .feasibility import MapResult, alternating_projections
from .manifolds import (
    FactoredPoint,
    FixedRankManifold,
    FixedRankTangent,
    LowRankMatrix,
    SparsityManifold,
    SupportPoint,
    as_dense,
)
from .problems import (
    CompressedModesProblem,
    HyperbolicFitProblem,
    SphereFitProblem,
    gen_hyperbolic_data,
    gen_modes_problem,
    gen_sphere_data,
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
    sparsity_ratio,
    sphere_grad,
    sphere_objective,
    sphere_test_error,
)
from .solvers import pcg

__version__ = "0.1.0"
