"""Core iteration: feasibility and optimality directions, the tangent
intersection projection, and the retraction-based update loop.

One step moves a point X on the inner manifold M along

    alpha * G_h(X) + beta * G_f(X),

followed by a retraction back onto M.  G_h is the Gauss--Newton direction
for ``h(X) = 0`` projected onto the tangent space of M; G_f is the
negative objective gradient projected onto the subspace
S(X) = ker(Dh_X) within T_M(X).  The two directions are orthogonal by
construction, so feasibility and objective progress do not fight each
other.
"""

import csv
import time
from dataclasses import dataclass, fields
from enum import Enum
from typing import Callable, Optional

import numpy as np

from .errors import Diverged, GotdError, IllConditioned
from .manifolds import norm
from .solvers import pcg
# no caller here; perfbench/test_checks.py checks that its tracer wraps this name
from .solvers import pinv_apply  # noqa: F401

# relative residual at which CG stops.  With the Jacobi preconditioner of a
# mask, 1e-12 took a 200-step modes run (n = 256, p = 10) off the exact
# projection's trace by 1.5x of 1e-12 relative + 1e-14 absolute in ||h||
# and ||G_h||; 1e-13 keeps it at 0.26x (0.74x at n = 128, p = 12)
PCG_TOL = 1e-13
# CG ends in at most q steps in exact arithmetic; the slack absorbs rounding
PCG_ITERS_PER_DIM = 2


@dataclass
class Problem:
    """Objective + constraint pair defining one run.

    Every callable receives the manifold point itself (a
    :class:`~gotd.manifolds.FactoredPoint`, a
    :class:`~gotd.manifolds.SupportPoint`, ...).  The gradient comes from
    ``value_and_grad``, which returns ``(f, grad)`` from one evaluation,
    or from ``grad_f`` when a problem has no ``value_and_grad``; one of
    the two must be set.  A gradient may be any operand that the
    manifold's ``tangent_project`` takes: a sparse matrix, or a tangent
    vector already projected, as the sphere and hyperbolic pairs return.
    ``extra_metric`` is evaluated on traced iterates (test error, ...).
    """

    manifold: object
    constraint: object
    f: Callable[[object], float]
    grad_f: Optional[Callable[[object], object]] = None
    extra_metric: Optional[Callable[[object], float]] = None
    value_and_grad: Optional[Callable[[object], tuple]] = None

    def __post_init__(self):
        if self.value_and_grad is None and self.grad_f is None:
            raise ValueError("a problem needs value_and_grad or grad_f")


@dataclass
class GotdConfig:
    alpha: float = 1.0
    beta: float = 1.0
    max_iter: int = 2000
    tol: float = 1e-10
    trace_every: int = 1

    def __post_init__(self):
        if not (0.0 < self.alpha < np.inf and 0.0 < self.beta < np.inf):
            raise ValueError("step sizes must be finite and positive")
        if not self.tol >= 0.0:
            raise ValueError("tolerance must be nonnegative")
        budgets = (self.max_iter, self.trace_every)
        if any(isinstance(n, bool) or not isinstance(n, (int, np.integer)) for n in budgets):
            raise ValueError("iteration budgets must be integers")
        if self.max_iter < 0 or self.trace_every < 1:
            raise ValueError("invalid iteration budget")


@dataclass
class TraceRecord:
    iteration: int
    wall_seconds: float
    f_value: float
    feas_norm: float
    gh_norm: float
    gf_norm: float
    extra_metric: Optional[float] = None


class RunStatus(Enum):
    CONVERGED = "converged"
    MAX_ITER = "max_iter"
    ABORTED = "aborted"


@dataclass
class GotdResult:
    """The last point of a run, its trace and how it ended; an
    ``ABORTED`` run also carries the exception that ended it."""

    point: object
    trace: list
    status: RunStatus
    reason: str = ""
    error: Optional[GotdError] = None

    @property
    def iterations(self) -> int:
        return self.trace[-1].iteration if self.trace else 0


def gauss_newton_direction(constraint, X, hv=None):
    """d = -Dh* (Dh Dh*)^{-1} h(X): the least-squares step toward {h = 0}
    within the normal space of the level set through X.

    ``hv`` is h(X) when the caller has it already.
    """
    if hv is None:
        hv = constraint.value(X)
    return -constraint.dh_adjoint(X, constraint.gram_solver(X)(hv))


def feasibility_direction(manifold, constraint, point, hv=None):
    """Gauss--Newton direction projected onto the tangent space of M;
    ``hv`` as in :func:`gauss_newton_direction`."""
    return manifold.tangent_project(point, gauss_newton_direction(constraint, point, hv))


def tangent_intersection_project(manifold, constraint, point, xi):
    """Orthogonal projection of xi onto S(X), the part of the tangent
    space of M annihilated by Dh_X.

    With Phi = P_T . Dh* and the reduced Gram operator B = Dh . Phi,

        P_S(xi) = xi_bar - Phi(lam),   B lam = Dh(xi_bar),   xi_bar = P_T(xi).

    B is applied matrix-free through the contract maps and the system is
    solved by conjugate gradients, which apply Phi once per iteration and
    return Phi(lam): from the one image they formed when they end after
    one iteration (the sphere and hyperbolic pairs), so the projection
    then costs one ``dh_adjoint``, and by one more Phi otherwise.  The
    preconditioner is ``constraint.reduced_gram_solver(point)``: the
    exact B^-1 for the oblique map, for the hyperboloid map at a
    fixed-rank point (O(m s^2) to build, so CG ends after one iteration)
    and for both at a sparse point; for the Stiefel map, the inverse of B's
    diagonal there and of Dh Dh* elsewhere.  B = Phi^T Phi may
    be singular (for instance at a sparsity point whose columns have
    disjoint supports), but the right-hand side Phi^T xi_bar lies in its
    range, CG from zero stays there, and every solution gives the same
    Phi(lam).  CG raises NotConverged when it misses ``PCG_TOL`` within
    its budget.
    """
    xi_bar = manifold.tangent_project(point, xi)

    def phi(lam):
        return manifold.tangent_project(point, constraint.dh_adjoint(point, lam))

    precond = constraint.reduced_gram_solver(point)
    phi_lam = pcg(
        lambda z: constraint.dh(point, z), constraint.dh(point, xi_bar), precond,
        tol=PCG_TOL, max_iter=PCG_ITERS_PER_DIM * constraint.q, lift=phi,
    ).lifted
    return xi_bar - phi_lam


def _value_and_gradient(problem: Problem, point):
    """(f, grad f) from ``value_and_grad``, else (None, ``grad_f``)."""
    if problem.value_and_grad is not None:
        return problem.value_and_grad(point)
    return None, problem.grad_f(point)


def optimality_direction(problem: Problem, point):
    """Projection of -grad f onto S(X) by
    :func:`tangent_intersection_project`, with the gradient read as
    :func:`gotd_run` reads it."""
    grad = _value_and_gradient(problem, point)[1]
    return tangent_intersection_project(problem.manifold, problem.constraint, point, -grad)


def _evaluate(problem: Problem, point):
    """(f, ||h||, G_h, G_f) at a point, from one evaluation of f and its
    gradient and one of h; G_h factors Dh Dh*, and G_f hands -grad f to
    :func:`tangent_intersection_project`, which builds the preconditioner
    of its reduced Gram operator."""
    f_val, grad = _value_and_gradient(problem, point)
    f_val = problem.f(point) if f_val is None else f_val
    hv = problem.constraint.value(point)
    gh = feasibility_direction(problem.manifold, problem.constraint, point, hv)
    gf = tangent_intersection_project(problem.manifold, problem.constraint, point, -grad)
    return float(f_val), float(np.linalg.norm(hv)), gh, gf


def gotd_step(problem: Problem, point, alpha: float, beta: float):
    """One update, evaluated as in :func:`gotd_run`: returns (next point,
    ||G_h||, ||G_f||)."""
    _, _, gh, gf = _evaluate(problem, point)
    new_point = problem.manifold.retract(point, alpha * gh + beta * gf)
    return new_point, norm(gh), norm(gf)


def gotd_run(problem: Problem, x0, config: GotdConfig) -> GotdResult:
    """Iterate from x0 on M until max{||G_h||, ||G_f||} <= tol or the
    budget runs out.

    The point itself is handed to the objective, the constraint and the
    projections, so a factored iterate stays factored through the step.
    Each iterate is evaluated once: ``value_and_grad`` (or ``grad_f`` and
    ``f``) and ``h``, then the two directions.
    The trace records every ``trace_every``-th iterate plus the final
    one; wall time is measured from the first iteration.  A non-finite
    or huge value, or a non-finite extra metric, raises ``Diverged``; it
    and any other ``GotdError`` from the step (stalled CG, singular Gram,
    degenerate retraction, ...) or the extra metric end the run
    ``ABORTED``, with the exception as ``error`` and the iterate index in
    the reason string.  An ``np.linalg.LinAlgError`` is re-raised as
    ``IllConditioned`` with the original as its ``__cause__``; any other
    exception propagates to the caller.  An extra metric may return None,
    which the trace records as empty.
    """
    point = x0
    trace: list = []
    t_start = time.perf_counter()
    for k in range(config.max_iter + 1):
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                f_val, feas, gh_vec, gf_vec = _evaluate(problem, point)
            gh = norm(gh_vec)
            gf = norm(gf_vec)
            if not np.isfinite([f_val, feas, gh, gf]).all() or feas > 1e12:
                raise Diverged("diverged (non-finite or huge residual)")
            done = max(gh, gf) <= config.tol or k == config.max_iter
            if k % config.trace_every == 0 or done:
                extra = problem.extra_metric(point) if problem.extra_metric else None
                if extra is not None and not np.isfinite(extra):
                    raise Diverged(f"extra metric is {extra}")
                trace.append(
                    TraceRecord(
                        k, time.perf_counter() - t_start, f_val, feas, gh, gf, extra
                    )
                )
            if done:
                status = RunStatus.CONVERGED if max(gh, gf) <= config.tol else RunStatus.MAX_ITER
                return GotdResult(point, trace, status)
            point = problem.manifold.retract(
                point, config.alpha * gh_vec + config.beta * gf_vec
            )
        except (GotdError, np.linalg.LinAlgError) as exc:
            error = exc
            if isinstance(exc, np.linalg.LinAlgError):
                # the same arguments give the same reason string
                error = IllConditioned(*exc.args)
                error.__cause__ = exc
            return GotdResult(
                point, trace, RunStatus.ABORTED, f"iteration {k}: {error}", error
            )
    raise AssertionError("unreachable")


# balance factors 2**0, ..., 2**LYAPUNOV_MAX_POWER are tried
LYAPUNOV_MAX_POWER = 10


def lyapunov_value(f_val: float, feas_norm: float, lam: float) -> float:
    """Balance of objective and feasibility: f + lam * ||h||."""
    return f_val + lam * feas_norm


def find_monotone_balance(
    f_vals,
    feas_norms,
    after: int = 5,
    slack: float = 1.01,
    noise_floor: float = 0.0,
) -> Optional[float]:
    """Smallest power-of-two balance factor lam for which the Lyapunov
    values f + lam * ||h|| do not increase after the first ``after``
    iterates, up to the multiplicative ``slack``; None if no power up to
    2**LYAPUNOV_MAX_POWER works.

    ``noise_floor`` adds an absolute allowance of noise_floor * max(values):
    once the sequence has decayed that far below its peak, consecutive
    differences are rounding residue and cannot certify anything.
    """
    for p in range(LYAPUNOV_MAX_POWER + 1):
        lam = 2.0**p
        values = [lyapunov_value(f, h, lam) for f, h in zip(f_vals, feas_norms)]
        absolute = noise_floor * max(values, default=0.0)
        tail = values[after:]
        if all(b <= slack * a + absolute for a, b in zip(tail, tail[1:])):
            return lam
    return None


TRACE_HEADER = ["iter", "time_s", "f", "feas_norm", "gh_norm", "gf_norm", "extra"]


def write_trace_csv(trace, path) -> None:
    """Serialize trace records field by field: the iteration as an int,
    every other value in full-precision scientific notation so files
    round-trip exactly, and None as empty."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACE_HEADER)
        for rec in trace:
            k, *values = (getattr(rec, f.name) for f in fields(rec))
            writer.writerow([k, *("" if v is None else f"{v:.17e}" for v in values)])


def read_trace_csv(path):
    """Parse a trace file back into records."""
    out = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError("trace file has no header")
        if header != TRACE_HEADER:
            raise ValueError(f"unexpected trace header: {header}")
        for row in reader:
            if len(row) != len(TRACE_HEADER):
                raise ValueError(
                    f"trace row {reader.line_num} has {len(row)} fields, "
                    f"expected {len(TRACE_HEADER)}: {row}"
                )
            out.append(
                TraceRecord(
                    *(
                        _parse_trace_field(name, text, reader.line_num)
                        for name, text in zip(TRACE_HEADER, row)
                    )
                )
            )
    return out


def _parse_trace_field(name: str, text: str, line_num: int):
    """One field of a trace row: ``iter`` an int, ``extra`` a float or
    empty, every other field a float."""
    try:
        if name == "iter":
            return int(text)
        if name == "extra" and text == "":
            return None
        return float(text)
    except ValueError:
        raise ValueError(
            f"trace row {line_num}: field {name!r} is not a number: {text!r}"
        ) from None
