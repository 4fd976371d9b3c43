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
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional

import numpy as np

from .errors import GotdError, NotConverged
from .manifolds import norm
from .solvers import pcg
# no caller here; perfbench/test_checks.py checks that its tracer wraps this name
from .solvers import pinv_apply  # noqa: F401

PCG_TOL = 1e-12
# CG ends in at most q steps in exact arithmetic; the slack absorbs rounding
PCG_ITERS_PER_DIM = 2


@dataclass
class Problem:
    """Objective + constraint pair defining one run.

    ``f``, ``grad_f``, ``value_and_grad`` and ``extra_metric`` receive the
    manifold point itself (a :class:`~gotd.manifolds.FactoredPoint`, a
    :class:`~gotd.manifolds.SupportPoint`, ...); the package's objectives
    accept dense arrays as well.  ``grad_f`` may return any operand that
    the manifold's ``tangent_project`` takes, for instance a sparse matrix
    for a fixed-rank manifold.  ``value_and_grad``, when set, returns
    ``(f, grad)`` from one evaluation of the point, and the loop calls it
    once per iterate in place of ``f`` and ``grad_f``; its gradient may
    already be projected onto the tangent space of M (the sphere and
    hyperbolic pairs return a :class:`~gotd.manifolds.FixedRankTangent` at
    a fixed-rank point), because only that projection enters the step.  The projection onto S(X) is
    :func:`tangent_intersection_project` for every pair; it needs only
    the contract maps.  ``extra_metric`` is evaluated on traced iterates
    (test error, sparsity, cost ratio, ...).
    """

    manifold: object
    constraint: object
    f: Callable[[object], float]
    grad_f: Callable[[object], object]
    extra_metric: Optional[Callable[[object], float]] = None
    value_and_grad: Optional[Callable[[object], tuple]] = None


@dataclass
class GotdConfig:
    alpha: float = 1.0
    beta: float = 1.0
    max_iter: int = 2000
    tol: float = 1e-10
    trace_every: int = 1

    def __post_init__(self):
        if self.alpha <= 0 or self.beta <= 0:
            raise ValueError("step sizes must be positive")
        if self.tol < 0:
            raise ValueError("tolerance must be nonnegative")
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
    point: object
    trace: list
    status: RunStatus
    reason: str = ""

    @property
    def iterations(self) -> int:
        return self.trace[-1].iteration if self.trace else 0


def gauss_newton_direction(constraint, X, hv=None, gram=None):
    """d = -Dh* (Dh Dh*)^{-1} h(X): the least-squares step toward {h = 0}
    within the normal space of the level set through X.

    ``hv`` is h(X) and ``gram`` is ``constraint.gram_solver(X)`` when the
    caller has them already.
    """
    if hv is None:
        hv = constraint.value(X)
    if gram is None:
        gram = constraint.gram_solver(X)
    return -constraint.dh_adjoint(X, gram(hv))


def feasibility_direction(manifold, constraint, point, hv=None, gram=None):
    """Gauss--Newton direction projected onto the tangent space of M;
    ``hv`` and ``gram`` as in :func:`gauss_newton_direction`."""
    return manifold.tangent_project(
        point, gauss_newton_direction(constraint, point, hv, gram)
    )


def tangent_intersection_project(manifold, constraint, point, xi, gram=None):
    """Orthogonal projection of xi onto S(X), the part of the tangent
    space of M annihilated by Dh_X.

    With Phi = P_T . Dh* and the reduced Gram operator B = Dh . Phi,

        P_S(xi) = xi_bar - Phi(lam),   B lam = Dh(xi_bar),   xi_bar = P_T(xi).

    B is applied matrix-free through the contract maps and the system is
    solved by conjugate gradients preconditioned with the inverse of
    Dh Dh*, ``gram`` (``constraint.gram_solver(point)`` unless the caller
    has it already).  B = Phi^T Phi may be singular (for instance at a
    sparsity point whose columns have disjoint supports), but the
    right-hand side Phi^T xi_bar lies in its range, CG from zero stays
    there, and every solution gives the same Phi(lam).  Raises
    NotConverged when CG misses ``PCG_TOL`` within its budget.
    """
    xi_bar = manifold.tangent_project(point, xi)
    rhs = constraint.dh(point, xi_bar)

    def phi(lam):
        return manifold.tangent_project(point, constraint.dh_adjoint(point, lam))

    result = pcg(
        lambda lam: constraint.dh(point, phi(lam)), rhs,
        precond=constraint.gram_solver(point) if gram is None else gram,
        tol=PCG_TOL, max_iter=PCG_ITERS_PER_DIM * constraint.q,
    )
    if not result.converged:
        raise NotConverged(
            f"pcg stalled at {result.iters} iterations on the reduced system"
        )
    return xi_bar - phi(result.x)


def optimality_direction(problem: Problem, point, grad=None, gram=None):
    """Projection of -grad f onto S(X) by
    :func:`tangent_intersection_project`.

    ``grad`` is the gradient at the point when the caller has it already
    (it may be tangent-projected), and ``gram`` the constraint's Gram
    solver there.
    """
    if grad is None:
        grad = problem.grad_f(point)
    return tangent_intersection_project(
        problem.manifold, problem.constraint, point, -grad, gram
    )


def _evaluate(problem: Problem, point):
    """(f, ||h||, G_h, G_f) at a point, from one evaluation of f and its
    gradient, one of h and one factorization of Dh Dh*."""
    if problem.value_and_grad is not None:
        f_val, grad = problem.value_and_grad(point)
    else:
        f_val, grad = problem.f(point), problem.grad_f(point)
    constraint = problem.constraint
    hv = constraint.value(point)
    gram = constraint.gram_solver(point)
    gh = feasibility_direction(problem.manifold, constraint, point, hv, gram)
    gf = optimality_direction(problem, point, grad, gram)
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
    Each iterate is evaluated once: ``value_and_grad`` (or ``f`` and
    ``grad_f``), ``h`` and the Gram solver of Dh Dh* are computed once and
    shared by both directions.
    The trace records every ``trace_every``-th iterate plus the final
    one; wall time is measured from the first iteration.  Any numerical
    failure (rank collapse, singular Gram, degenerate retraction,
    non-finite values, an extra metric that fails or is not finite)
    aborts the run with the iterate index in the reason string; an extra
    metric may return None, which the trace records as empty.
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
                return GotdResult(
                    point, trace, RunStatus.ABORTED,
                    f"iteration {k}: diverged (non-finite or huge residual)",
                )
            done = max(gh, gf) <= config.tol or k == config.max_iter
            if k % config.trace_every == 0 or done:
                extra = problem.extra_metric(point) if problem.extra_metric else None
                if extra is not None and not np.isfinite(extra):
                    return GotdResult(
                        point, trace, RunStatus.ABORTED,
                        f"iteration {k}: extra metric is {extra}",
                    )
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
            return GotdResult(
                point, trace, RunStatus.ABORTED, f"iteration {k}: {exc}"
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
    """Serialize trace records; floats in full-precision scientific
    notation so files round-trip exactly."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACE_HEADER)
        for rec in trace:
            writer.writerow(
                [
                    rec.iteration,
                    f"{rec.wall_seconds:.17e}",
                    f"{rec.f_value:.17e}",
                    f"{rec.feas_norm:.17e}",
                    f"{rec.gh_norm:.17e}",
                    f"{rec.gf_norm:.17e}",
                    "" if rec.extra_metric is None else f"{rec.extra_metric:.17e}",
                ]
            )


def read_trace_csv(path):
    """Parse a trace file back into records."""
    out = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
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
