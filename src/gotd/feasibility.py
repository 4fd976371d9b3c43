"""Method of alternating projections between the constraint level set H
and the inner manifold M -- used for feasible initialization and for
post-processing nearly feasible outputs."""

from typing import NamedTuple

import numpy as np

from .errors import DomainViolation
from .manifolds import as_dense


class MapResult(NamedTuple):
    point: object
    feas_norm: float
    iters: int
    converged: bool
    history: list  # feasibility norm after each projection onto M


def alternating_projections(
    manifold, constraint, x0, tol: float = 1e-10, max_iter: int = 1000
) -> MapResult:
    """Iterate X <- P_M(P_H(X)) until ||h(X)|| <= tol or the budget ends.

    ``x0`` is either an ambient matrix, which is first projected onto M,
    or a point of M (anything with ``dense()``), which is used as it is.
    The composition ends with the projection onto M, so the returned
    point satisfies the manifold's structural invariants exactly; under a
    transversal intersection the feasibility norm decays linearly.  An
    ambient ``x0`` with a non-finite entry raises DomainViolation.
    """
    if hasattr(x0, "dense"):
        point = x0
    else:
        x0 = np.asarray(x0, dtype=float)
        if not np.all(np.isfinite(x0)):
            raise DomainViolation("alternating projections need a finite start")
        point = manifold.project(x0)
    feas = float(np.linalg.norm(constraint.value(point)))
    history = [feas]
    iters = 0
    while feas > tol and iters < max_iter:
        point = manifold.project(constraint.project(as_dense(point)))
        feas = float(np.linalg.norm(constraint.value(point)))
        history.append(feas)
        iters += 1
    return MapResult(point, feas, iters, feas <= tol, history)
