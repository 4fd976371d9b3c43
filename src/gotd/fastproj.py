"""Fast projector onto the tangent space of the hyperboloid / fixed-rank
intersection.

For a rank-s point X = U diag(sigma) V^T with hyperboloid columns, the
reduced system of the tangent-intersection projection has the factored
form

    A = Diag(d) + (Q^T Q) .* (V V^T),      J X = U P + Q,

with P the coefficients of J X in the U basis, Q the orthogonal residual
and d the squared column norms of P.  A is symmetric positive definite at
transversal points and its action costs O(s^2 (n + m)), so the system is
solved matrix-free by preconditioned conjugate gradients with the exact
diagonal of A as the preconditioner.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NotConverged, ShapeMismatch
from .manifolds import FactoredPoint, FixedRankTangent, as_dense
from .solvers import LinearOperator, pcg

PCG_TOL = 1e-10
PCG_MAX_ITER = 200


@dataclass
class HypLowRankWorkspace:
    """Precomputed factors of the reduced projection system at one point."""

    u: np.ndarray            # (n+1, s) left factor of the point
    right_factor: np.ndarray  # (m, s) right factor V
    jx_coeff: np.ndarray     # P = U^T J X, (s, m)
    jx_perp: np.ndarray      # Q = (I - U U^T) J X, (n+1, m)
    coeff_sq_norms: np.ndarray  # squared column norms of P, (m,)
    j_diag: np.ndarray       # Lorentz signature as a vector, (n+1,)


def build_workspace(X: FactoredPoint, j_diag: np.ndarray) -> HypLowRankWorkspace:
    """Decompose J X = U P + Q and collect the pieces of the reduced system."""
    if j_diag.shape != (X.shape[0],):
        raise ShapeMismatch("signature length does not match the point height")
    U, V = X.u, X.v
    JX = j_diag[:, None] * as_dense(X)
    P = U.T @ JX
    Q = JX - U @ P
    d = np.einsum("ij,ij->j", P, P)
    return HypLowRankWorkspace(U, V, P, Q, d, j_diag)


def apply_reduced_gram(ws: HypLowRankWorkspace, w: np.ndarray) -> np.ndarray:
    """Matrix-free action of A = Diag(d) + (Q^T Q) .* (V V^T) on a vector."""
    if w.shape != (ws.jx_coeff.shape[1],):
        raise ShapeMismatch("vector length does not match the column count")
    out = ws.coeff_sq_norms * w
    Q, V = ws.jx_perp, ws.right_factor
    for l in range(V.shape[1]):
        vl = V[:, l]
        out = out + vl * (Q.T @ (Q @ (vl * w)))
    return out


def dense_reduced_gram(ws: HypLowRankWorkspace) -> np.ndarray:
    """Assemble A densely (testing and small problems only)."""
    Q, V = ws.jx_perp, ws.right_factor
    return np.diag(ws.coeff_sq_norms) + (Q.T @ Q) * (V @ V.T)


def reduced_gram_diag(ws: HypLowRankWorkspace) -> np.ndarray:
    """Exact diagonal of A without assembling it:
    d_i + ||Q_i||^2 ||row_i(V)||^2."""
    Q, V = ws.jx_perp, ws.right_factor
    return ws.coeff_sq_norms + np.einsum(
        "ij,ij->j", Q, Q
    ) * np.einsum("ij,ij->i", V, V)


def project_hyperboloid_lowrank(
    X: FactoredPoint,
    ws: HypLowRankWorkspace,
    xi,
    tol: float = PCG_TOL,
    max_iter: int = PCG_MAX_ITER,
) -> FixedRankTangent:
    """Project an ambient direction onto ker(Dh) within the fixed-rank
    tangent space, using the factored reduced system.

    Solves A lam = b with b_i = (J X)_i^T eta_i for the tangent-projected
    eta, then removes C = U (P Diag(lam)) + (Q Diag(lam) V) V^T.  Both
    eta and the result are factored tangent vectors.
    """
    if ws.u.shape != X.u.shape or ws.u is not X.u and np.abs(ws.u - X.u).max() > 0.0:
        raise ShapeMismatch("workspace was built for a different point")
    if xi.shape != X.shape:
        raise ShapeMismatch(f"expected ambient shape {X.shape}")
    U, V = X.u, X.v
    P, Q = ws.jx_coeff, ws.jx_perp
    eta = FixedRankTangent.from_ambient(X, xi)
    # column i of eta is U (M V^T + Vp^T)_i + Up V_i^T and that of J X is
    # U P_i + Q_i; the cross terms vanish because U^T Q = 0 and U^T Up = 0
    b = np.einsum("ij,ij->j", P, eta.M @ V.T + eta.Vp.T) + np.einsum(
        "ij,ij->i", Q.T @ eta.Up, V
    )

    diag = reduced_gram_diag(ws)
    op = LinearOperator(b.size, lambda w: apply_reduced_gram(ws, w), symmetric=True)
    result = pcg(op, b, precond=lambda v: v / diag, tol=tol, max_iter=max_iter)
    if not result.converged:
        raise NotConverged(
            f"pcg stalled at {result.iters} iterations on the reduced system"
        )
    lam = result.x
    # C in tangent form: M = P Diag(lam) V, Up = Q Diag(lam) V,
    # Vp = (I - V V^T) Diag(lam) P^T
    PL = P * lam[None, :]
    M = PL @ V
    return eta - FixedRankTangent(U, V, M, Q @ (lam[:, None] * V), PL.T - V @ M.T)
