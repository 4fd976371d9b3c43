"""Fast projector onto the tangent space of the hyperboloid / fixed-rank
intersection.

For a rank-s point X = U diag(sigma) V^T with hyperboloid columns, the
reduced system of the tangent-intersection projection has the factored
form

    A = Diag(d) + (Q^T Q) .* (V V^T),      J X = U P + Q,

with P the coefficients of J X in the U basis, Q the orthogonal residual
and d the squared column norms of P.  Both have rank s and are stored by
their thin factors: P = C V^T and Q = W V^T with

    C = U^T J U Sigma  (s x s),      W = J U Sigma - U C  ((n+1) x s).

A is symmetric positive definite at transversal points and its action
costs O(s^2 (n + m)), so the system is solved matrix-free by
preconditioned conjugate gradients with the exact diagonal of A as the
preconditioner.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NotConverged, ShapeMismatch
from .manifolds import FactoredPoint, FixedRankTangent
from .solvers import pcg

PCG_TOL = 1e-10
PCG_MAX_ITER = 200


@dataclass
class HypLowRankWorkspace:
    """Precomputed factors of the reduced projection system at one point."""

    u: np.ndarray            # (n+1, s) left factor of the point
    right_factor: np.ndarray  # (m, s) right factor V
    coeff_core: np.ndarray   # C = U^T J U Sigma, (s, s); P = C V^T
    perp_factor: np.ndarray  # W = J U Sigma - U C, (n+1, s); Q = W V^T
    perp_gram: np.ndarray    # W^T W, (s, s); Q^T Q = V W^T W V^T
    coeff_sq_norms: np.ndarray  # squared column norms of P, (m,)
    j_diag: np.ndarray       # Lorentz signature as a vector, (n+1,)


def build_workspace(X: FactoredPoint, j_diag: np.ndarray) -> HypLowRankWorkspace:
    """Decompose J X = U P + Q on the factors and collect the pieces of
    the reduced system, at O((n + m) s^2)."""
    if j_diag.shape != (X.shape[0],):
        raise ShapeMismatch("signature length does not match the point height")
    U, V = X.u, X.v
    JA = j_diag[:, None] * (U * X.sigma)
    C = U.T @ JA
    W = JA - U @ C
    VC = V @ C.T  # row i is column i of P
    d = np.einsum("ij,ij->i", VC, VC)
    return HypLowRankWorkspace(U, V, C, W, W.T @ W, d, j_diag)


def apply_reduced_gram(ws: HypLowRankWorkspace, w: np.ndarray) -> np.ndarray:
    """Matrix-free action of A = Diag(d) + (Q^T Q) .* (V V^T) on a vector:

        (A w)_i = d_i w_i + v_i^T (W^T W) (V^T Diag(w) V) v_i.
    """
    V = ws.right_factor
    if w.shape != (V.shape[0],):
        raise ShapeMismatch("vector length does not match the column count")
    K = ws.perp_gram @ (V.T @ (w[:, None] * V))
    return ws.coeff_sq_norms * w + np.einsum("ij,ij->i", V @ K, V)


def dense_reduced_gram(ws: HypLowRankWorkspace) -> np.ndarray:
    """Assemble A densely (testing and small problems only)."""
    V = ws.right_factor
    Q = ws.perp_factor @ V.T
    return np.diag(ws.coeff_sq_norms) + (Q.T @ Q) * (V @ V.T)


def reduced_gram_diag(ws: HypLowRankWorkspace) -> np.ndarray:
    """Exact diagonal of A without assembling it:
    d_i + ||Q_i||^2 ||row_i(V)||^2, with ||Q_i||^2 = v_i^T W^T W v_i."""
    V = ws.right_factor
    return ws.coeff_sq_norms + np.einsum(
        "ij,ij->i", V @ ws.perp_gram, V
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
    eta, then removes the correction U P Diag(lam) + (Q Diag(lam) V) V^T.
    Both eta and the result are factored tangent vectors, and no
    (n+1) x m array is formed unless xi is one.
    """
    if ws.u.shape != X.u.shape or ws.u is not X.u and np.abs(ws.u - X.u).max() > 0.0:
        raise ShapeMismatch("workspace was built for a different point")
    if xi.shape != X.shape:
        raise ShapeMismatch(f"expected ambient shape {X.shape}")
    U, V = X.u, X.v
    C, W = ws.coeff_core, ws.perp_factor
    eta = FixedRankTangent.from_ambient(X, xi)
    # column i of eta is U (M V^T + Vp^T)_i + Up V_i^T and that of J X is
    # U C v_i + W v_i; the cross terms vanish because U^T W = 0 and
    # U^T Up = 0
    b = np.einsum("ij,ij->i", V @ C.T, V @ eta.M.T + eta.Vp) + np.einsum(
        "ij,ij->i", V @ (W.T @ eta.Up), V
    )

    diag = reduced_gram_diag(ws)
    result = pcg(
        lambda w: apply_reduced_gram(ws, w), b,
        precond=lambda v: v / diag, tol=tol, max_iter=max_iter,
    )
    if not result.converged:
        raise NotConverged(
            f"pcg stalled at {result.iters} iterations on the reduced system"
        )
    lam = result.x
    # the correction U P Diag(lam) + Q Diag(lam) V V^T in tangent form,
    # with K = V^T Diag(lam) V: M = C K, Up = W K,
    # Vp = (I - V V^T) Diag(lam) V C^T = Diag(lam) V C^T - V (C K)^T
    LV = lam[:, None] * V
    K = V.T @ LV
    M = C @ K
    return eta - FixedRankTangent(U, V, M, W @ K, LV @ C.T - V @ M.T)
