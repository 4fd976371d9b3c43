"""Shared numerical kernels: truncated SVD, a pseudo-inverse solve,
preconditioned conjugate gradients on a matrix-free operator, and a
symmetric Sylvester solve factored once per matrix."""

import math
from typing import Callable, NamedTuple

import numpy as np

from .errors import DomainViolation, IllConditioned, NotConverged, RankDeficient

RANK_RTOL = 1e-12
COND_RTOL = 1e-12


def truncated_svd(X: np.ndarray, r: int):
    """Best rank-r approximation factors of a dense matrix.

    Returns (U, sigma, V) with U (m, r) and V (n, r) having orthonormal
    columns and sigma a nonincreasing positive vector, so that
    X ~ (U * sigma) @ V.T in the sense of Eckart--Young.

    Raises RankDeficient when sigma_r <= 1e-12 * sigma_1, and
    DomainViolation for a non-finite entry, on which LAPACK's SVD fails or,
    for an inf in some columns, never returns.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise RankDeficient("expected a matrix")
    if not 1 <= r <= min(X.shape):
        raise RankDeficient(f"rank {r} out of range for shape {X.shape}")
    if not np.all(np.isfinite(X)):
        raise DomainViolation("cannot take the SVD of a matrix with a non-finite entry")
    U, s, Vt = np.linalg.svd(X, full_matrices=False)
    if s[r - 1] <= RANK_RTOL * s[0]:
        raise RankDeficient(
            f"numerical rank below {r}: sigma_{r} = {s[r - 1]:.3e}, "
            f"sigma_1 = {s[0]:.3e}"
        )
    return U[:, :r].copy(), s[:r].copy(), Vt[:r].T.copy()


def pinv_apply(A: np.ndarray, b: np.ndarray, rel_tol: float = 1e-12) -> np.ndarray:
    """Apply the pseudo-inverse of a symmetric PSD matrix to a vector.

    Eigenvalues below rel_tol * lambda_max are treated as exact zeros, so
    the result lies in the span of the retained eigenvectors.  Total: the
    zero matrix maps everything to zero.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    d, Q = np.linalg.eigh(0.5 * (A + A.T))
    dmax = d[-1] if d.size else 0.0
    if dmax <= 0.0:
        return np.zeros_like(b)
    keep = d > rel_tol * dmax
    coeff = np.where(keep, Q.T @ b, 0.0)
    inv = np.where(keep, d, 1.0)
    return Q @ (coeff / inv)


class PcgResult(NamedTuple):
    x: np.ndarray
    iters: int
    lifted: object  # lift(x)


def pcg(
    A: Callable[[np.ndarray], np.ndarray],
    b: np.ndarray,
    precond: Callable[[np.ndarray], np.ndarray],
    tol: float,
    max_iter: int,
    lift: Callable[[np.ndarray], object],
) -> PcgResult:
    """Preconditioned conjugate gradients for the symmetric PSD operator
    v -> A(lift(v)), given as the two callables, on arrays of any shape
    under the Frobenius inner product; ``precond`` applies the
    preconditioner (``lambda r: r`` runs plain CG).

    Each iteration lifts its search direction p once, and the result
    carries ``lifted`` = lift(x).  When CG ends after its first iteration,
    x = step p, and ``lifted`` is step lift(p), so a caller that needs
    lift(x) pays no further lift; otherwise it costs one more lift.
    Summing the lifted directions beside x would cost one update in the
    lifted space per iteration instead, more than one lift where the lift
    is as cheap as a masked product (the modes pair).  With the identity
    ``lift``, the operator is A and ``lifted`` equals x.

    Stops when ||A lift(x) - b|| <= tol * ||b||.  Raises NotConverged
    when max_iter iterations (possibly none) do not reach that, or when
    the curvature <p, A lift(p)> is not positive; a NaN curvature stops it
    too.  ``A``, ``lift`` and ``precond`` must not modify their argument:
    no vector is updated in place here, so none is copied.
    """
    b = np.asarray(b, dtype=float)
    # np.linalg.norm, sqrt(<b, b>), bit for bit without its overhead
    nb = math.sqrt(np.vdot(b, b))
    x = np.zeros_like(b)
    if nb == 0.0:
        return PcgResult(x, 0, lift(x))
    r = b
    z = precond(r)
    p = z
    rz = float(np.vdot(r, z))
    it = 0
    for it in range(1, max_iter + 1):
        lp = lift(p)
        Ap = A(lp)
        pAp = float(np.vdot(p, Ap))
        if not pAp > 0.0:
            break
        step = rz / pAp
        x = x + step * p
        r = r - step * Ap
        if math.sqrt(np.vdot(r, r)) <= tol * nb:
            return PcgResult(x, it, step * lp if it == 1 else lift(x))
        z = precond(r)
        rz_new = float(np.vdot(r, z))
        p = z + (rz_new / rz) * p
        rz = rz_new
    raise NotConverged(f"pcg stalled at {it} iterations")


def sym_sylvester_solver(G: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """The solve of G L + L G = B for symmetric L, with G symmetric
    positive definite, as a callable B -> L.

    Diagonalizes G = Q D Q^T once; each call divides elementwise by
    d_i + d_j.
    """
    G = np.asarray(G, dtype=float)
    if G.ndim != 2 or G.shape[0] != G.shape[1]:
        raise IllConditioned("G must be a square matrix")
    d, Q = np.linalg.eigh(0.5 * (G + G.T))
    if d[0] <= COND_RTOL * d[-1] or d[-1] <= 0:
        raise IllConditioned(
            f"Gram eigenvalue ratio {d[0]:.3e} / {d[-1]:.3e} below {COND_RTOL:g}"
        )
    denom = d[:, None] + d[None, :]

    def solve(B: np.ndarray) -> np.ndarray:
        B = np.asarray(B, dtype=float)
        if B.shape != G.shape:
            raise IllConditioned("G and B must be square matrices of equal size")
        L = Q @ ((Q.T @ (0.5 * (B + B.T)) @ Q) / denom) @ Q.T
        return 0.5 * (L + L.T)

    return solve

