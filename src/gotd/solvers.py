"""Shared numerical kernels: truncated SVD, a pseudo-inverse solve,
preconditioned conjugate gradients on a matrix-free operator, and a
symmetric Sylvester solve factored once per matrix."""

from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import IllConditioned, RankDeficient

RANK_RTOL = 1e-12
COND_RTOL = 1e-12


def truncated_svd(X: np.ndarray, r: int):
    """Best rank-r approximation factors of a dense matrix.

    Returns (U, sigma, V) with U (m, r) and V (n, r) having orthonormal
    columns and sigma a nonincreasing positive vector, so that
    X ~ (U * sigma) @ V.T in the sense of Eckart--Young.

    Raises RankDeficient when sigma_r <= 1e-12 * sigma_1.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise RankDeficient("expected a matrix")
    if not 1 <= r <= min(X.shape):
        raise RankDeficient(f"rank {r} out of range for shape {X.shape}")
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
    converged: bool


def pcg(
    A: Callable[[np.ndarray], np.ndarray],
    b: np.ndarray,
    precond: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    tol: float = 1e-10,
    max_iter: int = 200,
) -> PcgResult:
    """Preconditioned conjugate gradients for a symmetric PSD operator,
    given as the callable ``A(v) = A v``.

    Stops when ||A x - b|| <= tol * ||b||.  On budget exhaustion the best
    iterate seen (smallest residual) is returned with converged=False.
    """
    b = np.asarray(b, dtype=float)
    nb = float(np.linalg.norm(b))
    x = np.zeros_like(b)
    if nb == 0.0:
        return PcgResult(x, 0, True)
    r = b.copy()
    z = precond(r.copy()) if precond is not None else r.copy()
    p = z.copy()
    rz = float(r @ z)
    best_x = x.copy()
    best_res = nb
    for it in range(1, max_iter + 1):
        Ap = A(p)
        pAp = float(p @ Ap)
        if pAp <= 0.0:
            # numerically lost positive definiteness; stop with best iterate
            return PcgResult(best_x, it, False)
        step = rz / pAp
        x = x + step * p
        r = r - step * Ap
        res = float(np.linalg.norm(r))
        if res < best_res:
            best_res = res
            best_x = x.copy()
        if res <= tol * nb:
            return PcgResult(x, it, True)
        z = precond(r.copy()) if precond is not None else r.copy()
        rz_new = float(r @ z)
        p = z + (rz_new / rz) * p
        rz = rz_new
    return PcgResult(best_x, max_iter, False)


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

