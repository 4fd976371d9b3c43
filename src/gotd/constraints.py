"""Level-set constraint maps h with zero set H = {h = 0}.

Three instances share one contract -- ``value``, ``dh`` (differential),
``dh_adjoint``, ``gram_solver(X)`` (the inverse of Dh Dh*, factored once
at a point and returned as a callable), ``gram_solve`` (one solve by it),
``reduced_gram_solver(X)`` (a preconditioner for the reduced Gram
operator B = Dh P_T Dh* at a point X of the inner manifold, also a
callable) and ``project`` (metric projection onto H, which refuses a
non-finite input with DegenerateProjection), each checking its operands
against the constraint's ``shape``:

* ``ObliqueConstraint``   -- rows of unit Euclidean norm,
* ``HyperboloidConstraint`` -- columns on the upper hyperboloid sheet
  under the Lorentz signature diag(-1, 1, ..., 1),
* ``StiefelConstraint``   -- orthonormal columns, X^T X = I.

The oblique and hyperboloid values and multipliers are vectors in R^q;
the Stiefel value X^T X - I and its multipliers are p x p matrices, and
the adjoint identities hold under the Frobenius inner product.  Either way
q is the dimension of the multiplier space.  The oblique and hyperboloid
Dh Dh* are diagonal and share one solve.

P_T is read from the point: at a fixed-rank point it projects at X's own
factors, and at a sparse point (a ``SupportPoint``) it multiplies by the
0/1 ``X.mask``.  The reduced Gram solver is the exact B^-1 for the
oblique map (Dh* lam is already tangent, so B = Dh Dh*), for the
hyperboloid map at a fixed-rank point (B is a diagonal plus a rank-s
term, inverted by the Woodbury identity) and for both at a sparse point.
The Stiefel map gives the inverse of B's diagonal at a sparse point (a
Jacobi preconditioner) and (Dh Dh*)^-1 at any other.

Points X may be manifold points or plain arrays, and directions Z tangent
vectors, low-rank operands or arrays.  The oblique and hyperboloid maps
work on a fixed-rank point's ``v`` and on what the point forms once:
``us`` = U Sigma, ``vs`` = V Sigma and X's squared row and column norms
(``row_sq_norms``, ``col_sq_norms``), at O((m + n) r^2) for a factored
direction; the Stiefel map acts on the ambient matrix.
"""

import numpy as np

from .errors import DegenerateProjection, IllConditioned, ShapeMismatch
from .manifolds import FactoredPoint, FixedRankTangent, LowRankMatrix, SupportPoint, as_dense
from .solvers import COND_RTOL, sym_sylvester_solver

SECULAR_TOL = 1e-12
SECULAR_MAX_ITER = 100
# a secular bracket this narrow has closed to rounding: for |mu| >= 1/2 its
# ends are adjacent doubles
BRACKET_WIDTH = 0.5 * np.finfo(float).eps
# the Woodbury form of the hyperboloid's reduced Gram inverse has an error
# of about eps / rho^2, rho = min_j d_j / ||Sigma v_j||^2: at most 1.4e-9
# in max |P B - I| measured for rho >= 1e-4, and at rho ~ 1e-12 it stopped
# being positive definite.  Below this rho the diagonal of Dh Dh*
# preconditions instead.
WOODBURY_MIN_RATIO = 1e-4


def _check_shape(constraint, X, Z=None):
    """X must have the constraint's ``shape``, and a direction Z that of X."""
    if X.shape != constraint.shape:
        raise ShapeMismatch(f"expected shape {constraint.shape}")
    if Z is not None and Z.shape != X.shape:
        raise ShapeMismatch("direction shape differs from point shape")


def _check_projectable(constraint, Y):
    """Y must have the constraint's ``shape`` and finite entries."""
    _check_shape(constraint, Y)
    if not np.all(np.isfinite(Y)):
        raise DegenerateProjection("cannot project a matrix with a non-finite entry")


def _diagonal_solver(g: np.ndarray, part: str):
    """The solve by a diagonal Dh Dh* = Diag(g), guarded against a zero g_i."""
    if g.min() <= COND_RTOL * g.max():
        raise IllConditioned(f"a {part} of X is (numerically) zero")
    return lambda b: b / g


def _row_sq_norms(X) -> np.ndarray:
    """Squared row norms; a fixed-rank point states its own."""
    if isinstance(X, FactoredPoint):
        return X.row_sq_norms
    A = as_dense(X)
    return np.einsum("ij,ij->i", A, A)


class ObliqueConstraint:
    """h_i(X) = ||row_i(X)||^2 - 1 on R^{m x n}; zero set = unit-norm rows."""

    def __init__(self, m: int, n: int):
        self.m = m
        self.n = n
        self.q = m
        self.shape = (m, n)

    def value(self, X) -> np.ndarray:
        _check_shape(self, X)
        return _row_sq_norms(X) - 1.0

    def dh(self, X, Z) -> np.ndarray:
        _check_shape(self, X, Z)
        if isinstance(X, FactoredPoint):
            # row i of X is (U Sigma)_i V^T, so <X_i, Z_i> = (U Sigma)_i . (Z V)_i
            return 2.0 * np.einsum("ij,ij->i", X.us, Z @ X.v)
        return 2.0 * np.einsum("ij,ij->i", as_dense(X), as_dense(Z))

    def dh_adjoint(self, X, lam: np.ndarray):
        _check_shape(self, X)
        if lam.shape != (self.q,):
            raise ShapeMismatch(f"expected multiplier of length {self.q}")
        if isinstance(X, FactoredPoint):
            # 2 Diag(lam) X = (2 lam * U Sigma) V^T is tangent at X, with Vp = 0
            L = 2.0 * lam[:, None] * X.us
            M = X.u.T @ L
            return FixedRankTangent(X.u, X.v, M, L - X.u @ M, np.zeros_like(X.v))
        return 2.0 * lam[:, None] * as_dense(X)

    def gram_solver(self, X):
        """Dh Dh* is diagonal with entries 4 ||row_i||^2."""
        _check_shape(self, X)
        return _diagonal_solver(4.0 * _row_sq_norms(X), "row")

    def gram_solve(self, X, b: np.ndarray) -> np.ndarray:
        return self.gram_solver(X)(b)

    def reduced_gram_solver(self, X):
        """B = Dh Dh*: Dh* lam = 2 Diag(lam) X rescales rows of X, so it is
        tangent at a fixed-rank X and keeps the support of a sparse X."""
        return self.gram_solver(X)

    def project(self, Y: np.ndarray) -> np.ndarray:
        _check_projectable(self, Y)
        norms = np.linalg.norm(Y, axis=1, keepdims=True)
        if np.any(norms == 0.0):
            raise DegenerateProjection("cannot normalize a zero row")
        return Y / norms


class HyperboloidConstraint:
    """Columns on the upper sheet of the hyperboloid in R^{n+1}.

    h_j(X) = x_j^T J x_j + 1 with J = diag(-1, 1, ..., 1); ambient
    matrices are (n+1) x m.  Feasible points additionally have a positive
    first row, which ``project`` enforces.
    """

    def __init__(self, n: int, m: int):
        self.n = n
        self.m = m
        self.q = m
        self.shape = (n + 1, m)
        j = np.ones(n + 1)
        j[0] = -1.0
        self.j_diag = j

    def _ja(self, X: FactoredPoint) -> np.ndarray:
        """J U Sigma: column j of J X is (J U Sigma) v_j with v_j row j of V."""
        return self.j_diag[:, None] * X.us

    def value(self, X) -> np.ndarray:
        _check_shape(self, X)
        if isinstance(X, FactoredPoint):
            # x_j^T J x_j = ||Sigma v_j||^2 - 2 x_0j^2, x_0 = V Sigma U^T e_0
            return X.col_sq_norms - 2.0 * (X.vs @ X.u[0]) ** 2 + 1.0
        X = as_dense(X)
        return np.einsum("ij,ij->j", X, self.j_diag[:, None] * X) + 1.0

    def dh(self, X, Z) -> np.ndarray:
        _check_shape(self, X, Z)
        if isinstance(X, FactoredPoint):
            # (J x_j)^T z_j = v_j^T (Z^T J A)_j; Z needs only Z.T @ (J A)
            return 2.0 * np.einsum("ij,ij->i", Z.T @ self._ja(X), X.v)
        return 2.0 * np.einsum("ij,ij->j", self.j_diag[:, None] * as_dense(X), as_dense(Z))

    def dh_adjoint(self, X, lam: np.ndarray):
        _check_shape(self, X)
        if lam.shape != (self.q,):
            raise ShapeMismatch(f"expected multiplier of length {self.q}")
        if isinstance(X, FactoredPoint):
            # 2 J X Diag(lam) = (2 J A) (Diag(lam) V)^T
            return LowRankMatrix(2.0 * self._ja(X), lam[:, None] * X.v)
        return 2.0 * (self.j_diag[:, None] * as_dense(X)) * lam[None, :]

    def gram_solver(self, X):
        """Dh Dh* is diagonal with entries 4 ||col_j||^2 (J^2 = I);
        ||col_j|| = ||Sigma v_j|| for a fixed-rank point."""
        _check_shape(self, X)
        if isinstance(X, FactoredPoint):
            g = X.col_sq_norms
        else:
            X = as_dense(X)
            g = np.einsum("ij,ij->j", X, X)
        return _diagonal_solver(4.0 * g, "column")

    def gram_solve(self, X, b: np.ndarray) -> np.ndarray:
        return self.gram_solver(X)(b)

    def reduced_gram_solver(self, X):
        """B^-1 for B = Dh P_T Dh* at a fixed-rank point X = U Sigma V^T.

        With A = U Sigma and w = U^T e_0, U^T J U = I - 2 w w^T, so the
        part of Dh* lam = 2 J A V^T Diag(lam) that P_T removes enters B
        through A^T J (I - U U^T) J A = c (Sigma w)(Sigma w)^T with
        c = 4 (1 - ||w||^2), clamped at 0 against rounding.  With
        a = V Sigma w, the first row of X, and F = Diag(a) V (Vandereycken,
        SIAM J. Optim. 2013, for the tangent algebra),

            B = 4 (Diag(d) + c F F^T),   d_j = ||Sigma v_j||^2 - c a_j^2,

        with d_j >= 0 by Cauchy-Schwarz, since c ||w||^2 <= 1.  The Woodbury
        identity (Hager, SIAM Rev. 1989) gives

            B^-1 b = (D^-1 b - c D^-1 F K^-1 F^T D^-1 b) / 4,
            K = I_s + c F^T D^-1 F,

        K >= I inverted once here: O(m s^2) to build, O(m s) per call.
        Where some d_j <= WOODBURY_MIN_RATIO ||Sigma v_j||^2 it divides by
        Dh Dh* = Diag(4 ||Sigma v_j||^2) instead; at any other point (at a
        sparse one Dh* lam rescales columns of J X, so it keeps the
        support and B = Dh Dh*) it is ``gram_solver(X)``.
        """
        _check_shape(self, X)
        if not isinstance(X, FactoredPoint):
            return self.gram_solver(X)
        V, w = X.v, X.u[0]
        c = max(4.0 * (1.0 - w @ w), 0.0)
        a, g = X.vs @ w, X.col_sq_norms
        d = g - c * a * a
        if not np.all(d > WOODBURY_MIN_RATIO * g):
            return _diagonal_solver(4.0 * g, "column")
        # D^-1 F = Diag(e) V, so F^T D^-1 F = V^T Diag(a e) V
        e = a / d
        W = c * np.linalg.inv(np.eye(X.rank) + c * (V.T @ ((a * e)[:, None] * V)))
        return lambda b: 0.25 * (b / d - e * (V @ (W @ (V.T @ (e * b)))))

    def project(self, Y: np.ndarray) -> np.ndarray:
        """Columnwise closest point on {x^T J x = -1, x_1 > 0}.

        Column j is x_j = [|y_0j| / (1 - mu_j); y_1:,j / (1 + mu_j)], where
        mu_j is the root in (-1, 1), on which I + mu J is positive
        definite, of the decreasing secular function

            phi(mu) = -(|y_0j| / (1 - mu))^2 + ||y_1:,j||^2 / (1 + mu)^2 + 1.

        One safeguarded Newton iteration runs on all columns at once.  A
        column is frozen once |phi| <= SECULAR_TOL, or once its bracket has
        closed to rounding: phi's rounding floor grows like eps ||y_j||^2,
        so columns with entries of 10 and more mostly end that way.
        Where mu_j > 0, x_0j is taken from the sheet equation,
        sqrt(1 + ||x_1:,j||^2), because 1 - mu_j loses its digits as |y_0j|
        shrinks against ||y_j||.  Raises DegenerateProjection for a zero
        first coordinate, for a near-axis column with |y_0| >= 2 (no unique
        nearest point) and for a root unconverged after SECULAR_MAX_ITER
        steps.
        """
        _check_projectable(self, Y)
        y0 = np.abs(Y[0])
        c2 = np.einsum("ij,ij->j", Y[1:], Y[1:])
        if np.any(y0 == 0.0):
            raise DegenerateProjection(
                "column with zero first coordinate has no stationary "
                "projection in the admissible interval"
            )

        def phi(mu):
            return -((y0 / (1.0 - mu)) ** 2) + c2 / (1.0 + mu) ** 2 + 1.0

        lo = np.full(self.m, -1.0 + 1e-13)
        hi = np.full(self.m, 1.0 - 1e-13)
        if np.any(phi(lo) <= 0.0):
            # only reachable for near-axis columns with |y_0| >= 2, where
            # the projection onto the sheet is non-unique
            raise DegenerateProjection(
                "no secular root in the interval where I + mu J is "
                "positive definite"
            )
        mu = np.zeros(self.m)
        active = np.ones(self.m, dtype=bool)
        for _ in range(SECULAR_MAX_ITER):
            f = phi(mu)
            above = f > 0.0
            lo = np.where(above, mu, lo)
            hi = np.where(above, hi, mu)
            active &= (np.abs(f) > SECULAR_TOL) & (hi - lo > BRACKET_WIDTH)
            if not active.any():
                break
            dphi = -2.0 * y0**2 / (1.0 - mu) ** 3 - 2.0 * c2 / (1.0 + mu) ** 3
            step = mu - f / dphi
            step = np.where((lo < step) & (step < hi), step, 0.5 * (lo + hi))
            mu = np.where(active, step, mu)
        if active.any():
            raise DegenerateProjection("secular iteration did not converge")
        x = Y / (1.0 + mu)
        # for mu > 0, 1 - mu may have lost its digits; the sheet equation
        # gives x_0 from the well-conditioned x_1: instead
        x[0] = np.where(
            mu > 0.0, np.sqrt(1.0 + np.einsum("ij,ij->j", x[1:], x[1:])), y0 / (1.0 - mu)
        )
        return x


class StiefelConstraint:
    """h(X) = X^T X - I_p on R^{n x p}, a symmetric p x p matrix; zero set =
    orthonormal columns.  q = p (p + 1) / 2, the dimension of Sym(p)."""

    def __init__(self, n: int, p: int):
        self.n = n
        self.p = p
        self.q = p * (p + 1) // 2
        self.shape = (n, p)

    def value(self, X) -> np.ndarray:
        _check_shape(self, X)
        X = as_dense(X)
        return X.T @ X - np.eye(self.p)

    def dh(self, X, Z) -> np.ndarray:
        _check_shape(self, X, Z)
        XtZ = as_dense(X).T @ as_dense(Z)
        return XtZ + XtZ.T

    def dh_adjoint(self, X, lam: np.ndarray) -> np.ndarray:
        """X (lam + lam^T), the adjoint of dh on all p x p matrices; 2 X lam
        for the symmetric multipliers the solvers produce."""
        _check_shape(self, X)
        if lam.shape != (self.p, self.p):
            raise ShapeMismatch(f"expected a {self.p} x {self.p} multiplier")
        return as_dense(X) @ (lam + lam.T)

    def gram_solver(self, X):
        """Invert Dh Dh* on Sym(p): L -> 2 (G L + L G) with G = X^T X,
        whose eigendecomposition is taken once here."""
        _check_shape(self, X)
        X = as_dense(X)
        sylvester = sym_sylvester_solver(X.T @ X)
        return lambda b: sylvester(b / 2.0)

    def gram_solve(self, X, b: np.ndarray) -> np.ndarray:
        return self.gram_solver(X)(b)

    def reduced_gram_solver(self, X):
        """The inverse of the diagonal of B = Dh Diag(mask) Dh* at a sparse
        point X with 0/1 ``mask``, and ``gram_solver(X)`` at any other.

        The diagonal of B in the orthonormal basis E_ii,
        (E_ij + E_ji) / sqrt(2) (i < j) of Sym(p) is Delta_ij =
        2 (D_ij + D_ji) with D = (X o X)^T mask, the squared norms of the
        columns of X restricted to the supports of the columns of mask:
        O(n p^2) to build, and each call divides b by Delta elementwise.
        Delta_ij = 0 where columns i and j have disjoint supports; that
        coordinate of Dh Diag(mask) Dh*, and of every vector in its range,
        is an exact zero, and the solve returns 0 there.  Raises
        IllConditioned when Delta is all zero.
        """
        if not isinstance(X, SupportPoint):
            return self.gram_solver(X)
        _check_shape(self, X)
        mask, X = X.mask, X.values
        D = (X * X).T @ mask
        delta = 2.0 * (D + D.T)
        # the trace of Dh Diag(mask) Dh*, the sum of Delta_ij over i <= j
        trace = 0.5 * (delta.sum() + np.trace(delta))
        if not trace > 0.0:
            raise IllConditioned(f"masked Gram matrix has trace {trace}")
        nonzero = delta > 0.0
        return lambda b: np.divide(b, delta, out=np.zeros_like(delta), where=nonzero)

    def project(self, Y: np.ndarray) -> np.ndarray:
        """Polar factor of Y: the closest matrix with orthonormal columns."""
        _check_projectable(self, Y)
        U, s, Vt = np.linalg.svd(Y, full_matrices=False)
        if s[-1] <= COND_RTOL * s[0] or s[0] == 0.0:
            raise DegenerateProjection(
                "rank-deficient input has no unique polar factor"
            )
        return U @ Vt
