"""Level-set constraint maps h with zero set H = {h = 0}.

Three instances share one contract -- ``value``, ``dh`` (differential),
``dh_adjoint``, ``gram_solver`` (the inverse of Dh Dh*, factored once at a
point and returned as a callable), ``gram_solve`` (one such solve) and
``project`` (metric projection onto H), each checking its operands against
the constraint's ``shape``:

* ``ObliqueConstraint``   -- rows of unit Euclidean norm,
* ``HyperboloidConstraint`` -- columns on the upper hyperboloid sheet
  under the Lorentz signature diag(-1, 1, ..., 1),
* ``StiefelConstraint``   -- orthonormal columns, X^T X = I.

The oblique and hyperboloid values and multipliers are vectors in R^q;
the Stiefel value X^T X - I and its multipliers are p x p matrices, and
the adjoint identities hold under the Frobenius inner product.  Either way
q is the dimension of the multiplier space.  The oblique and hyperboloid
Dh Dh* are diagonal and share one solve.

Points X may be manifold points or plain arrays, and directions Z tangent
vectors, low-rank operands or arrays.  The oblique and hyperboloid maps
work on the factors of a fixed-rank point, at O((m + n) r^2) for a
factored direction; the Stiefel map acts on the ambient matrix.
"""

import numpy as np

from .errors import DegenerateProjection, IllConditioned, ShapeMismatch
from .manifolds import FactoredPoint, FixedRankTangent, LowRankMatrix, as_dense
from .solvers import COND_RTOL, sym_sylvester_solver

SECULAR_TOL = 1e-12
SECULAR_MAX_ITER = 100
# a secular bracket this narrow has closed to rounding: for |mu| >= 1/2 its
# ends are adjacent doubles
BRACKET_WIDTH = 0.5 * np.finfo(float).eps


def _check_shape(constraint, X, Z=None):
    """X must have the constraint's ``shape``, and a direction Z that of X."""
    if X.shape != constraint.shape:
        raise ShapeMismatch(f"expected shape {constraint.shape}")
    if Z is not None and Z.shape != X.shape:
        raise ShapeMismatch("direction shape differs from point shape")


def _diagonal_solver(g: np.ndarray, part: str):
    """The solve by a diagonal Dh Dh* = Diag(g), guarded against a zero g_i."""
    if g.min() <= COND_RTOL * g.max():
        raise IllConditioned(f"a {part} of X is (numerically) zero")
    return lambda b: b / g


def _row_sq_norms(X) -> np.ndarray:
    """Squared row norms; from U Sigma alone for a fixed-rank point."""
    A = X.u * X.sigma if isinstance(X, FactoredPoint) else as_dense(X)
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
            return 2.0 * np.einsum("ij,ij->i", X.u * X.sigma, Z @ X.v)
        return 2.0 * np.einsum("ij,ij->i", as_dense(X), as_dense(Z))

    def dh_adjoint(self, X, lam: np.ndarray):
        _check_shape(self, X)
        if lam.shape != (self.q,):
            raise ShapeMismatch(f"expected multiplier of length {self.q}")
        if isinstance(X, FactoredPoint):
            # 2 Diag(lam) X = (2 lam * U Sigma) V^T is tangent at X, with Vp = 0
            L = 2.0 * lam[:, None] * (X.u * X.sigma)
            M = X.u.T @ L
            return FixedRankTangent(X.u, X.v, M, L - X.u @ M, np.zeros_like(X.v))
        return 2.0 * lam[:, None] * as_dense(X)

    def gram_solver(self, X):
        """Dh Dh* is diagonal with entries 4 ||row_i||^2."""
        _check_shape(self, X)
        return _diagonal_solver(4.0 * _row_sq_norms(X), "row")

    def gram_solve(self, X, b: np.ndarray) -> np.ndarray:
        return self.gram_solver(X)(b)

    def project(self, Y: np.ndarray) -> np.ndarray:
        _check_shape(self, Y)
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
        return self.j_diag[:, None] * (X.u * X.sigma)

    def value(self, X) -> np.ndarray:
        _check_shape(self, X)
        if isinstance(X, FactoredPoint):
            # x_j^T J x_j = v_j^T (A^T J A) v_j with A = U Sigma
            A = X.u * X.sigma
            return np.einsum("ij,ij->i", X.v @ (A.T @ self._ja(X)), X.v) + 1.0
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
            g = _row_sq_norms(X.v * X.sigma)
        else:
            X = as_dense(X)
            g = np.einsum("ij,ij->j", X, X)
        return _diagonal_solver(4.0 * g, "column")

    def gram_solve(self, X, b: np.ndarray) -> np.ndarray:
        return self.gram_solver(X)(b)

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
        _check_shape(self, Y)
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
        """Invert L -> 2 (G L + L G) on Sym(p) with G = X^T X, whose
        eigendecomposition is taken once here."""
        _check_shape(self, X)
        X = as_dense(X)
        sylvester = sym_sylvester_solver(X.T @ X)
        return lambda b: sylvester(b / 2.0)

    def gram_solve(self, X, b: np.ndarray) -> np.ndarray:
        return self.gram_solver(X)(b)

    def project(self, Y: np.ndarray) -> np.ndarray:
        """Polar factor of Y: the closest matrix with orthonormal columns."""
        _check_shape(self, Y)
        U, s, Vt = np.linalg.svd(Y, full_matrices=False)
        if s[-1] <= COND_RTOL * s[0] or s[0] == 0.0:
            raise DegenerateProjection(
                "rank-deficient input has no unique polar factor"
            )
        return U @ Vt
