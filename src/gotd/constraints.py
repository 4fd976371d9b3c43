"""Level-set constraint maps h with zero set H = {h = 0}.

Three instances share one contract -- ``value``, ``dh`` (differential),
``dh_adjoint``, ``gram_solver`` (the inverse of Dh Dh*, factored once at a
point and returned as a callable), ``gram_solve`` (one such solve) and
``project`` (metric projection onto H):

* ``ObliqueConstraint``   -- rows of unit Euclidean norm,
* ``HyperboloidConstraint`` -- columns on the upper hyperboloid sheet
  under the Lorentz signature diag(-1, 1, ..., 1),
* ``StiefelConstraint``   -- orthonormal columns, X^T X = I.

Constraint values live in R^q.  For the Stiefel map the symmetric matrix
X^T X - I is flattened isometrically (off-diagonal entries scaled by
sqrt(2)) so that the Euclidean adjoint identities hold verbatim.

Points X may be manifold points or plain arrays, and directions Z tangent
vectors, low-rank operands or arrays.  The oblique and hyperboloid maps
work on the factors of a fixed-rank point, at O((m + n) r^2) for a
factored direction; the Stiefel map acts on the ambient matrix.
"""

import functools

import numpy as np

from .errors import DegenerateProjection, IllConditioned, ShapeMismatch
from .manifolds import FactoredPoint, FixedRankTangent, LowRankMatrix, as_dense
from .solvers import COND_RTOL, sym_sylvester_solver

SECULAR_TOL = 1e-12
SECULAR_MAX_ITER = 100
# a secular bracket this narrow has closed to rounding: for |mu| >= 1/2 its
# ends are adjacent doubles
BRACKET_WIDTH = 0.5 * np.finfo(float).eps


@functools.cache
def _sym_layout(p: int):
    """Row-major flat indices of the upper triangle of a p x p matrix, row
    by row, and of its mirror image below the diagonal, with the weights
    of :func:`flatten_sym`; built once per p (read-only)."""
    iu, ju = np.triu_indices(p)
    upper = iu * p + ju
    lower = ju * p + iu
    w = np.where(iu == ju, 1.0, np.sqrt(2.0))
    for a in (upper, lower, w):
        a.flags.writeable = False
    return upper, lower, w


def flatten_sym(S: np.ndarray) -> np.ndarray:
    """Isometric flattening of a symmetric matrix: upper triangle row by
    row, off-diagonal entries multiplied by sqrt(2)."""
    upper, _, w = _sym_layout(S.shape[0])
    return S.take(upper) * w


def unflatten_sym(lam: np.ndarray, p: int) -> np.ndarray:
    """Inverse of :func:`flatten_sym`."""
    upper, lower, w = _sym_layout(p)
    if lam.shape != w.shape:
        raise ShapeMismatch(f"expected a vector of length {w.size}")
    S = np.empty(p * p)
    S[upper] = S[lower] = lam / w
    return S.reshape(p, p)


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

    def _check(self, X, Z=None):
        if X.shape != (self.m, self.n):
            raise ShapeMismatch(f"expected shape {(self.m, self.n)}")
        if Z is not None and Z.shape != X.shape:
            raise ShapeMismatch("direction shape differs from point shape")

    def value(self, X) -> np.ndarray:
        self._check(X)
        return _row_sq_norms(X) - 1.0

    def dh(self, X, Z) -> np.ndarray:
        self._check(X, Z)
        if isinstance(X, FactoredPoint):
            # row i of X is (U Sigma)_i V^T, so <X_i, Z_i> = (U Sigma)_i . (Z V)_i
            return 2.0 * np.einsum("ij,ij->i", X.u * X.sigma, Z @ X.v)
        return 2.0 * np.einsum("ij,ij->i", as_dense(X), as_dense(Z))

    def dh_adjoint(self, X, lam: np.ndarray):
        self._check(X)
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
        self._check(X)
        g = 4.0 * _row_sq_norms(X)
        if g.min() <= COND_RTOL * g.max():
            raise IllConditioned("a row of X is (numerically) zero")
        return lambda b: b / g

    def gram_solve(self, X, b: np.ndarray) -> np.ndarray:
        return self.gram_solver(X)(b)

    def project(self, Y: np.ndarray) -> np.ndarray:
        self._check(Y)
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
        j = np.ones(n + 1)
        j[0] = -1.0
        self.j_diag = j

    def _check(self, X, Z=None):
        if X.shape != (self.n + 1, self.m):
            raise ShapeMismatch(f"expected shape {(self.n + 1, self.m)}")
        if Z is not None and Z.shape != X.shape:
            raise ShapeMismatch("direction shape differs from point shape")

    def _ja(self, X: FactoredPoint) -> np.ndarray:
        """J U Sigma: column j of J X is (J U Sigma) v_j with v_j row j of V."""
        return self.j_diag[:, None] * (X.u * X.sigma)

    def value(self, X) -> np.ndarray:
        self._check(X)
        if isinstance(X, FactoredPoint):
            # x_j^T J x_j = v_j^T (A^T J A) v_j with A = U Sigma
            A = X.u * X.sigma
            return np.einsum("ij,ij->i", X.v @ (A.T @ self._ja(X)), X.v) + 1.0
        X = as_dense(X)
        return np.einsum("ij,ij->j", X, self.j_diag[:, None] * X) + 1.0

    def dh(self, X, Z) -> np.ndarray:
        self._check(X, Z)
        if isinstance(X, FactoredPoint):
            # (J x_j)^T z_j = v_j^T (Z^T J A)_j; Z needs only Z.T @ (J A)
            return 2.0 * np.einsum("ij,ij->i", Z.T @ self._ja(X), X.v)
        return 2.0 * np.einsum("ij,ij->j", self.j_diag[:, None] * as_dense(X), as_dense(Z))

    def dh_adjoint(self, X, lam: np.ndarray):
        self._check(X)
        if lam.shape != (self.q,):
            raise ShapeMismatch(f"expected multiplier of length {self.q}")
        if isinstance(X, FactoredPoint):
            # 2 J X Diag(lam) = (2 J A) (Diag(lam) V)^T
            return LowRankMatrix(2.0 * self._ja(X), lam[:, None] * X.v)
        return 2.0 * (self.j_diag[:, None] * as_dense(X)) * lam[None, :]

    def gram_solver(self, X):
        """Dh Dh* is diagonal with entries 4 ||col_j||^2 (J^2 = I);
        ||col_j|| = ||Sigma v_j|| for a fixed-rank point."""
        self._check(X)
        if isinstance(X, FactoredPoint):
            SV = X.v * X.sigma
            g = 4.0 * np.einsum("ij,ij->i", SV, SV)
        else:
            X = as_dense(X)
            g = 4.0 * np.einsum("ij,ij->j", X, X)
        if g.min() <= COND_RTOL * g.max():
            raise IllConditioned("a column of X is (numerically) zero")
        return lambda b: b / g

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
        Raises DegenerateProjection for a zero first coordinate, for a
        near-axis column with |y_0| >= 2 (no unique nearest point) and for
        a column left off the sheet, where |y_0| is so small that 1 - mu
        has lost its digits.
        """
        self._check(Y)
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
        x = Y / (1.0 + mu)
        x[0] = y0 / (1.0 - mu)
        # a column frozen by its bracket must still sit at phi's rounding
        # floor, far below SECULAR_TOL * ||x||^2
        if active.any() or np.any(
            np.abs(f) > SECULAR_TOL * (1.0 + np.einsum("ij,ij->j", x, x))
        ):
            raise DegenerateProjection("secular iteration did not converge")
        return x


class StiefelConstraint:
    """h(X) = flatten_sym(X^T X - I_p) on R^{n x p}; zero set = orthonormal
    columns.  q = p (p + 1) / 2."""

    def __init__(self, n: int, p: int):
        self.n = n
        self.p = p
        self.q = p * (p + 1) // 2

    def _check(self, X, Z=None):
        if X.shape != (self.n, self.p):
            raise ShapeMismatch(f"expected shape {(self.n, self.p)}")
        if Z is not None and Z.shape != X.shape:
            raise ShapeMismatch("direction shape differs from point shape")

    def value(self, X) -> np.ndarray:
        self._check(X)
        X = as_dense(X)
        return flatten_sym(X.T @ X - np.eye(self.p))

    def dh(self, X, Z) -> np.ndarray:
        self._check(X, Z)
        XtZ = as_dense(X).T @ as_dense(Z)
        return flatten_sym(XtZ + XtZ.T)

    def dh_adjoint(self, X, lam: np.ndarray) -> np.ndarray:
        self._check(X)
        # scaling the p x p multiplier instead of the n x p product gives
        # the same bits, as doubling is exact
        return as_dense(X) @ (2.0 * unflatten_sym(lam, self.p))

    def gram_solver(self, X):
        """Invert lam -> flatten_sym(2 (G L + L G)) with G = X^T X, whose
        eigendecomposition is taken once here."""
        self._check(X)
        X = as_dense(X)
        sylvester = sym_sylvester_solver(X.T @ X)
        return lambda b: flatten_sym(sylvester(unflatten_sym(b, self.p) / 2.0))

    def gram_solve(self, X, b: np.ndarray) -> np.ndarray:
        return self.gram_solver(X)(b)

    def project(self, Y: np.ndarray) -> np.ndarray:
        """Polar factor of Y: the closest matrix with orthonormal columns."""
        self._check(Y)
        U, s, Vt = np.linalg.svd(Y, full_matrices=False)
        if s[-1] <= COND_RTOL * s[0] or s[0] == 0.0:
            raise DegenerateProjection(
                "rank-deficient input has no unique polar factor"
            )
        return U @ Vt
