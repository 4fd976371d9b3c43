"""Inner manifolds the iterates live on: fixed-rank matrices and the
fixed-cardinality (sparsity) set.

Each manifold implements the same small contract: ``tangent_project``,
``retract`` and ``project`` (metric projection from the ambient space).
Points carry their own structure -- a thin SVD triple for fixed rank,
with U Sigma, V Sigma and X's squared row and column norms formed once,
the values, the support and the 0/1 mask for sparsity -- and ``dense()``
recovers the ambient matrix.  Fixed-rank tangent vectors stay factored
as well (:class:`FixedRankTangent`), and so do low-rank ambient operands
(:class:`LowRankMatrix`), so a fixed-rank step needs no m x n array.
The fixed-rank retraction works on r x r Gram roots of the tangent
factors and one 2r x 2r truncated SVD, at O((m + n) r^2) with no QR of
an m x r block.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateStep, NotTangent, RankDeficient, ShapeMismatch
from .solvers import truncated_svd

TANGENT_CHECK_RTOL = 1e-8


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class FactoredPoint:
    """Rank-r matrix stored as a thin SVD triple (U, sigma, V).

    ``u`` is (m, r) and ``v`` is (n, r), r >= 1, both with orthonormal columns;
    ``sigma`` holds the positive, finite, nonincreasing singular values; the
    read-only ``us`` = U Sigma, ``vs`` = V Sigma and their squared row
    norms, X's ``row_sq_norms`` and ``col_sq_norms``, are formed once.
    """

    u: np.ndarray
    sigma: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        r = self.sigma.shape[0]
        if self.u.ndim != 2 or self.v.ndim != 2 or self.sigma.ndim != 1:
            raise ShapeMismatch("expected u (m,r), sigma (r,), v (n,r)")
        if self.u.shape[1] != r or self.v.shape[1] != r:
            raise ShapeMismatch("factor widths do not match sigma")
        if r == 0:
            raise RankDeficient("a factored point needs rank at least 1")
        # each test is written so that a NaN fails it
        eye = np.eye(r)
        if not (
            np.abs(self.u.T @ self.u - eye).max() <= 1e-12
            and np.abs(self.v.T @ self.v - eye).max() <= 1e-12
        ):
            raise ShapeMismatch("factors are not orthonormal to 1e-12")
        sigma = self.sigma
        if not (np.all((sigma > 0.0) & (sigma < np.inf)) and np.all(np.diff(sigma) <= 0.0)):
            raise RankDeficient("sigma must be positive, finite and nonincreasing")

    @property
    def shape(self):
        return (self.u.shape[0], self.v.shape[0])

    @property
    def rank(self) -> int:
        return self.sigma.shape[0]

    @functools.cached_property
    def us(self) -> np.ndarray:
        return _read_only(self.u * self.sigma)

    @functools.cached_property
    def vs(self) -> np.ndarray:
        return _read_only(self.v * self.sigma)

    @functools.cached_property
    def row_sq_norms(self) -> np.ndarray:
        return _read_only(np.einsum("ij,ij->i", self.us, self.us))

    @functools.cached_property
    def col_sq_norms(self) -> np.ndarray:
        return _read_only(np.einsum("ij,ij->i", self.vs, self.vs))

    def dense(self) -> np.ndarray:
        return self.us @ self.v.T


def product_entries(A: np.ndarray, B: np.ndarray, rows, cols) -> np.ndarray:
    """(A B^T)[rows, cols] for A (m, k) and B (n, k), at O(len(rows) k).

    Each entry is the running sum over j = 0, 1, ... of A[i, j] B[l, j].
    The index arrays may broadcast against each other, so
    ``np.ix_(np.arange(m), np.arange(n))`` gives the whole m x n product
    with every entry bit-equal to its gather (a BLAS ``A @ B.T`` is not).
    """
    # one contiguous column at a time: 1-D gathers are several times
    # faster than gathering whole rows of the (m, k) factors
    At = np.ascontiguousarray(A.T)
    Bt = np.ascontiguousarray(B.T)
    out = At[0][rows] * Bt[0][cols]
    for k in range(1, At.shape[0]):
        out += At[k][rows] * Bt[k][cols]
    return out


@dataclass(frozen=True, eq=False)
class FixedRankTangent:
    """Tangent vector at X = U diag(sigma) V^T in factored form:

        eta = U M V^T + Up V^T + U Vp^T,   U^T Up = 0,   V^T Vp = 0

    (Vandereycken, SIAM J. Optim. 2013).  The three terms are mutually
    orthogonal, so ||eta||^2 = ||M||^2 + ||Up||^2 + ||Vp||^2 and the norm
    costs O((m + n) r).

    Sums, differences and scalar multiples of tangent vectors at the same
    point stay factored.  Any other arithmetic, and ``np.asarray``, falls
    back to the dense m x n matrix, so the type can stand in for an array.
    """

    u: np.ndarray   # (m, r) left factor of the point
    v: np.ndarray   # (n, r) right factor of the point
    M: np.ndarray   # (r, r)
    Up: np.ndarray  # (m, r)
    Vp: np.ndarray  # (n, r)

    # numpy scalars and arrays hand their binary operators over to ours
    __array_priority__ = 1000

    def __post_init__(self):
        r = self.u.shape[1]
        if (
            self.M.shape != (r, r)
            or self.Up.shape != self.u.shape
            or self.Vp.shape != self.v.shape
        ):
            raise ShapeMismatch("expected M (r,r), Up (m,r), Vp (n,r)")

    @classmethod
    def from_ambient(cls, X: FactoredPoint, Z) -> "FixedRankTangent":
        """Orthogonal projection of Z onto the tangent space at X.

        Z may be anything that supports ``Z @ V`` and ``Z.T @ U``: a dense
        array, a low-rank operand or a tangent vector.
        """
        if isinstance(Z, FixedRankTangent) and Z.at(X):
            return Z
        return cls.from_products(X, Z @ X.v, Z.T @ X.u)

    @classmethod
    def from_products(cls, X: FactoredPoint, ZV, ZtU) -> "FixedRankTangent":
        """Orthogonal projection onto the tangent space at X of an operand
        Z known only through ``Z V`` (m, r) and ``Z^T U`` (n, r)."""
        U, V = X.u, X.v
        M = U.T @ ZV
        return cls(U, V, M, ZV - U @ M, ZtU - V @ M.T)

    def at(self, X) -> bool:
        """Whether this vector is stored in the factors of point X."""
        return self.u is X.u and self.v is X.v

    def _like(self, M, Up, Vp) -> "FixedRankTangent":
        return FixedRankTangent(self.u, self.v, M, Up, Vp)

    @property
    def shape(self):
        return (self.u.shape[0], self.v.shape[0])

    @property
    def T(self) -> "FixedRankTangent":
        """Transpose: a tangent vector at X^T = V diag(sigma) U^T."""
        return FixedRankTangent(self.v, self.u, self.M.T, self.Vp, self.Up)

    def dense(self) -> np.ndarray:
        return self.u @ (self.M @ self.v.T + self.Vp.T) + self.Up @ self.v.T

    def __array__(self, dtype=None, copy=None):
        out = self.dense()
        return out if dtype is None else out.astype(dtype, copy=False)

    def norm(self) -> float:
        return float(np.sqrt(sum(np.vdot(a, a) for a in (self.M, self.Up, self.Vp))))

    def __matmul__(self, W):
        VtW = self.v.T @ W
        return self.u @ (self.M @ VtW + self.Vp.T @ W) + self.Up @ VtW

    def __rmatmul__(self, W):
        WU = W @ self.u
        return (WU @ self.M + W @ self.Up) @ self.v.T + WU @ self.Vp.T

    def __add__(self, other):
        if isinstance(other, FixedRankTangent) and other.at(self):
            return self._like(self.M + other.M, self.Up + other.Up, self.Vp + other.Vp)
        return self.dense() + other

    def __radd__(self, other):
        return other + self.dense()

    def __sub__(self, other):
        if isinstance(other, FixedRankTangent) and other.at(self):
            return self._like(self.M - other.M, self.Up - other.Up, self.Vp - other.Vp)
        return self.dense() - other

    def __rsub__(self, other):
        return other - self.dense()

    def __mul__(self, other):
        if np.isscalar(other):
            return self._like(other * self.M, other * self.Up, other * self.Vp)
        return self.dense() * other

    __rmul__ = __mul__

    def __neg__(self):
        return self._like(-self.M, -self.Up, -self.Vp)


@dataclass(frozen=True, eq=False)
class LowRankMatrix:
    """The matrix A B^T, stored as its factors A (m, k) and B (n, k).

    The right product ``L @ W``, the transpose and negation stay factored
    and cost O((m + n) k) per column of W; ``np.asarray`` gives the dense
    m x n matrix.  A fixed-rank tangent projection takes it like any
    other operand, through ``Z @ V`` and ``Z.T @ U``.
    """

    a: np.ndarray  # (m, k)
    b: np.ndarray  # (n, k)

    __array_priority__ = 1000

    def __post_init__(self):
        if self.a.ndim != 2 or self.b.ndim != 2 or self.a.shape[1] != self.b.shape[1]:
            raise ShapeMismatch("expected factors a (m,k) and b (n,k)")

    @property
    def shape(self):
        return (self.a.shape[0], self.b.shape[0])

    @property
    def T(self) -> "LowRankMatrix":
        return LowRankMatrix(self.b, self.a)

    def dense(self) -> np.ndarray:
        return self.a @ self.b.T

    def __array__(self, dtype=None, copy=None):
        out = self.dense()
        return out if dtype is None else out.astype(dtype, copy=False)

    def __matmul__(self, W):
        return self.a @ (self.b.T @ W)

    def __neg__(self) -> "LowRankMatrix":
        return LowRankMatrix(-self.a, self.b)


@dataclass(frozen=True)
class SupportPoint:
    """Matrix with exactly s entries in its support: its ``values`` and
    the boolean ``support``.  A value on the support may be 0.0; values
    off it are zero.

    The size ``nnz`` and the read-only float 0/1 ``mask`` that
    :meth:`SparsityManifold.tangent_project` multiplies by are derived
    from the support once per point.
    """

    values: np.ndarray
    support: np.ndarray

    def __post_init__(self):
        if self.values.ndim != 2:
            raise ShapeMismatch("expected a matrix of values")
        if self.support.shape != self.values.shape:
            raise ShapeMismatch("support and values differ in shape")

    @property
    def shape(self):
        return self.values.shape

    @functools.cached_property
    def nnz(self) -> int:
        """Size of the support, counted once per point."""
        return int(np.count_nonzero(self.support))

    @functools.cached_property
    def mask(self) -> np.ndarray:
        """The support as a read-only float 0/1 array, built once per
        point."""
        return _read_only(self.support.astype(float))

    def dense(self) -> np.ndarray:
        return self.values


def as_dense(x) -> np.ndarray:
    """Ambient matrix of a manifold point, a tangent vector or a plain
    array."""
    return x if isinstance(x, np.ndarray) else x.dense()


def norm(v) -> float:
    """Frobenius norm of a tangent vector, factored or dense."""
    if isinstance(v, FixedRankTangent):
        return v.norm()
    return float(np.linalg.norm(v))


def _gram_root(A: np.ndarray) -> np.ndarray:
    """An r x r matrix R with R^T R = A^T A, also when A is rank-deficient."""
    d, W = np.linalg.eigh(A.T @ A)
    return np.sqrt(np.maximum(d, 0.0))[:, None] * W.T


class FixedRankManifold:
    """Matrices of rank exactly r in R^{m x n}."""

    def __init__(self, m: int, n: int, r: int):
        if not 1 <= r <= min(m, n):
            raise ShapeMismatch(f"rank {r} out of range for {m} x {n}")
        self.m = m
        self.n = n
        self.r = r

    def _check(self, X: FactoredPoint, Z):
        if X.shape != (self.m, self.n) or X.rank != self.r:
            raise ShapeMismatch("point does not belong to this manifold")
        if Z.shape != (self.m, self.n):
            raise ShapeMismatch(f"expected ambient shape {(self.m, self.n)}")

    def tangent_project(self, X: FactoredPoint, Z) -> FixedRankTangent:
        """Orthogonal projection onto the tangent space at X,
        U U^T Z + Z V V^T - U U^T Z V V^T, in factored form.

        Z needs only ``Z @ V`` and ``Z.T @ U`` (see
        :meth:`FixedRankTangent.from_ambient`).
        """
        self._check(X, Z)
        return FixedRankTangent.from_ambient(X, Z)

    def retract(self, X: FactoredPoint, eta) -> FactoredPoint:
        """Metric-projection retraction: best rank-r approximation of X + eta.

        A :class:`FixedRankTangent` at X goes straight into the core; its
        gauge conditions are checked to 1e-8 relative at O((m + n) r^2).
        Any other eta is decomposed by :meth:`FixedRankTangent.from_products`
        from eta V and eta^T U, and must lie within 1e-8 relative of that
        decomposition.  The core needs only the r x r Gram matrices of Up
        and Vp, their square roots Ru and Rv, and one SVD of the 2r x 2r
        matrix [[Sigma + M, Rv^T], [Ru, 0]], whose singular values are
        exactly those of X + eta, so the result agrees with the dense
        definition.  The top-r singular vectors [u1; u2], [v1; v2] and
        values S of that matrix give the new factors directly,

            U+ = U u1 + Up v1 S^-1,    V+ = V v1 + Vp u1 S^-1,

        so no m x r block is orthogonalized: the whole step costs
        O((m + n) r^2) with no QR.  Any roots serve, since the top-r
        singular triplets do not depend on the choice, and the rank guard
        of :func:`~gotd.solvers.truncated_svd` on S keeps the division safe.
        """
        self._check(X, eta)
        U, s, V = X.u, X.sigma, X.v
        r = self.r
        if isinstance(eta, FixedRankTangent) and eta.at(X):
            tangent, norm_eta = eta, eta.norm()
            defect = float(np.hypot(np.linalg.norm(U.T @ eta.Up), np.linalg.norm(V.T @ eta.Vp)))
        else:
            eta = as_dense(eta)
            tangent = FixedRankTangent.from_products(X, eta @ V, eta.T @ U)
            norm_eta = float(np.linalg.norm(eta))
            defect = float(np.linalg.norm(eta - tangent.dense())) if norm_eta > 0.0 else 0.0
        # the absolute floor tolerates rounding residue in small
        # differences of large tangent vectors near convergence
        if defect > TANGENT_CHECK_RTOL * norm_eta + 1e-12 * float(s[0]):
            raise NotTangent(
                f"eta is not tangent: relative defect {defect / norm_eta:.3e}"
            )

        M, Up, Vp = tangent.M, tangent.Up, tangent.Vp
        # X + eta = [U Up] [[Sigma + M, I], [I, 0]] [V Vp]^T
        K = np.zeros((2 * r, 2 * r))
        K[:r, :r] = np.diag(s) + M
        K[:r, r:] = _gram_root(Vp).T
        K[r:, :r] = _gram_root(Up)
        Uk, S, Vk = truncated_svd(K, r)
        # the lower block rows of K v = s u and K^T u = s v put the
        # components along Up and Vp at Up v1 / s and Vp u1 / s
        u1, v1 = Uk[:r], Vk[:r]
        Un = U @ u1 + Up @ (v1 / S)
        Vn = V @ v1 + Vp @ (u1 / S)
        # one Newton step toward the polar factor keeps the columns
        # orthonormal over long iterations without disturbing sigma
        Un = Un @ (1.5 * np.eye(r) - 0.5 * (Un.T @ Un))
        Vn = Vn @ (1.5 * np.eye(r) - 0.5 * (Vn.T @ Vn))
        return FactoredPoint(Un, S, Vn)

    def project(self, Y: np.ndarray) -> FactoredPoint:
        """Metric projection of an ambient matrix: truncated SVD."""
        if Y.shape != (self.m, self.n):
            raise ShapeMismatch(f"expected ambient shape {(self.m, self.n)}")
        U, s, V = truncated_svd(Y, self.r)
        return FactoredPoint(U, s, V)


class SparsityManifold:
    """Matrices in R^{m x n} supported on exactly s entries."""

    def __init__(self, m: int, n: int, s: int):
        if not 1 <= s <= m * n:
            raise ShapeMismatch(f"cardinality {s} out of range for {m} x {n}")
        self.m = m
        self.n = n
        self.s = s

    def _check(self, X: SupportPoint, Z: np.ndarray):
        if X.shape != (self.m, self.n) or X.nnz != self.s:
            raise ShapeMismatch("point does not belong to this manifold")
        if Z.shape != (self.m, self.n):
            raise ShapeMismatch(f"expected ambient shape {(self.m, self.n)}")

    def tangent_project(self, X: SupportPoint, Z: np.ndarray) -> np.ndarray:
        """Zero the entries outside the support of X by multiplying Z with
        the 0/1 mask of X.  A non-finite entry outside the support is
        therefore not zeroed but propagates as NaN (inf * 0 = nan)."""
        self._check(X, Z)
        return Z * X.mask

    def retract(self, X: SupportPoint, eta: np.ndarray) -> SupportPoint:
        """X + eta on the support of X, for a tangent step eta.

        An entry that the step takes to 0.0 stays in the support and can
        grow back, so no step selects entries.  Raises NotTangent when
        eta is nonzero off the support or has a non-finite entry.
        """
        self._check(X, eta)
        if ((eta != 0.0) & ~X.support).any() or not np.isfinite(eta).all():
            raise NotTangent("eta is nonzero off the support or not finite")
        return SupportPoint(X.values + eta, X.support)

    def project(self, Y: np.ndarray) -> SupportPoint:
        """Hard thresholding: keep the s largest entries in magnitude,
        ties broken toward the smallest row-major linear index; a -0.0
        off the support comes back +0.0.  Raises DegenerateStep when Y
        has fewer than s nonzeros or a NaN entry."""
        if Y.shape != (self.m, self.n):
            raise ShapeMismatch(f"expected ambient shape {(self.m, self.n)}")
        nnz = np.count_nonzero(Y != 0.0)
        if nnz < self.s:
            raise DegenerateStep(f"only {nnz} nonzeros available, need {self.s}")
        if np.isnan(Y).any():
            raise DegenerateStep("NaN entries have no magnitude order")
        flat = np.abs(Y).ravel()
        # t is the s-th largest magnitude: keep every entry above it and
        # fill the budget with the entries equal to it, smallest index first
        t = np.partition(flat, flat.size - self.s)[flat.size - self.s]
        mask = flat > t
        ties = np.flatnonzero(flat == t)
        mask[ties[: self.s - np.count_nonzero(mask)]] = True
        mask = mask.reshape(Y.shape)
        return SupportPoint(np.where(mask, Y, 0.0), mask)
