"""Independent reference constructions used to cross-check the library.

Everything here is built from first principles (explicit bases, dense
null spaces, finite differences) and deliberately avoids the code paths
under test.
"""

from dataclasses import replace

import numpy as np

from gotd import (
    FactoredPoint,
    FixedRankManifold,
    HyperboloidConstraint,
    LinearOperator,
    ObliqueConstraint,
    Problem,
    SparsityManifold,
    apply_reduced_gram,
    build_workspace,
    hyperbolic_grad,
    hyperbolic_objective,
    pcg,
    pinv_apply,
    reduced_gram_diag,
    sphere_grad,
    sphere_objective,
    sphere_test_error,
)
from gotd.fastproj import PCG_MAX_ITER, PCG_TOL


def random_factored(rng, m, n, r, scale=1.0) -> FactoredPoint:
    """Random rank-r point with singular values bounded away from zero."""
    U = np.linalg.qr(rng.standard_normal((m, r)))[0]
    V = np.linalg.qr(rng.standard_normal((n, r)))[0]
    s = np.sort(rng.uniform(0.5, 2.0, r))[::-1] * scale
    return FactoredPoint(U, s, V)


def random_support_point(rng, m, n, s):
    """Random s-sparse point via hard thresholding of a Gaussian."""
    return SparsityManifold(m, n, s).project(rng.standard_normal((m, n)))


def feasible_oblique_lowrank(rng, m, n, r) -> FactoredPoint:
    """Rank-r point with unit rows (row scaling preserves the rank)."""
    X = random_factored(rng, m, n, r).dense()
    X = X / np.linalg.norm(X, axis=1, keepdims=True)
    return FixedRankManifold(m, n, r).project(X)


def feasible_hyperboloid_lowrank(rng, n, m, s) -> FactoredPoint:
    """Generic rank-s point whose columns sit on the upper hyperboloid
    sheet.

    Lifted noisy data is truncated to rank s and each column rescaled
    exactly back onto the sheet; diagonal column scaling preserves the
    rank and keeps the column space generic.
    """
    spatial = rng.standard_normal((s - 1, m))
    W = np.linalg.qr(rng.standard_normal((n, s - 1)))[0]
    spatial = W @ spatial + 0.2 * rng.standard_normal((n, m))
    top = np.sqrt(1.0 + np.einsum("ij,ij->j", spatial, spatial))
    X = FixedRankManifold(n + 1, m, s).project(np.vstack([top, spatial])).dense()
    j = np.ones(n + 1)
    j[0] = -1.0
    lorentz_sq = np.einsum("ij,ij->j", X, j[:, None] * X)
    assert np.all(lorentz_sq < 0), "truncation left the timelike cone"
    X = X / np.sqrt(-lorentz_sq)[None, :]
    X[:] *= np.sign(X[0])[None, :]
    return FixedRankManifold(n + 1, m, s).project(X)


def tangent_basis_fixed_rank(X: FactoredPoint):
    """Orthonormal ambient basis of the fixed-rank tangent space.

    Completes the factors to full orthonormal bases and keeps the rank-one
    matrices u_a v_b^T with a <= r or b <= r.
    """
    m, n = X.shape
    r = X.rank
    Ufull = _complete_basis(X.u)
    Vfull = _complete_basis(X.v)
    basis = []
    for a in range(m):
        for b in range(n):
            if a < r or b < r:
                basis.append(np.outer(Ufull[:, a], Vfull[:, b]))
    return basis


def tangent_basis_sparsity(X):
    """Indicator matrices of the support entries."""
    basis = []
    rows, cols = np.where(X.support)
    for i, j in zip(rows, cols):
        E = np.zeros(X.shape)
        E[i, j] = 1.0
        basis.append(E)
    return basis


def _complete_basis(U):
    """Extend orthonormal columns to a full orthonormal basis."""
    m, r = U.shape
    full, _ = np.linalg.qr(np.hstack([U, np.eye(m)]))
    # first r columns of the qr factor may flip signs; keep U itself
    return np.hstack([U, full[:, r:m]])


def project_onto_basis(basis, Z):
    out = np.zeros_like(Z)
    for B in basis:
        out += np.sum(B * Z) * B
    return out


def intersection_basis(constraint, X_dense, tangent_basis, tol=1e-9):
    """Orthonormal basis of ker(Dh) within span(tangent_basis), from the
    SVD of the constraint differential restricted to the tangent basis."""
    D = np.column_stack([constraint.dh(X_dense, B) for B in tangent_basis])
    _, svals, Vt = np.linalg.svd(D)
    scale = svals[0] if svals.size and svals[0] > 0 else 1.0
    null_coeffs = [
        Vt[k] for k in range(len(tangent_basis))
        if k >= svals.size or svals[k] <= tol * scale
    ]
    basis = []
    for c in null_coeffs:
        M = np.zeros_like(X_dense)
        for coef, B in zip(c, tangent_basis):
            M += coef * B
        basis.append(M)
    return basis


def fd_directional(func, X, Z, step=1e-5):
    """Central finite difference of a scalar or vector map along Z."""
    return (np.asarray(func(X + step * Z)) - np.asarray(func(X - step * Z))) / (2 * step)


def fd_gradient_check(f, grad_f, X, rng, trials=20, step=1e-5, rtol=1e-6):
    """Directional derivative of f vs <grad, Z> over random unit directions.

    Returns the worst relative error.
    """
    g = grad_f(X)
    worst = 0.0
    for _ in range(trials):
        Z = rng.standard_normal(X.shape)
        Z /= np.linalg.norm(Z)
        num = fd_directional(f, X, Z, step)
        ana = float(np.sum(g * Z))
        err = abs(num - ana) / max(abs(num), abs(ana), 1e-12)
        worst = max(worst, err)
    assert worst <= rtol, f"finite-difference mismatch: {worst:.3e}"
    return worst


def fd_dh_check(constraint, X, rng, trials=20, step=1e-5, rtol=1e-6):
    """Central differences of the constraint map vs its differential."""
    worst = 0.0
    for _ in range(trials):
        Z = rng.standard_normal(X.shape)
        Z /= np.linalg.norm(Z)
        num = fd_directional(constraint.value, X, Z, step)
        ana = constraint.dh(X, Z)
        err = np.linalg.norm(num - ana) / max(np.linalg.norm(ana), 1e-12)
        worst = max(worst, err)
    assert worst <= rtol, f"differential mismatch: {worst:.3e}"
    return worst


def loglog_slope(xs, ys):
    """Least-squares slope of log(y) against log(x)."""
    return float(np.polyfit(np.log(np.asarray(xs, dtype=float)),
                            np.log(np.asarray(ys, dtype=float)), 1)[0])


# ---------------------------------------------------------------------------
# the dense route: m x n tangent vectors, dense objectives and constraints
# ---------------------------------------------------------------------------

class DenseFixedRankManifold(FixedRankManifold):
    """Fixed-rank manifold whose tangent vectors are dense m x n arrays.

    ``retract`` is inherited: a dense eta is decomposed and checked for
    tangency densely there.
    """

    def tangent_project(self, X, Z):
        self._check(X, Z)
        U, V = X.u, X.v
        Z = np.asarray(Z)
        UtZ = U.T @ Z
        ZV = Z @ V
        return U @ UtZ + (ZV - U @ (UtZ @ V)) @ V.T


class DenseConstraint:
    """A constraint that only ever sees dense ambient matrices."""

    def __init__(self, inner):
        self.inner = inner
        self.q = inner.q

    def value(self, X):
        return self.inner.value(X.dense())

    def dh(self, X, Z):
        return self.inner.dh(X.dense(), np.asarray(Z))

    def dh_adjoint(self, X, lam):
        return self.inner.dh_adjoint(X.dense(), lam)

    def gram_solve(self, X, b):
        return self.inner.gram_solve(X.dense(), b)


def dense_sphere_problem(data) -> Problem:
    """The sphere problem on the dense route, with the collapsed projector
    eta - Dh*(Dh Dh*)^{-1} Dh eta written on m x n arrays."""
    manifold = DenseFixedRankManifold(data.m, data.n, data.r)
    constraint = DenseConstraint(ObliqueConstraint(data.m, data.n))

    def projector(point, xi):
        eta = manifold.tangent_project(point, xi)
        lam = constraint.gram_solve(point, constraint.dh(point, eta))
        return eta - constraint.dh_adjoint(point, lam)

    return Problem(
        manifold=manifold,
        constraint=constraint,
        f=lambda X: sphere_objective(data, X.dense()),
        grad_f=lambda X: sphere_grad(data, X.dense()),
        fast_projector=projector,
        extra_metric=lambda X: sphere_test_error(data, X.dense()),
    )


def dense_hyperboloid_projector(j_diag):
    """The factored reduced system of the hyperboloid projector, with a
    dense tangent-projected eta and a dense correction."""

    def project(point, xi):
        ws = build_workspace(point, j_diag)
        U, V = point.u, point.v
        eta = DenseFixedRankManifold(*point.shape, point.rank).tangent_project(point, xi)
        P, Q = ws.coeff_core @ V.T, ws.perp_factor @ V.T
        JX = U @ P + Q
        b = np.einsum("ij,ij->j", JX, eta)
        diag = reduced_gram_diag(ws)
        op = LinearOperator(b.size, lambda w: apply_reduced_gram(ws, w), symmetric=True)
        lam = pcg(op, b, precond=lambda v: v / diag, tol=PCG_TOL, max_iter=PCG_MAX_ITER).x
        return eta - U @ (P * lam[None, :]) - ((Q * lam[None, :]) @ V) @ V.T

    return project


def dense_hyperbolic_problem(data, r) -> Problem:
    constraint = DenseConstraint(HyperboloidConstraint(data.n, data.m))
    return Problem(
        manifold=DenseFixedRankManifold(data.n + 1, data.m, r + 1),
        constraint=constraint,
        f=lambda X: hyperbolic_objective(data, X.dense()),
        grad_f=lambda X: hyperbolic_grad(data, X.dense()),
        fast_projector=dense_hyperboloid_projector(constraint.inner.j_diag),
    )


# the q-column route: the reduced Gram matrix assembled and pseudo-inverted
# ---------------------------------------------------------------------------

def reduced_gram_matrix(manifold, constraint, point):
    """B = Dh P_T Dh* assembled column by column and symmetrized."""
    basis = np.eye(constraint.q)
    B = np.empty((constraint.q, constraint.q))
    for j in range(constraint.q):
        col = manifold.tangent_project(point, constraint.dh_adjoint(point, basis[j]))
        B[:, j] = constraint.dh(point, col)
    return 0.5 * (B + B.T)


def loop_tangent_intersection_project(manifold, constraint, point, xi):
    """Projection onto ker(Dh) within the tangent space through the
    pseudo-inverse of the assembled reduced Gram matrix:
    P_S(xi) = xi_bar - P_T Dh*(B^+ Dh(xi_bar)), xi_bar = P_T(xi)."""
    xi_bar = manifold.tangent_project(point, xi)
    B = reduced_gram_matrix(manifold, constraint, point)
    lam = pinv_apply(B, constraint.dh(point, xi_bar), rel_tol=1e-12)
    return xi_bar - manifold.tangent_project(point, constraint.dh_adjoint(point, lam))


def loop_projector_problem(problem) -> Problem:
    """The same problem with its projection onto S(X) done by
    :func:`loop_tangent_intersection_project`."""

    def project(point, xi):
        return loop_tangent_intersection_project(
            problem.manifold, problem.constraint, point, xi
        )

    return replace(problem, fast_projector=project)
