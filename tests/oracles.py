"""Independent reference constructions used to cross-check the library.

Everything here is built from first principles (explicit bases, dense
null spaces, finite differences) and deliberately avoids the code paths
under test.
"""

import numpy as np

from gotd import (
    DegenerateStep,
    FactoredPoint,
    FixedRankManifold,
    FixedRankTangent,
    HyperboloidConstraint,
    ObliqueConstraint,
    Problem,
    RankDeficient,
    SparsityManifold,
    StiefelConstraint,
    SupportPoint,
    hyperbolic_grad,
    hyperbolic_objective,
    sparsity_ratio,
    sphere_grad,
    sphere_objective,
    sphere_test_error,
)
from gotd.problems import ARCCOSH_SERIES_CUT
from gotd.solvers import RANK_RTOL, pinv_apply


def random_factored(rng, m, n, r, scale=1.0) -> FactoredPoint:
    """Random rank-r point with singular values bounded away from zero."""
    U = np.linalg.qr(rng.standard_normal((m, r)))[0]
    V = np.linalg.qr(rng.standard_normal((n, r)))[0]
    s = np.sort(rng.uniform(0.5, 2.0, r))[::-1] * scale
    return FactoredPoint(U, s, V)


def random_support_point(rng, m, n, s):
    """Random s-sparse point via hard thresholding of a Gaussian."""
    return SparsityManifold(m, n, s).project(rng.standard_normal((m, n)))


def nonzero_point(values: np.ndarray) -> SupportPoint:
    """The sparse point whose support is the nonzeros of ``values``."""
    return SupportPoint(values, values != 0.0)


def disjoint_support_point(rng) -> SupportPoint:
    """A 6 x 3 sparse point whose columns 0 and 1 have disjoint supports:
    P_T kills the adjoint image of their off-diagonal multiplier, so the
    reduced Gram matrix B = Dh P_T Dh* of the Stiefel map is singular."""
    support = np.zeros((6, 3), dtype=bool)
    support[[0, 1, 2], 0] = True
    support[[3, 4, 5], 1] = True
    support[[0, 3, 4], 2] = True
    return SupportPoint(np.where(support, rng.uniform(0.5, 1.5, (6, 3)), 0.0), support)


def feasible_oblique_lowrank(rng, m, n, r) -> FactoredPoint:
    """Rank-r point with unit rows (row scaling preserves the rank)."""
    X = random_factored(rng, m, n, r).dense()
    X = X / np.linalg.norm(X, axis=1, keepdims=True)
    return FixedRankManifold(m, n, r).project(X)


def dense_sphere_data(m, n, r, oversampling, seed):
    """The sphere data (target, omega, gamma) built the dense way, from
    the same random stream as ``gen_sphere_data``: the m x n product
    (U Sigma) V^T with its rows normalized, and the samples unraveled
    from flat indices."""
    nobs = round(oversampling * r * (m + n - r))
    rng = np.random.default_rng(seed)
    U = np.linalg.qr(rng.standard_normal((m, r)))[0]
    V = np.linalg.qr(rng.standard_normal((n, r)))[0]
    sig = rng.uniform(0.0, 1.0, r)
    A = (U * sig) @ V.T
    A /= np.linalg.norm(A, axis=1, keepdims=True)
    flat = rng.choice(m * n, size=2 * nobs, replace=False)
    omega = np.unravel_index(np.sort(flat[:nobs]), (m, n))
    gamma = np.unravel_index(np.sort(flat[nobs:]), (m, n))
    return A, omega, gamma


def unblocked_coo_matmul(G, W) -> np.ndarray:
    """G @ W for a ``CooMatrix`` G without blocks: the entries sorted by
    output index, then input index, and for each column of W one 1-D
    ``np.add.reduceat`` of the values times W gathered at the input
    indices.  The blocked products must match it bit for bit."""
    p = G.pattern
    outer, inner = (p.cols, p.rows) if G.transposed else (p.rows, p.cols)
    order = np.lexsort((inner, outer))
    outer, inner, vals = outer[order], inner[order], G.vals[order]
    present, starts = np.unique(outer, return_index=True)
    out = np.zeros((G.shape[0], W.shape[1]))
    if present.size:
        for k in range(W.shape[1]):
            out[present, k] = np.add.reduceat(vals * W[inner, k], starts)
    return out


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


def quartic_hyperboloid_project(Y: np.ndarray) -> np.ndarray:
    """Columnwise closest point on the upper hyperboloid sheet from the
    quartic polynomial of the secular equation.

    Multiplying phi(mu) = -(y0 / (1 - mu))^2 + c2 / (1 + mu)^2 + 1 by
    (1 - mu^2)^2 gives

        (1 - mu^2)^2 + c2 (1 - mu)^2 - y0^2 (1 + mu)^2 = 0,

    whose one root in (-1, 1) is taken from ``np.roots`` (the eigenvalues
    of its companion matrix); then x = [y0 / (1 - mu); y_1: / (1 + mu)]
    with y0 = |y_0| and c2 = ||y_1:||^2.
    """
    out = np.empty_like(Y, dtype=float)
    for j in range(Y.shape[1]):
        y0 = abs(Y[0, j])
        c2 = Y[1:, j] @ Y[1:, j]
        roots = np.roots([1.0, 0.0, c2 - y0**2 - 2.0, -2.0 * (c2 + y0**2), 1.0 + c2 - y0**2])
        real = roots[np.abs(roots.imag) <= 1e-9 * np.abs(roots)].real
        (mu,) = real[(real > -1.0) & (real < 1.0)]
        out[0, j] = y0 / (1.0 - mu)
        out[1:, j] = Y[1:, j] / (1.0 + mu)
    return out


def standalone_gradient_weights(u: np.ndarray) -> np.ndarray:
    """The hyperbolic gradient weights w = -2 g(u) of
    ``problems._gradient_weights``, taking arccosh and arccos of u itself
    on the branches where it uses them."""
    above = u > 1.0 + ARCCOSH_SERIES_CUT
    below = u < 1.0 - ARCCOSH_SERIES_CUT
    us = np.where(above, u, 2.0)
    ub = np.where(below, u, 0.5)
    g = np.where(above, np.arccosh(us) / np.sqrt(us * us - 1.0), 1.0 - (u - 1.0) / 3.0)
    g = np.where(below, np.arccos(ub) / np.sqrt(1.0 - ub * ub), g)
    return -2.0 * g


def standalone_squared_distance_sum(u: np.ndarray) -> float:
    """Sum of arccosh(u)^2, continued by -arccos(u)^2 below u = 1, taking
    both transcendentals of u itself."""
    return float(np.sum(
        np.arccosh(np.maximum(u, 1.0)) ** 2 - np.arccos(np.minimum(u, 1.0)) ** 2
    ))


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


def hard_threshold(Y: np.ndarray, s: int) -> SupportPoint:
    """Metric projection onto the matrices with s nonzeros by a stable
    sort: the first s entries of a stable argsort of -|Y| are kept, so
    ties go to the smallest row-major index, and every other entry is
    +0.0.  Raises DegenerateStep for a NaN entry or fewer than s nonzeros.
    """
    flat = Y.ravel()
    if np.count_nonzero(flat) < s or np.isnan(flat).any():
        raise DegenerateStep("no unique s-sparse projection")
    keep = np.argsort(-np.abs(flat), kind="stable")[:s]
    out = np.zeros(flat.size)
    out[keep] = flat[keep]
    return nonzero_point(out.reshape(Y.shape))


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
    D = np.column_stack([np.ravel(constraint.dh(X_dense, B)) for B in tangent_basis])
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


def min_so_far_slope(values, k_lo=10, k_hi=500):
    """Log-log slope of the running minimum of values over K in
    [k_lo, k_hi]: the rate fit of acceptance criterion 5."""
    running = np.minimum.accumulate(np.maximum(values, 1e-300))
    ks = np.arange(k_lo, min(k_hi, len(values) - 1) + 1)
    return loglog_slope(ks, running[ks])


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


def qr_retract(X: FactoredPoint, eta) -> FactoredPoint:
    """Best rank-r approximation of X + eta by the QR route.

    eta is a FixedRankTangent at X or a dense tangent array.  Householder
    QRs of Up and Vp, each re-orthogonalized against the point's factors,
    give orthonormal bases Qu, Qv and triangular Ru, Rv, and the factors
    are [U Qu] and [V Qv] times the top-r singular vectors of the 2r x 2r
    core [[Sigma + M, Rv^T], [Ru, 0]].
    """
    U, s, V = X.u, X.sigma, X.v
    r = s.shape[0]
    if isinstance(eta, FixedRankTangent):
        M, Up, Vp = eta.M, eta.Up, eta.Vp
    else:
        M = U.T @ eta @ V
        Up = eta @ V - U @ M
        Vp = eta.T @ U - V @ M.T
    Qu, Ru = np.linalg.qr(Up)
    Qu = Qu - U @ (U.T @ Qu)
    Qu, R2 = np.linalg.qr(Qu)
    Ru = R2 @ Ru
    Qv, Rv = np.linalg.qr(Vp)
    Qv = Qv - V @ (V.T @ Qv)
    Qv, R2 = np.linalg.qr(Qv)
    Rv = R2 @ Rv
    K = np.block([[np.diag(s) + M, Rv.T], [Ru, np.zeros((r, r))]])
    Uk, sk, Vkt = np.linalg.svd(K)
    if sk[r - 1] <= RANK_RTOL * sk[0]:
        raise RankDeficient(f"retraction target has numerical rank below {r}")
    Un = np.hstack([U, Qu]) @ Uk[:, :r]
    Vn = np.hstack([V, Qv]) @ Vkt[:r].T
    Un = Un @ (1.5 * np.eye(r) - 0.5 * (Un.T @ Un))
    Vn = Vn @ (1.5 * np.eye(r) - 0.5 * (Vn.T @ Vn))
    return FactoredPoint(Un, sk[:r].copy(), Vn)


class DenseConstraint:
    """A constraint that only ever sees dense ambient matrices, and whose
    Gram solvers factor afresh for every right-hand side: by
    ``gram_solve``, and for the reduced Gram operator by the inner
    solver at the dense point (the diagonal of Dh Dh* for the hyperboloid
    map, which has no fixed-rank factors to invert B from).  A sparse
    point goes to the inner solver as it is, since its mask picks the
    Stiefel map's Jacobi preconditioner."""

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

    def gram_solver(self, X):
        return lambda b: self.gram_solve(X, b)

    def reduced_gram_solver(self, X):
        point = X if isinstance(X, SupportPoint) else X.dense()
        return lambda b: self.inner.reduced_gram_solver(point)(b)


def collapsed_projector(manifold, constraint, point, xi):
    """eta - Dh*(Dh Dh*)^{-1} Dh eta with eta = P_T(xi): the projection onto
    S(X) for a pair whose Dh* lam is already tangent (the sphere pair).
    Signature of ``gotd.algorithm.tangent_intersection_project``, which a
    test monkeypatches with it."""
    eta = manifold.tangent_project(point, xi)
    lam = constraint.gram_solve(point, constraint.dh(point, eta))
    return eta - constraint.dh_adjoint(point, lam)


def dense_sphere_problem(data) -> Problem:
    """The sphere problem on the dense route: m x n tangent vectors and
    dense objective, gradient and constraint maps."""
    return Problem(
        manifold=DenseFixedRankManifold(data.m, data.n, data.r),
        constraint=DenseConstraint(ObliqueConstraint(data.m, data.n)),
        f=lambda X: sphere_objective(data, X.dense()),
        grad_f=lambda X: sphere_grad(data, X.dense()),
        extra_metric=lambda X: sphere_test_error(data, X.dense()),
    )


def dense_hyperbolic_problem(data, r) -> Problem:
    """The hyperbolic problem on the dense route, projected onto S(X) by
    the generic conjugate gradients on the dense maps."""
    return Problem(
        manifold=DenseFixedRankManifold(data.n + 1, data.m, r + 1),
        constraint=DenseConstraint(HyperboloidConstraint(data.n, data.m)),
        f=lambda X: hyperbolic_objective(data, X.dense()),
        grad_f=lambda X: hyperbolic_grad(data, X.dense()),
    )


def dense_modes_problem(data) -> Problem:
    """The modes problem with the dense n x n Hamiltonian, separate
    objective and gradient, and Dh Dh* factored on every solve."""
    H = data.hamiltonian
    return Problem(
        manifold=SparsityManifold(data.n, data.p, data.s),
        constraint=DenseConstraint(StiefelConstraint(data.n, data.p)),
        f=lambda X: float(np.sum(X.dense() * (H @ X.dense()))),
        grad_f=lambda X: 2.0 * (H @ X.dense()),
        extra_metric=sparsity_ratio,
    )


# the q-column route: the reduced Gram matrix assembled and pseudo-inverted
# ---------------------------------------------------------------------------

def multiplier_basis(constraint, point):
    """Orthonormal basis of the multiplier space: the unit vectors of R^q
    for a vector-valued h, and E_ii, (E_ij + E_ji) / sqrt(2) for i < j
    for a symmetric p x p one (the Stiefel map)."""
    shape = np.shape(constraint.value(point))
    if len(shape) == 1:
        return list(np.eye(shape[0]))
    basis = []
    for i, j in zip(*np.triu_indices(shape[0])):
        E = np.zeros(shape)
        E[i, j] = E[j, i] = 1.0 if i == j else np.sqrt(0.5)
        basis.append(E)
    return basis


def reduced_gram_matrix(manifold, constraint, point):
    """B = Dh P_T Dh* in the coordinates of :func:`multiplier_basis`,
    assembled column by column and symmetrized."""
    basis = multiplier_basis(constraint, point)
    B = np.empty((constraint.q, constraint.q))
    for j, E in enumerate(basis):
        col = manifold.tangent_project(point, constraint.dh_adjoint(point, E))
        image = constraint.dh(point, col)
        B[:, j] = [np.vdot(F, image) for F in basis]
    return 0.5 * (B + B.T)


def loop_tangent_intersection_project(manifold, constraint, point, xi):
    """Projection onto ker(Dh) within the tangent space through the
    pseudo-inverse of the assembled reduced Gram matrix:
    P_S(xi) = xi_bar - P_T Dh*(B^+ Dh(xi_bar)), xi_bar = P_T(xi), with the
    multiplier in the coordinates of :func:`multiplier_basis`.
    Signature of ``gotd.algorithm.tangent_intersection_project``."""
    xi_bar = manifold.tangent_project(point, xi)
    basis = multiplier_basis(constraint, point)
    B = reduced_gram_matrix(manifold, constraint, point)
    rhs = constraint.dh(point, xi_bar)
    coeffs = pinv_apply(B, [np.vdot(E, rhs) for E in basis], rel_tol=1e-12)
    lam = sum(c * E for c, E in zip(coeffs, basis))
    return xi_bar - manifold.tangent_project(point, constraint.dh_adjoint(point, lam))
