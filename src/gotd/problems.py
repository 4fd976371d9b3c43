"""The three benchmark problems: spherical data fitting, low-rank
approximation of hyperbolic embeddings (synthetic), and compressed modes.

Each experiment comes as a data container, a  deterministic generator,
objective/gradient functions, a fused ``*_value_and_grad`` that evaluates
both from one pass over the point, an initializer, and a
``make_*_problem`` wiring function that assembles a
:class:`~gotd.algorithm.Problem`.
"""

from dataclasses import dataclass, field

import numpy as np

from .algorithm import Problem
from .constraints import HyperboloidConstraint, ObliqueConstraint, StiefelConstraint
from .errors import DomainViolation, InfeasibleSampling
from .fastproj import build_workspace, project_hyperboloid_lowrank
from .manifolds import (
    FactoredPoint,
    FixedRankManifold,
    FixedRankTangent,
    SparsityManifold,
    SupportPoint,
    as_dense,
)
from .solvers import truncated_svd

ARCCOSH_SERIES_CUT = 1e-8
LORENTZ_SLACK = 1e-9


# ---------------------------------------------------------------------------
# sparse ambient operands
# ---------------------------------------------------------------------------

class SparsePattern:
    """Distinct positions (rows, cols) of a sparse m x n matrix, grouped
    once by row and once by column.

    Products of a :class:`CooMatrix` on the pattern are then segment sums
    (``np.add.reduceat``) over contiguous runs, several times faster in
    numpy than scattering with ``np.bincount``.
    """

    def __init__(self, rows: np.ndarray, cols: np.ndarray, shape: tuple):
        self.rows = rows
        self.cols = cols
        self.shape = tuple(shape)
        self.by_row = _Runs(rows, cols, self.shape[0])
        self.by_col = _Runs(cols, rows, self.shape[1])


class _Runs:
    """Entries ordered by their output index, for G @ W: ``order`` sorts
    them (None when they are sorted already), ``inner`` is their input
    index in that order, and the run of output index ``present[i]``
    starts at ``starts[i]``."""

    def __init__(self, outer: np.ndarray, inner: np.ndarray, size: int):
        order = np.argsort(outer, kind="stable")
        self.order = None if np.all(np.diff(outer) >= 0) else order
        self.inner = inner[order]
        self.present = np.flatnonzero(np.bincount(outer, minlength=size))
        self.starts = np.searchsorted(outer[order], self.present)
        self.size = size

    def product(self, vals: np.ndarray, W: np.ndarray) -> np.ndarray:
        v = vals if self.order is None else vals[self.order]
        out = np.zeros((W.shape[1], self.size))
        if self.present.size:
            for k, w in enumerate(np.ascontiguousarray(W.T)):
                out[k, self.present] = np.add.reduceat(v * w[self.inner], self.starts)
        return out.T


@dataclass(frozen=True, eq=False)
class CooMatrix:
    """Matrix with the values ``vals`` at the positions of ``pattern`` and
    zeros elsewhere (``transposed`` swaps the roles of rows and columns).

    It supports what a fixed-rank tangent projection needs of an ambient
    operand, ``G @ W`` and ``G.T @ W``, at O(len(vals) k);
    ``np.asarray`` gives the dense matrix.
    """

    pattern: SparsePattern
    vals: np.ndarray
    transposed: bool = False

    @property
    def shape(self) -> tuple:
        return self.pattern.shape[::-1] if self.transposed else self.pattern.shape

    @property
    def T(self) -> "CooMatrix":
        return CooMatrix(self.pattern, self.vals, not self.transposed)

    def __matmul__(self, W: np.ndarray) -> np.ndarray:
        runs = self.pattern.by_col if self.transposed else self.pattern.by_row
        return runs.product(self.vals, W)

    def __mul__(self, scalar):
        if not np.isscalar(scalar):
            return NotImplemented
        return CooMatrix(self.pattern, scalar * self.vals, self.transposed)

    __rmul__ = __mul__

    def __neg__(self) -> "CooMatrix":
        return CooMatrix(self.pattern, -self.vals, self.transposed)

    def dense(self) -> np.ndarray:
        out = np.zeros(self.pattern.shape)
        out[self.pattern.rows, self.pattern.cols] = self.vals
        return out.T if self.transposed else out

    def __array__(self, dtype=None, copy=None):
        out = self.dense()
        return out if dtype is None else out.astype(dtype, copy=False)


# ---------------------------------------------------------------------------
# spherical data fitting: unit-norm rows meet fixed rank
# ---------------------------------------------------------------------------

@dataclass
class SphereFitProblem:
    target: np.ndarray          # ground truth on the oblique set
    omega: tuple                # (rows, cols) of observed entries
    gamma: tuple                # (rows, cols) of held-out test entries
    m: int
    n: int
    r: int
    oversampling: float
    seed: int
    # gathered once: target[omega], target[gamma] and the pattern of omega
    target_omega: np.ndarray = field(init=False, repr=False)
    target_gamma: np.ndarray = field(init=False, repr=False)
    omega_pattern: SparsePattern = field(init=False, repr=False)

    def __post_init__(self):
        self.target_omega = self.target[self.omega]
        self.target_gamma = self.target[self.gamma]
        self.omega_pattern = SparsePattern(*self.omega, (self.m, self.n))


def gen_sphere_data(m: int, n: int, r: int, oversampling: float, seed: int) -> SphereFitProblem:
    """Random rank-r ground truth with unit rows and disjoint train/test
    entry sets of equal size |Omega| = round(OS * r * (m + n - r))."""
    nobs = round(oversampling * r * (m + n - r))
    if 2 * nobs > m * n:
        raise InfeasibleSampling(
            f"need {2 * nobs} distinct entries but the matrix has {m * n}"
        )
    rng = np.random.default_rng(seed)
    U = np.linalg.qr(rng.standard_normal((m, r)))[0]
    V = np.linalg.qr(rng.standard_normal((n, r)))[0]
    sig = rng.uniform(0.0, 1.0, r)
    A = (U * sig) @ V.T
    A /= np.linalg.norm(A, axis=1, keepdims=True)
    flat = rng.choice(m * n, size=2 * nobs, replace=False)
    omega = np.unravel_index(np.sort(flat[:nobs]), (m, n))
    gamma = np.unravel_index(np.sort(flat[nobs:]), (m, n))
    return SphereFitProblem(A, omega, gamma, m, n, r, oversampling, seed)


def _sampled(X, idx) -> np.ndarray:
    """X[idx], read from the factors of a fixed-rank point."""
    if isinstance(X, FactoredPoint):
        return X.entries(*idx)
    return as_dense(X)[idx]


def sphere_objective(prob: SphereFitProblem, X) -> float:
    resid = _sampled(X, prob.omega) - prob.target_omega
    return 0.5 * float(np.linalg.norm(resid) ** 2)


def sphere_grad(prob: SphereFitProblem, X):
    """The gradient is supported on Omega: a :class:`CooMatrix` for a
    fixed-rank point, a dense array for a dense X."""
    return sphere_value_and_grad(prob, X)[1]


def sphere_value_and_grad(prob: SphereFitProblem, X):
    """Objective and gradient (as in :func:`sphere_grad`) from one gather
    of X on Omega."""
    resid = _sampled(X, prob.omega) - prob.target_omega
    f_val = 0.5 * float(np.linalg.norm(resid) ** 2)
    if isinstance(X, FactoredPoint):
        return f_val, CooMatrix(prob.omega_pattern, resid)
    g = np.zeros_like(as_dense(X))
    g[prob.omega] = resid
    return f_val, g


def sphere_test_error(prob: SphereFitProblem, X) -> float:
    """Relative error on the held-out entries."""
    num = np.linalg.norm(_sampled(X, prob.gamma) - prob.target_gamma)
    return float(num / np.linalg.norm(prob.target_gamma))


def init_sphere(prob: SphereFitProblem, seed: int) -> FactoredPoint:
    """Product of a unit-row random factor and a random orthonormal
    factor, projected to rank r.

    H0 V0^T has rank r, so the thin SVD H0 = W S Z^T of the m x r factor
    gives its SVD W S (V0 Z)^T without forming the m x n product.
    """
    rng = np.random.default_rng(seed)
    H0 = rng.standard_normal((prob.m, prob.r))
    H0 /= np.linalg.norm(H0, axis=1, keepdims=True)
    V0 = np.linalg.qr(rng.standard_normal((prob.n, prob.r)))[0]
    W, S, Z = truncated_svd(H0, prob.r)
    return FactoredPoint(W, S, V0 @ Z)


def make_sphere_problem(prob: SphereFitProblem) -> Problem:
    return Problem(
        manifold=FixedRankManifold(prob.m, prob.n, prob.r),
        constraint=ObliqueConstraint(prob.m, prob.n),
        f=lambda X: sphere_objective(prob, X),
        grad_f=lambda X: sphere_grad(prob, X),
        extra_metric=lambda X: sphere_test_error(prob, X),
        value_and_grad=lambda X: sphere_value_and_grad(prob, X),
    )


# ---------------------------------------------------------------------------
# hyperbolic embedding approximation: hyperboloid columns meet fixed rank
# ---------------------------------------------------------------------------

@dataclass
class HyperbolicFitProblem:
    targets: np.ndarray         # (n+1, m), columns on the hyperboloid
    n: int
    m: int
    r_true: int
    seed: int
    tail_scale: float


def gen_hyperbolic_data(
    n: int, m: int, r_true: int, seed: int, tail_scale: float = 0.3
) -> HyperbolicFitProblem:
    """Synthetic embeddings: a rank-r_true spatial signal (scale 0.5)
    plus an isotropic spatial tail, each column lifted exactly onto the
    hyperboloid.

    With tail_scale = 0 the spatial part has rank exactly r_true and the
    matrix rank r_true + 1; a positive tail makes the data full rank so
    that a rank-(r+1) approximation is a genuine compression task.
    """
    rng = np.random.default_rng(seed)
    Z = 0.5 * rng.standard_normal((r_true, m))
    W = np.linalg.qr(rng.standard_normal((n, r_true)))[0]
    spatial = W @ Z
    if tail_scale > 0.0:
        spatial = spatial + tail_scale * rng.standard_normal((n, m))
    top = np.sqrt(1.0 + np.einsum("ij,ij->j", spatial, spatial))
    return HyperbolicFitProblem(np.vstack([top, spatial]), n, m, r_true, seed, tail_scale)


def _signature_pairing(prob: HyperbolicFitProblem, X: FactoredPoint) -> np.ndarray:
    """P = (J U)^T T, s x m, so that x_i^T J t_i = (Sigma v_i)^T p_i for
    the fixed-rank point X = U Sigma V^T."""
    JU = X.u.copy()
    JU[0] = -JU[0]
    return JU.T @ prob.targets


def _lorentz_gaps(prob: HyperbolicFitProblem, X, P=None) -> np.ndarray:
    """u_i = -<x_i, target_i>_J, clamped at 1 from below.

    For a fixed-rank point u is the row sums of -(V Sigma) .* P^T with
    P from :func:`_signature_pairing` (passed in when the caller has it);
    for an array it is 2 x_0i t_0i - x_i . t_i.
    """
    if isinstance(X, FactoredPoint):
        if P is None:
            P = _signature_pairing(prob, X)
        u = -np.einsum("ij,ji->i", X.v * X.sigma, P)
    else:
        T = prob.targets
        u = 2.0 * X[0] * T[0] - np.einsum("ij,ij->j", X, T)
    if np.any(u < 1.0 - LORENTZ_SLACK):
        raise DomainViolation(
            f"Lorentz product {u.min():.6e} below 1; columns left the sheet"
        )
    return np.maximum(u, 1.0)


def _gradient_weights(u: np.ndarray) -> np.ndarray:
    """w = -2 g(u) with g(u) = arccosh(u)/sqrt(u^2-1), continued by its
    series value 1 - (u - 1)/3 near u = 1."""
    safe = u > 1.0 + ARCCOSH_SERIES_CUT
    us = np.where(safe, u, 2.0)
    g = np.where(
        safe,
        np.arccosh(us) / np.sqrt(us * us - 1.0),
        1.0 - (u - 1.0) / 3.0,
    )
    return -2.0 * g


def _weighted_targets(prob: HyperbolicFitProblem, w: np.ndarray) -> np.ndarray:
    """J T Diag(w), with J applied last as a sign flip of row 0."""
    out = prob.targets * w[None, :]
    out[0] = -out[0]
    return out


def hyperbolic_objective(prob: HyperbolicFitProblem, X) -> float:
    """Sum of squared hyperbolic distances to the target columns."""
    u = _lorentz_gaps(prob, X)
    return float(np.sum(np.arccosh(u) ** 2))


def hyperbolic_grad(prob: HyperbolicFitProblem, X) -> np.ndarray:
    """Column i is -2 g(u_i) J target_i with g(u) = arccosh(u)/sqrt(u^2-1),
    continued by its series value 1 - (u - 1)/3 near u = 1."""
    return _weighted_targets(prob, _gradient_weights(_lorentz_gaps(prob, X)))


def hyperbolic_value_and_grad(prob: HyperbolicFitProblem, X):
    """Objective and gradient from one computation of the gaps.

    At a fixed-rank point the gradient G = J T Diag(w) enters the step
    only through its tangent projection, which needs G^T U = Diag(w) P^T
    (P is reused from the gaps) and G V = J T (w .* V), one (n+1) x s
    product; the projection is returned as a :class:`FixedRankTangent`
    and no (n+1) x m array is formed.  An array gets the dense gradient.
    """
    P = _signature_pairing(prob, X) if isinstance(X, FactoredPoint) else None
    u = _lorentz_gaps(prob, X, P)
    w = _gradient_weights(u)
    f_val = float(np.sum(np.arccosh(u) ** 2))
    if P is None:
        return f_val, _weighted_targets(prob, w)
    GV = prob.targets @ (w[:, None] * X.v)
    GV[0] = -GV[0]
    return f_val, FixedRankTangent.from_products(X, GV, w[:, None] * P.T)


def init_hyperbolic(prob: HyperbolicFitProblem, r: int) -> FactoredPoint:
    """Lift initialization: project the spatial block onto its top-r
    left singular subspace, re-lift each column, and truncate to rank r+1.

    The subspace is spanned by the top-r eigenvectors of the n x n Gram
    matrix spatial spatial^T; the result depends only on U_r U_r^T.  The
    lifted matrix [top; U_r Z_r] is B Y with B = diag(1, U_r), whose
    columns are orthonormal, and Y = [top; Z_r] of size (r+1) x m, so the
    SVD W S Z^T of Y gives its SVD (B W) S Z^T.
    """
    spatial = prob.targets[1:, :]
    Ur = np.linalg.eigh(spatial @ spatial.T)[1][:, ::-1][:, :r]
    Zr = Ur.T @ spatial
    top = np.sqrt(1.0 + np.einsum("ij,ij->j", Zr, Zr))
    W, S, Z = truncated_svd(np.vstack([top, Zr]), r + 1)
    return FactoredPoint(np.vstack([W[:1], Ur @ W[1:]]), S, Z)


def make_hyperbolic_problem(prob: HyperbolicFitProblem, r: int) -> Problem:
    manifold = FixedRankManifold(prob.n + 1, prob.m, r + 1)
    constraint = HyperboloidConstraint(prob.n, prob.m)

    def projector(point, xi):
        ws = build_workspace(point, constraint.j_diag)
        return project_hyperboloid_lowrank(point, ws, xi)

    return Problem(
        manifold=manifold,
        constraint=constraint,
        f=lambda X: hyperbolic_objective(prob, X),
        grad_f=lambda X: hyperbolic_grad(prob, X),
        fast_projector=projector,
        value_and_grad=lambda X: hyperbolic_value_and_grad(prob, X),
    )


# ---------------------------------------------------------------------------
# compressed modes: sparsity set meets orthonormal columns
# ---------------------------------------------------------------------------

@dataclass
class CompressedModesProblem:
    """Free-electron Hamiltonian -0.5 d^2/dx^2 on [0, length], discretized
    on n interior grid points with zero boundary values."""

    n: int
    p: int
    length: float
    rho: float
    s: int
    beta_default: float

    def apply_hamiltonian(self, X: np.ndarray) -> np.ndarray:
        """H X for H = (2I - S - S^T) / (2 h^2), S the shift down by one
        grid point: a 3-point stencil at O(n p)."""
        h = self.length / (self.n + 1)
        out = 2.0 * X
        out[1:] -= X[:-1]
        out[:-1] -= X[1:]
        return out / (2.0 * h * h)

    @property
    def hamiltonian(self) -> np.ndarray:
        """The dense (n, n) matrix H, built on demand."""
        return self.apply_hamiltonian(np.eye(self.n))


def gen_modes_problem(n: int, p: int, length: float, rho: float) -> CompressedModesProblem:
    """Hamiltonian on [0, length] with n interior grid points; sparsity
    budget s = round(rho * n * p)."""
    s = round(rho * n * p)
    return CompressedModesProblem(n, p, length, rho, s, length**2 / (4.0 * n**2))


def modes_objective(prob: CompressedModesProblem, X) -> float:
    X = as_dense(X)
    return float(np.sum(X * prob.apply_hamiltonian(X)))


def modes_grad(prob: CompressedModesProblem, X) -> np.ndarray:
    return 2.0 * prob.apply_hamiltonian(as_dense(X))


def modes_value_and_grad(prob: CompressedModesProblem, X):
    """Energy tr(X^T H X) and its gradient 2 H X from one application of
    the stencil."""
    X = as_dense(X)
    HX = prob.apply_hamiltonian(X)
    return float(np.sum(X * HX)), 2.0 * HX


def sparsity_ratio(X) -> float:
    """Fraction of exactly-zero entries."""
    X = as_dense(X)
    return (X.size - np.count_nonzero(X)) / X.size


def init_modes(prob: CompressedModesProblem, seed: int) -> SupportPoint:
    """Random orthonormal wave functions hard-thresholded onto the
    sparsity set."""
    rng = np.random.default_rng(seed)
    Q = np.linalg.qr(rng.standard_normal((prob.n, prob.p)))[0]
    return SparsityManifold(prob.n, prob.p, prob.s).project(Q)


def make_modes_problem(prob: CompressedModesProblem) -> Problem:
    return Problem(
        manifold=SparsityManifold(prob.n, prob.p, prob.s),
        constraint=StiefelConstraint(prob.n, prob.p),
        f=lambda X: modes_objective(prob, X),
        grad_f=lambda X: modes_grad(prob, X),
        extra_metric=sparsity_ratio,
        value_and_grad=lambda X: modes_value_and_grad(prob, X),
    )
