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
from .errors import DomainViolation, InfeasibleSampling, ShapeMismatch
from .manifolds import (
    FactoredPoint,
    FixedRankManifold,
    FixedRankTangent,
    SparsityManifold,
    SupportPoint,
    as_dense,
    product_entries,
)
from .solvers import truncated_svd

ARCCOSH_SERIES_CUT = 1e-8


# ---------------------------------------------------------------------------
# sparse ambient operands
# ---------------------------------------------------------------------------

# entries per block of the sampled kernels: a block's gathered factor
# columns stay in cache, where |Omega|-long gathers fault in fresh pages.
# On a 2000 x 2400 sample with OS 6, blocks of 4096 to 16384 entries time
# alike at r = 5, 10 and 20; 2048 or fewer, and 65536, are slower.
BLOCK_ENTRIES = 4096


class SparsePattern:
    """Distinct positions (rows, cols) of a sparse m x n matrix, grouped
    once by row and once by column.

    Products of a :class:`CooMatrix` on the pattern are then segment sums
    (``np.add.reduceat``) over contiguous runs, taken block by block and
    several times faster in numpy than scattering with ``np.bincount``;
    :func:`sphere_value_and_grad` runs its fused pass over the row blocks.
    """

    def __init__(self, rows: np.ndarray, cols: np.ndarray, shape: tuple):
        self.rows = rows
        self.cols = cols
        self.shape = tuple(shape)
        m, n = self.shape
        self.by_row = _Runs(rows, cols, m, n)
        self.by_col = _Runs(cols, rows, n, m)


class _Runs:
    """Entries ordered by their output index, for G @ W, and by their
    input index within a run: ``order`` sorts them (None when they are
    sorted already), and ``inner`` is their input index in that order.

    The order is one argsort of the distinct keys outer * inner_size +
    inner.  That is cheaper than a stable argsort of ``outer``, and the
    same permutation when the entries of each run come in increasing
    input index, as they do for a sample sorted row-major.  ``inner`` is
    kept contiguous, because every step gathers through it.

    ``blocks`` cuts the ordered entries at run starts into blocks of at
    most ``BLOCK_ENTRIES`` (a longer run is a block of its own).  Block
    (idx, inner, runs, counts, starts) holds the entries at positions
    ``idx`` of the input order, with their input indices ``inner``: the
    runs of the output indices ``runs``, their lengths, and their starts
    within the block.
    """

    def __init__(self, outer: np.ndarray, inner: np.ndarray, size: int, inner_size: int):
        key = outer * inner_size + inner
        if np.all(key[1:] > key[:-1]):
            self.order = None
            self.inner = np.ascontiguousarray(inner)
        else:
            self.order = np.argsort(key)
            self.inner = inner[self.order]
        self.size = size
        # the run of output index present[i] starts at starts[i]
        counts = np.bincount(outer, minlength=size)
        present = np.flatnonzero(counts)
        counts = counts[present]
        ends = np.cumsum(counts)
        starts = ends - counts
        # stop[i]: one past the last run that ends within BLOCK_ENTRIES
        # entries of the start of run i
        stop = np.searchsorted(ends, starts + BLOCK_ENTRIES, "right").tolist()
        self.blocks = []
        i = 0
        while i < counts.size:
            j = max(stop[i], i + 1)
            lo, hi = int(starts[i]), int(ends[j - 1])
            idx = slice(lo, hi) if self.order is None else self.order[lo:hi]
            self.blocks.append(
                (idx, self.inner[lo:hi], present[i:j], counts[i:j], starts[i:j] - lo)
            )
            i = j

    def product(self, vals: np.ndarray, W: np.ndarray) -> np.ndarray:
        """G @ W for the matrix G with the values ``vals`` (in input order)
        at the entries: per block, W^T gathered at the inner indices and
        scaled by the values, summed over each run."""
        Wt = np.ascontiguousarray(W.T)
        out = np.zeros((Wt.shape[0], self.size))
        for idx, inner, runs, _, starts in self.blocks:
            Wb = Wt.take(inner, axis=1)
            Wb *= vals[idx]
            out[:, runs] = np.add.reduceat(Wb, starts, axis=1)
        return out.T

    def blocks_of(self, A: np.ndarray, B: np.ndarray):
        """Per block: its ``idx``, ``runs`` and ``starts``, the entries x
        of A B^T there, and B^T gathered at their inner indices (k x
        block, writable).

        A is indexed by the outer and B by the inner index.  x is the
        running sum over k of A[i, k] B[l, k], bit-equal to
        :func:`~gotd.manifolds.product_entries`.
        """
        At, Bt = np.ascontiguousarray(A.T), np.ascontiguousarray(B.T)
        for idx, inner, runs, counts, starts in self.blocks:
            Bb = Bt.take(inner, axis=1)
            AB = np.repeat(At[:, runs], counts, axis=1)
            AB *= Bb
            x = AB[0]
            for row in AB[1:]:
                x += row
            yield idx, runs, starts, x, Bb

    def entries(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        """(A B^T) at the entries, in input order (see :meth:`blocks_of`)."""
        out = np.empty(self.inner.size)
        for idx, _, _, x, _ in self.blocks_of(A, B):
            out[idx] = x
        return out


@dataclass(frozen=True, eq=False)
class CooMatrix:
    """Matrix with the values ``vals`` at the positions of ``pattern`` and
    zeros elsewhere (``transposed`` swaps the roles of rows and columns).

    :func:`sphere_grad` returns it at a fixed-rank point; the run takes
    the projection from :func:`sphere_value_and_grad` and builds none.
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
    """Spherical data fitting: the rank-r truth ``left @ right.T``, whose
    rows have unit norm, is seen on the sample Omega; Gamma is a disjoint
    held-out sample of the same size, and both are (rows, cols) pairs of
    contiguous index arrays sorted row-major.

    The truth is kept factored, ``left`` = Diag(1/||(U Sigma)_i||) U Sigma
    (m x r, unit rows) and ``right`` = V (n x r, orthonormal columns), so
    the data take O((m + n) r + |Omega|) memory.  ``target_omega`` and
    ``target_gamma`` are gathered from the factors, and ``target`` builds
    the dense m x n matrix on demand with entries bit-equal to them.
    Omega gets a full :class:`SparsePattern`, for the fused residual and
    gradient products; Gamma only its row blocks, for the held-out gather.
    """

    left: np.ndarray
    right: np.ndarray
    omega: tuple
    gamma: tuple
    m: int
    n: int
    r: int
    oversampling: float
    seed: int
    # computed once: target[omega], target[gamma] and its norm, the
    # pattern of omega and the row runs of gamma
    target_omega: np.ndarray = field(init=False, repr=False)
    target_gamma: np.ndarray = field(init=False, repr=False)
    target_gamma_norm: float = field(init=False, repr=False)
    omega_pattern: SparsePattern = field(init=False, repr=False)
    gamma_rows: _Runs = field(init=False, repr=False)

    def __post_init__(self):
        self.target_omega = product_entries(self.left, self.right, *self.omega)
        self.target_gamma = product_entries(self.left, self.right, *self.gamma)
        self.target_gamma_norm = np.linalg.norm(self.target_gamma)
        self.omega_pattern = SparsePattern(*self.omega, (self.m, self.n))
        self.gamma_rows = _Runs(*self.gamma, self.m, self.n)

    @property
    def target(self) -> np.ndarray:
        """The dense m x n ground truth, built on each access."""
        everywhere = np.ix_(np.arange(self.m), np.arange(self.n))
        return product_entries(self.left, self.right, *everywhere)


def gen_sphere_data(m: int, n: int, r: int, oversampling: float, seed: int) -> SphereFitProblem:
    """Random rank-r ground truth with unit rows and disjoint train/test
    entry sets of equal size |Omega| = round(OS * r * (m + n - r)) >= 1."""
    if not 1 <= r <= min(m, n):
        raise ShapeMismatch(f"rank r={r} is outside 1..min(m, n) for {m} x {n}")
    if not np.isfinite(oversampling):
        raise DomainViolation(f"oversampling {oversampling} is not finite")
    nobs = round(oversampling * r * (m + n - r))
    if nobs < 1:
        raise InfeasibleSampling(
            f"oversampling {oversampling} gives an empty sample for r={r}, {m} x {n}"
        )
    if 2 * nobs > m * n:
        raise InfeasibleSampling(
            f"need {2 * nobs} distinct entries but the matrix has {m * n}"
        )
    rng = np.random.default_rng(seed)
    U = np.linalg.qr(rng.standard_normal((m, r)))[0]
    V = np.linalg.qr(rng.standard_normal((n, r)))[0]
    sig = rng.uniform(0.0, 1.0, r)
    # V has orthonormal columns, so row i of U Sigma V^T has the norm of
    # row i of U Sigma
    left = U * sig
    left /= np.linalg.norm(left, axis=1, keepdims=True)
    flat = rng.choice(m * n, size=2 * nobs, replace=False)
    omega = np.divmod(np.sort(flat[:nobs]), n)
    gamma = np.divmod(np.sort(flat[nobs:]), n)
    return SphereFitProblem(left, V, omega, gamma, m, n, r, oversampling, seed)


def _sample_error(X, runs: _Runs, sample: tuple, target: np.ndarray) -> np.ndarray:
    """X[sample] - target, with X read from the factors of a fixed-rank
    point by the row runs of the sample."""
    if isinstance(X, FactoredPoint):
        sampled = runs.entries(X.us, X.v)
    else:
        sampled = as_dense(X)[sample]
    return sampled - target


def _residual(prob: SphereFitProblem, X) -> np.ndarray:
    return _sample_error(X, prob.omega_pattern.by_row, prob.omega, prob.target_omega)


def _half_square(resid: np.ndarray) -> float:
    return 0.5 * float(np.linalg.norm(resid) ** 2)


def sphere_objective(prob: SphereFitProblem, X) -> float:
    return _half_square(_residual(prob, X))


def sphere_grad(prob: SphereFitProblem, X):
    """The gradient is supported on Omega: a :class:`CooMatrix` for a
    fixed-rank point, a dense array for a dense X."""
    resid = _residual(prob, X)
    if isinstance(X, FactoredPoint):
        return CooMatrix(prob.omega_pattern, resid)
    g = np.zeros_like(as_dense(X))
    g[prob.omega] = resid
    return g


def sphere_value_and_grad(prob: SphereFitProblem, X: FactoredPoint):
    """Objective and gradient at a fixed-rank point X = U Sigma V^T from
    one pass over Omega (:func:`sphere_grad` is the dense definition).

    The gradient G (the residual on Omega) enters the step only through
    its tangent projection, which needs G V and G^T U.  One pass over the
    row blocks gathers V^T once per block for the residual and G V (both
    bit-equal to unblocked gathers), G^T U is the :class:`CooMatrix`
    product by columns, and the projection is a :class:`FixedRankTangent`.
    """
    pattern = prob.omega_pattern
    resid = np.empty(len(pattern.rows))
    GV = np.zeros((X.rank, prob.m))
    for idx, runs, starts, x, Vb in pattern.by_row.blocks_of(X.us, X.v):
        x -= prob.target_omega[idx]
        resid[idx] = x
        Vb *= x
        GV[:, runs] = np.add.reduceat(Vb, starts, axis=1)
    GtU = pattern.by_col.product(resid, X.u)
    return _half_square(resid), FixedRankTangent.from_products(X, GV.T, GtU)


def sphere_test_error(prob: SphereFitProblem, X) -> float:
    """Relative error on the held-out entries."""
    err = _sample_error(X, prob.gamma_rows, prob.gamma, prob.target_gamma)
    return float(np.linalg.norm(err) / prob.target_gamma_norm)


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
    if not 1 <= r_true <= n:
        raise ShapeMismatch(f"rank r_true={r_true} is outside 1..n for n={n}")
    if not 0.0 <= tail_scale < np.inf:
        raise DomainViolation(f"tail scale {tail_scale} is not finite and nonnegative")
    rng = np.random.default_rng(seed)
    Z = 0.5 * rng.standard_normal((r_true, m))
    W = np.linalg.qr(rng.standard_normal((n, r_true)))[0]
    spatial = W @ Z
    with np.errstate(over="ignore"):  # an overflow is reported below
        if tail_scale > 0.0:
            spatial = spatial + tail_scale * rng.standard_normal((n, m))
        top = np.sqrt(1.0 + np.einsum("ij,ij->j", spatial, spatial))
    targets = np.vstack([top, spatial])
    if not np.all(np.isfinite(targets)):
        raise DomainViolation(f"tail scale {tail_scale} lifts targets past the float range")
    return HyperbolicFitProblem(targets, n, m, r_true, seed, tail_scale)


def _signature_pairing(prob: HyperbolicFitProblem, X: FactoredPoint) -> np.ndarray:
    """P = (J U)^T T, s x m, so that x_i^T J t_i = (Sigma v_i)^T p_i for
    the fixed-rank point X = U Sigma V^T."""
    JU = X.u.copy()
    JU[0] = -JU[0]
    return JU.T @ prob.targets


def _lorentz_gaps(prob: HyperbolicFitProblem, X, P=None) -> np.ndarray:
    """u_i = -<x_i, target_i>_J; DomainViolation where it is not positive.

    For a fixed-rank point u is the row sums of -(V Sigma) .* P^T with
    P from :func:`_signature_pairing` (passed in when the caller has it);
    for an array it is 2 x_0i t_0i - x_i . t_i.
    """
    if isinstance(X, FactoredPoint):
        if P is None:
            P = _signature_pairing(prob, X)
        u = -np.einsum("ij,ji->i", X.vs, P)
    else:
        T = prob.targets
        u = 2.0 * X[0] * T[0] - np.einsum("ij,ij->j", X, T)
    if np.any(u <= 0.0):
        raise DomainViolation(
            f"Lorentz product {u.min():.6e} not positive; columns left the sheet"
        )
    return u


def _distances(u: np.ndarray):
    """(arccosh(max(u, 1)), arccos(min(u, 1))); one of each pair is an exact 0."""
    return np.arccosh(np.maximum(u, 1.0)), np.arccos(np.minimum(u, 1.0))


def _gradient_weights(u: np.ndarray, dist) -> np.ndarray:
    """w = -2 g(u) with g(u) = arccosh(u)/sqrt(u^2-1), continued by
    arccos(u)/sqrt(1-u^2) below u = 1 and by the series 1 - (u - 1)/3
    for |u - 1| <= ARCCOSH_SERIES_CUT; ``dist`` is ``_distances(u)``."""
    above = u > 1.0 + ARCCOSH_SERIES_CUT
    below = u < 1.0 - ARCCOSH_SERIES_CUT
    us = np.where(above, u, 2.0)
    ub = np.where(below, u, 0.5)
    g = np.where(above, dist[0] / np.sqrt(us * us - 1.0), 1.0 - (u - 1.0) / 3.0)
    g = np.where(below, dist[1] / np.sqrt(1.0 - ub * ub), g)
    return -2.0 * g


def _squared_distance_sum(dist) -> float:
    """Sum of arccosh(u)^2, continued by -arccos(u)^2 below u = 1."""
    return float(np.sum(dist[0] ** 2 - dist[1] ** 2))


def hyperbolic_objective(prob: HyperbolicFitProblem, X) -> float:
    """Sum of squared hyperbolic distances to the targets, continued off the sheet."""
    return _squared_distance_sum(_distances(_lorentz_gaps(prob, X)))


def hyperbolic_grad(prob: HyperbolicFitProblem, X) -> np.ndarray:
    """Column i is -2 g(u_i) J target_i with g(u) = arccosh(u)/sqrt(u^2-1),
    continued as in :func:`_gradient_weights`."""
    u = _lorentz_gaps(prob, X)
    out = prob.targets * _gradient_weights(u, _distances(u))[None, :]
    out[0] = -out[0]
    return out


def hyperbolic_value_and_grad(prob: HyperbolicFitProblem, X: FactoredPoint):
    """Objective and gradient at a fixed-rank point from one computation
    of the gaps (:func:`hyperbolic_grad` is the dense definition).

    The gradient G = J T Diag(w) enters the step only through its tangent
    projection, which needs G^T U = Diag(w) P^T (P is reused from the
    gaps) and G V = J T (w .* V), one (n+1) x s product; the projection
    is returned as a :class:`FixedRankTangent` and no (n+1) x m array is
    formed.
    """
    P = _signature_pairing(prob, X)
    u = _lorentz_gaps(prob, X, P)
    dist = _distances(u)
    w = _gradient_weights(u, dist)
    f_val = _squared_distance_sum(dist)
    # (V^T Diag(w)) T^T, an s x (n+1) product, is the faster GEMM layout
    GV = ((X.v.T * w) @ prob.targets.T).T
    GV[0] = -GV[0]
    return f_val, FixedRankTangent.from_products(X, GV, w[:, None] * P.T)


def init_hyperbolic(prob: HyperbolicFitProblem, r: int) -> FactoredPoint:
    """Lift initialization: project the spatial block onto its top-r
    left singular subspace, re-lift each column, and truncate to rank r+1.

    The subspace is spanned by the top-r eigenvectors of the n x n Gram
    matrix spatial spatial^T; the result depends only on U_r U_r^T.  The
    lifted matrix [top; U_r Z_r] is B Y with B = diag(1, U_r), whose
    columns are orthonormal, and Y = [top; Z_r] of size (r+1) x m, so the
    SVD W S Z^T of Y gives its SVD (B W) S Z^T.  Raises DomainViolation
    when that Gram matrix leaves the float range, which a tail that the
    generator accepts can do when m > n.
    """
    spatial = prob.targets[1:, :]
    with np.errstate(over="ignore"):  # an overflow is reported below
        gram = spatial @ spatial.T
    if not np.all(np.isfinite(gram)):
        raise DomainViolation(
            f"tail scale {prob.tail_scale} takes the spatial Gram matrix past the float range"
        )
    Ur = np.linalg.eigh(gram)[1][:, ::-1][:, :r]
    Zr = Ur.T @ spatial
    top = np.sqrt(1.0 + np.einsum("ij,ij->j", Zr, Zr))
    W, S, Z = truncated_svd(np.vstack([top, Zr]), r + 1)
    return FactoredPoint(np.vstack([W[:1], Ur @ W[1:]]), S, Z)


def make_hyperbolic_problem(prob: HyperbolicFitProblem, r: int) -> Problem:
    return Problem(
        manifold=FixedRankManifold(prob.n + 1, prob.m, r + 1),
        constraint=HyperboloidConstraint(prob.n, prob.m),
        f=lambda X: hyperbolic_objective(prob, X),
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
    budget s = round(rho * n * p).  DomainViolation unless length > 0 and
    both the Hamiltonian scale 1/(2 h^2), h = length/(n + 1), and the
    default step length^2/(4 n^2) are positive finite floats."""
    if not 1 <= p <= n:
        raise ShapeMismatch(f"column count p={p} is outside 1..n for n={n}")
    if not (np.isfinite(length) and np.isfinite(rho)):
        raise DomainViolation(f"length {length} or rho {rho} is not finite")
    if not length > 0.0:
        raise DomainViolation(f"length {length} is not positive")
    h = length / (n + 1)
    try:
        scale, beta = 1.0 / (2.0 * h * h), length**2 / (4.0 * n**2)
    except (OverflowError, ZeroDivisionError):
        scale = beta = 0.0
    if not (0.0 < scale < np.inf and 0.0 < beta < np.inf):
        raise DomainViolation(
            f"length {length} takes the Hamiltonian scale 1/(2 h^2) or the "
            "default step length^2/(4 n^2) out of the positive floats"
        )
    s = round(rho * n * p)
    return CompressedModesProblem(n, p, length, rho, s, beta)


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
        extra_metric=sparsity_ratio,
        value_and_grad=lambda X: modes_value_and_grad(prob, X),
    )
