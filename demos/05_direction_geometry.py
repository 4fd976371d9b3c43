"""The geometry behind one update step.

At a rank-2 point with off-unit rows, the Gauss--Newton direction points
toward the row-norm constraint set; its tangent projection G_h and the
projected negative gradient G_f are orthogonal by construction, so a
step along alpha*G_h + beta*G_f improves feasibility and objective
independently.  The tangent-intersection projector is compared against
an explicit null-space basis.
"""

import numpy as np

from gotd import (
    FixedRankManifold,
    ObliqueConstraint,
    Problem,
    as_dense,
    feasibility_direction,
    gauss_newton_direction,
    gotd_step,
    optimality_direction,
    tangent_intersection_project,
)

rng = np.random.default_rng(1)
m, n, r = 8, 6, 2

manifold = FixedRankManifold(m, n, r)
constraint = ObliqueConstraint(m, n)
U = np.linalg.qr(rng.standard_normal((m, r)))[0]
V = np.linalg.qr(rng.standard_normal((n, r)))[0]
# rank-2 point with rows inflated 15% beyond unit norm
base = (U * [2.0, 1.0]) @ V.T
base /= np.linalg.norm(base, axis=1, keepdims=True)
X = manifold.project(1.15 * base)
Xd = X.dense()

print(f"row norms of X: {np.round(np.linalg.norm(Xd, axis=1), 3)}")
print(f"|h(X)| = {np.linalg.norm(constraint.value(Xd)):.3f}")

d = gauss_newton_direction(constraint, Xd)
linearized = constraint.value(Xd) + constraint.dh(Xd, d)
print(f"\nGauss-Newton direction: |h + Dh[d]| = {np.linalg.norm(linearized):.2e} "
      "(the linearized residual vanishes)")

target = rng.standard_normal((m, n))
# the objective receives the manifold point; as_dense gives its matrix
problem = Problem(
    manifold=manifold,
    constraint=constraint,
    f=lambda Y: 0.5 * float(np.linalg.norm(as_dense(Y) - target) ** 2),
    grad_f=lambda Y: as_dense(Y) - target,
)
gh = feasibility_direction(manifold, constraint, X)
gf = optimality_direction(problem, X)
cos = np.sum(gh * gf) / (np.linalg.norm(gh) * np.linalg.norm(gf))
print(f"<G_h, G_f> / (|G_h||G_f|) = {cos:.2e}  (orthogonal tangent directions)")

# the projector onto ker(Dh) within the tangent space
xi = rng.standard_normal((m, n))
proj = tangent_intersection_project(manifold, constraint, X, xi)
print(f"\nprojected direction: |Dh[P(xi)]| = "
      f"{np.linalg.norm(constraint.dh(Xd, proj)):.2e}, "
      f"tangency defect = "
      f"{np.linalg.norm(proj - manifold.tangent_project(X, proj)):.2e}")

Y, gh_norm, gf_norm = gotd_step(problem, X, alpha=1.0, beta=0.1)
print(f"\none step: |h| {np.linalg.norm(constraint.value(Xd)):.4f} -> "
      f"{np.linalg.norm(constraint.value(Y.dense())):.4f}, "
      f"f {problem.f(Xd):.4f} -> {problem.f(Y.dense()):.4f}")
