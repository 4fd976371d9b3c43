"""Find a point in the intersection of two constraint sets from scratch.

Alternating projections between the hyperboloid sheet (one secular
Newton iteration over all columns at once) and the fixed-rank manifold
(truncated SVD) converge linearly once the iterate enters the
neighborhood where the two sets meet transversally.
"""

import numpy as np

from gotd import (
    FixedRankManifold,
    HyperboloidConstraint,
    alternating_projections,
)

rng = np.random.default_rng(3)
n, m, s = 40, 120, 6

manifold = FixedRankManifold(n + 1, m, s)
constraint = HyperboloidConstraint(n, m)

# arbitrary ambient start with upward-pointing first row
Y = rng.standard_normal((n + 1, m))
Y[0] = np.abs(Y[0]) + 0.5

result = alternating_projections(manifold, constraint, Y, tol=1e-11, max_iter=200)

print(f"start: random {n + 1} x {m} matrix, target rank {s}")
print(f"{'converged' if result.converged else 'stopped'} after "
      f"{result.iters} sweeps, |h| = {result.feas_norm:.3e}")
print("\nfeasibility after each sweep:")
for k, v in enumerate(result.history):
    print(f"  {k:2d}: {v:.3e}")

ratios = [b / a for a, b in zip(result.history[1:-1], result.history[2:]) if a > 1e-10]
if ratios:
    print(f"\nobserved linear rate ~ {np.median(ratios):.3f} per sweep")
print(f"final point rank: {result.point.rank} (exactly on the manifold)")
