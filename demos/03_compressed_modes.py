"""Compute spatially localized orthonormal wave functions.

The free-electron Hamiltonian -0.5 d^2/dx^2 on [0, 50] is discretized on
128 interior points.  Every iterate has a support of exactly s entries
(60% of the matrix), chosen at the start and kept by each retraction;
the feasibility direction pushes X^T X toward the identity while the
optimality direction lowers the energy tr(X^T A X) inside that fixed
support.  The result: modes orthonormal to 1e-6 whose nonzero values lie
in the s support entries; an entry that decays to 0.0 stays in the
support, so the nonzeros can number fewer than s.
"""

import numpy as np

from gotd import (
    GotdConfig,
    gen_modes_problem,
    gotd_run,
    init_modes,
    make_modes_problem,
    modes_objective,
    sparsity_ratio,
)

n, p, length, rho, seed = 128, 5, 50.0, 0.6, 0

prob = gen_modes_problem(n, p, length, rho)
problem = make_modes_problem(prob)
x0 = init_modes(prob, seed)
print(f"{p} wave functions on {n} grid points, sparsity budget s = {prob.s} "
      f"({100 * (1 - rho):.0f}% zeros)")
print(f"energy at the thresholded random start: {modes_objective(prob, x0):.4f}")

config = GotdConfig(alpha=1.0, beta=prob.beta_default, max_iter=3000, tol=1e-10)
result = gotd_run(problem, x0, config)

final = result.trace[-1]
X = result.point.values
print(f"\n{result.status.value} after {final.iteration} iterations "
      f"({final.wall_seconds:.1f}s)")
print(f"energy tr(X^T A X)      : {final.f_value:.4f}")
print(f"orthonormality |X^TX - I|: {final.feas_norm:.3e}")
print(f"support size            : {result.point.nnz} (s at every iterate)")
print(f"nonzero values          : {np.count_nonzero(X)}")
print(f"sparsity ratio          : {sparsity_ratio(X):.3f}")

print("\nactive grid range of each mode:")
for k in range(p):
    idx = np.nonzero(X[:, k])[0]
    print(f"  mode {k}: [{idx.min():3d}, {idx.max():3d}]  "
          f"({idx.size} active points)")
