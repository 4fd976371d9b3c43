"""Checks of a workload's outputs, made with the benchmark's own numpy code.

Nothing here calls into ``gotd``: the tangent projections, constraint
differentials, objectives and gradients are written out again from their
definitions, so that a fault in the program cannot hide itself by also
being in the check.  Every function returns a list of failure messages;
an empty list means the output passed.
"""

import numpy as np

DIRECTION_RTOL = 1e-8
PROJECTION_RTOL = 1e-8


# ---------------------------------------------------------------------------
# geometry, from the definitions
# ---------------------------------------------------------------------------

def fixed_rank_tangent(U, V):
    """P_T at X = U S V^T: Z minus its part in span(U)^perp x span(V)^perp."""

    def proj(Z):
        A = Z - U @ (U.T @ Z)
        return Z - (A - (A @ V) @ V.T)

    return proj


def support_tangent(X):
    """P_T on the fixed-cardinality set: keep the entries where X != 0."""
    mask = X != 0.0
    return lambda Z: np.where(mask, Z, 0.0)


def oblique_dh(X):
    return lambda Z: 2.0 * np.sum(X * Z, axis=1)


def lorentz_signature(rows):
    j = np.ones(rows)
    j[0] = -1.0
    return j


def hyperboloid_dh(X):
    JX = lorentz_signature(X.shape[0])[:, None] * X
    return lambda Z: 2.0 * np.sum(JX * Z, axis=0)


def stiefel_dh(X):
    return lambda Z: X.T @ Z + Z.T @ X


def hyperboloid_residual(X):
    """h_j = <x_j, x_j>_J + 1 for every column."""
    return -X[0] ** 2 + np.sum(X[1:] ** 2, axis=0) + 1.0


def sphere_loss(X, omega, target):
    return 0.5 * float(np.sum((X[omega] - target[omega]) ** 2))


def sphere_gradient(X, omega, target):
    G = np.zeros_like(X)
    G[omega] = X[omega] - target[omega]
    return G


def heldout_error(X, gamma, target):
    return float(np.linalg.norm(X[gamma] - target[gamma]) / np.linalg.norm(target[gamma]))


def _lorentz_gaps(X, targets):
    """u_j = -<x_j, t_j>_J, which is >= 1 for two points of the upper sheet."""
    return np.maximum(-np.sum(lorentz_signature(X.shape[0])[:, None] * X * targets, axis=0), 1.0)


def hyperbolic_loss(X, targets):
    return float(np.sum(np.arccosh(_lorentz_gaps(X, targets)) ** 2))


def hyperbolic_gradient(X, targets):
    """d/dx_j of arccosh(u_j)^2 is -2 arccosh(u_j) / sqrt(u_j^2 - 1) J t_j;
    the factor tends to 1 as u_j -> 1."""
    u = _lorentz_gaps(X, targets)
    near = u < 1.0 + 1e-8
    w = np.where(near, 2.0, u)  # keeps the unused branch finite
    factor = np.where(near, 1.0 - (u - 1.0) / 3.0, np.arccosh(w) / np.sqrt(w * w - 1.0))
    return -2.0 * factor * (lorentz_signature(X.shape[0])[:, None] * targets)


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def _ratio(a, b):
    return a / b if b > 0.0 else float("inf")


def direction_failures(proj, dh, grad, gh, gf, rtol=DIRECTION_RTOL):
    """G_f tangent and in ker Dh; G_h orthogonal to G_f.

    Errors are measured against the input of the projection, P_T(grad f),
    not against G_f: at a converged iterate G_f is itself rounding-sized,
    and a ratio to it would measure only rounding.
    """
    out = []
    pg = proj(grad)
    scale, dscale = np.linalg.norm(pg), np.linalg.norm(dh(pg))
    off = np.linalg.norm(gf - proj(gf))
    if not off <= rtol * scale:
        out.append(f"G_f is not tangent: |G_f - P_T G_f| / |P_T grad f| = {_ratio(off, scale):.3e}")
    dgf = np.linalg.norm(dh(gf))
    if not dgf <= rtol * dscale:
        out.append(f"G_f is not in ker Dh: |Dh G_f| / |Dh P_T grad f| = {_ratio(dgf, dscale):.3e}")
    inner = abs(float(np.vdot(gh, gf)))
    if not inner <= rtol * np.linalg.norm(gh) * scale:
        out.append(
            "G_h and G_f are not orthogonal: |<G_h, G_f>| / (|G_h| |P_T grad f|) = "
            f"{_ratio(inner, np.linalg.norm(gh) * scale):.3e}"
        )
    return out


def _normal_residual_failure(resid, scale, rtol):
    """P_T(-grad f - G_f) minus its least-squares fit in range(P_T Dh*)."""
    if not np.linalg.norm(resid) <= rtol * scale:
        return [
            "G_f is not the orthogonal projection: normal residual "
            f"{_ratio(np.linalg.norm(resid), scale):.3e} of |P_T grad f|"
        ]
    return []


def sphere_projection_failures(X, proj, grad, gf, rtol=PROJECTION_RTOL):
    """range(P_T Dh*) = {Diag(lam) X} (rows of X lie in span V): fit each
    row of the normal part by a multiple of the row of X."""
    normal = proj(-grad - gf)
    lam = np.sum(normal * X, axis=1) / np.sum(X * X, axis=1)
    return _normal_residual_failure(
        normal - lam[:, None] * X, np.linalg.norm(proj(grad)), rtol
    )


def stiefel_projection_failures(X, proj, grad, gf, rtol=PROJECTION_RTOL):
    """range(P_T Dh*) = {P_T(X S) : S symmetric}: least squares over the
    p(p+1)/2 columns P_T(X (e_k e_l^T + e_l e_k^T))."""
    p = X.shape[1]
    cols = []
    for k in range(p):
        for l in range(k, p):
            S = np.zeros((p, p))
            S[k, l] = S[l, k] = 1.0
            cols.append(proj(X @ S).ravel())
    basis = np.stack(cols, axis=1)
    normal = proj(-grad - gf).ravel()
    coef = np.linalg.lstsq(basis, normal, rcond=None)[0]
    return _normal_residual_failure(
        normal - basis @ coef, np.linalg.norm(proj(grad)), rtol
    )


def sphere_failures(X0, XN, U, V, omega, gamma, target, gh, gf):
    proj, grad = fixed_rank_tangent(U, V), sphere_gradient(XN, omega, target)
    out = direction_failures(proj, oblique_dh(XN), grad, gh, gf)
    out += sphere_projection_failures(XN, proj, grad, gf)
    f0, fN = sphere_loss(X0, omega, target), sphere_loss(XN, omega, target)
    if not fN < f0:
        out.append(f"objective did not decrease: f_N = {fN:.6e}, f_0 = {f0:.6e}")
    e0, eN = heldout_error(X0, gamma, target), heldout_error(XN, gamma, target)
    if not eN < e0:
        out.append(f"held-out error did not decrease: {eN:.6e} >= {e0:.6e}")
    return out


def hyperbolic_failures(X0, XN, U, V, targets, gh, gf, X_polished):
    out = direction_failures(
        fixed_rank_tangent(U, V), hyperboloid_dh(XN), hyperbolic_gradient(XN, targets), gh, gf
    )
    feas = np.linalg.norm(hyperboloid_residual(XN))
    if not feas <= 1e-8:
        out.append(f"|h| = {feas:.3e} > 1e-8 at the final iterate")
    if not np.all(XN[0] > 0.0):
        out.append("a column left the upper sheet (top entry <= 0)")
    ratio = hyperbolic_loss(XN, targets) / hyperbolic_loss(X0, targets)
    if not ratio <= 0.9:
        out.append(f"f / f0 = {ratio:.4f} > 0.9")
    polished = np.linalg.norm(hyperboloid_residual(X_polished))
    if not polished <= 1e-10:
        out.append(f"|h| = {polished:.3e} > 1e-10 after the polish")
    return out


def modes_failures(X0, XN, f_reported, H, s, gh, gf, traced_zero_shares):
    """Compressed modes: directions, exactly s nonzeros along the run, an
    objective decrease, and the Ky Fan lower bound on the objective value
    the program reported for the final iterate.

    With E = X^T X - I, every singular value of X is at least
    sqrt(1 - |E|), so tr(X^T H X) >= (1 - |E|) times the sum of the p
    smallest eigenvalues of H (H is positive definite here).
    """
    proj, grad = support_tangent(XN), 2.0 * H @ XN
    out = direction_failures(proj, stiefel_dh(XN), grad, gh, gf)
    out += stiefel_projection_failures(XN, proj, grad, gf)
    if np.count_nonzero(XN) != s:
        out.append(f"final iterate has {np.count_nonzero(XN)} nonzeros, not {s}")
    share = (XN.size - s) / XN.size
    bad = sum(z != share for z in traced_zero_shares)
    if bad:
        out.append(f"{bad} traced iterates do not have exactly {s} nonzeros")
    f0, fN = float(np.sum(X0 * (H @ X0))), float(np.sum(XN * (H @ XN)))
    if not fN < f0:
        out.append(f"objective did not decrease: f_N = {fN:.6e}, f_0 = {f0:.6e}")
    p = XN.shape[1]
    defect = np.linalg.norm(XN.T @ XN - np.eye(p))
    bound = (1.0 - defect) * float(np.sum(np.linalg.eigvalsh(H)[:p]))
    if not f_reported >= bound:
        out.append(f"reported f_N = {f_reported:.6e} is below the Ky Fan bound {bound:.6e}")
    return out


def trace_failures(lines_a, lines_b):
    """Two CSV traces must agree byte for byte outside column 1 (time_s)."""

    def strip(line):
        cells = line.split(",")
        return ",".join(cells[:1] + cells[2:])

    if len(lines_a) != len(lines_b):
        return [f"traces differ in length: {len(lines_a)} vs {len(lines_b)} lines"]
    for i, (a, b) in enumerate(zip(lines_a, lines_b)):
        if strip(a) != strip(b):
            return [f"traces differ outside time_s at line {i + 1}"]
    return []
