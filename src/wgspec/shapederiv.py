"""Shape sensitivity of the boundary vector X: adjoint state, the
boundary-integral derivative formula, the exact gradient of the discrete
map X_h.w in the vertex positions, which validates that formula, and the
bump-sweep experiment on rectangles."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .crosssec import analyze, x_boundary
from .errors import TrackingError
from .fem import _check_tol, _factor_spd, assemble, neumann_eigs, solve_deflated
from .mesh import Polygon, TriMesh, _edge_normals, gen_polygon, gen_rectangle

# fd_check's least relative gap (lambda3 - lambda2)/lambda2 of a simple
# lambda2, and bump_rectangle_polygon's fewest points on the half circle
DEGENERACY_TOL = 1e-3
MIN_ARC_POINTS = 64
# the rectangle's sides in loop order, each with its direction
_SIDES = {"bottom": (1.0, 0.0), "right": (0.0, 1.0), "top": (-1.0, 0.0),
          "left": (0.0, -1.0)}


@dataclass(frozen=True)
class AdjointState:
    """Adjoint field for one perturbation direction w.

    x_dot_w_estimate is half the kernel component stripped from the load,
    which doubles the projection of X on w.  A value above 1e-3
    sqrt(lambda2), which like X is in 1/length, means the solvability
    hypothesis (X = 0) is violated and the field is only indicative.
    """

    q: np.ndarray
    ortho_defect: float
    x_dot_w_estimate: float
    solvability_warning: bool
    residual: float


def _boundary_load(mesh: TriMesh, psi, w):
    """Assemble -2 * integral over the boundary of psi v (n.w) by edge
    Simpson quadrature (exact for the quadratic integrand)."""
    load = np.zeros(mesh.num_vertices)
    nw = mesh.boundary_normals @ np.asarray(w, dtype=float)
    a = mesh.boundary_edges[:, 0]
    b = mesh.boundary_edges[:, 1]
    pa, pb = psi[a], psi[b]
    coef = -2.0 * nw * mesh.boundary_lengths / 6.0
    np.add.at(load, a, coef * (2.0 * pa + pb))
    np.add.at(load, b, coef * (pa + 2.0 * pb))
    return load


def adjoint_solve(mesh: TriMesh, lambda2, psi, w, matrices, factor):
    """Solve the adjoint problem at lambda2 with flux -2 psi (n.w), psi the
    M-normalized eigenvector of lambda2 (as neumann_eigs returns it).

    The load is projected off the eigenfunction (removed component reported)
    and the shifted system is solved with the eigenfunction deflated
    (solve_deflated, conjugate gradients preconditioned with factor, the
    Spectrum.factor of the eigensolve that gave psi), which returns q
    M-orthogonal to psi.  matrices is the (K, M) of assemble(mesh).
    """
    K, M = matrices
    rhs = _boundary_load(mesh, psi, w)
    sol = solve_deflated(K, M, lambda2, rhs, psi, factor)
    q = sol.x
    defect = float(abs(psi @ (M @ q)) / math.sqrt(q @ (M @ q))) if q.any() else 0.0
    x_w = abs(sol.removed) / 2.0
    return AdjointState(
        q=q,
        ortho_defect=defect,
        x_dot_w_estimate=x_w,
        solvability_warning=x_w > 1e-3 * math.sqrt(lambda2),
        residual=sol.residual,
    )


def boundary_integrand(mesh: TriMesh, lambda2, psi, q, w):
    """Pointwise integrand of the derivative formula at boundary midpoints.

    Per boundary edge: grad(psi^2).w - lambda2 q psi + grad(q).grad(psi),
    with P1 gradients from the unique adjacent triangle (mesh._edge_normals
    of mesh.boundary_triangles alone) and nodal fields averaged to the
    midpoint.  Returns (midpoints, values).
    """
    w = np.asarray(w, dtype=float)
    tb = mesh.triangles[mesh.boundary_triangles]
    area2, g = _edge_normals(mesh.vertices, tb)
    gpsi, gq = ((u[tb, None] * g).sum(axis=1) / area2[:, None] for u in (psi, q))
    a = mesh.boundary_edges[:, 0]
    b = mesh.boundary_edges[:, 1]
    psi_mid = 0.5 * (psi[a] + psi[b])
    q_mid = 0.5 * (q[a] + q[b])
    mids = 0.5 * (mesh.vertices[a] + mesh.vertices[b])
    vals = (
        2.0 * psi_mid * (gpsi @ w)
        - lambda2 * q_mid * psi_mid
        + (gq * gpsi).sum(axis=1)
    )
    return mids, vals


def shape_derivative(mesh: TriMesh, lambda2, psi, q, w, Vn):
    """Derivative of X.w under the boundary velocity Vn (midpoint rule).

    Vn holds the normal velocity at each boundary-edge midpoint, in the
    order of mesh.boundary_edges.
    """
    _, vals = boundary_integrand(mesh, lambda2, psi, q, w)
    vn = np.asarray(Vn, dtype=float)
    return float((vals * vn * mesh.boundary_lengths).sum())


def harmonic_extension(mesh: TriMesh, V, matrices):
    """Replace the interior values of the vertex field V, shape (nv, 2), by
    the discrete harmonic lift of its boundary values (componentwise, through
    the stiffness matrix K of matrices, the (K, M) of assemble(mesh), whose
    positive definite interior block is factorized once, by fem._factor_spd:
    banded Cholesky where its band is narrow, SuperLU otherwise)."""
    V = np.array(V, dtype=float)
    n = mesh.num_vertices
    K = matrices[0]
    bmask = np.zeros(n, dtype=bool)
    bmask[mesh.boundary_vertex_indices()] = True
    interior = np.where(~bmask)[0]
    bidx = np.where(bmask)[0]
    if len(interior):
        Ki = K[interior]
        Kib = Ki[:, bidx]
        lu = _factor_spd(Ki[:, interior].tocsc())
        for c in range(2):
            V[interior, c] = lu.solve(-Kib @ V[bidx, c])
    return V


@dataclass(frozen=True)
class ShapeDerivReport:
    w: np.ndarray
    adjoint_value: float
    discrete_value: float
    discrepancy: float
    solvability_warning: bool


def fd_check(mesh: TriMesh, V, w, tol=1e-8):
    """Validate the adjoint formula against the derivative of the discrete
    map t -> X_h.w on perturb(mesh, V, t) at t = 0.

    The name is kept from when that derivative was a finite difference of
    eigensolves on perturbed meshes; it is now exact, the vertex gradient
    of X_h.w (_x_gradient) dotted with V, and needs no solve beyond the
    eigensolve and the adjoint.  V is a velocity field sampled at all
    vertices (interior values are replaced by the harmonic lift of the
    boundary trace).  The vertex set is assembled once: its (K, M) serve
    the lift, the eigensolve and the adjoint.  There are two
    factorizations, each by fem._factor_spd (banded Cholesky or SuperLU):
    the lift's interior block, and the eigensolve's K - sigma M, whose
    factors also precondition the adjoint's CG.  The lift comes first, so
    that its factors are freed before the eigensolve's are made.  discrepancy is |adjoint - discrete| / max(|adjoint|, |discrete|),
    0 where both are 0, so it reads the same in every unit of length.
    TrackingError: (lambda3 - lambda2)/lambda2 < DEGENERACY_TOL, where psi2
    has no well-defined direction to differentiate.
    SolverError: an eigenpair misses tol.
    """
    w = np.asarray(w, dtype=float)
    matrices = assemble(mesh)
    V = harmonic_extension(mesh, V, matrices)
    spec = neumann_eigs(mesh, 2, tol=tol, matrices=matrices)
    lam2, lam3 = float(spec.eigenvalues[1]), float(spec.eigenvalues[2])
    if (lam3 - lam2) / lam2 < DEGENERACY_TOL:
        raise TrackingError("lambda2 degenerate on the base mesh")
    psi = spec.eigenvectors[:, 1]
    adj = adjoint_solve(mesh, lam2, psi, w, matrices, spec.factor)
    del spec  # its factors, before the gradient's element arrays
    adjoint = shape_derivative(mesh, lam2, psi, adj.q, w, _vn_from_field(mesh, V))
    discrete = float((_x_gradient(mesh, w, lam2, psi, adj.q) * V).sum())
    return ShapeDerivReport(
        w=w,
        adjoint_value=adjoint,
        discrete_value=discrete,
        discrepancy=abs(adjoint - discrete) / (max(abs(adjoint), abs(discrete)) or 1.0),
        solvability_warning=adj.solvability_warning,
    )


def _x_gradient(mesh: TriMesh, w, lambda2, psi, q):
    """The gradient of X_h.w in the vertex positions, shape (nv, 2): on
    perturb(mesh, V, t), d(X_h.w)/dt at t = 0 is sum_k grad[k] . V[k].

    With K psi = lambda2 M psi, psi^T M psi = 1 and F = X_h.w = psi^T B psi,
    B the boundary mass weighted by len (n.w) (x_boundary's Simpson form),
    and q the adjoint state (load -2 B psi, q M-orthogonal to psi),
    dF = psi^T dB psi + q^T (dK - lambda2 dM) psi - (psi^T dM psi) F, linear
    in V; the gradient is that map transposed.  Per triangle, with J the
    turn by -90 degrees, g_k = J (p_{k+1} - p_{k+2}) (mesh._edge_normals), so
    dg_k = J (V_{k+1} - V_{k+2}) and d(area2) = sum_k g_k . V_k.  With
    G_u = sum_k u_k g_k, q^T K_e psi = G_q . G_psi / (2 area2), and
    u^T M_e v = area2 m(u, v) / 24 for m(u, v) = sum u sum v + u . v.  On a
    boundary edge a -> b, len n = J (b - a), so psi^T B psi moves by
    s (V_b - V_a) . J^T w, s = (psi_a^2 + psi_a psi_b + psi_b^2) / 3.
    """
    area2, g = _edge_normals(mesh.vertices, mesh.triangles)
    t = mesh.triangles
    pt, qt = psi[t], q[t]
    Gp, Gq = np.einsum("tk,tkd->td", pt, g), np.einsum("tk,tkd->td", qt, g)

    def m(u, v):
        return u.sum(axis=1) * v.sum(axis=1) + (u * v).sum(axis=1)

    def turn(G):  # J^T G
        return np.column_stack([-G[:, 1], G[:, 0]])

    F = x_boundary(mesh, psi) @ w
    prev, succ = [2, 0, 1], [1, 2, 0]  # k - 1 and k + 1
    dq, dp = qt[:, prev] - qt[:, succ], pt[:, prev] - pt[:, succ]
    coef = ((dq[:, :, None] * turn(Gp)[:, None] + dp[:, :, None] * turn(Gq)[:, None])
            / (2.0 * area2)[:, None, None]
            - g * ((Gq * Gp).sum(axis=1) / (2.0 * area2 ** 2)
                   + (lambda2 * m(qt, pt) + F * m(pt, pt)) / 24.0)[:, None, None])
    a, b = mesh.boundary_edges.T
    pa, pb = psi[a], psi[b]
    edge = np.outer((pa * pa + pa * pb + pb * pb) / 3.0, [-w[1], w[0]])
    where = np.concatenate([t.ravel(), b, a])
    vals = np.concatenate([coef.reshape(-1, 2), edge, -edge])
    n = mesh.num_vertices
    return np.column_stack([np.bincount(where, vals[:, c], n) for c in range(2)])


def _vn_from_field(mesh: TriMesh, V):
    """Normal velocity at boundary-edge midpoints from a vertex field."""
    a = mesh.boundary_edges[:, 0]
    b = mesh.boundary_edges[:, 1]
    vmid = 0.5 * (V[a] + V[b])
    return (vmid * mesh.boundary_normals).sum(axis=1)


# ---------------------------------------------------------------------------
# bump experiments on the reference rectangle


def bump_rectangle_polygon(ell, L, side, center, radius, target_h):
    """Rectangle (0,ell)x(0,L) with an outward half-disk bump on one side.

    The loop runs counterclockwise; the chosen side has direction d and
    outward normal n.  center is the coordinate of the bump center m along
    that side, and the bump runs from m - r d over the half circle m + r
    (-cos t d + sin t n), 0 < t < pi, to m + r d.  The half circle is sampled
    with at least max(MIN_ARC_POINTS, pi r / target_h) points so the
    geometric error stays below the quadrature error.
    """
    if radius <= 0:
        raise ValueError("bump radius must be positive")
    if side not in _SIDES:
        raise ValueError(f"side must be one of {', '.join(_SIDES)}, got {side!r}")
    n_arc = max(MIN_ARC_POINTS, int(math.ceil(math.pi * radius / target_h)))
    corners = np.array([(0.0, 0.0), (ell, 0.0), (ell, L), (0.0, L)])
    k = list(_SIDES).index(side)
    d = np.array(_SIDES[side])
    n = np.array([d[1], -d[0]])
    m = np.where(d != 0.0, center, corners[k])
    t = np.linspace(0.0, math.pi, n_arc + 1)
    bump = m + radius * (np.outer(-np.cos(t), d) + np.outer(np.sin(t), n))
    # the ends exactly on the side: sin(pi) rounds to 1.2e-16, not 0
    bump[0], bump[-1] = m - radius * d, m + radius * d
    return Polygon(np.vstack([corners[:k + 1], bump, corners[k + 1:]]), target_h)


@dataclass(frozen=True)
class SweepRow:
    radius: float
    X: np.ndarray | None
    lambda2: float | None
    simple_gap: float | None
    error: str = ""


def bump_sweep(ell, L, side, center, radii, target_h=0.06, tol=1e-8):
    """Cross-section analysis across a family of growing bumps.

    Returns one row per radius (radius 0 means the unperturbed rectangle);
    failures flag the row with the exception type and message and the sweep
    continues.  X is even in the eigenfunction, so no sign is tracked.
    ValueError unless 0 < tol < inf and 0 < target_h < inf, before any row
    is computed.
    """
    _check_tol(tol)
    if not 0.0 < target_h < math.inf:
        raise ValueError(f"target_h must be positive and finite, got {target_h!r}")
    rows = []
    for r in radii:
        try:
            if r == 0:
                nx = max(8, int(round(ell / target_h)))
                ny = max(8, int(round(L / target_h)))
                mesh = gen_rectangle(ell, L, nx, ny)
            else:
                poly = bump_rectangle_polygon(ell, L, side, center, r, target_h)
                mesh = gen_polygon(poly)
            rep = analyze(mesh, tol=tol, estimate_error=False)
            rows.append(
                SweepRow(
                    radius=float(r),
                    X=rep.X_boundary,
                    lambda2=rep.lambda2,
                    simple_gap=rep.gap_ratio,
                )
            )
        except Exception as exc:  # flagged row, sweep continues
            rows.append(SweepRow(radius=float(r), X=None, lambda2=None,
                                 simple_gap=None,
                                 error=f"{type(exc).__name__}: {exc}"))
    return rows


def sweep_to_csv(rows):
    lines = ["r,X1,X2,lambda2,simple_gap,error"]
    for row in rows:
        if row.X is None:
            lines.append(f"{row.radius:.17g},,,,,{row.error}")
        else:
            lines.append(
                f"{row.radius:.17g},{row.X[0]:.17g},{row.X[1]:.17g},"
                f"{row.lambda2:.17g},{row.simple_gap:.17g},"
            )
    return "\n".join(lines) + "\n"
