"""Shape sensitivity of the boundary vector X: adjoint state, the
boundary-integral derivative formula, finite-difference validation, and the
bump-sweep experiment on rectangles."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse.linalg import splu

from .crosssec import analyze, x_boundary
from .errors import StepTooLargeError, TrackingError
from .fem import assemble, grad_p1, neumann_eigs, solve_deflated
from .mesh import Polygon, TriMesh, gen_polygon, gen_rectangle, perturb

# fd_check's least relative gap (lambda3 - lambda2)/lambda2 of a simple
# lambda2, and bump_rectangle_polygon's fewest points on the half circle
DEGENERACY_TOL = 1e-3
MIN_ARC_POINTS = 64


@dataclass(frozen=True)
class AdjointState:
    """Adjoint field for one perturbation direction w.

    x_dot_w_estimate is half the kernel component stripped from the load,
    which doubles the projection of X on w.  A large value means the
    solvability hypothesis (X = 0) is violated and the field is only
    indicative.
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


def adjoint_solve(mesh: TriMesh, lambda2, psi, w):
    """Solve the adjoint problem at lambda2 with flux -2 psi (n.w).

    The load is projected off the eigenfunction (removed component reported)
    and the shifted system is solved with the eigenfunction deflated; the
    result is re-orthogonalized against psi in the mass inner product.
    """
    K, M = assemble(mesh)
    rhs = _boundary_load(mesh, psi, w)
    sol = solve_deflated(K, M, lambda2, rhs, psi)
    q = sol.x
    q = q - (psi @ (M @ q)) / (psi @ (M @ psi)) * psi
    defect = float(abs(psi @ (M @ q)) / math.sqrt(max(q @ (M @ q), 1e-300)))
    x_w = abs(sol.removed) / 2.0
    psi_scale = float(psi @ (M @ psi))
    return AdjointState(
        q=q,
        ortho_defect=defect,
        x_dot_w_estimate=x_w,
        solvability_warning=x_w > 1e-3 * psi_scale,
        residual=sol.residual,
    )


def boundary_integrand(mesh: TriMesh, lambda2, psi, q, w):
    """Pointwise integrand of the derivative formula at boundary midpoints.

    Per boundary edge: grad(psi^2).w - lambda2 q psi + grad(q).grad(psi),
    with P1 gradients taken from the unique adjacent triangle and nodal
    fields averaged to the midpoint.  Returns (midpoints, values).
    """
    w = np.asarray(w, dtype=float)
    gpsi = grad_p1(mesh, psi)[mesh.boundary_triangles]
    gq = grad_p1(mesh, q)[mesh.boundary_triangles]
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


def harmonic_extension(mesh: TriMesh, V):
    """Replace the interior values of the vertex field V, shape (nv, 2), by
    the discrete harmonic lift of its boundary values (componentwise, through
    the stiffness matrix)."""
    V = np.array(V, dtype=float)
    n = mesh.num_vertices
    K, _ = assemble(mesh)
    bmask = np.zeros(n, dtype=bool)
    bmask[mesh.boundary_vertex_indices()] = True
    interior = np.where(~bmask)[0]
    bidx = np.where(bmask)[0]
    if len(interior):
        Kii = K[interior][:, interior].tocsc()
        Kib = K[interior][:, bidx]
        lu = splu(Kii)
        for c in range(2):
            V[interior, c] = lu.solve(-Kib @ V[bidx, c])
    return V


@dataclass(frozen=True)
class ShapeDerivReport:
    w: np.ndarray
    adjoint_value: float
    fd_values: dict
    fd_extrapolated: float
    discrepancy: float
    solvability_warning: bool

    def to_json(self):
        return json.dumps(
            {
                "w": [float(v) for v in self.w],
                "adjoint_value": self.adjoint_value,
                "fd_values": {str(k): v for k, v in self.fd_values.items()},
                "fd_extrapolated": self.fd_extrapolated,
                "discrepancy": self.discrepancy,
                "solvability_warning": self.solvability_warning,
            },
            indent=2,
        )


def fd_check(mesh: TriMesh, V, w, t_ladder, tol=1e-8):
    """Validate the adjoint formula against central finite differences.

    V is a velocity field sampled at all vertices (interior values are
    replaced by the harmonic lift of the boundary trace).  X_t.w is computed
    by the full cross-section pipeline on perturbed meshes; X is even in the
    eigenfunction, so no sign is tracked.  The derivative is
    Richardson-extrapolated from central differences over the ladder.
    TrackingError: (lambda3 - lambda2)/lambda2 < DEGENERACY_TOL on the base
    mesh or on a perturbed one.
    """
    w = np.asarray(w, dtype=float)
    V = harmonic_extension(mesh, V)

    spec = neumann_eigs(mesh, 2, tol=tol)
    lam2, lam3 = float(spec.eigenvalues[1]), float(spec.eigenvalues[2])
    if (lam3 - lam2) / lam2 < DEGENERACY_TOL:
        raise TrackingError("lambda2 degenerate on the base mesh")
    psi0 = spec.eigenvectors[:, 1]

    adj = adjoint_solve(mesh, lam2, psi0, w)
    mids_val = shape_derivative(
        mesh, lam2, psi0, adj.q, w,
        _vn_from_field(mesh, V),
    )

    def x_dot_w(t):
        pm = perturb(mesh, V, t)
        spec_t = neumann_eigs(pm, 2, tol=tol)
        l2, l3 = float(spec_t.eigenvalues[1]), float(spec_t.eigenvalues[2])
        if (l3 - l2) / l2 < DEGENERACY_TOL:
            raise TrackingError(f"eigenvalue crossing near t = {t:g}")
        return float(x_boundary(pm, spec_t.eigenvectors[:, 1]) @ w)

    ladder = sorted(float(t) for t in t_ladder)
    fd = {}
    for t in ladder:
        fd[t] = (x_dot_w(t) - x_dot_w(-t)) / (2.0 * t)
    # Richardson on successive halvings (central differences are O(t^2))
    vals = [fd[t] for t in ladder]
    order = 2.0
    table = list(vals)
    for level in range(1, len(table)):
        fac = 2.0 ** (order * level)
        table = [
            (fac * table[i] - table[i + 1]) / (fac - 1.0)
            for i in range(len(table) - 1)
        ]
    extrap = float(table[0])
    disc = abs(mids_val - extrap) / max(abs(mids_val), 1e-12)
    return ShapeDerivReport(
        w=w,
        adjoint_value=mids_val,
        fd_values=fd,
        fd_extrapolated=extrap,
        discrepancy=float(disc),
        solvability_warning=adj.solvability_warning,
    )


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

    center is the coordinate of the bump center along the chosen side; the
    half circle is sampled with at least max(MIN_ARC_POINTS, pi r / target_h)
    points so the geometric error stays below the quadrature error.
    """
    if radius <= 0:
        raise ValueError("bump radius must be positive")
    n_arc = max(MIN_ARC_POINTS, int(math.ceil(math.pi * radius / target_h)))

    def arc(cx, cy, th0, th1):
        th = np.linspace(th0, th1, n_arc + 1)
        return np.column_stack([cx + radius * np.cos(th), cy + radius * np.sin(th)])

    corners = [(0.0, 0.0), (ell, 0.0), (ell, L), (0.0, L)]
    names = ["bottom", "right", "top", "left"]
    pts = []
    for k in range(4):
        pts.append(np.asarray(corners[k], dtype=float))
        if names[k] != side:
            continue
        if side == "bottom":
            pts.append(np.array([center - radius, 0.0]))
            pts.extend(arc(center, 0.0, math.pi, 2.0 * math.pi)[1:-1])
            pts.append(np.array([center + radius, 0.0]))
        elif side == "right":
            pts.append(np.array([ell, center - radius]))
            pts.extend(arc(ell, center, -math.pi / 2.0, math.pi / 2.0)[1:-1])
            pts.append(np.array([ell, center + radius]))
        elif side == "top":
            pts.append(np.array([center + radius, L]))
            pts.extend(arc(center, L, 0.0, math.pi)[1:-1])
            pts.append(np.array([center - radius, L]))
        elif side == "left":
            pts.append(np.array([0.0, center + radius]))
            pts.extend(arc(0.0, center, math.pi / 2.0, 1.5 * math.pi)[1:-1])
            pts.append(np.array([0.0, center - radius]))
    return Polygon(np.array(pts), target_h)


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
    """
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
