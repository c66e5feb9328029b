"""P1 Lagrange finite elements on triangle meshes.

Assembly of the stiffness and consistent mass matrices, Neumann and
Dirichlet generalized eigensolves by shift-invert Lanczos (ARPACK through
scipy's eigsh, one sparse LU factorization per eigensolve), and deflated
(bordered) solves of singular shifted systems.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh, splu

from .errors import NearDegenerateError, SolverError
from .mesh import TriMesh

# the eigensolver shift is -SHIFT_SCALE * tr(K)/tr(M): a fixed multiple of a
# ratio that scales like an eigenvalue, so the spectrum scales exactly
SHIFT_SCALE = 1e-5


@dataclass(frozen=True)
class Spectrum:
    """Sorted generalized eigenpairs of (K, M).

    eigenvalues are ascending (units 1/length^2); eigenvectors are nodal and
    M-orthonormal, one column per eigenvalue; residuals are
    ||K u - lambda M u|| / ||M u|| per pair; bc is "neumann" or "dirichlet".
    shift is the Lanczos shift sigma and solves the number of solves with
    the factorized K - sigma M (0 for a dense solve); neither enters
    to_json.
    """

    bc: str
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    residuals: np.ndarray
    shift: float
    solves: int

    def to_json(self):
        return json.dumps(
            {
                "bc": self.bc,
                "eigenvalues": [float(v) for v in self.eigenvalues],
                "residuals": [float(r) for r in self.residuals],
            }
        )

    def save_eigenvectors(self, path):
        """Sidecar binary: float64 eigenvectors in nodal order, column-major
        by eigenpair."""
        np.asarray(self.eigenvectors, dtype=np.float64).T.tofile(path)


def _p1_gradients(mesh: TriMesh):
    """Twice the triangle areas, shape (nt,), and the perpendiculars of the
    opposite edges, shape (nt, 3, 2): grad phi_i = g[:, i] / area2 for the
    barycentric basis functions phi_i."""
    v = mesh.vertices
    t = mesh.triangles
    p0, p1, p2 = v[t[:, 0]], v[t[:, 1]], v[t[:, 2]]
    d1 = p1 - p0
    d2 = p2 - p0
    area2 = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
    g = np.empty((len(t), 3, 2))
    g[:, 0, 0] = p1[:, 1] - p2[:, 1]
    g[:, 0, 1] = p2[:, 0] - p1[:, 0]
    g[:, 1, 0] = p2[:, 1] - p0[:, 1]
    g[:, 1, 1] = p0[:, 0] - p2[:, 0]
    g[:, 2, 0] = p0[:, 1] - p1[:, 1]
    g[:, 2, 1] = p1[:, 0] - p0[:, 0]
    return area2, g


def assemble(mesh: TriMesh):
    """P1 stiffness and consistent mass matrices (CSR, symmetric).

    Element integrals are exact: constant gradients for the stiffness,
    area/12 * (2 on the diagonal, 1 off) for the mass.  The assembled
    stiffness annihilates the constant vector up to rounding.
    """
    t = mesh.triangles
    area2, g = _p1_gradients(mesh)
    area = 0.5 * area2
    g /= area2[:, None, None]

    ke = np.einsum("tid,tjd->tij", g, g) * area[:, None, None]
    me = (np.ones((3, 3)) + np.eye(3))[None, :, :] * (area / 12.0)[:, None, None]

    rows = np.repeat(t, 3, axis=1).ravel()
    cols = np.tile(t, (1, 3)).ravel()
    n = mesh.num_vertices
    K = sparse.csr_matrix((ke.ravel(), (rows, cols)), shape=(n, n))
    M = sparse.csr_matrix((me.ravel(), (rows, cols)), shape=(n, n))
    K.sum_duplicates()
    M.sum_duplicates()
    return K, M


def grad_p1(mesh: TriMesh, u):
    """Per-triangle constant gradient of a nodal field, shape (nt, 2)."""
    area2, g = _p1_gradients(mesh)
    ut = u[mesh.triangles, None]
    return (ut[:, 0] * g[:, 0] + ut[:, 1] * g[:, 1] + ut[:, 2] * g[:, 2]) / area2[:, None]


def _residuals(K, M, vals, X):
    MX = M @ X
    return np.linalg.norm(K @ X - MX * vals[None, :], axis=0) / np.linalg.norm(MX, axis=0)


def _shift_invert_eigs(K, M, k, tol, constant=None):
    """k eigenpairs of K u = lambda M u nearest above sigma = -SHIFT_SCALE *
    tr(K)/tr(M), by ARPACK's implicitly restarted Lanczos on one factorization
    of the positive definite K - sigma M.  The seeded start vector and every
    solve are projected M-orthogonally off ``constant`` (an M-normalized null
    vector of K) if given.  Pencils too small to restart a Lanczos basis in
    are solved densely.  Returns (values, vectors, residuals, sigma, solves).
    """
    n = K.shape[0]
    sigma = -SHIFT_SCALE * K.diagonal().sum() / M.diagonal().sum()
    skip = int(constant is not None)
    ncv = max(2 * k + 1, 20)
    solves = 0
    if n - skip <= ncv:
        from scipy.linalg import eigh

        _, X = eigh(K.toarray(), M.toarray(), subset_by_index=(skip, skip + k - 1))
    else:
        # positive definite: diagonal pivots keep the symmetric fill-reducing order
        lu = splu((K - sigma * M).tocsc(), permc_spec="MMD_AT_PLUS_A",
                  diag_pivot_thresh=0.0, options={"SymmetricMode": True})

        def project(y):
            if constant is not None:
                y = y - constant * (constant @ (M @ y))
            return y

        def apply_inverse(b):
            nonlocal solves
            solves += 1
            return project(lu.solve(b))

        v0 = project(np.random.default_rng(7).standard_normal(n))
        try:
            _, X = eigsh(K, k, M, sigma=sigma, which="LM", v0=v0, ncv=ncv,
                         OPinv=LinearOperator((n, n), matvec=apply_inverse))
        except ArpackNoConvergence as exc:
            raise SolverError(
                f"eigensolve did not converge after {solves} solves",
                residuals=_residuals(K, M, exc.eigenvalues, exc.eigenvectors),
            ) from exc
    # Rayleigh quotients: accurate to the squared residual, unlike sigma + 1/theta
    vals = np.einsum("ij,ij->j", X, K @ X) / np.einsum("ij,ij->j", X, M @ X)
    order = np.argsort(vals)
    vals, X = vals[order], X[:, order]
    res = _residuals(K, M, vals, X)
    if res.max() > tol:
        raise SolverError(
            f"eigensolve residual {res.max():.3e} exceeds tol {tol:.3e}",
            residuals=res,
        )
    return vals, X, res, sigma, solves


def neumann_eigs(mesh: TriMesh, k, tol=1e-8):
    """k+1 smallest Neumann eigenpairs of K u = lambda M u, zero mode included.

    The constant mode is deflated analytically and reported first; the other
    k come from shift-invert Lanczos at sigma = -SHIFT_SCALE * tr(K)/tr(M).
    Raises SolverError if Lanczos fails or a residual exceeds tol.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    n = mesh.num_vertices
    if k + 2 > n:
        raise ValueError("k + 2 exceeds the vertex count")
    K, M = assemble(mesh)

    ones = np.ones(n)
    c = ones / np.sqrt(ones @ (M @ ones))
    lam1 = max(float(c @ (K @ c)), 0.0)
    vals, X, res, sigma, solves = _shift_invert_eigs(K, M, k, tol, constant=c)
    c_res = float(np.linalg.norm(K @ c - lam1 * (M @ c)) / np.linalg.norm(M @ c))
    return Spectrum(
        bc="neumann",
        eigenvalues=np.concatenate([[lam1], vals]),
        eigenvectors=np.column_stack([c, X]),
        residuals=np.concatenate([[c_res], res]),
        shift=sigma,
        solves=solves,
    )


def dirichlet_eigs(mesh: TriMesh, k, tol=1e-8):
    """k smallest Dirichlet eigenpairs; boundary values eliminated exactly.

    Shift-invert Lanczos on the interior pencil at sigma = -SHIFT_SCALE *
    tr(K_ii)/tr(M_ii); raises SolverError if it fails or a residual exceeds tol.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    n = mesh.num_vertices
    bdry = np.zeros(n, dtype=bool)
    bdry[mesh.boundary_vertex_indices()] = True
    interior = np.where(~bdry)[0]
    if k > len(interior):
        raise ValueError("k exceeds the interior node count")
    K, M = assemble(mesh)
    Ki = K[interior][:, interior].tocsr()
    Mi = M[interior][:, interior].tocsr()
    vals, Xi, res, sigma, solves = _shift_invert_eigs(Ki, Mi, k, tol)
    X = np.zeros((n, k))
    X[interior] = Xi
    return Spectrum(bc="dirichlet", eigenvalues=vals, eigenvectors=X,
                    residuals=res, shift=sigma, solves=solves)


@dataclass(frozen=True)
class DeflatedSolve:
    """Result of a deflated shifted solve."""

    x: np.ndarray
    removed: float  # component psi . rhs removed from the rhs
    residual: float


def solve_deflated(K, M, lam, rhs, psi):
    """Solve (K - lam*M) x = rhs with x M-orthogonal to the eigenvector psi.

    The rhs is first projected onto the M-orthogonal complement of psi (the
    removed component psi . rhs is reported); the constrained system is the
    bordered saddle-point system [[K-lam*M, M psi], [(M psi)^T, 0]].
    NearDegenerateError: it is (nearly) singular, because lam is a multiple
    eigenvalue or psi is not its eigenvector.
    """
    rhs = np.asarray(rhs, dtype=float)
    psi = np.asarray(psi, dtype=float)
    A = (K - lam * M).tocsc()
    m_psi = M @ psi

    removed = float(psi @ rhs)
    rhs_p = rhs - removed * m_psi / (psi @ m_psi)

    border = sparse.csc_matrix(m_psi[:, None])
    bordered = sparse.bmat([[A, border], [border.T, None]], format="csc")
    try:
        lu = splu(bordered)
    except RuntimeError as exc:
        raise NearDegenerateError(f"bordered factorization singular: {exc}")
    diag = np.abs(lu.U.diagonal())
    if diag.min() <= 1e-12 * diag.max():
        raise NearDegenerateError(
            "bordered factorization nearly singular: eigenvalue multiplicity "
            "or wrong deflation vector"
        )
    sol = lu.solve(np.concatenate([rhs_p, [0.0]]))
    x = sol[:-1]
    residual = float(
        np.linalg.norm(A @ x - rhs_p + m_psi * sol[-1])
        / max(np.linalg.norm(rhs_p), 1e-300)
    )
    return DeflatedSolve(x=x, removed=removed, residual=residual)
