"""P1 Lagrange finite elements on triangle meshes.

Assembly of the stiffness and consistent mass matrices, Neumann
generalized eigensolves by shift-invert Lanczos (ARPACK through scipy's
eigsh, one sparse LU factorization per eigensolve) or by LOBPCG with no
factorization of its own (preconditioned by a two-grid cycle across one
uniform refinement on the coarse mesh's factor), the exact derivatives of
the P1 matrices along a vertex velocity, and deflated (bordered) solves of
singular shifted systems.  Every matrix on a mesh's Connectivity
has its P1 pattern, and every factorization on it reuses the fill-reducing
column order that the first one found.
"""

from __future__ import annotations

import warnings
from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import (ArpackNoConvergence, LinearOperator, eigsh,
                                 lobpcg, splu)

from .errors import NearDegenerateError, SolverError
from .mesh import TriMesh

# the eigensolver shift is -SHIFT_SCALE * tr(K)/tr(M): a fixed multiple of a
# ratio that scales like an eigenvalue, so the spectrum scales exactly
SHIFT_SCALE = 1e-5
# seeded noise added to a given Lanczos start vector, relative to its norm:
# a start that spans an invariant subspace of unwanted eigenvectors (say
# psi3 + psi4 when psi2 is wanted) makes Lanczos break down, and it can then
# return those as converged; this floor keeps every eigenvector in the
# Krylov space, and it added no solve to the prolonged starts
START_NOISE = 1e-12
# LOBPCG iterations before a preconditioned eigensolve gives up; analyze's
# two-grid estimate takes 8 to 13, up to 23 on near-double rectangles
LOBPCG_MAXITER = 40
# LOBPCG stops on the absolute residual ||K x - lambda M x|| of M-normalized
# x; it is asked for this fraction of tol * ||M x|| at the start, which
# leaves room for ||M x|| to move before the relative residual gate
LOBPCG_MARGIN = 0.5
# ARPACK's tol from the seeded start, relative to its Ritz values, as a
# fraction of tol * area (see _shift_invert_eigs); on rectangles, triangles,
# L shapes and bumps of sizes 0.1 to 100 it kept every gate residual
# <= 0.02 tol that a machine-precision run kept <= 0.01 tol
ARPACK_MARGIN = 1e-3
# the P1 mass element over area/12, entry (i, j) at 3 i + j
_MASS = np.array([2.0, 1.0, 1.0, 1.0, 2.0, 1.0, 1.0, 1.0, 2.0])
# damping of the Jacobi sweeps before and after two_grid's coarse correction
JACOBI_WEIGHT = 2.0 / 3.0


@dataclass(frozen=True)
class Spectrum:
    """Sorted Neumann eigenpairs of (K, M), the constant mode first.

    eigenvalues are ascending (units 1/length^2); eigenvectors are nodal and
    M-orthonormal, one column per eigenvalue; residuals are
    ||K u - lambda M u|| / ||M u|| per pair.
    shift is the shift sigma of the factorized K - sigma M that was solved
    with, solves the number of vectors solved with it and fill the nonzeros
    of its L and U factors (SuperLU.nnz).  For Lanczos that factor is this
    pencil's; for LOBPCG shift is the preconditioner's, solves counts its
    applications and fill is 0, as nothing was factorized.  A
    dense solve reports solves and fill 0.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    residuals: np.ndarray
    shift: float
    solves: int
    fill: int


def _edge_perps(p0, p1, p2):
    """The perpendiculars of the opposite edges of the triangles with
    corners p0, p1, p2 (each (nt, 2)), shape (nt, 3, 2): row i is
    p_{i+1} - p_{i+2} turned by -90 degrees, linear in the corners."""
    g = np.empty((len(p0), 3, 2))
    for i, (a, b) in enumerate(((p1, p2), (p2, p0), (p0, p1))):
        g[:, i, 0] = a[:, 1] - b[:, 1]
        g[:, i, 1] = b[:, 0] - a[:, 0]
    return g


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
    return area2, _edge_perps(p0, p1, p2)


def assemble(mesh: TriMesh):
    """P1 stiffness and consistent mass matrices (CSR, symmetric).

    Element integrals are exact: constant gradients for the stiffness,
    area/12 * (2 on the diagonal, 1 off) for the mass.  The assembled
    stiffness annihilates the constant vector up to rounding.  Both matrices
    share the pattern (indptr, indices) of mesh.connectivity, read-only;
    each is its element matrices summed into that pattern by one
    np.bincount over connectivity.scatter, in triangle order, so K and M
    are symmetric bit for bit.
    """
    area2, g = _p1_gradients(mesh)
    area = 0.5 * area2
    g /= area2[:, None, None]
    gx, gy = g[:, :, 0], g[:, :, 1]
    # element matrices, one row per triangle, entry (i, j) at 3 i + j
    ke = np.empty((len(area), 9))
    for i in range(3):
        for j in range(i, 3):
            ke[:, 3 * i + j] = ke[:, 3 * j + i] = (
                gx[:, i] * gx[:, j] + gy[:, i] * gy[:, j]) * area
    return _summed(mesh, ke, np.outer(area / 12.0, _MASS))


def _summed(mesh: TriMesh, *elements):
    """Each (nt, 9) array of element matrices summed into the P1 pattern of
    mesh.connectivity as a CSR matrix, by one np.bincount over
    connectivity.scatter in triangle order."""
    conn = mesh.connectivity
    n = mesh.num_vertices
    nnz = len(conn.indices)
    slots = conn.scatter.ravel()
    return tuple(
        sparse.csr_matrix((np.bincount(slots, e.ravel(), nnz), conn.indices,
                           conn.indptr), shape=(n, n))
        for e in elements
    )


def assemble_derivative(mesh: TriMesh, V):
    """(dK, dM), the exact derivatives at t = 0 of assemble(perturb(mesh, V,
    t)) for the vertex velocities V, shape (nv, 2), on the same pattern.

    Per triangle the edge perpendiculars g_i are linear in the vertices, so
    dg_i are those of V (_edge_perps), and d(area2) = sum_i g_i . V_i.  With
    G_ij = g_i . g_j the stiffness element is G / (2 area2), whose
    derivative is (dG + dG^T) / (2 area2) - G d(area2) / (2 area2^2) for
    dG_ij = dg_i . g_j; the mass element is proportional to area2.
    """
    V = np.asarray(V, dtype=float)
    area2, g = _p1_gradients(mesh)
    v = [V[mesh.triangles[:, i]] for i in range(3)]
    darea2 = np.einsum("tik,itk->t", g, v)
    dG = np.einsum("tik,tjk->tij", _edge_perps(*v), g)
    G = np.einsum("tik,tjk->tij", g, g)
    dke = ((dG + dG.transpose(0, 2, 1) - G * (darea2 / area2)[:, None, None])
           / (2.0 * area2)[:, None, None])
    return _summed(mesh, dke.reshape(-1, 9), np.outer(darea2 / 24.0, _MASS))


def grad_p1(mesh: TriMesh, u):
    """Per-triangle constant gradient of a nodal field, shape (nt, 2)."""
    area2, g = _p1_gradients(mesh)
    ut = u[mesh.triangles, None]
    return (ut[:, 0] * g[:, 0] + ut[:, 1] * g[:, 1] + ut[:, 2] * g[:, 2]) / area2[:, None]


def _splu_spd(A):
    """SuperLU factors of the positive definite CSC matrix A in the MMD
    order of A + A^T; diagonal pivots keep that symmetric order."""
    return splu(A, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                options={"SymmetricMode": True})


class _ColumnOrder:
    """A symmetric permutation of a square CSR pattern (indptr, indices),
    as index maps onto the permuted CSC matrix: vertex i becomes row and
    column perm[i].

    A symmetric matrix's CSR arrays are its CSC arrays.  Each permuted
    column keeps its rows in their stored order: SuperLU's symbolic step
    visits a column's rows in that order, so factorizing the permuted matrix
    in its NATURAL order repeats, bit for bit, the factorization in which
    SuperLU found perm.
    """

    def __init__(self, indptr, indices, perm):
        self.pattern = indptr, indices
        self.perm = perm

    @cached_property
    def _permuted(self):
        """(inv, indptr, take, indices): the inverse permutation and the
        permuted CSC pattern, whose data is data[take]; built on first use,
        as a connectivity factorized once never needs them."""
        indptr, indices = self.pattern
        inv = np.argsort(self.perm)
        counts = np.diff(indptr)[inv]
        new_indptr = np.concatenate([[0], np.cumsum(counts)])
        take = (np.repeat(indptr[inv] - new_indptr[:-1], counts)
                + np.arange(new_indptr[-1]))
        return inv, new_indptr, take, self.perm[indices[take]]

    def factor(self, data, border=None, **options):
        """SuperLU factors, in the NATURAL order, of the permuted symmetric
        matrix with CSR data `data` on the pattern, or of the bordered
        [[A, border], [border^T, 0]] with the border last; and a solve that
        takes and returns vectors in the original numbering."""
        n = len(self.perm)
        perm = self.perm
        inv, indptr, take, indices = self._permuted
        data = data[take]
        if border is not None:
            ends = indptr[1:]
            data = np.concatenate([np.insert(data, ends, border[inv]), border])
            indices = np.concatenate([np.insert(indices, ends, n), perm])
            indptr = np.append(indptr + np.arange(n + 1), indptr[-1] + 2 * n)
            perm, inv = np.append(perm, n), np.append(inv, n)
            n += 1
        A = sparse.csc_matrix((data, indices, indptr), shape=(n, n))
        A.has_canonical_format = True  # no duplicates; keep the row order
        lu = splu(A, permc_spec="NATURAL", **options)
        return lu, lambda b: lu.solve(b[inv])[perm]


def _factor(conn, data):
    """(solve, fill) of the positive definite matrix with CSR data `data` on
    the P1 pattern of the Connectivity conn.  The first factorization on conn
    finds the MMD order and keeps it as conn.column_order; later ones reuse
    it, with the same factors bit for bit as a search for the order."""
    if conn.column_order is None:
        n = len(conn.indptr) - 1
        lu = _splu_spd(sparse.csc_matrix((data, conn.indices, conn.indptr),
                                         shape=(n, n)))
        # perm_c is a view that would keep the factors alive: copy it
        conn.column_order = _ColumnOrder(conn.indptr, conn.indices,
                                         lu.perm_c.copy())
        return lu.solve, lu.nnz
    lu, solve = conn.column_order.factor(data, diag_pivot_thresh=0.0,
                                         options={"SymmetricMode": True})
    return solve, lu.nnz


@dataclass(frozen=True)
class ShiftedFactor:
    """An inverse of K - sigma M for one pencil, at the eigensolver shift
    sigma = -SHIFT_SCALE * tr(K)/tr(M).  solve maps a nodal vector, or an
    (n, m) block of them, to the inverse times it; fill is the nonzeros of
    the L and U factors.  shifted_factor makes the exact inverse from a
    factorization; as a preconditioner (neumann_eigs) any approximate
    inverse of K - sigma M on the pencil's vertex numbering serves, such as
    two_grid's cycle, whose fill is the coarse factor's."""

    sigma: float
    solve: Callable
    fill: int


def _shift(K, M):
    return -SHIFT_SCALE * K.diagonal().sum() / M.diagonal().sum()


def two_grid(K, M, coarse, P):
    """A preconditioner for the pencil (K, M) on a uniform refinement of a
    mesh whose pencil is factorized: a ShiftedFactor at this pencil's shift
    sigma whose solve is one symmetric two-grid cycle for K - sigma M
    (Hackbusch, Multi-Grid Methods and Applications, 1985) and whose fill is
    the coarse factor's.

    The cycle is a Jacobi sweep damped by JACOBI_WEIGHT, the coarse
    correction P (K_c - sigma_c M_c)^-1 P^T with ``coarse``, the ShiftedFactor
    of the coarse pencil, and P its exact prolongation (mesh.prolongation),
    then a second such sweep.  P^T K P and P^T M P are the coarse matrices,
    so the coarse factor is an exact Galerkin coarse-grid operator up to the
    two shifts.  K and M share one pattern, as assemble makes them; nothing
    is factorized.
    """
    sigma = _shift(K, M)
    A = sparse.csr_matrix((K.data - sigma * M.data, K.indices, K.indptr),
                          shape=K.shape)
    weight = JACOBI_WEIGHT / A.diagonal()

    def solve(B):
        D = weight if B.ndim == 1 else weight[:, None]
        X = D * B
        X += P @ coarse.solve(P.T @ (B - A @ X))
        X += D * (B - A @ X)
        return X

    return ShiftedFactor(sigma, solve, coarse.fill)


def shifted_factor(K, M, connectivity=None):
    """ShiftedFactor of the pencil (K, M).  With ``connectivity`` (K and M
    on its P1 pattern) the factorization uses or finds its column order
    (_factor); without, K - sigma M gets an order of its own."""
    sigma = _shift(K, M)
    if connectivity is None:
        lu = _splu_spd((K - sigma * M).tocsc())
        return ShiftedFactor(sigma, lu.solve, lu.nnz)
    return ShiftedFactor(sigma, *_factor(connectivity, K.data - sigma * M.data))


def _residuals(K, M, vals, X):
    MX = M @ X
    return np.linalg.norm(K @ X - MX * vals[None, :], axis=0) / np.linalg.norm(MX, axis=0)


def _check_tol(tol):
    if not 0.0 < tol < np.inf:
        raise ValueError(f"tol must be positive and finite, got {tol!r}")


def _dense_eigs(K, M, m):
    """Eigenvectors 1, ..., m (ascending, the constant mode 0 skipped) of
    the pencil, by a dense generalized eigensolve."""
    from scipy.linalg import eigh

    return eigh(K.toarray(), M.toarray(), subset_by_index=(1, m))[1]


def _rayleigh_pairs(K, M, X, k):
    """The Rayleigh quotients of the columns of X, ascending, X in their
    order, and the residuals of the first k.  Rayleigh quotients are
    accurate to the squared residual, unlike Ritz values from a shift."""
    vals = np.einsum("ij,ij->j", X, K @ X) / np.einsum("ij,ij->j", X, M @ X)
    order = np.argsort(vals)
    vals, X = vals[order], X[:, order]
    return vals, X, _residuals(K, M, vals[:k], X[:, :k])


def _gate(res, tol):
    if res.max() > tol:
        raise SolverError(
            f"eigensolve residual {res.max():.3e} exceeds tol {tol:.3e}",
            residuals=res,
        )


def _shift_invert_eigs(K, M, k, tol, constant, v0=None, connectivity=None,
                       factor=None):
    """k eigenpairs of K u = lambda M u nearest above sigma = -SHIFT_SCALE *
    tr(K)/tr(M), by ARPACK's implicitly restarted Lanczos on one factorization
    of the positive definite K - sigma M: ``factor``, the ShiftedFactor of
    this pencil if the caller keeps one, else shifted_factor(K, M,
    connectivity).  The start vector and every solve are projected
    M-orthogonally off ``constant``, an M-normalized null vector of K.
    Without ``v0`` the start vector is seeded random and the Lanczos basis
    has ncv = max(2k + 1, 20) vectors.  A given ``v0``
    (shape (n,), e.g. eigenvectors of a nearby problem) starts the basis
    instead, plus START_NOISE of the seeded vector, with ncv = 2k + 2:
    ARPACK fills all ncv vectors before its first convergence test, so a
    larger basis only adds solves to a good start.
    ARPACK accepts a Ritz pair (theta, x) of OP = (K - sigma M)^-1 M once its
    Ritz estimate ||OP x - theta x||_M is at most its tol times |theta|.  The
    gate below holds ||K x - lambda M x|| / ||M x|| <= tol instead, in units
    of lambda, and K x - lambda M x = -(lambda - sigma) (K - sigma M) (OP x -
    theta x): K - sigma M scales the unconverged Krylov remainder by
    eigenvalues well above lambda, so ARPACK's tol = tol left residuals up
    to 600 tol.  From the seeded start ARPACK is therefore asked for
    ARPACK_MARGIN * tol * area (area = 1^T M 1 makes it dimensionless, so
    the margin holds at any length unit), not below machine precision.  It
    still fills its basis once, so ncv + 2 solves is the floor: 22, where a
    machine-precision tol restarts to 39 on some sections.  A given v0 keeps
    machine precision: it may hold a wanted eigenvector only at the
    START_NOISE level, and a looser tol accepts the unwanted pairs it spans
    before that one grows (lambda3 returned as lambda2 from psi3 + psi4 on a
    bump, at any tol >= 1e-14).  ValueError unless 0 < tol < inf, or if v0
    has the wrong shape, is not finite or vanishes after the projection.
    Pencils too small to restart a Lanczos basis in are solved densely, and
    v0 and factor are not used there.  Returns (values, vectors, residuals,
    sigma, solves, fill), fill the nonzeros of the LU factors (0 if dense).
    """
    _check_tol(tol)
    n = K.shape[0]
    sigma = _shift(K, M)

    def project(y):
        return y - constant * (constant @ (M @ y))

    noise = project(np.random.default_rng(7).standard_normal(n))
    if v0 is None:
        ncv = max(2 * k + 1, 20)
        start = noise
        arpack_tol = max(ARPACK_MARGIN * tol * M.sum(), np.finfo(float).eps)
    else:
        ncv = 2 * k + 2
        arpack_tol = 0.0
        v0 = np.asarray(v0, dtype=float)
        if v0.shape != (n,) or not np.isfinite(v0).all():
            raise ValueError(f"start vector must be {n} finite values")
        start = project(v0)
        scale = np.linalg.norm(start)
        if not scale > 1e-10 * np.linalg.norm(v0):
            raise ValueError("start vector vanishes after projection off the "
                             "constant mode")
        start = start + noise * (START_NOISE * scale / np.linalg.norm(noise))
    solves = fill = 0
    if n - 1 <= ncv:
        X = _dense_eigs(K, M, k)
    else:
        if factor is None:
            factor = shifted_factor(K, M, connectivity)
        fill = factor.fill

        def apply_inverse(b):
            nonlocal solves
            solves += 1
            return project(factor.solve(b))

        try:
            _, X = eigsh(K, k, M, sigma=sigma, which="LM", v0=start, ncv=ncv,
                         tol=arpack_tol,
                         OPinv=LinearOperator((n, n), matvec=apply_inverse))
        except ArpackNoConvergence as exc:
            raise SolverError(
                f"eigensolve did not converge after {solves} solves",
                residuals=_residuals(K, M, exc.eigenvalues, exc.eigenvectors),
            ) from exc
    vals, X, res = _rayleigh_pairs(K, M, X, k)
    _gate(res, tol)
    return vals, X, res, sigma, solves, fill


def _lobpcg_eigs(K, M, k, tol, constant, start, solve):
    """The k lowest Ritz pairs of K u = lambda M u above the M-normalized
    null vector ``constant`` of K, by LOBPCG (Knyazev 2001) with B = M, the
    constraint Y = constant, the preconditioner ``solve`` (an approximate
    inverse of K - sigma M that maps (n, k) blocks) and the start block
    ``start``, shape (n, k).  An eigenvalue outside the block equal or close
    to the k-th stalls it.  lobpcg's warnings (too few iterations; a dense
    solve for n - 1 < 5 k, which is done here instead) are not passed on:
    SolverError if a residual exceeds tol after LOBPCG_MAXITER iterations.
    ValueError unless 0 < tol < inf, or if the start is not a finite (n, k)
    block.  Returns (values, vectors, residuals, solves), ascending, with
    the number of vectors preconditioned.
    """
    _check_tol(tol)
    n = K.shape[0]
    X = np.array(start, dtype=float)
    if X.shape != (n, k) or not np.isfinite(X).all():
        raise ValueError(f"start block must be {n} x {k} finite values")
    solves = 0
    if n - 1 < 5 * k:
        vals, X, res = _rayleigh_pairs(K, M, _dense_eigs(K, M, k), k)
    else:
        def precondition(B):
            nonlocal solves
            solves += B.shape[1]
            # one memory layout, whichever solve: lobpcg's BLAS products
            # round differently on C and Fortran blocks
            return np.ascontiguousarray(solve(B))

        MX = M @ X
        scale = (np.linalg.norm(MX, axis=0)
                 / np.sqrt(np.einsum("ij,ij->j", X, MX))).min()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            _, X = lobpcg(K, X, B=M, M=precondition, Y=constant[:, None],
                          tol=LOBPCG_MARGIN * tol * scale, largest=False,
                          maxiter=LOBPCG_MAXITER)
        vals, X, res = _rayleigh_pairs(K, M, X, k)
    _gate(res, tol)
    return vals, X, res, solves


def neumann_eigs(mesh: TriMesh, k, tol=1e-8, v0=None, matrices=None,
                 factor=None, preconditioner=None):
    """k+1 smallest Neumann eigenpairs of K u = lambda M u, zero mode included.

    The constant mode is deflated analytically and reported first; the other
    k come from shift-invert Lanczos at sigma = -SHIFT_SCALE * tr(K)/tr(M),
    or by LOBPCG if a preconditioner is given.
    v0, a nodal vector, warm-starts the Lanczos basis: it is projected
    M-orthogonally off the constant mode and the basis shrinks from
    max(2k + 1, 20) to 2k + 2 vectors (see _shift_invert_eigs).  A start
    close to the wanted eigenvectors, such as the prolonged eigenvector of
    a coarser mesh, takes fewer solves; a poor one, even one M-orthogonal to
    them, gives the same eigenvalues in more solves.  Without v0 the seeded
    start is used.  Either way the result is deterministic bit for bit: the
    factorization of K - sigma M reuses the column order of
    mesh.connectivity when an earlier one found it, with the same factors.
    matrices, the (K, M) of assemble(mesh) if the caller has them, saves
    assembling them again; factor, the shifted_factor of those matrices if
    the caller keeps it, saves factorizing them.
    preconditioner, a ShiftedFactor whose solve is any approximate inverse
    of K - sigma M on this mesh's vertex numbering (such as two_grid's cycle
    on the factor of the mesh this one refines), replaces Lanczos by LOBPCG
    preconditioned by that solve, with no factorization (_lobpcg_eigs).  v0
    is then required, an (n, k) start block such as the prolonged coarse
    psi2.  The Spectrum reports the preconditioner's shift, its
    applications as solves and fill 0.
    Raises ValueError if v0 is not n finite values (an n x k block under a
    preconditioner) or vanishes after the projection, SolverError if
    Lanczos fails or a residual exceeds tol.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    n = mesh.num_vertices
    if k + 2 > n:
        raise ValueError("k + 2 exceeds the vertex count")
    K, M = assemble(mesh) if matrices is None else matrices

    ones = np.ones(n)
    c = ones / np.sqrt(ones @ (M @ ones))
    lam1 = max(float(c @ (K @ c)), 0.0)
    if preconditioner is None:
        vals, X, res, sigma, solves, fill = _shift_invert_eigs(
            K, M, k, tol, constant=c, v0=v0, connectivity=mesh.connectivity,
            factor=factor)
    else:
        if v0 is None:
            raise ValueError("a preconditioned eigensolve needs a start block")
        vals, X, res, solves = _lobpcg_eigs(K, M, k, tol, c, v0,
                                            preconditioner.solve)
        sigma, fill = preconditioner.sigma, 0
    c_res = float(np.linalg.norm(K @ c - lam1 * (M @ c)) / np.linalg.norm(M @ c))
    return Spectrum(
        eigenvalues=np.concatenate([[lam1], vals]),
        eigenvectors=np.column_stack([c, X]),
        residuals=np.concatenate([[c_res], res]),
        shift=sigma,
        solves=solves,
        fill=fill,
    )


@dataclass(frozen=True)
class DeflatedSolve:
    """Result of a deflated shifted solve; fill is the nonzero count of the
    bordered matrix's LU factors (SuperLU.nnz)."""

    x: np.ndarray
    removed: float  # component psi . rhs removed from the rhs
    residual: float
    fill: int


def solve_deflated(K, M, lam, rhs, psi, connectivity=None):
    """Solve (K - lam*M) x = rhs with x M-orthogonal to the eigenvector psi.

    The rhs is first projected onto the M-orthogonal complement of psi (the
    removed component psi . rhs is reported); the constrained system is the
    bordered saddle-point system [[K-lam*M, M psi], [(M psi)^T, 0]].  K and
    M come from assemble on a mesh whose connectivity is ``connectivity``:
    the bordered matrix is factorized with partial pivoting in that
    connectivity's column order, found by its first eigensolve, with the
    border last.  Without a connectivity, or before any factorization on it,
    the order is found by factorizing M, which has the same pattern, and
    kept on the connectivity if there is one.
    NearDegenerateError: it is (nearly) singular, because lam is a multiple
    eigenvalue or psi is not its eigenvector.
    """
    rhs = np.asarray(rhs, dtype=float)
    psi = np.asarray(psi, dtype=float)
    m_psi = M @ psi

    removed = float(psi @ rhs)
    rhs_p = rhs - removed * m_psi / (psi @ m_psi)

    order = None if connectivity is None else connectivity.column_order
    if order is None:
        order = _ColumnOrder(K.indptr, K.indices,
                             _splu_spd(M.tocsc()).perm_c.copy())
        if connectivity is not None:
            connectivity.column_order = order
    a_data = K.data - lam * M.data
    try:
        # relax=1 keeps SuperLU's fundamental supernodes: relaxed ones pad
        # these factors with explicit zeros (693,899 stored entries against
        # 493,306 on the 128 x 64 rectangle, factorized in 54 ms against 39)
        lu, solve = order.factor(a_data, border=m_psi, relax=1)
    except RuntimeError as exc:
        raise NearDegenerateError(f"bordered factorization singular: {exc}")
    diag = np.abs(lu.U.diagonal())
    if diag.min() <= 1e-12 * diag.max():
        raise NearDegenerateError(
            "bordered factorization nearly singular: eigenvalue multiplicity "
            "or wrong deflation vector"
        )
    sol = solve(np.concatenate([rhs_p, [0.0]]))
    x = sol[:-1]
    A = sparse.csr_matrix((a_data, K.indices, K.indptr), shape=K.shape)
    residual = float(
        np.linalg.norm(A @ x - rhs_p + m_psi * sol[-1])
        / max(np.linalg.norm(rhs_p), 1e-300)
    )
    return DeflatedSolve(x=x, removed=removed, residual=residual, fill=lu.nnz)
