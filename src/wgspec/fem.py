"""P1 Lagrange finite elements on triangle meshes, and a Crouzeix-Raviart
lower bound for their Neumann eigenvalues.

Assembly of the stiffness and consistent mass matrices, Neumann
generalized eigensolves by shift-invert Lanczos (ARPACK through scipy's
eigsh, one sparse factorization per eigensolve), guaranteed lower
bounds of the same eigenvalues from the Crouzeix-Raviart element on the
same mesh (cr_eigs), and deflated solves of singular shifted systems by
conjugate gradients preconditioned with the eigensolve's own factors.
A positive definite P1 matrix whose reverse Cuthill-McKee band is narrow
is factorized by LAPACK's banded Cholesky, any other by one SuperLU call
that finds its own fill-reducing order (_factor_spd); the
Crouzeix-Raviart pencil always by SuperLU.  Where a pencil splits
cheaply, ARPACK runs on a symmetric standard operator and takes no
product with the mass: the banded Cholesky factor L L^T of K - sigma M
gives C = L^-1 M L^-T, and the Crouzeix-Raviart mass D is diagonal, so
that pencil is solved as D^-1/2 K D^-1/2.  A P1 pencil on SuperLU's
factors keeps ARPACK's generalized shift-invert mode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.linalg import LinAlgError, cholesky_banded
from scipy.linalg.lapack import dtbtrs
from scipy.sparse.csgraph import reverse_cuthill_mckee
from scipy.sparse.linalg import (ArpackNoConvergence, LinearOperator, cg, eigsh,
                                 splu)

from .errors import NearDegenerateError, SolverError
from .mesh import TriMesh, _edge_normals

# the eigensolver shift is -SHIFT_SCALE * tr(K)/tr(M): a fixed multiple of a
# ratio that scales like an eigenvalue, so the spectrum scales exactly
SHIFT_SCALE = 1e-5
# ARPACK's tol, relative to its Ritz values, as a fraction of the gate's
# relative tol (see _shift_invert_eigs)
ARPACK_MARGIN = 1e-3
# the P1 mass element over area/12, entry (i, j) at 3 i + j
_MASS = np.array([2.0, 1.0, 1.0, 1.0, 2.0, 1.0, 1.0, 1.0, 2.0])
# the Crouzeix-Raviart interpolation constant over the largest edge h
# (Liu, Appl. Math. Comput. 267, 2015): cr_eigs's lower bound
CR_CONSTANT = 0.1893
# solve_deflated: its CG's relative tolerance and iteration cap, and the
# largest relative residual and M-overlap with the constants of a deflation
# vector, far above a gated eigenvector's and far below a wrong one's
DEFLATED_RTOL = 1e-14
DEFLATED_MAXITER = 200
DEFLATION_TOL = 1e-6
# _factor_spd takes the banded Cholesky factor when the half-bandwidth kd in
# reverse Cuthill-McKee order has kd^2 <= BAND_LIMIT sqrt(n), n the order:
# the band's work, n kd^2, is then at most BAND_LIMIT times the n^(3/2) of a
# nested-dissection order (George, SIAM J. Numer. Anal. 10, 1973).  P1
# eigensolves ran faster on the band up to kd^2 / sqrt(n) = 173, and at 182
# and 187 on 8k-vertex pencils, but 15 % slower at 182 on the 33k-vertex
# 181^2 square, so the crossover moves with n (CHANGES.md).  Moving the
# limit would change which factor triangle 128 (at 182) gets
BAND_LIMIT = 176


@dataclass(frozen=True)
class Spectrum:
    """Sorted Neumann eigenpairs of (K, M), the constant mode first.

    eigenvalues are ascending (units 1/length^2); eigenvectors are nodal and
    M-orthonormal, one column per eigenvalue; residuals are the relative
    residuals ||K u - lambda M u|| / (lambda ||M u||) per pair, dimensionless,
    the constant mode's taken relative to lambda_2.
    shift is the shift sigma of the factorized K - sigma M that was solved
    with, solves the number of vectors solved with it (0 where the pencil
    was solved densely; on the band one solve is two half solves, with L
    and with L^T, and one product with M), fill the entries its factors
    store (their nnz: the band's (kd + 1) n, or SuperLU's nonzeros of L and
    U) and factor those factors (_factor_spd's: an object with solve(b)
    and nnz), kept so that solve_deflated can precondition with them.  Each
    eigenvalue is the Rayleigh quotient of its eigenvector, so by min-max
    it bounds the Neumann eigenvalue of the same index from above.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    residuals: np.ndarray
    shift: float
    solves: int
    fill: int
    factor: object = field(repr=False, compare=False)


def _p1_gradients(mesh: TriMesh):
    """Twice the triangle areas and the side normals g of mesh._edge_normals:
    grad phi_i = g[:, i] / area2 for the barycentric basis functions phi_i,
    and g[:, i] is linear in the corners."""
    return _edge_normals(mesh.vertices, mesh.triangles)


def assemble(mesh: TriMesh):
    """P1 stiffness and consistent mass matrices (CSR, symmetric).

    Element integrals are exact: constant gradients (mesh._edge_normals)
    for the stiffness, area/12 * (2 on the diagonal, 1 off) for the mass.
    The assembled stiffness annihilates the constant vector up to rounding.
    Both matrices share the pattern (indptr, indices) of mesh.connectivity,
    read-only; each is its element matrices summed into that pattern by one
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
    conn = mesh.connectivity
    n = mesh.num_vertices
    slots = conn.scatter.ravel()
    return tuple(
        sparse.csr_matrix((np.bincount(slots, e.ravel(), len(conn.indices)),
                           conn.indices, conn.indptr), shape=(n, n))
        for e in (ke, np.outer(area / 12.0, _MASS))
    )


def _splu_spd(A):
    """SuperLU factors of the positive definite CSC matrix A in the MMD
    order of A + A^T; diagonal pivots keep that symmetric order."""
    return splu(A, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                options={"SymmetricMode": True})


@dataclass(frozen=True)
class _BandCholesky:
    """The lower banded Cholesky factor (LAPACK pbtrf, in cholesky_banded's
    lower form) of a positive definite matrix A permuted to order: A[order]
    [:, order] = L L^T.  nnz is the (kd + 1) n entries the band stores.
    half_solve applies L^-1 or L^-T (LAPACK tbtrs) in the permuted order;
    solve is the two of them, and _shift_invert_eigs splits the pencil
    with them."""

    band: np.ndarray
    order: np.ndarray

    @property
    def nnz(self):
        return self.band.size

    def half_solve(self, b, trans):
        """L^-1 b (trans "N") or L^-T b (trans "T"), b in the permuted
        order: one vector or one column per vector."""
        return dtbtrs(self.band, b, uplo="L", trans=trans)[0]

    def solve(self, b):
        """A^-1 b."""
        x = np.empty_like(b, dtype=float)
        x[self.order] = self.half_solve(self.half_solve(b[self.order], "N"), "T")
        return x


def _factor_spd(A):
    """Factors of the symmetric positive definite CSC matrix A, with
    solve(b) and nnz.

    With kd the half-bandwidth of A in reverse Cuthill-McKee order, A is
    factorized by banded Cholesky in that order when kd^2 <= BAND_LIMIT
    sqrt(n) (_BandCholesky), and by _splu_spd otherwise.  The band is
    summed straight from A's arrays into Fortran order, so LAPACK works in
    place on it, and the index arrays are freed before either factorization
    allocates.  On the band, SolverError if a leading minor of the permuted
    A is not positive, so A is not positive definite.
    """
    n = A.shape[0]
    order = reverse_cuthill_mckee(A, symmetric_mode=True)
    rank = np.empty(n, dtype=np.intp)
    rank[order] = np.arange(n)
    # stored entry (i, j) of A, i its row A.indices, moves to (rank i,
    # rank j); A is symmetric, so with depth = rank j - rank i >= 0 it is
    # also entry (rank j, rank i) of the lower triangle, which the lower
    # form keeps at band[depth, rank i]
    row = rank[A.indices]
    depth = rank[np.repeat(np.arange(n), np.diff(A.indptr))] - row
    kd = int(depth.max())
    if kd * kd > BAND_LIMIT * math.sqrt(n):
        del row, depth  # before SuperLU's fill is allocated
        return _splu_spd(A)
    keep = depth >= 0
    # a C-ordered (n, kd + 1) array transposed: each column of the band is
    # contiguous, as LAPACK stores it
    band = np.bincount(row[keep] * (kd + 1) + depth[keep], A.data[keep],
                       (kd + 1) * n).reshape(n, kd + 1).T
    del row, depth, keep
    try:
        band = cholesky_banded(band, overwrite_ab=True, lower=True,
                               check_finite=False)
    except LinAlgError as exc:
        # scipy's message: "<i>-th leading minor not positive definite"
        minor = str(exc).partition("-th")[0]
        raise SolverError(
            f"banded Cholesky of {n} unknowns with half-bandwidth {kd}: "
            f"leading minor {minor} of the reordered matrix is not positive"
        ) from exc
    return _BandCholesky(band, order)


def _mass(M, X):
    """M X, or X where M is None: the mass of a standard pencil."""
    return X if M is None else M @ X


def _residuals(K, M, vals, X, weight=None):
    """The relative residual ||K x - lambda M x|| / (lambda ||M x||) of each
    pair (lambda, x): dimensionless, so one tol holds in every length unit.
    With weight, both vectors are first multiplied by it entrywise.
    SolverError unless every lambda > 0."""
    if not (vals > 0.0).all():
        raise SolverError(f"eigenvalue {vals.min():.3e} is not positive")
    MX = _mass(M, X)
    R = K @ X - MX * vals
    if weight is not None:
        R, MX = R * weight[:, None], MX * weight[:, None]
    return np.linalg.norm(R, axis=0) / (vals * np.linalg.norm(MX, axis=0))


def _check_tol(tol):
    if not 0.0 < tol < np.inf:
        raise ValueError(f"tol must be positive and finite, got {tol!r}")


def _dense_eigs(K, M, m):
    """Eigenvectors 1, ..., m (ascending, the constant mode 0 skipped) of
    the pencil, by a dense generalized eigensolve."""
    from scipy.linalg import eigh

    return eigh(K.toarray(), None if M is None else M.toarray(),
                subset_by_index=(1, m))[1]


def _rayleigh_pairs(K, M, X, k, weight=None):
    """The Rayleigh quotients of the columns of X, ascending, X in their
    order, and the residuals of the first k (_residuals, with weight).
    Rayleigh quotients are accurate to the squared residual, unlike Ritz
    values from a shift."""
    vals = np.einsum("ij,ij->j", X, K @ X) / np.einsum("ij,ij->j", X, _mass(M, X))
    order = np.argsort(vals)
    vals, X = vals[order], X[:, order]
    return vals, X, _residuals(K, M, vals[:k], X[:, :k], weight)


def _gate(res, tol):
    if res.max() > tol:
        raise SolverError(
            f"eigensolve residual {res.max():.3e} exceeds tol {tol:.3e}",
            residuals=res,
        )


def _shift_invert_eigs(K, M, k, tol, constant, factorize, weight=None):
    """k eigenpairs of K u = lambda M u nearest above sigma = -SHIFT_SCALE *
    tr(K)/tr(M), by ARPACK's implicitly restarted Lanczos on one
    factorization of the positive definite K - sigma M by factorize
    (_factor_spd or _splu_spd), which returns an object with solve(b) and
    nnz.  M None is the identity: a standard pencil, as cr_eigs makes its
    own.  ``constant`` is a null vector of K, M-normalized; it is deflated
    from the seeded start vector and from every step.

    ARPACK's operator follows the factor.  On a _BandCholesky, K - sigma M
    = P^T L L^T P, ARPACK runs in standard mode on the symmetric C = L^-1 P
    M P^T L^-T, whose eigenpairs are theta = 1 / (lambda - sigma) and y =
    L^T P x.  A step is two half solves and one product with M, applied in
    M's own order to vectors scattered and gathered by P.  The constant's
    image L^T P c = L^-1 P (K - sigma M) c is deflated by one Euclidean
    projection per step, and the start vector takes one step of C first,
    as ARPACK's generalized mode takes one of its operator.  The vectors x
    = P^T L^-T y are then M-projected off c and M-normalized.  SuperLU's L
    is reachable only through whole solves, so on its factors ARPACK runs
    in shift-invert mode on OP = (K - sigma M)^-1 M, generalized where M is
    given, and every solve is projected M-orthogonally off c.

    ARPACK accepts a Ritz pair once its Ritz estimate, ||C y - theta y|| or
    ||OP x - theta x||_M, is at most its tol times theta.  With lambda =
    sigma + 1/theta, C y - theta y = -theta L^-1 P (K x - lambda M x) and
    K x - lambda M x = -(lambda - sigma) (K - sigma M) (OP x - theta x):
    L, or K - sigma M, scales the unconverged Krylov remainder, which lies
    along eigenvalues lambda_j well above lambda, by sqrt(lambda_j - sigma)
    or by lambda_j - sigma, so the relative residual exceeds ARPACK's tol
    by up to sqrt(lambda_j / lambda) or lambda_j / lambda.  To hold the gate
    on the relative residual ||K x - lambda M x|| / (lambda ||M x||) <= tol
    (_residuals, with weight), ARPACK is asked for ARPACK_MARGIN * tol, not
    below machine precision.
    The Lanczos basis has ncv = max(2k + 1, 20) vectors for k >= 2, where
    lambda_3's gap to lambda_4 is often narrow: at 8 to 12 vectors the 2 pi
    x pi rectangle took 32 to 36 solves, against 22 at 20.  For k = 1 it
    has 8, and lambda_2 alone converged in 10 to 18 solves on every section
    tried, against 22 at 20.  ARPACK fills its basis once at least, so the
    floor is ncv + 1 solves on SuperLU's factors and ncv + 2 on the band,
    whose start takes one step of C more: 10 for k = 1 and 22 for k >= 2,
    where a machine-precision tol restarts to 39 on some sections.
    ValueError unless 0 < tol < inf.  Pencils too small to restart a
    Lanczos basis in (n - 1 <= ncv) are solved densely, with no solve; K -
    sigma M is factorized all the same, for solve_deflated.  SolverError if
    Lanczos stops short, with the residuals of the pairs it converged.
    Returns (values, vectors, residuals, sigma, solves, lu), lu the factors
    of K - sigma M.
    """
    _check_tol(tol)
    n = K.shape[0]
    mass = sparse.identity(n) if M is None else M
    sigma = -SHIFT_SCALE * K.diagonal().sum() / mass.diagonal().sum()
    ncv = max(2 * k + 1, 20) if k > 1 else 8
    solves = 0
    lu = factorize((K - sigma * mass).tocsc())
    if n - 1 <= ncv:
        X = _dense_eigs(K, M, k)
    else:
        v0 = np.random.default_rng(7).standard_normal(n)
        if isinstance(lu, _BandCholesky):
            order = lu.order
            # the constant's image L^T P c = L^-1 P (K - sigma M) c
            yc = lu.half_solve((K @ constant - sigma * _mass(M, constant))[order],
                               "N")
            yc /= np.linalg.norm(yc)

            def deflate(y):
                return y - yc * (yc @ y)

            def back(Y):
                X = np.empty_like(Y)
                X[order] = lu.half_solve(Y, "T")
                return X

            def to_pencil(Y):
                # K c = 0 holds to rounding, against sigma M c: L^T P c is an
                # eigenvector of C to about 1e-10 only, and solve_deflated
                # needs X M-orthogonal to c to rounding
                X = back(Y)
                X -= constant[:, None] * (constant @ _mass(M, X))
                return X / np.sqrt(np.einsum("ij,ij->j", X, _mass(M, X)))

            def apply_split(y):
                nonlocal solves
                solves += 1
                return deflate(lu.half_solve(_mass(M, back(y))[order], "N"))

            A = LinearOperator((n, n), matvec=apply_split, dtype=float)
            # a start smoothed by C, as ARPACK's generalized mode smooths its
            # own: from the raw start the 2 pi x pi rectangle took 38 solves
            v0, kwargs = apply_split(deflate(v0)), {}
        else:
            def project(y):
                return y - constant * (constant @ _mass(M, y))

            def apply_inverse(b):
                nonlocal solves
                solves += 1
                return project(lu.solve(b))

            def to_pencil(X):
                return X

            A, v0 = K, project(v0)
            kwargs = dict(M=M, sigma=sigma, OPinv=LinearOperator(
                (n, n), matvec=apply_inverse, dtype=float))
        try:
            X = to_pencil(eigsh(A, k, which="LM", ncv=ncv, v0=v0,
                                tol=max(ARPACK_MARGIN * tol, np.finfo(float).eps),
                                **kwargs)[1])
        except ArpackNoConvergence as exc:
            X = to_pencil(exc.eigenvectors)
            raise SolverError(
                f"eigensolve did not converge after {solves} solves",
                residuals=_rayleigh_pairs(K, M, X, X.shape[1], weight)[2],
            ) from exc
    vals, X, res = _rayleigh_pairs(K, M, X, k, weight)
    _gate(res, tol)
    return vals, X, res, sigma, solves, lu


def neumann_eigs(mesh: TriMesh, k, tol=1e-8, matrices=None):
    """k+1 smallest Neumann eigenpairs of K u = lambda M u, zero mode included.

    The constant mode is deflated analytically and reported first; the other
    k come from shift-invert Lanczos at sigma = -SHIFT_SCALE * tr(K)/tr(M)
    from a seeded start (_shift_invert_eigs), so the result is deterministic
    bit for bit.
    Each eigenvalue is the Rayleigh quotient of its eigenvector, M-orthogonal
    to the constants, so by min-max it is an upper bound for the Neumann
    eigenvalue of the same index on the meshed polygon.
    matrices, the (K, M) of assemble(mesh) if the caller has them, saves
    assembling them again.
    Raises ValueError unless 0 < tol < inf and the mesh has k + 2 vertices
    or more, SolverError if Lanczos fails, an eigenvalue is not positive or
    a relative residual ||K u - lambda M u|| / (lambda ||M u||) exceeds tol.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    n = mesh.num_vertices
    if k + 2 > n:
        raise ValueError(f"the mesh's vertex count is {n}, and an eigensolve of "
                         f"{k} eigenpairs above the constant mode needs at "
                         f"least {k + 2}")
    K, M = assemble(mesh) if matrices is None else matrices

    ones = np.ones(n)
    c = ones / np.sqrt(ones @ (M @ ones))
    lam1 = max(float(c @ (K @ c)), 0.0)
    vals, X, res, sigma, solves, lu = _shift_invert_eigs(
        K, M, k, tol, constant=c, factorize=_factor_spd)
    c_res = float(np.linalg.norm(K @ c - lam1 * (M @ c)) / (vals[0] * np.linalg.norm(M @ c)))
    return Spectrum(
        eigenvalues=np.concatenate([[lam1], vals]),
        eigenvectors=np.column_stack([c, X]),
        residuals=np.concatenate([[c_res], res]),
        shift=sigma,
        solves=solves,
        fill=lu.nnz,
        factor=lu,
    )


def cr_eigs(mesh: TriMesh, k, tol=1e-8):
    """Guaranteed lower bounds of the Neumann eigenvalues lambda_2, ...,
    lambda_{k+1} of the meshed polygon, ascending, from the Crouzeix-Raviart
    (CR) element on the same mesh.

    The CR unknowns are the edges of mesh.connectivity; the basis function
    of the side opposite vertex i is 1 - 2 phi_i, so the element stiffness
    is 2 g_i . g_j / area2 (mesh._edge_normals) and the mass, exact by midpoint
    quadrature, is diagonal: area/3 per side.  The constant vector lies in
    the CR space and K annihilates it.  M = D is diagonal, so the pencil is
    solved as the standard D^-1/2 K D^-1/2 for z = D^1/2 x, with no mass
    (_shift_invert_eigs), on SuperLU factors (_splu_spd): on the edge graph
    SuperLU's fill stays far below a band's.  Each Rayleigh quotient rho
    is widened by its Krylov-Bogoliubov radius ||K x - rho M x||_{M^-1} /
    ||x||_M = ||D^-1/2 K D^-1/2 z - rho z|| / ||z||, which some CR
    eigenvalue lies within; the residual gate's ||K x - rho M x|| / (rho
    ||M x||) is the same residual scaled by D^1/2 entrywise, so no
    unscaled K is built.  With h the largest edge, lambda_k >= t / (1 +
    (CR_CONSTANT h)^2 t) for t = lambda_k^CR (Liu, Appl. Math. Comput. 267,
    2015; Carstensen & Gedicke, Math. Comp. 83, 2014), and the bound grows
    with t, so it is applied to rho minus its radius.  Checked numerically
    rather than proved here: that the constant holds for the Neumann
    problem with the zero mode counted as lambda_1 (on rectangles and right
    triangles, the closed forms lie inside every enclosure tried), and that
    the solver returns the k-th CR eigenvalue and not a higher one.  Raises
    ValueError unless 0 < tol < inf, SolverError if Lanczos fails, a
    relative residual ||K x - rho M x|| / (rho ||M x||) exceeds tol or a
    radius reaches down to the zero mode.
    """
    conn = mesh.connectivity
    ne = len(conn.edges)
    if k + 2 > ne:
        raise ValueError(f"the mesh's edge count is {ne}, and a Crouzeix-Raviart "
                         f"eigensolve of {k} eigenpairs above the constant "
                         f"mode needs at least {k + 2}")
    area2, g = _p1_gradients(mesh)
    sides = conn.tri_edges[:, (1, 2, 0)]
    root = np.sqrt(np.bincount(sides.ravel(), np.repeat(area2 / 6.0, 3), ne))
    # the element stiffness scaled to D^-1/2 K D^-1/2, D = diag(root^2)
    rs = root[sides]
    ke = (2.0 * np.einsum("tik,tjk->tij", g, g)
          / (area2[:, None, None] * rs[:, :, None] * rs[:, None, :]))
    K = sparse.csr_matrix((ke.ravel(), (np.repeat(sides, 3, axis=1).ravel(),
                                        np.tile(sides, 3).ravel())),
                          shape=(ne, ne))
    vals, Z, res = _shift_invert_eigs(K, None, k, tol, root / np.linalg.norm(root),
                                      _splu_spd, weight=root)[:3]
    # x = D^-1/2 z: ||K x - rho D x||_{D^-1} / ||x||_D = ||K z - rho z|| / ||z||
    radii = np.linalg.norm(K @ Z - Z * vals, axis=0) / np.linalg.norm(Z, axis=0)
    lower = vals - radii
    if not lower[0] > 0.0:
        raise SolverError(
            f"CR eigenvalue {vals[0]:.3e} is within its residual radius "
            f"{radii[0]:.3e} of zero", residuals=res)
    return lower / (1.0 + (CR_CONSTANT * mesh.max_edge()) ** 2 * lower)


@dataclass(frozen=True)
class DeflatedSolve:
    """Result of a deflated shifted solve; iterations is the number of CG
    steps taken (0 when the projected rhs is zero)."""

    x: np.ndarray
    removed: float  # component psi . rhs removed from the rhs
    residual: float
    iterations: int


def solve_deflated(K, M, lam, rhs, psi, factor):
    """Solve (K - lam*M) x = rhs with x M-orthogonal to the eigenvector psi.

    K and M come from assemble: symmetric, with K c = 0 for the constant c,
    M-normalized.  psi, once past the gate below, takes one M-Gram-Schmidt
    step against c.  The rhs is projected onto the M-orthogonal complement
    of psi (the removed component psi . rhs is reported), giving b.  So the
    component of x along c is -c^T b / lam in closed form, and the rest, y,
    lies in the M-orthogonal complement of {c, psi}, where K - lam*M is
    positive definite when lam is the simple eigenvalue above the zero mode.
    y comes from scipy's conjugate gradients on that complement, Pi the
    M-orthogonal projection onto it: the operator Pi^T (K - lam*M) Pi with
    the symmetric preconditioner Pi F Pi^T, F the solve with factor, the
    factors of K - sigma M for a sigma < 0 (an object with solve(b), as
    _factor_spd returns): the Spectrum.factor of the eigensolve that gave
    psi, so nothing is factorized here.  The preconditioned spectrum lies in
    [(lam3 - lam)/(lam3 - sigma), 1), and only its few lowest eigenvalues
    are far from 1, so a small gap costs CG only a few more steps (deflated
    CG: Saad, Yeung, Erhel & Guyomarc'h, SIAM J. Sci. Comput. 21, 2000).
    CG stops at DEFLATED_RTOL of its rhs; residual is ||(K - lam*M) x - b||
    / ||b||, and b = 0 gives x = 0, residual 0 and no step.
    NearDegenerateError: psi's relative residual ||K psi - lam M psi|| /
    (lam ||M psi||) or its M-overlap with c exceeds DEFLATION_TOL, because
    psi is not the eigenvector of lam; or CG does not converge in
    DEFLATED_MAXITER steps, because lam is a multiple eigenvalue.
    """
    rhs = np.asarray(rhs, dtype=float)
    psi = np.asarray(psi, dtype=float)
    n = len(psi)

    def shifted(x):
        # K x - lam M x, not (K - lam M) x: rounding the entries of K - lam M
        # moved shapederiv's values by 1.4e-12 relative on the 8 x 1
        # rectangle at 256 x 32, against 5e-15 for this form
        return K @ x - lam * (M @ x)

    ones = np.ones(n)
    m_ones = M @ ones
    c_norm = np.sqrt(ones @ m_ones)
    c = ones / c_norm  # as neumann_eigs makes it
    m_psi = M @ psi
    psi_residual = np.linalg.norm(shifted(psi)) / (lam * np.linalg.norm(m_psi))
    overlap = abs(c @ m_psi) / np.sqrt(psi @ m_psi)
    if not max(psi_residual, overlap) <= DEFLATION_TOL:
        raise NearDegenerateError(
            f"psi has relative residual {psi_residual:.3e} and M-overlap "
            f"{overlap:.3e} with the constants: wrong deflation vector")
    # the projections break at overlaps far below DEFLATION_TOL
    psi = psi - (c @ m_psi) * c
    m_psi = M @ psi
    psi_norm = np.sqrt(psi @ m_psi)
    removed = float(psi @ rhs)
    rhs_p = rhs - removed * m_psi / psi_norm ** 2
    # the M-orthonormal c and psi, and their duals M Z
    Z = np.column_stack([c, psi / psi_norm])
    MZ = np.column_stack([m_ones / c_norm, m_psi / psi_norm])
    if not rhs_p.any():
        return DeflatedSolve(x=np.zeros_like(rhs_p), removed=removed,
                             residual=0.0, iterations=0)

    def project(x):
        return x - Z @ (MZ.T @ x)

    def project_dual(r):
        return r - MZ @ (Z.T @ r)

    steps = []  # one entry per CG step
    y, info = cg(
        LinearOperator((n, n), matvec=lambda p: project_dual(shifted(project(p)))),
        project_dual(rhs_p), rtol=DEFLATED_RTOL, maxiter=DEFLATED_MAXITER,
        M=LinearOperator((n, n),
                         matvec=lambda r: project(factor.solve(project_dual(r)))),
        callback=steps.append)
    if info:
        raise NearDegenerateError(
            f"deflated CG did not converge in {DEFLATED_MAXITER} steps: "
            "eigenvalue multiplicity")
    x = project(y) - (c @ rhs_p / lam) * c
    residual = float(np.linalg.norm(shifted(x) - rhs_p) / np.linalg.norm(rhs_p))
    return DeflatedSolve(x=x, removed=removed, residual=residual,
                         iterations=len(steps))
